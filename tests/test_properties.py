"""Property-based tests (hypothesis) for core data structures & invariants."""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import SensorNetwork
from repro.radio.linkmodels import PerfectLinks
from repro.sim.units import seconds
from repro.topology import GridTopology

from repro.agilla.assembler import assemble, disassemble
from repro.agilla.fields import (
    AgentIdField,
    FieldType,
    LocationField,
    Reading,
    ReadingWildcard,
    StringField,
    TypeWildcard,
    Value,
    decode_field,
    pack_string,
    unpack_string,
)
from repro.agilla.tuples import AgillaTuple, MAX_FIELD_BYTES
from repro.agilla.tuplespace import TsWork, TupleSpace
from repro.errors import TupleSpaceFullError
from repro.location import Location
from repro.sim.kernel import Simulator

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
packable_text = st.text(alphabet=string.ascii_lowercase + "_-.!?", min_size=0, max_size=3)

locations = st.builds(
    Location,
    st.integers(min_value=-32768, max_value=32767),
    st.integers(min_value=-32768, max_value=32767),
)

concrete_fields = st.one_of(
    st.builds(Value, st.integers(min_value=-32768, max_value=32767)),
    st.builds(AgentIdField, st.integers(min_value=0, max_value=0xFFFF)),
    st.builds(StringField, packable_text.filter(lambda t: len(t) > 0)),
    st.builds(LocationField, locations),
    st.builds(
        Reading,
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=-32768, max_value=32767),
    ),
)

any_fields = st.one_of(
    concrete_fields,
    st.builds(TypeWildcard, st.sampled_from(list(FieldType))),
    st.builds(ReadingWildcard, st.integers(min_value=0, max_value=255)),
)


def small_tuples(fields=concrete_fields):
    return st.lists(fields, min_size=0, max_size=5).map(
        lambda fs: AgillaTuple(tuple(fs))
        if sum(f.wire_size for f in fs) <= MAX_FIELD_BYTES
        else AgillaTuple(tuple(fs[:2]))
    )


# ----------------------------------------------------------------------
# Codec round trips
# ----------------------------------------------------------------------
class TestCodecProperties:
    @given(packable_text)
    def test_string_packing_round_trips(self, text):
        assert unpack_string(pack_string(text)) == text

    @given(any_fields)
    def test_field_codec_round_trips(self, field):
        decoded, consumed = decode_field(field.encode())
        assert decoded == field
        assert consumed == field.wire_size

    @given(small_tuples(any_fields))
    def test_tuple_codec_round_trips(self, tup):
        decoded, consumed = AgillaTuple.decode(tup.encode())
        assert decoded == tup
        assert consumed == tup.wire_size

    @given(small_tuples(any_fields), st.binary(min_size=0, max_size=8))
    def test_tuple_decode_ignores_trailing_bytes(self, tup, suffix):
        decoded, consumed = AgillaTuple.decode(tup.encode() + suffix)
        assert decoded == tup
        assert consumed == tup.wire_size


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------
class TestTupleSizes:
    @given(small_tuples(any_fields))
    def test_sizes_are_the_per_field_sum(self, tup):
        field_bytes = sum(field.wire_size for field in tup.fields)
        assert tup.field_bytes == field_bytes
        assert tup.wire_size == 1 + field_bytes == len(tup.encode())


# ----------------------------------------------------------------------
# Matching properties
# ----------------------------------------------------------------------
class TestMatchingProperties:
    @given(small_tuples())
    def test_concrete_tuple_matches_itself(self, tup):
        assert tup.matches(tup)

    @given(small_tuples())
    def test_all_wildcard_template_matches(self, tup):
        template = AgillaTuple(tuple(TypeWildcard(f.ftype) for f in tup.fields))
        assert template.matches(tup)

    @given(small_tuples(), small_tuples())
    def test_arity_mismatch_never_matches(self, a, b):
        if a.arity != b.arity:
            assert not a.matches(b)


# ----------------------------------------------------------------------
# Tuple space invariants
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["out", "inp", "rdp", "count", "remove_all"]),
        small_tuples(),
    ),
    max_size=40,
)


class TestTupleSpaceProperties:
    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_arena_accounting_never_breaks(self, operations):
        space = TupleSpace(capacity=120)
        shadow: list[AgillaTuple] = []
        for op, tup in operations:
            if op == "out":
                try:
                    space.out(tup)
                    shadow.append(tup)
                except TupleSpaceFullError:
                    assert space.last_work == TsWork()  # charged no arena work
                except Exception:
                    continue  # template insert rejected
            elif op == "inp":
                removed = space.inp(tup)
                if removed is not None:
                    shadow.remove(removed)
            elif op == "rdp":
                space.rdp(tup)
            elif op == "count":
                space.count(tup)
            else:
                kept = [t for t in shadow if not tup.matches(t)]
                assert space.remove_all(tup) == len(shadow) - len(kept)
                shadow = kept
            # Invariants after every operation:
            assert space.used_bytes == sum(t.wire_size for t in shadow)
            assert 0 <= space.used_bytes <= space.capacity
            assert space.tuples() == shadow

    @given(small_tuples())
    def test_out_then_inp_round_trips(self, tup):
        if tup.is_template:
            return
        space = TupleSpace()
        space.out(tup)
        assert space.inp(tup) == tup
        assert len(space) == 0

    @given(st.lists(small_tuples().filter(lambda t: not t.is_template), max_size=8))
    def test_count_equals_matching_scan(self, tuples):
        space = TupleSpace(capacity=600)
        stored = []
        for tup in tuples:
            try:
                space.out(tup)
                stored.append(tup)
            except TupleSpaceFullError:
                break
        for tup in stored:
            expected = sum(1 for t in stored if tup.matches(t))
            assert space.count(tup) == expected


# ----------------------------------------------------------------------
# Assembler round trip
# ----------------------------------------------------------------------
simple_instructions = st.sampled_from(
    ["nop", "pop", "copy", "add", "halt", "loc", "aid", "wait", "out", "inp"]
)
operand_lines = st.one_of(
    st.integers(min_value=0, max_value=255).map(lambda v: f"pushc {v}"),
    st.integers(min_value=-32768, max_value=32767).map(lambda v: f"pushcl {v}"),
    packable_text.filter(lambda t: t).map(lambda t: f"pushn {t}"),
    st.tuples(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
    ).map(lambda p: f"pushloc {p[0]} {p[1]}"),
    st.integers(min_value=0, max_value=11).map(lambda v: f"getvar {v}"),
)


class TestAssemblerProperties:
    @given(st.lists(st.one_of(simple_instructions, operand_lines), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_assemble_disassemble_round_trips(self, lines):
        program = assemble("\n".join(lines))
        recovered = disassemble(program.code)
        assert assemble("\n".join(recovered)).code == program.code


# ----------------------------------------------------------------------
# Adaptive neighborhoods: acquaintance lists converge to radio ground truth
# ----------------------------------------------------------------------
#: Beacon period and expiry for the convergence proof (µs / intervals).
_PERIOD = seconds(2.0)
_K = 3
#: Beacon jitter stretches an interval to at most 1.25 × the period, so
#: ``k + 1`` *intervals* of quiescence bound both directions: a live
#: neighbor beacons at least once, and a silent entry crosses the ``k``
#: period staleness horizon and meets an evicting beat.
_QUIESCENCE_S = (_K + 1) * 1.25 * _PERIOD / 1_000_000 + 0.5

#: Field geometry: a 3×3 grid at 1 m spacing, 2.2 m radio range, nodes
#: shuffled among integer slots in [0, 4]² by the interleaving.
_SLOTS = 5

churn_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("move"),
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=_SLOTS - 1),
            st.integers(min_value=0, max_value=_SLOTS - 1),
        ),
        st.tuples(st.just("fail"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("recover"), st.integers(min_value=0, max_value=8)),
    ),
    min_size=0,
    max_size=14,
)


class TestAdaptiveConvergenceProperty:
    """PR 4's acceptance property, mirroring PR 2's incremental-index proof:
    under *any* interleaving of moves, failures, and recoveries, every live
    node's acquaintance list converges to the channel's ground-truth
    in-range set — membership *and* positions — within ``k + 1`` beacon
    intervals of quiescence."""

    def _deploy(self):
        net = SensorNetwork(
            GridTopology(3, 3),
            seed=3,
            base_station=False,
            physical=True,
            spacing_m=1.0,
            link_model=PerfectLinks(range_m=2.2),
            beacon_period=_PERIOD,
            adaptive=True,
            beacon_expiry_intervals=_K,
        )
        # The property under proof is *list maintenance*, not MAC luck: a
        # hidden-terminal collision (two mutually inaudible beacons
        # overlapping at a common receiver) can eat one beacon and is
        # physically legitimate — but it makes the k+1 bound probabilistic.
        # Shrinking airtime 1000× makes such overlap measure-zero while
        # leaving scheduling, jitter, expiry, and re-announcement untouched;
        # k = 3 additionally tolerates any single lost beacon.
        net.channel.bitrate *= 1000
        return net

    @given(churn_ops)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_lists_converge_to_in_range_ground_truth(self, operations):
        net = self._deploy()
        addresses = sorted(net.topology.locations())
        for op in operations:
            address = addresses[op[1]]
            if op[0] == "move":
                net.move_node(address, (float(op[2]), float(op[3])))
            elif op[0] == "fail":
                net.fail_node(address)
            elif op[0] == "recover":
                net.recover_node(address)
            net.run(0.4)  # interleave the churn in simulated time
        net.run(_QUIESCENCE_S)  # quiescence: k + 1 beacon intervals

        channel = net.channel
        in_range = channel.link_model.in_range
        radios = {address: channel.radio_for(net.topology.mote_id(address)) for address in addresses}
        for address, radio in radios.items():
            if not radio.enabled:
                continue  # a dark node heard nothing; its list is frozen
            expected = {
                other.mote.id: other.mote.location
                for other_address, other in radios.items()
                if other is not radio
                and other.enabled
                and in_range(other.position, radio.position)
            }
            acquaintances = net.nodes[address].beacons.acquaintances
            actual = {
                entry.mote_id: entry.location for entry in acquaintances.neighbors()
            }
            assert actual == expected, f"node {address} diverged from ground truth"


# ----------------------------------------------------------------------
# Delivery path: cached/batched fan-out == the naive per-frame reference
# ----------------------------------------------------------------------
from repro.mote import Environment, Mote  # noqa: E402
from repro.radio import Channel, Frame, UniformLossLinks  # noqa: E402
from repro.sim.units import ms  # noqa: E402


class _NaiveChannel(Channel):
    """The pre-cache, pre-batching reference: every frame takes its audiences
    straight from the link model's ``in_range`` over the attached radios,
    recomputes each receiver's PRR, rediscovers its overlap set from a full
    transmission log, and resolves reception inline, one receiver at a time
    — the PR 3 delivery loop, verbatim in spirit, minus every hearer cache
    (so a stale cached audience shows up as a divergence)."""

    def begin_transmission(self, tx) -> None:
        history = getattr(self, "_history", None)
        if history is None:
            history = self._history = []
        history.append(tx)
        super().begin_transmission(tx)

    def _audience(self, radio):
        """Attached radios in range of ``radio`` now, in attach order."""
        in_range = self._link_model.in_range
        return [
            other
            for other in self._radios.values()
            if other is not radio and in_range(radio.position, other.position)
        ]

    def end_transmission(self, tx) -> None:
        self._on_air.remove(tx)
        start, end = tx.start, tx.end
        overlapping = None
        for other in self._history:
            if (
                other is not tx
                and other.radio is not tx.radio
                and other.start < end
                and other.end > start
            ):
                audible_ids = {radio.mote.id for radio in self._audience(other.radio)}
                if overlapping is None:
                    overlapping = []
                overlapping.append((other.radio, audible_ids))
        tx_id = tx.radio.mote.id
        tx_position = tx.radio.position
        overrides = self.prr_overrides
        link_prr = self._link_model.prr
        random = self.rng.random
        for radio in self._audience(tx.radio):
            if not radio._enabled:
                continue
            receiver_tx = radio._current_tx
            if receiver_tx is not None and receiver_tx.start < end and receiver_tx.end > start:
                continue
            if overlapping is not None:
                # The receiver's own (already finished) transmission corrupts
                # the frame too: half-duplex, and a radio always hears itself.
                receiver_id = radio.mote.id
                if any(
                    other_radio is radio or receiver_id in audible_ids
                    for other_radio, audible_ids in overlapping
                ):
                    self.collisions += 1
                    continue
            prr = overrides.get((tx_id, radio.mote.id)) if overrides else None
            if prr is None:
                prr = link_prr(tx_position, radio.position)
            if random() >= prr:
                self.prr_drops += 1
                continue
            radio.deliver(tx.frame)


_N_RADIOS = 6
_PRR_CHOICES = (0.0, 0.4, 1.0)
_BROADCAST = 0xFFFF

#: A radio's acceptance rule as (kind, sender bitmask over the mote ids):
#: kind 0 promiscuous, 1 its own address, 2 its own address and only the
#: senders in the mask.
acceptance_rules = st.tuples(st.integers(0, 2), st.integers(0, 2**_N_RADIOS - 1))

delivery_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"),
            st.integers(0, _N_RADIOS - 1),
            st.integers(0, 255),
            # Broadcast, any mote id, or an id nobody holds.
            st.sampled_from((_BROADCAST, *range(1, _N_RADIOS + 2))),
        ),
        st.tuples(
            st.just("move"),
            st.integers(0, _N_RADIOS - 1),
            st.integers(0, 8),
            st.integers(0, 8),
        ),
        st.tuples(st.just("detach"), st.integers(0, _N_RADIOS - 1)),
        st.tuples(st.just("fail"), st.integers(0, _N_RADIOS - 1)),
        st.tuples(st.just("recover"), st.integers(0, _N_RADIOS - 1)),
        st.tuples(
            st.just("override"),
            st.integers(0, _N_RADIOS - 1),
            st.integers(0, _N_RADIOS - 1),
            st.integers(0, len(_PRR_CHOICES) - 1),
        ),
        st.tuples(
            st.just("clear"), st.integers(0, _N_RADIOS - 1), st.integers(0, _N_RADIOS - 1)
        ),
        st.tuples(st.just("rule"), st.integers(0, _N_RADIOS - 1), acceptance_rules),
        st.tuples(st.just("run"), st.integers(1, 60)),
    ),
    min_size=0,
    max_size=40,
)
deploy_rules = st.lists(acceptance_rules, min_size=_N_RADIOS, max_size=_N_RADIOS)

#: Every radio promiscuous: the channel as it hands frames to raw radios.
_PROMISCUOUS_RULES = [(0, 0)] * _N_RADIOS


def _set_rule(radio, rule):
    kind, mask = rule
    senders = {m + 1 for m in range(_N_RADIOS) if mask >> m & 1}
    radio.set_acceptance(kind > 0, senders if kind == 2 else None)


class TestDeliveryEquivalenceProperty:
    """PR 5's acceptance property, mirroring PR 2's incremental-index proof:
    under *any* interleaving of sends, moves, detaches, and PRR-override
    churn, the memoized-cache + batched-fan-out delivery path produces the
    same frames at the same receivers — frame for frame, drop for drop —
    as a naive reference that rederives every link decision per frame.

    The hand-off is part of it: frames go to motes by id or broadcast, every
    radio starts with a drawn acceptance rule that ``rule`` ops change
    mid-run, and the reference hands each reception up through
    ``Radio.deliver``, so both batched paths must call the same callbacks
    and tally the same sender refusals.  Each radio's reception count is
    compared too, so a reception the rule withholds still counts."""

    def _deploy(self, channel_cls, seed, rules):
        sim = Simulator(seed=seed)
        channel = channel_cls(
            sim, UniformLossLinks(prr=0.8, range_m=3.5), grid_spacing_m=1.0
        )
        log: list[tuple[int, int, int, bytes]] = []
        radios = []
        for index in range(_N_RADIOS):
            mote = Mote(sim, index + 1, Location(index % 3, index // 3), Environment())
            radio = channel.attach(mote)
            radio.set_receive_callback(
                lambda frame, me=index: log.append(
                    (me, frame.src, frame.dest, frame.payload)
                )
            )
            _set_rule(radio, rules[index])
            radios.append(radio)
        return sim, channel, radios, log

    @staticmethod
    def _naive_busy(channel, radio):
        """Carrier sense from first principles: walk every airborne
        transmission and test audibility straight off the link model —
        no hearer caches, no early exits."""
        now = channel.sim.now
        in_range = channel._link_model.in_range
        busy = False
        for tx in channel._on_air:
            if tx.radio is radio or not (tx.start <= now < tx.end):
                continue
            if in_range(tx.radio.position, radio.position):
                busy = True
        return busy

    def _assert_sense_consistent(self, channel, radios, detached):
        """``busy_for`` must agree with the naive reference for every
        attached radio.  It consumes no RNG, so interrogating it mid-run
        cannot perturb the delivery stream the enclosing equivalence
        property is checking."""
        for index, radio in enumerate(radios):
            if index not in detached:
                assert channel.busy_for(radio) == self._naive_busy(channel, radio)

    def _drive(
        self, channel_cls, operations, seed, rules, vector_min=None, sense_check=False
    ):
        sim, channel, radios, log = self._deploy(channel_cls, seed, rules)
        if vector_min is not None:
            channel.vector_fanout_min = vector_min
        detached: set[int] = set()
        for op in operations:
            kind, *args = op
            if kind == "send":
                index, payload, dest = args
                radio = radios[index]
                if index in detached or radio.sending:
                    continue
                radio.send(Frame(index + 1, dest, 0x10, bytes([payload])))
            elif kind == "move":
                index, x, y = args
                if index in detached:
                    continue
                channel.move(index + 1, (float(x), float(y)))
            elif kind == "detach":
                (index,) = args
                if index in detached:
                    continue
                detached.add(index)
                channel.detach(index + 1)
            elif kind == "fail":
                (index,) = args
                if index not in detached:
                    radios[index].enabled = False
            elif kind == "recover":
                (index,) = args
                if index not in detached:
                    radios[index].enabled = True
            elif kind == "override":
                src, dst, choice = args
                channel.prr_overrides[(src + 1, dst + 1)] = _PRR_CHOICES[choice]
            elif kind == "clear":
                src, dst = args
                channel.prr_overrides.pop((src + 1, dst + 1), None)
            elif kind == "rule":
                index, rule = args
                _set_rule(radios[index], rule)
            else:
                sim.run(duration=ms(args[0]))
            if sense_check:
                self._assert_sense_consistent(channel, radios, detached)
        sim.run_until_idle()
        if sense_check:
            self._assert_sense_consistent(channel, radios, detached)
        return (
            log,
            [radio.frames_received for radio in radios],
            [radio.frames_rejected for radio in radios],
            channel.frames_transmitted,
            channel.prr_drops,
            channel.collisions,
            channel.mac_giveups,
        )

    @given(delivery_ops, st.integers(0, 7), deploy_rules)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cached_batched_delivery_matches_naive_reference(self, operations, seed, rules):
        optimized = self._drive(Channel, operations, seed, rules)
        reference = self._drive(_NaiveChannel, operations, seed, rules)
        assert optimized == reference

    @given(delivery_ops, st.integers(0, 7), deploy_rules)
    # A rule change between two frames from the same transmitter: the
    # second frame's hand-off must not reuse the first one's decisions.
    @example(
        [
            ("send", 0, 1, _BROADCAST),
            ("run", 60),
            ("rule", 1, (2, 0)),
            ("send", 0, 2, _BROADCAST),
            ("run", 60),
        ],
        0,
        [(2, 2**_N_RADIOS - 1)] * _N_RADIOS,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_vectorized_delivery_matches_naive_reference(self, operations, seed, rules):
        """PR 6's extension: force *every* fan-out down the vectorized field
        path (threshold 1) and require the same frames, drops, collisions,
        and RNG-stream consumption as the naive per-frame reference — which
        also proves vector and scalar paths are interchangeable mid-run."""
        vectorized = self._drive(Channel, operations, seed, rules, vector_min=1)
        reference = self._drive(_NaiveChannel, operations, seed, rules)
        assert vectorized == reference

    @given(delivery_ops, st.integers(0, 7), deploy_rules)
    # A radio detaches with its frame on the air, carrier sense caches that
    # frame's audience, and a hearer then moves out of range: the audience
    # must not be served stale.
    @example(
        [
            ("send", 0, 7, _BROADCAST),
            ("run", 13),
            ("detach", 0),
            ("move", 1, 8, 8),
            ("run", 60),
        ],
        0,
        _PROMISCUOUS_RULES,
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_carrier_sense_paths_match_naive_reference(self, operations, seed, rules):
        """After *every* operation, ``busy_for``'s early-exit on-air scan
        must agree with a naive walk over the airborne transmissions — and
        the interrogation must not disturb the delivery equivalence, since
        carrier sense never consumes RNG."""
        checked = self._drive(
            Channel, operations, seed, rules, vector_min=1, sense_check=True
        )
        reference = self._drive(_NaiveChannel, operations, seed, rules)
        assert checked == reference


# ----------------------------------------------------------------------
# Event kernel determinism
# ----------------------------------------------------------------------
class TestKernelProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=30))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
