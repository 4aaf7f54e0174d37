"""Adaptive neighborhoods: live acquaintances, healing routes, churn reactions.

The subsystem under test is PR 4's tentpole: beacon-driven acquaintance
expiry (``k`` missed intervals), freshness re-priming from overheard
traffic, recovery re-announcement, live receive filters, localization under
mobility, and neighborhood churn surfaced to agents as tuples/reactions.
Everything here runs with ``adaptive=True``; the frozen-mode controls pin
that the old deploy-time-snapshot behavior still exists where the goldens
need it.
"""

import pytest

import repro
from repro.apps import MONITOR_TAG, steward
from repro.agilla.fields import FieldType, StringField, TypeWildcard
from repro.agilla.tuples import make_template
from repro.agilla.reactions import (
    NEIGHBOR_FOUND_TAG,
    NEIGHBOR_LOST_TAG,
    NEIGHBOR_TAG,
    WAKEUP_TAG,
)
from repro.location import Location
from repro.mote import Environment, Mote
from repro.net import (
    AcquaintanceList,
    BeaconService,
    LiveNeighborFilter,
    NetworkStack,
)
from repro.net import am
from repro.network import SensorNetwork
from repro.radio import Channel, Frame, PerfectLinks
from repro.scenarios import Scenario
from repro.sim import Simulator, seconds
from repro.topology import ExplicitTopology, GridTopology


# ----------------------------------------------------------------------
# Acquaintance list: listeners, refresh, expiry accounting
# ----------------------------------------------------------------------
class TestAcquaintanceEvents:
    def _watched(self, **kwargs):
        acq = AcquaintanceList(**kwargs)
        events = []
        acq.listeners.append(lambda kind, e, prev: events.append((kind, e.mote_id, prev)))
        return acq, events

    def test_found_lost_moved_events(self):
        acq, events = self._watched(timeout=100)
        acq.update(7, Location(2, 1), now=0)
        acq.update(7, Location(2, 2), now=10)  # moved
        acq.update(7, Location(2, 2), now=20)  # refresh only: no event
        acq.evict_stale(now=200)
        assert events == [
            ("found", 7, None),
            ("moved", 7, Location(2, 1)),
            ("lost", 7, None),
        ]
        assert acq.expirations == 1

    def test_capacity_eviction_is_displacement_not_loss(self):
        """A full table pushing out its stalest entry is not beacon loss:
        the displaced neighbor is alive and will re-add itself, so the event
        kind is distinct and no phantom churn reaction should fire from it."""
        acq, events = self._watched(capacity=1)
        acq.update(1, Location(1, 1), now=0)
        acq.update(2, Location(2, 1), now=10)
        assert ("displaced", 1, None) in events
        assert ("found", 2, None) in events
        assert acq.expirations == 0  # capacity pressure is not staleness
        assert acq.displacements == 1

    def test_refresh_touches_known_senders_only(self):
        acq = AcquaintanceList(timeout=100)
        acq.update(3, Location(1, 1), now=0)
        assert acq.refresh(3, now=90)
        assert not acq.refresh(99, now=90)  # unknown: no position, no entry
        acq.evict_stale(now=150)  # 3 was refreshed at 90: survives
        assert 3 in acq
        assert acq.refreshes == 1

    def test_refresh_never_rewinds_freshness(self):
        acq = AcquaintanceList(timeout=100)
        acq.update(3, Location(1, 1), now=50)
        acq.refresh(3, now=10)  # stale snoop result arrives out of order
        assert acq.neighbors()[0].last_heard == 50


# ----------------------------------------------------------------------
# Stack observers (the snoop hook) and the live filter
# ----------------------------------------------------------------------
def _pair(seed=0):
    sim = Simulator(seed=seed)
    channel = Channel(sim, PerfectLinks())
    motes = [
        Mote(sim, 1, Location(1, 1), Environment()),
        Mote(sim, 2, Location(2, 1), Environment()),
    ]
    stacks = [NetworkStack(m, channel.attach(m)) for m in motes]
    return sim, channel, motes, stacks


class TestStackObservers:
    def test_observer_sees_overheard_and_filtered_frames(self):
        sim, channel, motes, stacks = _pair()
        seen, got = [], []
        stacks[1].add_observer(lambda f: seen.append((f.src, f.dest)))
        stacks[1].install_filter(lambda f: False)  # drop everything...
        stacks[1].register_handler(0x42, got.append)
        stacks[0].send(2, 0x42, b"x")  # addressed to us, filtered out
        stacks[0].send(99, 0x42, b"y")  # addressed elsewhere
        sim.run_until_idle()
        assert got == []  # the filter did its job
        assert seen == [(1, 2), (1, 99)]  # ...but the observer heard both

    def test_snooping_beacons_keep_busy_neighbors_fresh(self):
        """A neighbor whose beacons are lost survives as long as *any* of its
        traffic is overheard — re-priming from observed traffic."""
        sim, channel, motes, stacks = _pair()
        service = BeaconService(
            motes[1], stacks[1], period=seconds(2), expiry_intervals=2, snoop=True
        )
        service.prime([(1, Location(1, 1))])
        service.start()
        # Mote 1 never beacons, but keeps sending data frames somewhere.
        def chatter():
            stacks[0].send(99, 0x42, b"data")
            sim.schedule(seconds(1), chatter)
        chatter()
        sim.run(duration=seconds(20))  # five timeout windows
        assert 1 in service.acquaintances  # refreshed by overheard data
        assert service.acquaintances.refreshes > 0

    def test_without_snoop_the_same_neighbor_expires(self):
        sim, channel, motes, stacks = _pair()
        service = BeaconService(
            motes[1], stacks[1], period=seconds(2), expiry_intervals=2, snoop=False
        )
        service.prime([(1, Location(1, 1))])
        service.start()
        sim.run(duration=seconds(20))
        assert 1 not in service.acquaintances
        assert service.acquaintances.expirations == 1


class TestLiveNeighborFilter:
    def test_accepts_beacons_live_members_and_pinned(self):
        acq = AcquaintanceList()
        acq.update(5, Location(2, 1), now=0)
        filt = LiveNeighborFilter(acq, always_accept=(0,))
        assert filt(Frame(5, 1, 0x42))  # live acquaintance
        assert filt(Frame(0, 1, 0x42))  # pinned bridge
        assert filt(Frame(9, 1, am.AM_BEACON))  # discovery always passes
        assert not filt(Frame(9, 1, 0x42))  # stranger data: dropped

    def test_membership_tracks_the_live_list(self):
        acq = AcquaintanceList(timeout=100)
        filt = LiveNeighborFilter(acq)
        frame = Frame(5, 1, 0x42)
        assert not filt(frame)
        acq.update(5, Location(2, 1), now=0)
        assert filt(frame)
        acq.evict_stale(now=200)
        assert not filt(frame)  # expired neighbors lose their pass


# ----------------------------------------------------------------------
# Beacon service: expiry knob, wake re-announcement
# ----------------------------------------------------------------------
class TestBeaconAdaptivity:
    def test_expiry_intervals_knob_sets_timeout(self):
        sim, channel, motes, stacks = _pair()
        service = BeaconService(motes[0], stacks[0], period=seconds(2), expiry_intervals=5)
        assert service.acquaintances.timeout == 5 * seconds(2)
        with pytest.raises(ValueError):
            BeaconService(motes[1], stacks[1], expiry_intervals=0)

    def test_expiry_intervals_governs_an_external_list_too(self):
        """The knob is the single source of truth for the staleness horizon
        — it must not silently no-op when a caller supplies its own list."""
        sim, channel, motes, stacks = _pair()
        supplied = AcquaintanceList(capacity=24)
        service = BeaconService(
            motes[0],
            stacks[0],
            acquaintances=supplied,
            period=seconds(2),
            expiry_intervals=6,
        )
        assert service.acquaintances is supplied
        assert supplied.timeout == 6 * seconds(2)
        assert supplied.capacity == 24  # everything else stays the caller's

    def test_power_up_announces_immediately(self):
        sim, channel, motes, stacks = _pair()
        services = [
            BeaconService(m, s, period=seconds(10), announce_on_wake=True)
            for m, s in zip(motes, stacks)
        ]
        for service in services:
            service.start()
        sim.run(duration=seconds(3))
        stacks[0].radio.enabled = False
        sim.run(duration=seconds(2))
        sent = services[0].beacons_sent
        stacks[0].radio.enabled = True  # wake: announce without waiting
        assert services[0].beacons_sent == sent + 1
        sim.run(duration=seconds(1))
        assert 1 in services[1].acquaintances

    def test_announce_respects_a_dead_radio(self):
        sim, channel, motes, stacks = _pair()
        service = BeaconService(motes[0], stacks[0], announce_on_wake=True)
        service.start()
        stacks[0].radio.enabled = False
        sent = service.beacons_sent
        service.announce()  # explicit call while down: silently skipped
        assert service.beacons_sent == sent


# ----------------------------------------------------------------------
# Adaptive deployments: localization, healing routes, recovery
# ----------------------------------------------------------------------
def _corridor(adaptive=True, seed=0, expiry_intervals=2):
    """A(1,1) -- B(2,1) -- C(3,1) with detour D(2,2), physically spaced.

    PerfectLinks with 1.6 m range over 1 m spacing: adjacent (1.0) and
    diagonal (~1.41) links exist, two-unit links do not.
    """
    net = SensorNetwork(
        ExplicitTopology([(1, 1), (2, 1), (3, 1), (2, 2)], radius=1.5),
        seed=seed,
        base_station=False,
        physical=True,
        spacing_m=1.0,
        link_model=PerfectLinks(range_m=1.6),
        beacon_period=seconds(2),
        adaptive=adaptive,
        beacon_expiry_intervals=expiry_intervals,
    )
    return net


class TestAdaptiveLocalization:
    def test_move_updates_believed_location_when_adaptive(self):
        net = _corridor(adaptive=True)
        net.move_node((2, 1), (5.2, 0.8))
        assert net.node((2, 1)).mote.location == Location(5, 1)
        assert net.node((2, 1)).router.own_location == Location(5, 1)

    def test_frozen_mode_keeps_the_snapshot(self):
        net = _corridor(adaptive=False)
        net.move_node((2, 1), (5.2, 0.8))
        assert net.node((2, 1)).mote.location == Location(2, 1)
        assert net.node((2, 1)).router.own_location == Location(2, 1)

    def test_beacons_advertise_the_live_location(self):
        net = _corridor(adaptive=True)
        net.move_node((2, 2), (1.0, 2.0))  # D slides left, still in range of A
        net.run(6.0)  # a couple of beacon intervals
        entry = next(
            e
            for e in net.node((1, 1)).beacons.acquaintances.neighbors()
            if e.mote_id == net.topology.mote_id(Location(2, 2))
        )
        assert entry.location == Location(1, 2)


class TestGeoPartitionRecovery:
    """Satellite: a mobile next-hop leaves range mid-route; the stale entry
    expires and a later send succeeds via the remaining neighbor.  Before
    this PR the drop was silent and permanent."""

    def _sender_receiver(self, net):
        a = net.node((1, 1))
        c = net.node((3, 1))
        got = []
        c.geo.register_kind(am.GEO_APP_MESSAGE, lambda origin, p: got.append(p))
        return a, c, got

    def test_route_heals_after_next_hop_expires(self):
        net = _corridor(adaptive=True)
        a, c, got = self._sender_receiver(net)
        net.run(1.0)
        b_id = net.topology.mote_id(Location(2, 1))
        assert a.router.next_hop(Location(3, 1)) == b_id  # B is the hop today
        net.move_node((2, 1), (2.0, -50.0))  # B wanders far out of range
        # The very next send is forwarded at stale B and dies silently.
        assert a.geo.send(Location(3, 1), am.GEO_APP_MESSAGE, b"first")
        net.run(1.0)
        assert got == []
        assert a.geo.no_route_drops == 0  # nothing even noticed the loss
        # After k missed beacon intervals the stale entry ages out...
        net.run(8.0)
        assert b_id not in a.beacons.acquaintances
        # ...and the detour through D carries the next message end-to-end.
        d_id = net.topology.mote_id(Location(2, 2))
        assert a.router.next_hop(Location(3, 1)) == d_id
        assert a.geo.send(Location(3, 1), am.GEO_APP_MESSAGE, b"second")
        net.run(2.0)
        assert got == [b"second"]

    def _line3(self, adaptive):
        """A(1,1)—B(2,1)—C(3,1), filtered mode, 60 m spacing, 100 m reach."""
        net = SensorNetwork(
            GridTopology(3, 1),
            seed=0,
            base_station=False,
            spacing_m=60.0,
            link_model=PerfectLinks(range_m=100.0),
            beacon_period=seconds(2),
            adaptive=adaptive,
            beacon_expiry_intervals=2,
        )
        return net

    def test_frozen_relay_blackholes_while_adaptive_reports_no_route(self):
        """A relay that drifts to the *wrong side* of the sender keeps
        advertising its deploy-time position in frozen mode, so the sender
        pours frames into a blackhole.  The adaptive sender sees the relay's
        real position, concedes there is no forward progress (an accounted
        ``no_route`` drop, not a silent one) — and recovers the moment the
        relay wanders back between the endpoints."""
        outcomes = {}
        for adaptive in (False, True):
            net = self._line3(adaptive)
            a, c = net.node((1, 1)), net.node((3, 1))
            got = []
            c.geo.register_kind(am.GEO_APP_MESSAGE, lambda origin, p: got.append(p))
            net.run(1.0)
            # B drifts past A: still audible to A (60 m) but 180 m from C.
            net.move_node((2, 1), (0.0, 60.0))
            net.run(10.0)  # beacons re-prime; stale entries age out
            a.geo.send(Location(3, 1), am.GEO_APP_MESSAGE, b"x")
            net.run(3.0)
            outcomes[adaptive] = (list(got), a.geo.no_route_drops)
            if adaptive:
                # The relay returns to the corridor; the next beacon interval
                # re-primes A and traffic flows again.
                net.move_node((2, 1), (120.0, 60.0))
                net.run(6.0)
                a.geo.send(Location(3, 1), am.GEO_APP_MESSAGE, b"resumed")
                net.run(3.0)
                assert got == [b"resumed"]
        assert outcomes[False] == ([], 0)  # frozen: swallowed, nobody noticed
        assert outcomes[True][0] == []  # adaptive: also undeliverable, but...
        assert outcomes[True][1] >= 1  # ...the sender knew and accounted it


class TestRecoveryReannounce:
    """Satellite fix: fail → (carried while dark) → recover used to leave
    peers pointing at the pre-failure position until the next periodic
    beacon; recovery now re-announces immediately in adaptive mode."""

    def _entry_for(self, net, owner, subject):
        mote_id = net.topology.mote_id(Location(*subject))
        for entry in net.node(owner).beacons.acquaintances.neighbors():
            if entry.mote_id == mote_id:
                return entry
        return None

    def test_recovery_reannounces_the_new_position(self):
        # Long beacon period: only the wake announcement can explain a
        # prompt update.
        net = SensorNetwork(
            ExplicitTopology([(1, 1), (2, 1), (3, 1)], radius=1.5),
            seed=0,
            base_station=False,
            physical=True,
            spacing_m=1.0,
            link_model=PerfectLinks(range_m=1.6),
            beacon_period=seconds(30),
            adaptive=True,
        )
        net.run(0.5)
        net.fail_node((2, 1))
        net.move_node((2, 1), (1.0, 2.0))  # carried while dark; A-range only
        net.run(1.0)
        assert self._entry_for(net, (1, 1), (2, 1)).location == Location(2, 1)
        net.recover_node((2, 1))
        net.run(0.5)  # one CSMA backoff, nowhere near the 30 s beat
        assert self._entry_for(net, (1, 1), (2, 1)).location == Location(1, 2)

    def test_regression_stale_entry_drops_in_frozen_mode(self):
        """The reproduced bug: without the re-announcement the peer keeps the
        pre-failure entry, and a send to the node's *actual* position drops
        with no route."""
        for adaptive, expect_delivered in ((True, True), (False, False)):
            net = SensorNetwork(
                ExplicitTopology([(1, 1), (2, 1), (3, 1)], radius=1.5),
                seed=0,
                base_station=False,
                physical=True,
                spacing_m=1.0,
                link_model=PerfectLinks(range_m=1.6),
                beacon_period=seconds(30),
                adaptive=adaptive,
            )
            net.run(0.5)
            got = []
            net.node((2, 1)).geo.register_kind(
                am.GEO_APP_MESSAGE, lambda origin, p: got.append(p)
            )
            net.fail_node((2, 1))
            net.move_node((2, 1), (1.0, 2.0))
            net.run(1.0)
            net.recover_node((2, 1))
            net.run(0.5)
            a = net.node((1, 1))
            a.geo.send(Location(1, 2), am.GEO_APP_MESSAGE, b"hello again")
            net.run(2.0)
            assert bool(got) is expect_delivered, f"adaptive={adaptive}"
            if not expect_delivered:
                assert a.geo.no_route_drops > 0  # stale entry: no progress


# ----------------------------------------------------------------------
# Churn surfaced to the agent layer
# ----------------------------------------------------------------------
def _tags_at(net, where, tag):
    return [
        tup
        for tup in net.tuples_at(where)
        if tup.arity
        and isinstance(tup.fields[0], StringField)
        and tup.fields[0].text == tag
    ]


def _adaptive_grid(width=2, height=2, seed=0, **kwargs):
    kwargs.setdefault("beacon_period", seconds(2))
    kwargs.setdefault("beacon_expiry_intervals", 2)
    return SensorNetwork(
        GridTopology(width, height),
        seed=seed,
        base_station=False,
        adaptive=True,
        **kwargs,
    )


class TestNeighborhoodContextTuples:
    def test_boot_mirrors_primed_neighbors_without_events(self):
        net = _adaptive_grid()
        node = net.node((1, 1))
        assert node.middleware.context_manager.watching
        mirrored = {t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_TAG)}
        assert mirrored == {Location(2, 1), Location(1, 2)}  # primed set
        assert _tags_at(net, (1, 1), NEIGHBOR_FOUND_TAG) == []  # no churn yet

    def test_failure_and_recovery_emit_lost_then_found(self):
        net = _adaptive_grid()
        net.run(6.0)  # tabletop: the diagonal neighbor is discovered too
        net.fail_node((2, 2))
        net.run(8.0)  # two expiry windows: beacon loss noticed
        lost = _tags_at(net, (1, 1), NEIGHBOR_LOST_TAG)
        assert [t.fields[1].location for t in lost] == [Location(2, 2)]
        mirrored = {t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_TAG)}
        assert Location(2, 2) not in mirrored
        net.recover_node((2, 2))
        net.run(1.0)  # the wake announcement lands well inside one period
        found = _tags_at(net, (1, 1), NEIGHBOR_FOUND_TAG)
        assert [t.fields[1].location for t in found] == [Location(2, 2)]
        mirrored = {t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_TAG)}
        assert Location(2, 2) in mirrored

    def test_wakeup_tuple_on_own_power_up(self):
        net = _adaptive_grid()
        assert _tags_at(net, (1, 1), WAKEUP_TAG) == []
        net.fail_node((1, 1))
        net.recover_node((1, 1))
        assert len(_tags_at(net, (1, 1), WAKEUP_TAG)) == 1
        net.fail_node((1, 1))
        net.recover_node((1, 1))
        assert len(_tags_at(net, (1, 1), WAKEUP_TAG)) == 1  # replaced, not stacked

    def test_colocated_neighbors_keep_their_mirror_tuples(self):
        """Locations are not identities: when two mobile neighbors quantize
        to the same grid address and one of them leaves, the survivor's
        ``<'nbr'>`` mirror tuple must remain."""
        net = _corridor(adaptive=True)  # A(1,1), B(2,1), C(3,1), D(2,2)
        a_mirror = lambda: sorted(  # noqa: E731 - tiny local probe
            str(t.fields[1].location) for t in _tags_at(net, (1, 1), NEIGHBOR_TAG)
        )
        net.run(1.0)
        net.move_node((2, 1), (2.0, 2.0))  # B parks on D's cell: both (2,2)
        net.run(6.0)  # B's beacons re-advertise; A sees two neighbors at (2,2)
        assert a_mirror().count("(2,2)") == 2
        net.move_node((2, 1), (50.0, 50.0))  # B leaves for good
        net.run(10.0)  # B expires at A
        assert a_mirror().count("(2,2)") == 1  # D's mirror tuple survived

    def test_dense_field_thrash_raises_no_phantom_finds(self):
        """A tabletop field whose audible degree exceeds table capacity
        (24 > 12 here) thrashes the acquaintance table forever; re-admission
        after a capacity displacement must not masquerade as discovery, or
        reaction-driven agents would storm on phantom ``<'nbf'>`` events."""
        net = SensorNetwork(
            GridTopology(5, 5),  # 24 audible peers per node at 0.3 m spacing
            seed=1,
            base_station=False,
            adaptive=True,
            beacon_period=seconds(2),
        )
        net.run(30.0)
        node = net.node((3, 3))
        context = node.middleware.context_manager
        acquaintances = node.beacons.acquaintances
        assert acquaintances.displacements > 0  # the table really thrashed
        assert context.refind_suppressions > 0  # re-adds were recognized
        # Every *published* find is a genuine first discovery: at most one
        # per distinct audible peer (24 here), no matter how long the table
        # thrashes.  Without suppression this grows with displacements.
        assert context.find_events <= 24

    def test_mirror_resyncs_after_arena_pressure(self):
        """A transiently full arena drops mirror tuples during a sync; the
        dirty-mirror retry restores them once the arena drains instead of
        leaving the mirror permanently desynced from the live list."""
        from repro.agilla.fields import Value
        from repro.agilla.tuples import make_tuple as mk

        net = _adaptive_grid(2, 2)
        net.run(6.0)  # the full tabletop neighborhood is mirrored
        node = net.node((1, 1))
        space = node.middleware.tuplespace_manager.space
        # Jam the arena with ballast so re-inserts must fail.
        ballast = []
        while space.capacity - space.used_bytes >= 4:
            tup = mk(Value(len(ballast)))
            space.out(tup)
            ballast.append(tup)
        # Churn a neighbor: the lost→found cycle rewrites mirror addresses
        # while the arena cannot hold them.
        net.fail_node((2, 2))
        net.run(10.0)
        net.recover_node((2, 2))
        net.run(2.0)
        context = node.middleware.context_manager
        assert context._dirty_mirrors  # the squeeze was noticed, not ignored
        # Drain the ballast; the next event (another churn cycle) re-syncs.
        for tup in ballast:
            space.inp(tup)
        net.fail_node((2, 1))
        net.run(10.0)
        net.recover_node((2, 1))
        net.run(2.0)
        assert not context._dirty_mirrors
        mirrored = {t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_TAG)}
        live = {e.location for e in node.beacons.acquaintances.neighbors()}
        assert mirrored == live  # mirror reconverged with the live list

    def test_displacement_marker_expires_so_late_recovery_still_fires(self):
        """A displaced neighbor that then genuinely disappears and returns
        *after* the staleness horizon is a recovery, not table thrash — its
        ``<'nbf'>`` must fire (a steward must re-deploy onto it)."""
        from repro.net.acquaintance import Acquaintance

        net = _adaptive_grid()
        node = net.node((1, 1))
        context = node.middleware.context_manager
        entry = Acquaintance(99, Location(9, 9), net.sim.now)
        context._on_neighbor_event("displaced", entry, None)
        # Prompt re-admission: suppressed as thrash.
        net.run(1.0)
        context._on_neighbor_event("found", entry, None)
        assert context.refind_suppressions == 1
        # Displaced again, then silent far past the staleness horizon...
        context._on_neighbor_event("displaced", entry, None)
        net.run(3 * net.node((1, 1)).beacons.acquaintances.timeout / 1e6)
        # ...so the eventual re-admission is a genuine recovery.  (The run
        # also discovers real tabletop neighbors, so compare deltas around
        # the one call under test.)
        finds_before = context.find_events
        suppressions_before = context.refind_suppressions
        context._on_neighbor_event("found", entry, None)
        assert context.refind_suppressions == suppressions_before  # fired
        assert context.find_events == finds_before + 1
        assert [t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_FOUND_TAG)] == [
            Location(9, 9)
        ]

    def test_boot_mirror_under_arena_pressure_is_marked_dirty(self):
        """A too-small arena at watch time must not silently lose mirror
        tuples: the squeezed addresses are marked dirty and re-synced."""
        from repro.agilla.params import AgillaParams

        net = SensorNetwork(
            GridTopology(2, 2),
            seed=0,
            base_station=False,
            adaptive=True,
            beacon_period=seconds(2),
            params=AgillaParams(ts_arena_bytes=30),  # sensor tuples fill it
        )
        node = net.node((1, 1))
        context = node.middleware.context_manager
        assert context._dirty_mirrors  # the squeeze was recorded at boot
        # Free the arena and trigger any event: the mirror converges.
        node.middleware.tuplespace_manager.space.remove_all(
            make_template(TypeWildcard(FieldType.STRING))
        )
        net.fail_node((1, 1))
        net.recover_node((1, 1))  # wake event retries dirty mirrors
        assert not context._dirty_mirrors
        mirrored = {t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_TAG)}
        live = {e.location for e in node.beacons.acquaintances.neighbors()}
        assert mirrored == live

    def test_event_tuples_stay_bounded_under_churn(self):
        net = _adaptive_grid(3, 3)
        net.run(6.0)
        for _ in range(4):  # flap two different neighbors repeatedly
            for victim in ((3, 3), (3, 2)):
                net.fail_node(victim)
            net.run(10.0)
            for victim in ((3, 3), (3, 2)):
                net.recover_node(victim)
            net.run(4.0)
        # Only the *latest* event of each kind is retained per node.
        assert len(_tags_at(net, (2, 2), NEIGHBOR_LOST_TAG)) <= 1
        assert len(_tags_at(net, (2, 2), NEIGHBOR_FOUND_TAG)) <= 1


class TestStewardRedeploy:
    """The paper's adaptivity claim end-to-end: a reaction-driven agent
    re-deploys a monitor onto a node the moment its beacons reappear."""

    def test_steward_clones_onto_recovered_node(self):
        net = _adaptive_grid(2, 2)
        net.run(6.0)  # warm up: the whole tabletop neighborhood is known
        net.middleware((1, 1)).inject(steward())
        net.run(1.0)  # register the reaction, park in wait
        net.fail_node((2, 2))
        net.run(10.0)  # beacon loss → expiry → <'nbl'> at the steward's node
        assert _tags_at(net, (1, 1), NEIGHBOR_LOST_TAG)
        assert net.agents_at((2, 2)) == []  # nothing lives there while dark
        net.recover_node((2, 2))
        ok = net.run_until(
            lambda: bool(_tags_at(net, (2, 2), MONITOR_TAG)), timeout_s=20.0
        )
        assert ok, "steward never re-deployed onto the recovered node"
        names = [agent.name for agent in net.agents_at((2, 2))]
        assert "stw" in names  # the clone stewards its own neighborhood now


class TestStewardFlapDamping:
    """The hold-down window: a flapping node must not draw a fresh
    ``sclone`` on every recovery, yet one that finally stabilizes still
    gets re-monitored (the deferred find fires at the window's end)."""

    def _quiet_adaptive(self, hold_down_intervals):
        from repro.agilla.params import AgillaParams

        # beacons=False: no spontaneous discovery traffic, so find/defer
        # accounting below is exactly the events this test injects.
        return SensorNetwork(
            GridTopology(2, 2),
            seed=0,
            base_station=False,
            adaptive=True,
            beacons=False,
            beacon_period=seconds(2),
            beacon_expiry_intervals=2,
            params=AgillaParams(find_hold_down_intervals=hold_down_intervals),
        )

    def test_hold_down_defers_then_flushes_or_cancels(self):
        net = self._quiet_adaptive(hold_down_intervals=5)  # 5 × 2 s = 10 s
        node = net.node((1, 1))
        context = node.middleware.context_manager
        acq = node.beacons.acquaintances
        assert context.find_hold_down == seconds(10)
        finds_at_start = context.find_events

        # A brand-new neighbor fires immediately (t = 0).
        acq.update(99, Location(9, 9), net.sim.now)
        assert context.find_events == finds_at_start + 1
        # It goes dark, then flaps back inside the window (t = 7 s).
        net.run(5.0)
        acq.evict_stale(net.sim.now)
        net.run(2.0)
        acq.update(99, Location(9, 9), net.sim.now)
        assert context.flap_deferrals == 1
        assert context.find_events == finds_at_start + 1  # damped, not fired
        # ...and stays up: the deferred find fires when the window expires.
        net.run(5.0)  # past t = 10 s
        assert context.deferred_finds_fired == 1
        assert context.find_events == finds_at_start + 2
        assert [t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_FOUND_TAG)] == [
            Location(9, 9)
        ]

        # Second flap cycle: deferred again (t ≈ 13 s), but this time the
        # node dies before the window runs out — the pending find is moot.
        net.run(3.0)
        acq.evict_stale(net.sim.now)  # lost
        acq.update(99, Location(9, 9), net.sim.now)  # found: deferred
        assert context.flap_deferrals == 2
        net.run(4.5)
        acq.evict_stale(net.sim.now)  # dark again before t = 20 s
        net.run(5.0)  # the flush finds nothing pending
        assert context.deferred_finds_fired == 1
        assert context.find_events == finds_at_start + 2

    def test_flapping_node_draws_one_clone_per_window(self):
        """The fail/recover/fail churn script, end to end: clone #1 lands
        promptly, the quick re-flap is damped, and the eventual deferred
        find re-monitors the (now stable) node exactly once."""
        from repro.agilla.params import AgillaParams

        net = _adaptive_grid(
            2, 2, params=AgillaParams(find_hold_down_intervals=8)  # 16 s window
        )
        victim = (2, 1)  # a primed neighbor of the steward's node
        net.run(6.0)
        net.middleware((1, 1)).inject(steward())
        net.run(1.0)
        context = net.middleware((1, 1)).context_manager

        def stewards_at(where):
            return sum(agent.name == "stw" for agent in net.agents_at(where))

        # Cycle 1: fail long enough to expire, recover → prompt clone.
        net.fail_node(victim)
        net.run(8.0)
        assert Location(*victim) in [
            t.fields[1].location for t in _tags_at(net, (1, 1), NEIGHBOR_LOST_TAG)
        ]
        net.recover_node(victim)
        ok = net.run_until(lambda: stewards_at(victim) >= 1, timeout_s=20.0)
        assert ok, "first recovery was not re-monitored"
        deferrals_before = context.flap_deferrals

        # Cycle 2, inside the hold-down: the recovery find is deferred, so
        # no second clone chases the flap.
        net.fail_node(victim)
        net.run(8.0)
        net.recover_node(victim)
        net.run(3.0)
        assert context.flap_deferrals > deferrals_before
        assert stewards_at(victim) == 1  # damped: no immediate re-clone
        # The node stays up past the window: the deferred find fires and the
        # steward re-monitors it (exactly one more clone).
        ok = net.run_until(lambda: stewards_at(victim) >= 2, timeout_s=25.0)
        assert ok, "stabilized node was never re-monitored"
        assert context.deferred_finds_fired >= 1


# ----------------------------------------------------------------------
# The scenario-level ablation, miniaturized for tier-1
# ----------------------------------------------------------------------
class TestPartitionHealScenario:
    def test_builtin_pair_differs_only_in_adaptivity(self):
        healed = Scenario.from_spec("partition-heal")
        frozen = Scenario.from_spec("partition-heal-frozen")
        assert healed.adaptive and not frozen.adaptive
        healed_spec = healed.to_spec()
        frozen_spec = frozen.to_spec()
        for spec in (healed_spec, frozen_spec):
            spec.pop("name")
            spec.pop("adaptive")
        assert healed_spec == frozen_spec

    def test_adaptive_beats_frozen_delivery_under_mobility(self):
        """The acceptance criterion, shrunk to tier-1 size: same seed, same
        mobility, same churn — only the neighborhood subsystem differs."""
        results = {}
        for name in ("partition-heal", "partition-heal-frozen"):
            # 40 s covers the first mobility excursions.
            results[name] = repro.run(name, duration_s=40.0).as_row()
        healed = results["partition-heal"]
        frozen = results["partition-heal-frozen"]
        assert healed["geo_sent"] == frozen["geo_sent"]  # same offered load
        assert healed["geo_delivered"] > frozen["geo_delivered"]
        assert healed["delivery_ratio"] > frozen["delivery_ratio"]
        assert healed["index_rebuilds"] == frozen["index_rebuilds"] == 0
