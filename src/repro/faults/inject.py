"""Apply a :class:`~repro.faults.plan.FaultPlan` to a deployed network.

The injector is the runtime half of the faults subsystem: it schedules every
node-level event of a plan on the deployment's simulator (hazardous events —
they mutate radio and middleware state other motes can observe) and, when the
plan corrupts frames, chains itself in front of the channel's
``on_transmission`` observer so the corrupted flag is set *before* the
sharded runtime captures the frame into a seam envelope.

All randomness comes from the simulator's seed-derived ``"faults"`` stream:
fraction-based victim selection draws once per plan at install time, and
frame corruption draws once per *matching window* per watched transmission —
so a fixed-seed campaign replays bit-identically, inline or forked.

Windows **compose**.  Link and noise degradation are tracked as per-window
*layers* over each directed pair: while several windows overlap the same
pair, the effective override is the innermost (minimum) layer's PRR, and a
window expiring removes only its own layer — never a pair another live
window still claims.  The flat float dict the channel reads
(``Channel.prr_overrides``) is recomputed from the layers on every change,
so the hot delivery loop stays untouched.
Overlapping corrupt windows each get an independent probability draw per
frame in span, applied in plan order and stopping at the first hit, so a
frame is never counted corrupted twice but a second window is never dead
code.

Installing an *empty* plan is free by construction: :func:`install_faults`
returns ``None``, schedules nothing, and leaves the channel hook untouched,
keeping fault-free runs bit-for-bit identical to runs without this module.
"""

from __future__ import annotations

from repro.errors import NetworkError
from repro.faults.plan import (
    CorrelatedCrashFault,
    CorruptFault,
    CrashFault,
    FaultPlan,
    LinkFault,
    NoiseFault,
)
from repro.sim.units import seconds


class FaultInjector:
    """Schedules one plan's node events over one :class:`SensorNetwork`."""

    def __init__(self, net, plan: FaultPlan):
        self.net = net
        self.plan = plan
        self.channel = net.channel
        self.rng = net.sim.rng("faults")
        #: ``(start_us, end_us, watched mote ids or None, probability)`` —
        #: consulted per transmission by the chained channel hook.
        self._corrupt_windows: list[tuple[int, int, frozenset[int] | None, float]] = []
        self._prev_hook = None
        #: Degradation layers: pair -> [(window token, prr), ...] in install
        #: order.  ``channel.prr_overrides[pair]`` is always the min over the
        #: pair's live layers; a window closing removes only its own token.
        self._layers: dict[tuple[int, int], list[tuple[int, float]]] = {}
        #: Window token -> the pairs that window layered (noise windows only
        #: know their pairs at fire time, so closing needs this record).
        self._window_pairs: dict[int, tuple[tuple[int, int], ...]] = {}
        self._window_tokens = iter(range(1 << 30))
        # Statistics (ints only: summable across shards, bit-deterministic).
        self.fault_events = 0
        self.fault_crashes = 0
        self.fault_reboots = 0
        self.fault_link_windows = 0
        self.fault_frames_corrupted = 0
        self.fault_agents_lost = 0

        self._schedule(plan)

    # ------------------------------------------------------------------
    def _mote_id(self, loc) -> int:
        from repro.location import Location

        node = self.net.nodes.get(Location(loc[0], loc[1]))
        if node is None:
            raise NetworkError(f"fault plan references unknown node {loc}")
        return node.mote.id

    def _schedule(self, plan: FaultPlan) -> None:
        sim = self.net.sim
        for event in plan.node_events:
            if isinstance(event, CorrelatedCrashFault):
                raise NetworkError(
                    "correlated_crash events must be resolved (FaultPlan."
                    "resolve) into per-node crashes before install"
                )
            at = seconds(event.at_s)
            if isinstance(event, LinkFault):
                pairs = tuple(
                    (self._mote_id(src), self._mote_id(dst)) for src, dst in event.links
                )
                token = next(self._window_tokens)
                sim.schedule_at(at, self._degrade, token, pairs, event.prr)
                if event.duration_s is not None:
                    sim.schedule_at(at + seconds(event.duration_s), self._window_off, token)
            elif isinstance(event, NoiseFault):
                victims = event.nodes
                if event.fraction is not None:
                    field = sorted(
                        (loc.x, loc.y) for loc in (n.location for n in self.net.field_nodes())
                    )
                    count = max(1, round(event.fraction * len(field)))
                    victims = tuple(sorted(self.rng.sample(field, min(count, len(field)))))
                ids = tuple(self._mote_id(v) for v in victims)
                token = next(self._window_tokens)
                sim.schedule_at(at, self._noise_on, token, ids, event.prr)
                if event.duration_s is not None:
                    sim.schedule_at(at + seconds(event.duration_s), self._window_off, token)
            elif isinstance(event, CrashFault):
                for loc in event.nodes:
                    sim.schedule_at(at, self._crash, loc, event.volatile)
                    if event.reboot_s is not None:
                        sim.schedule_at(at + seconds(event.reboot_s), self._reboot, loc)
            elif isinstance(event, CorruptFault):
                watch = (
                    frozenset(self._mote_id(n) for n in event.nodes)
                    if event.nodes is not None
                    else None
                )
                end = (
                    at + seconds(event.duration_s)
                    if event.duration_s is not None
                    else 1 << 62
                )
                self._corrupt_windows.append((at, end, watch, event.probability))
        if self._corrupt_windows:
            self._prev_hook = self.channel.on_transmission
            self.channel.on_transmission = self._on_transmission

    # ------------------------------------------------------------------
    # Link degradation / noise bursts (receiver-side PRR overrides)
    # ------------------------------------------------------------------
    def _layer_on(self, token: int, pairs, prr: float) -> None:
        """Open one window's layer on each pair; effective PRR = min layer."""
        overrides = self.channel.prr_overrides
        for pair in pairs:
            layers = self._layers.setdefault(pair, [])
            layers.append((token, prr))
            overrides[pair] = min(value for _, value in layers)
        self._window_pairs[token] = tuple(pairs)

    def _degrade(self, token: int, pairs, prr: float) -> None:
        self._layer_on(token, pairs, prr)
        self.fault_events += 1
        self.fault_link_windows += 1

    def _noise_on(self, token: int, victim_ids, prr: float) -> None:
        # Enumerate transmitters at fire time: every radio currently on the
        # medium (including shard ghosts, whose replays consult the same
        # overrides) can be the interfered-with sender.
        pairs = [
            (radio.mote.id, victim)
            for victim in victim_ids
            for radio in self.channel.radios
            if radio.mote.id != victim
        ]
        self._layer_on(token, pairs, prr)
        self.fault_events += 1
        self.fault_link_windows += 1

    def _window_off(self, token: int) -> None:
        """Close one window: peel only its own layer off each of its pairs."""
        overrides = self.channel.prr_overrides
        for pair in self._window_pairs.pop(token, ()):
            layers = self._layers.get(pair)
            if not layers:
                continue
            layers[:] = [entry for entry in layers if entry[0] != token]
            if layers:
                overrides[pair] = min(value for _, value in layers)
            else:
                del self._layers[pair]
                overrides.pop(pair, None)
        self.fault_events += 1

    # ------------------------------------------------------------------
    # Mote crash / reboot with volatile-state semantics
    # ------------------------------------------------------------------
    def _crash(self, loc, volatile: bool) -> None:
        net = self.net
        net.fail_node(loc)
        if volatile:
            middleware = net.middleware(loc)
            for agent in list(middleware.agents()):
                middleware.agent_manager.kill(agent, "mote crashed")
                self.fault_agents_lost += 1
            # RAM is gone: rebuild the tuple-space arena and reaction registry
            # from scratch (agent kills above already drained their reactions
            # and wait-queue entries; this clears application *data* tuples).
            manager = middleware.tuplespace_manager
            manager.space = type(manager.space)(manager.space.capacity)
            manager.registry = type(manager.registry)(manager.registry.capacity)
        self.fault_events += 1
        self.fault_crashes += 1

    def _reboot(self, loc) -> None:
        self.net.recover_node(loc)
        self.fault_events += 1
        self.fault_reboots += 1

    # ------------------------------------------------------------------
    # Frame corruption (chained in front of any shard capture hook)
    # ------------------------------------------------------------------
    def _on_transmission(self, tx) -> None:
        # Ghost replays arrive pre-flagged from their home region (and their
        # radios are disabled) — never re-draw for them.
        if tx.radio.enabled and not tx.corrupted:
            start = tx.start
            # Overlap semantics: every window spanning this frame gets its
            # own independent draw, in plan order, stopping at the first hit
            # — a frame is corrupted (and counted) at most once, but a
            # second overlapping window still applies when the first misses.
            for begin, end, watch, probability in self._corrupt_windows:
                if begin <= start < end and (watch is None or tx.radio.mote.id in watch):
                    if self.rng.random() < probability:
                        tx.corrupted = True
                        self.fault_frames_corrupted += 1
                        break
        if self._prev_hook is not None:
            self._prev_hook(tx)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Deterministic fault counters, merged into run/shard rows."""
        return {
            "fault_events": self.fault_events,
            "fault_crashes": self.fault_crashes,
            "fault_reboots": self.fault_reboots,
            "fault_link_windows": self.fault_link_windows,
            "fault_frames_corrupted": self.fault_frames_corrupted,
            "fault_agents_lost": self.fault_agents_lost,
        }


def install_faults(net, plan: FaultPlan | None) -> FaultInjector | None:
    """Install a plan's node events; ``None``/empty installs nothing at all."""
    if plan is None or plan.empty or not plan.node_events:
        return None
    return FaultInjector(net, plan)
