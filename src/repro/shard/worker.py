"""One shard: a full simulator stack over one region, plus the seam protocol.

A :class:`ShardWorker` owns a region-local :class:`~repro.network.SensorNetwork`
(its own :class:`~repro.sim.kernel.Simulator`, :class:`~repro.radio.channel.Channel`
and ``RadioField``) built from a :class:`~repro.shard.partition.RegionTopology`
that preserves global mote ids.  Foreign boundary motes are attached as
**ghosts** — real :class:`~repro.radio.channel.Radio` objects, permanently
disabled.  A disabled radio is never an eligible receiver (no RNG draws, no
``frames_received``), but its transmissions still occupy the field, so
carrier sense and collision accounting at the seam behave exactly as if the
foreign mote were local.

The round protocol (identical in inline and multiprocess mode):

1. **post** — send one :class:`~repro.shard.envelope.Round` to every seam
   neighbor: the boundary transmissions captured in the last window, plus a
   lookahead grant (monotone per neighbor).
2. **collect** — receive one round from every still-active neighbor; merge
   all incoming envelopes in ``(start, shard, seq)`` order and schedule their
   ghost replays.
3. **advance** — run the local simulator to ``min(grants received)``, capped
   at the scenario end.

The grant is the *horizon*: a lower bound on when the next boundary
transmission could start, derived from three facts about the CSMA MAC:

* a transmission begins only from an armed carrier-sense event, so pending
  carrier-sense events of boundary motes bound imminent transmissions
  exactly;
* any *new* send arms carrier sense at least ``initial_backoff[0]`` (400 µs)
  after the event that issues it, so the earliest pending event plus 400 µs
  bounds transmissions not yet armed;
* a not-yet-received foreign frame can cause a local boundary send only via
  its delivery, which completes no earlier than the neighbors' smallest
  grant plus one minimum frame airtime — plus the 400 µs arm.

Progress is guaranteed because grants are *inclusive*: every shard executes
the granted tick itself.  A transmission starting exactly at a window
boundary is replayed with ``schedule_at(start)`` at the receiver's current
time — legal, and deterministic for a fixed decomposition.  The one physical
approximation this makes is documented in README.md: same-tick carrier sense
against a seam transmission beginning exactly on the window edge sees the
channel as it was a tick earlier (CSMA turnaround), while overlap/collision
accounting remains exact.
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol

from repro.mote.mote import Mote
from repro.network import SensorNetwork
from repro.radio.channel import MacParams, Transmission
from repro.radio.frame import Frame
from repro.scenarios.spec import Scenario
from repro.shard.envelope import GRANT_FOREVER, Round, TxEnvelope
from repro.shard.partition import Partition, RegionTopology
from repro.sim.units import seconds

#: Minimum delay between the event that issues a send and its first
#: carrier-sense attempt (the CSMA initial backoff's lower bound).
MIN_BACKOFF_US = MacParams().initial_backoff[0]


class Link(Protocol):
    """One directed-pair seam connection (pipe or in-memory queue)."""

    def send(self, message: Round) -> None:  # pragma: no cover - protocol
        ...

    def recv(self) -> Round:  # pragma: no cover - protocol
        ...


class ShardWorker:
    """Region simulator + seam protocol endpoint."""

    def __init__(
        self,
        scenario: Scenario,
        partition: Partition,
        index: int,
        links: dict[int, Link],
        *,
        incarnation: int = 0,
        process_chaos: bool = False,
    ):
        started = time.perf_counter()
        self.scenario = scenario
        self.partition = partition
        self.index = index
        self.links = links
        self.incarnation = incarnation
        self._neighbor_order = tuple(sorted(links))
        self.region = partition.regions[index]
        self.end_time = seconds(scenario.duration_s)

        # --- region network (global mote ids, region-local everything) ----
        from repro.scenarios.workloads import workload_from_spec
        from repro.dynamics import dynamics_from_spec

        topology = RegionTopology(partition.topology, self.region)
        self.workload = workload_from_spec(scenario.workload)
        environment = self.workload.environment(partition.topology, scenario.duration_s)
        self.net = SensorNetwork(
            topology,
            seed=f"{scenario.seed}/shard{index}",
            base_station=False,
            physical=False,
            beacons=scenario.beacons,
            beacon_period=seconds(scenario.beacon_period_s),
            spacing_m=scenario.spacing_m,
            environment=environment,
            adaptive=False,
            beacon_expiry_intervals=scenario.expiry_intervals,
        )
        self.sim = self.net.sim
        self.channel = self.net.channel

        # --- ghosts: foreign boundary motes, attached disabled ------------
        # Attached after every real mote so real attach order (and therefore
        # field slots, hearer ordering, and RNG consumption) matches a build
        # of the region alone.
        self._ghost_radios: dict[int, object] = {}
        for j in sorted(partition.ghosts.get(index, {})):
            for mote_id, location in partition.ghosts[index][j]:
                ghost = Mote(self.sim, mote_id, location)
                radio = self.channel.attach(
                    ghost, partition.topology.position(location, scenario.spacing_m)
                )
                radio.enabled = False
                self._ghost_radios[mote_id] = radio

        # Boundary nodes must *accept* frames from cross-seam topology
        # neighbors (their receive filter was built from the region-clipped
        # relation) and know them as acquaintances (routing warm-up parity
        # with the single-process build).
        region_set = set(self.region.locations)
        base = partition.topology
        for location in self.region.locations:
            cross = sorted(
                (base.mote_id(n), n)
                for n in base.neighbors(location)
                if n not in region_set
            )
            if not cross:
                continue
            node = self.net.nodes[location]
            node.stack.admit_senders(mote_id for mote_id, _ in cross)
            node.beacons.prime(cross)

        # --- outbound capture ---------------------------------------------
        # mote id -> seam neighbors that mirror it (who must see its frames).
        self._watch: dict[int, tuple[int, ...]] = {}
        for j in self._neighbor_order:
            for mote_id, _ in partition.ghosts.get(j, {}).get(index, ()):
                self._watch[mote_id] = (*self._watch.get(mote_id, ()), j)
        self._boundary_radios = [
            self.channel.radio_for(mote_id) for mote_id in sorted(self._watch)
        ]
        self._outbox: dict[int, list[TxEnvelope]] = {j: [] for j in self._neighbor_order}
        self.channel.on_transmission = self._on_transmission

        # --- workload / dynamics / faults ---------------------------------
        self.dynamics = dynamics_from_spec(self.net, scenario.dynamics)
        self.workload.install_shard(self.net, partition.topology, self.region)
        self.dynamics.start()
        # Fault injection: the region's slice of the scenario plan.  Installed
        # *after* the capture hook above so the injector's corruption marking
        # chains in front of it — a corrupted boundary frame crosses the seam
        # already flagged.  Process chaos (worker kill/hang) applies only to
        # a forked worker's first incarnation: a supervised replacement must
        # run undisturbed, and the inline driver (the parity reference)
        # ignores it entirely.
        from repro.faults import FaultPlan, install_faults

        plan = FaultPlan.from_spec(getattr(scenario, "faults", None)).resolve(
            partition.topology, scenario.seed
        )
        self.fault_injector = install_faults(self.net, plan.for_region(partition, index))
        if process_chaos and incarnation == 0:
            self._arm_process_chaos(plan)

        # One overhead-only frame's airtime: the floor on delivery latency of
        # any frame a neighbor has not yet told us about.
        self._min_airtime = self.channel.airtime_us(Frame(0, 0, 0))

        # --- protocol state ------------------------------------------------
        self.finished = False
        self.rounds = 0
        self.ghost_frames = 0
        self.envelopes_in = 0
        self._sent_seq = 0
        self._grant_sent = 0
        self._grants_in = {j: 0 for j in self._neighbor_order}
        self._done_from = {j: False for j in self._neighbor_order}
        self.build_s = time.perf_counter() - started
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # Process-level chaos (fault campaigns over the forked runtime itself)
    # ------------------------------------------------------------------
    def _arm_process_chaos(self, plan) -> None:
        """Schedule this shard's worker kill/hang events.  ``benign=True``:
        dying mid-simulation must not perturb the event hazard accounting,
        so the replacement's re-execution is bit-identical up to the kill."""
        import os
        import signal as signal_module

        for event in plan.process_events:
            if event.shard != self.index:
                continue
            at = seconds(event.at_s)
            if event.kind == "worker_kill":
                self.sim.schedule_at(
                    at, os.kill, os.getpid(), signal_module.SIGKILL, benign=True
                )
            else:  # worker_hang: stop heartbeating without exiting
                self.sim.schedule_at(
                    at, time.sleep, event.hang_s or 10_000.0, benign=True
                )

    # ------------------------------------------------------------------
    # Outbound capture
    # ------------------------------------------------------------------
    def _on_transmission(self, tx: Transmission) -> None:
        targets = self._watch.get(tx.radio.mote.id)
        if targets is None:
            return  # interior mote, or a ghost replay (never watched)
        envelope = TxEnvelope(
            shard=self.index,
            seq=self._sent_seq,
            start=tx.start,
            end=tx.end,
            mote=tx.radio.mote.id,
            src=tx.frame.src,
            dest=tx.frame.dest,
            am_type=tx.frame.am_type,
            payload=tx.frame.payload,
            corrupted=tx.corrupted,
        )
        self._sent_seq += 1
        for j in targets:
            self._outbox[j].append(envelope)

    # ------------------------------------------------------------------
    # Lookahead
    # ------------------------------------------------------------------
    def horizon(self) -> int:
        """Earliest tick at which a boundary transmission could start.

        A boundary radio's armed carrier sense is its
        ``_pending_carrier_sense`` handle, which ``Radio._carrier_sense``
        clears as it fires, so a non-None handle is always still to come.
        """
        h = GRANT_FOREVER
        for radio in self._boundary_radios:
            pending = radio._pending_carrier_sense
            if pending is not None and pending.time < h:
                h = pending.time
        next_event = self.sim.next_event_time()
        if next_event is not None:
            h = min(h, next_event + MIN_BACKOFF_US)
        if self._grants_in:
            foreign = min(self._grants_in.values())
            if foreign < GRANT_FOREVER:
                h = min(h, foreign + self._min_airtime + MIN_BACKOFF_US)
        return h

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def post_rounds(self) -> None:
        """Phase 1: one round to every seam neighbor (grants are monotone)."""
        if self.finished:
            return
        done = self.sim.now >= self.end_time
        grant = GRANT_FOREVER if done else max(self.horizon(), self._grant_sent)
        self._grant_sent = grant
        for j in self._neighbor_order:
            envelopes = tuple(self._outbox[j])
            self._outbox[j].clear()
            self.links[j].send(Round(self.index, grant, done, envelopes))
        self.rounds += 1
        self.finished = done

    def collect_rounds(self) -> None:
        """Phase 2: one round from every active neighbor, merged and injected."""
        incoming: list[TxEnvelope] = []
        for j in self._neighbor_order:
            if self._done_from[j]:
                continue
            message = self.links[j].recv()
            self._done_from[j] = message.done
            self._grants_in[j] = GRANT_FOREVER if message.done else message.grant
            incoming.extend(message.envelopes)
        for envelope in sorted(incoming, key=lambda e: e.merge_key):
            self.envelopes_in += 1
            self.sim.schedule_at(envelope.start, self._replay_begin, envelope)

    def advance(self) -> None:
        """Phase 3: run to the granted window edge (inclusive)."""
        safe = min(self._grants_in.values()) if self._grants_in else GRANT_FOREVER
        self.sim.run(until=min(safe, self.end_time))

    def run_round(self) -> bool:
        self.post_rounds()
        if self.finished:
            return False
        self.collect_rounds()
        self.advance()
        return True

    def drain(self) -> None:
        """After finishing: absorb neighbors' remaining rounds (discarded —
        anything they carry starts after our end of time) until each has sent
        its own ``done``, so no peer ever blocks on a full pipe."""
        for j in self._neighbor_order:
            while not self._done_from[j]:
                self._done_from[j] = self.links[j].recv().done

    def run(self, on_round=None) -> None:
        """Drive the shard to the end of simulated time (worker main loop).

        ``on_round``, when given, is called with the completed round count
        after every protocol round — the forked runtime's heartbeat, proving
        liveness to the supervising parent."""
        started = time.perf_counter()
        while self.run_round():
            if on_round is not None:
                on_round(self.rounds)
        self.drain()
        self.wall_s = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Ghost replay
    # ------------------------------------------------------------------
    def _replay_begin(self, envelope: TxEnvelope) -> None:
        radio = self._ghost_radios[envelope.mote]
        frame = Frame(envelope.src, envelope.dest, envelope.am_type, envelope.payload)
        tx = Transmission(
            radio, frame, envelope.start, envelope.end, corrupted=envelope.corrupted
        )
        radio._current_tx = tx
        self.channel.begin_transmission(tx)
        self.ghost_frames += 1
        self.sim.schedule_at(envelope.end, self._replay_end, radio, tx)

    def _replay_end(self, radio, tx: Transmission) -> None:
        radio._current_tx = None
        self.channel.end_transmission(tx)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-shard counters + workload/dynamics metrics (all local nodes)."""
        real_radios = [
            self.channel.radio_for(mote_id) for mote_id in sorted(self.region.mote_ids)
        ]
        counters = {
            "shard": self.index,
            "nodes": len(self.region),
            "ghosts": self.partition.mirrored_into(self.index),
            "events": self.sim.events_fired,
            "frames": self.channel.frames_transmitted - self.ghost_frames,
            "ghost_frames": self.ghost_frames,
            "frames_received": sum(r.frames_received for r in real_radios if r),
            "collisions": self.channel.collisions,
            "prr_drops": self.channel.prr_drops,
            "mac_giveups": self.channel.mac_giveups,
            "rounds": self.rounds,
            "envelopes_out": self._sent_seq,
            "envelopes_in": self.envelopes_in,
            "build_s": round(self.build_s, 4),
            "wall_s": round(self.wall_s, 4),
        }
        counters.update(self.dynamics.stats())
        if self.fault_injector is not None:
            counters.update(self.fault_injector.stats())
        counters.update(self.workload.metrics(self.net))
        return counters


def neighbor_pairs(partition: Partition) -> list[tuple[int, int]]:
    """All seam-adjacent region pairs ``(i, j)`` with ``i < j``."""
    pairs = set()
    for i in range(partition.shards):
        for j in partition.seam_neighbors(i):
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def ghost_ids(partition: Partition, index: int) -> Iterable[int]:
    """Mote ids mirrored into region ``index`` (debugging/test helper)."""
    for j in sorted(partition.ghosts.get(index, {})):
        for mote_id, _ in partition.ghosts[index][j]:
            yield mote_id
