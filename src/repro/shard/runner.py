"""Drive a sharded scenario: inline (single-process) or supervised multiprocess.

Both modes execute the *identical* worker protocol over the *identical*
partition; the only difference is the seam transport.  Inline mode wires
workers together with in-memory deques and phase-steps them in this process.
Process mode forks one worker per region and connects every worker to the
parent over a single duplex pipe — a **hub-and-spoke** topology in which the
parent routes each seam round to its destination worker.  Message sequences
are lockstep either way — each worker's k-th receive from a neighbor is that
neighbor's k-th send — so the two modes produce bit-identical counters.
That equivalence is the parity contract ``tests/test_shard.py`` pins: the
inline mode *is* the single-process reference execution of the decomposition.

The hub exists for **supervision**.  Because every seam round passes through
the parent, the parent logs each one before forwarding it, and that log is a
complete prefix of the deterministic message sequence.  When a worker dies
(fault-injection chaos, OOM kill, a real crash) the parent therefore holds
everything needed for recovery by re-execution: it forks a replacement from
t=0 whose already-received rounds are pre-seeded from the log (``replay``)
and whose already-delivered sends are suppressed (``suppress``), and the
replacement fast-forwards to the crash point producing the exact same bytes
the first incarnation produced.  Liveness is watched via per-round
heartbeats: a worker that stops heartbeating past the hang deadline turns
into a bounded-time :class:`~repro.errors.NetworkError` (never a parent
deadlock), though a replacement's replay heartbeats also keep alive the
neighbors blocked waiting on it; a worker that keeps dying past
``max_restarts`` degrades the run to the inline driver — slower, but it
completes.  Healed behavior counters are bit-identical to an undisturbed
run, with only ``RunResult.supervision`` (``restarts``, ``incidents``,
``recoveries``) recording that anything happened.

Re-execution from t=0 makes restart cost O(run length), and it is the only
recovery path.  Periodic fork snapshots woken with the log suffix would bound
it to O(snapshot interval), but measured end to end the forks cost more wall
time than the replay they save, even for a crash late in a 60 s run.

Validation happens up front: sharding supports the deployment shapes whose
cross-region interaction is entirely radio frames.  Mobility would move
motes between regions (the ghost sets are static), adaptive neighborhoods
and physical mode snoop the live field, and a base station is a global
singleton — all are rejected with a clear error.  Node churn and duty
cycling are fine: a powered-down boundary mote simply transmits nothing, so
its mirrors stay implicitly correct.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal as signal_module
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from repro.errors import NetworkError
from repro.faults.plan import FaultPlan
from repro.scenarios.spec import Scenario
from repro.shard.partition import Partition, partition_topology
from repro.shard.worker import Link, ShardWorker, neighbor_pairs
from repro.topology import from_spec as topology_from_spec

#: Keys of a flat result row that describe pacing rather than behavior.
TIMING_KEYS = frozenset(
    {"build_s", "wall_s", "events_per_s", "frames_per_s", "sim_x_real", "peak_rss_kb"}
)

#: Per-shard keys that are protocol bookkeeping, not summable behavior.
_NON_AGGREGATED = frozenset({"shard", "build_s", "wall_s"})

#: The runner takes no checkpoints; only the benchmark manifest reads this.
DEFAULT_CHECKPOINT_EVERY = 0


class _DequeLink:
    """One directed in-memory seam link (inline mode)."""

    __slots__ = ("outbound", "inbound")

    def __init__(self, outbound: deque, inbound: deque):
        self.outbound = outbound
        self.inbound = inbound

    def send(self, message) -> None:
        self.outbound.append(message)

    def recv(self):
        return self.inbound.popleft()


class _WorkerHub:
    """Worker-side hub endpoint: one duplex pipe to the parent, demultiplexed.

    Outbound rounds are tagged with their destination shard; inbound messages
    are sorted into per-sender queues (a ``recv`` for neighbor *j* drains the
    pipe until *j*'s queue is non-empty — per-pair FIFO order is preserved,
    which is all the lockstep protocol needs).  A restarted worker starts
    with its queues pre-seeded from the parent's message log (``replay``) and
    its first ``suppress[j]`` sends to each neighbor swallowed — those bytes
    already reached *j* before the previous incarnation died.
    """

    def __init__(self, conn, neighbors, replay=None, suppress=None):
        self.conn = conn
        self.queues = {
            j: deque((replay or {}).get(j, ())) for j in neighbors
        }
        self.suppress = dict(suppress or {})

    def link(self, peer: int) -> "_HubLink":
        return _HubLink(self, peer)

    def send_round(self, peer: int, message) -> None:
        remaining = self.suppress.get(peer, 0)
        if remaining:
            self.suppress[peer] = remaining - 1
            return
        self.conn.send(("round", peer, message))

    def recv_round(self, peer: int):
        queue = self.queues[peer]
        while not queue:
            kind, sender, payload = self.conn.recv()
            self.queues[sender].append(payload)
        return queue.popleft()

    def heartbeat(self, rounds: int) -> None:
        self.conn.send(("hb", rounds))


class _HubLink:
    """One worker's view of one seam neighbor, multiplexed over the hub."""

    __slots__ = ("hub", "peer")

    def __init__(self, hub: _WorkerHub, peer: int):
        self.hub = hub
        self.peer = peer

    def send(self, message) -> None:
        self.hub.send_round(self.peer, message)

    def recv(self):
        return self.hub.recv_round(self.peer)


def _neighbor_sets(partition: Partition) -> dict[int, tuple[int, ...]]:
    """Seam neighbors per region, symmetric (same keying as inline links)."""
    neighbors: dict[int, set[int]] = {i: set() for i in range(partition.shards)}
    for i, j in neighbor_pairs(partition):
        neighbors[i].add(j)
        neighbors[j].add(i)
    return {i: tuple(sorted(v)) for i, v in neighbors.items()}


def _check_shardable(scenario: Scenario) -> None:
    if scenario.physical:
        raise NetworkError(
            "sharded runs require filtered (non-physical) neighbor mode: "
            "physical snooping reads the whole field"
        )
    if scenario.adaptive:
        raise NetworkError(
            "sharded runs require adaptive=False: live neighborhoods would "
            "need cross-shard beacon state"
        )
    if scenario.base_station:
        raise NetworkError(
            "sharded runs require base_station=False: the base station is a "
            "global singleton (inject agents via the workload instead)"
        )
    dynamics = scenario.dynamics or {}
    if "mobility" in dynamics:
        raise NetworkError(
            "sharded runs do not support mobility: ghost mirror sets are "
            "static (drop the dynamics 'mobility' section or run unsharded)"
        )
    from repro.scenarios.workloads import workload_from_spec

    workload = workload_from_spec(scenario.workload)
    if not getattr(workload, "shard_safe", False):
        raise NetworkError(
            f"workload {workload.name!r} is not shard-safe: it drives nodes "
            "from a global scheduler (shard-safe kinds: idle, flood, habitat)"
        )


def _process_main(scenario, partition, index, conn, incarnation, replay, suppress):
    try:
        neighbors = _neighbor_sets(partition)[index]
        hub = _WorkerHub(conn, neighbors, replay=replay, suppress=suppress)
        worker = ShardWorker(
            scenario,
            partition,
            index,
            {j: hub.link(j) for j in neighbors},
            incarnation=incarnation,
            process_chaos=True,
        )
        hub.heartbeat(0)  # built: resets the parent's liveness deadline
        worker.run(on_round=hub.heartbeat)
        conn.send(("ok", worker.stats()))
    except BaseException:  # noqa: BLE001 - forwarded verbatim to the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


def _describe_exit(process) -> str:
    code = process.exitcode
    if code is None:
        return "alive"
    if code < 0:
        try:
            name = signal_module.Signals(-code).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = f"signal {-code}"
        return f"killed by {name} (exitcode {code})"
    return f"exitcode {code}"


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one live worker incarnation."""

    index: int
    process: object
    conn: object
    incarnation: int
    #: Seconds the supervisor has listened to this worker since its last
    #: message; the hang deadline fires at ``hang_timeout_s``.
    silent_s: float = 0.0


class _DegradedRun(Exception):
    """Internal: a shard exhausted its restart budget; fall back inline."""

    def __init__(self, reason: str, restarts: int, incidents: list[str]):
        super().__init__(reason)
        self.restarts = restarts
        self.incidents = incidents


class _Supervisor:
    """One supervised multiprocess run: the parent half of the hub.

    Owns the message log, the worker handles, and all recovery accounting.
    Constructed fresh per run by :meth:`ShardedRunner._run_processes`.
    """

    def __init__(self, runner: "ShardedRunner", ctx):
        self.runner = runner
        self.ctx = ctx
        self.neighbors = _neighbor_sets(runner.partition)
        #: (src, dst) -> every Round src has addressed to dst, in order.  The
        #: complete, authoritative message history: entries are appended
        #: *before* the forward is attempted, so a crashed destination can
        #: always be replayed from here.
        self.sent_log: dict[tuple[int, int], list] = {}
        for i, j in neighbor_pairs(runner.partition):
            self.sent_log[(i, j)] = []
            self.sent_log[(j, i)] = []
        self.handles: dict[int, _WorkerHandle] = {}
        self.per_shard: list = [None] * runner.shards
        self.pending = set(range(runner.shards))
        self.restarts = {i: 0 for i in range(runner.shards)}
        self.incidents: list[str] = []
        #: Latest protocol round each shard has proven (its heartbeats).
        self.last_rounds = {i: 0 for i in range(runner.shards)}
        #: shard -> (death wall-time, victim's last proven round); resolved
        #: into ``recoveries`` when the replacement catches up.
        self.recovering: dict[int, tuple[float, int]] = {}
        self.recoveries: list[dict] = []

    # ------------------------------------------------------------------
    def run(self) -> tuple[list[dict], dict]:
        runner = self.runner
        try:
            for i in range(runner.shards):
                self.handles[i] = self._spawn(i, 0, None, None)
            while self.pending:
                watch = {
                    self.handles[i].conn: self.handles[i]
                    for i in self.pending
                    if self.handles[i].conn is not None
                }
                if not watch:  # pragma: no cover - every pending conn died
                    raise NetworkError(
                        "sharded run lost every pending worker connection "
                        f"({self._worker_report()})"
                    )
                quietest = max(h.silent_s for h in watch.values())
                timeout = max(0.0, min(runner.hang_timeout_s - quietest, 0.5))
                started = time.monotonic()
                ready = mp_connection.wait(list(watch), timeout=timeout)
                # Silence accrues only while the supervisor listens: time it
                # spends draining, forwarding, backing off a restart or
                # paused itself is not time a worker failed to speak, and
                # nor is wall time past the timeout it listened for.
                listened = min(time.monotonic() - started, timeout)
                for handle in watch.values():
                    handle.silent_s += listened
                if not ready:
                    overdue = sorted(
                        h.index
                        for h in watch.values()
                        if h.silent_s >= runner.hang_timeout_s
                    )
                    if overdue:
                        raise NetworkError(
                            f"sharded run stalled: no heartbeat from shard(s) "
                            f"{overdue} within {runner.hang_timeout_s:.1f}s "
                            f"({self._worker_report()})"
                        )
                    continue
                for conn in ready:
                    handle = watch[conn]
                    if self.handles.get(handle.index) is not handle:
                        continue  # replaced while draining an earlier conn
                    self._drain(handle)
            return list(self.per_shard), self._report()
        finally:
            # Reap everything, always: no supervisor exit — success, hang,
            # worker error, or degradation — leaves orphaned workers behind.
            for handle in self.handles.values():
                if handle.process.is_alive():
                    handle.process.terminate()
                handle.process.join()
                if handle.conn is not None:
                    handle.conn.close()
                    handle.conn = None
            gc.unfreeze()

    # ------------------------------------------------------------------
    def _spawn(self, index, incarnation, replay, suppress) -> _WorkerHandle:
        runner = self.runner
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        suffix = "" if incarnation == 0 else f".r{incarnation}"
        process = self.ctx.Process(
            target=_process_main,
            args=(runner.scenario, runner.partition, index, child_conn, incarnation,
                  replay, suppress),
            name=f"shard-{index}{suffix}",
        )
        # Fork with the heap frozen until the run ends: no collection, in a
        # worker or in this process, then walks the pages they share.  A
        # full pass over a large caller's heap copies every one of them and
        # can stall a worker, or the supervisor that routes its rounds, for
        # longer than the hang deadline.
        gc.freeze()
        process.start()
        child_conn.close()
        return _WorkerHandle(index, process, parent_conn, incarnation)

    # ------------------------------------------------------------------
    def _drain(self, handle: _WorkerHandle) -> None:
        """Consume every buffered message on one worker's pipe."""
        conn = handle.conn
        try:
            while True:
                message = conn.recv()
                handle.silent_s = 0.0
                kind = message[0]
                if kind == "round":
                    _, dest, payload = message
                    self.sent_log[(handle.index, dest)].append(payload)
                    peer = self.handles.get(dest)
                    if peer is not None and peer.conn is not None:
                        try:
                            peer.conn.send(("round", handle.index, payload))
                        except (BrokenPipeError, OSError):
                            pass  # dest died; the log replays this on restart
                elif kind == "hb":
                    self.last_rounds[handle.index] = message[1]
                    if handle.index in self.recovering:
                        # Until it catches up, a replacement sends no rounds,
                        # so its seam neighbors (and, down a ribbon of
                        # shards, theirs) sit blocked waiting on it: count
                        # its replay progress as their liveness too.
                        self._refresh_live()
                    self._check_recovered(handle.index)
                elif kind == "ok":
                    self.per_shard[handle.index] = message[1]
                    self.pending.discard(handle.index)
                    self._check_recovered(handle.index, finished=True)
                elif kind == "error":
                    raise NetworkError(
                        f"sharded run failed:\nshard {handle.index}:\n{message[1]}"
                    )
                if not conn.poll():
                    return
        # EOFError (or a reset pipe): the worker died.
        except (EOFError, OSError):
            self._worker_exited(handle)

    def _refresh_live(self) -> None:
        """Restart every live worker's hang deadline."""
        for handle in self.handles.values():
            if handle.conn is not None:
                handle.silent_s = 0.0

    def _check_recovered(self, index: int, finished: bool = False) -> None:
        entry = self.recovering.get(index)
        if entry is None:
            return
        started, target = entry
        if finished or self.last_rounds[index] >= target:
            del self.recovering[index]
            self.recoveries.append(
                {"shard": index, "recovery_s": round(time.monotonic() - started, 4)}
            )

    # ------------------------------------------------------------------
    def _worker_exited(self, handle: _WorkerHandle) -> None:
        runner = self.runner
        process = handle.process
        process.join()
        handle.conn.close()
        handle.conn = None
        index = handle.index
        if index not in self.pending:
            return  # normal exit, result already delivered
        status = _describe_exit(process)
        if self.restarts[index] >= runner.max_restarts:
            raise _DegradedRun(
                f"shard {index} died ({status}) after "
                f"{self.restarts[index]} restart(s); falling back to the "
                "inline driver",
                sum(self.restarts.values()),
                self.incidents,
            )
        self.restarts[index] += 1
        died_at = time.monotonic()
        target = self.last_rounds[index]
        time.sleep(runner.restart_backoff_s * (2 ** (self.restarts[index] - 1)))
        # Deterministic re-execution from t=0: the replacement re-runs with
        # every round its predecessor already received pre-seeded (replay)
        # and every round the predecessor already delivered swallowed
        # (suppress) — it fast-forwards to the crash point bit-for-bit and
        # picks up the protocol exactly where the dead incarnation left it.
        replay = {j: tuple(self.sent_log[(j, index)]) for j in self.neighbors[index]}
        suppress = {j: len(self.sent_log[(index, j)]) for j in self.neighbors[index]}
        self.handles[index] = self._spawn(index, self.restarts[index], replay, suppress)
        self.recovering[index] = (died_at, target)
        self.incidents.append(
            f"shard {index} died ({status}); restart #{self.restarts[index]}"
        )

    # ------------------------------------------------------------------
    def _worker_report(self) -> str:
        parts = []
        for i in sorted(self.handles):
            handle = self.handles[i]
            state = _describe_exit(handle.process)
            if handle.incarnation:
                state += f", incarnation {handle.incarnation}"
            parts.append(f"shard {i}: {state}")
        return "; ".join(parts)

    def _report(self) -> dict:
        total_restarts = sum(self.restarts.values())
        if not total_restarts:
            return {}
        return {
            "restarts": total_restarts,
            "incidents": list(self.incidents),
            "recoveries": list(self.recoveries),
        }


class ShardedRunner:
    """Partition a scenario and run one simulator stack per region.

    ``mode="process"`` forks one worker per region under parent supervision
    (the production path); ``mode="inline"`` phase-steps every worker in this
    process — the single-process reference the parity tests compare against.

    Supervision knobs (process mode): a worker that sends nothing through
    ``hang_timeout_s`` of the supervisor listening (its own drains, backoffs
    and pauses do not count) raises a descriptive :class:`NetworkError` after
    every survivor is reaped; a worker that *dies* is restarted up to
    ``max_restarts`` times per shard (exponential backoff from
    ``restart_backoff_s``), after which the run degrades to the inline
    driver.  A replacement re-executes from t=0 against the parent's message
    log.  Recovery accounting lands in ``RunResult.supervision`` — never in
    ``counters``, which stay bit-identical to an undisturbed run.
    """

    def __init__(
        self,
        scenario: Scenario | dict | str,
        *,
        mode: str = "process",
        hang_timeout_s: float = 60.0,
        max_restarts: int = 2,
        restart_backoff_s: float = 0.05,
    ):
        if not isinstance(scenario, Scenario):
            scenario = Scenario.from_spec(scenario)
        if mode not in ("process", "inline"):
            raise NetworkError(f"unknown shard mode {mode!r}")
        self.scenario = scenario
        self.mode = mode
        self.shards = scenario.shards
        if self.shards < 1:
            raise NetworkError(f"shards must be >= 1, got {self.shards}")
        if hang_timeout_s <= 0:
            raise NetworkError(f"hang_timeout_s must be > 0, got {hang_timeout_s}")
        if max_restarts < 0:
            raise NetworkError(
                "max_restarts must be >= 0 (0 degrades on the first death), "
                f"got {max_restarts}"
            )
        if restart_backoff_s < 0:
            raise NetworkError(
                f"restart_backoff_s must be >= 0, got {restart_backoff_s}"
            )
        self.hang_timeout_s = hang_timeout_s
        self.max_restarts = max_restarts
        self.restart_backoff_s = restart_backoff_s
        _check_shardable(scenario)
        self.topology = topology_from_spec(scenario.topology)
        self.partition = partition_topology(
            self.topology, self.shards, spacing_m=scenario.spacing_m
        )
        self.fault_plan = FaultPlan.from_spec(scenario.faults).resolve(
            self.topology, scenario.seed
        )
        self.fault_plan.validate_against(self.topology)
        self.fault_plan.validate_sharded(self.shards)

    # ------------------------------------------------------------------
    def run(self) -> "RunResult":
        started = time.perf_counter()
        supervision: dict = {}
        if self.mode == "inline":
            per_shard = self._run_inline()
        else:
            per_shard, supervision = self._run_processes()
        wall_s = time.perf_counter() - started
        return self._aggregate(per_shard, wall_s, supervision)

    # ------------------------------------------------------------------
    def _links(self) -> list[dict[int, Link]]:
        """Inline seam links: a deque per direction for every seam pair."""
        links: list[dict[int, Link]] = [{} for _ in range(self.shards)]
        for i, j in neighbor_pairs(self.partition):
            i_to_j: deque = deque()
            j_to_i: deque = deque()
            links[i][j] = _DequeLink(outbound=i_to_j, inbound=j_to_i)
            links[j][i] = _DequeLink(outbound=j_to_i, inbound=i_to_j)
        return links

    def _run_inline(self) -> list[dict]:
        links = self._links()
        workers = [
            ShardWorker(self.scenario, self.partition, i, links[i])
            for i in range(self.shards)
        ]
        active = [w for w in workers]
        while active:
            for worker in active:
                worker.post_rounds()
            active = [w for w in active if not w.finished]
            for worker in active:
                worker.collect_rounds()
                worker.advance()
        return [w.stats() for w in workers]

    # ------------------------------------------------------------------
    # Supervised process mode
    # ------------------------------------------------------------------
    def _run_processes(self) -> tuple[list[dict], dict]:
        ctx = multiprocessing.get_context("fork")
        try:
            return _Supervisor(self, ctx).run()
        except _DegradedRun as degraded:
            supervision = {
                "degraded": True,
                "reason": str(degraded),
                "restarts": degraded.restarts,
                "incidents": list(degraded.incidents),
            }
            return self._run_inline(), supervision

    # ------------------------------------------------------------------
    def _aggregate(
        self, per_shard: list[dict], wall_s: float, supervision: dict
    ) -> "RunResult":
        from repro.api import RunResult

        scenario = self.scenario
        counters: dict = {
            "scenario": scenario.name,
            "nodes": len(self.topology),
            "sim_s": scenario.duration_s,
            "shards": self.shards,
            "ghosts": sum(s.get("ghosts", 0) for s in per_shard),
        }
        keys: list[str] = []
        for stats in per_shard:
            for key in stats:
                if key not in keys:
                    keys.append(key)
        for key in keys:
            if key in _NON_AGGREGATED or key in counters:
                continue
            values = [s[key] for s in per_shard if key in s]
            if values and all(isinstance(v, (int, float)) for v in values):
                total = sum(values)
                counters[key] = round(total, 6) if isinstance(total, float) else total
        build_s = max((s.get("build_s", 0.0) for s in per_shard), default=0.0)
        events = counters.get("events", 0)
        frames = counters.get("frames", 0)
        timings = {
            "build_s": round(build_s, 4),
            "wall_s": round(wall_s, 4),
            "events_per_s": round(events / wall_s) if wall_s > 0 else 0,
            "sim_x_real": round(scenario.duration_s / wall_s, 1) if wall_s > 0 else 0,
            "frames_per_s": round(frames / wall_s, 1) if wall_s > 0 else 0,
        }
        return RunResult(
            scenario=scenario.name,
            seed=scenario.seed,
            shards=self.shards,
            mode=self.mode,
            counters=counters,
            timings=timings,
            per_shard=tuple(per_shard),
            supervision=supervision,
        )


def cpu_count() -> int:
    """Usable cores (affinity-aware) — what a speedup claim is honest against."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
