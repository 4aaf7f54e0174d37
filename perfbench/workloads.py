"""The benchmark's four workloads: pinned specs, episodes and their counters.

Every spec is copied here on purpose instead of being looked up in
``repro.scenarios.library.BUILTIN_SCENARIOS``: an edit to the library must
not silently change what the benchmark measures.

An *episode* is one user-visible run of a workload: spec -> ready deployment
(``setup_s``) -> clock driven to the duration (``sim_x_real``).  Single-process
workloads go through ``Scenario.build()`` and ``SensorNetwork.run``; the
sharded one through ``ShardedRunner`` in process mode.  Each episode returns
its wall times and its deterministic behaviour counters.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

from repro.scenarios.spec import Scenario
from repro.shard.runner import ShardedRunner
from repro.shard.worker import ShardWorker
from repro.sim.kernel import Simulator
from repro.sim.units import seconds

_RANDOM_WAYPOINT = {"model": "random_waypoint", "speed": [0.5, 2.0], "pause_s": 2.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The deployment every timed episode runs (its ``seed`` included).
    spec: dict
    #: Simulated seconds per timed episode.
    duration_s: float
    #: Simulated seconds of the seeded correctness probe (and the smoke test).
    probe_s: float
    sharded: bool = False
    #: Extra set-up-only samples taken before the timed episodes.
    setup_probes: int = 6

    def scenario(self, duration_s: float, seed: int | None = None) -> Scenario:
        spec = json.loads(json.dumps(self.spec))
        spec["duration_s"] = duration_s
        if seed is not None:
            spec["seed"] = seed
        return Scenario.from_spec(spec)

    def digest(self) -> str:
        """sha256 of the canonical JSON of the timed spec."""
        spec = dict(self.spec, duration_s=self.duration_s)
        blob = json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="flood-dense",
            why="400-node 22 m grid flood: every fan-out takes the vector pass, "
            "carrier sense stays scalar",
            # The `bench scale` dense-400 cell as a spec (20x20 grid, flood
            # from the hub, 10 s beacons, no dynamics).  180 sim-s reaches
            # past the flood's break-out (~120 sim-s at seed 0): a shorter
            # run would measure beacons.
            spec={
                "name": "flood-dense",
                "topology": {"kind": "grid", "width": 20, "height": 20},
                "workload": {"kind": "flood"},
                "seed": 0,
                "spacing_m": 22.0,
                "beacon_period_s": 10.0,
            },
            duration_s=180.0,
            probe_s=20.0,
        ),
        Workload(
            name="flood-mobile",
            why="400 random nodes, 10% waypoint movers, flood: scalar fan-out, "
            "link-cache churn and clone migrations",
            spec={
                "name": "mobile-flood-400",
                "topology": {"kind": "random", "count": 400, "seed": 11},
                "workload": {"kind": "flood"},
                "dynamics": {
                    "mobility": dict(_RANDOM_WAYPOINT),
                    "mobile_fraction": 0.1,
                    "tick_s": 1.0,
                },
                "seed": 11,
                "spacing_m": 45.0,
            },
            duration_s=60.0,
            probe_s=10.0,
        ),
        Workload(
            name="tracker-mobile",
            why="8x8 grid chase with 25% movers: the Agilla VM dominates and "
            "the radio is nearly idle",
            spec={
                "name": "mobile-tracker",
                "topology": {"kind": "grid", "width": 8, "height": 8},
                "workload": {"kind": "tracker"},
                "dynamics": {
                    "mobility": dict(_RANDOM_WAYPOINT),
                    "mobile_fraction": 0.25,
                    "tick_s": 1.0,
                },
                "seed": 0,
                "spacing_m": 60.0,
            },
            duration_s=120.0,
            probe_s=20.0,
        ),
        Workload(
            name="habitat-sharded",
            why="2,500-node clustered habitat in 2 forked shards: the only "
            "workload that runs the shard runtime",
            # The `bench shard` n2500 cell at shards=2: 25 clusters of 100,
            # corridors wider than radio range, 2 s beacons.
            spec={
                "name": "habitat-sharded",
                "topology": {
                    "kind": "clustered",
                    "clusters": 25,
                    "cluster_size": 100,
                    "cluster_spacing": 20,
                    "spread": 2.0,
                    "radius": 2.5,
                    "seed": 0,
                },
                "workload": {"kind": "habitat"},
                "seed": 0,
                "spacing_m": 25.0,
                "beacon_period_s": 2.0,
                "shards": 2,
            },
            duration_s=5.0,
            # The first beacons go out ~2 sim-s in.
            probe_s=2.5,
            sharded=True,
            setup_probes=2,
        ),
    )
}

#: Probe seeds whose counters are pinned: the default ``--seed`` and one
#: held out from it (the smoke test's seed).
PINNED_PROBE_SEEDS = (0, 1)
HELD_OUT_SEED = 1


#: Iterations per second of :func:`host_speed`'s loop that timings are
#: scaled to: about this loop's median speed on the 2-vCPU VM the bounds
#: were set on, so scaled figures read close to raw ones there.
REFERENCE_SPEED = 13.0e6
#: Slices one episode's run is cut into, host speed sampled between each.
CHUNKS = 20


def host_speed(loops: int = 5, iterations: int = 20_000) -> float:
    """The host's current speed: iterations/s of a fixed pure-Python loop.

    Sampled around every timed slice.  This loop is the benchmark's own code,
    so no change to the simulator moves it; a slower or busier host does.
    The median of ``loops`` timings, after one warm-up, shrugs off a burst.
    """
    rates = []
    for _ in range(loops + 1):
        started = time.perf_counter()
        total = 0
        for k in range(iterations):
            total += k * 3
        rates.append(iterations / (time.perf_counter() - started))
    return statistics.median(rates[1:])


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` as it would read on a host running at REFERENCE_SPEED."""
    return wall_s * (before + after) / (2.0 * REFERENCE_SPEED)


@dataclass
class Episode:
    #: Host-speed-scaled set-up and run walls (see :func:`scaled`) ...
    setup_s: float
    sim_wall_s: float
    counters: dict
    #: ... and the same walls as measured.
    raw_setup_s: float = 0.0
    raw_wall_s: float = 0.0
    #: Per-layer trace totals (traced episodes only).
    trace: dict | None = None
    #: Sharded episodes: run wall, per-shard stats, supervision.
    shard: dict | None = None
    #: Traced episodes: build-step wall times.
    build: dict = field(default_factory=dict)


def network_counts(net) -> dict:
    """Behaviour counters every layer already exposes on a built network."""
    channel = net.channel
    nodes = list(net.all_nodes())
    cache = channel.link_cache
    return {
        "events": net.sim.events_fired,
        "compactions": net.sim.compactions,
        "frames": channel.frames_transmitted,
        "receptions": sum(node.stack.radio.frames_received for node in nodes),
        "collisions": channel.collisions,
        "prr_drops": channel.prr_drops,
        "mac_giveups": channel.mac_giveups,
        "sense_idle": channel.sense_idle,
        "sense_scalar": channel.sense_scalar,
        "sense_vector": channel.sense_vector,
        "cache_hits": cache.cache_hits,
        "cache_misses": cache.cache_misses,
        "index_moves": channel.index_moves,
        "tasks": sum(node.mote.tasks.tasks_posted for node in nodes),
        "net_sent": sum(node.stack.sent for node in nodes),
        "net_received": sum(node.stack.received for node in nodes),
        "queue_overflows": sum(node.stack.queue_overflows for node in nodes),
        "beacons": sum(node.beacons.beacons_sent for node in nodes),
        "instructions": sum(n.middleware.engine.instructions_executed for n in nodes),
        "migrations": sum(n.middleware.migration.arrivals for n in nodes),
        "migration_failures": sum(n.middleware.migration.failures for n in nodes),
        "remote_ops": sum(n.middleware.remote_ops.issued for n in nodes),
        "remote_timeouts": sum(n.middleware.remote_ops.timeouts for n in nodes),
    }


#: Counters pinned for single-process workloads (a subset of the above).
SINGLE_PINNED = (
    "events",
    "frames",
    "receptions",
    "collisions",
    "prr_drops",
    "mac_giveups",
    "coverage",
    "instructions",
    "index_moves",
    "index_rebuilds",
)
#: Counters pinned for the sharded workload (``RunResult.counters`` keys).
SHARDED_PINNED = (
    "events",
    "frames",
    "receptions",
    "collisions",
    "prr_drops",
    "mac_giveups",
    "coverage",
    "rounds",
    "envelopes_out",
    "envelopes_in",
)


def build_single(workload: Workload, duration_s: float, seed=None):
    """Build one single-process deployment from its spec.

    Returns the ``ScenarioRun``, the scaled and raw set-up seconds, and the
    host speed sampled right after the build.
    """
    scenario = workload.scenario(duration_s, seed)
    gc.collect()
    before = host_speed()
    started = time.perf_counter()
    run = scenario.build()
    raw_setup = time.perf_counter() - started
    after = host_speed()
    return run, scaled(raw_setup, before, after), raw_setup, after


def setup_sample(workload: Workload) -> Episode:
    """A set-up-only sample of the pinned deployment (nothing is run)."""
    if workload.sharded:
        return sharded_episode(workload, 0.0)
    _, setup, raw_setup, _ = build_single(workload, workload.duration_s)
    return Episode(setup, 0.0, {}, raw_setup)


def single_episode(workload: Workload, duration_s: float, seed=None, tracer=None) -> Episode:
    """Build and drive one single-process deployment.

    The run advances in :data:`CHUNKS` slices of simulated time (the event
    order is that of one ``run`` call); each slice's wall is scaled by the
    host speed sampled on either side of it.
    """
    run, setup, raw_setup, speed = build_single(workload, duration_s, seed)
    if tracer is not None:
        tracer.reset()
    sim = run.net.sim
    origin, span = sim.now, seconds(duration_s)
    raw_wall = wall = 0.0
    for chunk in range(1, CHUNKS + 1):
        started = time.perf_counter()
        sim.run(until=origin + span * chunk // CHUNKS)
        elapsed = time.perf_counter() - started
        after = host_speed()
        raw_wall += elapsed
        wall += scaled(elapsed, speed, after)
        speed = after
    trace = tracer.snapshot() if tracer is not None else None
    counts = network_counts(run.net)
    counts["coverage"] = run.workload.metrics(run.net)["coverage"]
    counts["index_rebuilds"] = (
        run.net.channel.full_invalidations - run.invalidations_at_build
    )
    counters = {key: counts[key] for key in SINGLE_PINNED}
    if trace is not None:
        trace["counts"] = dict(counts, moves=run.dynamics.stats()["moves"])
    return Episode(setup, wall, counters, raw_setup, raw_wall, trace)


class SlicedWorkerRuns(contextlib.AbstractContextManager):
    """Slice every forked shard worker's run like :func:`single_episode`.

    A sharded run cannot be sliced from the parent, and host speed sampled in
    the idle parent does not track the two busy worker cores (scaling by it
    widened the run-to-run spread of ``sim_x_real``: 8% to 13% per episode,
    20% to 25% per run).  So, for the length of one process-mode run,
    ``Simulator.run(until=...)`` is replaced by a loop of :data:`CHUNKS`
    slices with :func:`host_speed` sampled between them, inside each worker,
    and each worker's stats gain its raw and scaled simulation walls and the
    time the sampling took.  Install before the fork; the event order is
    that of one ``run`` call.
    """

    def __enter__(self):
        run, stats = Simulator.run, ShardWorker.stats
        walls = {"loop_raw_s": 0.0, "loop_scaled_s": 0.0, "sampling_s": 0.0}

        def timed_speed() -> float:
            started = time.perf_counter()
            speed = host_speed()
            walls["sampling_s"] += time.perf_counter() - started
            return speed

        def sliced_run(sim, duration=None, *, until=None, max_events=None):
            if until is None or duration is not None or max_events is not None:
                return run(sim, duration, until=until, max_events=max_events)
            origin, span = sim.now, until - sim.now
            speed = timed_speed()
            for chunk in range(1, CHUNKS + 1):
                started = time.perf_counter()
                run(sim, until=origin + span * chunk // CHUNKS)
                elapsed = time.perf_counter() - started
                after = timed_speed()
                walls["loop_raw_s"] += elapsed
                walls["loop_scaled_s"] += scaled(elapsed, speed, after)
                speed = after

        def worker_stats(worker) -> dict:
            return dict(stats(worker), **walls)

        self._saved = ((Simulator, "run", run), (ShardWorker, "stats", stats))
        Simulator.run = sliced_run
        ShardWorker.stats = worker_stats
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)


def sharded_episode(
    workload: Workload, duration_s: float, seed=None, mode="process", sliced=True
) -> Episode:
    """Partition and drive one sharded deployment.

    ``RunResult.timings['sim_x_real']`` counts the workers' builds (they run
    inside ``ShardedRunner.run``); here the slowest worker's ``build_s`` moves
    into ``setup_s`` with the partitioning done by the constructor, and out
    of the simulation wall.  With ``sliced`` (process mode), the simulation
    wall also drops the slowest worker's host-speed sampling and is scaled
    by that worker's host speed (see :class:`SlicedWorkerRuns`); set-up is
    not scaled.
    """
    sliced = sliced and mode == "process"
    scenario = workload.scenario(duration_s, seed)
    gc.collect()
    started = time.perf_counter()
    runner = ShardedRunner(scenario, mode=mode)
    built = time.perf_counter()
    with SlicedWorkerRuns() if sliced else contextlib.nullcontext():
        result = runner.run()
    finished = time.perf_counter()
    worker_build_s = max(stats["build_s"] for stats in result.per_shard)
    raw_setup = (built - started) + worker_build_s
    raw_wall = (finished - built) - worker_build_s
    wall = raw_wall
    slowest = max(result.per_shard, key=lambda stats: stats.get("loop_raw_s", 0.0))
    if slowest.get("loop_raw_s"):  # sliced, and the clock actually ran
        raw_wall -= slowest["sampling_s"]
        wall = raw_wall * slowest["loop_scaled_s"] / slowest["loop_raw_s"]
    raw = result.counters
    counters = {key: raw[key] for key in SHARDED_PINNED if key in raw}
    counters["receptions"] = raw["frames_received"]
    return Episode(
        raw_setup,
        wall,
        counters,
        raw_setup,
        raw_wall,
        shard={
            "run_wall_s": finished - built,
            "per_shard": list(result.per_shard),
            "supervision": dict(result.supervision),
        },
    )


def run_episode(workload: Workload, duration_s: float, seed=None, tracer=None) -> Episode:
    if workload.sharded:
        # Traced episodes are not sliced: sampling would land in the spans.
        episode = sharded_episode(workload, duration_s, seed, sliced=tracer is None)
        if tracer is not None:
            episode.trace = tracer.merge_workers(episode)
        return episode
    return single_episode(workload, duration_s, seed, tracer)
