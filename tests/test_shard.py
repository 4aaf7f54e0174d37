"""Sharded field runtime: partition geometry, the parity contract, validation.

The load-bearing test here is inline-vs-multiprocess parity: the inline
driver runs every shard in one process through the *same* grant/replay
protocol the fork workers use, so equal counters prove the multiprocess
path adds no behavior — only parallelism.
"""

from __future__ import annotations

import pytest

from repro.api import run
from repro.errors import NetworkError
from repro.scenarios.spec import Scenario
from repro.shard import ShardedRunner, partition_topology
from repro.shard.partition import PartitionError
from repro.shard.worker import ShardWorker
from repro.topology import ClusteredTopology, GridTopology

SEAM_SPEC = {
    "name": "seam-flood",
    "topology": {"kind": "grid", "width": 8, "height": 3},
    "workload": {"kind": "flood"},
    "duration_s": 2.0,
    "seed": 0,
    "spacing_m": 60.0,
    "shards": 2,
}


def _counters(result):
    """The behavior counters (everything timing-dependent stripped)."""
    drop = {"build_s", "wall_s", "events_per_s", "frames_per_s", "sim_x_real"}
    return {k: v for k, v in result.counters.items() if k not in drop}


# ---------------------------------------------------------------------------
# partitioning


def test_partition_covers_and_balances():
    topo = GridTopology(10, 4)
    part = partition_topology(topo, 2, spacing_m=60.0)
    sizes = [len(r) for r in part.regions]
    assert sum(sizes) == 40
    assert sizes == [20, 20]
    # every mote lands in exactly one region
    all_ids = [m for r in part.regions for m in r.mote_ids]
    assert len(all_ids) == len(set(all_ids)) == 40


def test_partition_is_deterministic():
    topo = ClusteredTopology(clusters=4, cluster_size=25, seed=3)
    a = partition_topology(topo, 4, spacing_m=40.0)
    b = partition_topology(topo, 4, spacing_m=40.0)
    assert [r.locations for r in a.regions] == [r.locations for r in b.regions]
    assert a.ghosts == b.ghosts


def test_ghosts_are_symmetric_and_audible():
    topo = GridTopology(8, 3)
    part = partition_topology(topo, 2, spacing_m=60.0)
    # a seam between adjacent 60 m columns must mirror motes both ways
    assert part.ghosts[0] and part.ghosts[1]
    assert 1 in part.seam_neighbors(0) and 0 in part.seam_neighbors(1)
    # mirrored ids keep their *global* identity
    for ghosts in part.ghosts.values():
        for entries in ghosts.values():
            for mote_id, loc in entries:
                assert part.topology.mote_id(loc) == mote_id


def test_region_topology_preserves_global_ids():
    topo = GridTopology(6, 2)
    part = partition_topology(topo, 2, spacing_m=60.0)
    base_dir = topo.directory()
    for region in part.regions:
        from repro.shard.partition import RegionTopology

        sub = RegionTopology(topo, region)
        for loc, mote_id in sub.directory().items():
            assert base_dir[loc] == mote_id


def test_partition_rejects_degenerate_requests():
    topo = GridTopology(2, 2)
    with pytest.raises(PartitionError):
        partition_topology(topo, 8, spacing_m=60.0)


# ---------------------------------------------------------------------------
# parity: inline == multiprocess, run-to-run stable


def test_inline_matches_multiprocess_bit_for_bit():
    scenario = Scenario.from_spec(SEAM_SPEC)
    inline = ShardedRunner(scenario, mode="inline").run()
    proc = ShardedRunner(scenario, mode="process").run()
    assert _counters(inline) == _counters(proc)
    # frames crossed the seams and the flood is spreading
    assert inline.counters["envelopes_in"] > 0
    assert inline.counters["coverage"] > 0


def test_sharded_run_is_stable_run_to_run():
    scenario = Scenario.from_spec(SEAM_SPEC)
    first = ShardedRunner(scenario, mode="inline").run()
    second = ShardedRunner(scenario, mode="inline").run()
    assert _counters(first) == _counters(second)


#: Behaviour counters of an inline ``sharded-ribbon`` run at its default
#: 8 sim-s.  Parity and stability cannot see a fault that moves inline and
#: forked runs alike; a fixed golden can.
RIBBON_GOLDEN = {
    "events": 2135,
    "frames": 382,
    "ghost_frames": 71,
    "frames_received": 1913,
    "collisions": 451,
    "prr_drops": 161,
    "mac_giveups": 1,
    "rounds": 3752,
    "envelopes_out": 71,
    "envelopes_in": 71,
    "coverage": 8,
}


def test_sharded_ribbon_counters_match_the_golden():
    scenario = Scenario.from_spec("sharded-ribbon")
    assert scenario.duration_s == 8.0
    counters = _counters(ShardedRunner(scenario, mode="inline").run())
    assert {key: counters[key] for key in RIBBON_GOLDEN} == RIBBON_GOLDEN


def test_forked_run_keeps_the_shared_heap_out_of_collections(monkeypatch):
    """Workers fork with the heap frozen, and it thaws when the run ends: a
    collection that walked the pages a worker shares with the supervisor
    would copy them all, stalling either side past a 0.3 s hang deadline
    when the caller's heap is large (a full test session's is).  Each worker
    then builds with the collector paused and freezes what it built, so its
    frozen set outgrows the heap it inherited, and it runs collecting as
    usual."""
    import gc

    from repro.shard.runner import _Supervisor

    frozen_at_fork = {}
    spawn = _Supervisor._spawn

    def recording_spawn(supervisor, index, *args):
        handle = spawn(supervisor, index, *args)
        frozen_at_fork[index] = gc.get_freeze_count()
        return handle

    run, stats = ShardWorker.run, ShardWorker.stats

    def recording_run(worker, *args, **kwargs):
        worker.collecting = gc.isenabled()
        return run(worker, *args, **kwargs)

    monkeypatch.setattr(_Supervisor, "_spawn", recording_spawn)
    monkeypatch.setattr(ShardWorker, "run", recording_run)
    monkeypatch.setattr(
        ShardWorker,
        "stats",
        lambda worker: dict(
            stats(worker), collecting=worker.collecting, frozen=gc.get_freeze_count()
        ),
    )
    result = ShardedRunner(Scenario.from_spec(SEAM_SPEC)).run()
    for shard in result.per_shard:
        assert shard["collecting"] is True
        assert shard["frozen"] > frozen_at_fork[shard["shard"]] > 0
    assert gc.get_freeze_count() == 0


def test_forked_worker_reports_a_failed_build(monkeypatch):
    import gc
    import multiprocessing

    from repro.shard.runner import _process_main

    def failing_build(worker, *args, **kwargs):
        raise RuntimeError("region build failed")

    monkeypatch.setattr(ShardWorker, "__init__", failing_build)
    runner = ShardedRunner(Scenario.from_spec(SEAM_SPEC))
    with pytest.raises(NetworkError, match="region build failed"):
        runner.run()
    assert gc.get_freeze_count() == 0
    # The same entry point run in this process: the error reaches the pipe,
    # and the collector is back on, as it was found.
    parent, child = multiprocessing.Pipe()
    try:
        _process_main(runner.scenario, runner.partition, 0, child, 0, None, None)
        kind, report = parent.recv()
    finally:
        parent.close()
    assert kind == "error" and "region build failed" in report
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_scenario_run_delegates_to_sharded_runner():
    via_run = run(SEAM_SPEC)
    direct = ShardedRunner(Scenario.from_spec(SEAM_SPEC)).run()
    assert via_run.mode == "process" and via_run.shards == 2
    assert _counters(via_run) == _counters(direct)


# ---------------------------------------------------------------------------
# validation: what can't shard says so


def _reject(spec_overrides: dict, match: str):
    spec = dict(SEAM_SPEC, **spec_overrides)
    with pytest.raises(NetworkError, match=match):
        ShardedRunner(Scenario.from_spec(spec)).run()


def test_rejects_mobility():
    _reject(
        {
            "dynamics": {
                "mobility": {"model": "random_waypoint", "speed": [0.5, 2.0], "pause_s": 1.0},
                "mobile_fraction": 0.25,
                "tick_s": 1.0,
            }
        },
        "mobility",
    )


def test_rejects_adaptive_and_physical():
    _reject({"adaptive": True}, "adaptive")
    _reject({"physical": True}, "physical")


def test_rejects_non_shard_safe_workload():
    _reject({"workload": {"kind": "tracker"}}, "workload")


# ---------------------------------------------------------------------------
# the CI parity battery (slow): both builtin sharded scenarios at 4 shards


@pytest.mark.slow
@pytest.mark.parametrize("name", ["sharded-ribbon", "sharded-clusters"])
def test_builtin_sharded_scenarios_parity(name):
    scenario = Scenario.from_spec(name)
    assert scenario.shards == 4
    inline = ShardedRunner(scenario, mode="inline").run()
    proc = ShardedRunner(scenario, mode="process").run()
    assert _counters(inline) == _counters(proc)
    assert inline.counters["coverage"] > 0


# ---------------------------------------------------------------------------
# lookahead: the grant never passes an armed boundary carrier sense


def test_horizon_never_passes_an_armed_boundary_carrier_sense():
    """An armed carrier sense of a boundary mote can start a seam frame at
    its own fire time, so every grant must stop at or before it.  Drive
    the inline protocol round by round, as ``ShardedRunner._run_inline``
    does, and check each worker's horizon before it posts."""
    scenario = Scenario.from_spec(SEAM_SPEC)
    runner = ShardedRunner(scenario, mode="inline")
    links = runner._links()
    workers = [
        ShardWorker(scenario, runner.partition, i, links[i]) for i in range(runner.shards)
    ]
    armed = 0
    active = list(workers)
    while active:
        for worker in active:
            horizon = worker.horizon()
            for radio in worker._boundary_radios:
                pending = radio._pending_carrier_sense
                if pending is not None:
                    assert horizon <= pending.time
                    armed += 1
            worker.post_rounds()
        active = [w for w in active if not w.finished]
        for worker in active:
            worker.collect_rounds()
            worker.advance()
    assert armed > 0
