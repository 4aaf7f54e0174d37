"""Fixed-seed goldens: the behaviour counters of the reference deployments.

Each cell is a spec written out as data and run through ``repro.run``; its
``counters`` must equal the pinned values exactly.  Timings never appear
here: perfbench (``perfbench/run.py``) times the simulator.  Four families
of cells are pinned:

* the fire-detector flood over four field kinds × 25/100/400/1000 nodes,
  60 simulated seconds each (the dense 400-node cell is perfbench's
  ``flood-dense`` field);
* the builtin scenario battery, run by name (``mobile-flood-400`` is
  perfbench's ``flood-mobile`` field);
* three event-kernel loads: periodic chains, stop/restart churn and a
  cancel-heavy queue;
* the 2,500-node habitat field of ``bench shard`` at 1, 2 and 4 workers
  (the 2-worker cell is perfbench's ``habitat-sharded`` field).

The values are the rows these runs recorded when they were timing sweeps,
re-run unchanged since.  The 25/100-node cells and the small builtins run
in tier-1; the 400/1000-node cells, ``mobile-flood-400``, the full-size
kernel loads and the sharded cells are slow.  If a golden moves, behaviour
changed: frames and collisions come from the channel, and an
``events``-only move means event accounting changed.
"""

import pytest

import repro
from repro.bench.shard import shard_scenario
from repro.scenarios import BUILTIN_SCENARIOS, Scenario
from repro.sim.kernel import Simulator
from repro.sim.units import ms, seconds
from repro.tinyos.timer import Timer

# ---------------------------------------------------------------------------
# the flood over four field kinds

#: Physical spacing per field kind: one hop comfortably inside the MICA2's
#: 100 m range, except ``dense``, a grid packed so tight (22 m) that every
#: transmitter reaches ~60 hearers.
SPACING_M = {"grid": 60.0, "random": 45.0, "clustered": 40.0, "dense": 22.0}

#: Counters that read 0 (or ``False``) on every flood cell: nothing moves,
#: fails or duty-cycles, and the hearer index is never rebuilt.
NO_DYNAMICS = {
    "adaptive": False,
    "index_moves": 0,
    "index_rebuilds": 0,
    "mobile_nodes": 0,
    "moves": 0,
    "fails": 0,
    "recoveries": 0,
    "departures": 0,
    "radio_toggles": 0,
    "duty_evaluations": 0,
}


def _grid(width, height):
    return {"kind": "grid", "width": width, "height": height}


def _random(count):
    return {"kind": "random", "count": count, "seed": 0}


def _clustered(clusters):
    return {"kind": "clustered", "clusters": clusters, "cluster_size": 25, "seed": 0}


def _cell(kind, nodes, topology, events, frames, coverage, collisions, mac_giveups):
    marks = pytest.mark.slow if nodes > 100 else ()
    golden = {
        "nodes": nodes,
        "events": events,
        "frames": frames,
        "coverage": coverage,
        "collisions": collisions,
        "mac_giveups": mac_giveups,
    }
    return pytest.param(kind, topology, golden, id=f"{kind}-{nodes}", marks=marks)


FLOOD_CELLS = [
    # kind, nodes, topology, events, frames, coverage, collisions, mac_giveups
    _cell("grid", 25, _grid(5, 5), 21175, 4151, 25, 5762, 12),
    _cell("grid", 100, _grid(10, 10), 66008, 12771, 97, 25982, 27),
    _cell("grid", 400, _grid(20, 20), 81399, 14524, 121, 26821, 43),
    _cell("grid", 1000, _grid(25, 40), 84889, 14585, 93, 19022, 30),
    _cell("random", 25, _random(25), 17755, 3706, 25, 2375, 3),
    _cell("random", 100, _random(100), 64813, 12062, 88, 15813, 42),
    _cell("random", 400, _random(400), 206083, 37137, 275, 51182, 137),
    _cell("random", 1000, _random(1000), 122557, 19694, 139, 24107, 62),
    _cell("clustered", 25, _clustered(1), 26417, 4112, 21, 10638, 78),
    _cell("clustered", 100, _clustered(4), 79163, 11919, 74, 51020, 206),
    _cell("clustered", 400, _clustered(16), 103484, 13307, 82, 52355, 236),
    _cell("clustered", 1000, _clustered(40), 178598, 19995, 105, 73514, 332),
    _cell("dense", 25, _grid(5, 5), 18903, 2116, 14, 645, 173),
    _cell("dense", 100, _grid(10, 10), 24206, 2712, 19, 12186, 205),
    _cell("dense", 400, _grid(20, 20), 34375, 4351, 15, 17663, 186),
    _cell("dense", 1000, _grid(25, 40), 56839, 7674, 18, 40034, 208),
]


def flood_spec(kind, topology):
    """A flood cell: the fire detector clones outward from the field's hub
    while 10 s beacons run, for 60 simulated seconds at seed 0."""
    return {
        "name": f"flood-{kind}",
        "topology": topology,
        "workload": {"kind": "flood"},
        "duration_s": 60.0,
        "seed": 0,
        "spacing_m": SPACING_M[kind],
    }


@pytest.mark.parametrize("kind, topology, golden", FLOOD_CELLS)
def test_flood_cell(kind, topology, golden):
    result = repro.run(flood_spec(kind, topology))
    expected = {"scenario": f"flood-{kind}", "sim_s": 60.0, **NO_DYNAMICS, **golden}
    assert result.counters == expected


def test_static_flood_is_the_grid_100_cell():
    # So the grid-100 cell pins the static-flood builtin too.
    spec = flood_spec("grid", _grid(10, 10))
    assert BUILTIN_SCENARIOS["static-flood"] == dict(spec, name="static-flood")


# ---------------------------------------------------------------------------
# the builtin battery

BUILTIN_GOLDENS = {
    "mobile-tracker": {
        "adaptive": False, "nodes": 64, "sim_s": 60.0,
        "events": 53087, "frames": 544, "collisions": 42, "mac_giveups": 0,
        "index_moves": 958, "index_rebuilds": 0, "mobile_nodes": 16, "moves": 958,
        "fails": 0, "recoveries": 0, "departures": 0,
        "radio_toggles": 0, "duty_evaluations": 0,
        "coverage": 64, "samplers_alive": 64, "chaser_alive": 1, "chaser_at": "(3,2)",
    },
    "churn-habitat": {
        "adaptive": False, "nodes": 100, "sim_s": 60.0,
        "events": 22973, "frames": 438, "collisions": 44, "mac_giveups": 0,
        "index_moves": 0, "index_rebuilds": 0, "mobile_nodes": 0, "moves": 0,
        "fails": 142, "recoveries": 122, "departures": 0,
        "radio_toggles": 264, "duty_evaluations": 0,
        "coverage": 100, "monitors_alive": 100,
    },
    "mixed-tenant": {
        "adaptive": False, "nodes": 49, "sim_s": 60.0,
        "events": 33912, "frames": 3788, "collisions": 2397, "mac_giveups": 0,
        "index_moves": 0, "index_rebuilds": 0, "mobile_nodes": 0, "moves": 0,
        "fails": 0, "recoveries": 0, "departures": 0,
        "radio_toggles": 1474, "duty_evaluations": 1512,
        "coverage": 49, "habitat_samples": 49, "monitors_alive": 48,
        "monitors_freed": 1, "fire_alerts": 1,
    },
    "mobile-flood-400": {
        "adaptive": False, "nodes": 400, "sim_s": 60.0,
        "events": 107663, "frames": 19360, "collisions": 29409, "mac_giveups": 67,
        "index_moves": 2399, "index_rebuilds": 0, "mobile_nodes": 40, "moves": 2399,
        "fails": 0, "recoveries": 0, "departures": 0,
        "radio_toggles": 0, "duty_evaluations": 0,
        "coverage": 169,
    },
    # The adaptivity ablation: the two specs differ only in ``adaptive``.
    "partition-heal": {
        "adaptive": True, "nodes": 36, "sim_s": 90.0,
        "events": 16550, "frames": 1890, "collisions": 1296, "mac_giveups": 0,
        "index_moves": 1050, "index_rebuilds": 0, "mobile_nodes": 12, "moves": 1062,
        "fails": 1, "recoveries": 1, "departures": 0,
        "radio_toggles": 2, "duty_evaluations": 0,
        "geo_sent": 135, "geo_delivered": 37, "geo_misdelivered": 0, "geo_no_route": 0,
        "delivery_ratio": 0.2741,
    },
    "partition-heal-frozen": {
        "adaptive": False, "nodes": 36, "sim_s": 90.0,
        "events": 9734, "frames": 1876, "collisions": 982, "mac_giveups": 0,
        "index_moves": 1050, "index_rebuilds": 0, "mobile_nodes": 12, "moves": 1062,
        "fails": 1, "recoveries": 1, "departures": 0,
        "radio_toggles": 2, "duty_evaluations": 0,
        "geo_sent": 135, "geo_delivered": 9, "geo_misdelivered": 0, "geo_no_route": 45,
        "delivery_ratio": 0.0667,
    },
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow if name == "mobile-flood-400" else ())
        for name in BUILTIN_GOLDENS
    ],
)
def test_builtin_scenario(name):
    result = repro.run(name)
    assert result.counters == {"scenario": name, **BUILTIN_GOLDENS[name]}


# ---------------------------------------------------------------------------
# the event-kernel loads


def periodic_chains(timers=1000, sim_s=20.0):
    """Pure periodic load: every fire recycles its handle, zero churn."""
    sim = Simulator(seed=0)
    for index in range(timers):
        Timer(sim, _nothing).start_periodic(ms(40) + index)  # staggered fires
    sim.run(duration=seconds(sim_s))
    return sim


def timer_churn(timers=1000, sim_s=20.0):
    """TinyOS-style stop/restart churn: every fire restarts its timer, and a
    sweeper stops and restarts half of them mid-flight, so each stop leaves a
    dead handle ~60 ms ahead: the regime heap compaction exists for."""
    sim = Simulator(seed=0)
    pool = []

    def make(index):
        def fire():
            pool[index].start_one_shot(ms(60) + index % 17)

        return fire

    for index in range(timers):
        pool.append(Timer(sim, make(index)))
        pool[index].start_one_shot(ms(10) + index % 29)

    def sweep():
        for index in range(0, timers, 2):
            pool[index].stop()
            pool[index].start_one_shot(ms(60) + index % 13)

    sim.every(ms(15), sweep)
    sim.run(duration=seconds(sim_s))
    return sim


def cancel_heavy(events=200_000, cancel_every=4):
    """A large one-shot queue where 3 of every 4 events are cancelled."""
    sim = Simulator(seed=0)
    handles = [sim.schedule(1 + index % 50_000, _nothing) for index in range(events)]
    for index, handle in enumerate(handles):
        if index % cancel_every:
            handle.cancel()
    sim.run_until_idle()
    return sim


def _nothing():
    return None


KERNEL_GOLDENS = {
    periodic_chains: {"events_fired": 493353, "handle_reuses": 493353, "compactions": 0},
    timer_churn: {"events_fired": 168833, "handle_reuses": 168833, "compactions": 665},
    cancel_heavy: {"events_fired": 50000, "handle_reuses": 0, "compactions": 1},
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "load", list(KERNEL_GOLDENS), ids=[load.__name__ for load in KERNEL_GOLDENS]
)
def test_kernel_load(load):
    stats = load().stats()
    golden = KERNEL_GOLDENS[load]
    assert {key: stats[key] for key in golden} == golden


# ---------------------------------------------------------------------------
# the sharded habitat field

#: 25 habitat islands of 100 motes, 500 m apart, so the corridors between
#: cluster columns are wider than radio range; 2 s beacons for 5 sim-s.
SHARD_FIELD = {
    "name": "shard-clusters-2500",
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
    "duration_s": 5.0,
    "seed": 0,
    "spacing_m": 25.0,
    "beacon_period_s": 2.0,
}

SHARD_GOLDENS = {
    # workers: events, frames, protocol rounds, ghosts.  Each shard draws its
    # own channel stream, so the counters differ by worker count.
    1: (113852, 5055, 0, 0),
    2: (113718, 5046, 4, 0),
    4: (116135, 5064, 6999, 392),
}


def test_shard_field_is_the_bench_cell():
    assert Scenario.from_spec(SHARD_FIELD) == shard_scenario(2500)


@pytest.mark.slow
@pytest.mark.parametrize("workers", list(SHARD_GOLDENS), ids=lambda w: f"n2500-w{w}")
def test_shard_cell(workers):
    counters = repro.run(SHARD_FIELD, shards=workers).counters
    events, frames, rounds, ghosts = SHARD_GOLDENS[workers]
    pinned = ("nodes", "events", "frames", "coverage", "rounds", "ghosts")
    assert {key: counters.get(key, 0) for key in pinned} == {
        "nodes": 2500,
        "events": events,
        "frames": frames,
        "coverage": 2500,
        "rounds": rounds,
        "ghosts": ghosts,
    }
