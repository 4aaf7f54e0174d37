"""Shard benchmark: nodes × workers sweep over a partition-friendly field.

The scenario is the shape the sharded runtime is *for*: dense habitat
islands (100-node clusters) separated by corridors wider than radio range,
so the x-cut snaps between cluster columns and most seams carry little or
nothing.  Beacons run at a 2 s period so the field actually keys the radio
during the short measured window.

Each node count runs once unsharded (``workers=1`` — the classic
single-process path, the speedup baseline) and once per requested worker
count, sharded in process mode; every cell goes through ``repro.run``.
``speedup`` is single-process wall time over the sharded run's wall time.

Honesty note: wall-clock speedup requires physical cores.  Every row
records ``cpus`` (the scheduler-affinity core count); on a 1-core box the
sweep still validates the protocol end-to-end but ``speedup`` hovers near
or below 1× — the committed artifact says so rather than pretending.
"""

from __future__ import annotations

from repro.api import run
from repro.bench.reporting import Table, peak_rss_kb, write_artifact
from repro.scenarios.spec import Scenario
from repro.shard.runner import cpu_count

DEFAULT_NODE_COUNTS = (2_500, 10_000)
DEFAULT_WORKERS = (1, 2, 4)
DEFAULT_SHARD_SIM_S = 5.0


def shard_scenario(nodes: int, seed: int = 0, duration_s: float = DEFAULT_SHARD_SIM_S) -> Scenario:
    """The partition-friendly cell: ``nodes/100`` clusters of 100 motes.

    Cluster centers sit on a coarse grid 20 units (500 m) apart; with a
    ~6-unit Gaussian blob radius the inter-column corridors are ~200 m —
    twice the MICA2 range — so a shard cut lands in dead air.
    """
    clusters = max(1, nodes // 100)
    return Scenario.from_spec(
        {
            "name": f"shard-clusters-{nodes}",
            "topology": {
                "kind": "clustered",
                "clusters": clusters,
                "cluster_size": 100,
                "cluster_spacing": 20,
                "spread": 2.0,
                "radius": 2.5,
                "seed": seed,
            },
            "workload": {"kind": "habitat"},
            "duration_s": duration_s,
            "seed": seed,
            "spacing_m": 25.0,
            "beacon_period_s": 2.0,
        }
    )


def run_cell(nodes: int, workers: int, seed: int, duration_s: float) -> dict:
    """One (nodes, workers) cell.  ``workers=1`` is the unsharded baseline."""
    result = run(shard_scenario(nodes, seed=seed, duration_s=duration_s), shards=workers)
    counters, timings = result.counters, result.timings
    wall_s = timings["wall_s"]
    if result.shards == 1:
        # A sharded wall includes the workers' builds: charge the baseline
        # its build too, so speedup compares like with like.
        wall_s = round(timings["build_s"] + wall_s, 4)
    return {
        "case": f"n{counters['nodes']}-w{workers}",
        "nodes": counters["nodes"],
        "workers": workers,
        "cpus": cpu_count(),
        "sim_s": duration_s,
        "build_s": timings["build_s"],
        "wall_s": wall_s,
        "events": counters["events"],
        "events_per_s": round(counters["events"] / wall_s) if wall_s > 0 else 0,
        "sim_x_real": round(duration_s / wall_s, 1) if wall_s > 0 else 0,
        "frames": counters["frames"],
        "coverage": counters.get("coverage", 0),
        "rounds": counters.get("rounds", 0),
        "ghosts": counters.get("ghosts", 0),
        "peak_rss_kb": peak_rss_kb(),
    }


def run_shard_bench(
    node_counts=DEFAULT_NODE_COUNTS,
    workers=DEFAULT_WORKERS,
    seed: int = 0,
    duration_s: float = DEFAULT_SHARD_SIM_S,
    json_path: str | None = "BENCH_shard.json",
) -> Table:
    """The nodes × workers sweep; writes ``BENCH_shard.json`` unless disabled."""
    table = Table(
        "shard",
        "sharded field runtime: nodes x workers (clustered habitat field)",
        [
            "case",
            "nodes",
            "workers",
            "wall s",
            "speedup",
            "sim_x_real",
            "events",
            "events/s",
            "frames",
            "coverage",
            "rounds",
        ],
    )
    rows = []
    for nodes in node_counts:
        baseline_wall: float | None = None
        for count in workers:
            row = run_cell(nodes, count, seed, duration_s)
            if count <= 1:
                baseline_wall = row["wall_s"]
            speedup = (
                round(baseline_wall / row["wall_s"], 2)
                if baseline_wall and row["wall_s"] > 0
                else 0.0
            )
            row["speedup"] = speedup
            rows.append(row)
            table.add_row(
                row["case"],
                row["nodes"],
                row["workers"],
                row["wall_s"],
                row["speedup"],
                row["sim_x_real"],
                row["events"],
                row["events_per_s"],
                row["frames"],
                row["coverage"],
                row["rounds"],
            )
    table.add_note(
        f"{duration_s:.0f} simulated seconds per cell; speedup is single-process "
        f"wall over sharded wall at the same node count; measured on {cpu_count()} "
        "usable core(s) — near-linear speedup needs >= workers physical cores"
    )
    write_artifact(
        table, json_path, rows, seed=seed, duration_s=duration_s, cpus=cpu_count()
    )
    return table
