"""Scenario benchmark: sweep declarative scenarios and write BENCH_scenarios.json.

Where the scale sweep varies *shape* under one fixed workload, this sweep
varies the whole experiment: topology × dynamics (mobility, churn, duty
cycling) × workload, each cell one :class:`repro.scenarios.Scenario`.  Beyond
throughput it reports what the dynamics subsystem actually did (moves, fails,
recoveries) and — the honesty check — ``index_rebuilds``: how many times the
radio channel's hearer index was rebuilt from scratch *during* the run.  With
incremental re-keying that number is 0 even for the 400-node mobile cell;
any regression to invalidate-on-move shows up here immediately.
"""

from __future__ import annotations

from repro.api import run
from repro.bench.reporting import Table, peak_rss_kb, write_artifact
from repro.scenarios import BUILTIN_SCENARIOS, DEFAULT_SCENARIOS


def run_one(spec: dict | str, seed: int | None = None, duration_s: float | None = None) -> dict:
    """Run a single scenario spec (dict or builtin name), with overrides."""
    row = run(spec, seed=seed, duration_s=duration_s).as_row()
    # Process-wide high-water mark at row end (monotonic within a sweep).
    row["peak_rss_kb"] = peak_rss_kb()
    return row


def run_scenarios(
    scenarios=DEFAULT_SCENARIOS,
    seed: int | None = None,
    duration_s: float | None = None,
    json_path: str | None = "BENCH_scenarios.json",
) -> Table:
    """Sweep ``scenarios`` (builtin names or spec dicts) into one table.

    ``seed`` and ``duration_s`` override every spec when given (for quick
    smoke runs); by default each scenario uses its own declared values.
    """
    table = Table(
        "scenarios",
        "declarative scenario sweep (topology x dynamics x workload)",
        [
            "scenario",
            "nodes",
            "wall s",
            "events",
            "frames",
            "moves",
            "fails",
            "recoveries",
            "rebuilds",
            "coverage",
            "delivery",
            "peak KB",
        ],
    )
    rows = []
    for entry in scenarios:
        result = run_one(entry, seed=seed, duration_s=duration_s)
        rows.append(result)
        table.add_row(
            result["scenario"],
            result["nodes"],
            result["wall_s"],
            result["events"],
            result["frames"],
            result["moves"],
            result["fails"],
            result["recoveries"],
            # Sharded rows carry no hearer-index counters.
            result.get("index_rebuilds", "-"),
            result.get("coverage", "-"),
            result.get("delivery_ratio", "-"),
            result["peak_rss_kb"],
        )
    table.add_note(
        "rebuilds = full hearer-index invalidations during the run; 0 means every "
        "move/failure was absorbed incrementally (O(degree) per event)"
    )
    table.add_note(
        "delivery = courier delivery ratio (geo-routed end-to-end); compare the "
        "partition-heal row (adaptive neighborhoods) against partition-heal-frozen "
        "(deploy-time snapshot) for the mobility ablation"
    )
    table.add_note(
        "builtins: " + ", ".join(sorted(BUILTIN_SCENARIOS))
    )
    write_artifact(table, json_path, rows, seed=seed, duration_s=duration_s)
    return table
