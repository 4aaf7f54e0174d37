"""Command-line entry point: regenerate any table/figure from the paper.

Usage::

    python -m repro.bench fig9 --runs 100
    python -m repro.bench all --runs 50 --out results/
    python -m repro.bench shard --nodes 2500,10000 --workers 1,2,4
    python -m repro.bench faults --seed 0 --out results/
    python -m repro.bench profile mobile-flood-400 --top 25
    agilla-bench fig12

Timing the simulator is perfbench's job (``perfbench/run.py``); the fixed-seed
counters of the deployments it times are pinned in ``tests/test_goldens.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench import (
    ablations,
    claims,
    faults,
    figures,
    mate_compare,
    memory_report,
    perf,
    shard,
)
from repro.bench.reporting import Table


def _shared_flags() -> argparse.ArgumentParser:
    """The flags every subcommand accepts, as an argparse parent.

    One definition so ``--seed``/``--out``/``--runs`` mean the same thing
    (and carry the same defaults) under every experiment and under
    ``profile``.  ``--repeat`` is an alias for ``--runs``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--runs",
        "--repeat",
        dest="runs",
        type=int,
        default=100,
        help="timed runs per data point (alias: --repeat)",
    )
    parent.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parent.add_argument(
        "--out", default=None, help="also save tables under this directory"
    )
    return parent


def _fig9_10(args) -> list[Table]:
    data = figures.run_migration_vs_remote(runs=args.runs, seed=args.seed)
    return [figures.fig9_table(data), figures.fig10_table(data)]


def _node_counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated node counts (e.g. 2500,10000): {text!r}"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(f"node counts must be positive: {text!r}")
    return counts


def _json_path(args, name: str) -> str:
    """Where ``BENCH_<name>.json`` goes: under ``--out`` if given, else cwd."""
    return os.path.join(args.out or "", f"BENCH_{name}.json")


def _worker_counts(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated worker counts (e.g. 1,2,4): {text!r}"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(f"worker counts must be positive: {text!r}")
    return counts


# The shard and faults sweeps keep their own duration unless --duration is
# passed.
def _shard(args) -> list[Table]:
    return [
        shard.run_shard_bench(
            node_counts=args.nodes,
            workers=args.workers,
            seed=args.seed,
            duration_s=args.duration if args.duration is not None else shard.DEFAULT_SHARD_SIM_S,
            json_path=_json_path(args, "shard"),
        )
    ]


def _faults(args) -> list[Table]:
    return [
        faults.run_fault_bench(
            seed=args.seed,
            duration_s=args.duration if args.duration is not None else faults.DEFAULT_FAULT_SIM_S,
            json_path=_json_path(args, "faults"),
        )
    ]


def _profile_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="agilla-bench profile",
        description="cProfile one scenario run; write the top-N table to results/.",
        parents=[_shared_flags()],
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default=perf.DEFAULT_PROFILE_SCENARIO,
        help="builtin scenario name or JSON spec path "
        f"(default {perf.DEFAULT_PROFILE_SCENARIO})",
    )
    parser.add_argument(
        "--top", type=int, default=perf.DEFAULT_TOP_N, help="rows of the stats table"
    )
    parser.add_argument(
        "--duration", type=float, default=None, help="override simulated seconds"
    )
    args = parser.parse_args(argv)
    # The shared --out default is None; profile always writes somewhere.
    args.out = args.out or "results"
    print(
        perf.run_profile(
            args.scenario,
            top_n=args.top,
            duration_s=args.duration,
            out_dir=args.out,
        )
    )
    return 0


EXPERIMENTS = {
    "fig5": lambda args: [figures.run_fig5()],
    "fig7": lambda args: [figures.run_fig7()],
    "fig9": _fig9_10,
    "fig10": _fig9_10,
    "fig11": lambda args: [figures.run_fig11(samples=args.runs, seed=args.seed)],
    "fig12": lambda args: [figures.run_fig12(repetitions=max(1, args.runs // 5), seed=args.seed)],
    "memory": lambda args: [memory_report.run_memory(seed=args.seed)],
    "mate": lambda args: [mate_compare.run_mate_comparison(seed=args.seed)],
    "claims": lambda args: [claims.run_claims(runs=args.runs, seed=args.seed)],
    "ablation-e2e": lambda args: [
        ablations.run_ablation_e2e(runs=max(5, args.runs // 3), seed=args.seed)
    ],
    "ablation-retransmit": lambda args: [
        ablations.run_ablation_retransmit(runs=max(5, args.runs // 3), seed=args.seed)
    ],
    "ablation-blocks": lambda args: [ablations.run_ablation_code_blocks()],
    "shard": _shard,
    "faults": _faults,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The profiler takes its own positional and flags, bypassing the shared
    # experiment parser.
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="agilla-bench",
        description="Regenerate the Agilla paper's tables and figures.",
        parents=[_shared_flags()],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--nodes",
        type=_node_counts,
        default=shard.DEFAULT_NODE_COUNTS,
        help="shard sweep: comma-separated node counts (e.g. 2500,10000)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="shard/faults sweeps: simulated seconds per cell "
        "(default: the sweep's own)",
    )
    parser.add_argument(
        "--workers",
        type=_worker_counts,
        default=shard.DEFAULT_WORKERS,
        help="shard sweep: comma-separated worker counts (e.g. 1,2,4)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "all":
        # fig9 emits fig10 too; the shard and faults sweeps are their own,
        # post-paper runs.
        names = sorted(set(EXPERIMENTS) - {"fig10", "shard", "faults"})
    else:
        names = [args.experiment]

    seen: set[str] = set()
    for name in names:
        started = time.time()
        for table in EXPERIMENTS[name](args):
            if table.experiment_id in seen:
                continue
            seen.add(table.experiment_id)
            print(table.render())
            print(f"[{time.time() - started:.1f}s wall]")
            print()
            if args.out:
                table.save(args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
