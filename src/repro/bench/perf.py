"""cProfile over a scenario: ``python -m repro.bench profile [scenario]``.

Runs one declarative scenario under :mod:`cProfile` and writes the top-N
cumulative-time table to ``results/`` (plus stdout), so "where does the time
go at 1000 nodes" is a one-liner instead of folklore.  Timing the simulator
end to end is perfbench's job (``perfbench/run.py``).
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import os
import pstats

from repro.scenarios import Scenario

DEFAULT_PROFILE_SCENARIO = "mobile-flood-400"
DEFAULT_TOP_N = 25


def run_profile(
    scenario_spec: str | dict = DEFAULT_PROFILE_SCENARIO,
    *,
    top_n: int = DEFAULT_TOP_N,
    duration_s: float | None = None,
    out_dir: str | None = "results",
    sort: str = "cumulative",
) -> str:
    """Profile one scenario run; return (and optionally persist) the report.

    ``scenario_spec`` is anything :meth:`Scenario.from_spec` accepts — a
    builtin name, a JSON file path, or a spec dict.  The report contains the
    scenario's headline metrics plus the top ``top_n`` functions by
    cumulative time.
    """
    scenario = Scenario.from_spec(scenario_spec)
    if duration_s is not None:
        scenario = dataclasses.replace(scenario, duration_s=duration_s)
    run = scenario.build()  # deploy outside the profile: we profile the *run*
    profiler = cProfile.Profile()
    profiler.enable()
    result = run.run()
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top_n)
    kernel_stats = run.net.sim.stats()
    lines = [
        f"== profile: scenario {scenario.name!r} "
        f"({result['nodes']} nodes, {scenario.duration_s:.0f} sim s) ==",
        f"events={result['events']}  wall_s={result['wall_s']}  "
        f"events_per_s={result['events_per_s']}  frames={result['frames']}",
        "kernel: "
        + "  ".join(f"{key}={value}" for key, value in kernel_stats.items()),
        # One greppable line naming where the time went: profile diffs in a
        # PR review read this instead of eyeballing two full stats tables.
        "top3: " + _top_functions(stats, 3),
        "",
        buffer.getvalue().rstrip(),
        "",
    ]
    report = "\n".join(lines)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"profile_{scenario.name}.txt")
        with open(path, "w") as handle:
            handle.write(report)
    return report


def _top_functions(stats: pstats.Stats, count: int) -> str:
    """The ``count`` heaviest functions by cumulative time, one summary line.

    Skips the profiler's synthetic ``<built-in ...exec>``-style frames and the
    run loop entry points so the line names actual hot code
    (``module:function cum_s``), comma-separated.
    """
    entries = []
    for func in getattr(stats, "fcn_list", None) or []:
        filename, _lineno, name = func
        if filename.startswith("<") or name in ("run", "run_until_idle", "step"):
            continue
        cumulative = stats.stats[func][3]
        module = os.path.splitext(os.path.basename(filename))[0]
        entries.append(f"{module}:{name} {cumulative:.2f}s")
        if len(entries) == count:
            break
    return ", ".join(entries) if entries else "-"
