"""Performance tooling: cProfile over a scenario, and the kernel micro-bench.

Two entry points, both reachable from the CLI:

* ``python -m repro.bench profile [scenario]`` — run one declarative scenario
  under :mod:`cProfile` and write the top-N cumulative-time table to
  ``results/`` (plus stdout), so "where does the time go at 1000 nodes" is a
  one-liner instead of folklore.
* ``python -m repro.bench kernel`` — micro-benchmark the event kernel's three
  hot regimes (pure periodic chains, TinyOS stop/restart churn, cancel-heavy
  queues) into ``BENCH_kernel.json``, with the :meth:`Simulator.stats`
  counters (handle reuses, compactions, dead fraction) alongside events/s so
  the allocation-lean machinery is pinned by data, not vibes.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import os
import pstats
import time

from repro.bench.reporting import Table, peak_rss_kb, write_artifact
from repro.scenarios import Scenario
from repro.sim.kernel import Simulator
from repro.sim.units import ms, seconds
from repro.tinyos.timer import Timer

DEFAULT_PROFILE_SCENARIO = "mobile-flood-400"
DEFAULT_TOP_N = 25


# ----------------------------------------------------------------------
# cProfile over a scenario
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Kernel micro-benchmark
# ----------------------------------------------------------------------
DEFAULT_KERNEL_SIM_S = 20.0


def _bench_periodic_chains(timers: int = 1000, sim_s: float = DEFAULT_KERNEL_SIM_S, seed: int = 0) -> dict:
    """Pure periodic load: the handle-reuse fast path, zero churn."""
    sim = Simulator(seed=seed)
    ticks = [0]

    def tick() -> None:
        ticks[0] += 1

    for index in range(timers):
        timer = Timer(sim, tick)
        timer.start_periodic(ms(40) + index)  # staggered so fires spread out
    started = time.perf_counter()
    sim.run(duration=seconds(sim_s))
    wall = time.perf_counter() - started
    return _row("periodic-chains", sim, wall, timers=timers)


def _bench_timer_churn(timers: int = 1000, sim_s: float = DEFAULT_KERNEL_SIM_S, seed: int = 0) -> dict:
    """TinyOS-style stop/restart churn: every fire restarts the timer, and a
    sweeper keeps stopping half of them mid-flight — each stop pins a dead
    handle with a far-future fire time, the regime heap compaction exists
    for."""
    sim = Simulator(seed=seed)
    pool: list[Timer] = []

    def make(index: int):
        def fire() -> None:
            pool[index].start_one_shot(ms(60) + index % 17)

        return fire

    for index in range(timers):
        pool.append(Timer(sim, make(index)))
        pool[index].start_one_shot(ms(10) + index % 29)

    def sweep() -> None:
        # Stop-then-restart half the pool before it can fire: each stop
        # leaves a cancelled handle ~60 ms in the future, so dead entries
        # outnumber live ones within a few sweeps.
        for index in range(0, timers, 2):
            pool[index].stop()
            pool[index].start_one_shot(ms(60) + index % 13)

    sim.every(ms(15), sweep)
    started = time.perf_counter()
    sim.run(duration=seconds(sim_s))
    wall = time.perf_counter() - started
    return _row("timer-churn", sim, wall, timers=timers)


def _bench_cancel_heavy(events: int = 200_000, cancel_every: int = 4, seed: int = 0) -> dict:
    """A large one-shot queue where most events get cancelled before firing."""
    sim = Simulator(seed=seed)
    handles = [
        sim.schedule(1 + (index % 50_000), _nothing) for index in range(events)
    ]
    for index, handle in enumerate(handles):
        if index % cancel_every:  # cancel 3 of every 4
            handle.cancel()
    started = time.perf_counter()
    sim.run_until_idle()
    wall = time.perf_counter() - started
    return _row("cancel-heavy", sim, wall, timers=0)


def _nothing() -> None:
    return None


def _row(case: str, sim: Simulator, wall: float, timers: int) -> dict:
    stats = sim.stats()
    return {
        "case": case,
        "timers": timers,
        "events": stats["events_fired"],
        "wall_s": round(wall, 4),
        "events_per_s": round(stats["events_fired"] / wall) if wall > 0 else 0,
        "handle_reuses": stats["handle_reuses"],
        "compactions": stats["compactions"],
        "peak_rss_kb": peak_rss_kb(),
    }


def run_kernel_bench(
    json_path: str | None = "BENCH_kernel.json",
    *,
    seed: int = 0,
    sim_s: float = DEFAULT_KERNEL_SIM_S,
) -> Table:
    """The kernel micro-benchmark battery; writes ``BENCH_kernel.json``.

    ``sim_s`` scales the timer cases (the cancel case is sized by event
    count, not simulated time); ``seed`` keys the kernel's RNG streams —
    the battery itself draws no randomness, so it only matters for
    forward-compatibility of the harness.
    """
    rows = [
        _bench_periodic_chains(sim_s=sim_s, seed=seed),
        _bench_timer_churn(sim_s=sim_s, seed=seed),
        _bench_cancel_heavy(seed=seed),
    ]
    table = Table(
        "kernel",
        "event-kernel micro-benchmark (periodic chains, churn, cancels)",
        ["case", "events", "wall s", "events/s", "reuses", "compactions"],
    )
    for row in rows:
        table.add_row(
            row["case"],
            row["events"],
            row["wall_s"],
            row["events_per_s"],
            row["handle_reuses"],
            row["compactions"],
        )
    table.add_note(
        "reuses = periodic fires that recycled their EventHandle; compactions "
        "= in-place heap rebuilds triggered by a >50% dead queue"
    )
    write_artifact(table, json_path, rows)
    return table
