"""The one run entry point: ``repro.run(...)`` returning a typed result.

Give it a :class:`~repro.scenarios.spec.Scenario`, a spec dict, a builtin
name, or a JSON path; get back a :class:`RunResult` that separates
*behavior counters* (deterministic for a fixed seed and shard count) from
*timings* (wall-clock pacing, never deterministic).  The bench sweeps build
their scenario-shaped rows from it too.

``shards=1`` builds the scenario and drives its clock in this process
(:meth:`~repro.scenarios.spec.ScenarioRun.run`); ``shards>1`` hands off to
:class:`~repro.shard.runner.ShardedRunner`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.scenarios.spec import Scenario
from repro.shard.runner import TIMING_KEYS, ShardedRunner


@dataclass(frozen=True)
class RunResult:
    """A completed run: behavior counters split from wall-clock timings.

    ``counters`` holds everything deterministic for a fixed ``(seed,
    shards)`` — frames, drops, deliveries, coverage, per-workload metrics.
    ``timings`` holds pacing (build/wall seconds and derived rates).
    ``per_shard`` carries each worker's local stats for sharded runs
    (empty for single-process runs).  ``supervision`` reports runtime
    self-healing and is kept apart from ``counters`` on purpose: a sharded
    run that survived a worker crash produces counters bit-identical to an
    undisturbed run, with only ``supervision`` recording that anything
    happened.  It stays empty unless a worker died; then it holds
    ``restarts``, ``incidents`` (human-readable, one per death) and
    ``recoveries`` (one ``{"shard", "recovery_s"}`` entry per death: wall
    time until the replacement caught back up to the victim's last proven
    round).  A run that exhausted its restart budget instead reports
    ``degraded``/``reason``.
    """

    scenario: str
    seed: int
    shards: int
    counters: dict
    timings: dict
    mode: str = "single"
    per_shard: tuple[dict, ...] = field(default=())
    supervision: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        """The flat dict shape the bench tables and goldens use."""
        return {**self.counters, **self.timings}

    def __getitem__(self, key: str):
        if key in self.counters:
            return self.counters[key]
        return self.timings[key]


def _split_row(row: dict) -> tuple[dict, dict]:
    counters = {k: v for k, v in row.items() if k not in TIMING_KEYS}
    timings = {k: v for k, v in row.items() if k in TIMING_KEYS}
    return counters, timings


def run(
    scenario_or_spec: Scenario | dict | str | Path,
    *,
    seed: int | None = None,
    duration_s: float | None = None,
    shards: int | None = None,
) -> RunResult:
    """Build and drive one experiment; the single public way to run.

    ``scenario_or_spec`` is a :class:`Scenario`, a spec dict, a builtin
    scenario name, or a path to a JSON spec.  ``seed``/``duration_s``/
    ``shards`` override the scenario's own values when given.
    """
    scenario = (
        scenario_or_spec
        if isinstance(scenario_or_spec, Scenario)
        else Scenario.from_spec(scenario_or_spec)
    )
    overrides: dict = {}
    if seed is not None:
        overrides["seed"] = seed
    if duration_s is not None:
        overrides["duration_s"] = duration_s
    if shards is not None:
        overrides["shards"] = shards
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)

    if scenario.shards > 1:
        return ShardedRunner(scenario).run()

    row = scenario.build().run()
    counters, timings = _split_row(row)
    return RunResult(
        scenario=scenario.name,
        seed=scenario.seed,
        shards=1,
        counters=counters,
        timings=timings,
    )
