"""Declarative scenarios: topology × dynamics × workload, runnable from data."""

from repro.scenarios.library import BUILTIN_SCENARIOS
from repro.scenarios.spec import Scenario, ScenarioRun
from repro.scenarios.workloads import (
    CourierWorkload,
    FloodWorkload,
    HabitatWorkload,
    MixedTenantWorkload,
    TrackerPerimeterWorkload,
    Workload,
    workload_from_spec,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "Scenario",
    "ScenarioRun",
    "Workload",
    "CourierWorkload",
    "FloodWorkload",
    "TrackerPerimeterWorkload",
    "HabitatWorkload",
    "MixedTenantWorkload",
    "workload_from_spec",
]
