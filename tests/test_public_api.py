"""The public facade: pinned ``__all__``, run() parity, deprecations.

``repro.__all__`` is the supported surface — this test pins it exactly so
a rename or removal shows up as a deliberate diff here, not as a silent
break for downstream imports.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import RunResult

EXPECTED_ALL = [
    "Agent",
    "AgentState",
    "AgillaMiddleware",
    "AgillaParams",
    "AgillaTuple",
    "Program",
    "StringField",
    "assemble",
    "disassemble",
    "make_template",
    "make_tuple",
    "blink_agent",
    "chaser",
    "firedetector",
    "firetracker",
    "habitat_monitor",
    "rout_agent",
    "sampler",
    "smove_agent",
    "BASE_STATION_LOCATION",
    "Location",
    "Environment",
    "FireField",
    "HotspotField",
    "MovingTargetField",
    "waypoint_path",
    "LIGHT",
    "MAGNETOMETER",
    "TEMPERATURE",
    "Deployment",
    "GridNetwork",
    "Node",
    "SensorNetwork",
    "build_grid_network",
    "build_network",
    "DeploymentDynamics",
    "DutyCycle",
    "StaticMobility",
    "LinearDrift",
    "RandomWaypoint",
    "ScheduledChurn",
    "RandomLifetimes",
    "dynamics_from_spec",
    "Scenario",
    "BUILTIN_SCENARIOS",
    "Simulator",
    "Topology",
    "GridTopology",
    "LineTopology",
    "RandomUniformTopology",
    "ClusteredTopology",
    "ExplicitTopology",
    "from_spec",
    "RunResult",
    "run",
    "ShardedRunner",
    "FaultPlan",
    "__version__",
]


def test_all_is_pinned_exactly():
    assert list(repro.__all__) == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_grid_network_is_deprecated_but_equivalent():
    with pytest.warns(DeprecationWarning, match="SensorNetwork"):
        old = repro.GridNetwork(3, 3, seed=5)
    new = repro.SensorNetwork(repro.GridTopology(3, 3), seed=5)
    old.run(12.0)  # past the first beacon round so the radio actually keys
    new.run(12.0)
    assert old.radio_messages() == new.radio_messages()
    assert old.radio_bytes() == new.radio_bytes()
    assert old.channel.collisions == new.channel.collisions


def test_run_matches_legacy_scenario_path_bit_for_bit():
    result = repro.run("static-flood", seed=3, duration_s=5.0)
    assert isinstance(result, RunResult)
    import dataclasses

    legacy = dataclasses.replace(
        repro.Scenario.from_spec("static-flood"), seed=3, duration_s=5.0
    ).run()
    for key, value in result.counters.items():
        assert legacy[key] == value, key
    # timings are wall-clock and intentionally kept out of counters
    assert "wall_s" in result.timings and "wall_s" not in result.counters


def test_run_result_as_row():
    result = repro.run("static-flood", seed=1, duration_s=3.0)
    row = result.as_row()
    assert set(row) == set(result.counters) | set(result.timings)
    assert result["nodes"] == result.counters["nodes"]


def test_run_sharded_entry_point():
    result = repro.run(
        {
            "name": "api-shard",
            "topology": {"kind": "grid", "width": 6, "height": 2},
            "workload": {"kind": "flood"},
            "duration_s": 1.0,
            "seed": 0,
            "spacing_m": 60.0,
        },
        shards=2,
    )
    assert result.mode == "process"
    assert result.shards == 2
    assert len(result.per_shard) == 2
