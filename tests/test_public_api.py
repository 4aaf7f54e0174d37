"""The public facade: pinned ``__all__`` and the ``run()`` entry point.

``repro.__all__`` is the supported surface — this test pins it exactly so
a rename or removal shows up as a deliberate diff here, not as a silent
break for downstream imports.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import RunResult
from repro.bench.perf import run_profile
from repro.errors import NetworkError

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
    "Node",
    "SensorNetwork",
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


def test_a_run_needs_only_the_standard_library():
    """Importing the package, the shard runtime and the bench CLI and
    running a scenario loads no numpy.  A fresh interpreter, because test
    plugins may load numpy into this one."""
    script = (
        "import sys\n"
        "import repro, repro.shard, repro.bench.cli\n"
        "repro.run('static-flood', duration_s=5.0)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"


def test_run_result_as_row():
    result = repro.run("static-flood", seed=1, duration_s=3.0)
    assert isinstance(result, RunResult)
    # timings are wall-clock and intentionally kept out of counters
    assert "wall_s" in result.timings and "wall_s" not in result.counters
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


@pytest.mark.parametrize(
    "attempt",
    [
        lambda: repro.run("static-flood", shards=0),
        lambda: repro.run("static-flood", shards=-2),
        lambda: repro.run({"topology": {"kind": "grid", "width": 2, "height": 2}, "shards": 0}),
        lambda: repro.run("static-flood", duration_s=-5.0),
        lambda: repro.run("sharded-ribbon", duration_s=-1.0),
        lambda: repro.Scenario(shards=0),
        lambda: run_profile("static-flood", duration_s=-1.0, out_dir=None),
    ],
    ids=[
        "shards-0", "shards-neg", "spec-shards-0", "neg-duration", "sharded-neg-duration",
        "direct", "profile-neg-duration",
    ],
)
def test_bad_run_parameters_are_rejected_up_front(attempt):
    with pytest.raises(NetworkError, match="must be >= "):
        attempt()
