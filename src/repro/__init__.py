"""repro — a full reproduction of the Agilla mobile-agent middleware for
wireless sensor networks (Fok, Roman, Lu; ICDCS 2005) over a discrete-event
MICA2/TinyOS simulator.

Quickstart::

    from repro import GridTopology, SensorNetwork, assemble

    net = SensorNetwork(GridTopology(5, 5), seed=1)  # + base station at (0,0)
    agent = net.inject(assemble('''
        pushc 1
        pushc 1          // tuple <value:1> on the stack
        pushloc 5 1
        rout             // insert it into (5,1)'s tuple space
        halt
    ''', name="rout-demo"))
    net.run(5.0)
    print(net.tuples_at((5, 1)))

Or declaratively, through the one run entry point::

    import repro

    result = repro.run("static-flood", seed=3, duration_s=30.0)
    print(result.counters["coverage"], result.timings["wall_s"])

Everything in ``__all__`` below is the supported public surface; deep module
paths (``repro.sim.kernel``, ``repro.scenarios.library``, ...) are internal
and may move between releases.
"""

from repro.agilla import (
    Agent,
    AgentState,
    AgillaMiddleware,
    AgillaParams,
    AgillaTuple,
    Program,
    StringField,
    assemble,
    disassemble,
    make_template,
    make_tuple,
)
from repro.apps import (
    blink_agent,
    chaser,
    firedetector,
    firetracker,
    habitat_monitor,
    rout_agent,
    sampler,
    smove_agent,
)
from repro.dynamics import (
    DeploymentDynamics,
    DutyCycle,
    LinearDrift,
    RandomLifetimes,
    RandomWaypoint,
    ScheduledChurn,
    StaticMobility,
    dynamics_from_spec,
)
from repro.location import BASE_STATION_LOCATION, Location
from repro.mote import (
    LIGHT,
    MAGNETOMETER,
    TEMPERATURE,
    Environment,
    FireField,
    HotspotField,
    MovingTargetField,
    waypoint_path,
)
from repro.network import Node, SensorNetwork, build_network
from repro.scenarios import BUILTIN_SCENARIOS, Scenario
from repro.sim import Simulator
from repro.topology import (
    ClusteredTopology,
    ExplicitTopology,
    GridTopology,
    LineTopology,
    RandomUniformTopology,
    Topology,
    from_spec,
)

# The run API and the sharded runtime sit atop the layers above; imported
# last so the package initializes bottom-up without cycles.
from repro.api import RunResult, run
from repro.faults import FaultPlan
from repro.shard import ShardedRunner

__version__ = "2.0.0"

__all__ = [
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
