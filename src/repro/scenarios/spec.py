"""Declarative scenarios: topology × dynamics × workload as one runnable spec.

A :class:`Scenario` composes everything a dynamic-deployment experiment needs
— a topology spec (``repro.topology.from_spec``), a dynamics spec
(``repro.dynamics.dynamics_from_spec``), and a workload spec
(``repro.scenarios.workloads``) — into a single dict/JSON-loadable object::

    {"name": "mobile-tracker",
     "topology": {"kind": "grid", "width": 8, "height": 8},
     "workload": {"kind": "tracker"},
     "dynamics": {"mobility": {"model": "random_waypoint"},
                  "mobile_fraction": 0.25},
     "duration_s": 60.0, "seed": 0, "spacing_m": 60.0}

``Scenario.from_spec`` accepts a dict, a JSON file path, or a built-in name
from :data:`repro.scenarios.library.BUILTIN_SCENARIOS`.  :meth:`Scenario.build`
deploys it and :meth:`ScenarioRun.run` drives the clock, returning a flat
metrics dict.  ``repro.run`` is the one way to run a scenario end to end,
single-process or sharded; ``build`` is for callers that read the live
network.

A scenario with no ``dynamics`` section schedules nothing extra, so static
scenarios reproduce plain :class:`~repro.network.SensorNetwork` runs
bit-for-bit — the golden tests pin that equivalence.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dynamics import DeploymentDynamics, dynamics_from_spec
from repro.errors import NetworkError
from repro.net.beacons import DEFAULT_EXPIRY_INTERVALS
from repro.network import SensorNetwork
from repro.scenarios.workloads import Workload, workload_from_spec
from repro.sim.units import seconds
from repro.topology import Topology, from_spec as topology_from_spec

_SCENARIO_KEYS = frozenset(
    {
        "name",
        "topology",
        "workload",
        "dynamics",
        "duration_s",
        "seed",
        "spacing_m",
        "base_station",
        "physical",
        "beacons",
        "adaptive",
        "expiry_intervals",
        "beacon_period_s",
        "shards",
        "faults",
    }
)


@dataclass
class ScenarioRun:
    """A deployed scenario, ready to drive: network + dynamics + workload."""

    scenario: "Scenario"
    topology: Topology
    net: SensorNetwork
    dynamics: DeploymentDynamics
    workload: Workload
    build_s: float
    #: Channel full-invalidation count right after the build; anything above
    #: this during the run means the hearer index was rebuilt mid-flight.
    invalidations_at_build: int
    #: Installed fault injector, or ``None`` for a fault-free deployment
    #: (``None`` guarantees zero scheduling/RNG footprint — the bit-parity
    #: contract with builds that predate the faults subsystem).
    injector: object | None = None

    def run(self) -> dict:
        """Drive the clock for the scenario's duration and report metrics."""
        net = self.net
        started = time.perf_counter()
        net.run(self.scenario.duration_s)
        wall_s = time.perf_counter() - started
        channel = net.channel
        result = {
            "scenario": self.scenario.name,
            "adaptive": self.scenario.adaptive,
            "nodes": len(self.topology),
            "sim_s": self.scenario.duration_s,
            "build_s": round(self.build_s, 4),
            "wall_s": round(wall_s, 4),
            "events": net.sim.events_fired,
            "events_per_s": round(net.sim.events_fired / wall_s) if wall_s > 0 else 0,
            # Simulated seconds per wall second: comparable across changes to
            # what counts as "an event" (the run-slice engine fires O(slices),
            # not O(instructions)), where events/s is not.
            "sim_x_real": round(self.scenario.duration_s / wall_s, 1) if wall_s > 0 else 0,
            "frames": net.radio_messages(),
            "frames_per_s": round(net.radio_messages() / wall_s, 1) if wall_s > 0 else 0,
            "collisions": channel.collisions,
            "mac_giveups": channel.mac_giveups,
            "index_moves": channel.index_moves,
            "index_rebuilds": channel.full_invalidations - self.invalidations_at_build,
        }
        result.update(self.dynamics.stats())
        if self.injector is not None:
            result.update(self.injector.stats())
        result.update(self.workload.metrics(net))
        return result


@dataclass
class Scenario:
    """One declarative experiment: deploy, perturb, load, measure."""

    name: str = "scenario"
    topology: dict = field(default_factory=lambda: {"kind": "grid", "width": 5, "height": 5})
    workload: dict | str | None = None
    dynamics: dict | None = None
    duration_s: float = 60.0
    seed: int = 0
    spacing_m: float = 60.0
    base_station: bool = False
    physical: bool = False
    beacons: bool = True
    #: Adaptive neighborhoods: live receive filters, localization under
    #: mobility, wake re-announcements, churn context tuples.  Off keeps the
    #: deployment frozen at build time, bit-for-bit like the PR 3 goldens.
    adaptive: bool = False
    #: Missed beacon intervals before a silent neighbor is evicted (``k``).
    expiry_intervals: int = DEFAULT_EXPIRY_INTERVALS
    beacon_period_s: float = 10.0
    #: Spatial shards: 1 runs the classic single simulator; >1 partitions the
    #: field into regions driven by :class:`repro.shard.ShardedRunner`.
    shards: int = 1
    #: Fault-injection campaign (``repro.faults.FaultPlan`` spec): link
    #: degradation, noise bursts, mote crash/reboot, frame corruption, and —
    #: sharded only — process-level worker chaos.  ``None`` injects nothing
    #: and leaves the run bit-identical to a scenario without the key.
    faults: dict | None = None

    def __post_init__(self):
        # Every way to make a scenario (direct, ``from_spec``, and the
        # ``dataclasses.replace`` behind ``repro.run``'s overrides) lands here.
        if self.shards < 1:
            raise NetworkError(f"shards must be >= 1, got {self.shards}")
        if self.duration_s < 0:
            raise NetworkError(f"duration_s must be >= 0, got {self.duration_s}")

    @classmethod
    def from_spec(cls, spec: dict | str | Path) -> "Scenario":
        """Build from a dict, a JSON file path, or a built-in scenario name."""
        if isinstance(spec, (str, Path)):
            from repro.scenarios.library import BUILTIN_SCENARIOS

            if isinstance(spec, str) and spec in BUILTIN_SCENARIOS:
                spec = BUILTIN_SCENARIOS[spec]
            else:
                try:
                    spec = json.loads(Path(spec).read_text())
                except OSError as error:
                    known = ", ".join(sorted(BUILTIN_SCENARIOS))
                    raise NetworkError(
                        f"scenario spec {str(spec)!r} is neither a builtin name "
                        f"({known}) nor a readable JSON file: {error}"
                    ) from error
                except json.JSONDecodeError as error:
                    raise NetworkError(f"malformed scenario JSON: {error}") from error
        if not isinstance(spec, dict):
            raise NetworkError(f"scenario spec must be a dict: {spec!r}")
        unknown = set(spec) - _SCENARIO_KEYS
        if unknown:
            raise NetworkError(f"unknown scenario spec keys: {sorted(unknown)}")
        if "topology" not in spec:
            raise NetworkError("scenario spec requires a 'topology' section")
        return cls(**spec)

    # ------------------------------------------------------------------
    def build(self) -> ScenarioRun:
        """Deploy the scenario: topology → network → dynamics → agents."""
        started = time.perf_counter()
        topology = topology_from_spec(self.topology)
        workload = workload_from_spec(self.workload)
        environment = workload.environment(topology, self.duration_s)
        net = SensorNetwork(
            topology,
            seed=self.seed,
            base_station=self.base_station,
            physical=self.physical,
            beacons=self.beacons,
            beacon_period=seconds(self.beacon_period_s),
            spacing_m=self.spacing_m,
            environment=environment,
            adaptive=self.adaptive,
            beacon_expiry_intervals=self.expiry_intervals,
        )
        dynamics = dynamics_from_spec(net, self.dynamics)
        workload.install(net, topology)
        dynamics.start()
        from repro.faults import FaultPlan, install_faults

        plan = FaultPlan.from_spec(self.faults).resolve(topology, self.seed)
        plan.validate_against(topology)
        if plan.process_events:
            raise NetworkError(
                "process-level fault events (worker_kill/worker_hang) require "
                "a sharded run (shards > 1): a single-process run has no "
                "workers to kill"
            )
        injector = install_faults(net, plan)
        build_s = time.perf_counter() - started
        return ScenarioRun(
            scenario=self,
            topology=topology,
            net=net,
            dynamics=dynamics,
            workload=workload,
            build_s=build_s,
            invalidations_at_build=net.channel.full_invalidations,
            injector=injector,
        )

    def to_spec(self) -> dict:
        """The plain-dict form (JSON-serializable round trip)."""
        spec: dict = {
            "name": self.name,
            "topology": dict(self.topology),
            "duration_s": self.duration_s,
            "seed": self.seed,
            "spacing_m": self.spacing_m,
            "base_station": self.base_station,
            "physical": self.physical,
            "beacons": self.beacons,
            "adaptive": self.adaptive,
            "expiry_intervals": self.expiry_intervals,
            "beacon_period_s": self.beacon_period_s,
        }
        if self.shards != 1:
            spec["shards"] = self.shards
        if self.workload is not None:
            spec["workload"] = (
                self.workload if isinstance(self.workload, str) else dict(self.workload)
            )
        if self.dynamics is not None:
            spec["dynamics"] = dict(self.dynamics)
        if self.faults is not None:
            spec["faults"] = dict(self.faults)
        return spec
