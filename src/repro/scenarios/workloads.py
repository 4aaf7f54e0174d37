"""Workload shapes: what the deployed network is busy *doing*.

A workload owns three moments of a scenario's life:

* :meth:`Workload.environment` — before the network is built, contribute the
  physical phenomenon the application senses (a fire, an intruder);
* :meth:`Workload.install` — after the build, inject the agent population;
* :meth:`Workload.metrics` — after the run, report application-level numbers
  (coverage, fresh samples, alerts) for the bench table.

Four shapes mirror the paper's case studies and ROADMAP's wish list: the
fire-detector **flood** (the golden flood cells' load), a **tracker-perimeter**
chase of a moving intruder, low-duty **habitat-monitor** sampling, and a
**mixed-tenant** run where habitat monitors and a fire service share every
mote (reusing the §2.2 hand-off exercised by ``examples/multi_application.py``).

A workload additionally declares whether it is **shard-safe** — installable
region-by-region under :class:`repro.shard.ShardedRunner` without any global
per-tick driver.  Idle, flood and habitat are; tracker, courier and mixed
drive or inspect the whole field centrally and are not (yet).
"""

from __future__ import annotations

from repro.agilla.fields import StringField
from repro.apps import chaser, firedetector, habitat_monitor, sampler
from repro.errors import NetworkError
from repro.location import Location
from repro.mote.environment import Environment, FireField, MovingTargetField, waypoint_path
from repro.mote.sensors import MAGNETOMETER, TEMPERATURE
from repro.net import am
from repro.network import SensorNetwork
from repro.sim.units import seconds
from repro.topology import Topology


def count_tagged(net: SensorNetwork, tag: str) -> int:
    """Nodes holding at least one tuple whose first field is the string ``tag``."""
    claimed = 0
    for node in net.grid_nodes():
        for tup in node.middleware.tuples():
            if (
                tup.arity
                and isinstance(tup.fields[0], StringField)
                and tup.fields[0].text == tag
            ):
                claimed += 1
                break
    return claimed


def agent_census(net: SensorNetwork) -> dict[str, int]:
    """Living agents by species tag (first three letters of the name)."""
    census: dict[str, int] = {}
    for node in net.all_nodes():
        for agent in node.middleware.agents():
            species = agent.name[:3]
            census[species] = census.get(species, 0) + 1
    return census


def hub_of(topology: Topology) -> Location:
    """The best-connected node (deterministic tie-break) — where floods start."""
    return max(topology.locations(), key=lambda loc: (topology.degree(loc), loc))


def _field_box(topology: Topology) -> tuple[int, int, int, int]:
    xs = [location.x for location in topology]
    ys = [location.y for location in topology]
    return min(xs), min(ys), max(xs), max(ys)


class Workload:
    """Base: a do-nothing workload (beacons only)."""

    name = "idle"
    #: Can this workload run region-by-region under the sharded runtime?
    #: True means :meth:`install_shard` installs only onto a region's own
    #: nodes and drives nothing from a global scheduler.  Workloads that
    #: inspect or command the whole field every tick (tracker's chaser,
    #: courier's dispatch loop) must say False.
    shard_safe = True

    def environment(self, topology: Topology, duration_s: float) -> Environment | None:
        return None

    def install(self, net: SensorNetwork, topology: Topology) -> None:
        return None

    def install_shard(self, net: SensorNetwork, topology: Topology, region) -> None:
        """Install this workload's share onto one region.

        ``topology`` is the *full* deployment topology (for global decisions
        like where a flood starts); ``net`` holds only the region's nodes.
        The default delegates to :meth:`install`, which is correct whenever
        installation is strictly per-node (idle, habitat): iterating the
        region network's nodes covers exactly the region's share.
        """
        self.install(net, topology)

    def metrics(self, net: SensorNetwork) -> dict:
        return {}


class FloodWorkload(Workload):
    """The golden flood cells' load: one FIREDETECTOR cloning itself outward
    from the best-connected node, claiming each mote with a ``<'fdt'>`` tuple."""

    name = "flood"

    def __init__(self, period_ticks: int = 40):
        self.period_ticks = period_ticks

    def install(self, net, topology):
        net.inject(firedetector(period_ticks=self.period_ticks), at=hub_of(topology))

    def install_shard(self, net, topology, region):
        # The flood starts at the full deployment's hub; only the region that
        # owns it injects — the clones reach other regions over the seams.
        hub = hub_of(topology)
        if hub in set(region.locations):
            net.inject(firedetector(period_ticks=self.period_ticks), at=hub)

    def metrics(self, net):
        return {"coverage": count_tagged(net, "fdt")}


class TrackerPerimeterWorkload(Workload):
    """Intruder tracking (paper §1): samplers publish magnetometer readings,
    one chaser strong-moves toward the loudest reading, hop by hop, while the
    intruder sweeps diagonally back and forth across the field."""

    name = "tracker"
    shard_safe = False  # the intruder field + chaser span the whole field

    def __init__(
        self,
        sampler_period_ticks: int = 8,
        rest_ticks: int = 4,
        intruder_speed: float = 0.15,  # grid units per second
        intruder_reach: float = 2.5,
    ):
        self.sampler_period_ticks = sampler_period_ticks
        self.rest_ticks = rest_ticks
        self.intruder_speed = intruder_speed
        self.intruder_reach = intruder_reach
        #: Set by :meth:`environment`: ``path(now_us) -> (x, y)`` in grid units.
        self.intruder_path = None

    def environment(self, topology, duration_s):
        xmin, ymin, xmax, ymax = _field_box(topology)
        corners = [(xmin, ymin), (xmax, ymax), (xmin, ymax), (xmax, ymin)]
        # Repeat the circuit long enough to outlast the scenario.
        lap = 2.0 * ((xmax - xmin) + (ymax - ymin)) + 1.0
        laps = max(1, round(self.intruder_speed * duration_s / lap) + 1)
        waypoints = [(float(xmin), float(ymin))]
        for _ in range(laps):
            waypoints.extend((float(x), float(y)) for x, y in corners[1:] + corners[:1])
        self.intruder_path = waypoint_path(waypoints, speed=self.intruder_speed)
        return Environment(
            {MAGNETOMETER: MovingTargetField(self.intruder_path, reach=self.intruder_reach)}
        )

    def install(self, net, topology):
        program = sampler(period_ticks=self.sampler_period_ticks, spread=False)
        for node in net.grid_nodes():
            node.middleware.inject(program)
        net.inject(chaser(rest_ticks=self.rest_ticks), at=topology.gateway())

    def metrics(self, net):
        census = agent_census(net)
        chasers = net.find_agents("chs")
        chase_at = str(chasers[0][0]) if chasers else None
        return {
            "coverage": count_tagged(net, "mag"),
            "samplers_alive": census.get("smp", 0),
            "chaser_alive": census.get("chs", 0),
            "chaser_at": chase_at,
        }


class HabitatWorkload(Workload):
    """Habitat monitoring (paper §2.1): one monitor per node publishing fresh
    ``<'hab', light>`` samples at a low duty cycle."""

    name = "habitat"

    def __init__(self, period_ticks: int = 24):
        self.period_ticks = period_ticks

    def install(self, net, topology):
        # Every mote runs the same agent: assemble it once.  ``inject`` reads
        # only the program's code and name, so the motes can share it.
        program = habitat_monitor(period_ticks=self.period_ticks)
        for node in net.grid_nodes():
            node.middleware.inject(program)

    def metrics(self, net):
        census = agent_census(net)
        return {
            "coverage": count_tagged(net, "hab"),
            "monitors_alive": census.get("hab", 0),
        }


class CourierWorkload(Workload):
    """Geo-routed unicast traffic: the delivery-ratio-under-mobility probe.

    A handful of *source* nodes — the ones farthest from the *sink* (the
    topology gateway) — each geo-send a small payload toward the sink every
    ``period_s``, addressed to the sink's current location (a location
    service, as the paper's location-addressed messaging assumes).  The
    workload counts originations and sink arrivals, so ``delivery_ratio``
    directly measures whether greedy geographic forwarding still works after
    the deployment has churned under it.

    This is the partition-heal scenario's measurement: with frozen
    acquaintances a mobile relay silently blackholes the route; with
    adaptive neighborhoods the stale next-hop expires and the route re-forms
    through whoever is really in range.
    """

    name = "courier"
    shard_safe = False  # a global sim.every loop dispatches from all sources

    def __init__(self, period_s: float = 2.0, sources: int = 3, payload_bytes: int = 8):
        if period_s <= 0:
            raise NetworkError(f"courier period must be positive: {period_s}")
        if sources < 1:
            raise NetworkError(f"courier needs at least one source: {sources}")
        if not (1 <= payload_bytes <= 16):
            raise NetworkError(f"courier payload must be 1..16 bytes: {payload_bytes}")
        self.period_s = period_s
        self.sources = sources
        self.payload_bytes = payload_bytes
        self.sink: Location | None = None
        self.source_locations: list[Location] = []
        self.sent = 0
        self.delivered = 0
        self.misdelivered = 0

    def install(self, net, topology):
        self.sent = self.delivered = self.misdelivered = 0
        self.sink = topology.gateway()
        ranked = sorted(
            (loc for loc in topology.locations() if loc != self.sink),
            key=lambda loc: (-loc.distance_to(self.sink), loc),
        )
        self.source_locations = ranked[: self.sources]
        sink_node = net.nodes[self.sink]
        for node in net.grid_nodes():
            node.geo.register_kind(
                am.GEO_APP_MESSAGE,
                lambda origin, payload, node=node, sink=sink_node: self._on_receipt(
                    node is sink
                ),
            )
        net.sim.every(seconds(self.period_s), lambda: self._dispatch(net, sink_node))

    def _on_receipt(self, at_sink: bool) -> None:
        if at_sink:
            self.delivered += 1
        else:
            self.misdelivered += 1  # an epsilon twin matched the destination

    def _dispatch(self, net: SensorNetwork, sink_node) -> None:
        payload = bytes(self.payload_bytes)
        for location in self.source_locations:
            node = net.nodes.get(location)
            if node is None:
                continue  # the source departed for good
            self.sent += 1
            # Address the sink's *current* location: adaptive sinks that
            # wander are still reachable, frozen ones read the same value
            # their deploy-time snapshot holds.
            node.geo.send(sink_node.mote.location, am.GEO_APP_MESSAGE, payload)

    def metrics(self, net):
        no_route = sum(node.geo.no_route_drops for node in net.grid_nodes())
        ratio = round(self.delivered / self.sent, 4) if self.sent else 0.0
        return {
            "geo_sent": self.sent,
            "geo_delivered": self.delivered,
            "geo_misdelivered": self.misdelivered,
            "geo_no_route": no_route,
            "delivery_ratio": ratio,
        }


class MixedTenantWorkload(Workload):
    """Two applications sharing one network (paper §2.2, §5): habitat monitors
    everywhere, plus a fire-detection service flooding from the hub.  A fire
    ignites mid-run; detectors rout ``<'fir', loc>`` alerts and nearby habitat
    monitors voluntarily free their resources."""

    name = "mixed"
    shard_safe = False  # install mixes a global hub flood with per-node state

    def __init__(
        self,
        habitat_period_ticks: int = 24,
        detector_period_ticks: int = 40,
        ignite_s: float | None = None,
        spread_rate: float = 0.1,
    ):
        self.habitat_period_ticks = habitat_period_ticks
        self.detector_period_ticks = detector_period_ticks
        self.ignite_s = ignite_s
        self.spread_rate = spread_rate
        self._monitors_installed = 0

    def environment(self, topology, duration_s):
        xmin, ymin, xmax, ymax = _field_box(topology)
        center = min(
            topology.locations(),
            key=lambda loc: (
                (loc.x - (xmin + xmax) / 2) ** 2 + (loc.y - (ymin + ymax) / 2) ** 2,
                loc,
            ),
        )
        ignite_s = duration_s / 2.0 if self.ignite_s is None else self.ignite_s
        return Environment(
            {
                TEMPERATURE: FireField(
                    center,
                    ignition_time=int(ignite_s * 1_000_000),
                    spread_rate=self.spread_rate,
                )
            }
        )

    def install(self, net, topology):
        self._monitors_installed = 0
        program = habitat_monitor(period_ticks=self.habitat_period_ticks)
        for node in net.grid_nodes():
            node.middleware.inject(program)
            self._monitors_installed += 1
        hub = hub_of(topology)
        net.inject(
            firedetector(
                tracker_x=hub.x, tracker_y=hub.y, period_ticks=self.detector_period_ticks
            ),
            at=hub,
        )

    def metrics(self, net):
        census = agent_census(net)
        alive = census.get("hab", 0)
        return {
            "coverage": count_tagged(net, "fdt"),
            "habitat_samples": count_tagged(net, "hab"),
            "monitors_alive": alive,
            "monitors_freed": max(0, self._monitors_installed - alive),
            "fire_alerts": count_tagged(net, "fir"),
        }


#: Spec keys accepted per workload kind, mirroring ``topology.from_spec``.
_WORKLOAD_KINDS: dict[str, tuple[type, frozenset[str]]] = {
    "idle": (Workload, frozenset()),
    "flood": (FloodWorkload, frozenset({"period_ticks"})),
    "tracker": (
        TrackerPerimeterWorkload,
        frozenset(
            {"sampler_period_ticks", "rest_ticks", "intruder_speed", "intruder_reach"}
        ),
    ),
    "habitat": (HabitatWorkload, frozenset({"period_ticks"})),
    "courier": (CourierWorkload, frozenset({"period_s", "sources", "payload_bytes"})),
    "mixed": (
        MixedTenantWorkload,
        frozenset(
            {"habitat_period_ticks", "detector_period_ticks", "ignite_s", "spread_rate"}
        ),
    ),
}


def workload_from_spec(spec: dict | str | None) -> Workload:
    """Build a workload from a spec dict (or a bare kind string)."""
    if spec is None:
        return Workload()
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind not in _WORKLOAD_KINDS:
        known = ", ".join(sorted(_WORKLOAD_KINDS))
        raise NetworkError(f"unknown workload kind {kind!r} (expected one of {known})")
    cls, allowed = _WORKLOAD_KINDS[kind]
    params = {key: value for key, value in spec.items() if key != "kind"}
    unknown = set(params) - allowed
    if unknown:
        raise NetworkError(f"unknown {kind} workload keys: {sorted(unknown)}")
    return cls(**params)
