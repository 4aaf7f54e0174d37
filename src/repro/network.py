"""Network builder: deploy the Agilla middleware over any topology.

:class:`SensorNetwork` wires a :class:`~repro.topology.Topology` — node ids,
locations, physical positions, and neighbor sets — to the simulator, radio
channel, per-node network stacks, and middleware.  Multi-hop structure is
synthesized the way the paper did it (§4): every mote shares one channel and
a receive-side :class:`~repro.net.filters.NeighborSetFilter` drops frames
from non-neighbors.

The experimental setup of §4 is ``SensorNetwork(GridTopology(5, 5))``: a 5×5
grid of MICA2 motes (lower-left at (1,1)) plus a base station at (0,0)
bridged to mote (1,1) from which agents are injected (Figure 8 injects into
node (0,0); five hops along the bottom row reaches (5,1)).

An optional *physical* mode spaces the motes out for real and drops the
filter — an extension for studying the same protocols over distance-dependent
links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.agilla.agent import Agent
from repro.agilla.assembler import Program
from repro.agilla.instruction_manager import ProgramTables
from repro.agilla.middleware import AgillaMiddleware
from repro.agilla.params import AgillaParams
from repro.errors import NetworkError
from repro.location import BASE_STATION_LOCATION, INT16_MAX, INT16_MIN, Location
from repro.mote.environment import Environment
from repro.mote.mote import Mote
from repro.net.beacons import DEFAULT_EXPIRY_INTERVALS, BeaconService
from repro.net.filters import LiveNeighborFilter, NeighborSetFilter, bridge_edge
from repro.net.georouting import GeoMessaging, GeoRouter
from repro.net.stack import NetworkStack
from repro.radio.channel import Channel
from repro.radio.linkmodels import DistancePrrLinks, LinkModel, UniformLossLinks
from repro.sim.kernel import Simulator
from repro.sim.units import ms, seconds
from repro.topology import Topology

#: Default physical spacing: tabletop centimeters (filtered mode) vs. really
#: spread out (physical mode).
TABLETOP_SPACING_M = 0.3
PHYSICAL_SPACING_M = 30.0


@dataclass
class Node:
    """Everything attached to one deployed position."""

    mote: Mote
    stack: NetworkStack
    beacons: BeaconService
    router: GeoRouter
    geo: GeoMessaging
    middleware: AgillaMiddleware

    @property
    def location(self) -> Location:
        return self.mote.location


class SensorNetwork:
    """A deployed Agilla sensor network over an arbitrary topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        link_model: LinkModel | None = None,
        params: AgillaParams | None = None,
        environment: Environment | None = None,
        base_station: bool = True,
        bridge_location: Location | None = None,
        beacons: bool = True,
        beacon_period: int = seconds(10.0),
        physical: bool = False,
        spacing_m: float | None = None,
        adaptive: bool = False,
        beacon_expiry_intervals: int = DEFAULT_EXPIRY_INTERVALS,
    ):
        self.topology = topology.validate()
        #: Adaptive neighborhoods: acquaintance lists track the *live* radio
        #: neighborhood instead of the deploy-time snapshot.  Concretely —
        #: receive filters consult the acquaintance list (not a frozen set),
        #: ``move_node`` updates the mote's believed location (localization),
        #: a radio powering back up re-announces immediately, any overheard
        #: frame refreshes its sender's freshness, and the context manager
        #: surfaces neighbor churn as tuples that agent reactions fire on.
        #: Off by default: frozen deployments stay bit-for-bit identical to
        #: the committed goldens.
        #:
        #: Note that adaptivity replaces the *synthesized* topology with the
        #: physical one: on a tabletop deployment (default centimeter
        #: spacing) every mote genuinely hears every other, so the live view
        #: is a fully-connected field whose audible degree can exceed the
        #: acquaintance table's capacity (the table then keeps the 12
        #: freshest; ``displacements`` counts the pressure, and re-admission
        #: raises no phantom churn events).  Deployments that want adaptive
        #: *multi-hop* structure should space nodes so physical reach defines
        #: it, as the partition-heal scenario does (``spacing_m=60`` under a
        #: 100 m radio).
        self.adaptive = adaptive
        self._beacon_expiry_intervals = beacon_expiry_intervals
        self.sim = Simulator(seed=seed)
        self.params = params if params is not None else AgillaParams()
        #: Decoded-instruction tables shared by every mote of this network:
        #: motes running one program share its table.
        self.programs = ProgramTables()
        self.environment = environment if environment is not None else Environment()
        self.physical = physical
        if link_model is None:
            link_model = DistancePrrLinks() if physical else UniformLossLinks()
        if spacing_m is None:
            spacing_m = PHYSICAL_SPACING_M if physical else TABLETOP_SPACING_M
        self.channel = Channel(self.sim, link_model, grid_spacing_m=spacing_m)
        self.nodes: dict[Location, Node] = {}
        self._beacons_enabled = beacons
        self._beacon_period = beacon_period

        field_locations = list(topology.locations())
        if base_station and BASE_STATION_LOCATION in topology:
            raise NetworkError(
                f"topology occupies the base station address {BASE_STATION_LOCATION}"
            )
        self.directory: dict[int, Location] = {}
        if base_station:
            self.directory[0] = BASE_STATION_LOCATION
        self.directory.update(topology.directory())
        self._ids = {location: mote_id for mote_id, location in self.directory.items()}

        if base_station:
            bridge = bridge_location if bridge_location is not None else topology.gateway()
            if bridge not in topology:
                raise NetworkError(f"bridge location {bridge} is not in the topology")
            self._extra_edges = bridge_edge(BASE_STATION_LOCATION, bridge)
        else:
            if bridge_location is not None:
                raise NetworkError("bridge_location requires base_station=True")
            self._extra_edges = frozenset()

        locations = (
            [BASE_STATION_LOCATION] + field_locations
            if base_station
            else field_locations
        )
        for location in locations:
            self._build_node(location)
        self._prime_neighbors()
        if beacons:
            for node in self.nodes.values():
                node.beacons.start()
        for node in self.nodes.values():
            node.middleware.boot()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _mote_id(self, location: Location) -> int:
        return self._ids[location]

    def _build_node(self, location: Location) -> None:
        mote = Mote(self.sim, self._mote_id(location), location, self.environment)
        radio = self.channel.attach(mote, self._position(location))
        stack = NetworkStack(mote, radio)
        beacons = BeaconService(
            mote,
            stack,
            period=self._beacon_period,
            expiry_intervals=self._beacon_expiry_intervals,
            announce_on_wake=self.adaptive,
            snoop=self.adaptive,
        )
        if not self.physical:
            if self.adaptive:
                # The live filter: accepted senders follow the beaconed
                # neighborhood; the base-station bridge is pinned so agent
                # injection works before discovery warms up.
                pinned = (
                    self._ids[partner]
                    for edge in self._extra_edges
                    if location in edge
                    for partner in edge - {location}
                )
                stack.install_filter(
                    LiveNeighborFilter(beacons.acquaintances, always_accept=pinned)
                )
            else:
                stack.install_filter(
                    NeighborSetFilter(
                        mote_id for mote_id, _ in self._neighbor_ids(location)
                    )
                )
        router = GeoRouter(
            location,
            beacons.acquaintances,
            epsilon=self.params.location_epsilon,
            mote=mote if self.adaptive else None,
        )
        geo = GeoMessaging(mote, stack, router)
        middleware = AgillaMiddleware(
            mote,
            stack,
            beacons,
            geo,
            self.params,
            adaptive=self.adaptive,
            programs=self.programs,
        )
        self.nodes[location] = Node(mote, stack, beacons, router, geo, middleware)

    def _neighbor_ids(self, location: Location) -> list[tuple[int, Location]]:
        """Topology neighbors plus bridge partners, ordered by mote id."""
        neighbors = (
            set(self.topology.neighbors(location)) if location in self.topology else set()
        )
        for edge in self._extra_edges:
            if location in edge:
                neighbors.update(edge - {location})
        return sorted(
            ((self._ids[neighbor], neighbor) for neighbor in neighbors),
            key=lambda pair: pair[0],
        )

    def _prime_neighbors(self) -> None:
        """Warm up every acquaintance list (a long-deployed network)."""
        for location, node in self.nodes.items():
            if self.physical:
                neighbors = self._physical_neighbors(location)
            else:
                neighbors = self._neighbor_ids(location)
            node.beacons.prime(neighbors)

    def _physical_neighbors(self, location: Location) -> list[tuple[int, Location]]:
        """Physical mode: nodes audible and within 1.5 grid units, plus bridges."""
        neighbors = []
        for other_id, other_location in self.directory.items():
            if other_location == location:
                continue
            adjacent = (
                self.channel.link_model.in_range(
                    self._position(other_location), self._position(location)
                )
                and other_location.distance_to(location) <= 1.5
            )
            bridged = frozenset((other_location, location)) in self._extra_edges
            if adjacent or bridged:
                neighbors.append((other_id, other_location))
        return neighbors

    def _position(self, location: Location) -> tuple[float, float]:
        if location in self.topology:
            return self.topology.position(location, self.channel.grid_spacing_m)
        return (
            location.x * self.channel.grid_spacing_m,
            location.y * self.channel.grid_spacing_m,
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, location: Location | tuple[int, int]) -> Node:
        if isinstance(location, tuple):
            location = Location(*location)
        return self.nodes[location]

    def middleware(self, location: Location | tuple[int, int]) -> AgillaMiddleware:
        return self.node(location).middleware

    @property
    def base_station(self) -> Node:
        return self.nodes[BASE_STATION_LOCATION]

    def all_nodes(self) -> Iterable[Node]:
        return self.nodes.values()

    def grid_nodes(self) -> Iterable[Node]:
        """All field nodes (everything except the base station)."""
        for location, node in self.nodes.items():
            if location != BASE_STATION_LOCATION:
                yield node

    #: Topology-neutral alias for :meth:`grid_nodes`.
    field_nodes = grid_nodes

    # ------------------------------------------------------------------
    # Dynamics: positions, failures, departures
    # ------------------------------------------------------------------
    def _resolve(self, location: Location | tuple[int, int]):
        """Normalize an address and look up its radio (None once departed)."""
        if isinstance(location, tuple):
            location = Location(*location)
        mote_id = self._ids.get(location)
        if mote_id is None:
            raise NetworkError(f"no node at {location}")
        return location, self.channel.radio_for(mote_id)

    def _radio(self, location: Location | tuple[int, int]):
        location, radio = self._resolve(location)
        if radio is None:
            raise NetworkError(f"node at {location} has left the network")
        return radio

    def position_of(self, location: Location | tuple[int, int]) -> tuple[float, float]:
        """Current *physical* position (meters) of the node's radio."""
        return self._radio(location).position

    def move_node(
        self, location: Location | tuple[int, int], position: tuple[float, float]
    ) -> None:
        """Move a node's radio to a new physical position (meters).

        The node keeps its *address* (the ``Location`` it is looked up by in
        :attr:`nodes`) and its radio connectivity follows the link model at
        the new coordinates.  The channel re-keys its hearer index
        incrementally, so a mobility tick costs O(degree) per mover.

        In a frozen deployment that is the whole story — the node's believed
        location, its beacons, and (in filtered mode) its software neighbor
        set all stay at the deploy-time snapshot.  In an *adaptive*
        deployment the mote's location tracks the move (localization, §2.2:
        "each node knows its own physical location"), quantized to the grid
        the deployment addresses by, so beacons advertise where the node
        actually is and geo-routing forwards accordingly.
        """
        radio = self._radio(location)
        self.channel.move(radio.mote.id, (float(position[0]), float(position[1])))
        if self.adaptive:
            radio.mote.location = self._localize(radio.position)

    def _localize(self, position: tuple[float, float]) -> Location:
        """Quantize a physical position (meters) to the nearest grid address."""
        spacing = self.channel.grid_spacing_m
        x = min(max(round(position[0] / spacing), INT16_MIN), INT16_MAX)
        y = min(max(round(position[1] / spacing), INT16_MIN), INT16_MAX)
        return Location(x, y)

    def fail_node(self, location: Location | tuple[int, int]) -> None:
        """Take a node's radio down (crash / battery death): it neither
        transmits nor receives until :meth:`recover_node`.  Local computation
        continues — a partitioned node, not a deallocated one."""
        self._radio(location).enabled = False

    def recover_node(self, location: Location | tuple[int, int]) -> None:
        """Bring a failed node's radio back up."""
        self._radio(location).enabled = True

    def node_up(self, location: Location | tuple[int, int]) -> bool:
        """Is the node's radio currently on the air?"""
        _, radio = self._resolve(location)
        return radio is not None and radio.enabled

    def detach_node(self, location: Location | tuple[int, int]) -> None:
        """Permanently remove a node from the deployment (departure).

        Unlike :meth:`fail_node` this cannot be undone: the channel drops the
        radio from its spatial index incrementally, the beacon service stops
        (no phantom timer events from a gone node), resident agents die with
        the hardware, and the node leaves :attr:`nodes` so iteration and
        workload metrics no longer see it."""
        location, radio = self._resolve(location)
        if radio is None:
            raise NetworkError(f"node at {location} has left the network")
        node = self.nodes[location]
        self.channel.detach(radio.mote.id)
        node.beacons.stop()
        for agent in list(node.middleware.agents()):
            node.middleware.agent_manager.kill(agent, "node departed")
        del self.nodes[location]

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> None:
        """Advance the network by ``duration_s`` simulated seconds."""
        self.sim.run(duration=seconds(duration_s))

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout_s: float,
        step_ms: float = 20.0,
    ) -> bool:
        """Run until ``predicate()`` holds; False if the timeout elapsed."""
        deadline = self.sim.now + seconds(timeout_s)
        while not predicate():
            if self.sim.now >= deadline:
                return False
            self.sim.run(duration=min(ms(step_ms), deadline - self.sim.now))
        return True

    # ------------------------------------------------------------------
    # Agent operations
    # ------------------------------------------------------------------
    def inject(
        self, program: Program, at: Location | tuple[int, int] = (0, 0)
    ) -> Agent:
        """Inject an agent at a node (default: the base station)."""
        return self.middleware(at).inject(program)

    def agents_at(self, location: Location | tuple[int, int]) -> list[Agent]:
        return self.middleware(location).agents()

    def find_agents(self, name: str) -> list[tuple[Location, Agent]]:
        """All living agents whose name/species starts with ``name``'s tag."""
        found = []
        for location, node in sorted(self.nodes.items()):
            for agent in node.middleware.agents():
                if agent.name.startswith(name[:3]):
                    found.append((location, agent))
        return found

    def tuples_at(self, location: Location | tuple[int, int]):
        return self.middleware(location).tuples()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def radio_messages(self) -> int:
        """Total frames put on the air so far."""
        return self.channel.frames_transmitted

    def radio_bytes(self) -> int:
        """Total bytes put on the air, monotonic across node departures."""
        return self.channel.retired_bytes_sent + sum(
            radio.bytes_sent for radio in self.channel.radios
        )

    def total_agents(self) -> int:
        return sum(len(node.middleware.agent_manager.agents) for node in self.all_nodes())

    def migrations_in_flight(self) -> bool:
        """True while any node is sending, relaying, or receiving an agent."""
        return any(node.middleware.migration.busy for node in self.all_nodes())

    def quiescent(self) -> bool:
        """No resident agents and no agents in flight anywhere."""
        return self.total_agents() == 0 and not self.migrations_in_flight()


def build_network(topology: Topology | dict | str, **kwargs) -> SensorNetwork:
    """Deploy over a :class:`Topology`, a spec dict, or a JSON spec file."""
    if not isinstance(topology, Topology):
        from repro.topology import from_spec

        topology = from_spec(topology)
    return SensorNetwork(topology, **kwargs)
