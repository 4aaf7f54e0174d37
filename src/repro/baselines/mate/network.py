"""A Mate network on the same testbed substrate as the Agilla one.

Same motes, same channel, same software grid filter (a
:class:`~repro.net.filters.NeighborSetFilter` of each mote's grid-adjacent
ids) — only the middleware differs, so the §5 comparison (reprogramming
cost, placement control, multi-application support) is apples to apples.
"""

from __future__ import annotations

from repro.baselines.mate.isa import Capsule
from repro.baselines.mate.middleware import MateMiddleware
from repro.location import BASE_STATION_LOCATION, Location, grid_locations
from repro.mote.environment import Environment
from repro.mote.mote import Mote
from repro.net.filters import NeighborSetFilter, bridge_edge
from repro.net.stack import NetworkStack
from repro.radio.channel import Channel
from repro.radio.linkmodels import LinkModel, UniformLossLinks
from repro.sim.kernel import Simulator
from repro.sim.units import seconds


class MateNetwork:
    """A grid of Mate motes plus a base station at (0,0)."""

    def __init__(
        self,
        width: int = 5,
        height: int = 5,
        seed: int = 0,
        link_model: LinkModel | None = None,
        environment: Environment | None = None,
    ):
        self.width = width
        self.height = height
        self.sim = Simulator(seed=seed)
        self.environment = environment if environment is not None else Environment()
        self.channel = Channel(
            self.sim,
            link_model if link_model is not None else UniformLossLinks(),
            grid_spacing_m=0.3,
        )
        self.nodes: dict[Location, MateMiddleware] = {}

        locations = [BASE_STATION_LOCATION] + list(grid_locations(width, height))
        edges = bridge_edge(BASE_STATION_LOCATION, Location(1, 1))
        for location in locations:
            mote = Mote(self.sim, self._mote_id(location), location, self.environment)
            stack = NetworkStack(mote, self.channel.attach(mote))
            # Grid-adjacent senders only, plus the base-station bridge.
            stack.install_filter(
                NeighborSetFilter(
                    self._mote_id(other)
                    for other in locations
                    if other.manhattan_to(location) == 1
                    or frozenset((other, location)) in edges
                )
            )
            middleware = MateMiddleware(mote, stack)
            middleware.start()
            self.nodes[location] = middleware

    def _mote_id(self, location: Location) -> int:
        if location == BASE_STATION_LOCATION:
            return 0
        return location.x + (location.y - 1) * self.width

    # ------------------------------------------------------------------
    @property
    def base_station(self) -> MateMiddleware:
        return self.nodes[BASE_STATION_LOCATION]

    def grid_middlewares(self) -> list[MateMiddleware]:
        return [
            node
            for location, node in self.nodes.items()
            if location != BASE_STATION_LOCATION
        ]

    def run(self, duration_s: float) -> None:
        self.sim.run(duration=seconds(duration_s))

    def run_until(self, predicate, timeout_s: float, step_ms: float = 50.0) -> bool:
        deadline = self.sim.now + seconds(timeout_s)
        while not predicate():
            if self.sim.now >= deadline:
                return False
            self.sim.run(duration=min(round(step_ms * 1000), deadline - self.sim.now))
        return True

    # ------------------------------------------------------------------
    def reprogram(self, capsule: Capsule) -> None:
        """Install a new capsule at the base station; flooding does the rest."""
        self.base_station.install(capsule)

    def coverage(self, capsule_id: int, version: int) -> float:
        """Fraction of grid motes running at least ``version``."""
        nodes = self.grid_middlewares()
        reached = sum(
            1
            for node in nodes
            if (node.version_of(capsule_id) or 0) >= version
        )
        return reached / len(nodes)

    def radio_messages(self) -> int:
        return self.channel.frames_transmitted
