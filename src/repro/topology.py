"""Deployment topologies: where the motes sit and who neighbors whom.

The paper's evaluation (§4) uses one shape — a 5×5 tabletop grid whose
multi-hop structure is synthesized by a software neighbor filter.  This module
generalizes that: a :class:`Topology` produces node addresses (:class:`~repro.location.Location`),
stable mote ids, physical positions, and a symmetric neighbor relation, and
:class:`~repro.network.SensorNetwork` deploys middleware over any of them.

Concrete generators:

* :class:`GridTopology` — the paper's W×H grid (4-adjacency).
* :class:`LineTopology` — a 1×N corridor.
* :class:`RandomUniformTopology` — N motes scattered uniformly over a square
  field, neighbors within a connectivity radius.
* :class:`ClusteredTopology` — motes gathered around cluster heads, the
  classic "dense patches, sparse backbone" WSN deployment.
* :class:`ExplicitTopology` — hand-listed nodes with explicit edges or a
  radius rule.

:func:`from_spec` builds any of these from a plain dict or a JSON file, so
scenario shape becomes data rather than code.

All generators are deterministic: randomized ones derive every draw from a
named seed, never global state, so a topology is reproducible across runs and
machines.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from random import Random
from typing import Iterable, Iterator, Sequence

from repro.errors import TopologyError
from repro.location import Location, grid_locations

Position = tuple[float, float]


def _radius_neighbors(
    locations: Sequence[Location], radius: float
) -> dict[Location, frozenset[Location]]:
    """Symmetric neighbor map: pairs within Euclidean ``radius`` grid units.

    Built with a spatial hash (cell size = ceil(radius)) so construction is
    O(N · degree) rather than O(N²).
    """
    if radius <= 0:
        return {location: frozenset() for location in locations}
    cell = max(1, math.ceil(radius))
    buckets: dict[tuple[int, int], list[Location]] = {}
    for location in locations:
        buckets.setdefault((location.x // cell, location.y // cell), []).append(
            location
        )
    radius_sq = radius * radius
    neighbor_map: dict[Location, frozenset[Location]] = {}
    for location in locations:
        cx, cy = location.x // cell, location.y // cell
        near = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in buckets.get((cx + dx, cy + dy), ()):
                    if other == location:
                        continue
                    dist_sq = (other.x - location.x) ** 2 + (other.y - location.y) ** 2
                    if dist_sq <= radius_sq:
                        near.append(other)
        neighbor_map[location] = frozenset(near)
    return neighbor_map


class Topology:
    """A named set of node locations plus a symmetric neighbor relation.

    Subclasses implement :meth:`build_locations` (ordered — enumeration order
    fixes mote ids) and :meth:`build_neighbors`; everything else (ids,
    directory, positions, validation) is derived here and cached.
    """

    name = "topology"

    def __init__(self) -> None:
        self._locations: tuple[Location, ...] | None = None
        self._directory: dict[int, Location] | None = None
        self._ids: dict[Location, int] | None = None
        self._neighbor_map: dict[Location, frozenset[Location]] | None = None
        #: Set by the first :meth:`validate` that passes; a topology never
        #: changes after construction, so later calls need not walk it again.
        self._validated = False

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def build_locations(self) -> list[Location]:
        """Ordered node addresses.  Index i gets mote id i + 1."""
        raise NotImplementedError

    def build_neighbors(
        self, locations: Sequence[Location]
    ) -> dict[Location, frozenset[Location]]:
        """Symmetric adjacency over ``locations``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived, cached API
    # ------------------------------------------------------------------
    def locations(self) -> tuple[Location, ...]:
        if self._locations is None:
            locations = tuple(self.build_locations())
            if len(set(locations)) != len(locations):
                raise TopologyError(f"{self.name}: duplicate node locations")
            self._locations = locations
        return self._locations

    def directory(self) -> dict[int, Location]:
        """Mote id → location.  Ids are 1-based in enumeration order; id 0 is
        reserved for a base station added by the network layer."""
        if self._directory is None:
            self._directory = {
                index + 1: location for index, location in enumerate(self.locations())
            }
            self._ids = {
                location: mote_id for mote_id, location in self._directory.items()
            }
        return self._directory

    def mote_id(self, location: Location) -> int:
        self.directory()
        assert self._ids is not None
        try:
            return self._ids[location]
        except KeyError:
            raise TopologyError(f"{self.name}: no node at {location}") from None

    def __contains__(self, location: Location) -> bool:
        self.directory()
        assert self._ids is not None
        return location in self._ids

    def neighbors(self, location: Location) -> frozenset[Location]:
        if self._neighbor_map is None:
            self._neighbor_map = dict(self.build_neighbors(self.locations()))
        try:
            return self._neighbor_map[location]
        except KeyError:
            raise TopologyError(f"{self.name}: no node at {location}") from None

    def degree(self, location: Location) -> int:
        return len(self.neighbors(location))

    def position(self, location: Location, spacing_m: float = 1.0) -> Position:
        """Physical coordinates in meters (grid units × spacing)."""
        return (location.x * spacing_m, location.y * spacing_m)

    def gateway(self) -> Location:
        """Where a base station bridges into the field: the node nearest the
        base station's well-known (0, 0) address (ties broken by coordinates,
        so the choice is deterministic)."""
        locations = self.locations()
        if not locations:
            raise TopologyError(f"{self.name}: empty topology has no gateway")
        return min(locations, key=lambda loc: (loc.x * loc.x + loc.y * loc.y, loc))

    def validate(self) -> "Topology":
        """Check invariants: unique ids/locations, symmetric in-set neighbors.

        Returns self so construction can chain: ``GridTopology(3, 3).validate()``.
        Only the first passing call walks the relation; a failing one raises
        again on every call.
        """
        if self._validated:
            return self
        directory = self.directory()
        present = set(directory.values())
        for location in self.locations():
            for neighbor in self.neighbors(location):
                if neighbor not in present:
                    raise TopologyError(
                        f"{self.name}: {location} lists unknown neighbor {neighbor}"
                    )
                if location not in self.neighbors(neighbor):
                    raise TopologyError(
                        f"{self.name}: asymmetric edge {location} → {neighbor}"
                    )
                if neighbor == location:
                    raise TopologyError(f"{self.name}: self-loop at {location}")
        self._validated = True
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.locations())

    def __iter__(self) -> Iterator[Location]:
        return iter(self.locations())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} nodes={len(self)}>"


class GridTopology(Topology):
    """The paper's W×H grid: nodes (1,1)..(W,H), Manhattan-1 adjacency."""

    name = "grid"

    def __init__(self, width: int = 5, height: int = 5):
        if width < 1 or height < 1:
            raise TopologyError(f"grid dimensions must be >= 1: {width}x{height}")
        super().__init__()
        self.width = width
        self.height = height

    def build_locations(self) -> list[Location]:
        return grid_locations(self.width, self.height)

    def build_neighbors(
        self, locations: Sequence[Location]
    ) -> dict[Location, frozenset[Location]]:
        present = set(locations)
        return {
            location: frozenset(
                step
                for step in (
                    location.offset(1, 0),
                    location.offset(-1, 0),
                    location.offset(0, 1),
                    location.offset(0, -1),
                )
                if step in present
            )
            for location in locations
        }


class LineTopology(GridTopology):
    """A 1-row corridor of ``length`` motes — the multi-hop latency classic."""

    name = "line"

    def __init__(self, length: int = 5):
        super().__init__(width=length, height=1)
        self.length = length


class RandomUniformTopology(Topology):
    """``count`` motes scattered uniformly over a square field.

    Nodes occupy distinct integer cells of a ``side``×``side`` field whose
    lower-left corner is (1, 1); two nodes are neighbors when their Euclidean
    distance is at most ``radius`` grid units.  The default field size keeps
    cell occupancy near 50%, which with the default radius yields a mean
    degree around 6 and (empirically) a giant component holding ~99% of the
    nodes; radius 1.5 gives grid-like degree ~4 but fragments the field.
    """

    name = "random"

    def __init__(
        self,
        count: int = 100,
        side: int | None = None,
        radius: float = 2.0,
        seed: int = 0,
    ):
        if count < 1:
            raise TopologyError(f"need at least one node: {count}")
        if side is None:
            side = max(2, math.ceil(math.sqrt(2.0 * count)))
        if count > side * side:
            raise TopologyError(f"{count} nodes cannot fit a {side}x{side} field")
        super().__init__()
        self.count = count
        self.side = side
        self.radius = radius
        self.seed = seed

    def build_locations(self) -> list[Location]:
        rng = Random(f"topology/random/{self.seed}")
        cells = rng.sample(range(self.side * self.side), self.count)
        return [Location(1 + c % self.side, 1 + c // self.side) for c in cells]

    def build_neighbors(
        self, locations: Sequence[Location]
    ) -> dict[Location, frozenset[Location]]:
        return _radius_neighbors(locations, self.radius)


class ClusteredTopology(Topology):
    """Motes gathered around cluster heads on a coarse grid of centers.

    Each of ``clusters`` centers hosts ``cluster_size`` motes scattered with a
    Gaussian of standard deviation ``spread``; occupied cells are never
    reused (a deterministic outward ring search resolves collisions).
    ``radius`` sets the connectivity rule, as in
    :class:`RandomUniformTopology`.
    """

    name = "clustered"

    def __init__(
        self,
        clusters: int = 4,
        cluster_size: int = 25,
        cluster_spacing: int = 6,
        spread: float = 1.5,
        radius: float = 2.5,
        seed: int = 0,
    ):
        if clusters < 1 or cluster_size < 1:
            raise TopologyError("clusters and cluster_size must be >= 1")
        if cluster_spacing < 1:
            raise TopologyError(f"cluster_spacing must be >= 1: {cluster_spacing}")
        super().__init__()
        self.clusters = clusters
        self.cluster_size = cluster_size
        self.cluster_spacing = cluster_spacing
        self.spread = spread
        self.radius = radius
        self.seed = seed

    def centers(self) -> list[Location]:
        per_row = max(1, math.ceil(math.sqrt(self.clusters)))
        margin = 1 + math.ceil(3 * self.spread)
        return [
            Location(
                margin + self.cluster_spacing * (index % per_row),
                margin + self.cluster_spacing * (index // per_row),
            )
            for index in range(self.clusters)
        ]

    def build_locations(self) -> list[Location]:
        rng = Random(f"topology/clustered/{self.seed}")
        taken: set[tuple[int, int]] = set()
        locations: list[Location] = []
        for center in self.centers():
            for _ in range(self.cluster_size):
                spot = self._place(rng, center, taken)
                taken.add(spot)
                locations.append(Location(*spot))
        return locations

    def _place(
        self, rng: Random, center: Location, taken: set[tuple[int, int]]
    ) -> tuple[int, int]:
        for _ in range(64):
            x = round(rng.gauss(center.x, self.spread))
            y = round(rng.gauss(center.y, self.spread))
            if x >= 1 and y >= 1 and (x, y) not in taken:
                return (x, y)
        # Saturated cluster: take the nearest free cell, scanning outward.
        for ring in range(1, 4 * (self.cluster_spacing + 1)):
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    x, y = center.x + dx, center.y + dy
                    if x >= 1 and y >= 1 and (x, y) not in taken:
                        return (x, y)
        raise TopologyError("clustered topology could not place a node")

    def build_neighbors(
        self, locations: Sequence[Location]
    ) -> dict[Location, frozenset[Location]]:
        return _radius_neighbors(locations, self.radius)


class ExplicitTopology(Topology):
    """Nodes listed by hand, with explicit edges or a radius rule.

    ``nodes`` is an ordered iterable of locations (or (x, y) pairs); ``edges``
    is an iterable of location pairs, each added symmetrically.  When
    ``edges`` is omitted, adjacency falls back to ``radius`` (default 1.0 —
    i.e. 4-adjacency on integer coordinates).
    """

    name = "explicit"

    def __init__(
        self,
        nodes: Iterable[Location | tuple[int, int]],
        edges: Iterable[tuple] | None = None,
        radius: float | None = None,
    ):
        if edges is not None and radius is not None:
            raise TopologyError("pass either edges or radius, not both")
        super().__init__()
        self.nodes = [self._as_location(node) for node in nodes]
        if not self.nodes:
            raise TopologyError("explicit topology needs at least one node")
        self.edges = (
            None
            if edges is None
            else [
                (self._as_location(a), self._as_location(b)) for a, b in edges
            ]
        )
        self.radius = 1.0 if radius is None else radius

    @staticmethod
    def _as_location(value: Location | tuple[int, int]) -> Location:
        if isinstance(value, Location):
            return value
        return Location(int(value[0]), int(value[1]))

    def build_locations(self) -> list[Location]:
        return list(self.nodes)

    def build_neighbors(
        self, locations: Sequence[Location]
    ) -> dict[Location, frozenset[Location]]:
        if self.edges is None:
            return _radius_neighbors(locations, self.radius)
        present = set(locations)
        adjacency: dict[Location, set[Location]] = {
            location: set() for location in locations
        }
        for a, b in self.edges:
            if a not in present or b not in present:
                raise TopologyError(f"edge ({a}, {b}) references an unknown node")
            if a == b:
                raise TopologyError(f"self-loop at {a}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        return {
            location: frozenset(neighbors)
            for location, neighbors in adjacency.items()
        }


#: Spec keys accepted per topology kind (everything optional except explicit's
#: ``nodes``); unknown keys are rejected so typos fail loudly.
_SPEC_KINDS: dict[str, tuple[type, frozenset[str]]] = {
    "grid": (GridTopology, frozenset({"width", "height"})),
    "line": (LineTopology, frozenset({"length"})),
    "random": (RandomUniformTopology, frozenset({"count", "side", "radius", "seed"})),
    "clustered": (
        ClusteredTopology,
        frozenset(
            {"clusters", "cluster_size", "cluster_spacing", "spread", "radius", "seed"}
        ),
    ),
    "explicit": (ExplicitTopology, frozenset({"nodes", "edges", "radius"})),
}


def from_spec(spec: dict | str | Path) -> Topology:
    """Build a topology from a dict, or from a JSON file given its path.

    Example specs::

        {"kind": "grid", "width": 10, "height": 10}
        {"kind": "random", "count": 400, "radius": 1.5, "seed": 7}
        {"kind": "explicit", "nodes": [[1, 1], [2, 1], [4, 1]],
         "edges": [[[1, 1], [2, 1]], [[2, 1], [4, 1]]]}
    """
    if isinstance(spec, (str, Path)):
        try:
            spec = json.loads(Path(spec).read_text())
        except OSError as error:
            raise TopologyError(f"cannot read topology spec: {error}") from error
        except json.JSONDecodeError as error:
            raise TopologyError(f"malformed topology JSON: {error}") from error
    if not isinstance(spec, dict):
        raise TopologyError(f"topology spec must be a dict: {spec!r}")
    kind = spec.get("kind")
    if kind not in _SPEC_KINDS:
        known = ", ".join(sorted(_SPEC_KINDS))
        raise TopologyError(f"unknown topology kind {kind!r} (expected one of {known})")
    cls, allowed = _SPEC_KINDS[kind]
    params = {key: value for key, value in spec.items() if key != "kind"}
    unknown = set(params) - allowed
    if unknown:
        raise TopologyError(f"unknown {kind} spec keys: {sorted(unknown)}")
    if kind == "explicit":
        if "nodes" not in params:
            raise TopologyError("explicit spec requires 'nodes'")
        edges = params.get("edges")
        if edges is not None:
            params["edges"] = [(tuple(a), tuple(b)) for a, b in edges]
        params["nodes"] = [tuple(node) for node in params["nodes"]]
    try:
        return cls(**params).validate()
    except TypeError as error:
        raise TopologyError(f"bad {kind} spec: {error}") from error
