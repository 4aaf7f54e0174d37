"""Receive-side frame filters.

The paper's testbed put 25 motes on one tabletop — every mote physically
hears every other — and synthesized the 5×5 multi-hop grid in software:
"we modified TinyOS's network stack to filter out all messages except those
from immediate neighbors based on the grid topology" (§4).
:class:`GridNeighborFilter` is that modification.
"""

from __future__ import annotations

from typing import Iterable

from repro.net import am
from repro.net.acquaintance import AcquaintanceList
from repro.net.addresses import Location
from repro.radio.frame import Frame


class NeighborSetFilter:
    """Drop frames whose sender id is not in a fixed neighbor set.

    The topology-agnostic generalization of :class:`GridNeighborFilter`: the
    deployment layer derives each node's accepted senders from the topology's
    neighbor relation (plus any bridge edges) once, and the per-frame check is
    a single set lookup.  Unknown senders are dropped.

    A network stack without observers never calls an installed one: it
    copies :attr:`accepted` into its radio's acceptance rule, so the channel
    refuses unknown senders before any callback runs.  Widen an installed
    filter through ``NetworkStack.admit_senders``, which keeps the two in
    step.
    """

    def __init__(self, accepted_ids: Iterable[int]):
        self.accepted = frozenset(accepted_ids)

    def __call__(self, frame: Frame) -> bool:
        return frame.src in self.accepted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NeighborSetFilter accepts={sorted(self.accepted)}>"


class LiveNeighborFilter:
    """Accept frames from the *current* radio neighborhood, not a snapshot.

    The adaptive replacement for :class:`NeighborSetFilter`: instead of a
    frozen accepted-sender set derived from the deploy-time topology, the
    per-frame check consults the live acquaintance list, so the synthesized
    multi-hop structure follows the real neighborhood as nodes move, fail,
    recover, and wander back into range.

    Discovery must be able to bootstrap the list, so frames whose AM type is
    in ``discovery_types`` (beacons, by default) always pass — the channel
    already guarantees they came from a physically audible radio.
    ``always_accept`` pins senders that must work regardless of beacon state
    (the base-station bridge).
    """

    def __init__(
        self,
        acquaintances: AcquaintanceList,
        always_accept: Iterable[int] = (),
        discovery_types: Iterable[int] = (am.AM_BEACON,),
    ):
        self.acquaintances = acquaintances
        self.always_accept = frozenset(always_accept)
        self.discovery_types = frozenset(discovery_types)

    def __call__(self, frame: Frame) -> bool:
        return (
            frame.am_type in self.discovery_types
            or frame.src in self.always_accept
            or frame.src in self.acquaintances
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveNeighborFilter live={len(self.acquaintances)} "
            f"pinned={sorted(self.always_accept)}>"
        )


class GridNeighborFilter:
    """Drop frames not sent by a grid-adjacent node.

    Adjacency is Manhattan distance 1 in grid coordinates.  ``extra_edges``
    adds explicit adjacencies for special nodes — e.g. the base station at
    (0,0) is bridged to mote (1,1) even though they are not grid-adjacent.

    The filter needs to know where a frame's sender sits; the network builder
    provides a shared ``directory`` mapping mote id → grid location.
    """

    def __init__(
        self,
        own_location: Location,
        directory: dict[int, Location],
        extra_edges: frozenset[frozenset[Location]] = frozenset(),
    ):
        self.own_location = own_location
        self.directory = directory
        self.extra_edges = extra_edges

    def neighbor_locations(self) -> list[Location]:
        """All directory locations this node would accept frames from."""
        accepted = []
        for location in self.directory.values():
            if location == self.own_location:
                continue
            if self._adjacent(location):
                accepted.append(location)
        return accepted

    def _adjacent(self, sender: Location) -> bool:
        if sender.manhattan_to(self.own_location) == 1:
            return True
        return frozenset((sender, self.own_location)) in self.extra_edges

    def __call__(self, frame: Frame) -> bool:
        sender = self.directory.get(frame.src)
        if sender is None:
            return False  # unknown senders are dropped
        return self._adjacent(sender)


def bridge_edge(a: Location, b: Location) -> frozenset[frozenset[Location]]:
    """Convenience: a one-pair ``extra_edges`` set (base-station bridge)."""
    return frozenset({frozenset((a, b))})
