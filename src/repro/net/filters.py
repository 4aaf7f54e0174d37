"""Receive-side frame filters.

The paper's testbed put 25 motes on one tabletop — every mote physically
hears every other — and synthesized the 5×5 multi-hop grid in software:
"we modified TinyOS's network stack to filter out all messages except those
from immediate neighbors based on the grid topology" (§4).
:class:`NeighborSetFilter` is that modification, given each mote's
grid-adjacent ids (or, for any topology, its neighbor relation).
"""

from __future__ import annotations

from typing import Iterable

from repro.net import am
from repro.net.acquaintance import AcquaintanceList
from repro.net.addresses import Location
from repro.radio.frame import Frame


class NeighborSetFilter:
    """Drop frames whose sender id is not in a fixed neighbor set.

    The deployment layer derives each node's accepted senders from the
    topology's neighbor relation (plus any bridge edges) once, and the
    per-frame check is a single set lookup.  Unknown senders are dropped.

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


def bridge_edge(a: Location, b: Location) -> frozenset[frozenset[Location]]:
    """A one-pair edge set (the base-station bridge) that a deployment adds
    to its neighbor relation."""
    return frozenset({frozenset((a, b))})
