"""The radio field: per-node state as contiguous numpy arrays.

Every attached radio owns a dense *slot* into a set of parallel arrays,
so the channel's hearer query is array arithmetic over fancy-indexed views
instead of one Python attribute hop per candidate.  The columns are
exactly what the hearer queries (and the dynamics layer's bounding box)
read:

* ``positions`` — N×2 metres, for the vectorized in-range mask;
* ``attach_seq`` — the sort key that orders hearer lists;
* ``mote_ids`` — each slot's owner (-1 when free), inverted by the
  ``slot_of`` dict: the spatial hash keeps slots, but hearer lists hold
  radios.

The field is not an independent source of truth so much as a *mirror* with
array layout: it is written through exactly the hooks that already re-key
the spatial hearer index and invalidate the :class:`LinkCache` —

* :meth:`Channel.attach` / :meth:`Channel.detach` → :meth:`allocate` /
  :meth:`release`;
* :meth:`Channel.move` → :meth:`set_position`.

Slots are recycled LIFO on release, so the arrays stay dense under churn:
``N`` live radios occupy at most ``max(N over time)`` slots, and capacity
only ever doubles.
"""

from __future__ import annotations

from repro.radio._np import np
from repro.radio.linkmodels import Position

_INITIAL_CAPACITY = 16


class RadioField:
    """Dense slot-indexed arrays of per-radio physical state."""

    __slots__ = (
        "capacity",
        "positions",
        "attach_seq",
        "mote_ids",
        "slot_of",
        "_free",
    )

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        self.capacity = max(int(capacity), 1)
        self.positions = np.zeros((self.capacity, 2), dtype=np.float64)
        #: Attach order (monotone per channel; -1 when free): the sort key
        #: that makes the vectorized hearer query's ordering identical to
        #: the scalar list sort.
        self.attach_seq = np.full(self.capacity, -1, dtype=np.int64)
        self.mote_ids = np.full(self.capacity, -1, dtype=np.int64)
        #: mote id -> slot, the inverse of ``mote_ids``.
        self.slot_of: dict[int, int] = {}
        self._free: list[int] = list(range(self.capacity - 1, -1, -1))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.slot_of)

    def allocate(self, mote_id: int, position: Position, attach_seq: int = -1) -> int:
        """Claim a slot for ``mote_id`` and seed its state; returns the slot."""
        if mote_id in self.slot_of:
            raise ValueError(f"mote id {mote_id} already holds a field slot")
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.set_position(slot, position)
        self.attach_seq[slot] = attach_seq
        self.mote_ids[slot] = mote_id
        self.slot_of[mote_id] = slot
        return slot

    def release(self, mote_id: int) -> None:
        """Return ``mote_id``'s slot to the free list, state reset.

        The reset matters: a recycled slot must read as free to any stale
        fancy-index that still names it (the channel drops those caches on
        detach, but the reset makes the failure mode inert rather than
        silently wrong).
        """
        slot = self.slot_of.pop(mote_id)
        self.attach_seq[slot] = -1
        self.mote_ids[slot] = -1
        self._free.append(slot)

    def set_position(self, slot: int, position: Position) -> None:
        self.positions[slot, 0] = position[0]
        self.positions[slot, 1] = position[1]

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        positions = np.zeros((new, 2), dtype=np.float64)
        positions[:old] = self.positions
        self.positions = positions
        self.attach_seq = np.concatenate(
            [self.attach_seq, np.full(old, -1, dtype=np.int64)]
        )
        self.mote_ids = np.concatenate(
            [self.mote_ids, np.full(old, -1, dtype=np.int64)]
        )
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new
