"""The radio field: per-node state as contiguous numpy arrays.

The channel's delivery fan-out used to read each receiver's state through
Python attribute chains — ``radio._enabled``, ``radio._current_tx.start`` —
one hop per hearer per frame.  :class:`RadioField` is the array-of-structs
replacement: every attached radio owns a dense *slot* into a set of
parallel arrays, and the fan-out becomes boolean-mask arithmetic over
fancy-indexed views.  The columns are exactly what the fan-out and the
hearer queries read:

* ``positions`` — N×2 metres, for the vectorized in-range mask and PRRs;
* ``eligible_key`` — power and in-flight transmission fused into one
  int64 comparand (see :data:`ELIGIBLE_NEVER`);
* ``attach_seq`` — the sort key that orders hearer lists;
* ``frames_received`` — the vector fan-out's reception tallies;
* ``mote_ids`` — each slot's owner (-1 when free), inverted by the
  ``slot_of`` dict: the fan-out works in slot space, but delivery hands
  frames to mote objects.

The field is not an independent source of truth so much as a *mirror* with
array layout: it is written through exactly the hooks that already re-key
the spatial hearer index and invalidate the :class:`LinkCache` —

* :meth:`Channel.attach` / :meth:`Channel.detach` → :meth:`allocate` /
  :meth:`release`;
* :meth:`Channel.move` → :meth:`set_position` (same three assignment
  points that re-key the spatial hash);
* ``Radio.enabled`` setter → :meth:`set_enabled`;
* ``Radio._begin_tx`` / ``Radio._end_tx`` → :meth:`begin_tx` /
  :meth:`end_tx`.

Slots are recycled LIFO on release, so the arrays stay dense under churn:
``N`` live radios occupy at most ``max(N over time)`` slots, and capacity
only ever doubles.

Two scratch arrays ride along (``scratch_bool``, ``scratch_prr``) sized to
capacity: the vector fan-out uses them for collision marking and override
scattering without allocating per frame, resetting only the entries it
touched.
"""

from __future__ import annotations

from repro.radio._np import np
from repro.radio.linkmodels import Position

#: ``eligible_key`` encodes receiver eligibility as a single int64 so the
#: fan-out's "powered and not mid-transmission during [start, end)" test is
#: one gather and one compare (``eligible_key >= end``) instead of three
#: gathers and four array ops:
#:
#: * disabled            → ``ELIGIBLE_NEVER``  (less than any frame end)
#: * enabled, idle       → ``ELIGIBLE_IDLE``   (greater than any sim time)
#: * enabled, mid-tx     → its ``tx_start``
#:
#: The collapse to one comparand is sound because an in-flight receiver
#: transmission always ends no earlier than the delivering frame's
#: end-of-airtime (its end event has not fired, so its end ``>= now == end
#: > start``), leaving ``tx_start >= end`` as the only way the two-sided
#: half-duplex overlap test could pass.
ELIGIBLE_NEVER = -(1 << 62)
ELIGIBLE_IDLE = 1 << 62

_INITIAL_CAPACITY = 16


class RadioField:
    """Dense slot-indexed arrays of per-radio physical state."""

    __slots__ = (
        "capacity",
        "positions",
        "eligible_key",
        "attach_seq",
        "frames_received",
        "mote_ids",
        "slot_of",
        "scratch_bool",
        "scratch_prr",
        "_free",
    )

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        self.capacity = max(int(capacity), 1)
        self.positions = np.zeros((self.capacity, 2), dtype=np.float64)
        #: Fused eligibility comparand (see :data:`ELIGIBLE_NEVER`), kept in
        #: step with the radio's power and transmissions by the hooks below.
        self.eligible_key = np.full(self.capacity, ELIGIBLE_NEVER, dtype=np.int64)
        #: Attach order (monotone per channel; -1 when free): the sort key
        #: that makes the vectorized hearer query's ordering identical to
        #: the scalar list sort.
        self.attach_seq = np.full(self.capacity, -1, dtype=np.int64)
        #: Frames delivered to the slot's radio by the *vectorized* fan-out
        #: (one fancy ``+= 1`` per frame instead of a Python loop).  A
        #: radio's total is this plus its scalar-path tally; folded back
        #: into the radio on release.
        self.frames_received = np.zeros(self.capacity, dtype=np.int64)
        self.mote_ids = np.full(self.capacity, -1, dtype=np.int64)
        #: mote id -> slot, the inverse of ``mote_ids``.
        self.slot_of: dict[int, int] = {}
        self.scratch_bool = np.zeros(self.capacity, dtype=bool)
        self.scratch_prr = np.full(self.capacity, np.nan, dtype=np.float64)
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
        self.positions[slot, 0] = position[0]
        self.positions[slot, 1] = position[1]
        self.eligible_key[slot] = ELIGIBLE_IDLE
        self.attach_seq[slot] = attach_seq
        self.frames_received[slot] = 0
        self.mote_ids[slot] = mote_id
        self.slot_of[mote_id] = slot
        return slot

    def release(self, mote_id: int) -> None:
        """Return ``mote_id``'s slot to the free list, state zeroed.

        The reset matters: a recycled slot must read as disabled and idle to
        any stale fancy-index that still names it (the channel drops those
        caches on detach, but the reset makes the failure mode inert rather
        than silently wrong).
        """
        slot = self.slot_of.pop(mote_id)
        self.eligible_key[slot] = ELIGIBLE_NEVER
        self.attach_seq[slot] = -1
        self.frames_received[slot] = 0
        self.mote_ids[slot] = -1
        self._free.append(slot)

    # ------------------------------------------------------------------
    # Sync hooks (mirrors of the scalar state the channel already maintains)
    # ------------------------------------------------------------------
    def set_position(self, slot: int, position: Position) -> None:
        self.positions[slot, 0] = position[0]
        self.positions[slot, 1] = position[1]

    def set_enabled(self, slot: int, up: bool, tx_start: int | None) -> None:
        """Power toggle; ``tx_start`` is the radio's own in-flight
        transmission start, or ``None`` when it is not sending."""
        if not up:
            self.eligible_key[slot] = ELIGIBLE_NEVER
        elif tx_start is not None:
            self.eligible_key[slot] = tx_start
        else:
            self.eligible_key[slot] = ELIGIBLE_IDLE

    def begin_tx(self, slot: int, start: int) -> None:
        if self.eligible_key[slot] != ELIGIBLE_NEVER:  # a powered-down radio stays off
            self.eligible_key[slot] = start

    def end_tx(self, slot: int) -> None:
        if self.eligible_key[slot] != ELIGIBLE_NEVER:
            self.eligible_key[slot] = ELIGIBLE_IDLE

    # ------------------------------------------------------------------
    def slots_of(self, mote_ids: list[int]) -> "np.ndarray":
        """Dense slot array for a list of mote ids (fan-out's index base)."""
        slot_of = self.slot_of
        return np.fromiter(
            (slot_of[mote_id] for mote_id in mote_ids),
            dtype=np.intp,
            count=len(mote_ids),
        )

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        positions = np.zeros((new, 2), dtype=np.float64)
        positions[:old] = self.positions
        self.positions = positions
        self.eligible_key = np.concatenate(
            [self.eligible_key, np.full(old, ELIGIBLE_NEVER, dtype=np.int64)]
        )
        self.attach_seq = np.concatenate(
            [self.attach_seq, np.full(old, -1, dtype=np.int64)]
        )
        self.frames_received = np.concatenate(
            [self.frames_received, np.zeros(old, dtype=np.int64)]
        )
        self.mote_ids = np.concatenate(
            [self.mote_ids, np.full(old, -1, dtype=np.int64)]
        )
        self.scratch_bool = np.zeros(new, dtype=bool)
        self.scratch_prr = np.full(new, np.nan, dtype=np.float64)
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new
