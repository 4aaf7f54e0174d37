"""The shared wireless medium: CSMA radios, airtime, loss and collisions.

All attached radios share one broadcast channel, like the paper's tabletop
testbed where every mote hears every other.  Each :class:`Radio` implements a
TinyOS-style CSMA MAC: random initial backoff, carrier sense, congestion
backoff, then transmission.  A frame occupies the medium for its serialized
length divided by the effective bitrate (CC1000: 38.4 kbaud Manchester ⇒
19.2 kbps of data).

Reception is decided per receiver at end-of-frame:

* the receiver must be attached, enabled, in range and not transmitting;
* any *other* transmission audible at the receiver overlapping this frame
  corrupts it (collision);
* otherwise an independent Bernoulli draw with the link's PRR (optionally
  overridden per mote pair for failure injection) decides delivery.

Above :data:`VECTOR_FANOUT_MIN` hearers the whole reception decision runs
*vectorized*: per-receiver state comes from the :class:`RadioField` arrays
(fancy-indexed by cached hearer slots), eligibility and collisions are
boolean masks, PRRs come from the link cache's dense row vector, and all
loss draws collapse into one ``rng.random_vector(n)`` call.  The
:class:`~repro.radio.rngshim.CompatRng` stream shim guarantees that vector
draw consumes the MT19937 stream exactly like the scalar per-receiver loop,
so fixed-seed runs are bit-identical whichever path a frame takes.

Carrier sense is one early-exit scan: ``busy_for`` walks the handful of
on-air transmissions and stops at the first one audible at the sensing
radio (nothing on the air costs one list check).  The hearer queries are
array-native: ``hearers()`` builds its audience from spatial-hash cells kept
as field-slot lists — concatenate, one vectorized ``in_range_mask``, one
argsort by attach sequence.  Neither consumes RNG, so they cannot perturb a
fixed-seed stream at all; the hypothesis interleaving property pins
``busy_for`` == a naive every-transmission walk after every mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import RadioError
from repro.mote.mote import Mote
from repro.radio._np import np
from repro.radio.field import RadioField
from repro.radio.frame import Frame
from repro.radio.linkcache import LinkCache
from repro.radio.linkmodels import LinkModel, Position, UniformLossLinks
from repro.radio.rngshim import CompatRng
from repro.sim.kernel import Simulator

#: CC1000 effective data rate after Manchester encoding (bits/second).
EFFECTIVE_BITRATE = 19_200

#: Audience size at which :meth:`Channel.end_transmission` switches from the
#: scalar per-receiver loop to the vectorized field pass.  Both paths consume
#: the RNG stream identically, so this is purely a throughput knob: numpy's
#: per-call overhead (~8 array ops + one vector draw) only amortizes once the
#: fan-out is wide enough.  Fusing the eligibility gathers into the single
#: ``eligible_key`` compare, batching cache fills, and keeping the whole
#: pass in slot space (no index-array materialization) put the measured
#: break-even at 16 hearers (warm cache, ``bench fanout`` break-even sweep —
#: see ``results/fanout.txt``); audiences below that stay on the scalar
#: loop, where the early-exit dict row is still faster.  End to end the
#: traced benchmark runs fan out 100% vector on ``flood-dense`` and 0% on
#: ``flood-mobile``, so both paths carry a workload.
VECTOR_FANOUT_MIN = 16

#: Unused (carrier sense has one path); kept because perfbench's manifest reports it.
VECTOR_SENSE_MIN = 16


@dataclass
class MacParams:
    """CSMA timing (microseconds), mirroring the TinyOS CC1000 stack."""

    initial_backoff: tuple[int, int] = (400, 12_800)
    congestion_backoff: tuple[int, int] = (800, 25_600)
    max_attempts: int = 16


@dataclass
class Transmission:
    radio: "Radio"
    frame: Frame
    start: int
    end: int
    #: Other transmissions whose airtime intersects this one's, collected
    #: incrementally while both are on the air (see
    #: :meth:`Channel.begin_transmission`) — the collision set, precomputed,
    #: so end-of-frame never scans transmission history.
    overlaps: list["Transmission"] | None = None
    #: Fault injection: a corrupted frame occupies the air (carrier sense and
    #: collision accounting stay exact) but fails CRC at every receiver, so
    #: end-of-frame skips the delivery fan-out entirely.
    corrupted: bool = False


class Radio:
    """One mote's CC1000 transceiver with a CSMA MAC."""

    def __init__(self, channel: "Channel", mote: Mote, position: Position):
        self.channel = channel
        self.mote = mote
        self.position = position
        self._enabled = True
        #: Callbacks invoked with the new power state whenever ``enabled``
        #: actually flips.  Lets periodic services (beacons) suspend while
        #: the radio sleeps instead of firing and no-op'ing every period.
        self.power_listeners: list[Callable[[bool], None]] = []
        self._receive_callback: Callable[[Frame], None] | None = None
        self._current_tx: Transmission | None = None
        self._send_pending = False
        self._pending_carrier_sense = None  # armed backoff's EventHandle; None once fired
        self._attach_seq = 0  # set by Channel.attach; orders hearer lists
        self._slot: int | None = None  # RadioField slot; None once detached
        # Statistics used by the benchmarks.  Receptions are split between
        # this scalar tally and the field's ``frames_received`` array (the
        # vectorized fan-out increments slots in bulk); the property below
        # presents the sum.
        self.frames_sent = 0
        self._frames_received = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Is the radio powered?  Assigning notifies ``power_listeners``."""
        return self._enabled

    @enabled.setter
    def enabled(self, up: bool) -> None:
        up = bool(up)
        if up == self._enabled:
            return
        self._enabled = up
        if self._slot is not None:
            tx = self._current_tx
            self.channel.field.set_enabled(
                self._slot, up, None if tx is None else tx.start
            )
        if not up and self._send_pending and self._pending_carrier_sense is not None:
            # The armed backoff will now abort the send (completion callbacks
            # touch protocol and scheduling state): it is no longer benign to
            # overrun, so re-classify it for the run-slice guard.
            self.sim.mark_hazard(self._pending_carrier_sense)
        for listener in list(self.power_listeners):
            listener(up)

    @property
    def sim(self) -> Simulator:
        return self.channel.sim

    @property
    def frames_received(self) -> int:
        slot = self._slot
        if slot is None:
            return self._frames_received
        return self._frames_received + int(self.channel.field.frames_received[slot])

    @frames_received.setter
    def frames_received(self, value: int) -> None:
        slot = self._slot
        if slot is not None:
            self.channel.field.frames_received[slot] = 0
        self._frames_received = int(value)

    def set_receive_callback(self, callback: Callable[[Frame], None]) -> None:
        """Install the link-layer receive handler (one per radio)."""
        # The channel counts installed handlers so the vector fan-out can
        # skip the per-receiver callback loop outright on handler-free
        # fields (benchmark rigs, ghost-only seams).
        if (callback is None) != (self._receive_callback is None):
            self.channel._receive_callbacks += 1 if callback is not None else -1
        self._receive_callback = callback

    @property
    def sending(self) -> bool:
        return self._send_pending

    def send(self, frame: Frame, on_done: Callable[[bool], None] | None = None) -> None:
        """Transmit one frame via CSMA; ``on_done(sent)`` fires at TX end.

        ``sent=False`` means the MAC gave up after exhausting congestion
        backoffs (or the radio is disabled).  Only one send may be in flight;
        the network stack supplies queueing.
        """
        if self._send_pending:
            raise RadioError(f"radio {self.mote.id} already has a send in flight")
        if not self.enabled:
            if on_done is not None:
                self.sim.call_now(on_done, False)
            return
        self._send_pending = True
        self._attempt_send(frame, on_done, attempt=0, backoff=self.channel.mac.initial_backoff)

    def _attempt_send(
        self,
        frame: Frame,
        on_done: Callable[[bool], None] | None,
        attempt: int,
        backoff: tuple[int, int],
    ) -> None:
        delay = self.channel.rng.randint(*backoff)
        # Backoff/carrier-sense events read and mutate only the shared air
        # (which no batched agent instruction touches): benign, so a pending
        # backoff on one mote never suspends a run-slice — *unless* this
        # attempt could terminate the send (MAC give-up), whose completion
        # callbacks reach protocol state and agent scheduling.  A mid-send
        # radio power-down re-classifies the pending event (see ``enabled``).
        benign = attempt + 1 < self.channel.mac.max_attempts
        self._pending_carrier_sense = self.sim.schedule(
            delay, self._carrier_sense, frame, on_done, attempt, benign=benign
        )

    def _carrier_sense(
        self, frame: Frame, on_done: Callable[[bool], None] | None, attempt: int
    ) -> None:
        # Disarmed as it fires: the shard lookahead (ShardWorker.horizon)
        # reads a non-None handle as a carrier sense still to come.
        self._pending_carrier_sense = None
        if not self.enabled:
            self._finish_send(on_done, False)
            return
        if self.channel.busy_for(self):
            if attempt + 1 >= self.channel.mac.max_attempts:
                self.channel.mac_giveups += 1
                self._finish_send(on_done, False)
                return
            self._attempt_send(
                frame, on_done, attempt + 1, self.channel.mac.congestion_backoff
            )
            return
        self._begin_tx(frame, on_done)

    def _begin_tx(self, frame: Frame, on_done: Callable[[bool], None] | None) -> None:
        airtime = self.channel.airtime_us(frame)
        tx = Transmission(self, frame, self.sim.now, self.sim.now + airtime)
        self._current_tx = tx
        if self._slot is not None:
            self.channel.field.begin_tx(self._slot, tx.start)
        self.frames_sent += 1
        self.bytes_sent += frame.air_bytes
        self.channel.begin_transmission(tx)
        self.sim.schedule_at(tx.end, self._end_tx, tx, on_done)

    def _end_tx(self, tx: Transmission, on_done: Callable[[bool], None] | None) -> None:
        self._current_tx = None
        if self._slot is not None:
            self.channel.field.end_tx(self._slot)
        self.channel.end_transmission(tx)
        self._finish_send(on_done, True)

    def _finish_send(self, on_done: Callable[[bool], None] | None, sent: bool) -> None:
        self._send_pending = False
        if on_done is not None:
            on_done(sent)

    # ------------------------------------------------------------------
    def transmitting_during(self, start: int, end: int) -> bool:
        """Half-duplex check: was this radio transmitting in [start, end)?"""
        tx = self._current_tx
        return tx is not None and tx.start < end and tx.end > start

    def deliver(self, frame: Frame) -> None:
        """Hand a successfully received frame to the link-layer handler."""
        self._frames_received += 1
        if self._receive_callback is not None:
            self._receive_callback(frame)


class Channel:
    """The broadcast medium shared by all attached radios.

    Delivery and carrier sense are O(degree), not O(N): the channel keeps a
    cached *hearer index* — for each radio, the list of radios its link model
    can reach — built lazily from a spatial hash over radio positions (cell
    size = radio range) and invalidated whenever a radio attaches or the link
    model is replaced.

    Mobile deployments mutate the index *incrementally*: :meth:`move` re-keys
    the moved radio's spatial-hash cell and drops only the cached hearer lists
    whose in-range relation to it can have changed (the radios within one cell
    of its old or new position — O(degree) work), and :meth:`detach` does the
    same for a departing radio.  ``full_invalidations`` counts whole-index
    rebuild triggers and ``index_moves`` counts incremental re-keys, so tests
    and benchmarks can assert that a mobility tick never degenerates into a
    full rebuild.

    Per-pair PRRs are memoized in :attr:`link_cache` and invalidated on the
    same hooks (move, detach, link-model swap), so steady-state delivery does
    one dict lookup per receiver instead of re-deriving link quality from
    geometry on every frame.  ``prr_overrides`` bypass the cache entirely:
    failure injection applies to the very next delivery, warm cache or not.
    """

    def __init__(
        self,
        sim: Simulator,
        link_model: LinkModel | None = None,
        bitrate: int = EFFECTIVE_BITRATE,
        mac: MacParams | None = None,
        grid_spacing_m: float = 0.3,
    ):
        self.sim = sim
        self._link_model = link_model if link_model is not None else UniformLossLinks()
        self.bitrate = bitrate
        self.mac = mac if mac is not None else MacParams()
        #: Physical meters per grid unit.  The paper's testbed is a tabletop:
        #: motes centimeters apart, all within radio range of each other.
        self.grid_spacing_m = grid_spacing_m
        #: The channel's RNG stream.  Seeded exactly like the stdlib stream
        #: ``sim.rng("channel")`` used to be, but served by the numpy-backed
        #: :class:`CompatRng` so the delivery fan-out can draw all Bernoulli
        #: outcomes in one vector call without perturbing the word sequence.
        self.rng = CompatRng(f"{sim.seed}/channel")
        self._radios: dict[int, Radio] = {}
        self._attach_counter = 0
        #: Contiguous per-radio state (positions, power, tx intervals) for
        #: the vectorized fan-out, mirrored through the same hooks that
        #: maintain the hearer index (see :mod:`repro.radio.field`).
        self.field = RadioField()
        #: The handful of transmissions currently on the air: what carrier
        #: sense scans, and the source of each new frame's overlap set.  A
        #: radio that detaches mid-flight leaves its frame here until the
        #: frame's end event fires (the energy already left the antenna).
        self._on_air: list[Transmission] = []
        # Hearer index: mote id -> radios in range of that transmitter, in
        # attach order (kept as list for iteration plus id-set for membership
        # plus field-slot array for the vectorized fan-out).  All three are
        # dropped by exactly the same attach/move/detach/model hooks.
        self._hearers: dict[int, list[Radio]] = {}
        self._hearer_ids: dict[int, frozenset[int]] = {}
        self._hearer_slots: dict[int, "np.ndarray"] = {}
        #: Spatial hash: cell -> field slots of the radios in it (cell size =
        #: radio range), the index base a hearer query concatenates.
        self._cells: dict[tuple[int, int], list[int]] | None = None
        self._cell_size: float = 0.0
        #: Fan-out width at which delivery switches to the vectorized pass.
        #: Tunable per channel (benchmarks force both paths with it).
        self.vector_fanout_min = VECTOR_FANOUT_MIN
        #: Installed receive handlers (see Radio.set_receive_callback).
        self._receive_callbacks = 0
        #: Memoized per-pair PRRs (see :mod:`repro.radio.linkcache`).
        self.link_cache = LinkCache(self._link_model, self.field)
        #: Per (src mote id, dst mote id) PRR override for failure injection.
        #: Consulted *before* the link cache on every delivery, so an override
        #: installed while frames are already in flight still applies to the
        #: next reception decision.
        self.prr_overrides: dict[tuple[int, int], float] = {}
        #: Optional observer invoked with each :class:`Transmission` the
        #: moment it goes on the air (after the overlap bookkeeping).  The
        #: sharded runtime hooks this to capture boundary-mote frames for
        #: replay in adjacent shards; ``None`` costs one comparison per frame.
        self.on_transmission: Callable[[Transmission], None] | None = None
        # Statistics.
        self.frames_transmitted = 0
        self.collisions = 0
        self.prr_drops = 0
        self.corrupted_frames = 0
        self.mac_giveups = 0
        #: Carrier-sense counters: idle early-outs (nothing on the air) and
        #: on-air scans.
        self.sense_idle = 0
        self.sense_scalar = 0
        #: Always 0 (carrier sense has no vector path); perfbench still reads it.
        self.sense_vector = 0
        self.full_invalidations = 0
        self.index_moves = 0
        #: Bytes sent by radios that have since detached, so totals summed
        #: over live radios stay monotonic across departures.
        self.retired_bytes_sent = 0

    # ------------------------------------------------------------------
    @property
    def link_model(self) -> LinkModel:
        return self._link_model

    @link_model.setter
    def link_model(self, model: LinkModel) -> None:
        self._link_model = model
        self.link_cache.swap_model(model)
        self.invalidate_neighbor_index()

    def attach(self, mote: Mote, position: Position | None = None) -> Radio:
        """Attach a mote's radio, defaulting its physical position to its
        grid location scaled by ``grid_spacing_m``."""
        if mote.id in self._radios:
            raise RadioError(f"mote id {mote.id} already attached")
        if position is None:
            position = (
                mote.location.x * self.grid_spacing_m,
                mote.location.y * self.grid_spacing_m,
            )
        radio = Radio(self, mote, position)
        radio._attach_seq = self._attach_counter
        self._attach_counter += 1
        self._radios[mote.id] = radio
        radio._slot = self.field.allocate(
            mote.id, position, attach_seq=radio._attach_seq
        )
        mote.radio = radio
        # A re-used mote id (detach then re-attach) must not inherit the
        # departed radio's cached link quality.
        self.link_cache.invalidate(mote.id)
        self.invalidate_neighbor_index()
        return radio

    # ------------------------------------------------------------------
    # In-range neighbor index
    # ------------------------------------------------------------------
    def invalidate_neighbor_index(self) -> None:
        """Drop the cached in-range index (new radio or new link model)."""
        self.full_invalidations += 1
        self._hearers.clear()
        self._hearer_ids.clear()
        self._hearer_slots.clear()
        self._cells = None

    def _drop_cached(self, mote_id: int) -> None:
        self._hearers.pop(mote_id, None)
        self._hearer_ids.pop(mote_id, None)
        self._hearer_slots.pop(mote_id, None)

    def _drop_cached_near(self, position: Position) -> None:
        """Drop the cached hearer lists of every radio within one cell of
        ``position`` — the only caches a change at ``position`` can affect,
        since audibility is bounded by the cell size (= radio range)."""
        assert self._cells is not None
        mote_ids = self.field.mote_ids
        cx, cy = self._cell_of(position)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for slot in self._cells.get((cx + dx, cy + dy), ()):
                    self._drop_cached(int(mote_ids[slot]))

    def move(self, mote_id: int, position: Position) -> None:
        """Move a radio to a new physical position, re-keying incrementally.

        Only the moved radio's spatial-hash bucket and the cached hearer lists
        around its old and new positions are touched — O(local density), never
        a full index rebuild.  (With an unbounded link model there is no
        spatial hash to re-key, so the whole index is invalidated instead.)
        """
        radio = self._radios.get(mote_id)
        if radio is None:
            raise RadioError(f"cannot move unknown mote id {mote_id}")
        old = radio.position
        if old == position:
            return
        # The mover's link quality changed toward *everyone*: drop exactly
        # the cached PRR pairs it participates in, whatever happens to the
        # spatial hash below.
        self.link_cache.invalidate(mote_id)
        # The field mirror only feeds end-of-frame reads, so one write up
        # front covers every branch below (attached radios always hold a slot).
        self.field.set_position(radio._slot, position)
        if self._cells is None:
            radio.position = position  # index not built yet: nothing to re-key
            return
        if self._cell_size <= 0.0:
            radio.position = position  # single-bucket fallback (unknown range)
            self.invalidate_neighbor_index()
            return
        self._drop_cached_near(old)
        old_cell = self._cell_of(old)
        radio.position = position
        new_cell = self._cell_of(position)
        if new_cell != old_cell:
            bucket = self._cells[old_cell]
            bucket.remove(radio._slot)
            if not bucket:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, []).append(radio._slot)
            # Same-cell moves share the old position's 9-cell ring, already
            # dropped above; only a cell crossing exposes new lists.
            self._drop_cached_near(position)
        self._drop_cached(mote_id)
        self.index_moves += 1

    def detach(self, mote_id: int) -> Radio:
        """Remove a radio from the medium (node death / departure).

        The radio is disabled, dropped from the spatial hash, and every cached
        hearer list that could contain it is invalidated — incrementally, like
        :meth:`move`.  A frame already on the air from the departing radio
        still finishes (the energy left the antenna).
        """
        radio = self._radios.pop(mote_id, None)
        if radio is None:
            raise RadioError(f"cannot detach unknown mote id {mote_id}")
        radio.enabled = False
        self.link_cache.invalidate(mote_id)
        self.retired_bytes_sent += radio.bytes_sent
        if self._cells is not None:
            if self._cell_size <= 0.0:
                self.invalidate_neighbor_index()
            else:
                self._drop_cached_near(radio.position)
                cell = self._cell_of(radio.position)
                bucket = self._cells.get(cell)
                if bucket is not None and radio._slot in bucket:
                    bucket.remove(radio._slot)
                    if not bucket:
                        del self._cells[cell]
        self._drop_cached(mote_id)
        # Fold the vector-path reception tally back into the radio before
        # its slot (and the array entry) is recycled.
        radio._frames_received += int(self.field.frames_received[radio._slot])
        # Free the field slot last: the ``enabled`` setter above still wrote
        # through it.  The released slot reads disabled/idle until reused.
        self.field.release(mote_id)
        radio._slot = None
        return radio

    def _ensure_cells(self) -> None:
        """(Re)build the spatial hash: cell size = radio range, so any pair
        within range lands in the same or an adjacent cell.  Buckets hold
        *field slots*, so a hearer query concatenates them straight into a
        fancy index over the field arrays."""
        if self._cells is not None:
            return
        range_m = getattr(self._link_model, "range_m", None)
        cells: dict[tuple[int, int], list[int]] = {}
        if range_m is None or not (range_m > 0.0) or not math.isfinite(range_m):
            # Unknown reach: one bucket, candidates degrade to all radios.
            self._cell_size = 0.0
            cells[(0, 0)] = [radio._slot for radio in self._radios.values()]
        else:
            self._cell_size = float(range_m)
            for radio in self._radios.values():
                cells.setdefault(self._cell_of(radio.position), []).append(
                    radio._slot
                )
        self._cells = cells

    def _cell_of(self, position: Position) -> tuple[int, int]:
        if self._cell_size <= 0.0:
            return (0, 0)
        return (
            math.floor(position[0] / self._cell_size),
            math.floor(position[1] / self._cell_size),
        )

    def _candidate_buckets(self, position: Position) -> list[list[int]]:
        """The spatial-hash slot buckets a radio at ``position`` could hear
        across (its own cell and the 8 surrounding ones)."""
        assert self._cells is not None
        if self._cell_size <= 0.0:
            bucket = self._cells.get((0, 0))
            return [bucket] if bucket else []
        cx, cy = self._cell_of(position)
        cells = self._cells
        buckets = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx + dx, cy + dy))
                if bucket:
                    buckets.append(bucket)
        return buckets

    def _selected_slots(self, position: Position, own_slot: int | None) -> "np.ndarray":
        """Field slots within link range of ``position`` (excluding
        ``own_slot``), sorted by attach sequence: one concatenation, one
        vectorized distance mask, one argsort.  Requires a link model with
        the ``in_range_mask`` hook."""
        buckets = self._candidate_buckets(position)
        count = sum(len(bucket) for bucket in buckets)
        field = self.field
        candidates = np.fromiter(
            (slot for bucket in buckets for slot in bucket),
            dtype=np.intp,
            count=count,
        )
        mask = self._link_model.in_range_mask(position, field.positions[candidates])
        if own_slot is not None:
            mask &= candidates != own_slot
        selected = candidates[mask]
        return selected[np.argsort(field.attach_seq[selected])]

    def hearers(self, radio: Radio) -> list[Radio]:
        """Radios the link model lets hear ``radio``, in attach order."""
        mote_id = radio.mote.id
        cached = self._hearers.get(mote_id)
        if cached is not None:
            return cached
        self._ensure_cells()
        if hasattr(self._link_model, "in_range_mask"):
            slots = self._selected_slots(radio.position, radio._slot)
            radios = self._radios
            ids = self.field.mote_ids[slots].tolist()
            audience = [radios[mote] for mote in ids]
            self._hearer_slots[mote_id] = slots
            self._hearer_ids[mote_id] = frozenset(ids)
        else:
            # Scalar fallback for link models without the vector hook.
            in_range = self._link_model.in_range
            position = radio.position
            radios = self._radios
            mote_ids = self.field.mote_ids
            audience = [
                other
                for bucket in self._candidate_buckets(position)
                for slot in bucket
                if (other := radios[int(mote_ids[slot])]) is not radio
                and in_range(position, other.position)
            ]
            audience.sort(key=lambda r: r._attach_seq)
            self._hearer_ids[mote_id] = frozenset(r.mote.id for r in audience)
        self._hearers[mote_id] = audience
        return audience

    def _can_hear(self, src: Radio, dst: Radio) -> bool:
        """Is ``src``'s carrier audible at ``dst``?  O(1) after caching."""
        if src.mote.id not in self._hearer_ids:
            self.hearers(src)
        return dst.mote.id in self._hearer_ids[src.mote.id]

    def radio_for(self, mote_id: int) -> Radio | None:
        return self._radios.get(mote_id)

    @property
    def radios(self) -> list[Radio]:
        return list(self._radios.values())

    def airtime_us(self, frame: Frame) -> int:
        """Microseconds the frame occupies the medium."""
        return round(frame.air_bytes * 8 * 1_000_000 / self.bitrate)

    # ------------------------------------------------------------------
    def busy_for(self, radio: Radio) -> bool:
        """Carrier sense: is any transmission audible at ``radio`` in progress?

        Nothing on the air is the common case and costs one list check.
        Otherwise one scan of the on-air list (a handful of frames) returns
        at the first active frame another radio is sending within earshot;
        in a busy cell that is the first frame probed.  A radio that
        detached mid-flight keeps its frame on the list until the frame's
        end event, so the scan still hears it.  No RNG is drawn.
        """
        on_air = self._on_air
        if not on_air:
            self.sense_idle += 1
            return False
        self.sense_scalar += 1
        now = self.sim.now
        for tx in on_air:
            if (
                tx.start <= now < tx.end
                and tx.radio is not radio
                and self._can_hear(tx.radio, radio)
            ):
                return True
        return False

    def begin_transmission(self, tx: Transmission) -> None:
        """Put a frame on the air, recording mutual overlaps incrementally.

        Two transmissions overlap iff one is still on the air when the other
        begins (a radio's own sends are serialized, so they never overlap
        each other).  Registering the intersection here — O(on-air) per
        frame — means end-of-frame reads its collision set off the
        transmission instead of scanning recent history.
        """
        for other in self._on_air:
            # ``other.end > tx.start`` guards the same-microsecond boundary:
            # a frame whose end-of-transmission event is queued for this very
            # tick is finished physics, not an overlap.
            if other.radio is not tx.radio and other.end > tx.start:
                if other.overlaps is None:
                    other.overlaps = []
                other.overlaps.append(tx)
                if tx.overlaps is None:
                    tx.overlaps = []
                tx.overlaps.append(other)
        self._on_air.append(tx)
        self.frames_transmitted += 1
        if self.on_transmission is not None:
            self.on_transmission(tx)

    def end_transmission(self, tx: Transmission) -> None:
        """Frame finished: decide reception independently per receiver.

        Only the transmitter's cached hearer list is visited — O(degree) per
        frame — never the full radio population.  The fan-out is *batched*:
        receiver eligibility (powered, not mid-transmission, not collided),
        PRR resolution — overrides first, then the memoized link cache — and
        the Bernoulli loss draws are all decided before any surviving frame
        is handed up the stacks, which also means nothing a handler does can
        alter this frame's own outcomes.

        Narrow audiences take the scalar per-receiver loop; at
        :attr:`vector_fanout_min` hearers and above the same three passes run
        as array operations over the :class:`RadioField` (boolean masks for
        eligibility/collisions, a dense PRR row vector, one
        ``random_vector(n)`` draw).  Both paths consume the RNG stream in the
        exact per-receiver attach order — one double per eligible receiver —
        so fixed-seed runs are bit-identical regardless of which path each
        frame takes.

        The transmissions that overlap ``tx`` were recorded while both were
        on the air (:meth:`begin_transmission`), so the collision check scans
        a precomputed (usually absent or tiny) overlap list and never touches
        transmission history.
        """
        self._on_air.remove(tx)
        if tx.corrupted:
            # Injected corruption: the frame jammed the medium for its full
            # airtime but no receiver passes CRC — no eligibility checks, no
            # RNG draws, no deliveries.
            self.corrupted_frames += 1
            return
        hearers = self.hearers(tx.radio)
        if not hearers:
            return  # nobody in range: skip the fan-out entirely
        if len(hearers) >= self.vector_fanout_min:
            self._fan_out_vector(tx, hearers)
        else:
            self._fan_out_scalar(tx, hearers)

    def _fan_out_scalar(self, tx: Transmission, hearers: list[Radio]) -> None:
        """The per-receiver delivery loop, optimal for narrow audiences."""
        # Resolve each overlapping transmitter's hearer-id set once up front:
        # the set is shared by all receivers, so the per-receiver collision
        # check becomes a set membership.
        overlapping = None
        start, end = tx.start, tx.end
        if tx.overlaps:
            for other in tx.overlaps:
                other_id = other.radio.mote.id
                if other_id not in self._hearer_ids:
                    self.hearers(other.radio)
                if overlapping is None:
                    overlapping = []
                overlapping.append((other.radio, self._hearer_ids[other_id]))
        # Pass 1: who can receive at all.
        receivers = None
        for radio in hearers:
            if not radio._enabled:
                continue
            receiver_tx = radio._current_tx
            if receiver_tx is not None and receiver_tx.start < end and receiver_tx.end > start:
                continue  # half-duplex: was busy sending
            if overlapping is not None:
                # Inlined collision check (hot at high contention): another
                # frame audible at this receiver — or the receiver's own
                # just-finished transmission — corrupts the reception.
                receiver_id = radio.mote.id
                collided = False
                for other_radio, audible_ids in overlapping:
                    if other_radio is radio or receiver_id in audible_ids:
                        collided = True
                        break
                if collided:
                    self.collisions += 1
                    continue
            if receivers is None:
                receivers = []
            receivers.append(radio)
        if receivers is None:
            return
        # Pass 2: link quality (override ▸ cache ▸ model) and loss draws.
        tx_id = tx.radio.mote.id
        tx_position = tx.radio.position
        overrides = self.prr_overrides
        cache = self.link_cache
        cache_row = cache.row(tx_id)
        random = self.rng.random
        delivered = None
        for radio in receivers:
            dst_id = radio.mote.id
            prr = overrides.get((tx_id, dst_id)) if overrides else None
            if prr is None:
                prr = cache_row.get(dst_id)
                if prr is None:
                    prr = cache.fill(tx_id, tx_position, dst_id, radio.position)
                else:
                    cache.cache_hits += 1
            if random() >= prr:
                self.prr_drops += 1
                continue
            if delivered is None:
                delivered = []
            delivered.append(radio)
        if delivered is None:
            return
        # Pass 3: the batched hand-off (receive callbacks run last).
        # Inlines Radio.deliver: one function hop per reception matters at
        # 1000 nodes where fan-out is the profile's top line.
        frame = tx.frame
        for radio in delivered:
            radio._frames_received += 1
            callback = radio._receive_callback
            if callback is not None:
                callback(frame)

    # ------------------------------------------------------------------
    # Vectorized fan-out
    # ------------------------------------------------------------------
    def _slots_for(self, tx_id: int, audience: list[Radio]) -> "np.ndarray":
        """Field-slot array for a cached hearer list, memoized alongside it.

        ``_hearer_slots`` is dropped by exactly the hooks that drop
        ``_hearers`` (and slots are stable for the lifetime of an
        attachment), so a cached array is always consistent with the list.
        """
        slots = self._hearer_slots.get(tx_id)
        if slots is None:
            slots = self.field.slots_of([r.mote.id for r in audience])
            self._hearer_slots[tx_id] = slots
        return slots

    def _fan_out_vector(self, tx: Transmission, hearers: list[Radio]) -> None:
        """The three delivery passes as array operations over the field.

        Stream discipline: exactly one double is drawn per *eligible*
        receiver, in attach order — ``hearers`` is attach-sorted and every
        mask preserves its order — so this path is RNG-indistinguishable
        from :meth:`_fan_out_scalar`.  Counter discipline likewise: the
        collision, drop, hit and miss counters are incremented with the
        same multiplicities the scalar loop would produce.
        """
        field = self.field
        tx_radio = tx.radio
        tx_id = tx_radio.mote.id
        slots = self._slots_for(tx_id, hearers)
        end = tx.end
        # Pass 1: eligibility (powered, not mid-transmission) fused into a
        # single gather + compare (see ``RadioField.eligible_key``).
        eligible = field.eligible_key[slots] >= end
        if tx.overlaps:
            # Collision mask: mark every slot each overlapping transmitter
            # reaches (plus its own — half-duplex, a radio hears itself) in
            # the capacity-sized scratch, gather at the hearer slots, then
            # un-mark only what was touched.  O(sum of overlap degrees + n).
            mark = field.scratch_bool
            marked = self._mark_overlaps(tx, mark)
            collided = mark[slots]
            for oslots in marked:
                mark[oslots] = False
            collided &= eligible  # scalar loop only counts eligible hearers
            self.collisions += int(np.count_nonzero(collided))
            eligible &= ~collided
        # Everything below works in slot space: the receiver set is a slot
        # array, and radio objects are resolved through ``mote_ids`` only
        # where a Python-side hand-off (callback, scalar fill) needs them.
        rslots = slots[eligible]
        n = int(rslots.size)
        if n == 0:
            return
        # Pass 2: PRR resolution — override ▸ cached row vector ▸ model fill.
        cache = self.link_cache
        prrs = cache.row_array(tx_id)[rslots]
        override_mask, override_values = self._gather_overrides(tx_id, rslots)
        unresolved = np.isnan(prrs)
        if override_mask is not None:
            unresolved &= ~override_mask
            misses = int(np.count_nonzero(unresolved))
            cache.cache_hits += n - misses - int(np.count_nonzero(override_mask))
        else:
            misses = int(np.count_nonzero(unresolved))
            cache.cache_hits += n - misses
        if misses:
            tx_position = tx_radio.position
            if hasattr(self._link_model, "prr_vector"):
                prrs[unresolved] = cache.fill_slots(
                    tx_id, tx_position, rslots[unresolved]
                )
            else:
                radios = self._radios
                mote_ids = field.mote_ids
                for k, slot in zip(
                    np.flatnonzero(unresolved).tolist(),
                    rslots[unresolved].tolist(),
                ):
                    radio = radios[int(mote_ids[slot])]
                    prrs[k] = cache.fill(
                        tx_id, tx_position, radio.mote.id, radio.position
                    )
        if override_mask is not None:
            prrs[override_mask] = override_values[override_mask]
        # Pass 3: every receiver's Bernoulli outcome from one vector draw,
        # reception tallies as one fancy increment (receiver slots are
        # unique, so ``+= 1`` cannot lose updates), and the Python loop only
        # when somebody actually installed a receive handler.
        success = self.rng.random_vector(n) < prrs
        delivered = int(np.count_nonzero(success))
        self.prr_drops += n - delivered
        if delivered == 0:
            return
        dslots = rslots[success]
        field.frames_received[dslots] += 1
        if self._receive_callbacks:
            frame = tx.frame
            radios = self._radios
            for mote_id in field.mote_ids[dslots].tolist():
                callback = radios[mote_id]._receive_callback
                if callback is not None:
                    callback(frame)

    def _mark_overlaps(
        self, tx: Transmission, mark: "np.ndarray"
    ) -> list["np.ndarray"]:
        """Set ``mark`` at every slot corrupted by ``tx``'s overlap set;
        returns the index arrays to un-mark afterwards."""
        marked: list["np.ndarray"] = []
        assert tx.overlaps is not None
        for other in tx.overlaps:
            other_radio = other.radio
            other_id = other_radio.mote.id
            oslots = self._slots_for(other_id, self.hearers(other_radio))
            mark[oslots] = True
            marked.append(oslots)
            # The transmitter's own slot — but only while it still owns it:
            # a detached-mid-flight transmitter's slot may have been recycled
            # to a different radio (and a detached radio cannot be a hearer
            # anyway, so skipping it loses nothing).
            if self._radios.get(other_id) is other_radio:
                own = other_radio._slot
                mark[own] = True
                marked.append(np.array([own], dtype=np.intp))
        return marked

    def _gather_overrides(
        self, tx_id: int, rslots: "np.ndarray"
    ) -> tuple["np.ndarray | None", "np.ndarray | None"]:
        """Scatter ``prr_overrides`` rows for ``tx_id`` onto the field's NaN
        scratch and gather them at the receiver slots.

        Returns ``(mask, values)`` aligned with ``rslots``, or ``(None,
        None)`` when no override touches this transmitter.  The scratch is
        restored to all-NaN before returning (only touched entries reset).
        """
        overrides = self.prr_overrides
        if not overrides:
            return None, None
        scratch = self.field.scratch_prr
        slot_of = self.field.slot_of
        touched: list[int] = []
        for (src, dst), value in overrides.items():
            if src != tx_id:
                continue
            slot = slot_of.get(dst)
            if slot is not None:
                scratch[slot] = value
                touched.append(slot)
        if not touched:
            return None, None
        values = scratch[rslots]
        for slot in touched:
            scratch[slot] = np.nan
        mask = ~np.isnan(values)
        if not mask.any():
            return None, None
        return mask, values

