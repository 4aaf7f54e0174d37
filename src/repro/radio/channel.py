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

The draws come from the channel's own ``random.Random`` stream, seeded
``f"{sim.seed}/channel"``: one ``random()`` per eligible receiver in attach
order, plus one ``randint`` per MAC backoff.

Each reception then meets the receiver's acceptance rule before any Python
callback runs (:meth:`Radio.set_acceptance`): either promiscuous (every
frame, the default) or addressed — broadcasts and frames to the radio's own
mote id only, optionally from a set of accepted senders alone.
:meth:`Radio.deliver` is the one-receiver reference for the fan-out's
hand-off.  On a dense flood, 95% of receptions are another mote's unicast
or a refused sender's broadcast, so this hand-off decides far more frames
than the stacks do.

Carrier sense is one early-exit scan: ``busy_for`` walks the handful of
on-air transmissions and stops at the first one audible at the sensing
radio (nothing on the air costs one list check).  A hearer query is one
walk: ``hearers()`` tests the link model's ``in_range`` against each radio
in the 9 spatial-hash cells around the transmitter, sorts the audience by
attach sequence and records each hearer's ``prr`` (a PRR, like audibility,
depends only on the two positions): one cached audience record per
transmitter.  Neither consumes RNG, so they cannot perturb a fixed-seed
stream at all; the hypothesis interleaving property pins ``busy_for`` == a
naive every-transmission walk after every mutation.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple

from repro.errors import RadioError
from repro.mote.mote import Mote
from repro.radio.frame import Frame
from repro.radio.linkmodels import LinkModel, Position, UniformLossLinks
from repro.sim.kernel import Simulator

#: CC1000 effective data rate after Manchester encoding (bits/second).
EFFECTIVE_BITRATE = 19_200

#: Unused (delivery has one path); kept, at a width no audience reaches,
#: because perfbench's manifest reports it.
VECTOR_FANOUT_MIN = sys.maxsize

#: Unused (carrier sense has one path); kept because perfbench's manifest reports it.
VECTOR_SENSE_MIN = 16

#: Relative slack on the end-of-frame overlap prune's squared-distance
#: bound: a few float roundings separate the prune's distance from the
#: hearer lists' ``in_range`` tests, and this keeps any pair they could
#: both pass (see :meth:`Channel.end_transmission`).
_PRUNE_SLACK = 1.0 + 1e-9


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
    #: so end-of-frame never scans transmission history.  End-of-frame
    #: prunes it to the frames that can share a hearer with this one and
    #: then releases it (``None``), so an ended frame links to nothing and
    #: the frames it overlapped can be collected once they end too.
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
        #: The acceptance rule (see :meth:`set_acceptance`): whether the
        #: radio answers only to its own mote id (``False``: every frame),
        #: and the senders it takes frames from (``None``: any sender).
        self._addressed = False
        self._senders: frozenset[int] | None = None
        self._current_tx: Transmission | None = None
        self._send_pending = False
        self._pending_carrier_sense = None  # armed backoff's EventHandle; None once fired
        self._attach_seq = 0  # set by Channel.attach; orders hearer lists
        self._attached = False  # set by Channel.attach, cleared by detach
        # Statistics used by the benchmarks.
        self.frames_sent = 0
        self.frames_received = 0
        #: Received frames the acceptance rule withheld for their sender.
        self.frames_rejected = 0
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

    def set_receive_callback(self, callback: Callable[[Frame], None] | None) -> None:
        """Install the link-layer receive handler (one per radio).

        The channel calls it with each received frame that the radio's
        acceptance rule takes (see :meth:`set_acceptance`; a raw radio is
        promiscuous and takes every frame), after the whole fan-out's loss
        draws.  :meth:`deliver` is the one-receiver reference.
        """
        self._receive_callback = callback

    def set_acceptance(
        self, addressed: bool, senders: Iterable[int] | None = None
    ) -> None:
        """Say which received frames the receive callback is handed.

        ``addressed``: hand up broadcasts and frames addressed to this
        radio's mote id only, and drop other motes' unicasts silently;
        ``False`` is promiscuous, every frame (a raw radio's rule).
        ``senders`` (addressed radios only): frames from any other sender
        are dropped and counted in :attr:`frames_rejected`; ``None``
        accepts every sender.  The channel applies the rule during the
        fan-out, so a frame the rule drops never reaches the callback.  A
        network stack derives its rule from its own configuration (its
        observers, its neighbor-set filter).
        """
        if senders is not None:
            if not addressed:
                raise RadioError("a promiscuous radio takes every sender")
            senders = frozenset(senders)
        self._addressed = bool(addressed)
        self._senders = senders

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
        self.frames_sent += 1
        self.bytes_sent += frame.air_bytes
        self.channel.begin_transmission(tx)
        self.sim.schedule_at(tx.end, self._end_tx, tx, on_done)

    def _end_tx(self, tx: Transmission, on_done: Callable[[bool], None] | None) -> None:
        self._current_tx = None
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
        """Count one successful reception and hand it up if the rule takes it.

        The one-receiver reference for the channel's batched hand-off, which
        makes exactly these decisions.
        """
        self.frames_received += 1
        callback = self._receive_callback
        if callback is None:
            return
        if self._addressed:
            if not frame.is_broadcast and frame.dest != self.mote.id:
                return  # another mote's unicast
            senders = self._senders
            if senders is not None and frame.src not in senders:
                self.frames_rejected += 1
                return
        callback(frame)


class _Audience(NamedTuple):
    """One transmitter's audience record: the radios its link model lets
    hear it, in attach order (the order the fan-out draws its loss
    decisions in), their mote ids, and ``prrs[i]``, the link model's PRR
    from the transmitter to ``radios[i]``."""

    radios: list[Radio]
    ids: frozenset[int]
    prrs: list[float]


class Channel:
    """The broadcast medium shared by all attached radios.

    Delivery and carrier sense are O(degree), not O(N): the channel keeps a
    cached *hearer index* — for each radio, an audience record of the radios
    its link model can reach and each one's PRR — built lazily from a spatial
    hash over radio positions (cell size = radio range) and invalidated
    whenever a radio attaches or the link model is replaced.  Steady-state
    delivery therefore reads each receiver's link quality off the record
    instead of re-deriving it from geometry on every frame.

    Mobile deployments mutate the index *incrementally*: :meth:`move` re-keys
    the moved radio's spatial-hash cell and drops only the cached records
    whose in-range relation or PRRs it can have changed (the radios within
    one cell of its old or new position — O(degree) work), and :meth:`detach`
    does the same for a departing radio.  ``full_invalidations`` counts
    whole-index rebuild triggers and ``index_moves`` counts incremental
    re-keys, so tests and benchmarks can assert that a mobility tick never
    degenerates into a full rebuild.

    ``prr_overrides`` are read before the record's PRR on every delivery:
    failure injection applies to the very next delivery, cached record or
    not.
    """

    #: Unused (delivery has one path); perfbench's traced run reads it.
    vector_fanout_min = VECTOR_FANOUT_MIN

    #: Unused (PRRs live in the audience records); perfbench still reads
    #: its two counters, which stay 0.
    link_cache = SimpleNamespace(cache_hits=0, cache_misses=0)

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
        #: The channel's RNG stream: MAC backoffs and loss draws.  Its seed
        #: string is the one ``sim.rng("channel")`` would use, so every
        #: fixed-seed golden replays the same history.
        self.rng = random.Random(f"{sim.seed}/channel")
        self._radios: dict[int, Radio] = {}
        self._attach_counter = 0
        #: The handful of transmissions currently on the air: what carrier
        #: sense scans, and the source of each new frame's overlap set.  A
        #: radio that detaches mid-flight leaves its frame here until the
        #: frame's end event fires (the energy already left the antenna).
        self._on_air: list[Transmission] = []
        #: Hearer index: transmitter mote id -> its audience record, dropped
        #: by the attach/move/detach/model hooks.
        self._audiences: dict[int, _Audience] = {}
        #: Spatial hash: cell -> the radios in it (cell size = radio range),
        #: the candidates a hearer query walks.
        self._cells: dict[tuple[int, int], list[Radio]] | None = None
        self._cell_size: float = 0.0
        #: Per (src mote id, dst mote id) PRR override for failure injection.
        #: Consulted *before* the audience record's PRR on every delivery, so
        #: an override installed while frames are already in flight still
        #: applies to the next reception decision.
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
        radio._attached = True
        mote.radio = radio
        self.invalidate_neighbor_index()
        return radio

    # ------------------------------------------------------------------
    # In-range neighbor index
    # ------------------------------------------------------------------
    def invalidate_neighbor_index(self) -> None:
        """Drop the cached in-range index (new radio or new link model)."""
        self.full_invalidations += 1
        self._audiences.clear()
        self._cells = None

    def _drop_cached(self, mote_id: int) -> None:
        self._audiences.pop(mote_id, None)

    def _drop_cached_near(self, position: Position) -> None:
        """Drop the cached audience records of every radio within one cell
        of ``position`` — the only records a change at ``position`` can
        affect, since audibility is bounded by the cell size (= radio
        range)."""
        assert self._cells is not None
        cx, cy = self._cell_of(position)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for radio in self._cells.get((cx + dx, cy + dy), ()):
                    self._drop_cached(radio.mote.id)

    def move(self, mote_id: int, position: Position) -> None:
        """Move a radio to a new physical position, re-keying incrementally.

        Only the moved radio's spatial-hash bucket and the cached audience
        records around its old and new positions are touched — O(local
        density), never a full index rebuild.  Every transmitter in range of
        either position is in that ring, so no record keeps a stale hearer
        or PRR.  (With an unbounded link model there is no spatial hash to
        re-key, so the whole index is invalidated instead.)
        """
        radio = self._radios.get(mote_id)
        if radio is None:
            raise RadioError(f"cannot move unknown mote id {mote_id}")
        old = radio.position
        if old == position:
            return
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
            bucket.remove(radio)
            if not bucket:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, []).append(radio)
            # Same-cell moves share the old position's 9-cell ring, already
            # dropped above; only a cell crossing exposes new lists.
            self._drop_cached_near(position)
        self._drop_cached(mote_id)
        self.index_moves += 1

    def detach(self, mote_id: int) -> Radio:
        """Remove a radio from the medium (node death / departure).

        The radio is disabled, dropped from the spatial hash, and every cached
        audience record that could contain it is invalidated — incrementally,
        like :meth:`move`.  A frame already on the air from the departing radio
        still finishes (the energy left the antenna).
        """
        radio = self._radios.pop(mote_id, None)
        if radio is None:
            raise RadioError(f"cannot detach unknown mote id {mote_id}")
        radio.enabled = False
        self.retired_bytes_sent += radio.bytes_sent
        if self._cells is not None:
            if self._cell_size <= 0.0:
                self.invalidate_neighbor_index()
            else:
                self._drop_cached_near(radio.position)
                cell = self._cell_of(radio.position)
                bucket = self._cells.get(cell)
                if bucket is not None and radio in bucket:
                    bucket.remove(radio)
                    if not bucket:
                        del self._cells[cell]
        self._drop_cached(mote_id)
        radio._attached = False
        return radio

    def _ensure_cells(self) -> None:
        """(Re)build the spatial hash: cell size = radio range, so any pair
        within range lands in the same or an adjacent cell.  Buckets hold
        the radios themselves, the candidates a hearer query walks."""
        if self._cells is not None:
            return
        range_m = getattr(self._link_model, "range_m", None)
        cells: dict[tuple[int, int], list[Radio]] = {}
        if range_m is None or not (range_m > 0.0) or not math.isfinite(range_m):
            # Unknown reach: one bucket, candidates degrade to all radios.
            self._cell_size = 0.0
            cells[(0, 0)] = list(self._radios.values())
        else:
            self._cell_size = float(range_m)
            for radio in self._radios.values():
                cells.setdefault(self._cell_of(radio.position), []).append(radio)
        self._cells = cells

    def _cell_of(self, position: Position) -> tuple[int, int]:
        if self._cell_size <= 0.0:
            return (0, 0)
        return (
            math.floor(position[0] / self._cell_size),
            math.floor(position[1] / self._cell_size),
        )

    def _candidate_buckets(self, position: Position) -> list[list[Radio]]:
        """The spatial-hash buckets a radio at ``position`` could hear
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

    def hearers(self, radio: Radio) -> list[Radio]:
        """Radios the link model lets hear ``radio``, in attach order: the
        cached list of its audience record (see :meth:`_audience_of`)."""
        return self._audience_of(radio).radios

    def _audience_of(self, radio: Radio) -> _Audience:
        """``radio``'s audience record.

        One walk over the radios in the 9 spatial-hash cells around
        ``radio`` (all radios for an unbounded link model), testing
        ``in_range`` on each, then a sort by attach sequence: the order the
        fan-out draws its loss decisions in.  The link model's ``prr`` is
        then evaluated once per hearer.  Cached per mote id while the radio
        is attached.  A radio that detached with a frame still on the air
        is in no spatial-hash cell, so no later :meth:`move` or
        :meth:`detach` would drop a record cached for it, and a re-attached
        radio may reuse its id: its record is recomputed on every call
        instead.
        """
        mote_id = radio.mote.id
        attached = radio._attached
        if attached:
            cached = self._audiences.get(mote_id)
            if cached is not None:
                return cached
        self._ensure_cells()
        model = self._link_model
        in_range = model.in_range
        position = radio.position
        audience = [
            other
            for bucket in self._candidate_buckets(position)
            for other in bucket
            if other is not radio and in_range(position, other.position)
        ]
        audience.sort(key=lambda other: other._attach_seq)
        prr = model.prr
        record = _Audience(
            audience,
            frozenset(other.mote.id for other in audience),
            [prr(position, other.position) for other in audience],
        )
        if attached:
            self._audiences[mote_id] = record
        return record

    def _can_hear(self, src: Radio, dst: Radio) -> bool:
        """Is ``src``'s carrier audible at ``dst``?  O(1) after caching."""
        record = self._audiences.get(src.mote.id)
        if record is None or not src._attached:
            record = self._audience_of(src)
        return dst.mote.id in record.ids

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

        Only the transmitter's cached audience record is visited — O(degree)
        per frame — never the full radio population.  The fan-out is
        *batched*: receiver eligibility (powered, not mid-transmission, not
        collided), PRR resolution — overrides first, then the record's PRR —
        and the Bernoulli loss draws are all decided before any surviving
        frame is handed up the stacks, which also means nothing a handler
        does can alter this frame's own outcomes.  A receiver's acceptance
        rule then decides whether its callback runs at all (see
        :meth:`Radio.deliver`).  The stream discipline is one ``random()``
        per eligible receiver, in attach order.

        The transmissions that overlap ``tx`` were recorded while both were
        on the air (:meth:`begin_transmission`), so the collision check scans
        a precomputed (usually absent or tiny) overlap list and never touches
        transmission history.  Before the fan-out runs, that list drops
        every frame whose transmitter is more than twice the link range
        from ``tx``'s: by the triangle inequality no radio can hear both,
        and both sides are judged at the same end-of-frame positions the
        audience records use, so the prune is exact under any move or
        detach.
        (An unbounded link model has no range: nothing is pruned.)
        The list is then released (``tx.overlaps = None``), corrupted frame
        or not, so ended frames do not pin the run's transmission history.
        """
        self._on_air.remove(tx)
        overlaps, tx.overlaps = tx.overlaps, None
        if tx.corrupted:
            # Injected corruption: the frame jammed the medium for its full
            # airtime but no receiver passes CRC — no eligibility checks, no
            # RNG draws, no deliveries.
            self.corrupted_frames += 1
            return
        audience = self._audience_of(tx.radio)
        if not audience.radios:
            return  # nobody in range: skip the fan-out entirely
        if overlaps and self._cell_size > 0.0:
            overlaps = self._near_overlaps(tx.radio.position, overlaps)
        self._fan_out_scalar(tx, audience, overlaps)

    def _near_overlaps(
        self, position: Position, overlaps: list[Transmission]
    ) -> list[Transmission]:
        """The frames of ``overlaps`` sent from within twice the link range
        (the spatial hash's cell size) of ``position``, in order."""
        reach = 2.0 * self._cell_size
        limit = reach * reach * _PRUNE_SLACK
        x, y = position
        near = []
        for other in overlaps:
            ox, oy = other.radio.position
            dx = ox - x
            dy = oy - y
            if dx * dx + dy * dy <= limit:
                near.append(other)
        return near

    def _fan_out_scalar(
        self,
        tx: Transmission,
        audience: _Audience,
        overlaps: list[Transmission] | None,
    ) -> None:
        """The per-receiver delivery loop: eligibility, loss, hand-off."""
        # Resolve each overlapping transmitter's hearer-id set once up front:
        # the set is shared by all receivers, so the per-receiver collision
        # check becomes a set membership.
        overlapping = None
        start, end = tx.start, tx.end
        if overlaps:
            overlapping = [
                (other.radio, self._audience_of(other.radio).ids) for other in overlaps
            ]
        # Pass 1: who can receive at all, with the record's PRR.
        receivers = None
        for radio, prr in zip(audience.radios, audience.prrs):
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
            receivers.append((radio, prr))
        if receivers is None:
            return
        # Pass 2: link quality (override ▸ record) and loss draws.
        tx_id = tx.radio.mote.id
        overrides = self.prr_overrides
        random = self.rng.random
        delivered = None
        for radio, prr in receivers:
            if overrides:
                override = overrides.get((tx_id, radio.mote.id))
                if override is not None:
                    prr = override
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
        src = frame.src
        dest = None if frame.is_broadcast else frame.dest
        for radio in delivered:
            radio.frames_received += 1
            callback = radio._receive_callback
            if callback is None:
                continue
            if radio._addressed:
                if dest is not None and radio.mote.id != dest:
                    continue
                senders = radio._senders
                if senders is not None and src not in senders:
                    radio.frames_rejected += 1
                    continue
            callback(frame)
