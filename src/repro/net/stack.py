"""Per-mote network stack: Active-Message dispatch, send queue, filters.

Mirrors the TinyOS ``GenericComm`` layer the paper built on: frames carry an
AM type that selects a receive handler, sends are serialized through a small
static queue, and — crucially for the reproduction — *receive filters* can
drop frames before dispatch.  The paper synthesized its 5×5 multi-hop grid by
"[modifying] TinyOS's network stack to filter out all messages except those
from immediate neighbors based on the grid topology" (§4); that filter lives
in :mod:`repro.net.filters` and plugs in here.

Two of those checks run before the stack is called at all.  The stack hands
its radio an acceptance rule (:meth:`~repro.radio.channel.Radio.set_acceptance`):
answer to its own mote id only, so Active-Message addressing drops other
motes' unicasts, and take frames from the sender set of its
:class:`~repro.net.filters.NeighborSetFilter` only.  The
channel applies that rule while it fans a frame out, so the ~95% of
receptions that addressing and the neighbor filter drop on a dense flood
never reach Python; a sender refusal is still counted in
:attr:`NetworkStack.dropped_by_filter`.  A stack with observers keeps its
radio promiscuous, since observers see every frame.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.errors import NetworkError
from repro.mote.mote import Mote
from repro.net.addresses import BROADCAST_ID
from repro.net.filters import NeighborSetFilter
from repro.radio.channel import Radio
from repro.radio.frame import Frame

#: TinyOS-sized send queue (frames waiting for the radio).
SEND_QUEUE_DEPTH = 8

#: CPU cost of handing a received frame up through the stack.
RX_DISPATCH_CYCLES = 260


class NetworkStack:
    """Link-level messaging for one mote."""

    def __init__(self, mote: Mote, radio: Radio):
        if radio.mote is not mote:
            raise NetworkError("radio belongs to a different mote")
        self.mote = mote
        self.radio = radio
        self._handlers: dict[int, Callable[[Frame], None]] = {}
        self._filters: list[Callable[[Frame], bool]] = []
        self._observers: list[Callable[[Frame], None]] = []
        self._queue: deque[tuple[Frame, Callable[[bool], None] | None]] = deque()
        self._sending = False
        # RAM the real component would declare statically.
        mote.memory.allocate("NetworkStack", "send queue", SEND_QUEUE_DEPTH * 36)
        mote.memory.allocate("NetworkStack", "rx buffer", 36)
        # Statistics.
        self.sent = 0
        self.received = 0
        self._filter_drops = 0  # by the dispatch closure; see dropped_by_filter
        self.queue_overflows = 0
        self._recompile()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def register_handler(self, am_type: int, handler: Callable[[Frame], None]) -> None:
        """Install the receive handler for an AM type (one per type)."""
        if am_type in self._handlers:
            raise NetworkError(f"handler for AM type 0x{am_type:02x} already set")
        # The dispatch closure shares this dict: nothing to recompile.
        self._handlers[am_type] = handler

    @property
    def dropped_by_filter(self) -> int:
        """Frames addressed to this mote that a receive filter dropped.

        The radio refuses a :class:`NeighborSetFilter`'s unknown senders
        itself and counts them in ``radio.frames_rejected``; the other
        filters run in the dispatch closure."""
        return self._filter_drops + self.radio.frames_rejected

    def install_filter(self, frame_filter: Callable[[Frame], bool]) -> None:
        """Add a receive filter; returning False drops the frame.

        A filter must be a pure predicate of the frame: it may not count,
        log or change anything, because a frame can be dropped before the
        filter sees it — by the radio (another mote's unicast, or a sender
        a :class:`NeighborSetFilter` refuses) or by an earlier filter.  A
        :class:`NeighborSetFilter` is not called at all: its sender set
        becomes part of the radio's acceptance rule.
        """
        self._filters.append(frame_filter)
        self._recompile()

    def admit_senders(self, mote_ids: Iterable[int]) -> None:
        """Widen every installed :class:`NeighborSetFilter` to accept
        ``mote_ids`` too, and the radio's sender set with it.

        The sharded runtime widens boundary nodes with their cross-seam
        topology neighbors, which reach this shard as ghost radios.
        """
        extra = frozenset(mote_ids)
        self._filters = [
            NeighborSetFilter(f.accepted | extra) if isinstance(f, NeighborSetFilter) else f
            for f in self._filters
        ]
        self._recompile()

    def add_observer(self, observer: Callable[[Frame], None]) -> None:
        """Watch every frame the radio hears, *before* addressing and filters.

        Observers see overheard traffic — frames addressed to other motes and
        frames the receive filters would drop — because a CSMA radio decodes
        everything on its channel anyway.  The adaptive neighborhood subsystem
        uses this to re-prime acquaintance freshness from any received frame.
        Observers must not mutate the frame.
        """
        self._observers.append(observer)
        self._recompile()

    def _recompile(self) -> None:
        """Flatten the receive chain into one precompiled dispatch closure,
        and hand the radio the acceptance rule that runs ahead of it.

        Installing an observer or filter is rare; receiving a frame is the
        hot path.  So the observer/filter/handler chains are compiled into a
        single closure over local bindings whenever the configuration
        changes, and that closure is what the radio calls — per frame there
        is no re-resolution of ``self._observers``/``self._filters`` and, in
        the common no-observer/no-filter shape, no chain iteration at all.
        (Handlers need no recompile: the closure reads the shared dict.)
        Without observers the radio takes over addressing and every
        :class:`NeighborSetFilter` (their sender sets intersected), so the
        closure keeps only the other filters.
        """
        observers = tuple(self._observers)
        filters = tuple(self._filters)
        handlers = self._handlers  # mutated in place; shared by reference
        mote_id = self.mote.id
        post = self.mote.tasks.post

        if observers:
            self.radio.set_acceptance(False)  # observers see every frame
        else:
            senders = None
            for frame_filter in filters:
                if isinstance(frame_filter, NeighborSetFilter):
                    accepted = frame_filter.accepted
                    senders = accepted if senders is None else senders & accepted
            if senders is not None:
                filters = tuple(
                    f for f in filters if not isinstance(f, NeighborSetFilter)
                )
            self.radio.set_acceptance(True, senders)

        if observers or filters:

            def dispatch(frame: Frame, _stack=self) -> None:
                for observer in observers:
                    observer(frame)
                if not frame.is_broadcast and frame.dest != mote_id:
                    return  # addressed to someone else (observers only)
                for frame_filter in filters:
                    if not frame_filter(frame):
                        _stack._filter_drops += 1
                        return
                handler = handlers.get(frame.am_type)
                if handler is None:
                    return
                _stack.received += 1
                # Reception is dispatched as a TinyOS task on the mote's CPU.
                post(RX_DISPATCH_CYCLES, handler, frame)

        else:

            def dispatch(frame: Frame, _stack=self) -> None:
                handler = handlers.get(frame.am_type)
                if handler is None:
                    return
                _stack.received += 1
                post(RX_DISPATCH_CYCLES, handler, frame)

        self.radio.set_receive_callback(dispatch)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dest: int,
        am_type: int,
        payload: bytes,
        on_done: Callable[[bool], None] | None = None,
    ) -> bool:
        """Queue a unicast frame.  Returns False if the queue is full.

        ``on_done(sent)`` fires when the radio finishes (or the send is
        rejected); link-layer success does *not* imply reception — upper
        layers provide their own acknowledgements, as Agilla does.
        """
        frame = Frame(self.mote.id, dest, am_type, payload)
        if len(self._queue) >= SEND_QUEUE_DEPTH:
            self.queue_overflows += 1
            if on_done is not None:
                self.mote.sim.call_now(on_done, False)
            return False
        self._queue.append((frame, on_done))
        self._pump()
        return True

    def broadcast(
        self,
        am_type: int,
        payload: bytes,
        on_done: Callable[[bool], None] | None = None,
    ) -> bool:
        """Queue a link-layer broadcast frame."""
        return self.send(BROADCAST_ID, am_type, payload, on_done)

    def _pump(self) -> None:
        if self._sending or not self._queue:
            return
        self._sending = True
        frame, on_done = self._queue.popleft()
        self.radio.send(frame, lambda sent: self._send_done(sent, on_done))

    def _send_done(self, sent: bool, on_done: Callable[[bool], None] | None) -> None:
        self._sending = False
        if sent:
            self.sent += 1
        if on_done is not None:
            on_done(sent)
        self._pump()
