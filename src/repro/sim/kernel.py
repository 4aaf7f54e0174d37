"""Discrete-event simulation kernel.

A single :class:`Simulator` instance drives an entire sensor network.  The
clock is an integer count of microseconds; events scheduled for the same tick
fire in insertion order, which together with named, seed-derived random
streams makes every run bit-for-bit reproducible.

The kernel is deliberately minimal: just a cancellable event queue plus RNG
management.  Node-local execution semantics (run-to-completion tasks on one
slow CPU) live in :mod:`repro.tinyos` and :mod:`repro.mote`.

Two hot-path properties keep large deployments fast without changing the
``(time, seq)`` firing order:

* Heap entries are plain ``(time, seq, handle)`` tuples, so ``heapq``
  comparisons run as C-level int compares instead of a Python ``__lt__``
  per sift step, and a fired handle can be *reused* for the next link of a
  periodic chain (:meth:`Simulator.reschedule`) instead of allocating a
  fresh :class:`EventHandle` every fire.
* Cancelled events stay in the heap as dead weight until their turn — cheap
  for occasional cancels, but TinyOS-style ``Timer.stop``/restart churn can
  pin thousands of dead entries.  When the dead fraction crosses
  :data:`Simulator.COMPACT_DEAD_FRACTION` the queue is rebuilt in place
  (:meth:`Simulator._compact`), which preserves the heap's total order
  exactly because ``(time, seq)`` keys are unique.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.units import US_PER_S


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time", "_seq", "_fn", "_args", "cancelled", "_popped", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self._seq = seq
        self._fn = fn
        self._args = args
        self.cancelled = False
        self._popped = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (safe to call repeatedly)."""
        if not self.cancelled:
            self.cancelled = True
            if not self._popped and self._sim is not None:
                self._sim._note_cancel()
        # Drop references so cancelled events pinned in the heap don't keep
        # large object graphs (agents, frames) alive.
        self._fn = _noop
        self._args = ()

    def fire(self) -> None:
        self._fn(*self._args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} {state}>"


def _noop() -> None:
    return None


class RecurringEvent:
    """A periodic callback: fires every ``period`` microseconds until cancelled.

    Returned by :meth:`Simulator.every`.  The callback runs first one period
    after scheduling, then keeps rescheduling itself; :meth:`cancel` stops the
    chain (including a fire already queued for the current tick).  The whole
    chain reuses a single :class:`EventHandle`.
    """

    __slots__ = ("_sim", "period", "_fn", "_args", "_handle", "cancelled", "fires")

    def __init__(self, sim: "Simulator", period: int, fn: Callable[..., Any], args: tuple):
        # Truncate before validating: a sub-microsecond float period would
        # otherwise pass the check, truncate to 0, and livelock the clock.
        period = int(period)
        if period <= 0:
            raise SimulationError(f"recurring period must be a positive tick count: {period}")
        self._sim = sim
        self.period = period
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fires = 0
        self._handle = sim.schedule(self.period, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fires += 1
        # Reschedule before running so the callback may cancel the chain.
        self._handle = self._sim.reschedule(self._handle, self.period)
        self._fn(*self._args)

    def cancel(self) -> None:
        """Stop firing (safe to call repeatedly, even from the callback)."""
        if not self.cancelled:
            self.cancelled = True
            self._handle.cancel()
            self._fn = _noop
            self._args = ()


class Simulator:
    """Event queue, clock, and reproducible random streams.

    Parameters
    ----------
    seed:
        Master seed.  Every named stream obtained through :meth:`rng` is
        derived deterministically from this seed and the stream name, so
        adding a new consumer of randomness never perturbs existing ones.
    """

    #: Compact once cancelled entries exceed this fraction of the queue …
    COMPACT_DEAD_FRACTION = 0.5
    #: … but never bother below this queue size.
    COMPACT_MIN_QUEUE = 64

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._now = 0
        self._seq = 0
        #: Heap of ``(time, seq, handle)``: plain-tuple keys so heap sifts
        #: compare ints in C and never call back into Python.
        self._queue: list[tuple[int, int, EventHandle]] = []
        self._pending = 0
        #: ``(time, seq)`` keys of pending events NOT marked ``benign`` at
        #: scheduling time — the run-slice engine's interleaving guard reads
        #: the minimum through :meth:`next_hazard_time`.  Entries are cleaned
        #: lazily: anything at or below the last key popped from the main
        #: queue has already fired (or was cancelled and skipped).
        self._hazards: list[tuple[int, int]] = []
        self._last_key: tuple[int, int] = (-1, -1)
        self._rngs: dict[str, random.Random] = {}
        self._running = False
        self._stopped = False
        self.events_fired = 0
        self.compactions = 0
        self.handle_reuses = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in integer microseconds."""
        return self._now

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds (for reporting)."""
        return self._now / US_PER_S

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use."""
        stream = self._rngs.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}/{name}")
            self._rngs[name] = stream
        return stream

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: int, fn: Callable[..., Any], *args: Any, benign: bool = False
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute tick ``time``.

        ``benign`` asserts the callback cannot interact with another mote's
        in-progress run-slice (it touches only its own scheduler's local
        state, or shared state nothing batched ever reads): such events are
        left out of the hazard horizon, so they do not suspend other motes'
        instruction batches.  Anything that delivers frames, runs CPU task
        handlers, fires timers, or mutates deployment state must stay
        hazardous (the default).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (now={self._now}, requested={time})"
            )
        time = int(time)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        self._pending += 1
        heapq.heappush(self._queue, (time, seq, handle))
        if not benign:
            heapq.heappush(self._hazards, (time, seq))
        return handle

    def schedule(
        self, delay: int, fn: Callable[..., Any], *args: Any, benign: bool = False
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + int(delay), fn, *args, benign=benign)

    def call_now(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current tick (after pending peers)."""
        return self.schedule_at(self._now, fn, *args)

    def reschedule(self, handle: EventHandle, delay: int) -> EventHandle:
        """Re-arm a *fired* handle ``delay`` microseconds from now.

        The allocation-lean path for periodic chains: the handle keeps its
        callback and arguments but gets a fresh ``(time, seq)`` key — exactly
        the key a newly constructed handle would have received, so firing
        order is bit-for-bit identical to scheduling from scratch.  Only a
        handle that has already been popped from the queue (it fired) and was
        not cancelled may be reused.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if handle.cancelled or not handle._popped:
            raise SimulationError("only a fired, uncancelled handle can be rescheduled")
        time = self._now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle._seq = seq
        handle._popped = False
        self._pending += 1
        self.handle_reuses += 1
        heapq.heappush(self._queue, (time, seq, handle))
        # Periodic chains (timers, beacons, dynamics ticks) mutate state
        # batched instructions may read: always hazardous.
        heapq.heappush(self._hazards, (time, seq))
        return handle

    def every(self, period: int, fn: Callable[..., Any], *args: Any) -> RecurringEvent:
        """Run ``fn(*args)`` every ``period`` microseconds until cancelled.

        The first fire happens one full period from now.  Drives recurring
        infrastructure (deployment dynamics, monitors) without each consumer
        hand-rolling its own reschedule loop.
        """
        return RecurringEvent(self, period, fn, args)

    # ------------------------------------------------------------------
    # Queue hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued event was cancelled: update the live count, and compact
        the heap once dead entries dominate it."""
        self._pending -= 1
        queued = len(self._queue)
        if (
            queued >= self.COMPACT_MIN_QUEUE
            and queued - self._pending > queued * self.COMPACT_DEAD_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        Safe at any point outside the ``heappush``/``heappop`` calls
        themselves: ``(time, seq)`` keys are unique, so heapify restores the
        exact same total order and the pop sequence of live events is
        unchanged.
        """
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            time, seq, event = heapq.heappop(queue)
            event._popped = True
            self._last_key = (time, seq)
            if event.cancelled:
                continue
            self._pending -= 1
            self._now = time
            self.events_fired += 1
            event._fn(*event._args)
            return True
        return False

    def run(
        self,
        duration: int | None = None,
        *,
        until: int | None = None,
        max_events: int | None = None,
    ) -> None:
        """Run events in time order.

        ``duration`` limits how far the clock may advance past the current
        time; ``until`` gives an absolute deadline; ``max_events`` bounds the
        number of callbacks (a safety valve for tests).  The clock advances to
        the deadline only when the queue was actually drained past it — a run
        cut short by ``max_events`` or :meth:`stop` leaves the clock at the
        last fired event, so the remaining queued events cannot end up in the
        clock's past.
        """
        if duration is not None and until is not None:
            raise SimulationError("pass either duration or until, not both")
        deadline = None
        if duration is not None:
            deadline = self._now + int(duration)
        elif until is not None:
            deadline = int(until)
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")

        self._running = True
        self._stopped = False
        fired = 0
        # True only when the loop finished normally (queue empty, deadline
        # reached, or stop()): a max_events return or an exception from a
        # callback must NOT fast-forward the clock over still-queued events.
        drained = False
        try:
            while self._queue and not self._stopped:
                if max_events is not None and fired >= max_events:
                    return
                entry = self._queue[0]
                if entry[2].cancelled:
                    popped = heapq.heappop(self._queue)
                    popped[2]._popped = True
                    self._last_key = (popped[0], popped[1])
                    continue
                if deadline is not None and entry[0] > deadline:
                    break
                self.step()
                fired += 1
            drained = True
        finally:
            self._running = False
            if (
                deadline is not None
                and drained
                and not self._stopped
                and self._now < deadline
            ):
                self._now = deadline

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely.

        Raises :class:`SimulationError` if ``max_events`` callbacks fired
        and live events are still queued (a recurring event never drains):
        a capped drain is not idle.  A :meth:`stop` ends the drain quietly.
        """
        self.run(max_events=max_events)
        if self._pending and not self._stopped:
            raise SimulationError(
                f"run_until_idle stopped at max_events={max_events} with "
                f"pending_events={self._pending}"
            )

    def stop(self) -> None:
        """Stop a ``run`` in progress after the current event returns."""
        self._stopped = True

    def mark_hazard(self, handle: EventHandle) -> None:
        """Re-classify an already-scheduled benign event as hazardous.

        Used when later state changes mean a pending event's callback will
        take a side-effecting path after all (e.g. a radio powering down
        turns an armed carrier-sense retry into a send abort).
        """
        if not handle._popped and not handle.cancelled:
            heapq.heappush(self._hazards, (handle.time, handle._seq))

    def next_hazard_time(self) -> int | None:
        """Earliest pending *hazardous* event time, or None if there is none.

        The run-slice engine's interleaving guard: before executing another
        instruction inside the current kernel event, the engine checks that
        no hazardous event would have fired first — if one would, the batch
        suspends and resumes as a normal event after it, keeping execution
        order identical to the one-event-per-instruction engine.  Keys at or
        below the last main-queue pop are already history and are discarded
        lazily; cancelled-but-pending keys linger until their time passes,
        which only makes the guard conservative, never wrong.
        """
        hazards = self._hazards
        last = self._last_key
        while hazards and hazards[0] <= last:
            heapq.heappop(hazards)
        return hazards[0][0] if hazards else None

    def next_event_time(self) -> int | None:
        """Earliest pending event time (hazardous *or* benign), or None.

        The sharded runtime's lookahead base: unlike
        :meth:`next_hazard_time`, benign events count too — a benign
        run-slice dispatch may execute a ``send`` opcode, so only the true
        heap head bounds when new radio activity can start.  Cancelled heads
        are retired exactly the way :meth:`run` retires them, so peeking
        never perturbs the firing order.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if not entry[2].cancelled:
                return entry[0]
            popped = heapq.heappop(queue)
            popped[2]._popped = True
            self._last_key = (popped[0], popped[1])
        return None

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue.

        Maintained as a live counter (updated on schedule, cancel, and fire)
        rather than scanned, so monitoring a large simulation is O(1).
        """
        return self._pending

    def stats(self) -> dict:
        """Queue and hot-path health for benchmarks and monitoring."""
        queued = len(self._queue)
        return {
            "now_us": self._now,
            "events_fired": self.events_fired,
            "queued": queued,
            "live": self._pending,
            "dead": queued - self._pending,
            "compactions": self.compactions,
            "handle_reuses": self.handle_reuses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now}us queue={len(self._queue)}>"
