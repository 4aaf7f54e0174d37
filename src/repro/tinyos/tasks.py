"""TinyOS-like execution model: one slow CPU running run-to-completion tasks.

TinyOS schedules *tasks* from a FIFO queue; a task runs to completion before
the next starts, and there is exactly one CPU per mote.  We model this with a
``busy-until`` horizon per CPU: posting work schedules its completion callback
after the CPU has finished everything posted before it, plus the work's own
cycle cost.  This serializes all computation on a mote and is what gives the
Agilla engine its measurable per-instruction latency (Figure 12) and its
round-robin context-switch behaviour.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.kernel import EventHandle, Simulator


class Cpu:
    """A single microcontroller core with cycle-accurate-ish accounting.

    The MICA2's ATmega128L runs at 8 MHz, i.e. 8 cycles per microsecond.
    Work is expressed in cycles; completion callbacks fire once the CPU has
    sequentially executed all previously posted work.
    """

    def __init__(self, sim: Simulator, clock_hz: int = 8_000_000):
        self.sim = sim
        self.clock_hz = clock_hz
        self._cycles_per_us = clock_hz / 1_000_000
        self.busy_until = 0
        self.cycles_executed = 0

    def cycles_to_us(self, cycles: int) -> int:
        """Convert a cycle count to integer microseconds (at least 1)."""
        return max(1, round(cycles / self._cycles_per_us))

    def execute(
        self, cycles: int, fn: Callable[..., Any], *args: Any, benign: bool = False
    ) -> EventHandle:
        """Run ``fn(*args)`` after the CPU spends ``cycles`` on this work.

        Work is serialized: if the CPU is still busy with earlier work the
        new work starts when that finishes.  ``benign`` is forwarded to the
        kernel (see :meth:`Simulator.schedule_at`): only the Agilla engine's
        own dispatch hops qualify.
        """
        return self.sim.schedule_at(self.charge(cycles), fn, *args, benign=benign)

    def charge(self, cycles: int) -> int:
        """Account for work *without* scheduling a completion event.

        Work starts at ``max(now, busy_until)`` and lasts
        :meth:`cycles_to_us` of ``cycles``; the new busy horizon is returned.
        :meth:`execute` is this charge plus a completion event.  The Agilla
        run-slice engine charges each instruction of a slice here, one call
        per instruction, so the CPU timeline is bit-identical to one
        completion event per instruction while only one kernel event runs
        per slice.  The engine's inter-instruction hop follows an
        instruction's charge, which has already put the horizon past
        ``now``, so the engine adds the hop's ``cycles_to_us`` to
        ``busy_until`` directly instead of paying a second rounding.
        """
        # Runs once per Agilla instruction, so it reads the kernel clock
        # directly and inlines cycles_to_us (``or 1`` is its ``max(1, ...)``
        # for the non-negative cycle counts charged here).
        now = self.sim._now
        busy = self.busy_until
        finish = (now if now > busy else busy) + (
            round(cycles / self._cycles_per_us) or 1
        )
        self.busy_until = finish
        self.cycles_executed += cycles
        return finish

    @property
    def idle(self) -> bool:
        """True when no posted work extends past the current instant."""
        return self.busy_until <= self.sim.now


class TaskQueue:
    """A TinyOS task queue bound to a :class:`Cpu`.

    Adds the fixed scheduler-dispatch overhead TinyOS pays per task posting,
    and counts tasks for the benchmarks.
    """

    #: Cycles the TinyOS scheduler spends dequeueing and dispatching a task.
    DISPATCH_CYCLES = 40

    def __init__(self, cpu: Cpu):
        self.cpu = cpu
        self.tasks_posted = 0

    def post(
        self, cycles: int, fn: Callable[..., Any], *args: Any, benign: bool = False
    ) -> EventHandle:
        """Post a task costing ``cycles``; it runs after earlier tasks."""
        self.tasks_posted += 1
        return self.cpu.execute(cycles + self.DISPATCH_CYCLES, fn, *args, benign=benign)

    @property
    def sim(self) -> Simulator:
        return self.cpu.sim
