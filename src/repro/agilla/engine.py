"""The Agilla engine: the virtual-machine kernel (paper §3.2).

"The Agilla engine serves as the virtual machine kernel that controls the
concurrent execution of all agents on a node.  It implements a simple
round-robin scheduling policy where each agent can execute a fixed number of
instructions before switching context.  The default number of instructions
is 4 ...  if an agent executes a long-running instruction like sleep, sense,
or wait, the engine immediately switches context."

The CPU model is unchanged — every instruction is charged its ISA-class plus
runtime-dependent cycles on the mote's 8 MHz core, which is what the
Figure 12 benchmark measures.  What *is* new post-paper is how the simulator
drives it: instead of posting one kernel event per instruction (two, counting
the completion callback), the engine executes a bounded **run-slice** — up to
``slice_length`` instructions, the §3.2 context-switch quantum — inside a
single kernel event while the outcome stays :attr:`Outcome.CONTINUE`.  The
CPU is charged per instruction through :meth:`Cpu.charge`, the one rounding
an instruction pays; the inter-instruction hop then adds its microseconds,
rounded once per engine, to a horizon that charge has already put past
``now``.  That is the per-step rounding the per-instruction engine used, so
the busy horizon (and hence every downstream event time) is bit-identical;
agent-heavy scenarios just post O(slices) instead of O(instructions) kernel
events.  Instructions
whose handlers observe the clock or the environment
(:data:`~repro.agilla.isa.NOW_PURE_OPCODES` excludes them) never run
mid-batch: the slice is suspended and resumed in a fresh event at the exact
tick the old engine would have dispatched them.  ``yield``-class outcomes
(``YIELD``/``SLEEP``/``WAIT``/``BLOCKED_TS``/...) end the slice exactly as
before.

The engine does not decode bytecode itself.  Each instruction comes
already decoded: its definition, operand bytes, length, issue cycles
(block-crossing charge included), handler and whether it may run mid-batch.
Decoding happens once per program and PC, in a table that every mote of the
network running that program shares.  A slice binds the running agent's
table once
(:meth:`~repro.agilla.instruction_manager.InstructionManager.decoded_table`)
and calls :meth:`~repro.agilla.instruction_manager.InstructionManager.fetch`
only on a miss: a first decode or a trap.  A ``CONTINUE`` outcome is applied
inline; only the other outcomes go through :meth:`AgillaEngine._apply_outcome`.
What is left here for each instruction is the handler call and one CPU
charge.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.agilla.agent import Agent, AgentState
from repro.agilla.execution import ExecContext, Outcome
from repro.agilla.isa import InstructionDef
from repro.agilla.tuples import AgillaTuple
from repro.agilla.fields import Value
from repro.errors import AgentError, CodeMemoryError
from repro.sim.kernel import EventHandle
from repro.tinyos.tasks import TaskQueue

#: Cycles the engine spends picking the next agent/instruction (task body).
DISPATCH_CYCLES = 90
#: Cycles one inter-instruction hop costs in total: the engine's dispatch
#: body plus the TinyOS scheduler's task-dispatch overhead.  The run-slice
#: loop charges this between batched instructions so the CPU timeline matches
#: the per-instruction task posts it replaced.
_HOP_CYCLES = DISPATCH_CYCLES + TaskQueue.DISPATCH_CYCLES

# Read once per instruction: an Enum class attribute lookup costs ~0.2 µs,
# a module global a tenth of that.
_CONTINUE = Outcome.CONTINUE
_DEAD = AgentState.DEAD


class AgillaEngine:
    """Round-robin scheduler and bytecode interpreter for one node."""

    def __init__(self, middleware: Any):
        self.middleware = middleware
        self.run_queue: deque[Agent] = deque()
        self._pumping = False
        self._current: Agent | None = None
        self._slice_left = 0
        self._sleep_handles: dict[int, EventHandle] = {}
        #: The hop's busy time, rounded once (see :meth:`_dispatch`).
        self._hop_us = middleware.mote.cpu.cycles_to_us(_HOP_CYCLES)
        #: Optional instrumentation hook: ``fn(agent, idef, cycles)`` called
        #: for every executed instruction (used by the Figure 12 benchmark).
        self.on_instruction: Callable[[Agent, InstructionDef, int], None] | None = None
        middleware.mote.memory.allocate(
            "AgillaEngine", "run queue", 2 * middleware.params.max_agents
        )
        # Statistics.
        self.instructions_executed = 0
        self.context_switches = 0
        self.traps = 0
        #: Slices cut short because the next instruction must observe its
        #: true simulated time (it resumes in a fresh kernel event).
        self.slice_suspensions = 0

    # ------------------------------------------------------------------
    # Scheduling interface
    # ------------------------------------------------------------------
    def make_ready(self, agent: Agent) -> None:
        """Mark an agent runnable and ensure the engine is pumping."""
        if agent.state == AgentState.DEAD:
            return
        agent.state = AgentState.READY
        if agent not in self.run_queue:
            self.run_queue.append(agent)
        self._pump()

    def remove(self, agent: Agent) -> None:
        """Drop an agent from the run queue (death or departure)."""
        try:
            self.run_queue.remove(agent)
        except ValueError:
            pass
        if self._current is agent:
            self._current = None
        handle = self._sleep_handles.pop(agent.id, None)
        if handle is not None:
            handle.cancel()

    def arm_sleep(self, agent: Agent, duration: int) -> None:
        """Arm the wake-up event for a ``sleep`` instruction."""
        sim = self.middleware.mote.sim
        self._sleep_handles[agent.id] = sim.schedule(duration, self._wake, agent)

    def cancel_sleep(self, agent: Agent) -> None:
        handle = self._sleep_handles.pop(agent.id, None)
        if handle is not None:
            handle.cancel()

    def _wake(self, agent: Agent) -> None:
        self._sleep_handles.pop(agent.id, None)
        if agent.state == AgentState.SLEEPING:
            self.make_ready(agent)

    # ------------------------------------------------------------------
    # Interpreter loop (each instruction is one CPU task)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        # Dispatch hops touch only this engine's own state, so they are
        # ``benign``: they never suspend another mote's instruction batch.
        self.middleware.mote.tasks.post(DISPATCH_CYCLES, self._dispatch, benign=True)

    def _dispatch(self) -> None:
        """Run one slice (or resume a suspended one) in this kernel event.

        Instructions are executed back-to-back while the outcome stays
        ``CONTINUE`` and the slice budget lasts.  Each costs its handler plus
        one CPU charge: the instruction's cycles go through
        :meth:`~repro.tinyos.tasks.Cpu.charge` (the one rounding), and the
        inter-instruction hop adds its precomputed microseconds to a horizon
        that charge has already put past ``now``.  That is the rounding the
        per-instruction task posts used, so ``busy_until`` — and with it
        every send, sleep, and timer downstream — lands on the same
        microsecond.  A batched handler may observe a slightly stale
        ``sim.now``; handlers for which that is observable are excluded from
        :data:`~repro.agilla.isa.NOW_PURE_OPCODES` and make the slice
        suspend, resuming in a fresh event at the instruction's true tick
        (``on_instruction`` instrumentation forces that per-instruction mode
        globally, so traces keep exact timestamps).
        """
        run_queue = self.run_queue
        while run_queue and run_queue[0].state != AgentState.READY:
            run_queue.popleft()
        if not run_queue:
            self._pumping = False
            self._current = None
            return
        agent = run_queue[0]
        if self._current is not agent:
            self._current = agent
            self._slice_left = self.middleware.params.slice_length
            self.context_switches += 1
        middleware = self.middleware
        sim = middleware.mote.sim
        cpu = middleware.mote.cpu
        hop_us = self._hop_us
        on_instruction = self.on_instruction
        instruction_manager = middleware.instruction_manager
        # The agent's code cannot change within a slice: it is freed only
        # when the agent dies or leaves, and either ends the slice.
        decoded = instruction_manager.decoded_table(agent.id)
        first = True
        while True:
            if agent.pending_reactions:
                if not self._vector_reaction(agent):
                    self._continue()  # trapped mid-vector: agent died, move on
                    return

            instruction = decoded.get(agent.pc)
            if instruction is None:
                try:
                    instruction = instruction_manager.fetch(agent.id, agent.pc)
                except (AgentError, CodeMemoryError) as exc:
                    if not first:
                        # A failed fetch mutates nothing (failed decodes are
                        # never cached), so a mid-batch fetch trap is safely
                        # re-raised as the *first* fetch of a fresh event at
                        # the instruction's true tick — the death log then
                        # records the same timestamp the per-instruction
                        # engine would have.
                        self.slice_suspensions += 1
                        sim.schedule_at(cpu.busy_until, self._dispatch, benign=True)
                        return
                    self._trap(agent, exc)
                    self._continue()
                    return
            idef, operand, length, cycles, handler, now_pure = instruction

            if not first and (not now_pure or on_instruction is not None):
                # Time-sensitive handler mid-batch: suspend the slice (budget
                # and current agent survive) and resume at the exact tick the
                # per-instruction engine would have dispatched it.  The hop
                # charge was already applied when the batch continued.
                self.slice_suspensions += 1
                sim.schedule_at(cpu.busy_until, self._dispatch, benign=True)
                return

            pc_before = agent.pc
            agent.pc = pc_before + length
            try:
                outcome, extra = handler(
                    ExecContext(agent, middleware, idef, operand, pc_before)
                )
            except AgentError as exc:
                self._trap(agent, exc)
                self._continue()
                return

            cycles += extra
            agent.instructions_executed += 1
            self.instructions_executed += 1
            if on_instruction is not None:
                on_instruction(agent, idef, cycles)
            # Apply the outcome first (so services observe the agent's new
            # state at the same point the per-instruction engine exposed it),
            # then charge the CPU for the instruction's cycles.
            if outcome is _CONTINUE:
                if agent.state is not _DEAD:
                    self._slice_left -= 1
                    if self._slice_left <= 0:
                        self._rotate(agent, still_ready=True)
            else:
                self._apply_outcome(agent, outcome, pc_before)
            finish = cpu.charge(cycles)
            # The interleaving guard: any *hazardous* kernel event due at or
            # before the moment the per-instruction engine's completion
            # callback would have fired (frame delivery, a task handler, a
            # timer — anything that may post CPU work or mutate state the
            # next instruction reads) must still run *between* instructions.
            # Fall back to an explicit boundary event at exactly that tick —
            # scheduled here, with no hazardous event firing in between, so
            # the global scheduling order matches the two-step engine's.
            next_hazard = sim.next_hazard_time()
            if next_hazard is not None and next_hazard <= finish:
                self.slice_suspensions += 1
                sim.schedule_at(finish, self._continue, benign=True)
                return
            if outcome is not _CONTINUE or self._current is not agent:
                # Parked, migrating, dead, or slice budget exhausted
                # (the queue rotated): this slice is over.  Nothing hazardous
                # fires before the boundary (guard above), so the completion
                # event is fused away and the next dispatch is posted
                # directly.
                self._continue()
                return
            # Same agent, same slice: pay the inter-instruction hop, re-check
            # the guard against the next instruction's true dispatch tick,
            # and keep executing inside this kernel event.
            finish += hop_us
            cpu.busy_until = finish
            cpu.cycles_executed += _HOP_CYCLES
            if next_hazard is not None and next_hazard <= finish:
                self.slice_suspensions += 1
                sim.schedule_at(finish, self._dispatch, benign=True)
                return
            first = False

    def _vector_reaction(self, agent: Agent) -> bool:
        """Redirect the PC to a fired reaction's handler (§3.2/§3.3).

        The original PC is saved on the stack (so handler code can ``jump``
        back) and the matched tuple is pushed above it.
        """
        handler_pc, tup = agent.pending_reactions.popleft()
        try:
            agent.push(Value(agent.pc))
            agent.push_tuple(tup)
        except AgentError as exc:
            self._trap(agent, exc)
            return False
        agent.pc = handler_pc
        return True

    def _apply_outcome(self, agent: Agent, outcome: Outcome, pc_before: int) -> None:
        """Park, rotate or kill the agent after an instruction whose outcome
        is not ``CONTINUE`` (the slice loop applies that one inline)."""
        if agent.state == AgentState.DEAD:
            return
        if outcome == Outcome.HALT:
            self.middleware.agent_manager.kill(agent, "halt")
        elif outcome == Outcome.YIELD:
            self._rotate(agent, still_ready=True)
        elif outcome == Outcome.SLEEP:
            agent.state = AgentState.SLEEPING
            self._rotate(agent, still_ready=False)
        elif outcome == Outcome.WAIT:
            if agent.pending_reactions:
                # A reaction fired while `wait` executed: stay runnable.
                self._rotate(agent, still_ready=True)
            else:
                agent.state = AgentState.WAIT_RXN
                self._rotate(agent, still_ready=False)
        elif outcome == Outcome.BLOCKED_TS:
            agent.pc = pc_before  # retry the in/rd on the next insert
            agent.state = AgentState.BLOCKED_TS
            self.middleware.tuplespace_manager.block(agent)
            self._rotate(agent, still_ready=False)
        elif outcome == Outcome.MIGRATING:
            agent.state = AgentState.MIGRATING
            self._rotate(agent, still_ready=False)
        elif outcome == Outcome.REMOTE_WAIT:
            agent.state = AgentState.REMOTE_WAIT
            self._rotate(agent, still_ready=False)

    def _rotate(self, agent: Agent, still_ready: bool) -> None:
        if self.run_queue and self.run_queue[0] is agent:
            self.run_queue.popleft()
        elif agent in self.run_queue:
            self.run_queue.remove(agent)
        if still_ready:
            self.run_queue.append(agent)
        self._current = None

    def _continue(self) -> None:
        """End-of-boundary bookkeeping, identical to the two-step engine's
        completion callback: post the next dispatch task (paying the hop
        charge) or let the pump wind down."""
        if self.run_queue:
            self.middleware.mote.tasks.post(DISPATCH_CYCLES, self._dispatch, benign=True)
        else:
            self._pumping = False
            self._current = None

    def _trap(self, agent: Agent, exc: Exception) -> None:
        """Kill a faulting agent.

        A *handler* trap raised mid-batch (a pure instruction overflowing
        the stack, say) is stamped into the death log at the slice's start
        tick, up to a few hundred µs before the instruction's true dispatch
        time — the handler already mutated agent state, so it cannot be
        re-run at the exact tick the way a fetch trap is.  The skew is
        debug-log-only: the agent is dead either way, and no frame, drop, or
        instruction counter depends on it.  (With ``on_instruction``
        instrumentation every instruction runs first-in-event, so traced
        runs never see the skew.)
        """
        self.traps += 1
        agent.trap = str(exc)
        self.middleware.agent_manager.kill(agent, f"trap: {exc}")

    # ------------------------------------------------------------------
    # Reaction delivery
    # ------------------------------------------------------------------
    def deliver_reaction(self, agent: Agent, handler_pc: int, tup: AgillaTuple) -> None:
        """Queue a fired reaction; wake the agent if it is parked."""
        if agent.state in (AgentState.DEAD, AgentState.MIGRATING):
            return
        agent.pending_reactions.append((handler_pc, tup))
        if agent.state == AgentState.SLEEPING:
            self.cancel_sleep(agent)
            self.make_ready(agent)
        elif agent.state == AgentState.WAIT_RXN:
            self.make_ready(agent)
        elif agent.state == AgentState.BLOCKED_TS:
            self.middleware.tuplespace_manager.unblock(agent)
            self.make_ready(agent)
        # READY agents vector at their next instruction boundary;
        # REMOTE_WAIT agents vector once the reply or timeout releases them.
