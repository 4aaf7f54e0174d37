"""The run-slice engine: O(slices) kernel events, bit-identical CPU timeline.

PR 5 replaced the Agilla engine's one-task-post-per-instruction execution
loop with bounded run-slices — up to ``slice_length`` instructions per kernel
event while the outcome stays ``CONTINUE``.  These tests pin the contract:

* fewer kernel events than instructions (the point of the refactor);
* the CPU busy horizon — and therefore everything timestamped downstream —
  is unchanged by how instructions are grouped into events;
* time-sensitive instructions suspend the batch and observe their *true*
  simulated time;
* instrumentation (``on_instruction``) forces per-instruction events so
  traces keep exact timestamps.
"""

from repro.agilla.assembler import assemble
from repro.agilla.isa import BY_NAME, NOW_PURE_OPCODES
from repro.agilla.params import AgillaParams
from repro.agilla.tracer import Tracer
from repro.network import SensorNetwork
from repro.topology import GridTopology


def _one_node(params: AgillaParams | None = None) -> SensorNetwork:
    return SensorNetwork(
        GridTopology(1, 1), base_station=False, beacons=False, seed=0, params=params
    )


#: A compute-heavy loop: 60 iterations of pure stack work, then halt.
LOOP = """
    pushc 60
    TOP copy
    pushc 0
    ceq
    rjumpc DONE
    dec
    pushc TOP
    jump
    DONE pop
    halt
"""


class TestRunSlices:
    def test_agent_work_posts_fewer_events_than_instructions(self):
        net = _one_node()
        middleware = net.middleware((1, 1))
        events_before = net.sim.events_fired
        middleware.inject(assemble(LOOP, name="lp"))
        net.run(20.0)
        executed = middleware.engine.instructions_executed
        events = net.sim.events_fired - events_before
        assert executed > 200  # the loop actually ran
        # The per-instruction engine needed > 2 events per instruction
        # (completion callback + next dispatch task); slices need ~1/4.
        assert events < executed / 2

    def test_slice_grouping_does_not_move_the_cpu_timeline(self):
        """Grouping 1 vs 4 instructions per event must not move a single
        microsecond: ``putled`` timestamps its LED history with the true
        simulated time, so identical histories prove the busy horizon
        evolves identically however the slices are cut."""
        histories = []
        cycles = []
        for slice_length in (1, 4):
            net = _one_node(AgillaParams(slice_length=slice_length))
            middleware = net.middleware((1, 1))
            middleware.inject(
                assemble(
                    "pushc 8\npushc 1\nadd\npushc 15\nputled\n" * 3 + "halt",
                    name="tl",
                )
            )
            net.run(20.0)
            histories.append(middleware.mote.leds.history)
            cycles.append(middleware.mote.cpu.cycles_executed)
        assert histories[0] == histories[1]
        assert histories[0]  # putled actually ran
        assert cycles[0] == cycles[1]

    def test_time_sensitive_instruction_suspends_the_slice(self):
        net = _one_node()
        middleware = net.middleware((1, 1))
        # putled lands mid-slice (instruction 3 of 4): the batch must
        # suspend and resume so the LED history gets its true timestamp.
        middleware.inject(
            assemble("pushc 1\npushc 1\npushc 15\nputled\nhalt", name="ts")
        )
        net.run(10.0)
        assert middleware.engine.slice_suspensions >= 1

    def test_instrumented_engine_keeps_per_instruction_timestamps(self):
        net = _one_node()
        middleware = net.middleware((1, 1))
        with Tracer(middleware) as trace:
            middleware.inject(assemble(LOOP, name="tr"))
            net.run(20.0)
        times = [entry.time for entry in trace.entries]
        assert len(times) > 200
        # Strictly increasing: with the hook installed every instruction is
        # dispatched in its own kernel event at its own simulated time.
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_now_pure_set_excludes_the_clock_observers(self):
        for name in ("sense", "sleep", "putled", "halt", "smove", "rout"):
            assert BY_NAME[name].opcode not in NOW_PURE_OPCODES, name
        for name in ("pushc", "add", "jump", "out", "inp", "regrxn"):
            assert BY_NAME[name].opcode in NOW_PURE_OPCODES, name

    def test_round_robin_quantum_unchanged(self):
        """Two compute-heavy agents still interleave every slice_length
        instructions — the §3.2 context-switch quantum survives batching."""
        net = _one_node()
        middleware = net.middleware((1, 1))
        order = []
        middleware.engine.on_instruction = lambda agent, idef, cycles: order.append(
            agent.name
        )
        middleware.inject(assemble(LOOP, name="aaa"))
        middleware.inject(assemble(LOOP, name="bbb"))
        net.run(30.0)
        quantum = middleware.params.slice_length
        # Collapse the stream into runs: every full run is one slice long.
        runs = []
        for name in order:
            if runs and runs[-1][0] == name:
                runs[-1][1] += 1
            else:
                runs.append([name, 1])
        assert len(runs) > 10  # they really interleaved
        assert all(length <= quantum for _, length in runs)
        assert {name for name, _ in runs} == {"aaa", "bbb"}
