"""VM execution tests: stack machine, control flow, context instructions."""

import pytest

from repro.agilla.agent import AgentState
from repro.agilla.assembler import Program
from repro.agilla.fields import (
    AgentIdField,
    LocationField,
    Reading,
    StringField,
    Value,
)
from repro.location import Location
from repro.mote.environment import ConstantField, Environment
from repro.mote.sensors import TEMPERATURE
from repro.network import SensorNetwork
from repro.radio.linkmodels import PerfectLinks
from repro.sim.units import seconds
from repro.topology import GridTopology

from tests.util import corridor, run_agent, single_node


def stack_values(agent):
    return [f.value for f in agent.stack if isinstance(f, Value)]


class TestPushAndStack:
    def test_pushc_pushcl(self):
        agent = run_agent(single_node(), "pushc 7\npushcl -300\nwait")
        assert agent.stack == [Value(7), Value(-300)]

    def test_pushn_pushloc(self):
        agent = run_agent(single_node(), "pushn fir\npushloc 5 1\nwait")
        assert agent.stack == [StringField("fir"), LocationField(Location(5, 1))]

    def test_pop_copy_swap(self):
        agent = run_agent(
            single_node(), "pushc 1\npushc 2\npushc 3\npop\ncopy\nswap\nwait"
        )
        assert stack_values(agent) == [1, 2, 2]  # pop 3; copy 2; swap no-op here
        agent2 = run_agent(single_node(seed=1), "pushc 1\npushc 2\nswap\nwait")
        assert stack_values(agent2) == [2, 1]

    def test_depth(self):
        agent = run_agent(single_node(), "pushc 9\npushc 9\ndepth\nwait")
        assert stack_values(agent)[-1] == 2

    def test_stack_overflow_traps(self):
        source = "\n".join(["pushc 1"] * 17) + "\nwait"
        agent = run_agent(single_node(), source)
        assert agent.state == AgentState.DEAD
        assert "overflow" in agent.trap

    def test_stack_underflow_traps(self):
        agent = run_agent(single_node(), "pop\nhalt")
        assert agent.state == AgentState.DEAD
        assert "underflow" in agent.trap


class TestArithmetic:
    @pytest.mark.parametrize(
        "program, expected",
        [
            ("pushc 2\npushc 3\nadd", 5),
            ("pushc 7\npushc 3\nsub", 4),
            ("pushc 6\npushc 7\nmul", 42),
            ("pushc 12\npushc 10\nand", 8),
            ("pushc 12\npushc 3\nor", 15),
            ("pushc 12\npushc 10\nxor", 6),
            ("pushc 0\nnot", -1),
            ("pushc 41\ninc", 42),
            ("pushc 43\ndec", 42),
        ],
    )
    def test_binary_ops(self, program, expected):
        agent = run_agent(single_node(), program + "\nwait")
        assert stack_values(agent) == [expected]

    def test_int16_wraparound(self):
        agent = run_agent(single_node(), "pushcl 32767\ninc\nwait")
        assert stack_values(agent) == [-32768]

    def test_arithmetic_on_string_traps(self):
        agent = run_agent(single_node(), "pushn abc\npushc 1\nadd\nhalt")
        assert agent.state == AgentState.DEAD
        assert "numeric" in agent.trap


class TestComparisons:
    def test_clt_matches_paper_figure13(self):
        # Stack: (reading, 200); clt sets condition when 200 < reading.
        net = single_node(environment=Environment({TEMPERATURE: ConstantField(500)}))
        agent = run_agent(net, "pushc TEMPERATURE\nsense\npushcl 200\nclt\ncpush\nwait")
        assert stack_values(agent)[-1] == 1

    def test_clt_false_when_cool(self):
        net = single_node(environment=Environment({TEMPERATURE: ConstantField(50)}))
        agent = run_agent(net, "pushc TEMPERATURE\nsense\npushcl 200\nclt\ncpush\nwait")
        assert stack_values(agent)[-1] == 0

    @pytest.mark.parametrize(
        "op, a, b, expected",
        [
            ("ceq", 5, 5, 1),
            ("ceq", 5, 6, 0),
            ("cneq", 5, 6, 1),
            ("cgt", 3, 7, 1),  # top(7) > below(3)... wait: a pushed first
            ("clte", 7, 7, 1),
            ("cgte", 9, 5, 0),
        ],
    )
    def test_comparison_table(self, op, a, b, expected):
        # Push a then b: top of stack is b. Predicate applies (top, below).
        agent = run_agent(single_node(), f"pushc {a}\npushc {b}\n{op}\ncpush\nwait")
        assert stack_values(agent)[-1] == expected

    def test_ceq_structural_for_strings(self):
        agent = run_agent(single_node(), "pushn abc\npushn abc\nceq\ncpush\nwait")
        assert stack_values(agent)[-1] == 1

    def test_ordered_compare_of_strings_traps(self):
        agent = run_agent(single_node(), "pushn abc\npushn abd\nclt\nhalt")
        assert agent.state == AgentState.DEAD


class TestControlFlow:
    def test_rjump_skips(self):
        agent = run_agent(
            single_node(), "rjump SKIP\npushc 1\nSKIP pushc 2\nwait"
        )
        assert stack_values(agent) == [2]

    def test_rjumpc_taken_only_on_condition(self):
        source = (
            "pushc 1\npushc 1\nceq\n"  # condition = 1
            "rjumpc TAKEN\npushc 99\nTAKEN pushc 42\nwait"
        )
        agent = run_agent(single_node(), source)
        assert stack_values(agent) == [42]

    def test_rjumpc_not_taken(self):
        source = (
            "pushc 1\npushc 2\nceq\n"  # condition = 0
            "rjumpc SKIP\npushc 99\nSKIP pushc 42\nwait"
        )
        agent = run_agent(single_node(), source)
        assert stack_values(agent) == [99, 42]

    def test_jump_via_stack_address(self):
        source = "pushc END\njump\npushc 1\nEND pushc 2\nwait"
        agent = run_agent(single_node(), source)
        assert stack_values(agent) == [2]

    def test_loop_with_counter(self):
        source = """
            pushc 0
            LOOP inc
            copy
            pushc 5
            ceq
            cpush
            pushc 0
            ceq
            rjumpc LOOP
            wait
        """
        agent = run_agent(single_node(), source)
        assert stack_values(agent) == [5]

    def test_pc_past_end_traps(self):
        agent = run_agent(single_node(), "pushc 1\npop")
        assert agent.state == AgentState.DEAD
        assert "fetch" in agent.trap

    def test_halt_frees_resources(self):
        net = single_node()
        middleware = net.middleware((1, 1))
        agent = run_agent(net, "halt")
        assert agent.state == AgentState.DEAD
        assert agent.death_reason == "halt"
        assert middleware.agent_manager.agents == {}
        assert middleware.instruction_manager.free_blocks == 20


class TestContextInstructions:
    def test_loc_pushes_host_location(self):
        agent = run_agent(single_node(), "loc\nwait")
        assert agent.stack == [LocationField(Location(1, 1))]

    def test_aid_pushes_agent_id(self):
        agent = run_agent(single_node(), "aid\nwait")
        assert agent.stack == [AgentIdField(agent.id)]

    def test_numnbrs_and_getnbr(self):
        net = corridor(3)
        agent = run_agent(net, "numnbrs\npushc 0\ngetnbr\nwait", at=(2, 1))
        # (2,1) has neighbors (1,1) and (3,1).
        assert agent.stack[0] == Value(2)
        assert agent.stack[1] == LocationField(Location(1, 1))
        assert agent.condition == 1

    def test_getnbr_out_of_range_sets_condition_zero(self):
        net = corridor(2)
        agent = run_agent(net, "pushc 9\ngetnbr\nwait", at=(1, 1))
        assert agent.condition == 0
        assert agent.stack == [LocationField(Location(1, 1))]

    def test_randnbr(self):
        net = corridor(3)
        agent = run_agent(net, "randnbr\nwait", at=(2, 1))
        assert agent.condition == 1
        assert agent.stack[0].location in (Location(1, 1), Location(3, 1))

    def test_randnbr_no_neighbors(self):
        agent = run_agent(single_node(), "randnbr\nwait")
        assert agent.condition == 0

    def test_rand_is_bounded(self):
        agent = run_agent(single_node(), "rand\nwait")
        assert 0 <= agent.stack[0].value < 32768

    def test_sense_pushes_reading(self):
        net = single_node(environment=Environment({TEMPERATURE: ConstantField(321)}))
        agent = run_agent(net, "pushc TEMPERATURE\nsense\nwait")
        assert agent.stack == [Reading(TEMPERATURE, 321)]

    def test_putled(self):
        net = single_node()
        run_agent(net, "pushc LED_RED_ON\nputled\nwait")
        assert net.middleware((1, 1)).mote.leds.lit() == ["red"]


class TestHeap:
    def test_setvar_getvar(self):
        agent = run_agent(single_node(), "pushc 42\nsetvar 3\ngetvar 3\nwait")
        assert stack_values(agent) == [42]

    def test_empty_slot_traps(self):
        agent = run_agent(single_node(), "getvar 0\nhalt")
        assert agent.state == AgentState.DEAD
        assert "empty" in agent.trap

    def test_heap_holds_any_field_type(self):
        agent = run_agent(single_node(), "pushloc 3 4\nsetvar 0\ngetvar 0\nwait")
        assert agent.stack == [LocationField(Location(3, 4))]


class TestSleepAndScheduling:
    def test_sleep_parks_and_wakes(self):
        net = single_node()
        # 8 ticks of 1/8 s = 1 second.
        agent = run_agent(net, "pushc 8\nsleep\npushc 5\nwait")
        assert agent.state == AgentState.SLEEPING
        started = net.sim.now
        net.run_until(lambda: agent.state == AgentState.WAIT_RXN, 5.0)
        assert stack_values(agent) == [5]
        assert net.sim.now - started >= seconds(0.9)

    def test_round_robin_interleaves_agents(self):
        net = single_node()
        source = "pushc LED_GREEN_TOGGLE\nputled\nwait"
        first = run_agent(net, source, name="one")
        second = run_agent(net, source, name="two")
        assert first.state == second.state == AgentState.WAIT_RXN
        engine = net.middleware((1, 1)).engine
        assert engine.context_switches >= 2

    def test_agent_limit_enforced(self):
        from repro.errors import AgentLimitError
        from repro.agilla.assembler import assemble

        net = single_node()
        for index in range(4):
            net.inject(assemble("wait", name=f"a{index}"), at=(1, 1))
        with pytest.raises(AgentLimitError):
            net.inject(assemble("wait", name="overflow"), at=(1, 1))

    def test_instructions_counted(self):
        net = single_node()
        agent = run_agent(net, "pushc 1\npushc 2\nadd\nwait")
        assert agent.instructions_executed == 4


class TestDecodedFetch:
    """Fetches decode through per-program tables shared across a network;
    these pin each fetch trap's exact text and tick."""

    @staticmethod
    def run_raw(code, net=None, at=(1, 1)):
        net = net if net is not None else single_node()
        agent = net.inject(Program("raw", bytes(code)), at=at)
        net.run_until(lambda: agent.state == AgentState.DEAD, 10.0)
        return agent

    def test_negative_pc_traps_instead_of_wrapping(self):
        agent = run_agent(single_node(), "pushcl -5\njump")
        assert agent.trap == f"agent {agent.id}: code fetch [-5:-4] outside image of 4 B"

    def test_jump_into_pushcl_operand_decodes_that_byte(self):
        # pushcl 255 = 2c ff 00; its low operand byte is no opcode.
        agent = self.run_raw([0x2C, 0xFF, 0x00, 0x2B, 0x01, 0x19])  # ...; pushc 1; jump
        assert agent.instructions_executed == 3
        assert agent.trap == f"agent {agent.id}: invalid opcode 0xff"

    def test_truncated_instruction_at_image_end_traps(self):
        agent = self.run_raw([0x2B, 0x01, 0x2C, 0x05])  # pushc 1; pushcl, 1 of 2 B
        assert agent.trap == f"agent {agent.id}: code fetch [2:5] outside image of 4 B"

    def test_invalid_opcode_at_image_end_traps(self):
        agent = self.run_raw([0x2B, 0x01, 0x3C])  # pushc 1; 0x3c is unassigned
        assert agent.trap == f"agent {agent.id}: invalid opcode 0x3c"

    def test_mid_slice_fetch_trap_is_stamped_at_its_true_tick(self):
        net = single_node()
        agent = run_agent(net, "pushc 1\npop")  # falls off the end mid-slice
        assert agent.trap == f"agent {agent.id}: code fetch [3:4] outside image of 3 B"
        # Three 16 us dispatch hops and two 60 us class-A instructions: the
        # third fetch's own tick, not the slice's start.
        death_log = net.middleware((1, 1)).agent_manager.death_log
        assert death_log == [(agent.id, "test", f"trap: {agent.trap}", 168)]

    def test_one_table_per_program_per_network(self):
        def deploy():
            net = SensorNetwork(
                GridTopology(2, 1), link_model=PerfectLinks(), base_station=False
            )
            decoded = []
            for at in ((1, 1), (2, 1)):
                agent = run_agent(net, "pushc 1\nwait", at=at)
                decoded.append(net.middleware(at).instruction_manager.fetch(agent.id, 0))
            return decoded

        first, second = deploy()
        other, _ = deploy()
        assert first is second
        assert other == first and other is not first

    def test_failed_decodes_are_not_shared(self):
        """A trap names its own agent, so a failed decode is never cached."""
        net = single_node()
        first = self.run_raw([0x2B, 0x01, 0x3C], net)
        second = self.run_raw([0x2B, 0x01, 0x3C], net)
        assert first.id != second.id
        assert second.trap == f"agent {second.id}: invalid opcode 0x3c"
