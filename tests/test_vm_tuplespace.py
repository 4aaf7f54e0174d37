"""VM tuple-space semantics: out/inp/rdp, blocking in/rd, reactions, tcount."""

from repro.agilla.agent import AgentState
from repro.agilla.assembler import assemble
from repro.agilla.fields import StringField, Value
from repro.agilla.params import TS_SCAN_CYCLES_PER_BYTE
from repro.agilla.tuples import make_template, make_tuple
from repro.agilla.tuplespace import TupleSpace

from tests.util import run_agent, run_to_death, single_node


def stack_values(agent):
    return [f.value for f in agent.stack if isinstance(f, Value)]


def user_tuples(net, at=(1, 1)):
    """Tuples excluding the middleware's context tuples."""
    context_tags = {"tmp", "lit", "mag", "snd", "agt"}
    result = []
    for tup in net.tuples_at(at):
        first = tup.fields[0] if tup.fields else None
        if isinstance(first, StringField) and first.text in context_tags:
            continue
        result.append(tup)
    return result


class TestOutInpRdp:
    def test_out_inserts(self):
        net = single_node()
        run_agent(net, "pushc 7\npushc 1\nout\nwait")
        assert make_tuple(Value(7)) in user_tuples(net)

    def test_out_sets_condition(self):
        net = single_node()
        agent = run_agent(net, "pushc 7\npushc 1\nout\nwait")
        assert agent.condition == 1

    def test_inp_removes_and_pushes(self):
        net = single_node()
        agent = run_agent(
            net,
            "pushc 7\npushc 1\nout\n"  # insert <7>
            "pusht VALUE\npushc 1\ninp\nwait",
        )
        assert agent.condition == 1
        # Stack now holds the tuple: field 7 then arity 1.
        assert stack_values(agent) == [7, 1]
        assert user_tuples(net) == []

    def test_inp_miss_sets_condition_zero(self):
        net = single_node()
        agent = run_agent(net, "pushn xyz\npushc 1\ninp\nwait")
        assert agent.condition == 0
        assert agent.stack == []

    def test_rdp_copies(self):
        net = single_node()
        agent = run_agent(
            net,
            "pushc 7\npushc 1\nout\npusht VALUE\npushc 1\nrdp\nwait",
        )
        assert agent.condition == 1
        assert len(user_tuples(net)) == 1  # still there

    def test_tcount(self):
        net = single_node()
        agent = run_agent(
            net,
            "pushc 1\npushc 1\nout\n"
            "pushc 2\npushc 1\nout\n"
            "pusht VALUE\npushc 1\ntcount\nwait",
        )
        assert stack_values(agent)[-1] == 2

    def test_multi_field_tuple_round_trip(self):
        net = single_node()
        agent = run_agent(
            net,
            "pushn fir\nloc\npushc 2\nout\n"  # <'fir', here>
            "pushn fir\npusht LOCATION\npushc 2\ninp\nwait",
        )
        assert agent.condition == 1
        assert agent.stack[-1] == Value(2)  # arity on top

    def test_context_tuples_present_at_boot(self):
        # Paper §2.2: sensor-availability tuples are pre-inserted.
        net = single_node()
        tags = {
            t.fields[0].text
            for t in net.tuples_at((1, 1))
            if isinstance(t.fields[0], StringField)
        }
        assert {"tmp", "lit", "mag", "snd"} <= tags

    def test_agent_context_tuple_tracks_residents(self):
        net = single_node()
        agent = run_agent(net, "wait")
        agt_template = make_template(StringField("agt"))
        counts = [
            t
            for t in net.tuples_at((1, 1))
            if t.arity == 2 and isinstance(t.fields[0], StringField)
            and t.fields[0].text == "agt"
        ]
        assert len(counts) == 1
        net.middleware((1, 1)).agent_manager.kill(agent, "test")
        counts_after = [
            t
            for t in net.tuples_at((1, 1))
            if t.arity == 2 and isinstance(t.fields[0], StringField)
            and t.fields[0].text == "agt"
        ]
        assert counts_after == []


class TestBlockingInRd:
    def test_in_blocks_until_insert(self):
        net = single_node()
        consumer = run_agent(net, "pushn key\npusht VALUE\npushc 2\nin\nwait")
        assert consumer.state == AgentState.BLOCKED_TS
        producer = run_agent(net, "pushn key\npushc 42\npushc 2\nout\nhalt")
        assert producer.state == AgentState.DEAD
        net.run_until(lambda: consumer.state == AgentState.WAIT_RXN, 5.0)
        assert consumer.condition == 1
        assert stack_values(consumer) == [42, 2]
        assert user_tuples(net) == []  # `in` removed it

    def test_rd_blocks_but_leaves_tuple(self):
        net = single_node()
        consumer = run_agent(net, "pushn key\npusht VALUE\npushc 2\nrd\nwait")
        assert consumer.state == AgentState.BLOCKED_TS
        run_agent(net, "pushn key\npushc 42\npushc 2\nout\nhalt")
        net.run_until(lambda: consumer.state == AgentState.WAIT_RXN, 5.0)
        assert consumer.condition == 1
        assert len(user_tuples(net)) == 1

    def test_in_succeeds_immediately_when_present(self):
        net = single_node()
        run_agent(net, "pushn key\npushc 1\npushc 2\nout\nhalt")
        consumer = run_agent(net, "pushn key\npusht VALUE\npushc 2\nin\nwait")
        assert consumer.state == AgentState.WAIT_RXN

    def test_two_blocked_agents_one_tuple(self):
        net = single_node()
        first = run_agent(net, "pushn key\npusht VALUE\npushc 2\nin\nwait", name="one")
        second = run_agent(net, "pushn key\npusht VALUE\npushc 2\nin\nwait", name="two")
        run_agent(net, "pushn key\npushc 5\npushc 2\nout\nhalt", name="prod")
        net.run(2.0)
        states = sorted([first.state, second.state], key=lambda s: s.value)
        # Exactly one wins the race; the other re-blocks.
        assert AgentState.BLOCKED_TS in states
        assert AgentState.WAIT_RXN in states

    def test_non_matching_insert_does_not_release(self):
        net = single_node()
        consumer = run_agent(net, "pushn key\npusht VALUE\npushc 2\nin\nwait")
        run_agent(net, "pushn oth\npushc 1\npushc 2\nout\nhalt")
        net.run(2.0)
        assert consumer.state == AgentState.BLOCKED_TS


class TestReactions:
    FIRETRACKER_STYLE = """
        pushn fir
        pusht LOCATION
        pushc 2
        pushc FIRE
        regrxn
        wait
        FIRE pop
        pushc LED_RED_ON
        putled
        wait
    """

    def test_reaction_fires_on_matching_insert(self):
        net = single_node()
        tracker = run_agent(net, self.FIRETRACKER_STYLE, name="trk")
        assert tracker.state == AgentState.WAIT_RXN
        run_agent(net, "pushn fir\nloc\npushc 2\nout\nhalt", name="det")
        net.run(2.0)
        assert net.middleware((1, 1)).mote.leds.lit() == ["red"]

    def test_matched_tuple_lands_on_stack_above_saved_pc(self):
        net = single_node()
        source = """
            pushn fir
            pusht LOCATION
            pushc 2
            pushc HANDLER
            regrxn
            wait
            HANDLER wait
        """
        tracker = run_agent(net, source, name="trk")
        run_agent(net, "pushn fir\nloc\npushc 2\nout\nhalt", name="det")
        net.run(2.0)
        assert tracker.state == AgentState.WAIT_RXN
        # Stack: saved PC, then tuple fields ('fir', loc), then arity 2.
        assert tracker.stack[-1] == Value(2)
        assert tracker.stack[-3] == StringField("fir")
        assert isinstance(tracker.stack[-4], Value)  # the saved PC

    def test_reaction_wakes_sleeping_agent(self):
        net = single_node()
        source = """
            pushn fir
            pusht LOCATION
            pushc 2
            pushc HANDLER
            regrxn
            pushcl 8000
            sleep
            HANDLER pushc LED_GREEN_ON
            putled
            wait
        """
        sleeper = run_agent(net, source, name="slp")
        assert sleeper.state == AgentState.SLEEPING
        run_agent(net, "pushn fir\nloc\npushc 2\nout\nhalt", name="det")
        net.run(2.0)
        assert net.middleware((1, 1)).mote.leds.lit() == ["green"]

    def test_deregrxn_stops_firing(self):
        net = single_node()
        source = """
            pushn fir
            pusht LOCATION
            pushc 2
            pushc HANDLER
            regrxn
            pushn fir
            pusht LOCATION
            pushc 2
            deregrxn
            wait
            HANDLER pushc LED_RED_ON
            putled
            wait
        """
        agent = run_agent(net, source, name="trk")
        assert agent.condition == 1  # deregrxn found the registration
        run_agent(net, "pushn fir\nloc\npushc 2\nout\nhalt", name="det")
        net.run(2.0)
        assert net.middleware((1, 1)).mote.leds.lit() == []

    def test_deregrxn_missing_sets_condition_zero(self):
        net = single_node()
        agent = run_agent(net, "pushn fir\npushc 1\nderegrxn\nwait")
        assert agent.condition == 0

    def test_reactions_cleaned_up_on_death(self):
        net = single_node()
        agent = run_agent(net, self.FIRETRACKER_STYLE, name="trk")
        registry = net.middleware((1, 1)).tuplespace_manager.registry
        assert len(registry) == 1
        net.middleware((1, 1)).agent_manager.kill(agent, "test")
        assert len(registry) == 0

    def test_reaction_fires_for_tuple_already_matching_on_register(self):
        # Reactions are *future-looking*: a pre-existing tuple does not fire
        # them (the agent should probe first) — matching Agilla semantics.
        net = single_node()
        run_agent(net, "pushn fir\nloc\npushc 2\nout\nhalt", name="det")
        tracker = run_agent(net, self.FIRETRACKER_STYLE, name="trk")
        net.run(2.0)
        assert tracker.state == AgentState.WAIT_RXN
        assert net.middleware((1, 1)).mote.leds.lit() == []


class TestArenaWorkCycles:
    def test_failed_insert_is_charged_no_arena_work(self):
        # Regression: a rejected `out` was charged the previous arena
        # operation's cycles (here a 32-byte rdp miss scan).
        manager = single_node().middleware((1, 1)).tuplespace_manager
        manager.space = TupleSpace(capacity=40)
        for _ in range(8):
            assert manager.insert(make_tuple(Value(1)))[0]  # 4 B each
        miss = manager.read(make_template(StringField("no")))
        assert miss == (None, 32 * TS_SCAN_CYCLES_PER_BYTE)
        inserted, cycles = manager.insert(
            make_tuple(StringField("big"), Value(1), Value(2))  # 10 B
        )
        assert (inserted, cycles) == (False, 0)
        assert manager.space.used_bytes == 32
