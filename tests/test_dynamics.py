"""Dynamics subsystem: incremental channel re-keying, mobility, churn, duty.

The load-bearing contract here is the radio channel's *incremental* hearer
index: after any interleaving of moves, failures, recoveries, departures and
re-attachments, the cached index must equal brute force in attach order and
one rebuilt from scratch (hypothesis pins this),
and a mobility tick must never trigger a full rebuild (counter assertions pin
that — the O(degree) claim of ISSUE 2's acceptance criteria).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dynamics import (
    DeploymentDynamics,
    DutyCycle,
    LinearDrift,
    RandomLifetimes,
    RandomWaypoint,
    ScheduledChurn,
    StaticMobility,
    dynamics_from_spec,
)
from repro.errors import NetworkError, RadioError, SimulationError
from repro.location import Location
from repro.network import SensorNetwork
from repro.radio.channel import Channel
from repro.radio.frame import Frame
from repro.radio.linkmodels import PerfectLinks
from repro.sim.kernel import Simulator
from repro.topology import GridTopology
from tests.test_radio import make_mote


# ----------------------------------------------------------------------
# Recurring kernel events
# ----------------------------------------------------------------------
class TestRecurringEvents:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        sim.every(1_000, lambda: ticks.append(sim.now))
        sim.run(duration=5_500)
        assert ticks == [1_000, 2_000, 3_000, 4_000, 5_000]

    def test_cancel_stops_the_chain(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(1_000, lambda: ticks.append(sim.now))
        sim.run(duration=2_500)
        handle.cancel()
        sim.run(duration=5_000)
        assert ticks == [1_000, 2_000]
        assert handle.cancelled

    def test_callback_may_cancel_itself(self):
        sim = Simulator()
        fired = []

        def once():
            fired.append(sim.now)
            handle.cancel()

        handle = sim.every(1_000, once)
        sim.run_until_idle()
        assert fired == [1_000]

    def test_rejects_non_positive_period(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)
        # A sub-microsecond float would truncate to 0 and livelock the clock.
        with pytest.raises(SimulationError):
            sim.every(0.5, lambda: None)


# ----------------------------------------------------------------------
# Channel: move / detach invalidation
# ----------------------------------------------------------------------
def _channel_with_radios(positions, range_m=100.0, seed=0):
    sim = Simulator(seed=seed)
    channel = Channel(sim, PerfectLinks(range_m=range_m), grid_spacing_m=1.0)
    radios = []
    for index, (x, y) in enumerate(positions, start=1):
        radio = channel.attach(make_mote(sim, index, 0, 0), position=(x, y))
        radios.append(radio)
    return sim, channel, radios


class TestChannelMove:
    def test_move_into_range_enables_delivery(self):
        sim, channel, (a, b) = _channel_with_radios([(0, 0), (500, 0)])
        got = []
        b.set_receive_callback(got.append)
        a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert got == []  # 500 m apart: out of range
        channel.move(2, (50.0, 0.0))
        a.send(Frame(1, 2, 0x10, b"y"))
        sim.run_until_idle()
        assert len(got) == 1

    def test_move_out_of_range_stops_delivery(self):
        sim, channel, (a, b) = _channel_with_radios([(0, 0), (50, 0)])
        got = []
        b.set_receive_callback(got.append)
        a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert len(got) == 1
        channel.move(2, (500.0, 0.0))
        a.send(Frame(1, 2, 0x10, b"y"))
        sim.run_until_idle()
        assert len(got) == 1  # stale index would have delivered again

    def test_move_does_not_rebuild_the_index(self):
        positions = [(40.0 * i, 40.0 * j) for i in range(10) for j in range(10)]
        sim, channel, radios = _channel_with_radios(positions)
        for radio in radios:
            channel.hearers(radio)  # warm the whole index
        baseline = channel.full_invalidations
        for step in range(1, 21):
            channel.move(1 + step % len(radios), (13.0 * step, 7.0 * step))
        assert channel.full_invalidations == baseline
        assert channel.index_moves == 20

    def test_move_same_position_is_a_noop(self):
        sim, channel, radios = _channel_with_radios([(0, 0), (50, 0)])
        channel.hearers(radios[0])
        channel.move(1, (0.0, 0.0))
        assert channel.index_moves == 0

    def test_move_unknown_mote_rejected(self):
        sim, channel, _ = _channel_with_radios([(0, 0)])
        with pytest.raises(RadioError):
            channel.move(99, (1.0, 1.0))

    def test_detach_stops_both_directions(self):
        sim, channel, (a, b, c) = _channel_with_radios([(0, 0), (50, 0), (80, 0)])
        got_b, got_c = [], []
        b.set_receive_callback(got_b.append)
        c.set_receive_callback(got_c.append)
        channel.hearers(a)  # warm a's hearer list (contains b and c)
        channel.detach(2)
        a.send(Frame(1, 2, 0x10, b"x"))
        sim.run_until_idle()
        assert got_b == []  # detached radio no longer hears
        assert len(got_c) == 1  # bystander still does
        assert channel.radio_for(2) is None
        with pytest.raises(RadioError):
            channel.detach(2)

    def test_detached_radio_cannot_send(self):
        sim, channel, (a, b) = _channel_with_radios([(0, 0), (50, 0)])
        channel.detach(1)
        outcomes = []
        a.send(Frame(1, 2, 0x10, b"x"), outcomes.append)
        sim.run_until_idle()
        assert outcomes == [False]

    def test_unbounded_link_model_falls_back_to_full_invalidation(self):
        class Everywhere:
            def in_range(self, src, dst):
                return True

            def prr(self, src, dst):
                return 1.0

        sim = Simulator()
        channel = Channel(sim, Everywhere(), grid_spacing_m=1.0)
        a = channel.attach(make_mote(sim, 1, 0, 0), position=(0.0, 0.0))
        b = channel.attach(make_mote(sim, 2, 1, 0), position=(1.0, 0.0))
        assert channel.hearers(a) == [b]
        before = channel.full_invalidations
        channel.move(2, (9000.0, 0.0))
        assert channel.full_invalidations == before + 1
        assert channel.hearers(a) == [b]  # still audible: infinite reach


# ----------------------------------------------------------------------
# Property: incremental index == index rebuilt from scratch
# ----------------------------------------------------------------------
RANGE_M = 2.5

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("move"),
            st.integers(min_value=0, max_value=11),
            st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
            st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
        ),
        st.tuples(st.just("fail"), st.integers(min_value=0, max_value=11)),
        st.tuples(st.just("recover"), st.integers(min_value=0, max_value=11)),
        st.tuples(st.just("detach"), st.integers(min_value=0, max_value=11)),
        st.tuples(
            st.just("attach"),
            st.integers(min_value=0, max_value=11),
            st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
            st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
        ),
        st.tuples(st.just("query"), st.integers(min_value=0, max_value=11)),
    ),
    min_size=0,
    max_size=40,
)


class TestIncrementalIndexProperty:
    @given(ops)
    @example([("detach", 1), ("attach", 1, 0.5, 0.5), ("move", 0, 0.0, 1.0), ("query", 1)])
    @settings(max_examples=120, deadline=None)
    def test_index_matches_scratch_rebuild_after_any_interleaving(self, operations):
        positions = [(1.5 * (i % 4), 1.5 * (i // 4)) for i in range(12)]
        sim, channel, radios = _channel_with_radios(positions, range_m=RANGE_M)
        model = channel.link_model
        for radio in radios:
            channel.hearers(radio)  # start from a fully-warm index
        for op in operations:
            mote_id = op[1] + 1
            radio = channel.radio_for(mote_id)
            if op[0] == "move" and radio is not None:
                channel.move(mote_id, (op[2], op[3]))
            elif op[0] == "fail" and radio is not None:
                radio.enabled = False
            elif op[0] == "recover" and radio is not None:
                radio.enabled = True
            elif op[0] == "detach" and radio is not None:
                channel.detach(mote_id)
            elif op[0] == "attach" and radio is None:
                # A departed id comes back as a new radio somewhere else.
                channel.attach(make_mote(sim, mote_id, 0, 0), position=(op[2], op[3]))
            elif op[0] == "query" and radio is not None:
                channel.hearers(radio)  # interleave cache (re)population

        # The incremental index must agree with brute force over live radios,
        # in attach order: the order the fan-out draws its loss decisions in.
        for radio in channel.radios:
            expected = sorted(
                (
                    other
                    for other in channel.radios
                    if other is not radio
                    and model.in_range(radio.position, other.position)
                ),
                key=lambda other: other._attach_seq,
            )
            assert channel.hearers(radio) == expected

        # …and with itself after a from-scratch rebuild (order included).
        incremental = {r.mote.id: list(channel.hearers(r)) for r in channel.radios}
        channel.invalidate_neighbor_index()
        for radio in channel.radios:
            assert channel.hearers(radio) == incremental[radio.mote.id]


# ----------------------------------------------------------------------
# The deployment-level driver
# ----------------------------------------------------------------------
def _grid_net(width=4, height=4, seed=0, **kwargs):
    return SensorNetwork(
        GridTopology(width, height),
        seed=seed,
        base_station=False,
        spacing_m=60.0,
        **kwargs,
    )


class TestDeploymentDynamics:
    def test_idle_driver_schedules_nothing(self):
        net = _grid_net()
        pending = net.sim.pending_events
        dynamics = dynamics_from_spec(net, None)
        assert dynamics.idle
        dynamics.start()
        assert net.sim.pending_events == pending

    def test_static_mobility_spec_stays_idle(self):
        net = _grid_net()
        dynamics = dynamics_from_spec(net, {"mobility": {"model": "static"}})
        assert dynamics.idle

    def test_mobility_moves_nodes_inside_bounds(self):
        net = _grid_net()
        start = {loc: net.position_of(loc) for loc in (Location(1, 1), Location(4, 4))}
        dynamics = DeploymentDynamics(
            net, mobility=RandomWaypoint(speed=(5.0, 10.0), pause_s=0.0), tick_s=1.0
        ).start()
        net.run(30.0)
        assert dynamics.moves_applied > 0
        moved = 0
        xmin, ymin, xmax, ymax = dynamics.bounds
        for location in start:
            x, y = net.position_of(location)
            assert xmin <= x <= xmax and ymin <= y <= ymax
            if (x, y) != start[location]:
                moved += 1
        assert moved > 0

    def test_same_seed_same_trajectory(self):
        def final_positions():
            net = _grid_net(seed=7)
            DeploymentDynamics(
                net, mobility=RandomWaypoint(speed=(1.0, 3.0)), tick_s=1.0
            ).start()
            net.run(20.0)
            return [net.position_of(loc) for loc in sorted(net.topology.locations())]

        assert final_positions() == final_positions()

    def test_linear_drift_reflects_at_bounds(self):
        net = _grid_net(2, 2)
        dynamics = DeploymentDynamics(
            net, mobility=LinearDrift(velocity=(40.0, 0.0)), tick_s=1.0
        ).start()
        net.run(120.0)
        xmin, _, xmax, _ = dynamics.bounds
        for location in net.topology.locations():
            x, _ = net.position_of(location)
            assert xmin <= x <= xmax

    def test_mobile_fraction_selects_subset(self):
        net = _grid_net()
        dynamics = DeploymentDynamics(
            net, mobility=RandomWaypoint(), mobile=0.25, tick_s=1.0
        )
        assert len(dynamics.mobile_nodes) == 4  # 25% of 16
        everyone = DeploymentDynamics(_grid_net(), mobility=RandomWaypoint(), mobile=1)
        assert len(everyone.mobile_nodes) == 16  # integer fraction accepted

    def test_external_detach_does_not_crash_mobility(self):
        net = _grid_net()
        dynamics = DeploymentDynamics(
            net, mobility=RandomWaypoint(speed=(1.0, 3.0), pause_s=0.0), tick_s=1.0
        ).start()
        net.detach_node((2, 2))  # departure the driver did not orchestrate
        net.run(5.0)
        assert dynamics.moves_applied > 0  # the rest of the field kept moving

    def test_scheduled_churn_fails_recovers_detaches(self):
        net = _grid_net(3, 3)
        DeploymentDynamics(
            net,
            churn=ScheduledChurn(
                [
                    (1.0, "fail", (1, 1)),
                    (3.0, "recover", (1, 1)),
                    (2.0, "detach", (3, 3)),
                ]
            ),
            tick_s=0.5,
        ).start()
        net.run(1.6)
        assert not net.node_up((1, 1))
        net.run(2.0)  # past t=3: recovered, and (3,3) has departed
        assert net.node_up((1, 1))
        assert not net.node_up((3, 3))
        with pytest.raises(NetworkError):
            net.move_node((3, 3), (0.0, 0.0))

    def test_detach_node_is_a_full_departure(self):
        from repro.apps import habitat_monitor

        net = _grid_net(3, 3)
        target = Location(3, 3)
        net.middleware(target).inject(habitat_monitor())
        node = net.nodes[target]
        net.detach_node(target)
        assert target not in net.nodes  # iteration/metrics no longer see it
        assert node.middleware.agents() == []  # agents died with the hardware
        beacons_before = node.beacons.beacons_sent
        net.run(30.0)
        assert node.beacons.beacons_sent == beacons_before  # no phantom timer

    def test_radio_bytes_monotonic_across_detach(self):
        net = _grid_net(3, 3)
        net.run(25.0)  # let beacons put traffic on the air
        before = net.radio_bytes()
        assert before > 0
        net.detach_node((2, 2))
        assert net.radio_bytes() == before  # departed bytes are not forgotten
        net.run(25.0)
        assert net.radio_bytes() > before

    def test_scheduled_churn_replays_when_reused(self):
        model = ScheduledChurn([(1.0, "fail", (1, 1))])
        for _ in range(2):  # the same model driving two fresh deployments
            net = _grid_net(2, 2)
            dynamics = DeploymentDynamics(net, churn=model, tick_s=0.5).start()
            net.run(2.0)
            assert dynamics.fails == 1

    def test_random_lifetimes_drains_every_due_transition(self):
        import random

        model = RandomLifetimes(mtbf_s=0.1, mttr_s=0.1)
        rng = random.Random(1)
        model.start([Location(1, 1)], rng)
        events = model.events(10.0, rng)  # ~100 transitions due in one tick
        assert len(events) > 5  # one-per-tick would report exactly 1
        operations = [op for _, op in events]
        assert operations[0] == "fail"
        assert all(a != b for a, b in zip(operations, operations[1:]))
        assert model._next[0][0] > 10.0  # the schedule caught up past "now"

    def test_random_lifetimes_churn_cycles_nodes(self):
        net = _grid_net()
        dynamics = DeploymentDynamics(
            net, churn=RandomLifetimes(mtbf_s=10.0, mttr_s=5.0), tick_s=1.0
        ).start()
        net.run(60.0)
        assert dynamics.fails > 0
        assert dynamics.recoveries > 0

    def test_duty_cycle_toggles_radios(self):
        net = _grid_net()
        dynamics = DeploymentDynamics(
            net, duty_cycle=DutyCycle(period_s=4.0, on_fraction=0.5), tick_s=1.0
        ).start()
        net.run(20.0)
        assert dynamics.radio_toggles > 0
        toggles = dynamics.radio_toggles
        net.run(8.0)
        assert dynamics.radio_toggles > toggles  # two more duty periods
        dynamics.stop()
        toggles = dynamics.radio_toggles
        net.run(8.0)
        assert dynamics.radio_toggles == toggles

    def test_duty_tick_is_o_changes_not_o_field(self):
        """The acceptance criterion: a tick with no due toggles does zero
        per-node work — only the calendar peek."""
        net = _grid_net()  # 16 nodes
        dynamics = DeploymentDynamics(
            net,
            duty_cycle=DutyCycle(period_s=10.0, on_fraction=0.5, stagger=False),
            tick_s=0.5,
        ).start()
        net.run(0.6)  # first tick: the whole field is due once (phase 0)
        assert dynamics.duty_evaluations == 16
        net.run(4.0)  # ticks 1.0 .. 4.5: nothing due before the 5 s boundary
        assert dynamics.duty_evaluations == 16  # zero evaluations on quiet ticks
        assert dynamics.radio_toggles == 0
        net.run(1.0)  # the 5 s lights-out boundary passes
        assert dynamics.duty_evaluations == 32
        assert dynamics.radio_toggles == 16  # everyone went dark, exactly once

    def test_duty_evaluations_scale_with_transitions_not_ticks(self):
        net = _grid_net()  # 16 nodes, staggered phases
        dynamics = DeploymentDynamics(
            net, duty_cycle=DutyCycle(period_s=10.0, on_fraction=0.5), tick_s=0.1
        ).start()
        net.run(30.0)  # 300 ticks; an O(field) sweep would do 16 * 300 work
        transitions = 16 * 2 * 3  # 2 boundaries per node per 10 s period
        assert dynamics.duty_evaluations <= transitions + 16  # + initial sync
        assert dynamics.duty_evaluations < 16 * 300 / 10  # nowhere near O(field)

    def test_duty_calendar_matches_awake_predicate_every_tick(self):
        """Equivalence with the old full sweep: after every tick each node's
        radio equals alive && awake — the invariant the O(field) version
        enforced by brute force."""
        net = _grid_net(seed=5)
        duty = DutyCycle(period_s=3.0, on_fraction=0.4)
        dynamics = DeploymentDynamics(net, duty_cycle=duty, tick_s=0.5).start()
        toggles = 0
        for _ in range(40):
            net.run(0.5)
            now_s = net.sim.now_seconds
            for location in net.topology.locations():
                assert net.node_up(location) == duty.awake(location, now_s)
            toggles = dynamics.radio_toggles
        assert toggles > 0

    def test_duty_calendar_composes_with_churn(self):
        net = _grid_net(seed=2)
        duty = DutyCycle(period_s=4.0, on_fraction=0.75)
        dynamics = DeploymentDynamics(
            net,
            churn=RandomLifetimes(mtbf_s=8.0, mttr_s=4.0),
            duty_cycle=duty,
            tick_s=0.5,
        ).start()
        net.run(40.0)
        assert dynamics.fails > 0 and dynamics.recoveries > 0
        # A dead node stays down regardless of its duty phase; a live one
        # follows the duty predicate.
        now_s = net.sim.now_seconds
        for location in net.topology.locations():
            expected = dynamics._alive[location] and duty.awake(location, now_s)
            assert net.node_up(location) == expected

    def test_duty_calendar_drops_departed_nodes(self):
        net = _grid_net()
        dynamics = DeploymentDynamics(
            net, duty_cycle=DutyCycle(period_s=2.0, on_fraction=0.5), tick_s=0.5
        ).start()
        net.run(1.0)
        net.detach_node((2, 2))  # departure the driver did not orchestrate
        net.run(10.0)  # calendar pops for (2,2) must be dropped, not re-armed
        assert Location(2, 2) in dynamics._gone
        assert all(loc != Location(2, 2) for _, loc in dynamics._duty_calendar)

    def test_failed_node_receives_nothing(self):
        net = _grid_net(2, 2)
        radio = net.channel.radio_for(net.topology.mote_id(Location(1, 1)))
        net.fail_node((1, 1))
        before = radio.frames_received
        net.run(30.0)  # beacons keep flying among the other three
        assert radio.frames_received == before
        net.recover_node((1, 1))
        net.run(30.0)
        assert radio.frames_received > before

    def test_mobility_never_rebuilds_index(self):
        net = _grid_net(10, 10)
        dynamics = DeploymentDynamics(
            net, mobility=RandomWaypoint(speed=(1.0, 4.0), pause_s=0.0), tick_s=1.0
        ).start()
        net.run(5.0)  # warm up: beacons force the index to build
        net.channel.hearers(net.channel.radios[0])  # ensure the index exists
        baseline = net.channel.full_invalidations
        moves_before = dynamics.moves_applied
        rekeys_before = net.channel.index_moves
        net.run(30.0)
        applied = dynamics.moves_applied - moves_before
        assert applied >= 100 * 25  # every node, most ticks
        # Every applied move was an incremental re-key, never a full rebuild.
        assert net.channel.index_moves - rekeys_before == applied
        assert net.channel.full_invalidations == baseline  # O(degree), not O(N)

    def test_rejects_bad_parameters(self):
        net = _grid_net(2, 2)
        with pytest.raises(NetworkError):
            DeploymentDynamics(net, tick_s=0.0)
        with pytest.raises(NetworkError):
            DeploymentDynamics(net, mobility=RandomWaypoint(), mobile=2.0)
        with pytest.raises(NetworkError):
            DeploymentDynamics(net, mobility=RandomWaypoint(), mobile=[(9, 9)])
        with pytest.raises(NetworkError):
            RandomWaypoint(speed=(0.0, 0.0))
        with pytest.raises(NetworkError):
            DutyCycle(on_fraction=0.0)
        with pytest.raises(NetworkError):
            RandomLifetimes(mtbf_s=0.0)
        with pytest.raises(NetworkError):
            ScheduledChurn([(1.0, "explode", (1, 1))])
        with pytest.raises(NetworkError):  # typo'd node fails at build time
            DeploymentDynamics(net, churn=ScheduledChurn([(1.0, "fail", (9, 9))]))

    def test_spec_round_trip(self):
        net = _grid_net()
        dynamics = dynamics_from_spec(
            net,
            {
                "mobility": {"model": "random_waypoint", "speed": [0.5, 2.0]},
                "mobile_fraction": 0.5,
                "churn": {"model": "lifetimes", "mtbf_s": 30, "mttr_s": 5},
                "duty_cycle": {"period_s": 4.0, "on_fraction": 0.75},
                "tick_s": 0.5,
            },
        )
        assert isinstance(dynamics.mobility, RandomWaypoint)
        assert isinstance(dynamics.churn, RandomLifetimes)
        assert dynamics.duty_cycle is not None
        assert len(dynamics.mobile_nodes) == 8
        # "mobile" also accepts the numeric-fraction form the API accepts.
        numeric = dynamics_from_spec(
            _grid_net(), {"mobility": {"model": "random_waypoint"}, "mobile": 0.5}
        )
        assert len(numeric.mobile_nodes) == 8

    def test_spec_rejects_unknown_keys(self):
        net = _grid_net(2, 2)
        with pytest.raises(NetworkError):
            dynamics_from_spec(net, {"mobilty": {}})
        with pytest.raises(NetworkError):
            dynamics_from_spec(net, {"mobility": {"model": "warp"}})
        with pytest.raises(NetworkError):
            dynamics_from_spec(net, {"churn": {"model": "lifetimes", "mtbf": 3}})
        with pytest.raises(NetworkError):
            dynamics_from_spec(net, {"churn": {"model": "schedule"}})
        with pytest.raises(NetworkError):  # mobile selection without mobility
            dynamics_from_spec(net, {"mobile_fraction": 0.5})
        with pytest.raises(NetworkError):
            dynamics_from_spec(
                net, {"mobility": {"model": "linear"}, "mobile": [[1, 1]], "mobile_fraction": 0.5}
            )

    def test_stop_halts_the_driver(self):
        net = _grid_net(2, 2)
        dynamics = DeploymentDynamics(net, mobility=LinearDrift((5.0, 0.0)), tick_s=1.0).start()
        net.run(3.0)
        moved = dynamics.moves_applied
        assert moved > 0
        dynamics.stop()
        net.run(5.0)
        assert dynamics.moves_applied == moved
