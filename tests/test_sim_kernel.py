"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator, ms, seconds, to_ms, to_seconds, us
from repro.tinyos.timer import Timer


class TestUnits:
    def test_seconds(self):
        assert seconds(1) == 1_000_000
        assert seconds(0.5) == 500_000

    def test_ms(self):
        assert ms(1) == 1_000
        assert ms(2.5) == 2_500

    def test_us_rounds(self):
        assert us(1.4) == 1
        assert us(1.6) == 2

    def test_round_trips(self):
        assert to_seconds(seconds(3.25)) == 3.25
        assert to_ms(ms(42)) == 42.0


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(300, order.append, "c")
        sim.schedule(100, order.append, "a")
        sim.schedule(200, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_tick_fires_in_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(50, order.append, tag)
        sim.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1234, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [1234]
        assert sim.now == 1234

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, 1)
        handle.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run_until_idle()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_call_now_runs_at_current_tick(self):
        sim = Simulator()
        times = []
        sim.schedule(10, lambda: sim.call_now(lambda: times.append(sim.now)))
        sim.run_until_idle()
        assert times == [10]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(5, chain, depth + 1)

        sim.schedule(0, chain, 0)
        sim.run_until_idle()
        assert seen == [0, 1, 2, 3]


class TestRunLimits:
    def test_run_duration_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "in")
        sim.schedule(5000, fired.append, "out")
        sim.run(duration=1000)
        assert fired == ["in"]
        assert sim.now == 1000  # clock advanced to the deadline
        sim.run_until_idle()
        assert fired == ["in", "out"]

    def test_run_until_absolute(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run(until=400)
        assert sim.now == 400

    def test_duration_and_until_exclusive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run(duration=10, until=20)

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_stop_during_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, sim.stop)
        sim.schedule(30, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_pending_events_counts_uncancelled(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        handle = sim.schedule(20, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_pending_events_counter_tracks_lifecycle(self):
        sim = Simulator()
        assert sim.pending_events == 0
        first = sim.schedule(10, lambda: None)
        second = sim.schedule(20, lambda: None)
        assert sim.pending_events == 2
        sim.run(duration=15)
        assert sim.pending_events == 1
        second.cancel()
        second.cancel()  # repeat cancels must not double-decrement
        assert sim.pending_events == 0
        first.cancel()  # cancelling an already-fired event is a no-op
        assert sim.pending_events == 0
        sim.run_until_idle()
        assert sim.pending_events == 0


class TestMaxEventsClock:
    """Regression: a run cut short by max_events must not jump the clock to
    the deadline while earlier events are still queued (the clock would then
    move backwards on the next step)."""

    def test_max_events_leaves_clock_at_last_fired_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, fired.append, "b")
        sim.run(duration=1000, max_events=1)
        assert fired == ["a"]
        assert sim.now == 10  # NOT 1000: the queue was not drained
        sim.step()
        assert sim.now == 20  # monotonic, no backwards jump
        sim.run(duration=980)
        assert sim.now == 1000  # drained: now the deadline is honoured

    def test_drained_run_still_advances_to_deadline(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run(duration=1000, max_events=50)
        assert sim.now == 1000  # queue drained well before max_events

    def test_stop_still_leaves_clock_at_current_event(self):
        sim = Simulator()
        sim.schedule(10, sim.stop)
        sim.schedule(500, lambda: None)
        sim.run(duration=1000)
        assert sim.now == 10

    def test_raising_callback_does_not_jump_clock_over_queued_events(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("agent crashed")

        sim.schedule(10, boom)
        sim.schedule(20, fired.append, "later")
        with pytest.raises(RuntimeError):
            sim.run(duration=1000)
        assert sim.now == 10  # not fast-forwarded past the t=20 event
        sim.step()
        assert sim.now == 20 and fired == ["later"]  # monotonic recovery


class TestQueueHygiene:
    def test_stats_shape(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        handle = sim.schedule(20, lambda: None)
        handle.cancel()
        stats = sim.stats()
        assert stats["queued"] == 2
        assert stats["live"] == 1
        assert stats["dead"] == 1
        assert stats["compactions"] == 0
        assert stats["events_fired"] == 0
        sim.run_until_idle()
        stats = sim.stats()
        assert stats["queued"] == 0
        assert stats["dead"] == 0
        assert stats["events_fired"] == 1

    def test_compaction_purges_dead_majority(self):
        sim = Simulator()
        handles = [sim.schedule(1000 + i, lambda: None) for i in range(100)]
        for handle in handles[:60]:
            handle.cancel()
        stats = sim.stats()
        assert stats["compactions"] >= 1
        assert stats["dead"] < stats["queued"]  # the heap was scrubbed
        assert stats["live"] == 40
        sim.run_until_idle()
        assert sim.events_fired == 40  # survivors all fired exactly once

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        sim.COMPACT_MIN_QUEUE = 4  # force compaction at toy sizes
        order = []
        handles = [
            sim.schedule(100 - i, order.append, 100 - i) for i in range(20)
        ]
        for index, handle in enumerate(handles):
            if index % 3:  # cancel two thirds: a clear dead majority
                handle.cancel()
        sim.run_until_idle()
        assert order == sorted(order)
        assert sim.compactions >= 1
        assert len(order) == 7

    def test_compaction_inside_run_keeps_the_loop_on_the_live_heap(self):
        """A callback cancels a dead majority, which compacts the heap from
        inside run(), and then schedules more events: every survivor and
        every new event must still fire, in (time, seq) order."""
        sim = Simulator()
        sim.COMPACT_MIN_QUEUE = 8
        fired = []
        handles = [
            sim.schedule(100 + 10 * i, fired.append, ("old", i)) for i in range(40)
        ]
        # Between survivors, on survivors' ticks (after them) and past them.
        new_times = [105, 180, 245, 300, 460, 500]

        def purge():
            for i, handle in enumerate(handles):
                if i % 4:
                    handle.cancel()  # 30 of 40 dead
            assert sim.compactions == 1
            for j, time in enumerate(new_times):
                sim.schedule_at(time, fired.append, ("new", j))

        sim.schedule(50, purge)
        sim.run_until_idle()
        expected = sorted(
            [(100 + 10 * i, 0, ("old", i)) for i in range(0, 40, 4)]
            + [(time, 1, ("new", j)) for j, time in enumerate(new_times)]
        )
        assert fired == [tag for _, _, tag in expected]
        assert sim.pending_events == 0 and sim.stats()["queued"] == 0

    def test_recurring_event_reuses_one_handle(self):
        sim = Simulator()
        ticks = []
        sim.every(1_000, lambda: ticks.append(sim.now))
        sim.run(duration=5_500)
        assert ticks == [1_000, 2_000, 3_000, 4_000, 5_000]
        assert sim.handle_reuses == len(ticks)

    def test_periodic_timer_reuses_one_handle(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start_periodic(100)
        sim.run(duration=1_050)
        assert timer.fired_count == 10
        assert sim.handle_reuses == 10

    def test_reschedule_rejects_unfired_or_cancelled_handles(self):
        sim = Simulator()
        pending = sim.schedule(10, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(pending, 5)  # still queued
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.reschedule(pending, -1)  # negative delay
        pending.cancel()
        with pytest.raises(SimulationError):
            sim.reschedule(pending, 5)  # cancelled after firing


# ----------------------------------------------------------------------
# Property: the optimized kernel fires in exactly the order a naive one does
# ----------------------------------------------------------------------
class NaiveSimulator:
    """The obvious reference implementation: a plain list scanned for the
    (time, seq) minimum, no handle reuse, no compaction."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._events = []  # [time, seq, fn, cancelled]

    def schedule(self, delay, fn):
        entry = [self.now + int(delay), self._seq, fn, False]
        self._seq += 1
        self._events.append(entry)
        return entry

    def run(self, duration):
        deadline = self.now + int(duration)
        while True:
            live = [entry for entry in self._events if not entry[3]]
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if entry[0] > deadline:
                break
            self._events.remove(entry)
            self.now = entry[0]
            entry[2]()
        self.now = deadline


class NaiveTimer:
    """Mirrors :class:`repro.tinyos.timer.Timer` semantics with no reuse."""

    def __init__(self, sim, callback):
        self.sim = sim
        self.callback = callback
        self._pending = None
        self._period = None
        self._remaining = None

    def start_one_shot(self, delay):
        self.stop()
        self._period = None
        self._pending = self.sim.schedule(delay, self._fire)

    def start_periodic(self, period):
        self.stop()
        self._period = int(period)
        self._pending = self.sim.schedule(period, self._fire)

    def stop(self):
        self._remaining = None
        if self._pending is not None:
            self._pending[3] = True
            self._pending = None

    def pause(self):
        if self._pending is None or self._pending[3]:
            return
        self._remaining = max(0, self._pending[0] - self.sim.now)
        self._pending[3] = True
        self._pending = None

    def resume(self):
        if self._remaining is None:
            return
        delay = self._remaining
        self._remaining = None
        self._pending = self.sim.schedule(delay, self._fire)

    def _fire(self):
        self._pending = None
        if self._period is not None:
            self._pending = self.sim.schedule(self._period, self._fire)
        self.callback()


kernel_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("periodic"), st.integers(min_value=40, max_value=300)),
        st.tuples(st.just("stop"), st.integers(min_value=0, max_value=10)),
        st.tuples(
            st.just("restart"),
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=400),
        ),
        st.tuples(st.just("pause"), st.integers(min_value=0, max_value=10)),
        st.tuples(st.just("resume"), st.integers(min_value=0, max_value=10)),
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=500)),
    ),
    min_size=0,
    max_size=60,
)


class TestOptimizedKernelEqualsNaive:
    @given(kernel_ops)
    @settings(max_examples=120, deadline=None)
    def test_firing_order_matches_reference(self, operations):
        sim = Simulator()
        sim.COMPACT_MIN_QUEUE = 4  # make compaction part of every example
        naive = NaiveSimulator()
        logs = ([], [])
        handles: list = [[], []]  # plain scheduled events per side
        timers: list = [[], []]  # Timer / NaiveTimer per side
        sides = (
            (sim, logs[0], handles[0], timers[0], Timer),
            (naive, logs[1], handles[1], timers[1], NaiveTimer),
        )

        def recorder(kernel, side_log, label):
            return lambda: side_log.append((kernel.now, label))

        for op in operations:
            for kernel, log, scheduled, side_timers, timer_cls in sides:
                if op[0] == "schedule":
                    label = f"s{len(scheduled)}"
                    scheduled.append(
                        kernel.schedule(op[1], recorder(kernel, log, label))
                    )
                elif op[0] == "cancel" and scheduled:
                    target = scheduled[op[1] % len(scheduled)]
                    if isinstance(target, list):
                        target[3] = True  # naive cancel
                    else:
                        target.cancel()
                elif op[0] == "periodic":
                    label = f"t{len(side_timers)}"
                    timer = timer_cls(kernel, recorder(kernel, log, label))
                    timer.start_periodic(op[1])
                    side_timers.append(timer)
                elif op[0] == "stop" and side_timers:
                    side_timers[op[1] % len(side_timers)].stop()
                elif op[0] == "restart" and side_timers:
                    side_timers[op[1] % len(side_timers)].start_one_shot(op[2])
                elif op[0] == "pause" and side_timers:
                    side_timers[op[1] % len(side_timers)].pause()
                elif op[0] == "resume" and side_timers:
                    side_timers[op[1] % len(side_timers)].resume()
                elif op[0] == "advance":
                    kernel.run(op[1])

        for kernel, *_ in sides:
            kernel.run(2_000)

        assert logs[0] == logs[1]
        assert sim.now == naive.now


class TestRandomStreams:
    def test_streams_are_deterministic_across_runs(self):
        a = Simulator(seed=7).rng("channel").random()
        b = Simulator(seed=7).rng("channel").random()
        assert a == b

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=7)
        assert sim.rng("a").random() != sim.rng("b").random()

    def test_streams_differ_by_seed(self):
        a = Simulator(seed=1).rng("x").random()
        b = Simulator(seed=2).rng("x").random()
        assert a != b

    def test_same_name_returns_same_stream(self):
        sim = Simulator()
        assert sim.rng("x") is sim.rng("x")
