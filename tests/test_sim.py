"""Tests for the discrete-event simulation engine."""

import pytest

from repro.net.sim import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, order.append, "c")
        sim.schedule(0.1, order.append, "a")
        sim.schedule(0.2, order.append, "b")
        sim.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(1.0, order.append, name)
        sim.run_until_idle()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.25, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [pytest.approx(0.25)]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [pytest.approx(1.5)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_nan_delay_rejected_with_accurate_message(self):
        with pytest.raises(SimulationError, match="NaN delay"):
            Simulator().schedule(float("nan"), lambda: None)

    def test_infinite_delay_rejected(self):
        with pytest.raises(SimulationError, match="infinite"):
            Simulator().schedule(float("inf"), lambda: None)

    def test_nan_and_inf_absolute_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="infinite"):
            sim.schedule_at(float("inf"), lambda: None)

    def test_nan_horizon_rejected_instead_of_running_forever(self):
        sim = Simulator()
        sim.schedule_periodic(1.0, lambda: None)     # keeps the heap non-empty
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert sim.events_executed == 0

    def test_schedule_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(0.5, second)

        def second():
            times.append(sim.now)

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert times == [pytest.approx(1.0), pytest.approx(1.5)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.1, fired.append, 1)
        event.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "keep1")
        doomed = sim.schedule(0.2, fired.append, "drop")
        sim.schedule(0.3, fired.append, "keep2")
        doomed.cancel()
        sim.run_until_idle()
        assert fired == ["keep1", "keep2"]


class TestScheduleMany:
    """Many events scheduled in one go: a burst is a loop of schedule() calls."""

    def test_burst_runs_in_time_then_fifo_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.15, order.append, "solo")
        events = [sim.schedule(delay, order.append, tag)
                  for delay, tag in ((0.2, "b1"), (0.1, "a"), (0.2, "b2"))]
        assert len(events) == 3
        sim.run_until_idle()
        assert order == ["a", "solo", "b1", "b2"]

    def test_burst_matches_sequential_schedules(self):
        # The two scheduling forms draw one sequence: the same burst through
        # schedule(), through post(), or alternating, pops in the same order.
        specs = [(0.01 * (i % 5), i) for i in range(50)]
        orders = []
        for forms in (("schedule",), ("post",), ("schedule", "post")):
            sim, order = Simulator(), []
            for delay, tag in specs:
                getattr(sim, forms[tag % len(forms)])(delay, order.append, tag)
            sim.run_until_idle()
            orders.append(order)
        assert orders[0] == orders[1] == orders[2]
        assert orders[0] == [tag for _, tag in sorted(specs)]

    def test_burst_events_are_cancellable(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(0.1, fired.append, i) for i in range(4)]
        events[1].cancel()
        events[2].cancel()
        sim.run_until_idle()
        assert fired == [0, 3]

    def test_burst_validates_delays(self):
        sim = Simulator()
        fired = []
        with pytest.raises(SimulationError):
            for delay in (0.1, -1.0, 0.2):
                sim.schedule(delay, fired.append, delay)
        # The rejected delay left nothing behind; the one before it stands.
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert fired == [0.1]


class TestPost:
    """The fire-and-forget form shares the heap, the sequence and the loop."""

    def test_post_returns_nothing_and_fires(self):
        sim = Simulator()
        fired = []
        assert sim.post(0.5, fired.append, "x") is None
        sim.run_until_idle()
        assert fired == ["x"]
        assert sim.now == pytest.approx(0.5)
        assert sim.events_executed == 1

    def test_post_and_schedule_at_one_instant_fire_in_call_order(self):
        sim = Simulator()
        order = []
        sim.post(1.0, order.append, "p0")
        sim.schedule(1.0, order.append, "s1")
        sim.post(1.0, order.append, "p2")
        sim.schedule_at(1.0, order.append, "a3")
        sim.post(1.0, order.append, "p4")
        sim.run_until_idle()
        assert order == ["p0", "s1", "p2", "a3", "p4"]

    def test_cancelled_handle_between_posts_costs_no_budget(self):
        sim = Simulator()
        fired = []
        sim.post(0.1, fired.append, "first")
        doomed = sim.schedule(0.2, fired.append, "dead")
        sim.post(0.3, fired.append, "second")
        sim.post(0.4, fired.append, "third")
        doomed.cancel()
        sim.run(max_events=2)
        assert fired == ["first", "second"]
        assert sim.events_executed == 2
        assert sim.cancelled_events_pending == 0
        assert sim.pending_events == 1

    def test_cancelled_handle_ahead_of_until_lets_no_late_post_through(self):
        sim = Simulator()
        fired = []
        doomed = sim.schedule(0.5, fired.append, "dead")
        sim.post(5.0, fired.append, "late")
        doomed.cancel()
        sim.run(until=1.0)
        assert fired == []
        assert sim.now == pytest.approx(1.0)
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert fired == ["late"]

    def test_handle_left_past_until_is_still_cancellable(self):
        # The event at the head when run(until=...) stops was looked at but
        # not executed; cancelling it afterwards must count and must hold.
        sim = Simulator()
        fired = []
        late = sim.schedule(5.0, fired.append, "late")
        sim.run(until=1.0)
        late.cancel()
        assert sim.pending_events == 0
        assert sim.cancelled_events_pending == 1
        sim.run_until_idle()
        assert fired == []
        assert sim.cancelled_events_pending == 0

    def test_compaction_mid_run_keeps_posted_entries_and_order(self):
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(0.5, fired.append, f"dead{i}") for i in range(100)]
        for i in range(20):
            sim.post(0.2 + 0.01 * (i % 4), fired.append, i)

        def cancel_all():
            for event in doomed:
                event.cancel()          # drives cancelled > half the heap
            sim.post(0.05, fired.append, "late")

        sim.post(0.1, cancel_all)
        sim.run_until_idle()
        assert sim.heap_size == 0
        expected = sorted(range(20), key=lambda i: (i % 4, i))
        assert fired == ["late"] + expected

    def test_counters_reset_and_step_over_mixed_entries(self):
        sim = Simulator()
        fired = []
        sim.post(0.1, fired.append, "p")
        doomed = sim.schedule(0.2, fired.append, "dead")
        kept = sim.schedule(0.3, fired.append, "s")
        sim.post(0.4, fired.append, "q")
        doomed.cancel()
        assert sim.heap_size == 4
        assert sim.pending_events == 3
        assert sim.cancelled_events_pending == 1
        assert sim.step() is True and fired == ["p"]
        assert sim.step() is True and fired == ["p", "s"]     # skips the dead one
        assert sim.now == pytest.approx(0.3)
        assert sim.cancelled_events_pending == 0
        kept.cancel()                      # already executed: must not count
        assert sim.cancelled_events_pending == 0
        assert sim.pending_events == 1
        late = sim.schedule(1.0, fired.append, "never")
        sim.reset()
        late.cancel()                      # after reset: must not count either
        assert (sim.now, sim.heap_size, sim.pending_events,
                sim.cancelled_events_pending, sim.events_executed) == (0.0, 0, 0, 0, 0)
        assert sim.step() is False
        assert fired == ["p", "s"]

    @pytest.mark.parametrize("delay, message", [
        (float("nan"), "NaN delay"),
        (float("inf"), "infinite"),
        (float("-inf"), "infinite"),
        (-1e-9, "in the past"),
    ])
    def test_post_rejects_bad_delays(self, delay, message):
        sim = Simulator()
        with pytest.raises(SimulationError, match=message):
            sim.post(delay, lambda: None)
        assert sim.heap_size == 0


class TestHeapHygiene:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        doomed.cancel()
        assert sim.pending_events == 1

    def test_mass_periodic_stop_compacts_heap(self):
        sim = Simulator()
        processes = [sim.schedule_periodic(1.0, lambda: None) for _ in range(200)]
        assert sim.pending_events == 200
        for process in processes:
            process.stop()
        assert sim.pending_events == 0
        # Lazy deletion must not leave the heap dominated by dead entries.
        assert sim.heap_size <= 200 // 2
        assert sim.cancelled_events_pending == sim.heap_size

    def test_compaction_preserves_execution_order(self):
        sim = Simulator()
        order = []
        events = [sim.schedule(0.01 * (i + 1), order.append, i) for i in range(100)]
        for event in events[::2]:
            event.cancel()            # triggers compaction part-way through
        sim.run_until_idle()
        assert order == list(range(1, 100, 2))

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.cancelled_events_pending in (0, 1)   # compaction may have run
        assert sim.pending_events == 0

    def test_cancellation_inside_callback_keeps_later_events(self):
        # Regression: compaction rebinds must happen in place — events
        # scheduled after a mid-run compaction must still execute.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(0.5, fired.append, f"dead{i}") for i in range(100)]

        def cancel_all_then_reschedule():
            for event in doomed:
                event.cancel()          # drives cancelled > half the heap
            sim.schedule(0.1, fired.append, "late")

        sim.schedule(0.1, cancel_all_then_reschedule)
        sim.run_until_idle()
        assert fired == ["late"]

    def test_cancel_of_executed_event_does_not_corrupt_accounting(self):
        # Regression: a periodic process stopping itself from its own
        # callback cancels the event that is currently executing (already
        # popped); the dead-entry counter must not move.
        sim = Simulator()
        fired = []
        holder = {}

        def tick():
            fired.append(sim.now)
            holder["process"].stop()             # cancels the in-flight event

        holder["process"] = sim.schedule_periodic(0.1, tick)
        sim.run_until_idle()
        assert len(fired) == 1
        assert sim.pending_events == 0
        assert sim.cancelled_events_pending == 0

    def test_cancel_after_reset_does_not_corrupt_accounting(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.reset()
        event.cancel()
        assert sim.pending_events == 0
        assert sim.cancelled_events_pending == 0

    def test_run_until_ignores_cancelled_head_beyond_limit(self):
        # Regression: a cancelled event ahead of the time limit must not let
        # a live event *past* the limit execute.
        sim = Simulator()
        fired = []
        doomed = sim.schedule(0.5, fired.append, "dead")
        sim.schedule(5.0, fired.append, "late")
        doomed.cancel()
        sim.run(until=1.0)
        assert fired == []
        assert sim.now == pytest.approx(1.0)
        assert sim.pending_events == 1


class TestRunLimits:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=1.0)
        assert fired == ["early"]
        assert sim.now == pytest.approx(1.0)
        assert sim.pending_events == 1

    def test_run_until_advances_clock_even_with_no_events(self):
        sim = Simulator()
        sim.run(until=2.0)
        assert sim.now == pytest.approx(2.0)

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_executed == 3

    def test_step_returns_false_when_idle(self):
        assert Simulator().step() is False

    def test_reset_clears_everything(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_executed == 0


class TestPeriodicProcess:
    def test_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(0.5, lambda: times.append(sim.now))
        sim.run(until=2.2)
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_stop_halts_future_firings(self):
        sim = Simulator()
        count = [0]
        process = sim.schedule_periodic(0.1, lambda: count.__setitem__(0, count[0] + 1))
        sim.run(until=0.35)
        process.stop()
        sim.run(until=1.0)
        assert count[0] == 3

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_jitter_function_applied(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now), jitter_fn=lambda: 0.25)
        sim.run(until=3.0)
        assert times == pytest.approx([1.25, 2.5])

    def test_callback_args_passed(self):
        sim = Simulator()
        seen = []
        sim.schedule_periodic(0.5, seen.append, "tick")
        sim.run(until=1.1)
        assert seen == ["tick", "tick"]
