"""The keyword-only scheduling API.

``sim.schedule(fn, *, after=..., at=..., priority=...)`` is the one
scheduling entry point; the pre-redesign positional forms
(``schedule(delay, fn)`` and ``schedule_at(time, fn)``) are gone and
fail loudly at the call.
"""

import pytest

from repro.simcore import (
    MS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    SimulationError,
    Simulator,
    US,
)


class TestKeywordApi:
    def test_after_schedules_relative_to_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(lambda: fired.append(sim.now), after=5 * US)
        sim.run()
        assert fired == [5 * US]

    def test_at_schedules_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule(lambda: fired.append(sim.now), at=2 * MS)
        sim.run()
        assert fired == [2 * MS]

    def test_no_time_argument_fires_at_current_instant(self):
        sim = Simulator()
        fired = []
        sim.schedule(lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_after_and_at_are_mutually_exclusive(self):
        sim = Simulator()
        with pytest.raises(TypeError, match="either 'after' or 'at'"):
            sim.schedule(lambda: None, after=1, at=2)

    def test_negative_after_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(lambda: None, after=-1)

    def test_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(lambda: None, after=10 * US)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(lambda: None, at=5 * US)

    def test_priority_breaks_same_instant_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(lambda: order.append("low"), after=1 * US, priority=PRIORITY_LOW)
        sim.schedule(lambda: order.append("normal"), after=1 * US)
        sim.schedule(lambda: order.append("high"), after=1 * US, priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal", "low"]

    def test_returned_event_supports_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(lambda: fired.append("no"), after=1 * US)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_new_form_does_not_warn(self, recwarn):
        sim = Simulator()
        sim.schedule(lambda: None, after=1 * US)
        sim.schedule(lambda: None, at=2 * US)
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestRetiredForms:
    @pytest.mark.parametrize("scheduler", ["calendar", "heap"])
    def test_positional_delay_raises(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        with pytest.raises(TypeError):
            sim.schedule(5, lambda: None)
        assert not hasattr(sim, "schedule_at")
        assert sim.stats.events_scheduled == 0
