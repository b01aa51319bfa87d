"""Counter, alarm and time-interval semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import changed, make_app
from osekcheck import explorer, kernel_core, timing
from osekcheck.model import (E_OK, E_OS_NOFUNC, E_OS_STATE, E_OS_VALUE,
                             NORMAL, TransitionLabel, alarmed_signal,
                             error_status)
from osekcheck.task_lang import CallService
from osekcheck.task_lang import TimeInterval as TimeIntervalStmt
from osekcheck.task_lang import WhileTrue

OIL = """
COUNTER C { MAXALLOWEDVALUE = 15; MINCYCLE = 2; SYSTEM = TRUE; };
TASK Init { PRIORITY = 1; AUTOSTART = TRUE; };
TASK W { PRIORITY = 2; };
ALARM AL  { COUNTER = C; ACTION = ACTIVATETASK { TASK = W; }; };
ALARM AL2 { COUNTER = C; ACTION = ACTIVATETASK { TASK = W; }; };
"""

TSK = """
TASK Init { TimeInterval = 5; TerminateTask(); }
TASK W { TerminateTask(); }
"""


@pytest.fixture
def state():
    config, bodies = make_app(OIL, TSK)
    return kernel_core.boot(config, bodies)


@pytest.fixture
def unit_state():
    """The app of ``state`` booted in the unit idle mode."""
    config, bodies = make_app(OIL, TSK)
    return kernel_core.boot(config, bodies, timing.UNIT)


TICK = TransitionLabel(kind="time", amount=1, reason="idle")


def arm(state, alarm_id, at, cycle=0):
    state = state.with_alarm(state.alarm_cell(alarm_id)._replace(
        alarm_time=at, cycle_time=cycle))
    return changed(state,
                   working_alarms=state.working_alarms + (alarm_id,))


# ==== counter and expiry arithmetic ========================================


class TestCounter:
    def test_tick_wraps(self, state):
        wrapped = timing._advance(changed(state, counter_value=15), 1, TICK)
        assert wrapped.counter_value == 0

    def test_tick_raises_expiry_signal_on_landing(self, state):
        state = arm(state, "AL", 2)
        one = timing._advance(state, 1, TICK)
        assert not one.signals
        two = timing._advance(one, 1, TICK)
        assert alarmed_signal("AL") in two.signals

    def test_distance_counts_to_expiry(self, state):
        state = arm(state, "AL", 5)
        assert timing.expiry_distance(state, "AL") == 5

    def test_distance_same_value_is_full_wrap(self, state):
        state = arm(state, "AL", 0)
        assert timing.expiry_distance(state, "AL") == 16

    def test_next_expiry_picks_nearest(self, state):
        state = arm(arm(state, "AL", 9), "AL2", 4)
        assert timing.next_expiry(state) == 4

    def test_next_expiry_groups_simultaneous(self, state):
        state = arm(arm(state, "AL", 4), "AL2", 4)
        assert timing.next_expiry(state) == 4

    def test_next_expiry_none_without_alarms(self, state):
        assert timing.next_expiry(state) is None

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 63), st.integers(0, 4000), st.integers(0, 4000))
    def test_no_expiry_is_missed(self, mav, at_raw, rv_raw):
        oil = (f"COUNTER C {{ MAXALLOWEDVALUE = {mav}; MINCYCLE = 1; "
               "SYSTEM = TRUE; };"
               "TASK Init { PRIORITY = 1; AUTOSTART = TRUE; };"
               "TASK W { PRIORITY = 2; };"
               "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK "
               "{ TASK = W; }; };")
        tsk = "TASK Init { TerminateTask(); } TASK W { TerminateTask(); }"
        config, bodies = make_app(oil, tsk)
        boot = kernel_core.boot(config, bodies)
        at, rv = at_raw % (mav + 1), rv_raw % (mav + 1)
        probe = arm(changed(boot, counter_value=rv), "AL", at)
        distance = timing.expiry_distance(probe, "AL")
        walker, steps = probe, 0
        while True:
            walker = timing._advance(walker, 1, TICK)
            steps += 1
            if alarmed_signal("AL") in walker.signals:
                break
            assert steps <= mav + 1, "alarm never expired"
        assert steps == distance


# ==== relative alarms ======================================================


class TestSetRelAlarm:
    def test_arms_against_pre_tick_counter(self, state):
        after = kernel_core.call_service(state, "Init",
                                         "SetRelAlarm", "AL", 5, 0)
        assert after.alarm_cell("AL").alarm_time == 5
        assert after.counter_value == 1
        assert "AL" in after.working_alarms
        assert after.last_label.calls[0].status == E_OK

    def test_already_armed_is_state_error(self, state):
        state = arm(state, "AL", 9)
        after = kernel_core.call_service(state, "Init",
                                         "SetRelAlarm", "AL", 5, 0)
        assert after.last_label.calls[0].status == E_OS_STATE
        assert after.alarm_cell("AL").alarm_time == 9

    def test_increment_beyond_counter_range(self, state):
        after = kernel_core.call_service(state, "Init",
                                         "SetRelAlarm", "AL", 16, 0)
        assert after.last_label.calls[0].status == E_OS_VALUE
        assert "AL" not in after.working_alarms

    def test_cycle_below_min_cycle(self, state):
        after = kernel_core.call_service(state, "Init",
                                         "SetRelAlarm", "AL", 5, 1)
        assert after.last_label.calls[0].status == E_OS_VALUE

    def test_cycle_zero_and_in_range_accepted(self, state):
        ok0 = kernel_core.call_service(state, "Init",
                                       "SetRelAlarm", "AL", 5, 0)
        ok2 = kernel_core.call_service(state, "Init",
                                       "SetRelAlarm", "AL2", 5, 2)
        assert ok0.last_label.calls[0].status == E_OK
        assert ok2.last_label.calls[0].status == E_OK

    def test_zero_increment_expires_immediately(self, state):
        after = kernel_core.call_service(state, "Init",
                                         "SetRelAlarm", "AL", 0, 0)
        assert alarmed_signal("AL") in after.signals
        assert after.alarm_cell("AL").alarm_time == 0

    def test_strict_mode_freezes_failures(self):
        config, bodies = make_app(OIL, TSK.replace(
            "TASK Init {", "TASK Init { SetRelAlarm(AL, 5, 0);"))
        armed = arm(kernel_core.boot(config, bodies), "AL", 9)
        strict = explorer.step(armed, strict=True)
        relaxed = explorer.step(armed)
        assert relaxed == kernel_core.call_service(armed, "Init",
                                                   "SetRelAlarm", "AL", 5, 0)
        assert strict.status == error_status(E_OS_STATE)
        assert relaxed.status == NORMAL
        assert changed(strict, status=NORMAL) == relaxed


# ==== absolute alarms ======================================================


class TestSetAbsAlarm:
    def test_arms_at_literal_counter_value(self, state):
        state = changed(state, counter_value=9)
        after = kernel_core.call_service(state, "Init",
                                         "SetAbsAlarm", "AL", 3, 0)
        assert after.alarm_cell("AL").alarm_time == 3
        assert timing.expiry_distance(after, "AL") == 3 - 10 + 16

    def test_start_equal_to_counter_waits_full_wrap(self, state):
        after = kernel_core.call_service(state, "Init",
                                         "SetAbsAlarm", "AL", 0, 0)
        # the service itself ticked the counter to 1, so 15 ticks remain
        assert timing.expiry_distance(after, "AL") == 15
        assert alarmed_signal("AL") not in after.signals

    def test_start_beyond_range(self, state):
        after = kernel_core.call_service(state, "Init",
                                         "SetAbsAlarm", "AL", 16, 0)
        assert after.last_label.calls[0].status == E_OS_VALUE


# ==== cancellation =========================================================


class TestCancelAlarm:
    def test_cancel_unarmed_is_nofunc(self, state):
        after = kernel_core.call_service(state, "Init", "CancelAlarm", "AL")
        assert after.last_label.calls[0].status == E_OS_NOFUNC

    def test_cancel_disarms_but_keeps_cell(self, state):
        state = arm(state, "AL", 9, cycle=4)
        after = kernel_core.call_service(state, "Init", "CancelAlarm", "AL")
        assert "AL" not in after.working_alarms
        assert after.alarm_cell("AL").alarm_time == 9

    def test_cancel_on_the_eve_of_expiry_suppresses_it(self, state):
        # counter 0, expiry at 1: the cancel's own tick lands on the old
        # expiry time and must not raise the signal
        state = arm(state, "AL", 1)
        after = kernel_core.call_service(state, "Init", "CancelAlarm", "AL")
        assert after.counter_value == 1
        assert not after.signals

    def test_rearm_after_cancel(self, state):
        state = arm(state, "AL", 9)
        state = kernel_core.call_service(state, "Init", "CancelAlarm", "AL")
        after = kernel_core.call_service(state, "Init",
                                         "SetRelAlarm", "AL", 4, 0)
        assert after.last_label.calls[0].status == E_OK
        assert after.alarm_cell("AL").alarm_time == 5  # armed at counter 1


# ==== computation time =====================================================


class TestTimeInterval:
    def test_runs_to_completion_without_alarms(self, state):
        after = timing.exec_time_interval(state, "Init", 5)
        assert after.counter_value == 5
        assert after.last_label.amount == 5
        cell = after.task_cell("Init")
        assert (cell.pc, cell.residue) == (1, 0)
        assert after.front("Init") == CallService("TerminateTask")

    def test_split_at_expiry_keeps_residue(self, state):
        state = arm(state, "AL", 2)
        after = timing.exec_time_interval(state, "Init", 5)
        assert after.counter_value == 2
        assert alarmed_signal("AL") in after.signals
        cell = after.task_cell("Init")
        assert (cell.pc, cell.residue) == (0, 3)
        assert after.front("Init") == TimeIntervalStmt(3)

    def test_exact_fit_is_not_split(self, state):
        state = arm(state, "AL", 5)
        after = timing.exec_time_interval(state, "Init", 5)
        assert after.counter_value == 5
        assert alarmed_signal("AL") in after.signals
        cell = after.task_cell("Init")
        assert (cell.pc, cell.residue) == (1, 0)
        assert after.front("Init") == CallService("TerminateTask")


class TestLoopEntry:
    def test_entry_charges_one_tick_and_unrolls(self):
        config, bodies = make_app(OIL, """
TASK Init { while (true) { Schedule(); } }
TASK W { TerminateTask(); }
""")
        state = kernel_core.boot(config, bodies)
        assert isinstance(state.front("Init"), WhileTrue)
        after = timing.exec_loop_entry(state, "Init")
        assert after.counter_value == 1
        assert after.last_label.reason == "loop"
        cell = after.task_cell("Init")
        assert (cell.pc, cell.residue) == (1, 0)
        assert after.front("Init") == CallService("Schedule")


# ==== idle time ============================================================


class TestIdleAdvance:
    def test_jump_lands_on_next_expiry(self, state):
        state = arm(state, "AL", 6)
        after = timing.idle_advance(state)
        assert after.counter_value == 6
        assert alarmed_signal("AL") in after.signals
        assert after.last_label.reason == "idle"

    def test_unit_moves_one_tick(self, unit_state):
        state = arm(unit_state, "AL", 6)
        after = timing.idle_advance(state)
        assert after.counter_value == 1
        assert not after.signals

    def test_unit_landing_raises_signal(self, unit_state):
        state = arm(unit_state, "AL", 1)
        after = timing.idle_advance(state)
        assert alarmed_signal("AL") in after.signals
