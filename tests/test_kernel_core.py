"""Task management, events, resources and expiry handling."""

from __future__ import annotations

import inspect
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ACTIONS_OIL, ACTIONS_TSK, COINCIDE_OIL, COINCIDE_TSK,
                     changed, check_invariants, make_app, random_app)
from osekcheck import kernel_core, explorer, timing
from osekcheck.model import (E_OK, E_OS_ACCESS, E_OS_LIMIT, E_OS_NOFUNC,
                             E_OS_RESOURCE, E_OS_STATE, NORMAL, READY,
                             RUNNING, SCHEDULE_SIGNAL, SUSPENDED, WAITING,
                             Call, _call_key, alarmed_signal, error_status,
                             rotated)
from osekcheck.task_lang import SERVICES, CallService

OIL = """
COUNTER C { MAXALLOWEDVALUE = 63; MINCYCLE = 1; SYSTEM = TRUE; };
EVENT E { MASK = AUTO; };
EVENT F { MASK = AUTO; };
RESOURCE R { };
TASK Main { PRIORITY = 2; ACTIVATION = 1; AUTOSTART = TRUE; RESOURCE = R; };
TASK Hi   { PRIORITY = 5; ACTIVATION = 1; RESOURCE = R; };
TASK Twin { PRIORITY = 2; ACTIVATION = 2; };
TASK Ext  { PRIORITY = 1; EVENT = E; EVENT = F; };
ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };
ALARM AB { COUNTER = C; ACTION = SETEVENT { TASK = Ext; EVENT = E; }; };
ALARM AC { COUNTER = C; ACTION = ALARMCALLBACK { ALARMCALLBACKNAME = cb; }; };
"""

TSK = """
TASK Main { ActivateTask(Hi); TerminateTask(); }
TASK Hi { TerminateTask(); }
TASK Twin { TerminateTask(); }
TASK Ext { WaitEvent(E); ClearEvent(E); TerminateTask(); }
"""


@pytest.fixture
def state():
    config, bodies = make_app(OIL, TSK)
    return kernel_core.boot(config, bodies)


def healthy(state):
    problems = check_invariants(state)
    assert not problems, problems
    return state


# ==== boot =================================================================


class TestBoot:
    def test_autostart_task_runs(self, state):
        assert state.running == "Main"
        assert state.counter_value == 0
        assert state.task_cell("Hi").state == SUSPENDED
        healthy(state)

    def test_no_autostart_task_is_an_error(self):
        config, bodies = make_app(OIL.replace("AUTOSTART = TRUE;",
                                              "AUTOSTART = FALSE;"), TSK)
        with pytest.raises(kernel_core.BootError):
            kernel_core.boot(config, bodies)

    def test_missing_body_is_an_error(self):
        config, bodies = make_app(OIL, TSK)
        del bodies["Twin"]
        with pytest.raises(kernel_core.BootError):
            kernel_core.boot(config, bodies)

    def test_autostart_alarm_armed_relative_to_boot(self):
        oil = OIL.replace(
            "ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };",
            "ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; };"
            " AUTOSTART = TRUE { ALARMTIME = 7; CYCLETIME = 0; }; };")
        config, bodies = make_app(oil, TSK)
        state = kernel_core.boot(config, bodies)
        assert "AA" in state.working_alarms
        assert state.alarm_cell("AA").alarm_time == 7

    def test_autostart_alarm_offset_zero_fires_at_boot(self):
        oil = OIL.replace(
            "ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };",
            "ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; };"
            " AUTOSTART = TRUE { ALARMTIME = 0; CYCLETIME = 0; }; };")
        config, bodies = make_app(oil, TSK)
        state = kernel_core.boot(config, bodies)
        assert alarmed_signal("AA") in state.signals

    def test_autostart_tasks_are_activated_then_one_dispatched(self):
        oil = OIL.replace("TASK Twin { PRIORITY = 2; ACTIVATION = 2; };",
                          "TASK Twin { PRIORITY = 2; ACTIVATION = 2;"
                          " AUTOSTART = TRUE; };")
        config, bodies = make_app(oil, TSK)
        state = kernel_core.boot(config, bodies)
        assert state.running == "Main"  # declared first, equal priority
        assert state.ready == ((2, ("Twin",)),)
        assert state.task_cell("Twin").state == READY
        assert state.signals == frozenset()
        assert state.last_label.kind == "boot"
        healthy(state)

    def test_failing_autostart_arming_is_an_error(self):
        # validation rejects an ALARMTIME beyond MAXALLOWEDVALUE, so the
        # configuration is altered after parsing; SetRelAlarm says E_OS_VALUE
        oil = OIL.replace(
            "ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };",
            "ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; };"
            " AUTOSTART = TRUE { ALARMTIME = 7; CYCLETIME = 0; }; };")
        config, bodies = make_app(oil, TSK)
        alarm = config.alarms["AA"]._replace(autostart_offset=64)
        config = config._replace(alarms={**config.alarms, "AA": alarm})
        with pytest.raises(kernel_core.BootError, match="E_OS_VALUE"):
            kernel_core.boot(config, bodies)


# ==== the service table ====================================================


class TestServiceTable:
    @pytest.mark.parametrize("name", sorted(SERVICES))
    def test_every_parsed_service_has_an_effect_of_its_arity(self, name):
        params = inspect.signature(kernel_core.EFFECTS[name]).parameters
        assert list(params)[:2] == ["state", "caller"]
        assert len(params) - 2 == len(SERVICES[name])

    def test_no_effect_without_a_parsed_service(self):
        assert set(kernel_core.EFFECTS) == set(SERVICES)


# ==== activation ===========================================================


class TestActivateTask:
    def test_suspended_target_becomes_ready(self, state):
        after = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        assert after.task_cell("Hi").state == READY
        assert SCHEDULE_SIGNAL in after.signals
        assert after.counter_value == 1
        healthy(after)

    def test_single_activation_overflow(self, state):
        once = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        twice = kernel_core.call_service(once, "Main", "ActivateTask", "Hi")
        assert twice.last_label.calls[0].status == E_OS_LIMIT
        assert twice.task_cell("Hi").pending_activations == 0
        healthy(twice)

    def test_multiple_activation_records_pending(self, state):
        once = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        twice = kernel_core.call_service(once, "Main", "ActivateTask", "Twin")
        assert twice.last_label.calls[0].status == E_OK
        assert twice.task_cell("Twin").pending_activations == 1
        third = kernel_core.call_service(twice, "Main", "ActivateTask", "Twin")
        assert third.last_label.calls[0].status == E_OS_LIMIT
        healthy(third)

    def test_self_activation_while_running(self, state):
        # Main has ACTIVATION = 1 and is live, so self-activation overflows
        after = kernel_core.call_service(state, "Main", "ActivateTask", "Main")
        assert after.last_label.calls[0].status == E_OS_LIMIT


class TestMultiActivationRelease:
    def prepare(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)  # dispatch Twin
        state = kernel_core.call_service(state, "Twin", "TerminateTask")
        return state

    def test_pending_instance_released(self, state):
        state = self.prepare(state)
        assert state.task_cell("Twin").pending_activations == 1
        assert kernel_core.multiactivation_candidate(state) == "Twin"
        released = kernel_core.handle_multiactivation(state, "Twin")
        cell = released.task_cell("Twin")
        assert cell.state == READY
        assert cell.pending_activations == 0
        healthy(released)

    def test_release_is_a_separate_step(self, state):
        state = self.prepare(state)
        released = kernel_core.handle_multiactivation(state, "Twin")
        assert released.counter_value == state.counter_value
        assert released.last_label.detail == "multiactivation:Twin"


# ==== termination and chaining =============================================


class TestTerminateTask:
    def test_terminate_resets_and_yields(self, state):
        after = kernel_core.call_service(state, "Main", "TerminateTask")
        cell = after.task_cell("Main")
        assert cell.state == SUSPENDED
        assert after.running is None
        assert SCHEDULE_SIGNAL in after.signals
        assert (cell.pc, cell.residue) == (0, 0)
        code = state.program.code[state.program.task_index["Main"]]
        assert after.front("Main") == code[0].statement
        healthy(after)

    def test_terminate_with_held_resource_fails(self, state):
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        after = kernel_core.call_service(state, "Main", "TerminateTask")
        assert after.last_label.calls[0].status == E_OS_RESOURCE
        assert after.running == "Main"
        healthy(after)

    def test_strict_error_freeze(self, state):
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        # the front statement is now TerminateTask(), with R still held
        relaxed = explorer.step(state)
        after = explorer.step(state, strict=True)
        assert relaxed.last_label.calls[0].status == E_OS_RESOURCE
        assert after.status == error_status(E_OS_RESOURCE)
        assert changed(after, status=relaxed.status) == relaxed

    @pytest.mark.parametrize("body, status, task_state", [
        ("Schedule();", E_OK, SUSPENDED),
        ("GetResource(R);", E_OS_RESOURCE, RUNNING),
    ])
    def test_end_of_body_is_an_implicit_terminate(self, body, status,
                                                  task_state):
        config, bodies = make_app(OIL, TSK.replace(
            "ActivateTask(Hi); TerminateTask();", body))
        state = kernel_core.exec_running_statement(
            kernel_core.boot(config, bodies))
        assert state.front("Main") is None
        after = kernel_core.exec_running_statement(state)
        label = after.last_label
        assert label.calls == (Call("Main", "TerminateTask", (), status),)
        assert label.detail == "implicit"
        assert after.task_cell("Main").state == task_state
        assert after.counter_value == state.counter_value + 1
        healthy(after)

    @pytest.mark.parametrize("call", ["TerminateTask()", "ChainTask(Hi)"])
    def test_failed_call_moves_past_it(self, call):
        config, bodies = make_app(OIL, TSK.replace(
            "ActivateTask(Hi); TerminateTask();",
            f"GetResource(R); {call}; ReleaseResource(R); TerminateTask();"))
        state = kernel_core.exec_running_statement(
            kernel_core.boot(config, bodies))
        after = kernel_core.exec_running_statement(state)
        assert after.last_label.calls[0].status == E_OS_RESOURCE
        assert after.last_label.detail is None
        assert after.task_cell("Main").pc == state.task_cell("Main").pc + 1
        assert after.front("Main") == CallService("ReleaseResource", ("R",))


class TestChainTask:
    def test_chain_to_other_task(self, state):
        after = kernel_core.call_service(state, "Main", "ChainTask", "Hi")
        assert after.task_cell("Main").state == SUSPENDED
        assert after.task_cell("Hi").state == READY
        assert after.running is None
        assert SCHEDULE_SIGNAL in after.signals
        healthy(after)

    def test_chain_overflow_keeps_caller_running(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        after = kernel_core.call_service(state, "Main", "ChainTask", "Hi")
        assert after.last_label.calls[0].status == E_OS_LIMIT
        assert after.running == "Main"
        assert after.task_cell("Main").state == RUNNING
        healthy(after)

    def test_chain_self_respawns_via_pending(self, state):
        after = kernel_core.call_service(state, "Main", "ChainTask", "Main")
        cell = after.task_cell("Main")
        assert cell.state == SUSPENDED
        assert cell.pending_activations == 1
        assert SCHEDULE_SIGNAL not in after.signals
        healthy(after)

    def test_chain_with_held_resource_fails(self, state):
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        after = kernel_core.call_service(state, "Main", "ChainTask", "Hi")
        assert after.last_label.calls[0].status == E_OS_RESOURCE
        assert after.running == "Main"


# ==== events ===============================================================


class TestEvents:
    def wake_target(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        return kernel_core.call_service(state, "Ext",
                                        "WaitEvent", "E")  # blocks

    def test_wait_blocks_and_retains_statement(self, state):
        blocked = self.wake_target(state)
        cell = blocked.task_cell("Ext")
        assert cell.state == WAITING
        assert cell.waiting_for == "E"
        assert blocked.front("Ext") == CallService("WaitEvent", ("E",))
        assert cell.residue == 0
        assert blocked.running is None
        healthy(blocked)

    @pytest.mark.parametrize("preset, detail, moved", [
        (False, "blocked", 0),
        (True, None, 1),
    ])
    def test_only_a_blocking_wait_is_labelled_and_kept(self, state, preset,
                                                       detail, moved):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        if preset:
            state = kernel_core.call_service(state, "Main",
                                             "SetEvent", "Ext", "E")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        after = kernel_core.exec_running_statement(state)
        assert after.last_label.calls[0].service == "WaitEvent"
        assert after.last_label.detail == detail
        assert after.task_cell("Ext").pc == state.task_cell("Ext").pc + moved
        assert after.counter_value == state.counter_value + 1

    def test_set_event_wakes_waiter(self, state):
        blocked = self.wake_target(state)
        woken = kernel_core.call_service(blocked, "Main",
                                         "SetEvent", "Ext", "E")
        cell = woken.task_cell("Ext")
        assert cell.state == READY
        assert "E" in cell.set_events
        assert SCHEDULE_SIGNAL in woken.signals
        healthy(woken)

    def test_set_event_on_ready_task_just_records(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        after = kernel_core.call_service(state, "Main", "SetEvent", "Ext", "E")
        assert after.last_label.calls[0].status == E_OK
        assert after.task_cell("Ext").state == READY
        assert "E" in after.task_cell("Ext").set_events

    def test_set_event_on_suspended_task(self, state):
        after = kernel_core.call_service(state, "Main", "SetEvent", "Ext", "E")
        assert after.last_label.calls[0].status == E_OS_STATE

    def test_set_event_on_basic_task(self, state):
        after = kernel_core.call_service(state, "Main", "SetEvent", "Hi", "E")
        assert after.last_label.calls[0].status == E_OS_ACCESS

    def test_set_undeclared_event(self, state):
        oil = OIL.replace("EVENT = E; EVENT = F;", "EVENT = F;")
        config, bodies = make_app(oil, TSK.replace("WaitEvent(E); "
                                                   "ClearEvent(E);",
                                                   "WaitEvent(F);"))
        boot = kernel_core.boot(config, bodies)
        after = kernel_core.call_service(boot, "Main", "SetEvent", "Ext", "E")
        assert after.last_label.calls[0].status == E_OS_ACCESS

    def test_wait_with_event_already_set_continues(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        state = kernel_core.call_service(state, "Main", "SetEvent", "Ext", "E")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        after = kernel_core.call_service(state, "Ext", "WaitEvent", "E")
        cell = after.task_cell("Ext")
        assert cell.state == RUNNING
        assert after.front("Ext") == CallService("ClearEvent", ("E",))
        assert cell.residue == 0
        healthy(after)

    def test_wait_by_basic_task(self, state):
        after = kernel_core.call_service(state, "Main", "WaitEvent", "E")
        assert after.last_label.calls[0].status == E_OS_ACCESS

    def test_wait_while_holding_resource(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        oil_state = state  # Ext runs but holds nothing; fake a hold
        cell = oil_state.task_cell("Ext")._replace(held_resources=("R",))
        held = oil_state.with_task(cell)
        after = kernel_core.call_service(held, "Ext", "WaitEvent", "E")
        assert after.last_label.calls[0].status == E_OS_RESOURCE

    def test_clear_event(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        state = kernel_core.call_service(state, "Main", "SetEvent", "Ext", "E")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        after = kernel_core.call_service(state, "Ext", "ClearEvent", "E")
        assert after.task_cell("Ext").set_events == frozenset()

    def test_clear_event_by_basic_task(self, state):
        after = kernel_core.call_service(state, "Main", "ClearEvent", "E")
        assert after.last_label.calls[0].status == E_OS_ACCESS


# ==== resources ============================================================


class TestResources:
    def test_ceiling_raises_priority(self, state):
        after = kernel_core.call_service(state, "Main", "GetResource", "R")
        assert after.task_cell("Main").current_priority == 5
        healthy(after)

    def test_release_restores_priority(self, state):
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        after = kernel_core.call_service(state, "Main", "ReleaseResource", "R")
        assert after.task_cell("Main").current_priority == 2
        assert after.task_cell("Main").held_resources == ()
        healthy(after)

    def test_get_undeclared_resource(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        after = kernel_core.call_service(state, "Twin", "GetResource", "R")
        assert after.last_label.calls[0].status == E_OS_ACCESS

    def test_get_held_resource(self, state):
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        after = kernel_core.call_service(state, "Main", "GetResource", "R")
        assert after.last_label.calls[0].status == E_OS_ACCESS

    def test_release_without_holding(self, state):
        after = kernel_core.call_service(state, "Main", "ReleaseResource", "R")
        assert after.last_label.calls[0].status == E_OS_NOFUNC

    def test_release_lets_waiting_higher_task_in(self, state):
        # Main holds R at ceiling 5; Hi (priority 5) is activated but cannot
        # displace it (equal priority); after release Hi preempts.
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        state = kernel_core.handle_schedule_signal(state)
        assert state.running == "Main"
        released = kernel_core.call_service(state, "Main",
                                            "ReleaseResource", "R")
        assert SCHEDULE_SIGNAL in released.signals
        after = kernel_core.handle_schedule_signal(released)
        assert after.running == "Hi"
        assert after.task_cell("Main").state == READY
        healthy(after)


# ==== expiry handling ======================================================


class TestExpiries:
    def arm_fire(self, state, *alarm_ids):
        signals = set(state.signals)
        working = state.working_alarms
        for alarm_id in alarm_ids:
            state = state.with_alarm(state.alarm_cell(alarm_id)._replace(
                alarm_time=state.counter_value, cycle_time=0))
            working = working + (alarm_id,)
            signals.add(alarmed_signal(alarm_id))
        return changed(state, working_alarms=working,
                       signals=frozenset(signals))

    def test_activation_firing(self, state):
        state = self.arm_fire(state, "AA")
        after = kernel_core.handle_expiries(state, ("AA",))
        assert after.task_cell("Hi").state == READY
        assert after.counter_value == state.counter_value  # no tick
        assert after.last_label.calls[0].status == E_OK
        assert "AA" not in after.working_alarms  # one-shot disarms
        healthy(after)

    def test_cyclic_alarm_rearms(self, state):
        state = self.arm_fire(state, "AA")
        state = state.with_alarm(state.alarm_cell("AA")._replace(
            cycle_time=8))
        after = kernel_core.handle_expiries(state, ("AA",))
        assert "AA" in after.working_alarms
        assert after.alarm_cell("AA").alarm_time == \
            (state.counter_value + 8) % 64

    def test_cyclic_rearm_even_on_failure(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        state = self.arm_fire(state, "AA")
        state = state.with_alarm(state.alarm_cell("AA")._replace(
            cycle_time=8))
        after = kernel_core.handle_expiries(state, ("AA",))
        assert after.last_label.calls[0].status == E_OS_LIMIT
        assert "AA" in after.working_alarms

    def test_setevent_firing_wakes(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Ext")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        state = kernel_core.call_service(state, "Ext", "WaitEvent", "E")
        state = self.arm_fire(state, "AB")
        after = kernel_core.handle_expiries(state, ("AB",))
        assert after.task_cell("Ext").state == READY
        healthy(after)

    @pytest.mark.parametrize("alarm, call, before", [
        ("AA", ("ActivateTask", "Hi"), ()),
        ("AA", ("ActivateTask", "Hi"), (("ActivateTask", "Hi"),)),
        ("AB", ("SetEvent", "Ext", "E"), ()),
        ("AB", ("SetEvent", "Ext", "E"), (("ActivateTask", "Ext"),)),
    ])
    def test_action_has_the_effect_of_the_call(self, state, alarm, call,
                                               before):
        for earlier in before:
            state = kernel_core.call_service(state, "Main", *earlier)
        fired = kernel_core.handle_expiries(self.arm_fire(state, alarm),
                                            (alarm,))
        called = kernel_core.call_service(state, "Main", *call)
        (alarm_call,) = fired.last_label.calls
        assert alarm_call._replace(by="Main") == called.last_label.calls[0]
        assert fired.ready == called.ready
        others = [c for c in fired.tasks if c.id != "Main"]
        assert others == [c for c in called.tasks if c.id != "Main"]

    def test_callback_is_a_no_op(self, state):
        state = self.arm_fire(state, "AC")
        after = kernel_core.handle_expiries(state, ("AC",))
        assert after.last_label.calls[0].status == E_OK
        assert after.tasks == state.tasks

    def test_batch_order_controls_ready_order(self, state):
        oil = OIL.replace("ACTION = SETEVENT { TASK = Ext; EVENT = E; }",
                          "ACTION = ACTIVATETASK { TASK = Twin; }")
        config, bodies = make_app(oil, TSK)
        boot = kernel_core.boot(config, bodies)
        armed = TestExpiries.arm_fire(self, boot, "AA", "AB")
        one = kernel_core.handle_expiries(armed, ("AA", "AB"))
        two = kernel_core.handle_expiries(armed, ("AB", "AA"))
        assert one.task_cell("Hi").state == READY
        assert two.task_cell("Hi").state == READY
        # same sets, different queue arrival order for the equal-priority pair
        assert one.last_label.calls[0].by == "AA"
        assert two.last_label.calls[0].by == "AB"

    def test_strict_freezes_after_whole_batch(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        state = self.arm_fire(state, "AA", "AC")
        after = explorer.step(state, explorer.Choice(("AA", "AC")),
                              strict=True)
        assert after.status == error_status(E_OS_LIMIT)
        assert len(after.last_label.calls) == 2


def batch_apps(monkeypatch):
    """Harmonic K=4-6, the alarm-action and six-alarm apps and random_app
    seeds 0-999."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import harmonic
    for alarms in (4, 5, 6):
        monkeypatch.setattr(harmonic, "N_ALARMS", alarms)
        yield f"harmonic K={alarms}", harmonic.generate(1)[:2]
    yield "actions", (ACTIONS_OIL, ACTIONS_TSK)
    yield "coincide", (COINCIDE_OIL, COINCIDE_TSK)
    for seed in range(1000):
        yield f"random_app:{seed}", random_app(random.Random(seed))


def test_outcomes_are_the_orders_up_to_call_order(monkeypatch):
    """On every normal state with two or more pending expiries, in both
    error semantics and both idle modes: keyed by ``model._call_key``,
    ``expiry_outcomes`` is every handling order, each handled alone, without
    the outcomes an earlier order reached up to ``rotated``, the same
    orders and states in the same order, and strict error handling freezes
    its outcomes on the codes it froze the orders on; keyed by ``tuple``,
    it is every order."""
    batches = 0
    for name, app in batch_apps(monkeypatch):
        config, bodies = make_app(*app)
        states = {}
        for idle_mode in timing.IDLE_MODES:
            for graph in explorer.build_graphs(config, bodies, (False, True),
                                               idle_mode=idle_mode).values():
                states.update((state, None) for state in graph.nodes.values()
                              if state.status == NORMAL and len(
                                  kernel_core.pending_expiries(state)) > 1)
        for state in states:
            pending = kernel_core.pending_expiries(state)
            orders = [(order, kernel_core.handle_expiries(state, order))
                      for order in itertools.permutations(pending)]
            assert kernel_core.expiry_outcomes(state, pending, tuple) == \
                orders, (name, state)
            seen, expected = set(), []
            for order, target in orders:
                if rotated(target) not in seen:
                    seen.add(rotated(target))
                    expected.append((order, target))
            outcomes = kernel_core.expiry_outcomes(state, pending, _call_key)
            assert outcomes == expected, (name, state)
            assert ({explorer._freeze(target).status for _, target in orders}
                    == {explorer._freeze(target).status
                        for _, target in outcomes}), (name, state)
            for _, target in outcomes:
                assert explorer._freeze(rotated(target)).status == \
                    explorer._freeze(target).status, (name, state)
            batches += 1
    assert batches > 700


# ==== scheduling ===========================================================


class TestScheduleSignal:
    def test_preemption_reenters_at_queue_head(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        after = kernel_core.handle_schedule_signal(state)
        assert after.running == "Hi"
        # Main re-entered at the head of the priority-2 queue, before Twin
        queue = dict(after.ready)[2]
        assert queue == ("Main", "Twin")
        healthy(after)

    def test_equal_priority_does_not_preempt(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        after = kernel_core.handle_schedule_signal(state)
        assert after.running == "Main"
        assert after.last_label.detail == "keep"

    def test_non_preemptive_task_keeps_running(self):
        oil = OIL.replace("TASK Main { PRIORITY = 2; ACTIVATION = 1; "
                          "AUTOSTART = TRUE; RESOURCE = R; };",
                          "TASK Main { PRIORITY = 2; SCHEDULE = NON; "
                          "ACTIVATION = 1; AUTOSTART = TRUE; "
                          "RESOURCE = R; };")
        config, bodies = make_app(oil, TSK)
        state = kernel_core.boot(config, bodies)
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Hi")
        after = kernel_core.handle_schedule_signal(state)
        assert after.running == "Main"
        assert after.last_label.detail == "keep"

    def test_fifo_within_priority(self, state):
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        state = kernel_core.call_service(state, "Main", "ActivateTask", "Twin")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        state = kernel_core.handle_schedule_signal(state)
        assert state.running == "Twin"
        state = kernel_core.call_service(state, "Twin", "TerminateTask")
        state = kernel_core.handle_multiactivation(state, "Twin")
        state = kernel_core.handle_schedule_signal(state)
        assert state.running == "Twin"

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(["Twin", "Hi", "Ext"]))
    def test_dispatch_order_by_priority_then_fifo(self, order):
        config, bodies = make_app(OIL, TSK)
        state = kernel_core.boot(config, bodies)
        for target in order:
            state = kernel_core.call_service(state, "Main",
                                             "ActivateTask", target)
        state = kernel_core.call_service(state, "Main", "GetResource", "R")
        ranked = sorted(order,
                        key=lambda t: -config.tasks[t].priority)
        dispatched = []
        state = kernel_core.call_service(state, "Main", "ReleaseResource", "R")
        state = kernel_core.call_service(state, "Main", "TerminateTask")
        while True:
            state = kernel_core.handle_schedule_signal(state)
            if state.running is None:
                break
            dispatched.append(state.running)
            state = kernel_core.call_service(state, state.running,
                                             "TerminateTask")
        assert dispatched == ranked
