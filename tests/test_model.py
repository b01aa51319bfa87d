"""Labels: every label shape the kernel makes, as text, and label equality.

``canonical_label`` is part of every state snapshot and so of every trace
hash; ``label_text`` is what a trace listing prints.  The expected strings
are frozen, so a change to how labels are built shows here first.
"""

from __future__ import annotations

import pytest

from helpers import make_app
from osekcheck import kernel_core, timing
from osekcheck.model import (Call, TransitionLabel, _call_key,
                             canonical_label, label_text, stutterize)

OIL = """
COUNTER C { MAXALLOWEDVALUE = 15; MINCYCLE = 1; SYSTEM = TRUE; };
EVENT E { MASK = AUTO; };
TASK Main { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Ext  { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; EVENT = E; };
TASK Hi   { PRIORITY = 3; SCHEDULE = FULL; ACTIVATION = 1; };
ALARM Go   { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };
ALARM Kick { COUNTER = C; ACTION = SETEVENT { TASK = Ext; EVENT = E; }; };
ALARM Tock { COUNTER = C; ACTION = ALARMCALLBACK { ALARMCALLBACKNAME = tock; }; };
"""

TSK = """
TASK Main { TimeInterval = 2; while (true) { Schedule(); } }
TASK Ext { WaitEvent(E); TerminateTask(); }
TASK Hi { }
"""


def call(state, *call_args, caller="Main"):
    return kernel_core.call_service(state, caller, *call_args)


def fire_all(state):
    """Arm the three alarms to expire now and handle them in one batch."""
    for alarm in ("Go", "Kick", "Tock"):
        state = call(state, "SetRelAlarm", alarm, 0, 0)
    return kernel_core.handle_expiries(state, ("Go", "Kick", "Tock"))


def run_first(state, task):
    """Activate ``task`` (it outranks Main) and preempt Main with it."""
    return kernel_core.handle_schedule_signal(call(state, "ActivateTask",
                                                   task))


def schedule(state):
    return kernel_core.handle_schedule_signal(state)


def run(state):
    return kernel_core.exec_running_statement(state)


def idle(state):
    state = schedule(call(call(state, "SetRelAlarm", "Go", 5, 0),
                          "TerminateTask"))
    return timing.idle_advance(state)


SHAPES = {
    "boot": (lambda s: s, "boot", "boot"),
    "call": (lambda s: call(s, "ActivateTask", "Hi"),
             "svc:Main:ActivateTask(Hi):E_OK",
             "Main: ActivateTask(Hi) -> E_OK"),
    "call-int-args": (lambda s: call(s, "SetRelAlarm", "Go", 5, 0),
                      "svc:Main:SetRelAlarm(Go,5,0):E_OK",
                      "Main: SetRelAlarm(Go, 5, 0) -> E_OK"),
    "call-no-args": (lambda s: call(s, "Schedule"),
                     "svc:Main:Schedule():E_OK",
                     "Main: Schedule() -> E_OK"),
    "failing-call": (lambda s: call(s, "SetEvent", "Ext", "E"),
                     "svc:Main:SetEvent(Ext,E):E_OS_STATE",
                     "Main: SetEvent(Ext, E) -> E_OS_STATE"),
    "blocked": (lambda s: run(run_first(s, "Ext")),
                "svc:Ext:WaitEvent(E):E_OK:blocked",
                "Ext: WaitEvent(E) -> E_OK [blocked]"),
    "implicit": (lambda s: run(run_first(s, "Hi")),
                 "svc:Hi:TerminateTask():E_OK:implicit",
                 "Hi: TerminateTask() -> E_OK [implicit]"),
    "alarm-batch": (fire_all,
                    "alarm:Go>activatetask:Hi=E_OK;"
                    "Kick>setevent:Ext:E=E_OS_STATE;"
                    "Tock>alarmcallback:=E_OK",
                    "Go expired: activatetask Hi -> E_OK; "
                    "Kick expired: setevent Ext/E -> E_OS_STATE; "
                    "Tock expired: alarmcallback -> E_OK"),
    "dispatch": (lambda s: schedule(call(call(s, "ActivateTask", "Hi"),
                                         "TerminateTask")),
                 "sig:dispatch:Hi", "scheduler: dispatch:Hi"),
    "preempt": (lambda s: run_first(s, "Hi"),
                "sig:preempt:Main>Hi", "scheduler: preempt:Main>Hi"),
    "keep": (lambda s: schedule(call(s, "Schedule")),
             "sig:keep", "scheduler: keep"),
    "idle-signal": (lambda s: schedule(call(s, "TerminateTask")),
                    "sig:idle", "scheduler: idle"),
    "multiactivation": (lambda s: kernel_core.handle_multiactivation(
                            call(s, "ChainTask", "Main"), "Main"),
                        "sig:multiactivation:Main",
                        "scheduler: multiactivation:Main"),
    "interval": (run, "time:interval", "time +2 (interval)"),
    "loop": (lambda s: run(run(s)), "time:loop", "time +1 (loop)"),
    "idle": (idle, "time:idle", "time +3 (idle)"),
    "stutter": (stutterize, "time:stutter", "stutter"),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_label_rendering(shape):
    drive, canonical, text = SHAPES[shape]
    config, bodies = make_app(OIL, TSK)
    label = drive(kernel_core.boot(config, bodies)).last_label
    assert (canonical_label(label), label_text(label)) == (canonical, text)


def test_labels_equal_up_to_their_amount_and_only_each_other():
    idle = TransitionLabel("time", (), 1, "idle")
    longer = TransitionLabel("time", (), 7, "idle")
    assert idle == longer and not idle != longer
    assert hash(idle) == hash(longer)
    for other in (TransitionLabel("time", (), 1, "loop"),
                  TransitionLabel("time", (), 1, "idle", "x"),
                  TransitionLabel("signal", (), 1, "idle")):
        assert idle != other and not idle == other
    call = Call("Main", "ActivateTask", ("Hi",), "E_OK")
    label = TransitionLabel("service", (call,), 0, None, "x")
    assert label != TransitionLabel("service", (call, call), 0, None, "x")
    # a Call or tuple of the compared fields hashes alike, but is not equal
    lookalikes = (Call("service", (call,), None, "x"),
                  ("service", (call,), None, "x"),
                  ("service", (call,), 0, None, "x"))
    assert hash(label) == hash(lookalikes[0]) == hash(lookalikes[1])
    for other in lookalikes:
        assert label != other and other != label
        assert not label == other and not other == label
    assert label not in set(lookalikes) and not {label} & set(lookalikes)


def test_batch_calls_keyed_on_the_first_failing_code():
    """Up to handling order, a batch's calls are in alarm-id order, but the
    lowest-id call with the first failing call's code comes first."""
    ok, limit, state, limit_too = (
        Call(alarm, "ActivateTask", ("T",), status) for alarm, status in
        (("A", "E_OK"), ("B", "E_OS_LIMIT"), ("C", "E_OS_STATE"),
         ("D", "E_OS_LIMIT")))
    assert _call_key((limit_too, ok)) == (limit_too, ok)
    assert _call_key((ok, state, limit_too, limit)) == \
        (state, ok, limit, limit_too)
    for calls in ((limit_too, state, ok, limit),
                  (ok, limit, state, limit_too)):
        assert _call_key(calls) == (limit, ok, state, limit_too)
    assert _call_key((ok, ok._replace(by="E"))) == \
        _call_key((ok._replace(by="E"), ok)) == (ok, ok._replace(by="E"))
