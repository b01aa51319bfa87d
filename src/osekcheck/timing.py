"""System counter, alarms and discrete time.

Time is discrete: every kernel service accounts for exactly one counter tick,
and ``TimeInterval = N`` blocks account for ``N``.  The counter wraps at
``MAXALLOWEDVALUE + 1``.  An armed alarm raises an expiry signal in the step
whose tick makes the counter equal the alarm time; expiry handling itself
consumes no time.  Multi-tick advances (time intervals and idle time) are
split at the earliest pending expiry so that no expiry is ever skipped.
"""

from __future__ import annotations

from dataclasses import replace

from .model import (E_OK, E_OS_NOFUNC, E_OS_STATE, E_OS_VALUE, KernelState,
                    TransitionLabel, alarmed_signal)

JUMP = "jump"
UNIT = "unit"
IDLE_MODES = (JUMP, UNIT)

# ---------------------------------------------------------------------------
# counter primitives
# ---------------------------------------------------------------------------


def expiry_distance(state: KernelState, alarm_id: str) -> int:
    """Ticks until the alarm expires, in [1, MAXALLOWEDVALUE + 1]."""
    modulus = state.max_allowed_value + 1
    cell = state.alarm_cell(alarm_id)
    distance = (cell.alarm_time - state.counter_value) % modulus
    return distance if distance > 0 else modulus


def next_expiry(state: KernelState) -> tuple[int, tuple[str, ...]] | None:
    """Earliest expiry distance and the alarms that land on it."""
    if not state.working_alarms:
        return None
    distances = {a: expiry_distance(state, a) for a in state.working_alarms}
    nearest = min(distances.values())
    landing = tuple(a for a in state.working_alarms
                    if distances[a] == nearest)
    return nearest, landing


def _advance(state: KernelState, amount: int) -> KernelState:
    """Move the counter ``amount`` ticks, raising signals only on the last.

    Callers guarantee that no armed alarm expires strictly inside the span.
    """
    modulus = state.max_allowed_value + 1
    value = (state.counter_value + amount) % modulus
    signals = set(state.signals)
    for alarm_id in state.working_alarms:
        if state.alarm_cell(alarm_id).alarm_time == value:
            signals.add(alarmed_signal(alarm_id))
    return replace(state, counter_value=value, signals=frozenset(signals))


# ---------------------------------------------------------------------------
# service epilogue
# ---------------------------------------------------------------------------


def finish_service(state: KernelState, caller: str, service: str,
                   args: tuple, status: str, *, consume: bool = True,
                   detail: str | None = None) -> KernelState:
    """Label, consume the caller's front statement and charge one tick.

    A failing call (non-``E_OK`` status) is charged its tick too.
    """
    if consume:
        state = state.past_front(caller)
    label = TransitionLabel(kind="service", task=caller, service=service,
                            args=tuple(args), status=status, detail=detail)
    return _advance(replace(state, last_label=label), 1)


# ---------------------------------------------------------------------------
# time intervals and idle time
# ---------------------------------------------------------------------------


def exec_time_interval(state: KernelState, caller: str,
                       ticks: int) -> KernelState:
    """Run (part of) a TimeInterval block of the running task.

    The advance is cut short at the earliest pending expiry; the remaining
    ticks stay in the task's cell as its residue so the expiry is handled
    before computation resumes.
    """
    nearest = next_expiry(state)
    advance = ticks if nearest is None else min(ticks, nearest[0])
    if advance < ticks:
        state = state.with_task(replace(state.task_cell(caller),
                                        residue=ticks - advance))
    else:
        state = state.past_front(caller)
    label = TransitionLabel(kind="time", amount=advance, reason="interval")
    return _advance(replace(state, last_label=label), advance)


def exec_loop_entry(state: KernelState, caller: str) -> KernelState:
    """Enter a while(true) loop, charging one tick for the loop control.

    Only the first entry is charged; closing an iteration and starting the
    next is free.
    """
    state = state.past_front(caller)
    label = TransitionLabel(kind="time", amount=1, reason="loop")
    return _advance(replace(state, last_label=label), 1)


def idle_advance(state: KernelState, mode: str = JUMP) -> KernelState:
    """Advance time with no task to run, up to the next alarm expiry.

    ``jump`` mode moves straight to the expiry; ``unit`` mode advances one
    tick per step.  Requires at least one armed alarm.
    """
    nearest = next_expiry(state)
    if nearest is None:
        raise ValueError("idle_advance requires an armed alarm")
    amount = 1 if mode == UNIT else nearest[0]
    label = TransitionLabel(kind="time", amount=amount, reason="idle")
    return _advance(replace(state, last_label=label), amount)


# ---------------------------------------------------------------------------
# alarm services
# ---------------------------------------------------------------------------


def _cycle_ok(state: KernelState, cycle: int) -> bool:
    if cycle == 0:
        return True
    return state.min_cycle <= cycle <= state.max_allowed_value


def svc_set_rel_alarm(state: KernelState, caller: str, alarm_id: str,
                      increment: int, cycle: int) -> KernelState:
    """Arm an alarm ``increment`` ticks from now, optionally cyclic.

    An increment of zero raises the expiry signal immediately.  The alarm
    time is computed against the counter value before this call's own tick.
    """
    args = (alarm_id, increment, cycle)
    if alarm_id in state.working_alarms:
        return finish_service(state, caller, "SetRelAlarm", args, E_OS_STATE)
    if increment > state.max_allowed_value or not _cycle_ok(state, cycle):
        return finish_service(state, caller, "SetRelAlarm", args, E_OS_VALUE)
    modulus = state.max_allowed_value + 1
    alarm_time = (state.counter_value + increment) % modulus
    cell = replace(state.alarm_cell(alarm_id), alarm_time=alarm_time,
                   cycle_time=cycle)
    state = state.with_alarm(cell)
    state = replace(state, working_alarms=state.working_alarms + (alarm_id,))
    if increment == 0:
        state = replace(state, signals=state.signals
                        | {alarmed_signal(alarm_id)})
    return finish_service(state, caller, "SetRelAlarm", args, E_OK)


def svc_set_abs_alarm(state: KernelState, caller: str, alarm_id: str,
                      start: int, cycle: int) -> KernelState:
    """Arm an alarm to expire when the counter reaches ``start``.

    If the counter already equals ``start`` the alarm expires only after a
    full counter wrap.
    """
    args = (alarm_id, start, cycle)
    if alarm_id in state.working_alarms:
        return finish_service(state, caller, "SetAbsAlarm", args, E_OS_STATE)
    if start > state.max_allowed_value or not _cycle_ok(state, cycle):
        return finish_service(state, caller, "SetAbsAlarm", args, E_OS_VALUE)
    cell = replace(state.alarm_cell(alarm_id), alarm_time=start,
                   cycle_time=cycle)
    state = state.with_alarm(cell)
    state = replace(state, working_alarms=state.working_alarms + (alarm_id,))
    return finish_service(state, caller, "SetAbsAlarm", args, E_OK)


def svc_cancel_alarm(state: KernelState, caller: str,
                     alarm_id: str) -> KernelState:
    """Disarm an alarm; its stored time and cycle stay readable and the alarm
    can be armed again later."""
    if alarm_id not in state.working_alarms:
        return finish_service(state, caller, "CancelAlarm", (alarm_id,),
                              E_OS_NOFUNC)
    working = tuple(a for a in state.working_alarms if a != alarm_id)
    state = replace(state, working_alarms=working)
    return finish_service(state, caller, "CancelAlarm", (alarm_id,), E_OK)
