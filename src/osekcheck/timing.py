"""System counter arithmetic, the alarm services and the service epilogue.

Time is discrete: every kernel service accounts for exactly one counter tick,
charged by :func:`finish_service`, the epilogue of every service call a task
makes (it also records the call in the step's label), and
``TimeInterval = N`` blocks account for ``N``.  The counter wraps at
``MAXALLOWEDVALUE + 1``.  An armed alarm raises an expiry signal in the step
whose tick makes the counter equal the alarm time; expiry handling itself
consumes no time.  Multi-tick advances (time intervals and idle time) are
split at the earliest pending expiry so that no expiry is ever skipped.
The alarm services are effects in the sense of ``kernel_core.EFFECTS``: they
return the successor state and the status, and the epilogue does the rest.
"""

from __future__ import annotations

# The idle modes are the program's (``model.Program.idle_mode``), and are
# named here too, where idle time is advanced.
from .model import (E_OK, E_OS_NOFUNC, E_OS_STATE, E_OS_VALUE, IDLE_MODES,
                    JUMP, SUSPENDED, UNIT, WAITING, Call, KernelState,
                    TransitionLabel, alarmed_signal, with_cell)

LOOP_LABEL = TransitionLabel(kind="time", amount=1, reason="loop")

# ---------------------------------------------------------------------------
# counter primitives
# ---------------------------------------------------------------------------


def expiry_distance(state: KernelState, alarm_id: str) -> int:
    """Ticks until the alarm expires, in [1, MAXALLOWEDVALUE + 1]."""
    modulus = state.program.modulus
    cell = state.alarm_cell(alarm_id)
    distance = (cell.alarm_time - state.counter_value) % modulus
    return distance if distance > 0 else modulus


def next_expiry(state: KernelState) -> int | None:
    """Ticks to the earliest expiry; None when no alarm is armed."""
    return min((expiry_distance(state, a) for a in state.working_alarms),
               default=None)


def _advance(state: KernelState, amount: int,
             label: TransitionLabel) -> KernelState:
    """Move the counter ``amount`` ticks, raising signals only on the last,
    and label the step.

    Callers guarantee that no armed alarm expires strictly inside the span.
    """
    program = state.program
    value = (state.counter_value + amount) % program.modulus
    signals = state.signals
    landing = [alarmed_signal(alarm_id) for alarm_id in state.working_alarms
               if state.alarms[program.alarm_index[alarm_id]].alarm_time
               == value]
    if landing:
        signals = signals.union(landing)
    return KernelState(program, state.tasks, state.ready, state.running,
                       signals, value, state.working_alarms, state.alarms,
                       label, state.status)


# ---------------------------------------------------------------------------
# service epilogue
# ---------------------------------------------------------------------------


def finish_service(state: KernelState, caller: str, service: str,
                   args: tuple, status: str, *,
                   detail: str | None = None) -> KernelState:
    """Record the call in the label, consume the caller's front statement
    and charge one tick; ``state`` is the call's effect.

    A failing call (non-``E_OK`` status) is consumed and charged too.  A call
    that left its caller suspended (a terminate or chain) or waiting (a
    blocking WaitEvent, labelled ``blocked``, which is re-issued when the
    task resumes) is not consumed.
    """
    caller_state = state.task_cell(caller).state
    if caller_state == WAITING:
        detail = "blocked"
    elif caller_state != SUSPENDED:
        state = state.past_front(caller)
    call = Call(caller, service, args, status)
    return _advance(state, 1, TransitionLabel(kind="service", calls=(call,),
                                              detail=detail))


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
    advance = ticks if nearest is None else min(ticks, nearest)
    if advance < ticks:
        state = state.with_task(state.task_cell(caller)._replace(
            residue=ticks - advance))
    else:
        state = state.past_front(caller)
    return _advance(state, advance, TransitionLabel(
        kind="time", amount=advance, reason="interval"))


def exec_loop_entry(state: KernelState, caller: str) -> KernelState:
    """Enter a while(true) loop, charging one tick for the loop control.

    Only the first entry is charged; closing an iteration and starting the
    next is free.
    """
    return _advance(state.past_front(caller), 1, LOOP_LABEL)


def idle_advance(state: KernelState) -> KernelState:
    """Advance time with no task to run, up to the next alarm expiry.

    In the program's ``jump`` idle mode time moves straight to the expiry;
    in ``unit`` mode it advances one tick per step.  Requires at least one
    armed alarm.
    """
    nearest = next_expiry(state)
    if nearest is None:
        raise ValueError("idle_advance requires an armed alarm")
    amount = 1 if state.program.idle_mode == UNIT else nearest
    return _advance(state, amount, TransitionLabel(kind="time", amount=amount,
                                                   reason="idle"))


# ---------------------------------------------------------------------------
# alarm services
# ---------------------------------------------------------------------------


def _cycle_ok(state: KernelState, cycle: int) -> bool:
    if cycle == 0:
        return True
    return state.program.min_cycle <= cycle < state.program.modulus


def _arm(state: KernelState, alarm_id: str, alarm_time: int, cycle: int,
         signals: frozenset) -> KernelState:
    """Set the alarm's time and cycle and append it to the working alarms;
    ``signals`` are the successor's."""
    index = state.program.alarm_index[alarm_id]
    alarms = with_cell(state.alarms, index,
                       state.alarms[index]._replace(alarm_time=alarm_time,
                                                    cycle_time=cycle))
    return KernelState(state.program, state.tasks, state.ready,
                       state.running, signals, state.counter_value,
                       state.working_alarms + (alarm_id,), alarms,
                       state.last_label, state.status)


def set_rel_alarm(state: KernelState, caller: str, alarm_id: str,
                  increment: int, cycle: int) -> tuple[KernelState, str]:
    """Arm an alarm ``increment`` ticks from now, optionally cyclic.

    An increment of zero raises the expiry signal immediately.  The alarm
    time is computed against the counter value before this call's own tick.
    """
    if alarm_id in state.working_alarms:
        return state, E_OS_STATE
    modulus = state.program.modulus
    if increment >= modulus or not _cycle_ok(state, cycle):
        return state, E_OS_VALUE
    signals = state.signals
    if increment == 0:
        signals = signals | {alarmed_signal(alarm_id)}
    return _arm(state, alarm_id, (state.counter_value + increment) % modulus,
                cycle, signals), E_OK


def set_abs_alarm(state: KernelState, caller: str, alarm_id: str,
                  start: int, cycle: int) -> tuple[KernelState, str]:
    """Arm an alarm to expire when the counter reaches ``start``.

    If the counter already equals ``start`` the alarm expires only after a
    full counter wrap.
    """
    if alarm_id in state.working_alarms:
        return state, E_OS_STATE
    if start >= state.program.modulus or not _cycle_ok(state, cycle):
        return state, E_OS_VALUE
    return _arm(state, alarm_id, start, cycle, state.signals), E_OK


def cancel_alarm(state: KernelState, caller: str,
                 alarm_id: str) -> tuple[KernelState, str]:
    """Disarm an alarm; its stored time and cycle stay readable and the alarm
    can be armed again later."""
    if alarm_id not in state.working_alarms:
        return state, E_OS_NOFUNC
    working = tuple(a for a in state.working_alarms if a != alarm_id)
    return KernelState(state.program, state.tasks, state.ready,
                       state.running, state.signals, state.counter_value,
                       working, state.alarms, state.last_label,
                       state.status), E_OK
