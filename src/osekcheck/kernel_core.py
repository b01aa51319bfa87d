"""Boot, the service table and the scheduler's signal rules.

A kernel service is its effect: a function ``(state, caller, *args)`` that
returns the successor state and the status code, mutating nothing.
``EFFECTS`` maps every service name the task language accepts to its effect;
the task, event and resource services live here and the alarm services in
:mod:`timing`.  ``call_service`` is the one place a call is made: it applies
the effect, then :func:`timing.finish_service`, which labels the call,
consumes it and charges its counter tick, failing calls included.  The run
goes on after a failure (strict error handling, which freezes such a state,
is applied by the explorer).  An alarm expiry makes its action's call, an
ActivateTask, SetEvent or AlarmCallback call by the alarm, through the same
table (AlarmCallback has no effect and returns E_OK), and the batch's label
records the calls.  Boot is StartOS: the ActivateTask and SetRelAlarm calls of
the autostart tasks and alarms, then a dispatch.  Scheduler signal handling
(expiry actions, pending-activation release, rescheduling) consumes no time.
"""

from __future__ import annotations

from dataclasses import replace

from . import timing
from .model import (BOOT_LABEL, E_OK, E_OS_ACCESS, E_OS_LIMIT, E_OS_NOFUNC,
                    E_OS_RESOURCE, E_OS_STATE, READY, RUNNING, SCHEDULE_SIGNAL,
                    SUSPENDED, WAITING, AlarmCell, Call, KernelState, TaskCell,
                    TransitionLabel, alarmed_signal, enqueue, peek_highest,
                    pop_highest)
from .oil_config import FULL, KernelConfig
from .task_lang import TaskBody, TimeInterval, WhileTrue


class BootError(Exception):
    """Raised when the configuration cannot produce an initial state."""


# ---------------------------------------------------------------------------
# boot
# ---------------------------------------------------------------------------


def boot(config: KernelConfig, bodies: dict[str, TaskBody]) -> KernelState:
    """StartOS: from every task suspended and every alarm disarmed, make the
    ActivateTask call of each autostart task and the SetRelAlarm call of each
    autostart alarm, then dispatch.

    Autostart alarms are thus armed relative to counter zero, and an offset
    of zero raises its expiry signal immediately.  A call that fails (only
    a configuration that ``oil_config.validate`` rejects can make one) is a
    BootError.
    """
    missing = [t for t in config.tasks if t not in bodies]
    if missing:
        raise BootError(f"tasks without bodies: {', '.join(missing)}")
    if not any(task.autostart for task in config.tasks.values()):
        raise BootError("no autostart task; nothing would ever run")
    tasks = tuple(TaskCell(
        id=task.id, state=SUSPENDED, static_priority=task.priority,
        current_priority=task.priority, max_activations=task.max_activations,
        pending_activations=0, set_events=frozenset(), waiting_for=None,
        held_resources=(), pc=0, residue=0) for task in config.tasks.values())
    state = KernelState(config=config, bodies=bodies, tasks=tasks,
                        alarms=tuple(AlarmCell(alarm, None, 0)
                                     for alarm in config.alarms))
    calls = [("ActivateTask", task.id) for task in config.tasks.values()
             if task.autostart]
    calls += [("SetRelAlarm", alarm.id, alarm.autostart_offset or 0,
               alarm.autostart_cycle or 0)
              for alarm in config.alarms.values() if alarm.autostart]
    for name, *args in calls:
        state, status = EFFECTS[name](state, None, *args)
        if status != E_OK:
            raise BootError(f"StartOS: {name}({', '.join(map(str, args))}) "
                            f"returns {status}")
    return replace(handle_schedule_signal(state), last_label=BOOT_LABEL)


# ---------------------------------------------------------------------------
# helpers shared by the services
# ---------------------------------------------------------------------------


def _fresh_cell(cell: TaskCell, state: str, **changes) -> TaskCell:
    """Reset a cell for a new activation: full body, no events, base priority."""
    return replace(cell, state=state, set_events=frozenset(),
                   waiting_for=None, current_priority=cell.static_priority,
                   pc=0, residue=0, **changes)


def _make_ready(state: KernelState, cell: TaskCell) -> KernelState:
    """Store a READY cell, queue it last at its priority, ask to reschedule."""
    state = state.with_task(cell)
    return replace(state,
                   ready=enqueue(state.ready, cell.current_priority, cell.id),
                   signals=state.signals | {SCHEDULE_SIGNAL})


def _end_activation(state: KernelState, task: str) -> KernelState:
    """Suspend the running ``task`` with a fresh cell and ask to reschedule."""
    state = state.with_task(_fresh_cell(state.task_cell(task), SUSPENDED))
    return replace(state, running=None,
                   signals=state.signals | {SCHEDULE_SIGNAL})


def _owns_event(state: KernelState, task: str, event: str) -> bool:
    """Is ``task`` an extended task that declares ``event``?"""
    task_def = state.config.tasks[task]
    return task_def.is_extended and event in task_def.events


def activation_status(cell: TaskCell) -> str:
    """Would one more activation request be accepted for this cell?

    The live instance (any non-suspended state) and recorded pending requests
    together may not exceed the task's activation limit.
    """
    live = 0 if cell.state == SUSPENDED else 1
    if live + cell.pending_activations + 1 <= cell.max_activations:
        return E_OK
    return E_OS_LIMIT


# ---------------------------------------------------------------------------
# task services
# ---------------------------------------------------------------------------


def activate_task(state: KernelState, caller: str | None,
                  target: str) -> tuple[KernelState, str]:
    """Make ``target`` ready now or record the request (alarm actions and
    boot pass no caller)."""
    cell = state.task_cell(target)
    status = activation_status(cell)
    if status != E_OK:
        return state, status
    if cell.state == SUSPENDED and cell.pending_activations == 0:
        state = _make_ready(state, _fresh_cell(cell, READY))
    else:
        state = state.with_task(replace(
            cell, pending_activations=cell.pending_activations + 1))
    return state, E_OK


def terminate_task(state: KernelState,
                   caller: str) -> tuple[KernelState, str]:
    """End the running task's current activation.

    With resources still held the call fails and the task keeps running.
    """
    if state.task_cell(caller).held_resources:
        return state, E_OS_RESOURCE
    return _end_activation(state, caller), E_OK


def chain_task(state: KernelState, caller: str,
               target: str) -> tuple[KernelState, str]:
    """Terminate the caller and activate ``target`` in one atomic service.

    Chaining the caller itself records a pending activation without raising a
    scheduling signal.  If the activation would exceed the target's limit the
    whole call fails and the caller keeps running.
    """
    cell = state.task_cell(caller)
    if cell.held_resources:
        return state, E_OS_RESOURCE
    if target == caller:
        if cell.pending_activations + 1 > cell.max_activations:
            return state, E_OS_LIMIT
        fresh = _fresh_cell(cell, SUSPENDED,
                            pending_activations=cell.pending_activations + 1)
        return replace(state.with_task(fresh), running=None), E_OK
    if activation_status(state.task_cell(target)) != E_OK:
        return state, E_OS_LIMIT
    state, _ = activate_task(state, caller, target)
    return _end_activation(state, caller), E_OK


def schedule(state: KernelState, caller: str) -> tuple[KernelState, str]:
    """Voluntary scheduling point; lets higher-priority ready tasks in."""
    return replace(state, signals=state.signals | {SCHEDULE_SIGNAL}), E_OK


# ---------------------------------------------------------------------------
# event services
# ---------------------------------------------------------------------------


def set_event(state: KernelState, caller: str | None, target: str,
              event: str) -> tuple[KernelState, str]:
    """Deliver an event to ``target``, waking it if it waits for the event
    (alarm actions pass no caller)."""
    if not _owns_event(state, target, event):
        return state, E_OS_ACCESS
    cell = state.task_cell(target)
    if cell.state == SUSPENDED:
        return state, E_OS_STATE
    cell = replace(cell, set_events=cell.set_events | {event})
    if cell.state == WAITING and cell.waiting_for == event:
        state = _make_ready(state, replace(cell, state=READY,
                                           waiting_for=None))
    else:
        state = state.with_task(cell)
    return state, E_OK


def clear_event(state: KernelState, caller: str,
                event: str) -> tuple[KernelState, str]:
    if not _owns_event(state, caller, event):
        return state, E_OS_ACCESS
    cell = state.task_cell(caller)
    return state.with_task(replace(cell, set_events=cell.set_events
                                   - {event})), E_OK


def wait_event(state: KernelState, caller: str,
               event: str) -> tuple[KernelState, str]:
    """Wait until ``event`` is set for the caller.

    If the event is pending the call returns at once.  Otherwise the caller
    blocks and its program counter stays on the call: the call is re-issued
    (and charged again) when the task resumes, which is when it consumes.
    """
    if not _owns_event(state, caller, event):
        return state, E_OS_ACCESS
    cell = state.task_cell(caller)
    if cell.held_resources:
        return state, E_OS_RESOURCE
    if event in cell.set_events:
        return state, E_OK
    state = state.with_task(replace(cell, state=WAITING, waiting_for=event))
    return replace(state, running=None,
                   signals=state.signals | {SCHEDULE_SIGNAL}), E_OK


# ---------------------------------------------------------------------------
# resource services (immediate priority ceiling)
# ---------------------------------------------------------------------------


def get_resource(state: KernelState, caller: str,
                 resource: str) -> tuple[KernelState, str]:
    """Occupy a resource and raise the caller to its ceiling priority."""
    task_def = state.config.tasks[caller]
    held_anywhere = any(resource in c.held_resources for c in state.tasks)
    if resource not in task_def.resources or held_anywhere:
        return state, E_OS_ACCESS
    cell = state.task_cell(caller)
    ceiling = state.config.ceiling(resource)
    cell = replace(cell, held_resources=cell.held_resources + (resource,),
                   current_priority=max(cell.current_priority, ceiling))
    return state.with_task(cell), E_OK


def release_resource(state: KernelState, caller: str,
                     resource: str) -> tuple[KernelState, str]:
    """Release the most recently taken resource and drop back in priority."""
    cell = state.task_cell(caller)
    if not cell.held_resources or cell.held_resources[-1] != resource:
        return state, E_OS_NOFUNC
    held = cell.held_resources[:-1]
    priority = max([cell.static_priority]
                   + [state.config.ceiling(r) for r in held])
    cell = replace(cell, held_resources=held, current_priority=priority)
    state = state.with_task(cell)
    top = peek_highest(state.ready)
    if top is not None and top[0] > priority:
        state = replace(state, signals=state.signals | {SCHEDULE_SIGNAL})
    return state, E_OK


# ---------------------------------------------------------------------------
# the service table
# ---------------------------------------------------------------------------

# The effect of each service the task language accepts, keyed by its name:
# ``effect(state, caller, *args)`` returns the successor and the status.
EFFECTS = {
    "ActivateTask": activate_task,
    "TerminateTask": terminate_task,
    "ChainTask": chain_task,
    "Schedule": schedule,
    "SetEvent": set_event,
    "ClearEvent": clear_event,
    "WaitEvent": wait_event,
    "GetResource": get_resource,
    "ReleaseResource": release_resource,
    "SetRelAlarm": timing.set_rel_alarm,
    "SetAbsAlarm": timing.set_abs_alarm,
    "CancelAlarm": timing.cancel_alarm,
}


# The service call each alarm action makes, with the action's task and event
# as its arguments.  AlarmCallback stands for an application routine outside
# the kernel: it has no effect and returns E_OK.
ACTION_SERVICES = {"activatetask": "ActivateTask", "setevent": "SetEvent",
                   "alarmcallback": "AlarmCallback"}


def call_service(state: KernelState, caller: str, name: str, *args,
                 detail: str | None = None) -> KernelState:
    """Apply the service's effect, then its epilogue (label, consume, tick)."""
    state, status = EFFECTS[name](state, caller, *args)
    return timing.finish_service(state, caller, name, args, status,
                                 detail=detail)


# ---------------------------------------------------------------------------
# signal handling (no time passes here)
# ---------------------------------------------------------------------------


def pending_expiries(state: KernelState) -> tuple[str, ...]:
    """Armed alarms whose expiry signal is pending, in arming order."""
    return tuple(a for a in state.working_alarms
                 if alarmed_signal(a) in state.signals)


def handle_expiries(state: KernelState,
                    order: tuple[str, ...]) -> KernelState:
    """Make the call of each pending expiry's action in the given order,
    record it and rearm the alarm.

    Cyclic alarms advance their alarm time by the cycle even when the action
    fails; one-shot alarms disarm.
    """
    modulus = state.max_allowed_value + 1
    calls: list[Call] = []
    signals = set(state.signals)
    for alarm_id in order:
        signals.discard(alarmed_signal(alarm_id))
    state = replace(state, signals=frozenset(signals))
    for alarm_id in order:
        action = state.config.alarms[alarm_id].action
        service = ACTION_SERVICES[action.kind]
        args = tuple(a for a in (action.task, action.event) if a is not None)
        status = E_OK
        if service in EFFECTS:
            state, status = EFFECTS[service](state, None, *args)
        calls.append(Call(alarm_id, service, args, status))
        cell = state.alarm_cell(alarm_id)
        if cell.cyclic:
            state = state.with_alarm(replace(
                cell, alarm_time=(cell.alarm_time + cell.cycle_time)
                % modulus))
        else:
            state = replace(state, working_alarms=tuple(
                a for a in state.working_alarms if a != alarm_id))
    label = TransitionLabel(kind="alarm", calls=tuple(calls))
    return replace(state, last_label=label)


def multiactivation_candidate(state: KernelState) -> str | None:
    """Suspended task with recorded activations, highest priority first."""
    best: TaskCell | None = None
    for cell in state.tasks:
        if cell.state == SUSPENDED and cell.pending_activations > 0:
            if best is None or cell.static_priority > best.static_priority:
                best = cell
    return best.id if best is not None else None


def handle_multiactivation(state: KernelState) -> KernelState:
    """Turn one recorded activation into a ready task instance."""
    target = multiactivation_candidate(state)
    if target is None:
        raise ValueError("no pending activation to release")
    cell = state.task_cell(target)
    state = _make_ready(state, _fresh_cell(
        cell, READY, pending_activations=cell.pending_activations - 1))
    return replace(state, last_label=TransitionLabel(
        kind="signal", detail=f"multiactivation:{target}"))


def handle_schedule_signal(state: KernelState) -> KernelState:
    """Consume the scheduling signal: dispatch, preempt or keep running.

    A full-preemptive running task is displaced only by a strictly higher
    current priority; the displaced task re-enters its queue at the head.
    """
    state = replace(state, signals=state.signals - {SCHEDULE_SIGNAL})
    top = peek_highest(state.ready)
    if state.running is None:
        if top is None:
            detail = "idle"
        else:
            _, task_id, ready = pop_highest(state.ready)
            state = replace(state.with_task(replace(
                state.task_cell(task_id), state=RUNNING)),
                ready=ready, running=task_id)
            detail = f"dispatch:{task_id}"
    else:
        running_cell = state.task_cell(state.running)
        policy = state.config.tasks[state.running].schedule
        if (policy == FULL and top is not None
                and top[0] > running_cell.current_priority):
            _, task_id, ready = pop_highest(state.ready)
            ready = enqueue(ready, running_cell.current_priority,
                            state.running, at_head=True)
            state = state.with_task(replace(running_cell, state=READY))
            state = state.with_task(replace(state.task_cell(task_id),
                                            state=RUNNING))
            state = replace(state, ready=ready, running=task_id)
            detail = f"preempt:{running_cell.id}>{task_id}"
        else:
            detail = "keep"
    return replace(state, last_label=TransitionLabel(kind="signal",
                                                     detail=detail))


# ---------------------------------------------------------------------------
# the running task's next statement
# ---------------------------------------------------------------------------


def exec_running_statement(state: KernelState) -> KernelState:
    """Execute the front statement of the running task; past the end of its
    body that is an implicit TerminateTask."""
    caller = state.running
    if caller is None:
        raise ValueError("no running task")
    stmt = state.front(caller)
    if stmt is None:
        return call_service(state, caller, "TerminateTask", detail="implicit")
    if isinstance(stmt, TimeInterval):
        return timing.exec_time_interval(state, caller, stmt.ticks)
    if isinstance(stmt, WhileTrue):
        return timing.exec_loop_entry(state, caller)
    return call_service(state, caller, stmt.name, *stmt.args)
