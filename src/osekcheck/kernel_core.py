"""Boot, the service table and the scheduler's signal rules.

A kernel service is its effect: a function ``(state, caller, *args)`` that
returns the successor state and the status code, mutating nothing; it reads
the static facts it needs from the state's program and builds its successor
directly.
``EFFECTS`` maps every service name the task language accepts to its effect;
the task, event and resource services live here and the alarm services in
:mod:`timing`.  ``call_service`` is the one place a call is made: it applies
the effect, then :func:`timing.finish_service`, which labels the call,
consumes it and charges its counter tick, failing calls included.  The run
goes on after a failure (strict error handling, which freezes such a state,
is applied by the explorer).  An alarm expiry makes its action's call, an
ActivateTask, SetEvent or AlarmCallback call by the alarm, through the same
table (AlarmCallback has no effect and returns E_OK), and the batch's label
records the calls.  ``expiry_outcomes`` is the one walk over a batch's
handling orders: by subsets, applying each expiry once per distinct
intermediate state, it gives one order per distinct outcome up to a key of
the batch's calls, which is every order when the key is the calls
themselves.  Boot is StartOS: the ActivateTask and SetRelAlarm calls of the
autostart tasks and alarms, then a dispatch.
Scheduler signal handling (expiry actions, pending-activation release,
rescheduling) consumes no time.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from . import timing
from .model import (BOOT_LABEL, E_OK, E_OS_ACCESS, E_OS_LIMIT, E_OS_NOFUNC,
                    E_OS_RESOURCE, E_OS_STATE, NORMAL, READY, RUNNING,
                    SCHEDULE_SIGNAL, SUSPENDED, WAITING, AlarmCell, Call,
                    KernelState, Program, TaskCell, TransitionLabel,
                    alarmed_signal, enqueue, peek_highest, pop_highest,
                    with_cell)
from .oil_config import FULL, KernelConfig
from .task_lang import TaskBody, TimeInterval, WhileTrue

# Shared sets: a frozenset takes 216 bytes, and most states hold one of these.
NO_EVENTS: frozenset[str] = frozenset()
NO_SIGNALS: frozenset = frozenset()
SCHEDULING: frozenset = frozenset({SCHEDULE_SIGNAL})


class BootError(Exception):
    """Raised when the configuration cannot produce an initial state."""


# ---------------------------------------------------------------------------
# boot
# ---------------------------------------------------------------------------


def boot(config: KernelConfig, bodies: dict[str, TaskBody],
         idle_mode: str = timing.JUMP) -> KernelState:
    """StartOS: compile the program, in ``idle_mode`` (how idle time passes,
    ``timing.JUMP`` or ``timing.UNIT``), then, from every task suspended and
    every alarm disarmed, make the ActivateTask call of each autostart task
    and the SetRelAlarm call of each autostart alarm, then dispatch.

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
    program = Program(config, bodies, idle_mode)
    tasks = tuple(TaskCell(task_id, SUSPENDED, priority, 0, NO_EVENTS, None,
                           (), 0, 0)
                  for task_id, priority in zip(program.task_ids,
                                               program.priority))
    alarms = tuple(AlarmCell(alarm_id, None, 0)
                   for alarm_id in program.alarm_ids)
    state = KernelState(program, tasks, (), None, NO_SIGNALS, 0, (), alarms,
                        BOOT_LABEL, NORMAL)
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
    state = handle_schedule_signal(state)
    return KernelState(program, state.tasks, state.ready, state.running,
                       state.signals, state.counter_value,
                       state.working_alarms, state.alarms, BOOT_LABEL,
                       state.status)


# ---------------------------------------------------------------------------
# helpers shared by the services
# ---------------------------------------------------------------------------


def _scheduling(signals: frozenset) -> frozenset:
    """``signals`` with the scheduling signal raised."""
    return signals | SCHEDULING if signals else SCHEDULING


def _with_signals(state: KernelState, signals: frozenset) -> KernelState:
    return KernelState(state.program, state.tasks, state.ready, state.running,
                       signals, state.counter_value, state.working_alarms,
                       state.alarms, state.last_label, state.status)


def _fresh_cell(state: KernelState, index: int, cell: TaskCell,
                task_state: str, pending: int) -> TaskCell:
    """Reset a cell for a new activation: full body, no events, base priority."""
    return TaskCell(cell.id, task_state, state.program.priority[index],
                    pending, NO_EVENTS, None, cell.held_resources, 0, 0)


def _make_ready(state: KernelState, index: int,
                cell: TaskCell) -> KernelState:
    """Store a READY cell, queue it last at its priority, ask to reschedule."""
    return KernelState(state.program, with_cell(state.tasks, index, cell),
                       enqueue(state.ready, cell.current_priority, cell.id),
                       state.running, _scheduling(state.signals),
                       state.counter_value, state.working_alarms,
                       state.alarms, state.last_label, state.status)


def _end_activation(state: KernelState, index: int, pending: int,
                    signals: frozenset) -> KernelState:
    """Suspend the running task (at ``index``) with a fresh cell holding
    ``pending`` recorded activations; ``signals`` are the successor's."""
    cell = _fresh_cell(state, index, state.tasks[index], SUSPENDED, pending)
    return KernelState(state.program, with_cell(state.tasks, index, cell),
                       state.ready, None, signals, state.counter_value,
                       state.working_alarms, state.alarms, state.last_label,
                       state.status)


def _owns_event(state: KernelState, index: int, event: str) -> bool:
    """Is the task at ``index`` an extended task that declares ``event``?"""
    return event in state.program.events[index]


def activation_status(cell: TaskCell, limit: int) -> str:
    """Would one more activation request be accepted for this cell, given
    the task's activation limit?

    The live instance (any non-suspended state) and recorded pending requests
    together may not exceed the limit.
    """
    live = 0 if cell.state == SUSPENDED else 1
    if live + cell.pending_activations + 1 <= limit:
        return E_OK
    return E_OS_LIMIT


# ---------------------------------------------------------------------------
# task services
# ---------------------------------------------------------------------------


def activate_task(state: KernelState, caller: str | None,
                  target: str) -> tuple[KernelState, str]:
    """Make ``target`` ready now or record the request (alarm actions and
    boot pass no caller)."""
    index = state.program.task_index[target]
    cell = state.tasks[index]
    status = activation_status(cell, state.program.max_activations[index])
    if status != E_OK:
        return state, status
    if cell.state == SUSPENDED and cell.pending_activations == 0:
        return _make_ready(state, index,
                           _fresh_cell(state, index, cell, READY, 0)), E_OK
    return state.with_task(cell._replace(
        pending_activations=cell.pending_activations + 1)), E_OK


def terminate_task(state: KernelState,
                   caller: str) -> tuple[KernelState, str]:
    """End the running task's current activation.

    With resources still held the call fails and the task keeps running.
    """
    index = state.program.task_index[caller]
    cell = state.tasks[index]
    if cell.held_resources:
        return state, E_OS_RESOURCE
    return _end_activation(state, index, cell.pending_activations,
                           _scheduling(state.signals)), E_OK


def chain_task(state: KernelState, caller: str,
               target: str) -> tuple[KernelState, str]:
    """Terminate the caller and activate ``target`` in one atomic service.

    Chaining the caller itself records a pending activation without raising a
    scheduling signal.  If the activation would exceed the target's limit the
    whole call fails and the caller keeps running.
    """
    program = state.program
    index = program.task_index[caller]
    cell = state.tasks[index]
    if cell.held_resources:
        return state, E_OS_RESOURCE
    if target == caller:
        if cell.pending_activations + 1 > program.max_activations[index]:
            return state, E_OS_LIMIT
        return _end_activation(state, index, cell.pending_activations + 1,
                               state.signals), E_OK
    target_index = program.task_index[target]
    if activation_status(state.tasks[target_index],
                         program.max_activations[target_index]) != E_OK:
        return state, E_OS_LIMIT
    state, _ = activate_task(state, caller, target)
    return _end_activation(state, index,
                           state.tasks[index].pending_activations,
                           _scheduling(state.signals)), E_OK


def schedule(state: KernelState, caller: str) -> tuple[KernelState, str]:
    """Voluntary scheduling point; lets higher-priority ready tasks in."""
    return _with_signals(state, _scheduling(state.signals)), E_OK


# ---------------------------------------------------------------------------
# event services
# ---------------------------------------------------------------------------


def set_event(state: KernelState, caller: str | None, target: str,
              event: str) -> tuple[KernelState, str]:
    """Deliver an event to ``target``, waking it if it waits for the event
    (alarm actions pass no caller)."""
    index = state.program.task_index[target]
    if not _owns_event(state, index, event):
        return state, E_OS_ACCESS
    cell = state.tasks[index]
    if cell.state == SUSPENDED:
        return state, E_OS_STATE
    events = cell.set_events | {event}
    if cell.state == WAITING and cell.waiting_for == event:
        return _make_ready(state, index, cell._replace(
            state=READY, set_events=events, waiting_for=None)), E_OK
    return state.with_task(cell._replace(set_events=events)), E_OK


def clear_event(state: KernelState, caller: str,
                event: str) -> tuple[KernelState, str]:
    index = state.program.task_index[caller]
    if not _owns_event(state, index, event):
        return state, E_OS_ACCESS
    cell = state.tasks[index]
    return state.with_task(cell._replace(
        set_events=cell.set_events - {event} or NO_EVENTS)), E_OK


def wait_event(state: KernelState, caller: str,
               event: str) -> tuple[KernelState, str]:
    """Wait until ``event`` is set for the caller.

    If the event is pending the call returns at once.  Otherwise the caller
    blocks and its program counter stays on the call: the call is re-issued
    (and charged again) when the task resumes, which is when it consumes.
    """
    index = state.program.task_index[caller]
    if not _owns_event(state, index, event):
        return state, E_OS_ACCESS
    cell = state.tasks[index]
    if cell.held_resources:
        return state, E_OS_RESOURCE
    if event in cell.set_events:
        return state, E_OK
    cell = cell._replace(state=WAITING, waiting_for=event)
    return KernelState(state.program, with_cell(state.tasks, index, cell),
                       state.ready, None, _scheduling(state.signals),
                       state.counter_value, state.working_alarms,
                       state.alarms, state.last_label, state.status), E_OK


# ---------------------------------------------------------------------------
# resource services (immediate priority ceiling)
# ---------------------------------------------------------------------------


def get_resource(state: KernelState, caller: str,
                 resource: str) -> tuple[KernelState, str]:
    """Occupy a resource and raise the caller to its ceiling priority."""
    program = state.program
    index = program.task_index[caller]
    held_anywhere = any(resource in c.held_resources for c in state.tasks)
    if resource not in program.resources[index] or held_anywhere:
        return state, E_OS_ACCESS
    cell = state.tasks[index]
    cell = cell._replace(held_resources=cell.held_resources + (resource,),
                         current_priority=max(cell.current_priority,
                                              program.ceiling[resource]))
    return state.with_task(cell), E_OK


def release_resource(state: KernelState, caller: str,
                     resource: str) -> tuple[KernelState, str]:
    """Release the most recently taken resource and drop back in priority."""
    program = state.program
    index = program.task_index[caller]
    cell = state.tasks[index]
    if not cell.held_resources or cell.held_resources[-1] != resource:
        return state, E_OS_NOFUNC
    held = cell.held_resources[:-1]
    priority = max([program.priority[index]]
                   + [program.ceiling[r] for r in held])
    state = state.with_task(cell._replace(held_resources=held,
                                          current_priority=priority))
    top = peek_highest(state.ready)
    if top is not None and top[0] > priority:
        state = _with_signals(state, _scheduling(state.signals))
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
    signals = state.signals
    if not signals:
        return ()
    return tuple(a for a in state.working_alarms
                 if alarmed_signal(a) in signals)


def _expire(state: KernelState, alarm_id: str) -> tuple[KernelState, Call]:
    """Handle one pending expiry: make the call of the alarm's action, then
    rearm the alarm.

    Cyclic alarms advance their alarm time by the cycle even when the action
    fails; one-shot alarms disarm.
    """
    program = state.program
    index = program.alarm_index[alarm_id]
    service, args = program.alarm_action[index]
    status = E_OK
    if service in EFFECTS:
        state, status = EFFECTS[service](state, None, *args)
    cell = state.alarms[index]
    if cell.cyclic:
        state = state.with_alarm(cell._replace(
            alarm_time=(cell.alarm_time + cell.cycle_time) % program.modulus))
    else:
        state = KernelState(
            program, state.tasks, state.ready, state.running, state.signals,
            state.counter_value,
            tuple(a for a in state.working_alarms if a != alarm_id),
            state.alarms, state.last_label, state.status)
    return state, Call(alarm_id, service, args, status)


def _without_expiries(state: KernelState,
                      alarm_ids: tuple[str, ...]) -> KernelState:
    """``state`` with the expiry signals of ``alarm_ids`` consumed."""
    return _with_signals(state, state.signals.difference(
        [alarmed_signal(alarm_id) for alarm_id in alarm_ids]) or NO_SIGNALS)


def _batch_labelled(state: KernelState, calls: tuple[Call, ...]
                    ) -> KernelState:
    return KernelState(state.program, state.tasks, state.ready,
                       state.running, state.signals, state.counter_value,
                       state.working_alarms, state.alarms,
                       TransitionLabel(kind="alarm", calls=calls),
                       state.status)


def handle_expiries(state: KernelState,
                    order: tuple[str, ...]) -> KernelState:
    """Handle each pending expiry in the given order and record its call."""
    state = _without_expiries(state, order)
    calls = []
    for alarm_id in order:
        state, call = _expire(state, alarm_id)
        calls.append(call)
    return _batch_labelled(state, tuple(calls))


def expiry_outcomes(state: KernelState, pending: tuple[str, ...],
                    key: Callable[[tuple[Call, ...]], Hashable]
                    ) -> list[tuple[tuple[str, ...], KernelState]]:
    """One ``(order, handle_expiries(state, order))`` per distinct outcome
    up to ``key`` of the batch's calls, with the first order in
    ``itertools.permutations(pending)`` that reaches it.  With ``tuple`` as
    ``key`` no two orders agree, so every order is listed, in that order;
    with ``model._call_key`` one per outcome up to call order, as
    ``model.rotated`` keys the batch's label.

    The batch is handled by subsets, one alarm more each layer.  A layer
    maps each state reached with the key of its calls to that state, the
    first order that reached it and that order's calls, so it grows with
    the distinct intermediate states, not with the orders.  Its entries are
    listed by their orders, and each is extended by the alarms in
    ``pending`` order, so the first order to reach a key is the first in
    ``itertools.permutations(pending)`` to reach it: every prefix of that
    order is the first to reach its own key.  Two entries can share a
    state whose calls differ, so each alarm's expiry is applied once per
    distinct state (the memo lives for one call).
    """
    expired: dict[tuple[KernelState, str], tuple[KernelState, Call]] = {}
    layer = [(_without_expiries(state, pending), (), ())]
    for _ in pending:
        longer_layer: dict = {}
        for reached, order, calls in layer:
            for alarm_id in pending:
                if alarm_id in order:
                    continue
                step = expired.get((reached, alarm_id))
                if step is None:
                    step = expired[reached, alarm_id] = _expire(reached,
                                                                alarm_id)
                after, call = step
                longer = calls + (call,)
                longer_layer.setdefault((after, key(longer)),
                                        (after, order + (alarm_id,), longer))
        layer = longer_layer.values()
    return [(order, _batch_labelled(reached, calls))
            for reached, order, calls in layer]


def multiactivation_candidate(state: KernelState) -> str | None:
    """Suspended task with recorded activations, highest priority first."""
    best = None
    priority = state.program.priority
    for index, cell in enumerate(state.tasks):
        if cell.state == SUSPENDED and cell.pending_activations > 0:
            if best is None or priority[index] > priority[best]:
                best = index
    return state.tasks[best].id if best is not None else None


def handle_multiactivation(state: KernelState, target: str) -> KernelState:
    """Turn one recorded activation of ``target``, the
    ``multiactivation_candidate``, into a ready task instance."""
    index = state.program.task_index[target]
    cell = state.tasks[index]
    state = _make_ready(state, index, _fresh_cell(
        state, index, cell, READY, cell.pending_activations - 1))
    return KernelState(state.program, state.tasks, state.ready,
                       state.running, state.signals, state.counter_value,
                       state.working_alarms, state.alarms,
                       TransitionLabel(kind="signal",
                                       detail=f"multiactivation:{target}"),
                       state.status)


def handle_schedule_signal(state: KernelState) -> KernelState:
    """Consume the scheduling signal: dispatch, preempt or keep running.

    A full-preemptive running task is displaced only by a strictly higher
    current priority; the displaced task re-enters its queue at the head.
    """
    program = state.program
    tasks, ready, running = state.tasks, state.ready, state.running
    top = peek_highest(ready)
    if running is None:
        if top is None:
            detail = "idle"
        else:
            _, running, ready = pop_highest(ready)
            index = program.task_index[running]
            tasks = with_cell(tasks, index,
                              tasks[index]._replace(state=RUNNING))
            detail = f"dispatch:{running}"
    else:
        index = program.task_index[running]
        running_cell = tasks[index]
        if (program.schedule[index] == FULL and top is not None
                and top[0] > running_cell.current_priority):
            _, task_id, ready = pop_highest(ready)
            ready = enqueue(ready, running_cell.current_priority, running,
                            at_head=True)
            tasks = with_cell(tasks, index,
                              running_cell._replace(state=READY))
            index = program.task_index[task_id]
            tasks = with_cell(tasks, index,
                              tasks[index]._replace(state=RUNNING))
            detail = f"preempt:{running}>{task_id}"
            running = task_id
        else:
            detail = "keep"
    return KernelState(program, tasks, ready, running,
                       state.signals - SCHEDULING or NO_SIGNALS,
                       state.counter_value, state.working_alarms, state.alarms,
                       TransitionLabel(kind="signal", detail=detail),
                       state.status)


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
