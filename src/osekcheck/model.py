"""The compiled program, immutable kernel states, transition labels and the
canonical snapshot.

A ``Program`` holds what a run never changes, compiled once per boot from
the configuration and the task bodies: the task and alarm numbering, each
task's static priority, activation limit, schedule policy, events and
resources, the resource ceilings, the system counter's modulus and minimum
cycle, each alarm's action as a service call, the flattened code and the
idle mode.  The state holds only the dynamic cells, addressed by
task and alarm index: one cell per task, a priority-ordered ready structure,
the running task, a pending-signal set, the system counter, the list of
armed alarms and the label of the transition that produced the state.  A
label records the service calls the transition made as ``Call`` records: a
task's one call, or one per alarm in an expiry batch, whose action is an
ActivateTask, SetEvent or AlarmCallback call by the alarm.  States and cells
are slotted records that are never changed; every transition builds a new
state, and two states are the same state exactly when they are equal (the
program and time-advance amounts are not compared).  A state computes its
hash once.  ``translated`` moves a state's counter and alarm times, a
symmetry of the transition system; ``rotated`` maps a state to its
representative up to where the counter stands and up to the order in which
an expiry batch made its calls.
``canonical_snapshot`` renders the cells, with the static columns and code
text of the program, as stable text for printed traces.
The program keeps each task, alarm and label line once it is made, so a
snapshot formats only the lines of the state's own scalar cells and looks
up the rest; the kept lines live as long as the program, one boot.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .oil_config import KernelConfig, Record
from .task_lang import (CodeEntry, Statement, TaskBody, TimeInterval,
                        compact_statement)

# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

SUSPENDED = "suspended"
READY = "ready"
RUNNING = "running"
WAITING = "waiting"

NORMAL = "normal"
ALLIDLE = "allidle"
DEADLOCK = "deadlock"

# Idle time passes in one jump to the next expiry, or one tick per step.
JUMP = "jump"
UNIT = "unit"
IDLE_MODES = (JUMP, UNIT)

E_OK = "E_OK"
E_OS_ACCESS = "E_OS_ACCESS"
E_OS_LIMIT = "E_OS_LIMIT"
E_OS_NOFUNC = "E_OS_NOFUNC"
E_OS_RESOURCE = "E_OS_RESOURCE"
E_OS_STATE = "E_OS_STATE"
E_OS_VALUE = "E_OS_VALUE"

ERROR_CODES = (E_OS_ACCESS, E_OS_LIMIT, E_OS_NOFUNC, E_OS_RESOURCE,
               E_OS_STATE, E_OS_VALUE)

SCHEDULE_SIGNAL = ("schedule",)


def alarmed_signal(alarm_id: str) -> tuple[str, str]:
    return ("alarmed", alarm_id)


def error_status(code: str) -> str:
    return f"error:{code}"


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------
# Cells are named tuples: slotted, and built, compared and hashed in C.  A
# successor shares every cell its transition did not change with its parent.


class TaskCell(NamedTuple):
    """A task's dynamic cell; its static priority and activation limit are
    columns of the program."""

    id: str
    state: str
    current_priority: int
    pending_activations: int
    set_events: frozenset[str]
    waiting_for: str | None
    held_resources: tuple[str, ...]
    pc: int  # index into the body's flattened code; len(code) is its end
    residue: int  # ticks left of the TimeInterval at pc; 0 until it starts


class AlarmCell(NamedTuple):
    id: str
    alarm_time: int | None  # None until first armed
    cycle_time: int

    @property
    def cyclic(self) -> bool:
        return self.cycle_time != 0


def with_cell(cells: tuple, index: int, cell) -> tuple:
    """``cells`` with the cell at ``index`` replaced by ``cell``."""
    return cells[:index] + (cell,) + cells[index + 1:]


# ---------------------------------------------------------------------------
# transition labels
# ---------------------------------------------------------------------------


class Call(NamedTuple):
    """One service call and its status: made ``by`` a task, or by an alarm
    whose expiry action it is (ActivateTask, SetEvent or AlarmCallback)."""

    by: str
    service: str
    args: tuple
    status: str


class TransitionLabel(Record):
    kind: str  # "boot" | "service" | "alarm" | "signal" | "time"
    calls: tuple[Call, ...] = ()  # service: the task's; alarm: one per expiry
    amount: int = 0
    reason: str | None = None  # time: "interval" | "idle" | "loop" | "stutter"
    detail: str | None = None

    __slots__ = ("kind", "calls", "amount", "reason", "detail", "_hash")

    def __init__(self, kind: str, calls: tuple[Call, ...] = (),
                 amount: int = 0, reason: str | None = None,
                 detail: str | None = None) -> None:
        self.kind = kind
        self.calls = calls
        self.amount = amount
        self.reason = reason
        self.detail = detail
        self._hash = None

    # Written out rather than inherited: a label is hashed with every state
    # and compared on every dedup hit, and it keys its program's snapshot
    # lines, so it computes its hash once, on first use, as a state does.
    def __eq__(self, other):
        if other.__class__ is not TransitionLabel:
            return NotImplemented
        return (self.kind == other.kind and self.calls == other.calls
                and self.reason == other.reason
                and self.detail == other.detail)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.kind, self.calls, self.reason,
                               self.detail))
        return self._hash


BOOT_LABEL = TransitionLabel(kind="boot")
STUTTER_LABEL = TransitionLabel(kind="time", reason="stutter")


def canonical_label(label: TransitionLabel) -> str:
    """Stable one-line form; time-advance amounts are left out, as they are
    from label equality, so that the jump and unit idle modes agree."""
    if label.kind == "boot":
        return "boot"
    if label.kind == "service":
        (call,) = label.calls
        args = ",".join(str(a) for a in call.args)
        text = f"svc:{call.by}:{call.service}({args}):{call.status}"
        if label.detail:
            text += f":{label.detail}"
        return text
    if label.kind == "alarm":
        return "alarm:" + ";".join(
            f"{c.by}>{c.service.lower()}:{':'.join(c.args)}={c.status}"
            for c in label.calls)
    if label.kind == "signal":
        return f"sig:{label.detail}"
    if label.kind == "time":
        return f"time:{label.reason}"
    raise ValueError(f"unknown label kind {label.kind!r}")


def label_text(label: TransitionLabel) -> str:
    """Human-readable label for trace listings."""
    if label.kind == "boot":
        return "boot"
    if label.kind == "service":
        (call,) = label.calls
        args = ", ".join(str(a) for a in call.args)
        text = f"{call.by}: {call.service}({args}) -> {call.status}"
        if label.detail:
            text += f" [{label.detail}]"
        return text
    if label.kind == "alarm":
        return "; ".join(f"{c.by} expired: {c.service.lower()}"
                         + (" " + "/".join(c.args) if c.args else "")
                         + f" -> {c.status}" for c in label.calls)
    if label.kind == "signal":
        return f"scheduler: {label.detail}"
    if label.kind == "time":
        if label.reason == "stutter":
            return "stutter"
        return f"time +{label.amount} ({label.reason})"
    return canonical_label(label)


# ---------------------------------------------------------------------------
# the program: what a run never changes
# ---------------------------------------------------------------------------

# The service call each alarm action makes, with the action's task and event
# as its arguments.  AlarmCallback stands for an application routine outside
# the kernel: it has no effect and returns E_OK.
ACTION_SERVICES = {"activatetask": "ActivateTask", "setevent": "SetEvent",
                   "alarmcallback": "AlarmCallback"}


class Program:
    """The configuration and the task bodies compiled once per boot, and
    the idle mode the run was booted in (``JUMP`` or ``UNIT``).

    Tasks and alarms are numbered in declaration order; every per-task and
    per-alarm column below is a tuple indexed by that number, as are the
    cells of the states that share this program.  ``snapshot_lines``, empty
    at boot, maps each task cell, alarm cell and label that a snapshot has
    shown to its finished line (a label to its ``canonical_label`` text), so
    each distinct one is formatted once per program; ``label_texts``
    likewise maps each label but a time label to its ``label_text`` line in
    trace listings.  A cell's line also shows the program's columns, so
    these lines are never shared with another program.
    """

    __slots__ = ("config", "task_ids", "task_index", "alarm_ids",
                 "alarm_index", "priority", "max_activations", "schedule",
                 "events", "resources", "ceiling", "modulus", "min_cycle",
                 "alarm_action", "code", "idle_mode", "snapshot_lines",
                 "label_texts")

    def __init__(self, config: KernelConfig, bodies: dict[str, TaskBody],
                 idle_mode: str = JUMP):
        tasks = tuple(config.tasks.values())
        counter = config.system_counter
        self.config = config
        self.task_ids = tuple(task.id for task in tasks)
        self.task_index = {task_id: i for i, task_id in
                           enumerate(self.task_ids)}
        self.alarm_ids = tuple(config.alarms)
        self.alarm_index = {alarm_id: i for i, alarm_id in
                            enumerate(self.alarm_ids)}
        self.priority = tuple(task.priority for task in tasks)
        self.max_activations = tuple(task.max_activations for task in tasks)
        self.schedule = tuple(task.schedule for task in tasks)
        # a basic task declares no events, so it owns none
        self.events = tuple(task.events for task in tasks)
        self.resources = tuple(task.resources for task in tasks)
        # a resource's ceiling: the highest priority of the tasks using it
        self.ceiling: dict[str, int] = {}
        for task in tasks:
            for resource in task.resources:
                self.ceiling[resource] = max(
                    self.ceiling.get(resource, task.priority), task.priority)
        self.modulus = counter.max_allowed_value + 1
        self.min_cycle = counter.min_cycle
        self.alarm_action = tuple(
            (ACTION_SERVICES[alarm.action.kind],
             tuple(a for a in (alarm.action.task, alarm.action.event)
                   if a is not None))
            for alarm in config.alarms.values())
        self.code = tuple(bodies[task_id].code for task_id in self.task_ids)
        self.idle_mode = idle_mode
        self.snapshot_lines: dict[TaskCell | AlarmCell | TransitionLabel,
                                  str] = {}
        self.label_texts: dict[TransitionLabel, str] = {}


def _code_text(code: tuple[CodeEntry, ...], pc: int, residue: int) -> str:
    """The snapshot spelling of a program from ``pc`` on, a split
    TimeInterval showing its ``residue`` (``"-"`` at the end of the body)."""
    if pc == len(code):
        return "-"
    stmt, _, rest = code[pc]
    head = (f"TimeInterval={residue}" if residue
            else compact_statement(stmt))
    return f"{head};{rest}" if rest else head


# ---------------------------------------------------------------------------
# kernel state
# ---------------------------------------------------------------------------

ReadyQueues = tuple[tuple[int, tuple[str, ...]], ...]


class KernelState:
    """One kernel state: the dynamic cells, and the program they run.

    A state is never changed once built; every transition builds a new one.
    Task and alarm cells sit at their program index.  Two states are equal
    when all cells but ``program`` are equal (time-advance amounts in the
    label are not compared either), and a state computes its hash, and its
    snapshot when a trace shows it, once, on first use.
    """

    __slots__ = ("program", "tasks", "ready", "running", "signals",
                 "counter_value", "working_alarms", "alarms", "last_label",
                 "status", "_hash", "_snapshot")

    def __init__(self, program: Program, tasks: tuple[TaskCell, ...],
                 ready: ReadyQueues, running: str | None, signals: frozenset,
                 counter_value: int, working_alarms: tuple[str, ...],
                 alarms: tuple[AlarmCell, ...], last_label: TransitionLabel,
                 status: str):
        self.program = program
        self.tasks = tasks
        self.ready = ready
        self.running = running
        self.signals = signals
        self.counter_value = counter_value
        self.working_alarms = working_alarms
        self.alarms = alarms
        self.last_label = last_label
        self.status = status
        self._hash = None
        self._snapshot = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not KernelState:
            return NotImplemented
        return (self.counter_value == other.counter_value
                and self.status == other.status
                and self.running == other.running
                and self.signals == other.signals
                and self.ready == other.ready
                and self.working_alarms == other.working_alarms
                and self.last_label == other.last_label
                and self.tasks == other.tasks
                and self.alarms == other.alarms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tasks, self.ready, self.running,
                               self.signals, self.counter_value,
                               self.working_alarms, self.alarms,
                               self.last_label, self.status))
        return self._hash

    def __repr__(self) -> str:
        return (f"KernelState(counter_value={self.counter_value}, "
                f"status={self.status!r}, running={self.running!r}, "
                f"label={canonical_label(self.last_label)!r})")

    def snapshot(self) -> tuple[str, str]:
        """The canonical snapshot and the first 12 hex digits of its hash,
        the state's name in printed traces."""
        if self._snapshot is None:
            text = canonical_snapshot(self)
            self._snapshot = (text, snapshot_hash(text)[:12])
        return self._snapshot

    # -- cell access -------------------------------------------------------

    def task_cell(self, task_id: str) -> TaskCell:
        return self.tasks[self.program.task_index[task_id]]

    def alarm_cell(self, alarm_id: str) -> AlarmCell:
        return self.alarms[self.program.alarm_index[alarm_id]]

    def with_task(self, cell: TaskCell) -> "KernelState":
        tasks = with_cell(self.tasks, self.program.task_index[cell.id], cell)
        return KernelState(self.program, tasks, self.ready, self.running,
                           self.signals, self.counter_value,
                           self.working_alarms, self.alarms, self.last_label,
                           self.status)

    def with_alarm(self, cell: AlarmCell) -> "KernelState":
        alarms = with_cell(self.alarms, self.program.alarm_index[cell.id],
                           cell)
        return KernelState(self.program, self.tasks, self.ready,
                           self.running, self.signals, self.counter_value,
                           self.working_alarms, alarms, self.last_label,
                           self.status)

    def front(self, task_id: str) -> Statement | None:
        """The task's next statement (None at the end of its body); a split
        TimeInterval reads as the ticks it has left."""
        index = self.program.task_index[task_id]
        cell = self.tasks[index]
        if cell.residue:
            return TimeInterval(cell.residue)
        code = self.program.code[index]
        return code[cell.pc].statement if cell.pc < len(code) else None

    def past_front(self, task_id: str) -> "KernelState":
        """Move the task past its front statement; the end stays the end."""
        index = self.program.task_index[task_id]
        cell = self.tasks[index]
        code = self.program.code[index]
        pc = code[cell.pc].next if cell.pc < len(code) else cell.pc
        cell = TaskCell(cell.id, cell.state, cell.current_priority,
                        cell.pending_activations, cell.set_events,
                        cell.waiting_for, cell.held_resources, pc, 0)
        return KernelState(self.program, with_cell(self.tasks, index, cell),
                           self.ready, self.running, self.signals,
                           self.counter_value, self.working_alarms,
                           self.alarms, self.last_label, self.status)


def is_deadlocked(state: KernelState) -> bool:
    """True on explored dead ends: scheduler stuck or a frozen error state."""
    return state.status == DEADLOCK or state.status.startswith("error:")


def stutterize(state: KernelState, status: str | None = None) -> KernelState:
    """Terminal fixpoint twin of ``state``: same cells, stutter label."""
    return KernelState(state.program, state.tasks, state.ready, state.running,
                       state.signals, state.counter_value,
                       state.working_alarms, state.alarms, STUTTER_LABEL,
                       status if status is not None else state.status)


def translated(state: KernelState, k: int, *,
               label: TransitionLabel | None = None,
               memo: dict | None = None) -> KernelState:
    """``state`` with the counter and every alarm time that is set, armed or
    disarmed, moved ``k`` ticks on (modulo ``MAXALLOWEDVALUE + 1``), and
    labelled ``label`` when one is given.

    Translation is a symmetry of the transition system: stepping
    ``translated(s, k)`` gives the translated successors of ``s``, with the
    same choices and labels.  The rules read the counter only through an
    armed alarm's distance from it: when it expires, how far an interval or
    idle time may run, and where ``SetRelAlarm`` and a cyclic expiry put
    the next expiry.  A one-shot expiry leaves the alarm's time behind, so
    a disarmed alarm's stored time moves too.  No rule reads the label, and
    no label holds a counter value.  ``SetAbsAlarm``, which arms an alarm at
    a fixed counter value, breaks the symmetry, as the ``counter_eq``
    proposition does for the properties.

    ``memo`` maps ``(cell, k)`` to the moved alarm cell, so that the
    translations of one graph build move each alarm cell once per amount
    and share the result.
    """
    program = state.program
    modulus = program.modulus
    k %= modulus
    alarms = state.alarms
    if k:
        if memo is None:
            memo = {}
        moved = []
        for cell in alarms:
            if cell.alarm_time is not None:
                known = memo.get((cell, k))
                if known is None:
                    known = memo[cell, k] = AlarmCell(
                        cell.id, (cell.alarm_time + k) % modulus,
                        cell.cycle_time)
                cell = known
            moved.append(cell)
        alarms = tuple(moved)
    return KernelState(program, state.tasks, state.ready, state.running,
                       state.signals, (state.counter_value + k) % modulus,
                       state.working_alarms, alarms,
                       state.last_label if label is None else label,
                       state.status)


def rotated(state: KernelState) -> KernelState:
    """``state`` up to counter rotation and up to alarm call order: counter
    0, each armed alarm's time moved back by the counter value (modulo
    ``MAXALLOWEDVALUE + 1``), each disarmed alarm's time and cycle cleared,
    and an expiry batch's calls in ``_call_key`` order.

    The key rests on the symmetry that ``translated`` states.  A disarmed
    alarm's time and cycle are never read before arming sets them again,
    so they are cleared rather than moved.  The propositions and monitors
    read an alarm label's calls as a set, except strict error handling,
    which freezes on the status of the first failing call; the key keeps a
    call with that status first.  A state that is already in this form is
    returned as it is.
    """
    counter = state.counter_value
    modulus = state.program.modulus
    working = state.working_alarms
    alarms = []
    for cell in state.alarms:
        if cell.id in working:
            if counter:
                cell = AlarmCell(cell.id,
                                 (cell.alarm_time - counter) % modulus,
                                 cell.cycle_time)
        elif cell.alarm_time is not None or cell.cycle_time:
            cell = AlarmCell(cell.id, None, 0)
        alarms.append(cell)
    alarms = tuple(alarms)
    label = state.last_label
    if len(label.calls) > 1:  # only an expiry batch makes several calls
        calls = _call_key(label.calls)
        if calls != label.calls:
            label = TransitionLabel("alarm", calls)
    if not counter and alarms == state.alarms and label is state.last_label:
        return state
    return KernelState(state.program, state.tasks, state.ready, state.running,
                       state.signals, 0, working, alarms, label,
                       state.status)


def _call_key(calls: tuple[Call, ...]) -> tuple[Call, ...]:
    """An expiry batch's calls up to handling order, in alarm-id order, but
    with the first failing call's status first: the first call is then the
    lowest-id call that failed with it, so strict error handling freezes the
    key on the code it froze the batch on."""
    ordered = tuple(sorted(calls))
    for call in calls:
        if call.status != E_OK:
            for index, first in enumerate(ordered):
                if first.status == call.status:
                    return (first,) + ordered[:index] + ordered[index + 1:]
    return ordered


# ---------------------------------------------------------------------------
# ready-queue helpers (queues keyed by priority, highest first)
# ---------------------------------------------------------------------------


def enqueue(ready: ReadyQueues, priority: int, task_id: str,
            at_head: bool = False) -> ReadyQueues:
    for index, (prio, queue) in enumerate(ready):
        if prio == priority:
            queue = (task_id,) + queue if at_head else queue + (task_id,)
            return ready[:index] + ((prio, queue),) + ready[index + 1:]
        if prio < priority:
            return ready[:index] + ((priority, (task_id,)),) + ready[index:]
    return ready + ((priority, (task_id,)),)


def peek_highest(ready: ReadyQueues) -> tuple[int, str] | None:
    for prio, queue in ready:
        if queue:
            return prio, queue[0]
    return None


def pop_highest(ready: ReadyQueues) -> tuple[int, str, ReadyQueues]:
    if not ready:
        raise ValueError("ready structure is empty")
    (prio, queue), rest = ready[0], ready[1:]
    if len(queue) > 1:
        rest = ((prio, queue[1:]),) + rest
    return prio, queue[0], rest


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def canonical_snapshot(state: KernelState) -> str:
    """Deterministic textual form of every semantic cell, with the static
    columns and program text of each task read from the program.

    Only the counter, status, running, signals, ready and working lines
    are formatted per state; the label, task and alarm lines are read from
    ``program.snapshot_lines``, which an equal label or cell fills once.
    """
    program = state.program
    known = program.snapshot_lines
    lines = [
        f"counter={state.counter_value}",
        f"status={state.status}",
        f"running={state.running or '-'}",
    ]
    if state.signals:
        sig_texts = sorted(":".join(sig) for sig in state.signals)
        lines.append("signals=" + "|".join(sig_texts))
    else:
        lines.append("signals=-")
    if state.ready:
        parts = [f"{prio}:{','.join(queue)}" for prio, queue in state.ready]
        lines.append("ready=" + ";".join(parts))
    else:
        lines.append("ready=-")
    lines.append("working=" + ("|".join(state.working_alarms) or "-"))
    lines.append("label=" + _label_line(program, state.last_label))
    for cell in state.tasks:
        line = known.get(cell)
        if line is None:
            line = known[cell] = _task_line(program, cell)
        lines.append(line)
    for cell in state.alarms:
        line = known.get(cell)
        if line is None:
            at = "-" if cell.alarm_time is None else str(cell.alarm_time)
            line = known[cell] = (f"alarm={cell.id} at={at} "
                                  f"ct={cell.cycle_time}")
        lines.append(line)
    return "\n".join(lines)


def _label_line(program: Program, label: TransitionLabel) -> str:
    """``canonical_label(label)``, made once per program and equal label."""
    known = program.snapshot_lines
    text = known.get(label)
    if text is None:
        text = known[label] = canonical_label(label)
    return text


def _task_line(program: Program, cell: TaskCell) -> str:
    index = program.task_index[cell.id]
    events = "|".join(sorted(cell.set_events)) or "-"
    resources = "|".join(cell.held_resources) or "-"
    text = _code_text(program.code[index], cell.pc, cell.residue)
    return (f"task={cell.id} st={cell.state} sp={program.priority[index]} "
            f"cp={cell.current_priority} "
            f"act={program.max_activations[index]}/"
            f"{cell.pending_activations} ev={events} "
            f"w={cell.waiting_for or '-'} res={resources} pgm={text}")


def snapshot_hash(snapshot: str) -> str:
    """Hex sha256 of a snapshot text, the state's name in printed traces."""
    return hashlib.sha256(snapshot.encode()).hexdigest()


def state_hash(state: KernelState) -> str:
    return snapshot_hash(canonical_snapshot(state))
