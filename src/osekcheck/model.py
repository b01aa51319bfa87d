"""Immutable kernel state, transition labels and the canonical snapshot.

The state mirrors a configuration-style cell layout: one cell per task, a
priority-ordered ready structure, the running task, a pending-signal set, the
system counter, the list of armed alarms and the label of the transition that
produced the state.  A label records the service calls the transition made as
``Call`` records: a task's one call, or one per alarm in an expiry batch,
whose action is an ActivateTask, SetEvent or AlarmCallback call by the alarm.
States are frozen dataclasses; every transition builds a new state, and two
states are the same state exactly when they are equal (the configuration,
task bodies and time-advance amounts are not compared).
``canonical_snapshot`` renders the cells as stable text for printed traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .oil_config import KernelConfig
from .task_lang import Statement, TaskBody, TimeInterval, compact_statement

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


@dataclass(frozen=True)
class TaskCell:
    id: str
    state: str
    static_priority: int
    current_priority: int
    max_activations: int
    pending_activations: int
    set_events: frozenset[str]
    waiting_for: str | None
    held_resources: tuple[str, ...]
    pc: int  # index into the body's flattened code; len(code) is its end
    residue: int  # ticks left of the TimeInterval at pc; 0 until it starts


@dataclass(frozen=True)
class AlarmCell:
    id: str
    alarm_time: int | None  # None until first armed
    cycle_time: int

    @property
    def cyclic(self) -> bool:
        return self.cycle_time != 0


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


@dataclass(frozen=True, slots=True)
class TransitionLabel:
    kind: str  # "boot" | "service" | "alarm" | "signal" | "time"
    calls: tuple[Call, ...] = ()  # service: the task's; alarm: one per expiry
    amount: int = field(default=0, compare=False)
    reason: str | None = None  # time: "interval" | "idle" | "loop" | "stutter"
    detail: str | None = None


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
# kernel state
# ---------------------------------------------------------------------------

ReadyQueues = tuple[tuple[int, tuple[str, ...]], ...]


@dataclass(frozen=True)
class KernelState:
    config: KernelConfig = field(compare=False)
    bodies: dict[str, TaskBody] = field(compare=False)
    tasks: tuple[TaskCell, ...] = ()
    ready: ReadyQueues = ()
    running: str | None = None
    signals: frozenset = frozenset()
    counter_value: int = 0
    working_alarms: tuple[str, ...] = ()
    alarms: tuple[AlarmCell, ...] = ()
    last_label: TransitionLabel = BOOT_LABEL
    status: str = NORMAL

    # -- cell access -------------------------------------------------------

    def task_cell(self, task_id: str) -> TaskCell:
        for cell in self.tasks:
            if cell.id == task_id:
                return cell
        raise KeyError(task_id)

    def alarm_cell(self, alarm_id: str) -> AlarmCell:
        for cell in self.alarms:
            if cell.id == alarm_id:
                return cell
        raise KeyError(alarm_id)

    def with_task(self, cell: TaskCell) -> "KernelState":
        tasks = tuple(cell if c.id == cell.id else c for c in self.tasks)
        return replace(self, tasks=tasks)

    def front(self, task_id: str) -> Statement | None:
        """The task's next statement (None at the end of its body); a split
        TimeInterval reads as the ticks it has left."""
        cell = self.task_cell(task_id)
        code = self.bodies[task_id].code
        if cell.residue:
            return TimeInterval(cell.residue)
        return code[cell.pc].statement if cell.pc < len(code) else None

    def past_front(self, task_id: str) -> "KernelState":
        """Move the task past its front statement; the end stays the end."""
        cell = self.task_cell(task_id)
        code = self.bodies[task_id].code
        pc = code[cell.pc].next if cell.pc < len(code) else cell.pc
        return self.with_task(replace(cell, pc=pc, residue=0))

    def with_alarm(self, cell: AlarmCell) -> "KernelState":
        alarms = tuple(cell if c.id == cell.id else c for c in self.alarms)
        return replace(self, alarms=alarms)

    @property
    def max_allowed_value(self) -> int:
        return self.config.system_counter.max_allowed_value

    @property
    def min_cycle(self) -> int:
        return self.config.system_counter.min_cycle


def is_deadlocked(state: KernelState) -> bool:
    """True on explored dead ends: scheduler stuck or a frozen error state."""
    return state.status == DEADLOCK or state.status.startswith("error:")


def stutterize(state: KernelState, status: str | None = None) -> KernelState:
    """Terminal fixpoint twin of ``state``: same cells, stutter label."""
    return replace(state, status=status if status is not None else state.status,
                   last_label=STUTTER_LABEL)


# ---------------------------------------------------------------------------
# ready-queue helpers (queues keyed by priority, highest first)
# ---------------------------------------------------------------------------


def enqueue(ready: ReadyQueues, priority: int, task_id: str,
            at_head: bool = False) -> ReadyQueues:
    queues = {prio: list(q) for prio, q in ready}
    queue = queues.setdefault(priority, [])
    if at_head:
        queue.insert(0, task_id)
    else:
        queue.append(task_id)
    return tuple((prio, tuple(queues[prio]))
                 for prio in sorted(queues, reverse=True) if queues[prio])


def peek_highest(ready: ReadyQueues) -> tuple[int, str] | None:
    for prio, queue in ready:
        if queue:
            return prio, queue[0]
    return None


def pop_highest(ready: ReadyQueues) -> tuple[int, str, ReadyQueues]:
    top = peek_highest(ready)
    if top is None:
        raise ValueError("ready structure is empty")
    prio, task_id = top
    queues = [(p, q[1:] if p == prio else q) for p, q in ready]
    return prio, task_id, tuple((p, q) for p, q in queues if q)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def _program_text(body: TaskBody, cell: TaskCell) -> str:
    if cell.pc == len(body.code):
        return "-"
    stmt, _, rest = body.code[cell.pc]
    head = (f"TimeInterval={cell.residue}" if cell.residue
            else compact_statement(stmt))
    return f"{head};{rest}" if rest else head


def canonical_snapshot(state: KernelState) -> str:
    """Deterministic textual form of every semantic cell."""
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
    lines.append("label=" + canonical_label(state.last_label))
    for cell in state.tasks:
        events = "|".join(sorted(cell.set_events)) or "-"
        resources = "|".join(cell.held_resources) or "-"
        lines.append(
            f"task={cell.id} st={cell.state} sp={cell.static_priority} "
            f"cp={cell.current_priority} act={cell.max_activations}/"
            f"{cell.pending_activations} ev={events} "
            f"w={cell.waiting_for or '-'} res={resources} "
            f"pgm={_program_text(state.bodies[cell.id], cell)}")
    for cell in state.alarms:
        at = "-" if cell.alarm_time is None else str(cell.alarm_time)
        lines.append(f"alarm={cell.id} at={at} ct={cell.cycle_time}")
    return "\n".join(lines)


def snapshot_hash(snapshot: str) -> str:
    """Hex sha256 of a snapshot text, the state's name in printed traces."""
    return hashlib.sha256(snapshot.encode()).hexdigest()


def state_hash(state: KernelState) -> str:
    return snapshot_hash(canonical_snapshot(state))
