"""Shared fixtures: app builders, random app generation, state invariants,
brute-force temporal-logic oracles for cross-checking the model checker,
the text renderers that round-trip tests parse back, and a snapshot
renderer that formats every line anew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from osekcheck import explorer, ltl
from osekcheck.model import (ALLIDLE, DEADLOCK, NORMAL, READY, RUNNING,
                             SUSPENDED, WAITING, KernelState, _code_text,
                             canonical_label)
from osekcheck.oil_config import KernelConfig, parse_oil
from osekcheck.task_lang import (CallService, Statement, TaskBody,
                                 TimeInterval, parse_task_file)


def make_app(oil_text: str, tsk_text: str):
    config = parse_oil(oil_text)
    bodies = parse_task_file(tsk_text, config)
    return config, bodies


# ==== tiny canned applications =============================================

MINI_OIL = """
COUNTER C { MAXALLOWEDVALUE = 255; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Low  { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK High { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
"""

MINI_TSK = """
TASK Low { ActivateTask(High); TerminateTask(); }
TASK High { TerminateTask(); }
"""


# ==== loop shapes that random_app never generates ==========================
# Nested loops, a loop whose body starts with a loop, a TimeInterval inside
# a loop that an expiry splits, statements after a loop and after
# TerminateTask (reached when Tail's TerminateTask fails with R held), and
# an empty body.

LOOP_OIL = """
COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
RESOURCE R { RESOURCEPROPERTY = STANDARD; };
EVENT E { MASK = AUTO; };
TASK Main  { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; EVENT = E; };
TASK Nest  { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
TASK Tail  { PRIORITY = 3; SCHEDULE = FULL; ACTIVATION = 2; AUTOSTART = FALSE; RESOURCE = R; };
TASK Empty { PRIORITY = 4; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
ALARM Wake { COUNTER = C; ACTION = SETEVENT { TASK = Main; EVENT = E; };
             AUTOSTART = TRUE { ALARMTIME = 3; CYCLETIME = 11; }; };
ALARM Split { COUNTER = C; ACTION = ACTIVATETASK { TASK = Tail; };
              AUTOSTART = TRUE { ALARMTIME = 13; CYCLETIME = 13; }; };
"""

LOOP_TSK = """
TASK Main {
    ActivateTask(Empty);
    while (true) {
        TimeInterval = 4;
        ActivateTask(Nest);
        while (true) { WaitEvent(E); ClearEvent(E); TimeInterval = 2; Schedule(); }
        Schedule();
    }
    TerminateTask();
}
TASK Nest {
    while (true) {
        while (true) { TimeInterval = 1; ActivateTask(Empty); TerminateTask(); }
        ActivateTask(Tail);
    }
}
TASK Tail {
    GetResource(R); TerminateTask(); ReleaseResource(R); TerminateTask();
    ActivateTask(Empty);
}
TASK Empty { }
"""

LOOP_LTL = """
main_runs: [] <> running(Main)
nest_ends: <> suspended(Nest)
no_resource_error: [] !error(E_OS_RESOURCE)
"""


# ==== every alarm action in one batch ======================================
# Three alarms expire together, so each batch has six handling orders.
# Handling Kick's SETEVENT before Go's ACTIVATETASK fails with E_OS_STATE
# (Ext is still suspended), which freezes the strict graph.  When Ext is
# left waiting, the next batch's ACTIVATETASK overflows it (E_OS_LIMIT)
# and the SETEVENT wakes it.  Tock's ALARMCALLBACK has no effect.

ACTIONS_OIL = """
COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
EVENT E { MASK = AUTO; };
TASK Main { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Ext  { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; EVENT = E; };
ALARM Go   { COUNTER = C; ACTION = ACTIVATETASK { TASK = Ext; };
             AUTOSTART = TRUE { ALARMTIME = 3; CYCLETIME = 6; }; };
ALARM Kick { COUNTER = C; ACTION = SETEVENT { TASK = Ext; EVENT = E; };
             AUTOSTART = TRUE { ALARMTIME = 3; CYCLETIME = 6; }; };
ALARM Tock { COUNTER = C; ACTION = ALARMCALLBACK { ALARMCALLBACKNAME = tock; };
             AUTOSTART = TRUE { ALARMTIME = 3; CYCLETIME = 6; }; };
"""

ACTIONS_TSK = """
TASK Main { TimeInterval = 2; TerminateTask(); }
TASK Ext { WaitEvent(E); ClearEvent(E); TerminateTask(); }
"""

ACTIONS_LTL = """
ext_woken: [] (wait(E, Ext) -> <> set(E, Ext))
no_state_error: [] !error(E_OS_STATE)
ext_ends: [] <> suspended(Ext)
"""


# ==== six alarms expiring together =========================================
# Alarms A1..A6 activate tasks T1..T6 at one ALARMTIME, so each batch has
# 720 handling orders; the first batch preempts Main's TimeInterval.  By
# default T1-T3 share priority 2 and T4-T6 priority 3, so the order of the
# activations at each level is the order in which those tasks run.  T1
# activates T2: that fails with E_OS_LIMIT when A1 was handled before A2
# (T2 is still queued behind T1), which freezes the strict graph.  With six
# distinct priorities every pair of the batch's actions commutes.

def coincide_oil(priorities: tuple[int, ...] = (2, 2, 2, 3, 3, 3)) -> str:
    """The six-alarm configuration with task ``Ti`` at ``priorities[i-1]``."""
    lines = ["COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1; "
             "MINCYCLE = 1; SYSTEM = TRUE; };",
             "TASK Main { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; "
             "AUTOSTART = TRUE; };"]
    for i, priority in enumerate(priorities, 1):
        lines.append(f"TASK T{i} {{ PRIORITY = {priority}; SCHEDULE = FULL; "
                     "ACTIVATION = 1; AUTOSTART = FALSE; };")
    for i in range(1, len(priorities) + 1):
        lines.append(f"ALARM A{i} {{ COUNTER = C; ACTION = ACTIVATETASK "
                     f"{{ TASK = T{i}; }}; AUTOSTART = TRUE "
                     "{ ALARMTIME = 2; CYCLETIME = 8; }; };")
    return "\n".join(lines) + "\n"


COINCIDE_OIL = coincide_oil()

COINCIDE_TSK = """
TASK Main { TimeInterval = 3; TerminateTask(); }
TASK T1 { ActivateTask(T2); TerminateTask(); }
TASK T2 { TerminateTask(); }
TASK T3 { TerminateTask(); }
TASK T4 { TerminateTask(); }
TASK T5 { TerminateTask(); }
TASK T6 { TerminateTask(); }
"""

COINCIDE_LTL = """
no_limit_error: [] !error(E_OS_LIMIT)
t6_served: [] (ready(T6) -> <> running(T6))
main_ends: <> suspended(Main)
"""


# ==== an alarm set to an absolute time ====================================
# Main arms Abs for counter 6 with SetAbsAlarm, works two ticks and cancels
# it, round and round; Rel activates Tick every five ticks.  Where Abs
# expires depends on where the counter stands, not only on how far each
# armed alarm is from it, so this app is checked on concrete states.  Abs
# and Rel both activate Tick, which overflows when they expire close
# together.

ABS_OIL = """
COUNTER C { MAXALLOWEDVALUE = 7; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Main { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Tick { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
ALARM Abs { COUNTER = C; ACTION = ACTIVATETASK { TASK = Tick; }; };
ALARM Rel { COUNTER = C; ACTION = ACTIVATETASK { TASK = Tick; };
            AUTOSTART = TRUE { ALARMTIME = 3; CYCLETIME = 5; }; };
"""

ABS_TSK = """
TASK Main {
    while (true) { SetAbsAlarm(Abs, 6, 0); TimeInterval = 2; CancelAlarm(Abs); }
}
TASK Tick { TimeInterval = 1; TerminateTask(); }
"""

ABS_LTL = """
no_limit: [] !error(E_OS_LIMIT)
tick_served: [] (ready(Tick) -> <> running(Tick))
main_recurs: [] <> running(Main)
"""

# Main sets Abs for counter 6 and works 10 ticks, round and round; Tick,
# which Abs activates, preempts it wherever the counter then stands.  Up to
# rotation the run would come back at step 17 to step 9, yet it first
# repeats a state at step 65, back to step 2, so ``run`` closes its lasso
# only on that exact repeat.  ``ABS_LTL``'s formulas read its tasks too.

ABS_LOOP_OIL = """
COUNTER C { MAXALLOWEDVALUE = 7; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Main { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Tick { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
ALARM Abs { COUNTER = C; ACTION = ACTIVATETASK { TASK = Tick; }; };
"""

ABS_LOOP_TSK = """
TASK Main {
    while (true) { SetAbsAlarm(Abs, 6, 0); TimeInterval = 10; }
}
TASK Tick { TimeInterval = 1; TerminateTask(); }
"""


# ==== golden scenarios =====================================================
# Expected transition-label sequences were worked out by hand with a tick
# ledger before the engine first ran them; they are frozen here.

@dataclass(frozen=True)
class Golden:
    name: str
    oil: str
    tsk: str
    labels: tuple[str, ...]  # canonical labels after boot
    final_counter: int
    outcome: str             # "allidle" | "deadlock" | "error:<code>"


GOLDEN_SCENARIOS = (
    Golden(
        "preempt-terminate-resume",
        MINI_OIL,
        MINI_TSK,
        (
            "svc:Low:ActivateTask(High):E_OK",
            "sig:preempt:Low>High",
            "svc:High:TerminateTask():E_OK",
            "sig:dispatch:Low",
            "svc:Low:TerminateTask():E_OK",
            "sig:idle",
        ),
        3,
        "allidle",
    ),
    Golden(
        "expiry-and-wakeup-same-tick",
        """
COUNTER C { MAXALLOWEDVALUE = 31; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Init   { PRIORITY = 3; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Fired  { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
TASK Worker { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
ALARM A { COUNTER = C; ACTION = ACTIVATETASK { TASK = Fired; }; AUTOSTART = FALSE; };
""",
        """
TASK Init { SetRelAlarm(A, 2, 0); ActivateTask(Worker); TerminateTask(); }
TASK Fired { TerminateTask(); }
TASK Worker { TerminateTask(); }
""",
        (
            "svc:Init:SetRelAlarm(A,2,0):E_OK",
            "svc:Init:ActivateTask(Worker):E_OK",
            "alarm:A>activatetask:Fired=E_OK",
            "sig:keep",
            "svc:Init:TerminateTask():E_OK",
            "sig:dispatch:Fired",
            "svc:Fired:TerminateTask():E_OK",
            "sig:dispatch:Worker",
            "svc:Worker:TerminateTask():E_OK",
            "sig:idle",
        ),
        5,
        "allidle",
    ),
    Golden(
        "immediate-relative-alarm",
        """
COUNTER C { MAXALLOWEDVALUE = 31; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Init  { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Fired { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
ALARM A { COUNTER = C; ACTION = ACTIVATETASK { TASK = Fired; }; AUTOSTART = FALSE; };
""",
        """
TASK Init { SetRelAlarm(A, 0, 0); TerminateTask(); }
TASK Fired { TerminateTask(); }
""",
        (
            "svc:Init:SetRelAlarm(A,0,0):E_OK",
            "alarm:A>activatetask:Fired=E_OK",
            "sig:keep",
            "svc:Init:TerminateTask():E_OK",
            "sig:dispatch:Fired",
            "svc:Fired:TerminateTask():E_OK",
            "sig:idle",
        ),
        3,
        "allidle",
    ),
    Golden(
        "cancel-then-rearm",
        """
COUNTER C { MAXALLOWEDVALUE = 31; TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Init  { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Fired { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };
ALARM A { COUNTER = C; ACTION = ACTIVATETASK { TASK = Fired; }; AUTOSTART = FALSE; };
""",
        """
TASK Init { SetRelAlarm(A, 3, 0); CancelAlarm(A); SetRelAlarm(A, 2, 0); TerminateTask(); }
TASK Fired { TerminateTask(); }
""",
        (
            "svc:Init:SetRelAlarm(A,3,0):E_OK",
            "svc:Init:CancelAlarm(A):E_OK",
            "svc:Init:SetRelAlarm(A,2,0):E_OK",
            "svc:Init:TerminateTask():E_OK",
            "alarm:A>activatetask:Fired=E_OK",
            "sig:dispatch:Fired",
            "svc:Fired:TerminateTask():E_OK",
            "sig:idle",
        ),
        5,
        "allidle",
    ),
)


def run_deterministic(config, bodies, *, bound: int = 500, strict: bool = True,
                      idle_mode: str = "jump"):
    """Step with default choices until rest; returns (states, outcome)."""
    from osekcheck import kernel_core

    state = kernel_core.boot(config, bodies, idle_mode)
    states = [state]
    for _ in range(bound):
        if state.status != NORMAL:
            return states, state.status
        result = explorer.step(state, None, strict=strict)
        if result.status in (ALLIDLE, DEADLOCK):
            return states, result.status
        state = result
        states.append(state)
    return states, None


def unrolled_run(config, bodies, *, bound: int = 10_000,
                 idle_mode: str = "jump") -> tuple[int, str]:
    """The exit code and ``result:`` line of ``osekcheck run``, worked out
    the way ``run`` did before it printed its lasso: step strictly, and once
    a state repeats exactly, unroll the cycle to ``bound`` steps."""
    from osekcheck import kernel_core

    state = kernel_core.boot(config, bodies, idle_mode)
    states = [state]
    first_index = {state: 0}
    outcome = None
    for _ in range(bound):
        if state.status != NORMAL:
            outcome = state.status
            break
        result = explorer.step(state, None, strict=True)
        if result.status in (ALLIDLE, DEADLOCK):
            outcome = result.status
            break
        state = result
        states.append(state)
        first = first_index.setdefault(state, len(states) - 1)
        if first < len(states) - 1:
            period = len(states) - 1 - first
            while len(states) <= bound:
                states.append(states[-period])
            state = states[-1]
            break
    steps = len(states) - 1
    if outcome is None:
        return 3, (f"result: step bound {bound} exhausted after {steps} "
                   f"steps (counter={state.counter_value})")
    return (0 if outcome == ALLIDLE else 2,
            f"result: {outcome} after {steps} steps "
            f"(counter={state.counter_value})")


def plain_graph(config, bodies, *, bound: int = 10_000, strict: bool = False,
                idle_mode: str = "jump") -> explorer.StateGraph:
    """The concrete graph worked out the way ``build_graph`` did before it
    expanded each translation class once: every node is a state, expanded
    through ``successors`` on its own."""
    from osekcheck import kernel_core

    boot = kernel_core.boot(config, bodies, idle_mode)
    return explorer._explore(
        boot, boot, lambda state: explorer.successors(state, strict=strict),
        bound=bound, strict=strict, rotate=False)


# ==== random application generator =========================================


def random_app(rng: random.Random) -> tuple[str, str]:
    """A small random configuration plus bodies, valid by construction.

    Sized so that the reachable graph closes in well under a thousand
    states: short programs, small counters, at most two alarms.
    """
    mav = rng.choice((3, 5, 7, 10, 15))
    ntasks = rng.randint(1, 3)
    names = [f"T{i}" for i in range(ntasks)]
    extended = rng.random() < 0.4
    ext_task = names[-1] if extended else None
    oil = [f"COUNTER C {{ MAXALLOWEDVALUE = {mav}; TICKSPERBASE = 1; "
           "MINCYCLE = 1; SYSTEM = TRUE; };"]
    if extended:
        oil.append("EVENT E { MASK = AUTO; };")
    use_resource = rng.random() < 0.15
    if use_resource:
        oil.append("RESOURCE R { RESOURCEPROPERTY = STANDARD; };")
    for index, name in enumerate(names):
        priority = rng.randint(0, 3)
        schedule = "NON" if rng.random() < 0.1 else "FULL"
        activation = rng.choice((1, 1, 2)) if name != ext_task else 1
        autostart = "TRUE" if index == 0 or rng.random() < 0.2 else "FALSE"
        attrs = [f"PRIORITY = {priority};", f"SCHEDULE = {schedule};",
                 f"ACTIVATION = {activation};", f"AUTOSTART = {autostart};"]
        if name == ext_task:
            attrs.append("EVENT = E;")
        if use_resource and rng.random() < 0.5:
            attrs.append("RESOURCE = R;")
        oil.append(f"TASK {name} {{ {' '.join(attrs)} }};")
    nalarms = rng.randint(0, 2)
    alarm_names = [f"A{i}" for i in range(nalarms)]
    for alarm in alarm_names:
        if ext_task is not None and rng.random() < 0.3:
            action = (f"ACTION = SETEVENT {{ TASK = {ext_task}; "
                      "EVENT = E; };")
        else:
            action = (f"ACTION = ACTIVATETASK {{ TASK = "
                      f"{rng.choice(names)}; }};")
        offset = rng.randint(1, mav)
        cycle = rng.choice((0, 0, rng.randint(1, mav)))
        oil.append(f"ALARM {alarm} {{ COUNTER = C; {action} "
                   f"AUTOSTART = TRUE {{ ALARMTIME = {offset}; "
                   f"CYCLETIME = {cycle}; }}; }};")

    def statement() -> str:
        roll = rng.random()
        if roll < 0.25:
            return f"ActivateTask({rng.choice(names)});"
        if roll < 0.40:
            return f"TimeInterval = {rng.randint(1, 3)};"
        if roll < 0.50 and ext_task is not None:
            return f"SetEvent({ext_task}, E);"
        if roll < 0.60 and alarm_names:
            return (f"SetRelAlarm({rng.choice(alarm_names)}, "
                    f"{rng.randint(0, mav)}, "
                    f"{rng.choice((0, rng.randint(1, mav)))});")
        if roll < 0.65 and alarm_names:
            return f"CancelAlarm({rng.choice(alarm_names)});"
        if roll < 0.75:
            return "Schedule();"
        return f"ActivateTask({rng.choice(names)});"

    tsk = []
    for name in names:
        body: list[str] = []
        if name == ext_task:
            if rng.random() < 0.5:
                body.append("while (true) { WaitEvent(E); ClearEvent(E); }")
            else:
                body.extend(["WaitEvent(E);", "ClearEvent(E);",
                             "TerminateTask();"])
        else:
            for _ in range(rng.randint(1, 3)):
                body.append(statement())
            if use_resource and rng.random() < 0.4:
                body = (["GetResource(R);"] + body + ["ReleaseResource(R);"])
            if rng.random() < 0.2 and len(names) > 1:
                body.append(f"ChainTask({rng.choice(names)});")
            elif rng.random() < 0.85:
                body.append("TerminateTask();")
        tsk.append(f"TASK {name} {{ {' '.join(body)} }}")
    return "\n".join(oil) + "\n", "\n".join(tsk) + "\n"


# ==== the snapshot, every line formatted anew =============================
# ``model.canonical_snapshot`` as it was before the program kept its lines:
# every line of every state formatted anew, the reference that the kept
# lines are checked against.


def plain_snapshot(state: KernelState) -> str:
    """Deterministic textual form of every semantic cell, with the static
    columns and program text of each task read from the program."""
    program = state.program
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
    for index, cell in enumerate(state.tasks):
        events = "|".join(sorted(cell.set_events)) or "-"
        resources = "|".join(cell.held_resources) or "-"
        text = _code_text(program.code[index], cell.pc, cell.residue)
        lines.append(
            f"task={cell.id} st={cell.state} sp={program.priority[index]} "
            f"cp={cell.current_priority} "
            f"act={program.max_activations[index]}/"
            f"{cell.pending_activations} ev={events} "
            f"w={cell.waiting_for or '-'} res={resources} pgm={text}")
    for cell in state.alarms:
        at = "-" if cell.alarm_time is None else str(cell.alarm_time)
        lines.append(f"alarm={cell.id} at={at} ct={cell.cycle_time}")
    return "\n".join(lines)


# ==== state invariants =====================================================


def changed(state: KernelState, **fields) -> KernelState:
    """A copy of ``state`` with the named fields changed."""
    values = {name: getattr(state, name) for name in (
        "program", "tasks", "ready", "running", "signals", "counter_value",
        "working_alarms", "alarms", "last_label", "status")}
    return KernelState(**(values | fields))



def check_invariants(state: KernelState) -> list[str]:
    """Structural soundness conditions that every reachable state satisfies;
    returns a list of violation descriptions (empty = healthy)."""
    bad: list[str] = []
    program = state.program
    config = program.config
    mav = config.system_counter.max_allowed_value
    if not (0 <= state.counter_value <= mav):
        bad.append(f"counter {state.counter_value} outside [0, {mav}]")

    running_cells = [c.id for c in state.tasks if c.state == RUNNING]
    if state.running is None:
        if running_cells:
            bad.append(f"no running task but cells {running_cells} run")
    elif running_cells != [state.running]:
        bad.append(f"running={state.running} but cells {running_cells}")

    queued: list[str] = []
    for priority, queue in state.ready:
        for task_id in queue:
            queued.append(task_id)
            cell = state.task_cell(task_id)
            if cell.state != READY:
                bad.append(f"{task_id} queued but state {cell.state}")
            if cell.current_priority != priority:
                bad.append(f"{task_id} queued at {priority} with current "
                           f"priority {cell.current_priority}")
    if len(queued) != len(set(queued)):
        bad.append(f"duplicate entries in ready queues: {queued}")
    ready_cells = {c.id for c in state.tasks if c.state == READY}
    if set(queued) != ready_cells:
        bad.append(f"ready cells {ready_cells} != queued {set(queued)}")

    if [c.id for c in state.tasks] != list(config.tasks):
        bad.append("task cells out of declaration order")
    if [a.id for a in state.alarms] != list(config.alarms):
        bad.append("alarm cells out of declaration order")

    held: dict[str, str] = {}
    for index, cell in enumerate(state.tasks):
        task_def = config.tasks[cell.id]
        live = 0 if cell.state == SUSPENDED else 1
        if cell.pending_activations < 0:
            bad.append(f"{cell.id}: negative pending activations")
        if live + cell.pending_activations > task_def.max_activations:
            bad.append(f"{cell.id}: {live}+{cell.pending_activations} "
                       f"instances exceed limit {task_def.max_activations}")
        if cell.state == WAITING and cell.waiting_for is None:
            bad.append(f"{cell.id}: waiting without an event")
        if cell.waiting_for is not None and cell.state != WAITING:
            bad.append(f"{cell.id}: waiting_for set while {cell.state}")
        if cell.set_events and not task_def.is_extended:
            bad.append(f"{cell.id}: basic task with events set")
        if not set(cell.set_events) <= task_def.events:
            bad.append(f"{cell.id}: undeclared events {cell.set_events}")
        for resource in cell.held_resources:
            if resource in held:
                bad.append(f"{resource} held by {held[resource]} and "
                           f"{cell.id}")
            held[resource] = cell.id
        floor = task_def.priority
        ceilings = [program.ceiling[r] for r in cell.held_resources]
        expected = max([floor] + ceilings)
        if cell.current_priority != expected:
            bad.append(f"{cell.id}: current priority "
                       f"{cell.current_priority}, expected {expected}")
        code = program.code[index]
        if not 0 <= cell.pc <= len(code):
            bad.append(f"{cell.id}: pc {cell.pc} outside [0, {len(code)}]")
        elif cell.residue and not (
                cell.pc < len(code)
                and isinstance(code[cell.pc].statement, TimeInterval)
                and code[cell.pc].statement.ticks > cell.residue > 0):
            bad.append(f"{cell.id}: residue {cell.residue} at pc {cell.pc}")

    cells = {a.id for a in state.alarms}
    for alarm_id in state.working_alarms:
        if alarm_id not in cells:
            bad.append(f"working alarm {alarm_id} has no cell")
        elif state.alarm_cell(alarm_id).alarm_time is None:
            bad.append(f"working alarm {alarm_id} is unarmed")
    if len(state.working_alarms) != len(set(state.working_alarms)):
        bad.append("duplicate working alarms")

    for signal in state.signals:
        if signal == ("schedule",):
            continue
        kind, alarm_id = signal
        if kind != "alarmed":
            bad.append(f"unknown signal {signal}")
        elif alarm_id not in state.working_alarms:
            bad.append(f"alarmed signal for non-working {alarm_id}")
    return bad


# ==== brute-force temporal oracles =========================================


class FakeView:
    """Graph stand-in with the same duck-typed surface as the kernel view:
    ``initial``, ``truncated``, ``successors(node)``, ``prop_value``."""

    def __init__(self, edges: dict[int, tuple[int, ...]],
                 labels: dict[int, dict[str, bool]], initial: int = 0):
        self.edges = edges
        self.labels = labels
        self.initial = initial
        self.truncated = False

    def successors(self, node: int):
        return tuple((None, dst) for dst in self.edges[node])

    def prop_value(self, node: int, prop: ltl.Prop) -> bool:
        return self.labels[node][prop.name]


def random_fake_view(rng: random.Random, max_nodes: int = 20) -> FakeView:
    count = rng.randint(2, max_nodes)
    edges = {}
    labels = {}
    for node in range(count):
        degree = rng.randint(1, 3)
        edges[node] = tuple(rng.randrange(count) for _ in range(degree))
        labels[node] = {"p": rng.random() < 0.5, "q": rng.random() < 0.35}
    return FakeView(edges, labels)


def _reachable(view: FakeView, start: int, allowed=None) -> set[int]:
    seen = {start} if (allowed is None or allowed(start)) else set()
    stack = list(seen)
    while stack:
        node = stack.pop()
        for _, dst in view.successors(node):
            if dst not in seen and (allowed is None or allowed(dst)):
                seen.add(dst)
                stack.append(dst)
    return seen


def _cycle_inside(view: FakeView, nodes: set[int]) -> bool:
    """True when the subgraph induced by ``nodes`` contains a cycle."""
    color: dict[int, int] = {}

    def visit(node: int) -> bool:
        color[node] = 1
        for _, dst in view.successors(node):
            if dst not in nodes:
                continue
            if color.get(dst) == 1:
                return True
            if dst not in color and visit(dst):
                return True
        color[node] = 2
        return False

    return any(visit(n) for n in nodes if n not in color)


def holds_globally(view: FakeView, p: str) -> bool:
    reach = _reachable(view, view.initial)
    return all(view.labels[n][p] for n in reach)


def holds_future(view: FakeView, p: str) -> bool:
    """F p fails iff an all-not-p path reaches an all-not-p cycle."""
    not_p = lambda n: not view.labels[n][p]
    region = _reachable(view, view.initial, not_p)
    return not _cycle_inside(view, region)


def holds_until(view: FakeView, p: str, q: str) -> bool:
    """p U q fails iff, walking only not-q nodes, the run can reach a
    not-p node or loop forever."""
    not_q = lambda n: not view.labels[n][q]
    region = _reachable(view, view.initial, not_q)
    if any(not view.labels[n][p] for n in region):
        return False
    return not _cycle_inside(view, region)


def holds_response(view: FakeView, p: str, q: str) -> bool:
    """G (p -> F q) fails iff some reachable p-and-not-q node starts an
    all-not-q path that loops forever."""
    not_q = lambda n: not view.labels[n][q]
    for node in _reachable(view, view.initial):
        if view.labels[node][p] and not view.labels[node][q]:
            region = _reachable(view, node, not_q)
            if _cycle_inside(view, region):
                return False
    return True


ORACLE_PATTERNS = (
    ("[] p", lambda v: holds_globally(v, "p")),
    ("<> p", lambda v: holds_future(v, "p")),
    ("p U q", lambda v: holds_until(v, "p", "q")),
    ("[] (p -> <> q)", lambda v: holds_response(v, "p", "q")),
)


def automaton_accepts_lasso(aut: ltl.BuchiAutomaton, prefix: tuple,
                            cycle: tuple, prop_value) -> bool:
    """Does the automaton accept ``prefix . cycle^omega``?

    Decided by composing the word (as a one-cycle graph) with the automaton
    and looking for a reachable accepting cycle.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    plen, total = len(prefix), len(prefix) + len(cycle)

    def elem(i: int):
        return prefix[i] if i < plen else cycle[i - plen]

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < total else plen

    def successors(pnode):
        pos, astate = pnode
        ba_edges = aut.init_edges if astate == ltl._INIT else aut.edges[astate]
        for edge in ba_edges:
            if all(prop_value(elem(pos), prop) == positive
                   for prop, positive in edge.guard):
                yield (nxt(pos), edge.dst), None

    def accepting(pnode) -> bool:
        return pnode[1] in aut.accepting

    return ltl._accepting_component((0, ltl._INIT), successors,
                                    accepting) is not None


# ==== text renderers for round-trip tests ==================================


def pretty_print(config: KernelConfig) -> str:
    """Render a configuration back to canonical OIL-like text."""
    lines: list[str] = []

    def block(kind: str, ident: str, attrs: list[str]) -> None:
        lines.append(f"{kind} {ident} {{")
        lines.extend(f"    {a}" for a in attrs)
        lines.append("};")
        lines.append("")

    for c in config.counters.values():
        attrs = [f"MAXALLOWEDVALUE = {c.max_allowed_value};",
                 f"TICKSPERBASE = {c.ticks_per_base};",
                 f"MINCYCLE = {c.min_cycle};"]
        if c.is_system:
            attrs.append("SYSTEM = TRUE;")
        block("COUNTER", c.id, attrs)
    for ev in config.events:
        block("EVENT", ev, ["MASK = AUTO;"])
    for r in config.resources.values():
        block("RESOURCE", r.id, ["RESOURCEPROPERTY = STANDARD;"])
    for t in config.tasks.values():
        attrs = [f"PRIORITY = {t.priority};",
                 f"SCHEDULE = {t.schedule};",
                 f"AUTOSTART = {'TRUE' if t.autostart else 'FALSE'};",
                 f"ACTIVATION = {t.max_activations};"]
        attrs.extend(f"EVENT = {e};" for e in sorted(t.events))
        attrs.extend(f"RESOURCE = {r};" for r in sorted(t.resources))
        block("TASK", t.id, attrs)
    for a in config.alarms.values():
        attrs = [f"COUNTER = {a.counter};"]
        act = a.action
        if act.kind == "activatetask":
            attrs.append(f"ACTION = ACTIVATETASK {{ TASK = {act.task}; }};")
        elif act.kind == "setevent":
            attrs.append(f"ACTION = SETEVENT {{ TASK = {act.task}; "
                         f"EVENT = {act.event}; }};")
        else:
            attrs.append(
                "ACTION = ALARMCALLBACK "
                f"{{ ALARMCALLBACKNAME = {act.callback}; }};")
        if a.autostart:
            attrs.append(
                f"AUTOSTART = TRUE {{ ALARMTIME = {a.autostart_offset}; "
                f"CYCLETIME = {a.autostart_cycle or 0}; }};")
        else:
            attrs.append("AUTOSTART = FALSE;")
        block("ALARM", a.id, attrs)
    text = "\n".join(lines).rstrip() + "\n"
    if config.name == "system":  # the name of a configuration without CPU
        return text
    return f"CPU {config.name} {{\n{text}}};\n"


def unparse_statement(stmt: Statement, indent: int = 1) -> str:
    pad = "    " * indent
    if isinstance(stmt, CallService):
        args = ", ".join(str(a) for a in stmt.args)
        return f"{pad}{stmt.name}({args});"
    if isinstance(stmt, TimeInterval):
        return f"{pad}TimeInterval = {stmt.ticks};"
    inner = "\n".join(unparse_statement(s, indent + 1) for s in stmt.body)
    return f"{pad}while(true){{\n{inner}\n{pad}}}"


def unparse_task_file(bodies: dict[str, TaskBody]) -> str:
    """Render task bodies back to parseable text."""
    chunks = []
    for body in bodies.values():
        stmts = "\n".join(unparse_statement(s) for s in body.statements)
        chunks.append(f"TASK {body.task_id} {{\n{stmts}\n}};")
    return "\n\n".join(chunks) + "\n"
