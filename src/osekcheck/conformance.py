"""Property catalog, verification drivers and conformance adjudication.

Six properties are checked against the reachability graph: four generic
kernel-behavior properties (deadlock freedom, mutual exclusion, priority
inversion freedom, starvation freedom) and two application-timing properties
(periodic execution, multiple-activation freedom).  Verification verdicts are
then combined with test-execution verdicts: when verification and testing
disagree, the fault is attributed to the kernel implementation; when both
fail, the application itself is at fault.
"""

from __future__ import annotations

from . import explorer, ltl, timing
from .model import (E_OK, E_OS_LIMIT, NORMAL, READY, RUNNING, KernelState,
                    is_deadlocked)
from .oil_config import FULL, KernelConfig, Record
from .task_lang import TaskBody

PROPERTY_ORDER = ("DF", "ME", "PIF", "SF", "PE", "MAF")

_ORIGINS = {"DF": "standard", "ME": "standard", "PIF": "standard",
            "SF": "standard", "PE": "application", "MAF": "application"}


class PropertyResult(Record, frozen=False):
    property_id: str
    verdict: str  # "pass" | "fail" | "bounded_pass"
    witness: explorer.Trace | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "bounded_pass")


class AdjudicationError(Exception):
    """Conformance inputs are malformed or incomplete."""


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def lasso_to_trace(graph: explorer.StateGraph,
                   result: ltl.LtlResult) -> explorer.Trace:
    """Turn a model-checker lasso over graph nodes into a replayable trace."""
    return graph.trace(result.prefix_choices + result.cycle_choices,
                       len(result.prefix) - 1)


# ---------------------------------------------------------------------------
# individual property checks
# ---------------------------------------------------------------------------


def _check_monitor(graph: explorer.StateGraph, pid: str, monitor, start,
                   detail: str) -> PropertyResult:
    """Run a deterministic monitor, from ``start``, along every path.

    ``monitor(m, state)`` reads each state entered, the initial state first,
    and returns the next monitor state (never a tuple) or ``("bad",
    reason)``.  One breadth-first search over graph x monitor finds a
    shortest bad prefix, 0 steps if the initial state is bad; ``detail``
    describes a pass.
    """
    nodes, edges = graph.nodes, graph.edges
    first = monitor(start, nodes[graph.initial])
    if first.__class__ is tuple:
        return PropertyResult(pid, "fail", graph.trace(()), first[1])

    def successors(pnode):
        node, m = pnode
        for choice, target in edges[node]:
            yield (target, monitor(m, nodes[target])), choice

    found = ltl.shortest_path((graph.initial, first), successors,
                              lambda pnode: pnode[1].__class__ is tuple)
    if found is None:
        verdict = "bounded_pass" if graph.truncated else "pass"
        return PropertyResult(pid, verdict, None, detail)
    path, choices = found
    return PropertyResult(pid, "fail", graph.trace(choices), path[-1][1][1])


def _check_deadlock_freedom(graph: explorer.StateGraph) -> PropertyResult:
    """No dead end (a scheduler dead end or, on the strict graph, a service
    error) is reachable.

    Nodes are numbered breadth-first and a dead end's successors are dead
    ends, so the first dead end is a terminal node and its breadth-first
    tree path is a shortest witness.
    """
    ends = graph.terminal_nodes()
    dead = [node for node in ends if is_deadlocked(graph.nodes[node])]
    if not dead:
        return PropertyResult(
            "DF", "bounded_pass" if graph.truncated else "pass", None,
            f"{len(graph.nodes)} states, {len(ends)} all-idle final(s)")
    witness = graph.trace_to(dead[0])
    states = witness.states
    return PropertyResult(
        "DF", "fail", witness,
        f"{len(dead)} dead end(s); shortest witness has {len(states) - 1} "
        f"steps and halts at counter {states[-1].counter_value}")


def _running_conflict(m, state: KernelState):
    """Mutual exclusion: one running cell, and it is the running task."""
    running_cells = [c.id for c in state.tasks if c.state == RUNNING]
    if running_cells != ([] if state.running is None else [state.running]):
        return "bad", f"running cells: {running_cells}"
    return m


def _priority_inversion(m, state: KernelState):
    """At quiescent states (no pending signals) a full-preemptive running
    task must hold the highest current priority."""
    if state.status != NORMAL or state.signals or state.running is None:
        return m
    program = state.program
    index = program.task_index[state.running]
    if program.schedule[index] != FULL:
        return m
    running_priority = state.tasks[index].current_priority
    for cell in state.tasks:
        if cell.state == READY and cell.current_priority > running_priority:
            return "bad", (f"ready task {cell.id} (priority "
                           f"{cell.current_priority}) outranks running "
                           f"{state.running} (priority {running_priority})")
    return m


def _activation_overflow(m, state: KernelState):
    """Activation overflow on single-activation tasks must never happen."""
    program = state.program
    label = state.last_label
    for call in label.calls:
        if (call.service in ("ActivateTask", "ChainTask")
                and call.status == E_OS_LIMIT
                and program.max_activations[
                    program.task_index[call.args[0]]] == 1):
            who = (f"alarm {call.by}" if label.kind == "alarm"
                   else call.service)
            return "bad", f"{who} overflowed task {call.args[0]}"
    return m


# Properties of single states: each monitor keeps its state until a bad one.
_STATE_MONITORS = {"ME": _running_conflict, "PIF": _priority_inversion,
                   "MAF": _activation_overflow}


def _activation_window(alarm_id: str, task: str):
    """Periodic execution of one alarm's task: exactly one completion of
    ``task`` between consecutive successful expiry activations by
    ``alarm_id``.  The monitor state is ``"pre"`` before the first
    activation, then the completions counted in the current window."""

    def monitor(count, state: KernelState):
        label = state.last_label
        if label.kind == "alarm" and any(
                c.by == alarm_id and c.service == "ActivateTask"
                and c.status == E_OK for c in label.calls):
            if count == 0:
                return "bad", (f"alarm {alarm_id}: window closed with no "
                               f"completion of {task}")
            return 0
        if count != "pre" and any(
                c.by == task and c.service in ("TerminateTask", "ChainTask")
                and c.status == E_OK for c in label.calls):
            if count:
                return "bad", (f"alarm {alarm_id}: {task} completed twice "
                               "within one activation window")
            return 1
        return count

    return monitor


def _check_periodic_execution(graph: explorer.StateGraph) -> PropertyResult:
    """Each monitored alarm's window monitor, in turn; the first to fail
    gives the witness."""
    monitored = [a for a in graph.program.config.alarms.values()
                 if a.action.kind == "activatetask"]
    detail = f"{len(monitored)} alarm(s) monitored"
    result = PropertyResult("PE", "bounded_pass" if graph.truncated
                            else "pass", None, detail)
    for alarm in monitored:
        result = _check_monitor(graph, "PE", _activation_window(
            alarm.id, alarm.action.task), "pre", detail)
        if result.witness is not None:
            break
    return result


def _starvation_pairs(config: KernelConfig) -> list[tuple[str, str]]:
    return [(event, task.id) for task in config.tasks.values()
            if task.is_extended for event in sorted(task.events)]


def starvation_formula(event: str, task: str) -> ltl.Formula:
    return ltl.Globally(ltl.Implies(ltl.Prop("wait", (event, task)),
                                    ltl.Future(ltl.Prop("set",
                                                        (event, task)))))


def _check_starvation_freedom(graph: explorer.StateGraph) -> PropertyResult:
    pairs = _starvation_pairs(graph.program.config)
    view = ltl.KernelGraphView(graph)
    bounded = False
    for event, task in pairs:
        result = ltl.model_check(view, starvation_formula(event, task))
        if result.verdict == "violated":
            return PropertyResult(
                "SF", "fail", lasso_to_trace(graph, result),
                f"task {task} can wait for {event} forever")
        if result.verdict == "bounded_holds":
            bounded = True
    detail = f"{len(pairs)} wait/set pair(s) checked"
    return PropertyResult("SF", "bounded_pass" if bounded else "pass", None,
                          detail)


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


def verify_all(config: KernelConfig, bodies: dict[str, TaskBody], *,
               bound: int = 10_000, idle_mode: str = timing.JUMP,
               properties: tuple[str, ...] | None = None
               ) -> dict[str, PropertyResult]:
    """Run the selected property checks on one exploration.

    Deadlock freedom reads the strict graph (a service error is a dead end);
    the other properties observe error labels on the default
    continue-on-error graph.  The graphs are keyed up to counter rotation
    and alarm call order unless a body calls SetAbsAlarm.
    """
    selected = tuple(properties) if properties is not None else PROPERTY_ORDER
    unknown = [p for p in selected if p not in PROPERTY_ORDER]
    if unknown:
        raise AdjudicationError(f"unknown properties: {', '.join(unknown)}")
    graphs = explorer.build_graphs(config, bodies,
                                   {pid == "DF" for pid in selected},
                                   bound=bound, idle_mode=idle_mode,
                                   rotate=ltl.rotation_sound(bodies))
    results: dict[str, PropertyResult] = {}
    for pid in selected:
        if pid == "DF":
            results[pid] = _check_deadlock_freedom(graphs[True])
        elif pid == "SF":
            results[pid] = _check_starvation_freedom(graphs[False])
        elif pid == "PE":
            results[pid] = _check_periodic_execution(graphs[False])
        else:
            results[pid] = _check_monitor(
                graphs[False], pid, _STATE_MONITORS[pid], None,
                f"{len(graphs[False].nodes)} states scanned")
    return results


# ---------------------------------------------------------------------------
# adjudication
# ---------------------------------------------------------------------------


class VerdictRow(Record):
    property_id: str
    origin: str
    verification: str  # "pass" | "fail"
    testing: str       # "pass" | "fail"
    kernel_conform: bool
    app_conform: bool
    bounded: bool


def parse_test_report(text: str) -> dict[str, str]:
    """Parse ``property = pass|fail`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AdjudicationError(
                f"test report line {lineno}: expected 'property = verdict'")
        name, verdict = (part.strip() for part in line.split("=", 1))
        if verdict not in ("pass", "fail"):
            raise AdjudicationError(
                f"test report line {lineno}: verdict must be pass or fail, "
                f"got {verdict!r}")
        if name in out:
            raise AdjudicationError(
                f"test report line {lineno}: duplicate entry for {name}")
        out[name] = verdict
    return out


def adjudicate(verification: dict[str, PropertyResult],
               testing: dict[str, str]) -> tuple[VerdictRow, ...]:
    """Cross the two verdict sources into conformance attributions.

    Agreement on pass clears both kernel and application.  Verification
    pass with testing fail blames the kernel implementation.  Verification
    fail with testing pass means the kernel masks an application fault, so
    both are inconformant.  Agreement on fail blames the application alone.
    """
    rows = []
    for pid, result in verification.items():
        if pid not in testing:
            raise AdjudicationError(f"test report has no entry for {pid}")
        verified = result.passed
        tested = testing[pid] == "pass"
        if verified and tested:
            kernel, app = True, True
        elif verified and not tested:
            kernel, app = False, True
        elif not verified and tested:
            kernel, app = False, False
        else:
            kernel, app = True, False
        rows.append(VerdictRow(
            pid, _ORIGINS.get(pid, "application"),
            "pass" if verified else "fail",
            "pass" if tested else "fail", kernel, app,
            result.verdict == "bounded_pass"))
    return tuple(rows)


def emit_report(rows: tuple[VerdictRow, ...],
                results: dict[str, PropertyResult] | None = None,
                witness_paths: dict[str, str] | None = None) -> str:
    """Render the adjudication as a human table plus machine-readable lines."""
    out = ["conformance report", "==================", ""]
    header = (f"{'property':<9} {'origin':<12} {'verification':<13} "
              f"{'testing':<8} {'kernel':<7} application")
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        verification = row.verification + ("*" if row.bounded else "")
        out.append(f"{row.property_id:<9} {row.origin:<12} "
                   f"{verification:<13} {row.testing:<8} "
                   f"{'ok' if row.kernel_conform else 'FAULT':<7} "
                   f"{'ok' if row.app_conform else 'FAULT'}")
    if any(row.bounded for row in rows):
        out.append("(* verified only up to the exploration bound)")
    out.append("")
    kernel_bad = [r.property_id for r in rows if not r.kernel_conform]
    app_bad = [r.property_id for r in rows if not r.app_conform]
    out.append("kernel implementation: "
               + (f"inconformant ({', '.join(kernel_bad)})" if kernel_bad
                  else "conformant"))
    out.append("application: "
               + (f"inconformant ({', '.join(app_bad)})" if app_bad
                  else "conformant"))
    out.append("")
    if results:
        out.append("details:")
        for pid in sorted(results):
            out.append(f"  {pid}: {results[pid].detail}")
        out.append("")
    machine = []
    for row in rows:
        machine.append(f"verdict.{row.property_id}.verification = "
                       f"{row.verification}")
        machine.append(f"verdict.{row.property_id}.testing = {row.testing}")
        machine.append(f"verdict.{row.property_id}.kernel = "
                       f"{'conformant' if row.kernel_conform else 'inconformant'}")
        machine.append(f"verdict.{row.property_id}.application = "
                       f"{'conformant' if row.app_conform else 'inconformant'}")
        machine.append(f"verdict.{row.property_id}.bounded = "
                       f"{'yes' if row.bounded else 'no'}")
        if witness_paths and row.property_id in witness_paths:
            machine.append(f"witness.{row.property_id} = "
                           f"{witness_paths[row.property_id]}")
    out.extend(sorted(machine))
    return "\n".join(out) + "\n"
