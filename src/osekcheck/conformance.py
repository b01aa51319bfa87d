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

from dataclasses import dataclass

from . import explorer, ltl, timing
from .model import (E_OK, E_OS_LIMIT, NORMAL, READY, RUNNING, KernelState,
                    Program, TransitionLabel)
from .oil_config import FULL, KernelConfig
from .task_lang import TaskBody

PROPERTY_ORDER = ("DF", "ME", "PIF", "SF", "PE", "MAF")

_ORIGINS = {"DF": "standard", "ME": "standard", "PIF": "standard",
            "SF": "standard", "PE": "application", "MAF": "application"}


@dataclass
class PropertyResult:
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
    nodes = list(result.prefix) + list(result.cycle[1:])
    choices = list(result.prefix_choices) + list(result.cycle_choices)
    states = tuple(graph.state(h) for h in nodes)
    return explorer.Trace(states, tuple(choices),
                          lasso_start=len(result.prefix) - 1,
                          strict=graph.strict, idle_mode=graph.idle_mode)


# ---------------------------------------------------------------------------
# individual property checks
# ---------------------------------------------------------------------------


def _check_deadlock_freedom(graph: explorer.StateGraph) -> PropertyResult:
    """On the strict graph a service error is a dead end."""
    search = explorer.search_graph(graph)
    if search.deadlocks:
        shortest = search.deadlocks[0]
        return PropertyResult(
            "DF", "fail", shortest.trace,
            f"{len(search.deadlocks)} dead end(s); shortest witness has "
            f"{len(shortest.trace.states) - 1} steps and halts at counter "
            f"{shortest.state.counter_value}")
    verdict = "bounded_pass" if search.truncated else "pass"
    return PropertyResult("DF", verdict, None,
                          f"{search.visited} states, "
                          f"{len(search.finals)} all-idle final(s)")


def _running_conflict(program: Program, state: KernelState) -> str | None:
    """Mutual exclusion: one running cell, and it is the running task."""
    running_cells = [c.id for c in state.tasks if c.state == RUNNING]
    consistent = (state.running is None and not running_cells) or (
        len(running_cells) == 1 and running_cells[0] == state.running)
    if len(running_cells) > 1 or not consistent:
        return f"running cells: {running_cells}"
    return None


def _priority_inversion(program: Program,
                        state: KernelState) -> str | None:
    """At quiescent states (no pending signals) a full-preemptive running
    task must hold the highest current priority."""
    if state.status != NORMAL or state.signals or state.running is None:
        return None
    index = program.task_index[state.running]
    if program.schedule[index] != FULL:
        return None
    running_priority = state.tasks[index].current_priority
    for cell in state.tasks:
        if cell.state == READY and cell.current_priority > running_priority:
            return (f"ready task {cell.id} (priority "
                    f"{cell.current_priority}) outranks running "
                    f"{state.running} (priority {running_priority})")
    return None


def _activation_overflow(program: Program,
                         state: KernelState) -> str | None:
    """Activation overflow on single-activation tasks must never happen."""
    label = state.last_label
    for call in label.calls:
        if (call.service in ("ActivateTask", "ChainTask")
                and call.status == E_OS_LIMIT
                and program.max_activations[
                    program.task_index[call.args[0]]] == 1):
            who = (f"alarm {call.by}" if label.kind == "alarm"
                   else call.service)
            return f"{who} overflowed task {call.args[0]}"
    return None


# Properties of single states: each maps a state to a failure reason or None.
_STATE_PREDICATES = {"ME": _running_conflict, "PIF": _priority_inversion,
                     "MAF": _activation_overflow}


def _check_states(graph: explorer.StateGraph,
                  pids: list[str]) -> dict[str, PropertyResult]:
    """One pass over the graph's nodes for every selected state property;
    each failing property's witness leads to its first failing node."""
    program = graph.program
    verdict = "bounded_pass" if graph.truncated else "pass"
    results = {pid: PropertyResult(pid, verdict, None,
                                   f"{len(graph.nodes)} states scanned")
               for pid in pids}
    for node, state in graph.nodes.items():
        for pid in pids:
            if results[pid].witness is None:
                reason = _STATE_PREDICATES[pid](program, state)
                if reason is not None:
                    results[pid] = PropertyResult(
                        pid, "fail", graph.trace_to(node), reason)
    return results


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


def _edge_completes(label: TransitionLabel, task: str) -> bool:
    return any(c.by == task and c.service in ("TerminateTask", "ChainTask")
               and c.status == E_OK for c in label.calls)


def _edge_activates(label: TransitionLabel, alarm_id: str) -> bool:
    return label.kind == "alarm" and any(
        c.by == alarm_id and c.service == "ActivateTask" and c.status == E_OK
        for c in label.calls)


def _check_periodic_execution(graph: explorer.StateGraph) -> PropertyResult:
    """Monitor composition: count completions of the activated task between
    consecutive successful expiry activations of each alarm.  A bad edge
    leads the monitor to ``("bad", reason)``, and the witness is a shortest
    path to it."""
    monitored = [a for a in graph.program.config.alarms.values()
                 if a.action.kind == "activatetask"]
    for alarm in monitored:
        task = alarm.action.task

        def monitor_successors(pnode):
            node, count = pnode
            for choice, target in graph.successors_of(node):
                label = graph.state(target).last_label
                nxt = count
                if _edge_activates(label, alarm.id):
                    nxt = 0
                    if count == 0:
                        nxt = ("bad", f"alarm {alarm.id}: window closed "
                                      f"with no completion of {task}")
                elif _edge_completes(label, task) and count != "pre":
                    nxt = count + 1
                    if nxt > 1:
                        nxt = ("bad", f"alarm {alarm.id}: {task} completed "
                                      "twice within one activation window")
                yield (target, nxt), choice

        found = ltl.shortest_path((graph.initial, "pre"), monitor_successors,
                                  lambda pnode: type(pnode[1]) is tuple)
        if found is not None:
            nodes, choices = found
            _, (_, reason) = nodes[-1]
            witness = explorer.Trace(
                tuple(graph.state(node) for node, _ in nodes),
                tuple(choices), strict=graph.strict,
                idle_mode=graph.idle_mode)
            return PropertyResult("PE", "fail", witness, reason)
    verdict = "bounded_pass" if graph.truncated else "pass"
    return PropertyResult("PE", verdict, None,
                          f"{len(monitored)} alarm(s) monitored")


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
    continue-on-error graph.
    """
    selected = tuple(properties) if properties is not None else PROPERTY_ORDER
    unknown = [p for p in selected if p not in PROPERTY_ORDER]
    if unknown:
        raise AdjudicationError(f"unknown properties: {', '.join(unknown)}")
    graphs = explorer.build_graphs(config, bodies,
                                   {pid == "DF" for pid in selected},
                                   bound=bound, idle_mode=idle_mode)
    scanned = [pid for pid in selected if pid in _STATE_PREDICATES]
    state_results = _check_states(graphs[False], scanned) if scanned else {}
    results: dict[str, PropertyResult] = {}
    for pid in selected:
        if pid == "DF":
            results[pid] = _check_deadlock_freedom(graphs[True])
        elif pid == "SF":
            results[pid] = _check_starvation_freedom(graphs[False])
        elif pid == "PE":
            results[pid] = _check_periodic_execution(graphs[False])
        else:
            results[pid] = state_results[pid]
    return results


# ---------------------------------------------------------------------------
# adjudication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerdictRow:
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
