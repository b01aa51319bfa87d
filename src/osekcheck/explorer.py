"""Single steps, reachability graphs and replayable traces.

A step applies exactly one transition rule, chosen by a fixed precedence:
pending expiry signals first (all of them in one step, order being the only
source of nondeterminism), then release of one recorded activation, then the
scheduling signal, then the running task's next statement, then dispatch,
then idle time; when none applies, the state goes all-idle or deadlocks.
States whose status is no longer normal are fixpoints: they stutter, so that
every explored dead end carries an infinite run for the temporal logic
layer.  Strict error handling lives here alone: the state that a failed
service call or alarm action produced becomes such a fixpoint.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from . import kernel_core, timing
from .model import (ALLIDLE, BOOT_LABEL, DEADLOCK, E_OK, NORMAL,
                    SCHEDULE_SIGNAL, SUSPENDED, Call, KernelState, Program,
                    TransitionLabel, _call_key, _label_line,
                    canonical_snapshot, error_status, label_text, rotated,
                    stutterize, translated)
from .oil_config import Fresh, KernelConfig, Record
from .task_lang import CallService, TaskBody


MAX_STATES = 500_000


class ResourceLimit(Exception):
    """Raised when exploration exceeds the state budget."""


class ReplayMismatch(Exception):
    """Raised when replaying a trace diverges from its recorded states."""

    def __init__(self, index: int, expected: str, actual: str):
        super().__init__(f"replay diverged at step {index}")
        self.index = index
        self.expected = expected
        self.actual = actual


class Choice(Record):
    """Resolved nondeterminism of one step: the expiry handling order."""

    order: tuple[str, ...]

    def __init__(self, order: tuple[str, ...]) -> None:
        self.order = order

    def __str__(self) -> str:
        return "alarms:" + ",".join(self.order)


def choice_text(choice: Choice | None) -> str:
    return str(choice) if choice is not None else "-"


def rotation_sound(bodies: dict[str, TaskBody]) -> bool:
    """May runs of these bodies be keyed up to counter rotation
    (``model.rotated``), and their concrete states expanded once per
    translation class (``model.translated``)?  Not when a body sets an
    alarm to an absolute time with SetAbsAlarm."""
    return not any(entry.statement.__class__ is CallService
                   and entry.statement.name == "SetAbsAlarm"
                   for body in bodies.values() for entry in body.code)


# ---------------------------------------------------------------------------
# the step function
# ---------------------------------------------------------------------------


def _freeze(state: KernelState) -> KernelState:
    """Strict error handling: a failed service or alarm action freezes the run.

    The failing transition still happened (its tick, its label, the rest of
    an expiry batch); only the status changes, to the first failing call's
    error code.
    """
    for call in state.last_label.calls:
        if call.status != E_OK:
            return KernelState(state.program, state.tasks, state.ready,
                               state.running, state.signals,
                               state.counter_value, state.working_alarms,
                               state.alarms, state.last_label,
                               error_status(call.status))
    return state


def _apply_rule(state: KernelState, order: tuple[str, ...]) -> KernelState:
    """The one transition rule that applies, on continue-on-error semantics;
    ``order`` is the handling order of the pending expiries (every one)."""
    if state.status != NORMAL:
        return stutterize(state)
    if order:
        return kernel_core.handle_expiries(state, order)
    target = kernel_core.multiactivation_candidate(state)
    if target is not None:
        return kernel_core.handle_multiactivation(state, target)
    if SCHEDULE_SIGNAL in state.signals:
        return kernel_core.handle_schedule_signal(state)
    if state.running is not None:
        return kernel_core.exec_running_statement(state)
    if state.ready:  # dispatch: a scheduling point with no signal pending
        return kernel_core.handle_schedule_signal(state)
    if state.working_alarms:
        return timing.idle_advance(state)
    if all(c.state == SUSPENDED for c in state.tasks):
        return stutterize(state, ALLIDLE)
    return stutterize(state, DEADLOCK)


def step(state: KernelState, choice: Choice | None = None, *,
         strict: bool = False) -> KernelState:
    """Apply one transition rule; ``choice`` fixes the expiry order.

    When nothing is enabled the successor is the stutter twin with status
    all-idle or deadlock.  Non-normal states return their own stutter twin.
    """
    order = ()
    if state.status == NORMAL:
        order = kernel_core.pending_expiries(state)
        if order and choice is not None:
            if sorted(choice.order) != sorted(order):
                raise ValueError(
                    f"choice {choice} does not cover pending expiries "
                    f"{order}")
            order = choice.order
    result = _apply_rule(state, order)
    return _freeze(result) if strict else result


def successors(state: KernelState, *, strict: bool = False,
               key: Callable[[tuple[Call, ...]], Hashable] = tuple
               ) -> list[tuple[Choice | None, KernelState]]:
    """All one-step successors; stuck states yield their stutter twin.

    An expiry batch has one successor per distinct outcome up to ``key`` of
    its calls (``kernel_core.expiry_outcomes``): by default every handling
    order is its own successor.
    """
    if state.status != NORMAL:
        return [(None, stutterize(state))]
    pending = kernel_core.pending_expiries(state)
    if len(pending) > 1:
        out = [(Choice(order), target) for order, target
               in kernel_core.expiry_outcomes(state, pending, key)]
    else:
        out = [(None, _apply_rule(state, pending))]
    return [(c, _freeze(target)) for c, target in out] if strict else out


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


class Trace(Record):
    """A replayable run: states plus the choices taken between them.

    For a lasso, ``choices`` has one extra step, which closes the loop on
    state ``lasso_start``; with ``rotation`` set, on a state equal to it up
    to ``model.rotated`` and with the counter ``rotation`` ticks further on.
    """

    states: tuple[KernelState, ...]
    choices: tuple[Choice | None, ...]
    lasso_start: int | None = None
    strict: bool = False
    rotation: int | None = None


def replay(trace: Trace) -> None:
    """Re-execute a trace step by step; raises ReplayMismatch on divergence."""
    targets = list(range(1, len(trace.states)))
    if trace.lasso_start is not None:
        targets.append(trace.lasso_start)
    if len(trace.choices) != len(targets):
        raise ReplayMismatch(0, f"{len(targets)} choices",
                             f"{len(trace.choices)} choices")
    for index, target in enumerate(targets):
        actual = step(trace.states[index], trace.choices[index],
                      strict=trace.strict)
        expected = trace.states[target]
        if index == len(trace.states) - 1 and trace.rotation is not None:
            matches = (rotated(actual) == rotated(expected)
                       and (actual.counter_value - expected.counter_value)
                       % actual.program.modulus == trace.rotation)
        else:
            matches = actual == expected
        if not matches:
            raise ReplayMismatch(index, canonical_snapshot(expected),
                                 canonical_snapshot(actual))


def render_trace(trace: Trace, fmt: str = "text") -> str:
    """Render a trace: per-step lines plus a snapshot section.

    A state makes its snapshot once, on first use, from the task, alarm and
    label lines its program keeps (``model.canonical_snapshot``), so a
    state shown many times, in one trace or in several, costs one snapshot
    and equal states share their lines.  The step lines read each label's
    text from the program too, but for a time label, which shows its own
    amount.
    """
    shown = [state.snapshot() for state in trace.states]
    hashes = [name for _, name in shown]
    program = trace.states[0].program
    lines = [f"# trace steps={len(trace.states) - 1} "
             f"strict={'yes' if trace.strict else 'no'} "
             f"idle={program.idle_mode}"]
    texts = program.label_texts
    for index, state in enumerate(trace.states):
        choice = trace.choices[index - 1] if index > 0 else None
        label = state.last_label
        if fmt == "machine":
            lines.append(f"{index} {choice_text(choice)} "
                         f"{_label_line(program, label)} {hashes[index]}")
        else:
            if label.kind == "time":
                text = label_text(label)
            else:
                text = texts.get(label)
                if text is None:
                    text = texts[label] = label_text(label)
            mark = " <- loop target" if index == trace.lasso_start else ""
            lines.append(f"step {index:4d}  [{choice_text(choice)}]  "
                         f"{text}  "
                         f"(counter={state.counter_value}, "
                         f"hash={hashes[index]}){mark}")
    if trace.lasso_start is not None:
        closure = ("" if trace.rotation is None else
                   f" up to rotation, counter +{trace.rotation} a round")
        lines.append(f"# lasso: closes back to step {trace.lasso_start} "
                     f"via [{choice_text(trace.choices[-1])}]{closure}")
    lines.append("# snapshots")
    for index, (text, name) in enumerate(shown):
        lines.append(f"--- state {index} {name}")
        lines.append(text)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# final-state search
# ---------------------------------------------------------------------------


class TerminalRecord(Record):
    state: KernelState
    trace: Trace


class SearchResult(Record, frozen=False):
    finals: tuple[TerminalRecord, ...]
    deadlocks: tuple[TerminalRecord, ...]
    visited: int
    truncated: bool


class StateGraph(Record, frozen=False, uncompared=("steps",),
                 hidden=("steps",)):
    """Deduplicated reachability graph over nodes ``0..n-1``, numbered in
    breadth-first discovery order.

    A node is a state, or with ``rotate`` (keyed up to counter rotation
    and alarm call order) the state's ``rotated`` form; ``boot`` is the
    concrete initial state that every witness starts from; its program
    holds the idle mode.  ``steps`` keeps
    each concrete step that a witness took, so witnesses that share a
    prefix step it once.
    """

    initial: int
    nodes: dict[int, KernelState]
    edges: dict[int, tuple[tuple[Choice | None, int], ...]]
    parents: dict[int, tuple[int, Choice | None]]
    depths: dict[int, int]
    truncated: bool
    strict: bool
    rotate: bool
    boot: KernelState
    steps: dict[tuple[KernelState, Choice | None], KernelState] = Fresh(dict)

    @property
    def program(self) -> Program:
        return self.boot.program

    def trace(self, choices: Iterable[Choice | None],
              lasso_start: int | None = None) -> Trace:
        """The run that takes ``choices`` from the boot state under this
        graph's semantics: every witness trace is made here.

        For a lasso, ``choices[lasso_start:]`` is a cycle of the graph,
        stepped once: its last step closes the loop back to state
        ``lasso_start``.  On a graph keyed up to counter rotation it can end
        at a state equal to that one only up to ``model.rotated``, and the
        trace then records how far the round moved the counter.
        """
        strict, steps = self.strict, self.steps
        choices = tuple(choices)
        states = [self.boot]
        for choice in choices:
            key = (states[-1], choice)
            if key not in steps:
                steps[key] = step(*key, strict=strict)
            states.append(steps[key])
        rotation = None
        if lasso_start is not None:
            end = states.pop()
            if self.rotate and end != states[lasso_start]:
                moved = end.counter_value - states[lasso_start].counter_value
                rotation = moved % self.program.modulus
        return Trace(tuple(states), choices, lasso_start, strict, rotation)

    def trace_to(self, node: int) -> Trace:
        """Shortest breadth-first trace from the initial state."""
        choices: list[Choice | None] = []
        while node != self.initial:
            node, choice = self.parents[node]
            choices.append(choice)
        return self.trace(reversed(choices))

    def terminal_nodes(self) -> list[int]:
        """Dead-end entry nodes: non-normal states first reached from a
        normal state (their stutter twins are implementation detail)."""
        out = []
        for h, s in self.nodes.items():
            if s.status == NORMAL:
                continue
            if h == self.initial:
                out.append(h)
                continue
            parent, _ = self.parents[h]
            if self.nodes[parent].status == NORMAL:
                out.append(h)
        return out


def _explore(boot: KernelState, init, expand, state_of=None, *, bound: int,
             strict: bool, rotate: bool) -> StateGraph:
    """Layer-synchronous breadth-first exploration up to ``bound`` steps.

    Nodes are keyed: ``expand(key)`` lists (choice, target key) pairs, and
    ``state_of(key)`` is a key's state; without ``state_of`` the keys are
    the states themselves.  ``init`` is the initial node's key and
    ``boot`` the concrete state it stands for.
    """
    ids = {init: 0}
    keys = [init]
    edges: dict[int, tuple[tuple[Choice | None, int], ...]] = {}
    parents: dict[int, tuple[int, Choice | None]] = {}
    depths: dict[int, int] = {0: 0}
    frontier: list[int] = [0]
    truncated = False
    depth = 0
    while frontier:
        if depth >= bound:
            truncated = True
            break
        next_frontier: list[int] = []
        for source in frontier:
            out: list[tuple[Choice | None, int]] = []
            for choice, key in expand(keys[source]):
                target = ids.setdefault(key, len(keys))
                if target == len(keys):
                    keys.append(key)
                    parents[target] = (source, choice)
                    depths[target] = depth + 1
                    if len(keys) > MAX_STATES:
                        raise ResourceLimit(
                            f"exploration exceeded {MAX_STATES} states")
                    next_frontier.append(target)
                out.append((choice, target))
            edges[source] = tuple(out)
        frontier = next_frontier
        depth += 1
    for node in frontier:
        edges.setdefault(node, ())
    nodes = dict(enumerate(keys if state_of is None else map(state_of, keys)))
    return StateGraph(0, nodes, edges, parents, depths, truncated, strict,
                      rotate, boot)


def build_graph(config: KernelConfig, bodies: dict[str, TaskBody], *,
                bound: int = 10_000, strict: bool = False,
                idle_mode: str = timing.JUMP,
                rotate: bool = False) -> StateGraph:
    """Breadth-first exploration up to ``bound`` steps.

    Nodes are deduplicated by state value, so the graph is insensitive to
    the path that first reached a state.  Non-normal states receive their
    stutter self-loop and are not expanded further.  The run is booted in
    ``idle_mode``, which its program keeps.

    Without ``rotate`` the nodes are concrete states and an expiry batch has
    one successor per handling order.  Moving the counter and every alarm
    time by one amount maps the transition system onto itself
    (``model.translated``), and no rule reads the label, so a node is keyed
    by its class, its shift and its label.  The class is the state
    translated back by the shift, with one fixed label, and the shift is
    the state's counter; when a body calls SetAbsAlarm, which breaks the
    symmetry (``rotation_sound``), the shift is 0 and a class only joins
    states that differ in their label.  Each class is expanded once
    through ``successors``, and its targets are kept as keys: a node's
    edges are those targets moved by its shift, and its state is its class
    moved likewise and relabelled.  With ``rotate`` the nodes
    are states up to counter rotation and alarm call order
    (``model.rotated``), which is sound unless a body calls SetAbsAlarm,
    and a batch has one successor per distinct outcome up to call order
    (``successors`` keyed by ``model._call_key``); each node is expanded
    through ``successors``.
    """
    boot = kernel_core.boot(config, bodies, idle_mode)
    if rotate:
        def expand(state: KernelState):
            return [(c, rotated(target)) for c, target
                    in successors(state, strict=strict, key=_call_key)]

        return _explore(boot, rotated(boot), expand, bound=bound,
                        strict=strict, rotate=True)
    modulus = boot.program.modulus
    translate = rotation_sound(bodies)
    memo: dict = {}  # moved alarm cells, shared by this build
    class_ids: dict[KernelState, int] = {}
    classes: list[KernelState] = []
    lifts: dict[int, list] = {}  # class id: (choice, class id, move, label)

    def node_key(state: KernelState) -> tuple[int, int, TransitionLabel]:
        shift = state.counter_value if translate else 0
        cls = translated(state, -shift, label=BOOT_LABEL, memo=memo)
        index = class_ids.setdefault(cls, len(classes))
        if index == len(classes):
            classes.append(cls)
        return index, shift, state.last_label

    def expand(node: tuple[int, int, TransitionLabel]):
        index, shift, _ = node
        lift = lifts.get(index)
        if lift is None:
            lift = lifts[index] = [
                (choice, *node_key(target)) for choice, target
                in successors(classes[index], strict=strict)]
        return [(choice, (target, (shift + move) % modulus, label))
                for choice, target, move, label in lift]

    def state_of(node: tuple[int, int, TransitionLabel]) -> KernelState:
        index, shift, label = node
        return translated(classes[index], shift, label=label, memo=memo)

    return _explore(boot, node_key(boot), expand, state_of, bound=bound,
                    strict=strict, rotate=False)


def build_graphs(config: KernelConfig, bodies: dict[str, TaskBody],
                 semantics: Iterable[bool], *, bound: int = 10_000,
                 idle_mode: str = timing.JUMP,
                 rotate: bool = False) -> dict[bool, StateGraph]:
    """One graph per requested error semantics (``True`` is strict).

    The state space is explored once.  A normal strict state is reached only
    through transitions that did not fail, so it is a continue-on-error node
    at no greater depth, and its strict successors are that node's edge
    targets, frozen where the transition failed.  The strict exploration
    keys such a node by its continue-on-error node id.  A frozen state and
    its stutter twin are keyed by value: a frozen state is one per node,
    but two nodes with equal cells that failed alike share a stutter twin.
    With ``rotate`` both graphs are keyed up to counter rotation and alarm
    call order; the key keeps the code strict error handling freezes on.
    """
    wanted = set(semantics)
    if wanted != {False, True}:
        return {strict: build_graph(config, bodies, bound=bound,
                                    strict=strict, idle_mode=idle_mode,
                                    rotate=rotate)
                for strict in wanted}
    relaxed = build_graph(config, bodies, bound=bound, idle_mode=idle_mode,
                          rotate=rotate)
    nodes = relaxed.nodes

    def expand(key):
        if key.__class__ is not int:
            return [(None, stutterize(key))]
        out = []
        for choice, target in relaxed.edges[key]:
            state = nodes[target]
            frozen = _freeze(state)
            out.append((choice, target if frozen is state else frozen))
        return out

    def state_of(key) -> KernelState:
        return nodes[key] if key.__class__ is int else key

    strict = _explore(relaxed.boot, relaxed.initial, expand, state_of,
                      bound=bound, strict=True, rotate=rotate)
    return {False: relaxed, True: strict}


def search_final(config: KernelConfig, bodies: dict[str, TaskBody], *,
                 bound: int = 10_000,
                 idle_mode: str = timing.JUMP) -> SearchResult:
    """Every reachable final of the strict graph, shallowest first.

    States that go all-idle (every task suspended, no armed alarm) are
    intended finals; scheduler dead ends and frozen service errors are
    deadlocks.  Witness traces are shortest by construction, and nodes are
    numbered in breadth-first order, so shallower ones come first.  Each
    witness is stepped from boot by ``step``, apart from the graph's
    expansion, and must end at its node's state; ReplayMismatch is raised
    at its last step if it does not.
    """
    graph = build_graph(config, bodies, bound=bound, strict=True,
                        idle_mode=idle_mode)
    finals: list[TerminalRecord] = []
    deadlocks: list[TerminalRecord] = []
    for node in graph.terminal_nodes():
        trace = graph.trace_to(node)
        state = trace.states[-1]
        if state != graph.nodes[node]:
            raise ReplayMismatch(len(trace.states) - 1,
                                 canonical_snapshot(graph.nodes[node]),
                                 canonical_snapshot(state))
        (finals if state.status == ALLIDLE else deadlocks).append(
            TerminalRecord(state, trace))
    return SearchResult(tuple(finals), tuple(deadlocks), len(graph.nodes),
                        graph.truncated)
