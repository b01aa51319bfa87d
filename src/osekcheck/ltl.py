"""Linear temporal logic over kernel state graphs.

Formulas are checked with the automata-theoretic recipe.  The negation is
translated into a Buchi automaton: its subformulas in negation normal form
are numbered once, a GPVW tableau expands them, each until-subformula gives
an acceptance set, and counting degeneralization makes one.  The emptiness
check below, run from each automaton state, drops the states with no path to
an accepting cycle, and states with equal outgoing edges and acceptance are
merged.  Numbering and guards follow the formula's structure, never hashing,
so the automaton is the same under every ``PYTHONHASHSEED``.  The automaton
is composed with the reachability graph, and Couvreur's on-the-fly emptiness
check, one depth-first search over the product's strongly connected
components, looks for a reachable cycle through an accepting state.
Absence of such a cycle proves the formula on the explored graph.  A found
one refutes it, and its witness is a lasso of two breadth-first shortest
paths: from the initial state to the nearest accepting state of the first
accepting component found, and from that state back to itself (after
Gastin, Moro and Zeitoun).  The lasso is shortest through that state, not
over the whole product.

Atomic propositions are evaluated on a single state and its entry label, so
the product needs no extra bookkeeping.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable

from . import explorer
from .model import (E_OK, ERROR_CODES, Call, KernelState, alarmed_signal,
                    error_status, is_deadlocked)
from .oil_config import (Cursor, KernelConfig, ParseError, Record, int_value,
                         tokenize)
from .task_lang import TaskBody

# ---------------------------------------------------------------------------
# formula AST
# ---------------------------------------------------------------------------


class TrueF(Record):
    def __str__(self) -> str:
        return "true"


class FalseF(Record):
    def __str__(self) -> str:
        return "false"


class Prop(Record):
    name: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


class Not(Record):
    sub: "Formula"

    def __str__(self) -> str:
        return f"!{_wrap(self.sub)}"


class And(Record):
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left, And)} & {_wrap(self.right)}"


class Or(Record):
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left, Or)} | {_wrap(self.right)}"


class Implies(Record):
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left)} -> {_wrap(self.right, Implies)}"


class Next(Record):
    sub: "Formula"

    def __str__(self) -> str:
        return f"X {_wrap(self.sub)}"


class Future(Record):
    sub: "Formula"

    def __str__(self) -> str:
        return f"<> {_wrap(self.sub)}"


class Globally(Record):
    sub: "Formula"

    def __str__(self) -> str:
        return f"[] {_wrap(self.sub)}"


class Until(Record):
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left)} U {_wrap(self.right, Until)}"


class Release(Record):
    """Dual of until; produced internally by negation normal form."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"{_wrap(self.left)} R {_wrap(self.right)}"


Formula = (TrueF | FalseF | Prop | Not | And | Or | Implies | Next | Future
           | Globally | Until | Release)

_ATOMIC = (TrueF, FalseF, Prop)


def _wrap(f: Formula, chain: type | None = None) -> str:
    """``f`` as an operand: in parentheses unless it is atomic, unary, or
    the next link of a ``chain`` of one operator on its associative side."""
    if (isinstance(f, (*_ATOMIC, Not, Next, Future, Globally))
            or type(f) is chain):
        return str(f)
    return f"({f})"


class LtlError(Exception):
    """Formula parse or validation failure."""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_LTL_SYMBOL_TABLE = {"->": "->", "[]": "[]", "<>": "<>", "||": "|",
                     "&&": "&", "(": "(", ")": ")", ",": ",", "!": "!",
                     "&": "&", "|": "|"}

_UNARY = {"!": Not, "X": Next, "F": Future, "<>": Future, "G": Globally,
          "[]": Globally}

# Binary operators: token -> (precedence, node, right associative).
_BINARY = {"->": (1, Implies, True), "|": (2, Or, False),
           "&": (3, And, False), "U": (4, Until, True)}


def parse_ltl(text: str) -> Formula:
    """Parse a formula.  Operators, loosest first: ``->``, ``|``, ``&``,
    ``U`` (right associative), then ``!``/``X``/``F``/``G``/``[]``/``<>``."""
    try:
        tokens = tokenize(text, _LTL_SYMBOL_TABLE, eof="<eof>")
    except ParseError as exc:
        raise LtlError(f"{exc.message} in formula") from None
    cur = Cursor(tokens)
    try:
        formula = _parse_binary(cur, 1)
    except ParseError as exc:
        raise LtlError(exc.message) from None
    if cur.peek().kind != "EOF":
        raise LtlError(f"unexpected trailing {cur.peek().value!r}")
    return formula


def _parse_binary(cur: Cursor, loosest: int) -> Formula:
    """Parse operators of precedence ``loosest`` and tighter."""
    tree = _parse_unary(cur)
    while True:
        op = _BINARY.get(cur.peek().value)
        if op is None or op[0] < loosest:
            return tree
        precedence, node, right_associative = op
        cur.next()
        cur.sink()
        cur.enter()
        right = _parse_binary(
            cur, precedence if right_associative else precedence + 1)
        cur.leave()
        tree = node(tree, right)


def _parse_unary(cur: Cursor) -> Formula:
    node = _UNARY.get(cur.peek().value)
    if node is None:
        return _parse_atom(cur)
    cur.next()
    cur.enter()
    sub = _parse_unary(cur)
    cur.leave()
    return node(sub)


def _parse_atom(cur: Cursor) -> Formula:
    tok = cur.next()
    if tok.value == "(":
        cur.enter()
        inner = _parse_binary(cur, 1)
        cur.expect("PUNCT", ")")
        cur.leave()
        return inner
    if tok.value == "true":
        return TrueF()
    if tok.value == "false":
        return FalseF()
    if tok.kind != "IDENT":
        raise LtlError(f"expected a proposition, found {tok.value!r}")
    args: list = []
    if cur.peek().value == "(":
        cur.next()
        if cur.peek().value != ")":
            while True:
                arg = cur.next()
                if arg.kind == "EOF":
                    raise LtlError("unterminated argument list")
                args.append(int_value(arg.value) if arg.kind == "INT"
                            else arg.value)
                if cur.peek().value != ",":
                    break
                cur.next()
        cur.expect("PUNCT", ")")
    return Prop(tok.value, tuple(args))


# ---------------------------------------------------------------------------
# propositions
# ---------------------------------------------------------------------------

PROP_ARGS: dict[str, tuple[str, ...]] = {
    "running": ("task",),
    "ready": ("task",),
    "suspended": ("task",),
    "waiting": ("task",),
    "wait": ("event", "task"),
    "set": ("event", "task"),
    "expired": ("alarm",),
    "error": ("code",),
    "counter_eq": ("int",),
    "deadlocked": (),
}


def validate_formula(formula: Formula, config: KernelConfig) -> None:
    """Check proposition names, arities and identifiers against the
    configuration; raises LtlError."""
    for prop in iter_props(formula):
        kinds = PROP_ARGS.get(prop.name)
        if kinds is None:
            raise LtlError(f"unknown proposition {prop.name!r}")
        if len(prop.args) != len(kinds):
            raise LtlError(f"{prop.name} expects {len(kinds)} argument(s), "
                           f"got {len(prop.args)}")
        for kind, arg in zip(kinds, prop.args):
            if kind == "int":
                if not isinstance(arg, int):
                    raise LtlError(f"{prop}: expected an integer")
            elif kind == "task":
                if arg not in config.tasks:
                    raise LtlError(f"{prop}: unknown task {arg!r}")
            elif kind == "event":
                if arg not in config.events:
                    raise LtlError(f"{prop}: unknown event {arg!r}")
            elif kind == "alarm":
                if arg not in config.alarms:
                    raise LtlError(f"{prop}: unknown alarm {arg!r}")
            elif kind == "code":
                if arg not in ERROR_CODES:
                    raise LtlError(f"{prop}: unknown error code {arg!r}")


def iter_props(formula: Formula):
    if isinstance(formula, Prop):
        yield formula
    elif isinstance(formula, (Not, Next, Future, Globally)):
        yield from iter_props(formula.sub)
    elif isinstance(formula, (And, Or, Implies, Until, Release)):
        yield from iter_props(formula.left)
        yield from iter_props(formula.right)


def mentions_deadlock(formula: Formula) -> bool:
    return any(p.name == "deadlocked" for p in iter_props(formula))


def rotation_sound(bodies: dict[str, TaskBody],
                   formulas: Iterable[Formula] = ()) -> bool:
    """May the application be checked on states up to counter rotation
    (``model.rotated``)?  Not when a body sets an alarm to an absolute time
    (``explorer.rotation_sound``), nor when a formula reads the counter's
    value."""
    return explorer.rotation_sound(bodies) and not any(
        p.name == "counter_eq"
        for formula in formulas for p in iter_props(formula))


def eval_prop(prop: Prop, state: KernelState) -> bool:
    """Evaluate one proposition on a state and its entry label."""
    name, args = prop.name, prop.args
    label = state.last_label
    if name == "running":
        return state.running == args[0]
    if name in ("ready", "suspended", "waiting"):
        return state.task_cell(args[0]).state == name
    if name == "wait":
        event, task = args
        return Call(task, "WaitEvent", (event,), E_OK) in label.calls
    if name == "set":
        event, task = args
        return any(c.service == "SetEvent" and c.args == (task, event)
                   and c.status == E_OK for c in label.calls)
    if name == "expired":
        return alarmed_signal(args[0]) in state.signals
    if name == "error":
        code = args[0]
        return (any(c.status == code for c in label.calls)
                or state.status == error_status(code))
    if name == "counter_eq":
        return state.counter_value == args[0]
    if name == "deadlocked":
        return is_deadlocked(state)
    raise LtlError(f"unknown proposition {name!r}")


# ---------------------------------------------------------------------------
# negation normal form, with each subformula numbered once
# ---------------------------------------------------------------------------

_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def _intern(formula: Formula) -> tuple[list[tuple], int]:
    """Number each distinct subformula of the negation normal form of
    ``!formula``, in post-order with the left operand first, so numbers do
    not depend on hashing.  Returns the table and the root's number.

    An entry is ``(op, left, right)`` with operand numbers, or ``None``
    where absent, and ``op`` one of ``TrueF``, ``FalseF``, ``And``, ``Or``,
    ``Next``, ``Until`` and ``Release``.  A literal is ``(Prop, prop, j)``
    or ``(Not, prop, j)``, numbered with its opposite literal ``j``.
    """
    table: list[tuple] = []
    ids: dict[tuple, int] = {}

    def intern(op, left=None, right=None) -> int:
        key = (op, left, right)
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def nnf(f: Formula, negated: bool) -> int:
        if isinstance(f, (TrueF, FalseF)):
            return intern(TrueF if isinstance(f, TrueF) != negated else FalseF)
        if isinstance(f, Prop):
            if (Prop, f) not in ids:
                here = len(table)
                ids[(Prop, f)], ids[(Not, f)] = here, here + 1
                table.extend([(Prop, f, here + 1), (Not, f, here)])
            return ids[(Not if negated else Prop, f)]
        if isinstance(f, Not):
            return nnf(f.sub, not negated)
        if isinstance(f, Implies):
            return nnf(Or(Not(f.left), f.right), negated)
        if isinstance(f, Future):
            return nnf(Until(TrueF(), f.sub), negated)
        if isinstance(f, Globally):
            return nnf(Release(FalseF(), f.sub), negated)
        if isinstance(f, Next):
            return intern(Next, nnf(f.sub, negated))
        if type(f) not in _DUAL:
            raise LtlError(f"cannot normalize {f!r}")
        left = nnf(f.left, negated)
        right = nnf(f.right, negated)
        return intern(_DUAL[type(f)] if negated else type(f), left, right)

    return table, nnf(formula, True)


# ---------------------------------------------------------------------------
# tableau expansion into a generalized Buchi automaton
# ---------------------------------------------------------------------------

_INIT = -1


class _Node:
    __slots__ = ("id", "incoming", "new", "old", "next")

    def __init__(self, id: int, incoming: set[int], new: set[int],
                 old: frozenset[int], next_: frozenset[int]):
        self.id = id
        self.incoming = incoming
        self.new = new
        self.old = set(old)
        self.next = set(next_)


def _expand_tableau(table: list[tuple], root: int) -> list[_Node]:
    """GPVW tableau expansion of subformula ``root`` of ``table`` (see
    ``_intern``), with an explicit stack.

    Of two split nodes the left one is expanded first, and node ids are
    handed out in creation order.
    """
    nodes: list[_Node] = []
    finished: dict[tuple[frozenset, frozenset], _Node] = {}
    counter = [0]

    def fresh(incoming: set[int], new: set[int], old: set[int],
              next_: set[int]) -> _Node:
        counter[0] += 1
        return _Node(counter[0], set(incoming), set(new), frozenset(old),
                     frozenset(next_))

    stack = [fresh({_INIT}, {root}, set(), set())]
    while stack:
        node = stack.pop()
        while node is not None and node.new:
            f = node.new.pop()
            op, left, right = table[f]
            if op is FalseF:
                node = None
            elif op is TrueF:
                pass
            elif op is Prop or op is Not:
                if right in node.old:
                    node = None
                else:
                    node.old.add(f)
            elif op is And:
                node.old.add(f)
                for part in (left, right):
                    if part not in node.old:
                        node.new.add(part)
            elif op is Next:
                node.old.add(f)
                node.next.add(left)
            else:
                if op is Or:
                    first_new, first_next = {left}, set()
                    second_new, second_next = {right}, set()
                elif op is Until:
                    first_new, first_next = {right}, set()
                    second_new, second_next = {left}, {f}
                else:  # Release
                    first_new, first_next = {left, right}, set()
                    second_new, second_next = {right}, {f}
                left_node = fresh(node.incoming,
                                  node.new | (first_new - node.old),
                                  node.old | {f}, node.next | first_next)
                right_node = fresh(node.incoming,
                                   node.new | (second_new - node.old),
                                   node.old | {f}, node.next | second_next)
                stack.append(right_node)
                stack.append(left_node)
                node = None
        if node is None:
            continue
        key = (frozenset(node.old), frozenset(node.next))
        existing = finished.get(key)
        if existing is not None:
            existing.incoming |= node.incoming
            continue
        finished[key] = node
        nodes.append(node)
        stack.append(fresh({node.id}, set(node.next), set(), set()))
    return nodes


# ---------------------------------------------------------------------------
# Buchi automata with guards on edges
# ---------------------------------------------------------------------------

Guard = tuple  # of (Prop, bool) pairs in literal order; empty means "true"


class BuchiEdge(Record):
    guard: Guard
    dst: int


class BuchiAutomaton(Record, frozen=False):
    states: tuple[int, ...]
    init_edges: tuple[BuchiEdge, ...]
    edges: dict[int, tuple[BuchiEdge, ...]]
    accepting: frozenset


def to_buchi(formula: Formula) -> BuchiAutomaton:
    """Automaton accepting exactly the infinite words violating ``formula``."""
    table, root = _intern(formula)
    nodes = _expand_tableau(table, root)

    literals = [(f, (prop, op is Prop))
                for f, (op, prop, _) in enumerate(table)
                if op is Prop or op is Not]
    guards = {n.id: tuple(literal for f, literal in literals if f in n.old)
              for n in nodes}
    successors: dict[int, list[int]] = {n.id: [] for n in nodes}
    init_targets: list[int] = []
    for node in nodes:
        for src in node.incoming:
            if src == _INIT:
                init_targets.append(node.id)
            else:
                successors[src].append(node.id)

    # One acceptance set per until; one of all nodes when there is none.
    # An until whose right side is true is met at once and needs no set:
    # the tableau keeps no true in old, so its set would miss those nodes.
    acceptance_sets = [
        frozenset(n.id for n in nodes if right in n.old or f not in n.old)
        for f, (op, _, right) in enumerate(table)
        if op is Until and table[right][0] is not TrueF
    ] or [frozenset(n.id for n in nodes)]

    # Degeneralize: layer counter cycles through acceptance sets.
    layers = len(acceptance_sets)
    edges: dict[tuple[int, int], list[BuchiEdge]] = {}
    init_edges: list[BuchiEdge] = []
    states: set[tuple[int, int]] = set()
    for target in init_targets:
        states.add((target, 0))
        init_edges.append(BuchiEdge(guards[target], (target, 0)))
    queue = list(states)
    while queue:
        q, layer = queue.pop()
        out = []
        next_layer = ((layer + 1) % layers if q in acceptance_sets[layer]
                      else layer)
        for dst in successors[q]:
            key = (dst, next_layer)
            out.append(BuchiEdge(guards[dst], key))
            if key not in states:
                states.add(key)
                queue.append(key)
        edges[(q, layer)] = out
    accepting = frozenset(s for s in states
                          if s[1] == 0 and s[0] in acceptance_sets[0])

    return _simplify(BuchiAutomaton(tuple(states), tuple(init_edges), edges,
                                    accepting))


def _simplify(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Keep the states that can reach an accepting cycle, then merge
    equivalent ones.

    The emptiness check, run from each state, decides which states are kept:
    one search per state, so quadratic in the automaton's size at worst.
    Every state must be reachable from an initial edge, as ``to_buchi``'s
    breadth-first construction ensures.  Merging two states keeps every
    state reachable and able to reach an accepting cycle, so one pruning
    pass suffices.  States may be any sortable values; the result numbers
    them from 0 in sorted order, and its edges are keyed in that order.
    """
    def succ(state):
        return ((edge.dst, None) for edge in aut.edges[state])

    states = {s for s in aut.states
              if _accepting_component(s, succ, aut.accepting.__contains__)
              is not None}
    init_edges = [e for e in aut.init_edges if e.dst in states]
    edges = {s: [e for e in aut.edges[s] if e.dst in states] for s in states}
    accepting = aut.accepting & states

    while True:
        # merge states with identical outgoing behavior and acceptance
        signature: dict[tuple, int] = {}
        rename = {}
        for s in sorted(states):
            sig = (s in accepting,
                   frozenset((e.guard, e.dst) for e in edges[s]))
            if sig in signature:
                rename[s] = signature[sig]
            else:
                signature[sig] = s
        if rename:
            states -= set(rename)
            accepting -= set(rename)
            init_edges = [BuchiEdge(e.guard, rename.get(e.dst, e.dst))
                          for e in init_edges]
            edges = {s: [BuchiEdge(e.guard, rename.get(e.dst, e.dst))
                         for e in edges[s]] for s in states}
        # dedupe edges
        init_edges = list(dict.fromkeys(init_edges))
        edges = {s: list(dict.fromkeys(edges[s])) for s in states}
        if not rename:
            break

    renamed = {s: i for i, s in enumerate(sorted(states))}
    return BuchiAutomaton(
        states=tuple(renamed.values()),
        init_edges=tuple(BuchiEdge(e.guard, renamed[e.dst])
                         for e in init_edges),
        edges={i: tuple(BuchiEdge(e.guard, renamed[e.dst])
                        for e in edges[s]) for s, i in renamed.items()},
        accepting=frozenset(renamed[s] for s in accepting))


# ---------------------------------------------------------------------------
# graph views
# ---------------------------------------------------------------------------


class KernelGraphView:
    """Adapter exposing a reachability graph to the product construction.

    Each proposition's values are kept in one list indexed by node id, and
    each is computed at most once per node.
    """

    def __init__(self, graph):
        self.graph = graph
        self._values: dict[Prop, list[bool | None]] = {}

    @property
    def initial(self):
        return self.graph.initial

    @property
    def truncated(self) -> bool:
        return self.graph.truncated

    def successors(self, node):
        return self.graph.edges[node]

    def prop_value(self, node, prop: Prop) -> bool:
        values = self._values.get(prop)
        if values is None:
            values = self._values[prop] = [None] * len(self.graph.nodes)
        value = values[node]
        if value is None:
            value = values[node] = eval_prop(prop, self.graph.nodes[node])
        return value


# ---------------------------------------------------------------------------
# product, emptiness check and shortest witnesses
# ---------------------------------------------------------------------------


class LtlResult(Record, frozen=False):
    verdict: str  # "holds" | "violated" | "bounded_holds"
    prefix: tuple = ()
    prefix_choices: tuple = ()
    cycle: tuple = ()
    cycle_choices: tuple = ()


def model_check(view, formula: Formula) -> LtlResult:
    """Check ``formula`` over all infinite runs from the view's initial node.

    On a truncated graph a missing counterexample yields ``bounded_holds``;
    a found lasso is definitive either way.
    """
    aut = to_buchi(formula)
    if not aut.init_edges:
        return LtlResult("holds")

    succ_cache: dict[tuple, tuple] = {}
    prop_value = view.prop_value

    def product_successors(pnode):
        cached = succ_cache.get(pnode)
        if cached is not None:
            return cached
        gnode, astate = pnode
        ba_edges = aut.init_edges if astate == _INIT else aut.edges[astate]
        out = []
        for edge in ba_edges:
            for prop, positive in edge.guard:
                if prop_value(gnode, prop) != positive:
                    break
            else:
                for choice, gnext in view.successors(gnode):
                    out.append(((gnext, edge.dst), choice))
        result = tuple(out)
        succ_cache[pnode] = result
        return result

    def accepting(pnode) -> bool:
        return pnode[1] in aut.accepting

    root = (view.initial, _INIT)
    seeds = _accepting_component(root, product_successors, accepting)
    if seeds is None:
        return LtlResult("bounded_holds" if view.truncated else "holds")
    prefix, prefix_choices = shortest_path(root, product_successors,
                                           seeds.__contains__)
    seed = prefix[-1]
    cycle, cycle_choices = shortest_path(seed, product_successors,
                                         seed.__eq__)
    return LtlResult("violated",
                     tuple(p[0] for p in prefix), tuple(prefix_choices),
                     tuple(p[0] for p in cycle[:-1]), tuple(cycle_choices))


def _accepting_component(root, succ, accepting) -> set | None:
    """Couvreur's emptiness check: is an accepting cycle reachable?

    One depth-first search keeps the nodes of unfinished components on a
    stack, and a stack of component roots, each with a bit telling whether
    its component holds an accepting node.  An edge into a node of an
    unfinished component closes a cycle and merges every component above
    that node's into it.  The search stops at the first merge whose
    component holds an accepting node and returns that component's
    accepting nodes; it returns None when no reachable cycle holds one.
    """
    index = {root: 0}  # position on ``active``; -1 once its component is done
    active = [root]
    roots = [(0, accepting(root))]
    work = [(root, iter(succ(root)))]
    while work:
        node, children = work[-1]
        for child, _ in children:
            position = index.get(child)
            if position is None:
                index[child] = len(active)
                roots.append((len(active), accepting(child)))
                active.append(child)
                work.append((child, iter(succ(child))))
                break
            if position < 0:
                continue
            # a merge that finds no accepting node leaves the top root's bit
            # clear, so it is not written back
            top, found = roots[-1]
            while top > position:
                roots.pop()
                top, more = roots[-1]
                found = found or more
            if found:
                return {w for w in active[top:] if accepting(w)}
        else:
            work.pop()
            position = index[node]
            if roots[-1][0] == position:
                roots.pop()
                for w in active[position:]:
                    index[w] = -1
                del active[position:]
    return None


def shortest_path(start, succ, goal):
    """Breadth-first search for a shortest path of at least one edge from
    ``start`` to a node for which ``goal`` holds.

    ``succ(node)`` yields ``(child, choice)`` pairs; a goal is recognised as
    soon as an edge reaches it, and children are expanded in order.  Returns
    ``(nodes, choices)``, ``nodes`` running from ``start`` to the goal with
    one choice per edge, or None when no goal is reachable.
    """
    parents = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for child, choice in succ(node):
            if goal(child):
                nodes, choices = [child, node], [choice]
                while parents[node] is not None:
                    node, choice = parents[node]
                    nodes.append(node)
                    choices.append(choice)
                nodes.reverse()
                choices.reverse()
                return nodes, choices
            if child not in parents:
                parents[child] = (node, choice)
                queue.append(child)
    return None


# ---------------------------------------------------------------------------
# direct evaluation on ultimately periodic words (testing and witnesses)
# ---------------------------------------------------------------------------


def eval_on_lasso(formula: Formula, prefix: tuple, cycle: tuple,
                  prop_value) -> bool:
    """Evaluate a formula on the word ``prefix . cycle^omega``.

    ``prop_value(element, prop)`` supplies atomic values.  Runs in time
    polynomial in formula size times word length; used as an independent
    semantics for counterexample checking.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    plen, total = len(prefix), len(prefix) + len(cycle)

    def elem(i: int):
        return prefix[i] if i < plen else cycle[i - plen]

    def nxt(i: int) -> int:
        return i + 1 if i + 1 < total else plen

    def reachable(i: int):
        return list(range(i, total)) + [j for j in range(plen, i)]

    memo: dict[tuple, bool] = {}

    def ev(f: Formula, i: int) -> bool:
        key = (f, i)
        if key in memo:
            return memo[key]
        if isinstance(f, TrueF):
            value = True
        elif isinstance(f, FalseF):
            value = False
        elif isinstance(f, Prop):
            value = prop_value(elem(i), f)
        elif isinstance(f, Not):
            value = not ev(f.sub, i)
        elif isinstance(f, And):
            value = ev(f.left, i) and ev(f.right, i)
        elif isinstance(f, Or):
            value = ev(f.left, i) or ev(f.right, i)
        elif isinstance(f, Implies):
            value = (not ev(f.left, i)) or ev(f.right, i)
        elif isinstance(f, Next):
            value = ev(f.sub, nxt(i))
        elif isinstance(f, Future):
            value = any(ev(f.sub, j) for j in reachable(i))
        elif isinstance(f, Globally):
            value = all(ev(f.sub, j) for j in reachable(i))
        elif isinstance(f, Until):
            value = False
            seen = set()
            j = i
            while j not in seen:
                seen.add(j)
                if ev(f.right, j):
                    value = True
                    break
                if not ev(f.left, j):
                    break
                j = nxt(j)
        elif isinstance(f, Release):
            value = True
            seen = set()
            j = i
            while j not in seen:
                seen.add(j)
                if not ev(f.right, j):
                    value = False
                    break
                if ev(f.left, j):
                    break
                j = nxt(j)
        else:
            raise LtlError(f"cannot evaluate {f!r}")
        memo[key] = value
        return value

    return ev(formula, 0)


# ---------------------------------------------------------------------------
# formula files
# ---------------------------------------------------------------------------


_FORMULA_NAME = re.compile(r"[A-Za-z0-9_-]+")


def parse_formula_file(text: str) -> list[tuple[str, Formula]]:
    """Parse ``name: formula`` lines; ``#`` starts a comment.

    Names are distinct and made of ASCII letters, digits, ``_`` and ``-``,
    since they also name the trace files of violated formulas.
    """
    out: list[tuple[str, Formula]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise LtlError(f"line {lineno}: expected 'name: formula'")
        name, body = line.split(":", 1)
        name = name.strip()
        if not name:
            raise LtlError(f"line {lineno}: empty formula name")
        if not _FORMULA_NAME.fullmatch(name):
            raise LtlError(f"line {lineno}: formula name {name!r} may use "
                           "only ASCII letters, digits, '_' and '-'")
        if any(name == seen for seen, _ in out):
            raise LtlError(f"line {lineno}: duplicate formula name {name!r}")
        try:
            out.append((name, parse_ltl(body.strip())))
        except LtlError as exc:
            raise LtlError(f"line {lineno} ({name}): {exc}") from None
    return out
