"""Temporal formula parsing, automaton construction and model checking."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EMS_LTL
from helpers import (FakeView, ORACLE_PATTERNS, automaton_accepts_lasso,
                     make_app, random_fake_view)
from osekcheck import explorer, ltl
from osekcheck.ltl import (And, Future, Globally, Implies, LtlError, Next,
                           Not, Or, Prop, Until, eval_on_lasso, model_check,
                           parse_formula_file, parse_ltl, to_buchi,
                           validate_formula)
from osekcheck.model import rotated

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cli_digest  # noqa: E402

# The first 16 hex digits of the sha256 of each automaton's repr, with its
# edges and accepting states sorted so that the digest does not depend on
# the order in which a set or dict was filled.  The formulas are those of
# the corpus, of the random_sweep benchmark and of the translation stress
# file of tools/cli_digest.py.
FROZEN_AUTOMATA = {
    "ems:no_overflow": "48fc2d0026679b68",
    "ems:no_deadlock": "4667c9e58d1b85e7",
    "ems:adap_served": "dfc2d8436d04f3a6",
    "random:no_limit": "48fc2d0026679b68",
    "random:no_deadlock": "4667c9e58d1b85e7",
    "random:first_recurs": "c9ce1714e6aaf3f1",
    "random:first_served": "05504f072ba50694",
    "stress:until2": "124fa84010c232da",
    "stress:until3": "0c2255849191acd6",
    "stress:until4": "890c416cbc14a543",
    "stress:until5": "9216a4322d13ff8c",
    "stress:until6": "693c1a6e86dd6dd7",
    "stress:chain100": "3d28aec58b927708",
    "stress:every_op": "e12118e37cc28394",
}


# ==== parsing ==============================================================


class TestParser:
    def test_sugar_and_symbols(self):
        f = parse_ltl("[] (p -> <> q)")
        assert isinstance(f, Globally)
        assert isinstance(f.sub, Implies)
        assert isinstance(f.sub.right, Future)

    def test_letter_operators(self):
        assert parse_ltl("G p") == parse_ltl("[] p")
        assert parse_ltl("F p") == parse_ltl("<> p")
        assert isinstance(parse_ltl("X p"), Next)

    def test_until_is_right_associative(self):
        f = parse_ltl("a U b U c")
        assert isinstance(f, Until)
        assert isinstance(f.right, Until)

    def test_implication_binds_loosest(self):
        f = parse_ltl("a && b -> c || d")
        assert isinstance(f, Implies)
        assert isinstance(f.left, And)
        assert isinstance(f.right, Or)

    def test_props_with_arguments(self):
        f = parse_ltl("wait(E, T)")
        assert f == Prop("wait", ("E", "T"))
        assert parse_ltl("counter_eq(16)") == Prop("counter_eq", (16,))

    def test_parse_errors(self):
        for text in ("", "[] ", "(p", "p **", "U p"):
            with pytest.raises(LtlError):
                parse_ltl(text)

    def test_comments_and_hex_numbers(self):
        # formulas share the configuration tokenizer: comments are skipped
        # and 0x numbers are hex (both were errors before)
        assert parse_ltl("<> p // note") == parse_ltl("<> /* note */ p")
        assert parse_ltl("counter_eq(0x10)") == Prop("counter_eq", (16,))
        assert parse_ltl("counter_eq(010)") == Prop("counter_eq", (10,))
        with pytest.raises(LtlError, match="unterminated comment in formula"):
            parse_ltl("p /* note")

    def test_error_messages(self):
        cases = {"p ?": "unexpected character '?' in formula",
                 "(p": "expected ')', found '<eof>'",
                 "p &&": "expected a proposition, found '<eof>'",
                 "p & ||": "expected a proposition, found '|'",
                 "p q": "unexpected trailing 'q'",
                 "running(A": "expected ')', found '<eof>'",
                 "running(": "unterminated argument list",
                 "counter_eq(³)": "unexpected character '³' in formula",
                 "counter_eq(٣)": "unexpected character '٣' in formula",
                 "!" * 101 + "p": "nesting deeper than 100 levels",
                 " & ".join("p" * 102): "nesting deeper than 100 levels"}
        for text, message in cases.items():
            with pytest.raises(LtlError) as err:
                parse_ltl(text)
            assert str(err.value) == message, text

    def test_nesting_limit_counts_binary_operators(self):
        # a chain of 100 conjunctions is 100 levels deep; so are 50
        # conjunctions each in its own parentheses, which count one level
        parse_ltl(" & ".join("p" * 101))
        parse_ltl("(" * 50 + "p" + " & p)" * 50)
        with pytest.raises(LtlError, match="nesting deeper"):
            parse_ltl("(" * 50 + "p" + " & p)" * 50 + " & p")

    def test_unparse_round_trip(self):
        rng = random.Random(0)
        formulas = [parse_ltl(text) for text in (
            "[] (p -> <> q)", "!p U (q && r)", "X X p", "(p U q) U r",
            "true U p", "[] <> p -> <> [] q")]
        for f in formulas + [random_formula(rng, 5) for _ in range(1000)]:
            assert parse_ltl(str(f)) == f

    @pytest.mark.parametrize("op", ["&", "|", "->", "U"])
    def test_unparse_round_trip_on_long_chains(self, op):
        # a chain needs no parentheses on its associative side; with them,
        # 100 operands unparsed to text nested deeper than the parser allows
        f = parse_ltl(f" {op} ".join(f"p{i}" for i in range(100)))
        assert parse_ltl(str(f)) == f


class TestValidation:
    def setup_method(self):
        self.config, _ = make_app(
            "COUNTER C { MAXALLOWEDVALUE = 7; SYSTEM = TRUE; };"
            "EVENT E { MASK = AUTO; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; EVENT = E; };"
            "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; }; };",
            "TASK A { WaitEvent(E); TerminateTask(); }")

    def test_good_formulas(self):
        for text in ("[] running(A)", "<> wait(E, A)", "set(E, A)",
                     "expired(AL)", "error(E_OS_LIMIT)", "counter_eq(3)",
                     "[] !deadlocked"):
            validate_formula(parse_ltl(text), self.config)

    def test_bad_formulas(self):
        for text in ("running(B)", "waiting()", "zorp(A)",
                     "expired(A)", "error(E_BOGUS)", "running(A, A)"):
            with pytest.raises(LtlError):
                validate_formula(parse_ltl(text), self.config)

    def test_deadlock_mention(self):
        assert ltl.mentions_deadlock(parse_ltl("[] !deadlocked"))
        assert not ltl.mentions_deadlock(parse_ltl("[] running(A)"))


class TestFormulaFile:
    def test_named_formulas(self):
        parsed = parse_formula_file("""
# two requirements
safety: [] !p
response : [] (p -> <> q)
""")
        assert [name for name, _ in parsed] == ["safety", "response"]

    def test_bad_line(self):
        with pytest.raises(LtlError, match="line 1"):
            parse_formula_file("just a formula")

    def test_broken_formula_names_line(self):
        with pytest.raises(LtlError, match="oops"):
            parse_formula_file("oops: [] (p")


# ==== automaton construction ===============================================


class TestBuchi:
    def test_violations_of_globally_need_two_states(self):
        aut = to_buchi(parse_ltl("[] p"))
        assert len(aut.states) == 2

    def test_violations_of_future_need_one_state(self):
        aut = to_buchi(parse_ltl("<> p"))
        assert len(aut.states) == 1

    def test_tautology_has_empty_violation_language(self):
        aut = to_buchi(parse_ltl("true"))
        assert not aut.init_edges

    def test_contradiction_violated_everywhere(self):
        aut = to_buchi(parse_ltl("false"))
        assert aut.init_edges

    @settings(max_examples=250, deadline=None)
    @given(st.integers(0, 10**9))
    def test_automaton_matches_direct_evaluation(self, seed):
        """Language check on random lassos: the automaton for a formula
        accepts exactly the words the direct evaluator rejects.  Each example
        checks a listed formula and a random one on four lassos each."""
        rng = random.Random(seed)
        text = rng.choice(["[] p", "<> p", "p U q", "[] (p -> <> q)",
                           "<> [] p", "[] <> q", "X p", "p -> X X q",
                           "!p U q", "[] (p -> q)"])
        for formula in (parse_ltl(text), random_formula(rng, 5)):
            aut = to_buchi(formula)
            for _ in range(4):
                length = rng.randint(1, 5)
                cycle_len = rng.randint(1, 4)
                word = [{name: rng.random() < 0.5 for name in "pqr"}
                        for _ in range(length + cycle_len)]
                prefix = tuple(range(length))
                cycle = tuple(range(length, length + cycle_len))

                def value(pos, prop):
                    return word[pos][prop.name]

                accepted = automaton_accepts_lasso(aut, prefix, cycle, value)
                satisfied = eval_on_lasso(formula, prefix, cycle, value)
                assert accepted == (not satisfied), formula

    def test_automaton_does_not_depend_on_hash_seed(self):
        script = ("import sys\n"
                  "from osekcheck import ltl\n"
                  "for text in sys.argv[1:]:\n"
                  "    print(repr(ltl.to_buchi(ltl.parse_ltl(text))))\n")
        texts = [str(f) for _, f in parse_formula_file(EMS_LTL.read_text())]
        texts += [" U ".join(f"p{i}" for i in range(k + 1))
                  for k in range(2, 6)]
        texts += ["[] (p -> (q U (r U !p)))", "<> [] p -> [] (q U (r U p))"]
        src = Path(ltl.__file__).resolve().parent.parent
        outputs = {subprocess.run(
            [sys.executable, "-c", script, *texts], check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        ).stdout for seed in ("0", "1", "2", "3")}
        assert len(outputs) == 1

    def test_every_state_reaches_an_accepting_cycle(self):
        """The pruning keeps no dead state: by brute-force reachability,
        every state reaches an accepting state that reaches itself again."""
        for seed in range(300):
            aut = to_buchi(random_formula(random.Random(seed), 5))

            def reach(state):  # the states one or more edges away
                seen, stack = set(), [state]
                while stack:
                    for edge in aut.edges[stack.pop()]:
                        if edge.dst not in seen:
                            seen.add(edge.dst)
                            stack.append(edge.dst)
                return seen

            cyclic = {a for a in aut.accepting if a in reach(a)}
            for state in aut.states:
                assert state in cyclic or reach(state) & cyclic, (seed, state)

    def test_automata_are_frozen(self):
        files = {"ems": EMS_LTL.read_text(),
                 "random": cli_digest.RANDOM_FORMULAS,
                 "stress": cli_digest.STRESS_FORMULAS}
        digests = {}
        for prefix, text in files.items():
            for name, formula in parse_formula_file(text):
                aut = to_buchi(formula)
                canonical = repr((aut.states, aut.init_edges,
                                  sorted(aut.edges.items()),
                                  sorted(aut.accepting)))
                digests[f"{prefix}:{name}"] = hashlib.sha256(
                    canonical.encode()).hexdigest()[:16]
        assert digests == FROZEN_AUTOMATA


def _recursive_tableau(table, root):
    """The recursive tableau expansion the iterative one replaced."""
    nodes = []
    counter = [0]

    def fresh(incoming, new, old, next_):
        counter[0] += 1
        return ltl._Node(counter[0], set(incoming), set(new), frozenset(old),
                         frozenset(next_))

    def expand(node):
        if not node.new:
            for existing in nodes:
                if existing.old == node.old and existing.next == node.next:
                    existing.incoming |= node.incoming
                    return
            nodes.append(node)
            expand(fresh({node.id}, set(node.next), set(), set()))
            return
        f = node.new.pop()
        op, left, right = table[f]
        if op is ltl.FalseF:
            return
        if op is ltl.TrueF:
            expand(node)
            return
        if op is Prop or op is Not:
            if right in node.old:
                return
            node.old.add(f)
            expand(node)
            return
        if op is And:
            node.old.add(f)
            for part in (left, right):
                if part not in node.old:
                    node.new.add(part)
            expand(node)
            return
        if op is Next:
            node.old.add(f)
            node.next.add(left)
            expand(node)
            return
        if op is Or:
            first, first_next, second, second_next = {left}, set(), \
                {right}, set()
        elif op is Until:
            first, first_next, second, second_next = {right}, set(), \
                {left}, {f}
        else:
            first, first_next, second, second_next = {left, right}, \
                set(), {right}, {f}
        left_node = fresh(node.incoming, node.new | (first - node.old),
                          node.old | {f}, node.next | first_next)
        right_node = fresh(node.incoming, node.new | (second - node.old),
                           node.old | {f}, node.next | second_next)
        expand(left_node)
        expand(right_node)

    # about one depth-5 random formula in a thousand recurses deeper than
    # the default limit of 1000 (seed 3853 does)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        expand(fresh({ltl._INIT}, {root}, set(), set()))
    finally:
        sys.setrecursionlimit(limit)
    return nodes


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Prop("p"), Prop("q"), Prop("r"), ltl.TrueF(),
                           ltl.FalseF()])
    unary = (Not, Next, Future, Globally)
    binary = (And, Or, Implies, Until)
    if rng.random() < 0.4:
        return rng.choice(unary)(random_formula(rng, depth - 1))
    return rng.choice(binary)(random_formula(rng, depth - 1),
                              random_formula(rng, depth - 1))


class TestTableau:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    @example(3853)
    def test_iterative_matches_recursive(self, seed):
        table, root = ltl._intern(random_formula(random.Random(seed), 5))
        expected = _recursive_tableau(table, root)
        actual = ltl._expand_tableau(table, root)
        assert [(n.id, n.incoming, n.old, n.next) for n in actual] == \
            [(n.id, n.incoming, n.old, n.next) for n in expected]

    def test_wide_disjunction_does_not_recurse(self):
        # the tableau of a balanced 256-way disjunction, 8 levels deep, once
        # overflowed the stack
        level = [Prop("counter_eq", (value,)) for value in range(256)]
        while len(level) > 1:
            level = [Or(a, b) for a, b in zip(level[::2], level[1::2])]
        assert len(to_buchi(Future(level[0])).states) == 1


# ==== model checking on synthetic graphs ===================================


def two_node_view(p0, q0, p1, q1):
    return FakeView({0: (1,), 1: (0,)},
                    {0: {"p": p0, "q": q0}, 1: {"p": p1, "q": q1}})


class TestModelCheck:
    def test_globally_on_all_p_cycle(self):
        view = two_node_view(True, False, True, False)
        assert model_check(view, parse_ltl("[] p")).verdict == "holds"

    def test_globally_violated_by_reachable_not_p(self):
        view = two_node_view(True, False, False, False)
        result = model_check(view, parse_ltl("[] p"))
        assert result.verdict == "violated"

    def test_future_violated_on_never_p(self):
        view = two_node_view(False, False, False, False)
        assert model_check(view, parse_ltl("<> p")).verdict == "violated"

    def test_until_needs_q_eventually(self):
        view = two_node_view(True, False, True, True)
        assert model_check(view, parse_ltl("p U q")).verdict == "holds"
        never_q = two_node_view(True, False, True, False)
        assert model_check(never_q, parse_ltl("p U q")).verdict == "violated"

    def test_branching_can_violate_formula_and_negation(self):
        # one branch satisfies p forever, the other kills p: neither [] p
        # nor ![] p holds over all runs
        view = FakeView({0: (1, 2), 1: (1,), 2: (2,)},
                        {0: {"p": True, "q": False},
                         1: {"p": True, "q": False},
                         2: {"p": False, "q": False}})
        assert model_check(view, parse_ltl("[] p")).verdict == "violated"
        assert model_check(view, parse_ltl("!([] p)")).verdict == "violated"

    def test_until_met_by_true_is_accepted(self):
        # ``<> !<> true`` is false on every word; the ``true U true`` in its
        # negation once got an acceptance set that ``true`` could not enter,
        # and the formula was reported to hold
        view = two_node_view(True, False, True, False)
        assert model_check(view, parse_ltl("<> !<> true")).verdict == \
            "violated"

    def test_truncated_view_downgrades_holds(self):
        view = two_node_view(True, False, True, False)
        view.truncated = True
        assert model_check(view, parse_ltl("[] p")).verdict == \
            "bounded_holds"
        # a tautology cannot be broken by any extension
        assert model_check(view, parse_ltl("true")).verdict == "holds"
        # a violation stands regardless of truncation
        bad = two_node_view(False, False, False, False)
        bad.truncated = True
        assert model_check(bad, parse_ltl("<> p")).verdict == "violated"

    def test_counterexample_is_a_real_lasso(self):
        view = FakeView({0: (1,), 1: (2, 0), 2: (2,)},
                        {0: {"p": True, "q": False},
                         1: {"p": True, "q": False},
                         2: {"p": False, "q": False}})
        result = model_check(view, parse_ltl("[] p"))
        assert result.verdict == "violated"
        assert result.prefix[0] == 0
        assert result.cycle[0] == result.prefix[-1]
        # the closing edge really exists in the graph
        for pair in zip(result.prefix, result.prefix[1:]):
            assert pair[1] in view.edges[pair[0]]
        walk = list(result.cycle) + [result.cycle[0]]
        for src, dst in zip(walk, walk[1:]):
            assert dst in view.edges[src]
        assert not eval_on_lasso(parse_ltl("[] p"), result.prefix[:-1],
                                 result.cycle, view.prop_value)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_reachability_oracles(self, seed):
        rng = random.Random(seed)
        view = random_fake_view(rng)
        for text, oracle in ORACLE_PATTERNS:
            formula = parse_ltl(text)
            result = model_check(view, formula)
            expected = "holds" if oracle(view) else "violated"
            assert result.verdict == expected, text
            if result.verdict == "violated":
                assert not eval_on_lasso(formula, result.prefix[:-1],
                                         result.cycle, view.prop_value)
                assert automaton_accepts_lasso(
                    to_buchi(formula), result.prefix[:-1], result.cycle,
                    view.prop_value)

    def test_witness_enters_the_cycle_at_its_nearest_state(self):
        # 0 -> 1 -> 2 -> 3 -> 4 -> 1, p false everywhere: the lasso of [] p
        # reaches the cycle in one step instead of going round it first
        view = FakeView({0: (1,), 1: (2,), 2: (3,), 3: (4,), 4: (1,)},
                        {n: {"p": False, "q": False} for n in range(5)})
        result = model_check(view, parse_ltl("[] p"))
        assert result.prefix == (0, 1)
        assert result.cycle == (1, 2, 3, 4)
        assert len(result.cycle_choices) == len(result.cycle)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_witness_paths_are_shortest(self, seed):
        """The prefix is as long as the distance from the initial product
        state to the nearest accepting state of the component the emptiness
        check returns, and the cycle as short as any around that state."""
        view = random_fake_view(random.Random(seed))
        for text, _ in ORACLE_PATTERNS:
            formula = parse_ltl(text)
            result = model_check(view, formula)
            if result.verdict != "violated":
                continue
            aut = to_buchi(formula)
            root = (view.initial, ltl._INIT)

            def succ(pnode):
                node, state = pnode
                edges = aut.init_edges if state == ltl._INIT \
                    else aut.edges[state]
                return tuple(((dst, edge.dst), None) for edge in edges
                             if all(view.prop_value(node, prop) == positive
                                    for prop, positive in edge.guard)
                             for _, dst in view.successors(node))

            def distances(start):
                dist, queue = {start: 0}, deque([start])
                while queue:
                    pnode = queue.popleft()
                    for child, _ in succ(pnode):
                        if child not in dist:
                            dist[child] = dist[pnode] + 1
                            queue.append(child)
                return dist

            def girth(pnode):
                dist = distances(pnode)
                return min(dist[u] + 1 for u in dist
                           if any(c == pnode for c, _ in succ(u)))

            seeds = ltl._accepting_component(
                root, succ, lambda pnode: pnode[1] in aut.accepting)
            dist = distances(root)
            steps = len(result.prefix) - 1
            assert steps == min(dist[s] for s in seeds), text
            assert any(dist[s] == steps and girth(s) == len(result.cycle)
                       for s in seeds if s[0] == result.prefix[-1]), text

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_deterministic_views_decide_every_formula(self, seed):
        """On a single-path structure exactly one of f, !f holds."""
        rng = random.Random(seed)
        count = rng.randint(2, 12)
        edges = {i: ((i + 1) % count,) for i in range(count)}
        labels = {i: {"p": rng.random() < 0.5, "q": rng.random() < 0.5}
                  for i in range(count)}
        view = FakeView(edges, labels)
        for text, _ in ORACLE_PATTERNS:
            formula = parse_ltl(text)
            one = model_check(view, formula).verdict
            other = model_check(view, Not(formula)).verdict
            assert {one, other} == {"holds", "violated"}


# ==== model checking on kernel graphs ======================================


class TestKernelView:
    def make_view(self, oil, tsk, *, strict=False, rotate=False):
        config, bodies = make_app(oil, tsk)
        graph = explorer.build_graph(config, bodies, bound=500,
                                     strict=strict, rotate=rotate)
        return ltl.KernelGraphView(graph), graph

    def test_deadlock_detectable_as_formula(self):
        view, _ = self.make_view(
            "COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
            "EVENT E { MASK = AUTO; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; EVENT = E; };",
            "TASK A { WaitEvent(E); TerminateTask(); }", strict=True)
        assert model_check(view, parse_ltl("[] !deadlocked")).verdict == \
            "violated"
        assert model_check(view, parse_ltl("<> deadlocked")).verdict == \
            "holds"

    def test_response_property_on_kernel(self):
        view, _ = self.make_view(
            "COUNTER C { MAXALLOWEDVALUE = 15; SYSTEM = TRUE; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; };"
            "TASK B { PRIORITY = 2; };"
            "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = B; };"
            " AUTOSTART = TRUE { ALARMTIME = 2; CYCLETIME = 4; }; };",
            "TASK A { while (true) { Schedule(); } }"
            "TASK B { TerminateTask(); }")
        # B outranks A, so whenever B becomes ready it soon runs
        formula = parse_ltl("[] (ready(B) -> <> running(B))")
        assert model_check(view, formula).verdict == "holds"
        starved = parse_ltl("[] (ready(A) -> <> running(A))")
        assert model_check(view, starved).verdict == "holds"

    def test_counterexample_replays_on_kernel(self):
        view, graph = self.make_view(
            "COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
            "EVENT E { MASK = AUTO; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; EVENT = E; };",
            "TASK A { WaitEvent(E); TerminateTask(); }", strict=True)
        result = model_check(view, parse_ltl("[] !deadlocked"))
        assert result.verdict == "violated"
        from osekcheck.conformance import lasso_to_trace
        trace = lasso_to_trace(graph, result)
        explorer.replay(trace)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_replay_checks_the_closing_edge(self, rotate):
        """Each round moves the counter, so up to rotation the lasso closes
        on its loop target only up to rotation; a wrong target still fails
        replay there, as it does on the concrete graph."""
        view, graph = self.make_view(
            "COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; };",
            "TASK A { while (true) { Schedule(); } }", rotate=rotate)
        result = model_check(view, parse_ltl("<> deadlocked"))
        from osekcheck.conformance import lasso_to_trace
        trace = lasso_to_trace(graph, result)
        assert (trace.rotation is not None) == rotate
        explorer.replay(trace)
        target = rotated(trace.states[trace.lasso_start])
        wrong = next(i for i, s in enumerate(trace.states)
                     if rotated(s) != target)
        with pytest.raises(explorer.ReplayMismatch) as err:
            explorer.replay(trace._replace(lasso_start=wrong))
        assert err.value.index == len(trace.states) - 1
