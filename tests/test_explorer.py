"""State-space exploration, traces and final-state search."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ABS_LOOP_OIL, ABS_LOOP_TSK, ABS_OIL, ABS_TSK,
                     ACTIONS_OIL, ACTIONS_TSK, COINCIDE_OIL, COINCIDE_TSK,
                     GOLDEN_SCENARIOS, LOOP_OIL, LOOP_TSK, changed,
                     check_invariants, coincide_oil, make_app, plain_graph,
                     random_app, run_deterministic)
from osekcheck import cli, explorer, kernel_core, model, timing
from osekcheck.model import (ALLIDLE, DEADLOCK, NORMAL, canonical_label,
                             canonical_snapshot, label_text, state_hash)

MINI_OIL = """
COUNTER C { MAXALLOWEDVALUE = 31; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Init { PRIORITY = 1; AUTOSTART = TRUE; };
TASK W1 { PRIORITY = 2; };
TASK W2 { PRIORITY = 2; };
ALARM A1 { COUNTER = C; ACTION = ACTIVATETASK { TASK = W1; }; };
ALARM A2 { COUNTER = C; ACTION = ACTIVATETASK { TASK = W2; }; };
"""

MINI_TSK = """
TASK Init { SetRelAlarm(A1, 4, 0); SetRelAlarm(A2, 3, 0); TerminateTask(); }
TASK W1 { TerminateTask(); }
TASK W2 { TerminateTask(); }
"""


def mini_app():
    return make_app(MINI_OIL, MINI_TSK)


# ==== single steps =========================================================


class TestStep:
    def test_expiry_precedes_everything(self):
        config, bodies = mini_app()
        # SetRelAlarm(A1,4,0) at counter 0 and SetRelAlarm(A2,3,0) at
        # counter 1 both land on counter 4, so the idle advance raises two
        # signals and the next step must be the expiry batch
        states, outcome = run_deterministic(config, bodies, bound=10)
        batches = [s for s in states if s.last_label.kind == "alarm"]
        assert len(batches) == 1
        assert {c.by for c in batches[0].last_label.calls} == \
            {"A1", "A2"}

    def test_simultaneous_expiries_split_into_choices(self):
        config, bodies = mini_app()
        state = kernel_core.boot(config, bodies)
        while not kernel_core.pending_expiries(state):
            state = explorer.step(state)
            assert state.status == NORMAL
        succ = explorer.successors(state)
        assert len(succ) == 2
        orders = {s[0].order for s in succ}
        assert orders == {("A1", "A2"), ("A2", "A1")}

    def test_choice_must_cover_pending(self):
        config, bodies = mini_app()
        state = kernel_core.boot(config, bodies)
        while not kernel_core.pending_expiries(state):
            state = explorer.step(state)
        with pytest.raises(ValueError):
            explorer.step(state, explorer.Choice(("A1",)))

    def test_stuck_allidle(self):
        config, bodies = make_app(
            "COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; };",
            "TASK A { TerminateTask(); }")
        states, outcome = run_deterministic(config, bodies)
        assert outcome == ALLIDLE

    def test_stuck_deadlock_when_waiting_forever(self):
        config, bodies = make_app(
            "COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
            "EVENT E { MASK = AUTO; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; EVENT = E; };",
            "TASK A { WaitEvent(E); TerminateTask(); }")
        states, outcome = run_deterministic(config, bodies)
        assert outcome == DEADLOCK

    @pytest.mark.parametrize("idle_mode, amounts", [(timing.JUMP, [8]),
                                                    (timing.UNIT, [1] * 8)])
    def test_the_boot_idle_mode_sets_each_idle_step(self, idle_mode,
                                                     amounts):
        """A state booted in the unit idle mode idles one tick per step,
        and the header of a trace of its run names the mode."""
        config, bodies = make_app(MINI_OIL, MINI_TSK.replace(
            "SetRelAlarm(A1, 4, 0); SetRelAlarm(A2, 3, 0);",
            "SetRelAlarm(A1, 10, 0);"))
        states = [kernel_core.boot(config, bodies, idle_mode)]
        while not kernel_core.pending_expiries(states[-1]):
            states.append(explorer.step(states[-1]))
        assert [s.last_label.amount for s in states
                if s.last_label.reason == "idle"] == amounts
        assert states[-1].counter_value == 10
        trace = explorer.Trace(tuple(states), (None,) * (len(states) - 1))
        explorer.replay(trace)
        assert explorer.render_trace(trace).startswith(
            f"# trace steps={len(states) - 1} strict=no idle={idle_mode}\n")

    def test_non_normal_state_stutters(self):
        config, bodies = mini_app()
        state = kernel_core.boot(config, bodies)
        frozen = changed(state, status="error:E_OS_LIMIT")
        twin = explorer.step(frozen)
        assert twin.status == "error:E_OS_LIMIT"
        assert twin.last_label.reason == "stutter"
        again = explorer.step(twin)
        assert state_hash(again) == state_hash(twin)


# ==== golden scenarios =====================================================


class TestGoldenScenarios:
    @pytest.mark.parametrize("golden", GOLDEN_SCENARIOS,
                             ids=[g.name for g in GOLDEN_SCENARIOS])
    def test_label_sequence(self, golden):
        config, bodies = make_app(golden.oil, golden.tsk)
        states, outcome = run_deterministic(config, bodies)
        labels = tuple(canonical_label(s.last_label) for s in states[1:])
        assert labels == golden.labels
        assert outcome == golden.outcome
        assert states[-1].counter_value == golden.final_counter

    @pytest.mark.parametrize("golden", GOLDEN_SCENARIOS,
                             ids=[g.name for g in GOLDEN_SCENARIOS])
    def test_states_stay_healthy(self, golden):
        config, bodies = make_app(golden.oil, golden.tsk)
        states, _ = run_deterministic(config, bodies)
        for state in states:
            assert not check_invariants(state)


# ==== traces ===============================================================


class TestTraces:
    def build_trace(self):
        config, bodies = mini_app()
        graph = explorer.build_graph(config, bodies, bound=100)
        # pick any simultaneous-expiry node and walk one branch
        for node, succ in graph.edges.items():
            if len(succ) > 1:
                prefix = graph.trace_to(node)
                choice, target = succ[0]
                states = prefix.states + (graph.nodes[target],)
                choices = prefix.choices + (choice,)
                return explorer.Trace(states, choices)
        raise AssertionError("expected a branching node")

    def test_replay_accepts_honest_trace(self):
        trace = self.build_trace()
        explorer.replay(trace)

    def test_replay_rejects_tampering(self):
        trace = self.build_trace()
        bad_states = trace.states[:-1] + (
            changed(trace.states[-1], counter_value=31),)
        with pytest.raises(explorer.ReplayMismatch):
            explorer.replay(explorer.Trace(bad_states, trace.choices))

    def test_mismatch_shows_both_snapshots(self):
        trace = self.build_trace()
        tampered = changed(trace.states[-1], counter_value=31)
        with pytest.raises(explorer.ReplayMismatch) as excinfo:
            explorer.replay(explorer.Trace(trace.states[:-1] + (tampered,),
                                           trace.choices))
        assert excinfo.value.index == len(trace.states) - 2
        assert excinfo.value.expected == canonical_snapshot(tampered)
        assert excinfo.value.actual == canonical_snapshot(trace.states[-1])
        assert "counter=31" in excinfo.value.expected

    def test_render_text_format(self):
        trace = self.build_trace()
        text = explorer.render_trace(trace, "text")
        assert "step" in text
        assert "snapshots" in text

    def test_render_machine_format(self):
        trace = self.build_trace()
        text = explorer.render_trace(trace, "machine")
        lines = [l for l in text.splitlines()
                 if l and not l.startswith("#")]
        # index choice label hash
        first = lines[1].split()
        assert first[0] == "1"
        assert len(first[-1]) == 12

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_repeated_states_render_as_each_on_its_own(self, fmt):
        config, bodies = mini_app()
        states = [kernel_core.boot(config, bodies)]
        while states[-1].last_label.kind != "time":
            states.append(explorer.step(states[-1]))
        timed, repeat = states[-1], len(states)
        longer = changed(timed, last_label=timed.last_label._replace(
            amount=timed.last_label.amount + 1))
        states += [longer] + states[1:]
        trace = explorer.Trace(tuple(states), (None,) * (len(states) - 1))
        lines = [f"# trace steps={len(states) - 1} strict=no idle=jump"]
        for index, state in enumerate(states):
            short = state_hash(state)[:12]
            if fmt == "machine":
                lines.append(f"{index} - {canonical_label(state.last_label)}"
                             f" {short}")
            else:
                lines.append(f"step {index:4d}  [-]  "
                             f"{label_text(state.last_label)}  "
                             f"(counter={state.counter_value}, hash={short})")
        lines.append("# snapshots")
        for index, state in enumerate(states):
            lines += [f"--- state {index} {state_hash(state)[:12]}",
                      canonical_snapshot(state)]
        text = explorer.render_trace(trace, fmt)
        assert text == "\n".join(lines) + "\n"
        if fmt == "text":
            amount = timed.last_label.amount
            # the header is line 0, so step N is line N + 1
            assert f"time +{amount} " in lines[repeat]
            assert f"time +{amount + 1} " in lines[repeat + 1]


# ==== reachability graph ===================================================


class TestGraph:
    def test_mini_graph_closes(self):
        config, bodies = mini_app()
        graph = explorer.build_graph(config, bodies, bound=200)
        assert not graph.truncated
        assert graph.initial in graph.nodes
        for node, succ in graph.edges.items():
            for _, target in succ:
                assert target in graph.nodes

    def test_branching_converges_again(self):
        config, bodies = mini_app()
        graph = explorer.build_graph(config, bodies, bound=200)
        branchy = [n for n, s in graph.edges.items() if len(s) > 1]
        assert branchy, "simultaneous expiry should branch"

    def test_depth_bound_truncates(self):
        config, bodies = mini_app()
        graph = explorer.build_graph(config, bodies, bound=3)
        assert graph.truncated

    def test_state_budget_raises(self, monkeypatch):
        config, bodies = mini_app()
        monkeypatch.setattr(explorer, "MAX_STATES", 5)
        with pytest.raises(explorer.ResourceLimit):
            explorer.build_graph(config, bodies, bound=200)

    def test_trace_to_is_shortest(self):
        config, bodies = mini_app()
        graph = explorer.build_graph(config, bodies, bound=200)
        for node, depth in graph.depths.items():
            if depth > 4:
                trace = graph.trace_to(node)
                assert len(trace.states) == depth + 1
                explorer.replay(trace)
                break

    def test_edges_recompute_from_states(self):
        config, bodies = mini_app()
        graph = explorer.build_graph(config, bodies, bound=200)
        sample = list(graph.nodes)[:40]
        for node in sample:
            fresh = explorer.successors(graph.nodes[node])
            assert [(c, canonical_snapshot(s)) for c, s in fresh] == \
                [(c, canonical_snapshot(graph.nodes[target]))
                 for c, target in graph.edges[node]]


# ==== expiry batches =======================================================


BATCH_APPS = {
    "actions": (ACTIONS_OIL, ACTIONS_TSK),
    "coincide": (COINCIDE_OIL, COINCIDE_TSK),
    # the random apps with the most handling orders in their graphs
    **{f"random_app:{seed}": random_app(random.Random(seed))
       for seed in (540, 857, 784)},
}


def batch_states(config, bodies) -> list:
    """Every state of the continue-on-error graph with two or more pending
    expiries (every normal state of the strict graph is one of its nodes)."""
    graph = explorer.build_graph(config, bodies)
    return [state for state in graph.nodes.values()
            if state.status == NORMAL
            and len(kernel_core.pending_expiries(state)) > 1]


class TestExpiryBatches:
    """The depth-first batch search gives what handling each order by
    itself gave: the same choices in the same order, equal states and
    equal labels."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("app", list(BATCH_APPS))
    def test_every_order_as_if_handled_alone(self, app, strict):
        config, bodies = make_app(*BATCH_APPS[app])
        states = batch_states(config, bodies)
        assert states
        for state in states:
            pending = kernel_core.pending_expiries(state)
            expected = []
            for order in itertools.permutations(pending):
                target = kernel_core.handle_expiries(state, order)
                expected.append((explorer.Choice(order),
                                 explorer._freeze(target) if strict
                                 else target))
            actual = explorer.successors(state, strict=strict)
            assert [c for c, _ in actual] == [c for c, _ in expected]
            for (choice, got), (_, want) in zip(actual, expected):
                assert got == want
                assert canonical_label(got.last_label) == \
                    canonical_label(want.last_label)
                assert explorer.step(state, choice, strict=strict) == want

    def test_commuting_actions_are_applied_once(self, monkeypatch):
        # six distinct priorities: every pair of the batch's activations
        # commutes, so the 720 orders pass through one intermediate state
        # per subset of the alarms handled, and from each of the 2**6
        # subsets every remaining alarm is handled once: 6 * 2**5 calls
        config, bodies = make_app(coincide_oil((2, 3, 4, 5, 6, 7)),
                                  COINCIDE_TSK)
        state = kernel_core.boot(config, bodies)
        while len(kernel_core.pending_expiries(state)) < 6:
            state = explorer.step(state)
            assert state.status == NORMAL
        activate = kernel_core.EFFECTS["ActivateTask"]
        calls = []

        def counted(*args):
            calls.append(args)
            return activate(*args)

        monkeypatch.setitem(kernel_core.EFFECTS, "ActivateTask", counted)
        out = explorer.successors(state)
        assert len(out) == 720
        assert len(calls) <= 6 * 2 ** 5  # handled alone: 6 * 720


# ==== nodes are state values ==============================================


def snapshot_keyed_graph(config, bodies, *, bound, strict, idle_mode):
    """Reference exploration that tells states apart by their snapshot
    text: (snapshots in discovery order, edges, parents, depths,
    truncated), nodes numbered by discovery."""
    init = kernel_core.boot(config, bodies, idle_mode)
    keys = {canonical_snapshot(init): 0}
    states = [init]
    edges, parents, depths = {}, {}, {0: 0}
    frontier, depth, truncated = [0], 0, False
    while frontier:
        if depth >= bound:
            truncated = True
            break
        next_frontier = []
        for source in frontier:
            out = []
            for choice, state in explorer.successors(states[source],
                                                     strict=strict):
                key = canonical_snapshot(state)
                if key not in keys:
                    keys[key] = len(states)
                    states.append(state)
                    parents[keys[key]] = (source, choice)
                    depths[keys[key]] = depth + 1
                    next_frontier.append(keys[key])
                out.append((choice, keys[key]))
            edges[source] = tuple(out)
        frontier = next_frontier
        depth += 1
    for node in frontier:
        edges.setdefault(node, ())
    return list(keys), edges, parents, depths, truncated


def assert_value_keys_match_snapshots(config, bodies, idle_mode,
                                      strict=False, bound=10_000):
    graph = explorer.build_graph(config, bodies, bound=bound, strict=strict,
                                 idle_mode=idle_mode)
    snapshots = [canonical_snapshot(s) for s in graph.nodes.values()]
    assert len(set(snapshots)) == len(snapshots)
    assert list(graph.nodes) == list(range(len(graph.nodes)))
    assert (snapshots, graph.edges, graph.parents, graph.depths,
            graph.truncated) == snapshot_keyed_graph(
                config, bodies, bound=bound, strict=strict,
                idle_mode=idle_mode)


class TestStateIdentity:
    """Deduplicating on state values finds the same graph as deduplicating
    on snapshot text."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
    @pytest.mark.parametrize("app", ["ems_app", "ems_repaired_app"])
    def test_corpus(self, request, app, idle_mode, strict):
        config, bodies = request.getfixturevalue(app)
        assert_value_keys_match_snapshots(config, bodies, idle_mode, strict)

    @pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
    @pytest.mark.parametrize("first", range(0, 1000, 250))
    def test_random_apps(self, first, idle_mode):
        for seed in range(first, first + 250):
            config, bodies = make_app(*random_app(random.Random(seed)))
            assert_value_keys_match_snapshots(config, bodies, idle_mode)

    def test_time_amount_is_not_part_of_the_state(self):
        config, bodies = mini_app()
        state = kernel_core.boot(config, bodies)
        while state.last_label.kind != "time":
            state = explorer.step(state)
        longer = changed(state, last_label=state.last_label._replace(
            amount=state.last_label.amount + 1))
        assert longer == state and hash(longer) == hash(state)
        assert canonical_snapshot(longer) == canonical_snapshot(state)


# ==== loop shapes, frozen ===================================================

# (node count, sha256 over every node's snapshot and edges), recorded with
# an implementation that kept each task's remaining statements as a tuple
# with loop-back markers, so these pin the program-counter one against it
LOOP_SHAPE_GRAPHS = {
    (timing.JUMP, False): (3297, "dd04076e7706bf488bb774caa2949820"
                                 "d261ee224e9999eebaa51701b73a75da"),
    (timing.JUMP, True): (22, "f11ae036267357e1fce476b162e260e2"
                              "b0b654c83c2c7a4780fc80deb7b5e6a3"),
    (timing.UNIT, False): (3425, "2832c035226d595955cadc3cb4057984"
                                 "ef26917bdd47e842e5b9c85ff93dc567"),
    (timing.UNIT, True): (22, "f11ae036267357e1fce476b162e260e2"
                              "b0b654c83c2c7a4780fc80deb7b5e6a3"),
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
def test_loop_shapes_are_frozen(idle_mode, strict):
    config, bodies = make_app(LOOP_OIL, LOOP_TSK)
    graph = explorer.build_graph(config, bodies, strict=strict,
                                 idle_mode=idle_mode)
    digest = hashlib.sha256()
    for node, state in graph.nodes.items():
        edges = ",".join(f"{explorer.choice_text(choice)}>{target}"
                         for choice, target in graph.edges[node])
        digest.update(f"{node}\n{canonical_snapshot(state)}\n{edges}\n"
                      .encode())
    assert not graph.truncated
    assert (len(graph.nodes), digest.hexdigest()) == \
        LOOP_SHAPE_GRAPHS[idle_mode, strict]


# ==== strict graph read off the continue-on-error graph ====================


def assert_same_graph(derived, direct):
    assert derived.initial == direct.initial
    # the same states in the same discovery order
    assert list(derived.nodes.values()) == list(direct.nodes.values())
    assert derived.edges == direct.edges
    assert derived.parents == direct.parents
    assert derived.depths == direct.depths
    assert derived.truncated == direct.truncated
    assert (derived.strict, derived.program.idle_mode) == \
        (direct.strict, direct.program.idle_mode)


def assert_derivation_exact(config, bodies, **options):
    graphs = explorer.build_graphs(config, bodies, {False, True}, **options)
    assert_same_graph(graphs[False],
                      explorer.build_graph(config, bodies, **options))
    assert_same_graph(graphs[True], explorer.build_graph(
        config, bodies, strict=True, **options))


class TestDerivedStrictGraph:
    @pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
    @pytest.mark.parametrize("app", ["ems_app", "ems_repaired_app"])
    def test_corpus(self, request, app, idle_mode):
        config, bodies = request.getfixturevalue(app)
        assert_derivation_exact(config, bodies, idle_mode=idle_mode)

    @pytest.mark.parametrize("first", range(0, 1000, 100))
    def test_random_apps(self, first):
        for seed in range(first, first + 100):
            config, bodies = make_app(*random_app(random.Random(seed)))
            assert_derivation_exact(config, bodies)
            assert_derivation_exact(config, bodies, bound=3)

    def test_one_semantics_is_explored_directly(self, ems_app):
        config, bodies = ems_app
        graphs = explorer.build_graphs(config, bodies, {True})
        assert list(graphs) == [True]
        assert len(graphs[True].nodes) == 28


# ==== one expansion per translation class ==================================


def assert_plain(config, bodies, **options):
    """``build_graph`` finds the graph that expanding every node on its own
    finds: the same states, down to each label's time amount, edges,
    parents, depths and truncation."""
    graph = explorer.build_graph(config, bodies, **options)
    plain = plain_graph(config, bodies, **options)
    assert (graph.nodes, graph.edges, graph.parents, graph.depths,
            graph.truncated) == (plain.nodes, plain.edges, plain.parents,
                                 plain.depths, plain.truncated)
    assert [s.last_label.amount for s in graph.nodes.values()] == \
        [s.last_label.amount for s in plain.nodes.values()]


PLAIN_APPS = {"loops": (LOOP_OIL, LOOP_TSK),
              "actions": (ACTIONS_OIL, ACTIONS_TSK),
              "coincide": (COINCIDE_OIL, COINCIDE_TSK),
              "abs": (ABS_OIL, ABS_TSK),
              "abs_loop": (ABS_LOOP_OIL, ABS_LOOP_TSK)}


class TestClassExpansion:
    """Concrete graphs expand each translation class once; the oracle
    expands every state (``helpers.plain_graph``)."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("app", ["ems_app", "ems_repaired_app"])
    def test_corpus(self, request, app, strict):
        assert_plain(*request.getfixturevalue(app), strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    def test_harmonic(self, monkeypatch, strict):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        import harmonic
        oil, tsk, _ = harmonic.generate(1)
        assert_plain(*make_app(oil, tsk), strict=strict)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("app", sorted(PLAIN_APPS))
    def test_canned_apps(self, app, strict):
        config, bodies = make_app(*PLAIN_APPS[app])
        for idle_mode in timing.IDLE_MODES:
            assert_plain(config, bodies, strict=strict, idle_mode=idle_mode)

    def test_random_apps(self):
        rng = random.Random(32)
        for seed in rng.sample(range(1000), 60):
            config, bodies = make_app(*random_app(random.Random(seed)))
            for idle_mode in timing.IDLE_MODES:
                for strict in (False, True):
                    assert_plain(config, bodies, strict=strict,
                                 idle_mode=idle_mode)

    def test_bound_truncates_alike(self, ems_repaired_app):
        assert_plain(*ems_repaired_app, bound=50)
        assert explorer.build_graph(*ems_repaired_app, bound=50).truncated

    def test_state_budget_raises_alike(self, monkeypatch, ems_repaired_app):
        monkeypatch.setattr(explorer, "MAX_STATES", 100)
        for build in (explorer.build_graph, plain_graph):
            with pytest.raises(explorer.ResourceLimit):
                build(*ems_repaired_app)

    def test_classes_are_expanded_once(self, monkeypatch, ems_repaired_app):
        expanded = []

        def successors(state, **options):
            expanded.append(state)
            return original(state, **options)

        original = explorer.successors
        monkeypatch.setattr(explorer, "successors", successors)
        graph = explorer.build_graph(*ems_repaired_app, strict=True)
        assert len(graph.nodes) == 4876
        assert len(expanded) == len(set(expanded)) == 163
        assert {state.counter_value for state in expanded} == {0}


# ==== final-state search ===================================================


class TestSearchFinal:
    def test_clean_app_reaches_all_idle(self):
        config, bodies = make_app(
            "COUNTER C { MAXALLOWEDVALUE = 7; SYSTEM = TRUE; };"
            "TASK A { PRIORITY = 1; AUTOSTART = TRUE; };",
            "TASK A { TerminateTask(); }")
        result = explorer.search_final(config, bodies, bound=50)
        assert len(result.finals) == 1
        assert not result.deadlocks
        assert result.finals[0].state.status == ALLIDLE

    def test_faulty_ems_has_one_dead_end(self, ems_app):
        config, bodies = ems_app
        result = explorer.search_final(config, bodies, bound=5000)
        assert not result.finals
        assert len(result.deadlocks) == 1
        witness = result.deadlocks[0]
        assert witness.state.status == "error:E_OS_LIMIT"
        assert witness.state.counter_value == 16
        explorer.replay(witness.trace)

    def test_repaired_ems_runs_forever(self, ems_repaired_app):
        config, bodies = ems_repaired_app
        result = explorer.search_final(config, bodies, bound=5000)
        assert not result.truncated
        assert not result.finals
        assert not result.deadlocks

    def test_witness_must_end_at_its_node(self, monkeypatch):
        """Each witness is stepped from boot apart from the graph's class
        expansion.  A translation that leaves a disarmed alarm's stale time
        behind builds the final's node with the wrong time, and the witness
        shows it."""
        config, bodies = mini_app()
        (final,) = explorer.search_final(config, bodies).finals
        original = explorer.translated

        def armed_only(state, k, **options):
            moved = original(state, k, **options)
            return changed(moved, alarms=tuple(
                cell if cell.id in state.working_alarms else old
                for cell, old in zip(moved.alarms, state.alarms)))

        monkeypatch.setattr(explorer, "translated", armed_only)
        with pytest.raises(explorer.ReplayMismatch) as err:
            explorer.search_final(config, bodies)
        assert err.value.index == len(final.trace.states) - 1
        assert err.value.actual == canonical_snapshot(final.state)
        assert err.value.expected != err.value.actual

    def test_witnesses_share_their_states_snapshots(self, monkeypatch,
                                                     capsys, tmp_path):
        """The harmonic app's witnesses share their prefixes; each distinct
        state is snapshotted once however many traces show it."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                        / "perfbench"))
        import harmonic
        oil, tsk, _ = harmonic.generate(1)
        (tmp_path / "h.oil").write_text(oil)
        (tmp_path / "h.tsk").write_text(tsk)
        snapshotted = []

        def counting(state):
            snapshotted.append(state)
            return canonical_snapshot(state)

        monkeypatch.setattr(model, "canonical_snapshot", counting)
        assert cli.main(["search-final", str(tmp_path / "h.oil"),
                         str(tmp_path / "h.tsk")]) == 2
        shown = capsys.readouterr().out.count("\n--- state ")
        assert max(Counter(snapshotted).values()) == 1
        assert len(snapshotted) < shown


# ==== jump vs unit idle advance ============================================


def filtered_snapshots(graph) -> set[str]:
    """Reachable states modulo the intermediate idle ticks that only the
    unit mode creates (idle label, no expiry landed)."""
    keep = set()
    for state in graph.nodes.values():
        label = state.last_label
        if (label.kind == "time" and label.reason == "idle"
                and not state.signals):
            continue
        keep.add(canonical_snapshot(state))
    return keep


def expiry_sequence(states) -> list[str]:
    return [canonical_label(s.last_label) for s in states
            if s.last_label.kind == "alarm"]


class TestIdleModes:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_modes_agree_on_filtered_states(self, seed):
        oil, tsk = random_app(random.Random(seed))
        config, bodies = make_app(oil, tsk)
        jump = explorer.build_graph(config, bodies, bound=4000,
                                    idle_mode=timing.JUMP)
        unit = explorer.build_graph(config, bodies, bound=4000,
                                    idle_mode=timing.UNIT)
        assert not jump.truncated and not unit.truncated
        assert filtered_snapshots(jump) == filtered_snapshots(unit)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_modes_agree_on_expiry_order(self, seed):
        oil, tsk = random_app(random.Random(seed))
        config, bodies = make_app(oil, tsk)
        sj, oj = run_deterministic(config, bodies, bound=2000,
                                   idle_mode=timing.JUMP)
        su, ou = run_deterministic(config, bodies, bound=2000,
                                   idle_mode=timing.UNIT)
        # unit mode spends steps on single ticks, so within the same step
        # budget it covers less simulated time; compare the common prefix
        ej, eu = expiry_sequence(sj), expiry_sequence(su)
        common = min(len(ej), len(eu))
        assert ej[:common] == eu[:common]
        if oj is not None and ou is not None:
            assert oj == ou
            assert ej == eu
