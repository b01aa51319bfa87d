"""Acceptance gate: end-to-end checks over the shipped corpus, golden
regressions, the idle-mode equivalence, model-checker soundness and the
adjudication matrix.  Each criterion prints a single pass/FAIL line.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from conftest import EMS_REPORT
from helpers import (GOLDEN_SCENARIOS, ORACLE_PATTERNS,
                     automaton_accepts_lasso, check_invariants, make_app,
                     random_app, random_fake_view, run_deterministic)
from osekcheck import conformance, explorer, ltl, timing
from osekcheck.model import canonical_label, canonical_snapshot

# populated as the criteria run; the invariant criterion audits the totals
REGISTRY = {"states_checked": 0, "invariant_violations": []}


@contextmanager
def criterion(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number} ({title}): FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"\ncriterion {number} ({title}): pass")


def sweep(states):
    for state in states:
        REGISTRY["states_checked"] += 1
        problems = check_invariants(state)
        if problems:
            REGISTRY["invariant_violations"].append(problems)


@pytest.fixture(scope="module")
def faulty_verification(ems_app):
    config, bodies = ems_app
    start = time.monotonic()
    results = conformance.verify_all(config, bodies, bound=5000)
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def repaired_verification(ems_repaired_app):
    config, bodies = ems_repaired_app
    return conformance.verify_all(config, bodies, bound=5000)


def test_faulty_corpus_verdicts(capsys, faulty_verification):
    with criterion(capsys, 1, "faulty corpus verification matrix"):
        results, elapsed = faulty_verification
        verdicts = {pid: r.verdict for pid, r in results.items()}
        assert verdicts == {"DF": "fail", "ME": "pass", "PIF": "pass",
                            "SF": "pass", "PE": "pass", "MAF": "fail"}
        assert elapsed < 60.0


def test_overflow_witness_halts_at_counter_16(capsys, faulty_verification):
    with criterion(capsys, 2, "shortest dead-end witness"):
        results, _ = faulty_verification
        witness = results["DF"].witness
        assert witness is not None
        assert len(witness.states) - 1 == 26
        final = witness.states[-1]
        assert final.counter_value == 16
        assert final.status == "error:E_OS_LIMIT"
        explorer.replay(witness)
        sweep(witness.states)


def test_repaired_corpus_all_pass(capsys, repaired_verification):
    with criterion(capsys, 3, "repaired corpus verification matrix"):
        verdicts = {pid: r.verdict
                    for pid, r in repaired_verification.items()}
        assert verdicts == {pid: "pass" for pid in
                            ("DF", "ME", "PIF", "SF", "PE", "MAF")}


def test_golden_scenarios_replay_exactly(capsys):
    with criterion(capsys, 4, "golden scenario regressions"):
        for golden in GOLDEN_SCENARIOS:
            config, bodies = make_app(golden.oil, golden.tsk)
            states, outcome = run_deterministic(config, bodies, bound=500)
            labels = tuple(canonical_label(s.last_label)
                           for s in states[1:])
            assert labels == golden.labels, golden.name
            assert outcome == golden.outcome, golden.name
            assert states[-1].counter_value == golden.final_counter, \
                golden.name
            sweep(states)


def filtered_snapshots(graph) -> set[str]:
    keep = set()
    for state in graph.nodes.values():
        label = state.last_label
        if (label.kind == "time" and label.reason == "idle"
                and not state.signals):
            continue
        keep.add(canonical_snapshot(state))
    return keep


def expiry_labels(states) -> list[str]:
    return [canonical_label(s.last_label) for s in states
            if s.last_label.kind == "alarm"]


def test_idle_modes_agree_on_1000_random_apps(capsys):
    with criterion(capsys, 5, "idle jump/unit equivalence, 1000 apps"):
        start = time.monotonic()
        for seed in range(1000):
            oil, tsk = random_app(random.Random(seed))
            config, bodies = make_app(oil, tsk)
            jump = explorer.build_graph(config, bodies, bound=20_000,
                                        idle_mode=timing.JUMP)
            unit = explorer.build_graph(config, bodies, bound=20_000,
                                        idle_mode=timing.UNIT)
            assert not jump.truncated and not unit.truncated, seed
            assert filtered_snapshots(jump) == filtered_snapshots(unit), \
                seed
            sj, oj = run_deterministic(config, bodies, bound=2000,
                                       idle_mode=timing.JUMP)
            su, ou = run_deterministic(config, bodies, bound=2000,
                                       idle_mode=timing.UNIT)
            ej, eu = expiry_labels(sj), expiry_labels(su)
            common = min(len(ej), len(eu))
            assert ej[:common] == eu[:common], seed
            if oj is not None and ou is not None:
                assert oj == ou and ej == eu, seed
            sweep(jump.nodes.values())
            sweep(unit.nodes.values())
        assert time.monotonic() - start < 120.0


def test_model_checker_agrees_with_brute_force(capsys):
    with criterion(capsys, 6, "checker vs oracle on 1600 random graphs"):
        mix = {text: Counter() for text, _ in ORACLE_PATTERNS}
        for seed in range(400):
            view = random_fake_view(random.Random(seed), max_nodes=50)
            for text, oracle in ORACLE_PATTERNS:
                formula = ltl.parse_ltl(text)
                result = ltl.model_check(view, formula)
                expected = "holds" if oracle(view) else "violated"
                assert result.verdict == expected, (seed, text)
                mix[text][result.verdict] += 1
                if result.verdict == "violated":
                    assert not ltl.eval_on_lasso(
                        formula, result.prefix[:-1], result.cycle,
                        view.prop_value), (seed, text)
                    assert automaton_accepts_lasso(
                        ltl.to_buchi(formula), result.prefix[:-1],
                        result.cycle, view.prop_value), (seed, text)
        for text, counts in mix.items():
            assert counts["holds"] >= 5, text
            assert counts["violated"] >= 5, text


def test_invariants_and_graph_fidelity(capsys, ems_app, ems_repaired_app):
    with criterion(capsys, 7, "state invariants and replay fidelity"):
        for config, bodies in (ems_app, ems_repaired_app):
            graph = explorer.build_graph(config, bodies, bound=5000)
            assert not graph.truncated
            sweep(graph.nodes.values())
            nodes = list(graph.nodes)
            for node in nodes[:: max(1, len(nodes) // 50)]:
                explorer.replay(graph.trace_to(node))
                state = graph.nodes[node]
                for choice, target in graph.edges[node]:
                    successor = explorer.step(state, choice,
                                              strict=graph.strict)
                    assert canonical_snapshot(successor) == \
                        canonical_snapshot(graph.nodes[target])
        # earlier criteria streamed their states through the same check
        assert REGISTRY["states_checked"] > 100_000
        assert REGISTRY["invariant_violations"] == []


def test_adjudication_matrix_and_composition(capsys, faulty_verification):
    with criterion(capsys, 8, "verification/testing adjudication"):
        make = lambda verdict: {"DF": conformance.PropertyResult("DF",
                                                                 verdict)}
        expectations = (
            (("pass", "pass"), (True, True)),
            (("pass", "fail"), (False, True)),
            (("fail", "pass"), (False, False)),
            (("fail", "fail"), (True, False)),
        )
        for (verified, tested), conform in expectations:
            (row,) = conformance.adjudicate(make(verified), {"DF": tested})
            assert (row.kernel_conform, row.app_conform) == conform, \
                (verified, tested)

        results, _ = faulty_verification
        testing = conformance.parse_test_report(EMS_REPORT.read_text())
        rows = conformance.adjudicate(results, testing)
        kernel_bad = {r.property_id for r in rows if not r.kernel_conform}
        app_bad = {r.property_id for r in rows if not r.app_conform}
        assert kernel_bad == {"DF", "MAF"}
        assert app_bad == {"DF", "MAF"}
