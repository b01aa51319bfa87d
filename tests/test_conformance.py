"""Property verification, adjudication matrix and report rendering."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from helpers import ACTIONS_OIL, ACTIONS_TSK, MINI_OIL, MINI_TSK, make_app
from osekcheck import conformance, explorer
from osekcheck.conformance import (AdjudicationError, PROPERTY_ORDER,
                                   PropertyResult, adjudicate, emit_report,
                                   parse_test_report, verify_all)

# one-shot alarm, everything rests: every property holds
CLEAN_OIL = (
    "COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1; MINCYCLE = 1; "
    "SYSTEM = TRUE; };"
    "TASK Init { PRIORITY = 2; AUTOSTART = TRUE; };"
    "TASK W { PRIORITY = 1; };"
    "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = W; }; };")
CLEAN_TSK = (
    "TASK Init { SetRelAlarm(AL, 3, 0); TerminateTask(); }"
    "TASK W { TerminateTask(); }")

# an extended task waits forever while a cyclic alarm keeps the system
# alive: starvation without deadlock
STARVED_OIL = (
    "COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1; MINCYCLE = 1; "
    "SYSTEM = TRUE; };"
    "EVENT E { MASK = AUTO; };"
    "TASK W { PRIORITY = 1; AUTOSTART = TRUE; EVENT = E; };"
    "TASK B { PRIORITY = 2; };"
    "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = B; };"
    " AUTOSTART = TRUE { ALARMTIME = 4; CYCLETIME = 4; }; };")
STARVED_TSK = (
    "TASK W { WaitEvent(E); ClearEvent(E); TerminateTask(); }"
    "TASK B { TerminateTask(); }")


# a task waits for an event no one sets: a scheduler dead end
WAIT_OIL = (
    "COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
    "EVENT E { MASK = AUTO; };"
    "TASK A { PRIORITY = 1; AUTOSTART = TRUE; EVENT = E; };")
WAIT_TSK = "TASK A { WaitEvent(E); TerminateTask(); }"


def results_for(oil, tsk, properties=None, bound=5000):
    config, bodies = make_app(oil, tsk)
    return verify_all(config, bodies, bound=bound, properties=properties)


# ==== catalog ==============================================================


class TestCatalog:
    def rows(self):
        results = results_for(CLEAN_OIL, CLEAN_TSK)
        return adjudicate(results, {pid: "pass" for pid in results})

    def test_six_properties_in_order(self):
        assert tuple(r.property_id for r in self.rows()) == PROPERTY_ORDER

    def test_origins(self):
        origin = {r.property_id: r.origin for r in self.rows()}
        assert origin["DF"] == origin["ME"] == origin["PIF"] == \
            origin["SF"] == "standard"
        assert origin["PE"] == origin["MAF"] == "application"


# ==== verification on small applications ===================================


class TestVerification:
    def test_clean_application_passes_everything(self):
        results = results_for(CLEAN_OIL, CLEAN_TSK)
        assert set(results) == set(PROPERTY_ORDER)
        assert all(r.verdict == "pass" for r in results.values())
        assert "all-idle final" in results["DF"].detail

    def test_deadlock_failure_with_replayable_witness(self):
        results = results_for(WAIT_OIL, WAIT_TSK, properties=("DF",))
        df = results["DF"]
        assert df.verdict == "fail"
        assert re.search(r"halts at counter \d+", df.detail)
        explorer.replay(df.witness)

    def test_starvation_without_deadlock(self):
        results = results_for(STARVED_OIL, STARVED_TSK)
        assert results["DF"].verdict == "pass"
        sf = results["SF"]
        assert sf.verdict == "fail"
        assert "wait for E forever" in sf.detail
        assert sf.witness.lasso_start is not None
        explorer.replay(sf.witness)
        # the bystander properties are untouched by the starvation
        for pid in ("ME", "PIF", "PE", "MAF"):
            assert results[pid].verdict == "pass", pid

    @pytest.mark.xfail(strict=True, reason=(
        "wait(E, T) also holds on the WaitEvent that T re-issues when it "
        "resumes, which returns at once and so asks for a second SetEvent"))
    def test_resumed_wait_needs_no_second_set(self):
        results = results_for(
            "COUNTER C { MAXALLOWEDVALUE = 15; SYSTEM = TRUE; };"
            "EVENT E { MASK = AUTO; };"
            "TASK Init { PRIORITY = 1; AUTOSTART = TRUE; };"
            "TASK Ext { PRIORITY = 2; EVENT = E; };",
            "TASK Init { ActivateTask(Ext); SetEvent(Ext, E);"
            " TerminateTask(); }"
            "TASK Ext { WaitEvent(E); TerminateTask(); }",
            properties=("SF",))
        assert results["SF"].verdict == "pass", results["SF"].detail

    def test_periodic_double_completion(self):
        # the alarm activates T once per long period, but Main slips in an
        # extra manual activation inside the window
        results = results_for(
            "COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1;"
            " MINCYCLE = 1; SYSTEM = TRUE; };"
            "TASK Main { PRIORITY = 1; AUTOSTART = TRUE; };"
            "TASK T { PRIORITY = 2; };"
            "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = T; };"
            " AUTOSTART = TRUE { ALARMTIME = 4; CYCLETIME = 8; }; };",
            "TASK Main { TimeInterval = 6; ActivateTask(T);"
            " TerminateTask(); }"
            "TASK T { TerminateTask(); }",
            properties=("PE",))
        pe = results["PE"]
        assert pe.verdict == "fail"
        assert "completed twice" in pe.detail
        explorer.replay(pe.witness)

    def test_periodic_missed_completion(self):
        # T runs longer than the alarm period, so a window closes before
        # T ever completed; three activation slots keep the refire legal
        results = results_for(
            "COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1;"
            " MINCYCLE = 1; SYSTEM = TRUE; };"
            "TASK T { PRIORITY = 1; ACTIVATION = 3; AUTOSTART = TRUE; };"
            "ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = T; };"
            " AUTOSTART = TRUE { ALARMTIME = 4; CYCLETIME = 4; }; };",
            "TASK T { TimeInterval = 6; TerminateTask(); }",
            properties=("PE",))
        pe = results["PE"]
        assert pe.verdict == "fail"
        assert "no completion" in pe.detail
        explorer.replay(pe.witness)

    def test_multiple_activation_overflow(self):
        results = results_for(
            "COUNTER C { MAXALLOWEDVALUE = 7; SYSTEM = TRUE; };"
            "TASK Main { PRIORITY = 1; AUTOSTART = TRUE; };"
            "TASK B { PRIORITY = 0; };",
            "TASK Main { ActivateTask(B); ActivateTask(B);"
            " TerminateTask(); }"
            "TASK B { TerminateTask(); }",
            properties=("MAF",))
        maf = results["MAF"]
        assert maf.verdict == "fail"
        assert "ActivateTask overflowed task B" in maf.detail
        explorer.replay(maf.witness)

    def test_subset_selection(self):
        results = results_for(CLEAN_OIL, CLEAN_TSK, properties=("ME", "SF"))
        assert set(results) == {"ME", "SF"}

    def test_unknown_property_rejected(self):
        with pytest.raises(AdjudicationError, match="XYZ"):
            results_for(CLEAN_OIL, CLEAN_TSK, properties=("DF", "XYZ"))

    def test_small_bound_downgrades_to_bounded_pass(self):
        # the starving lasso lies beyond depth 3, so every check stays
        # inconclusive-positive rather than pass
        results = results_for(STARVED_OIL, STARVED_TSK, bound=3)
        for pid in PROPERTY_ORDER:
            assert results[pid].verdict == "bounded_pass", pid
            assert results[pid].passed


# ==== the safety monitor engine ============================================


class TestMonitorEngine:
    def graph(self, bound=10_000):
        return explorer.build_graph(*make_app(MINI_OIL, MINI_TSK),
                                    bound=bound)

    def test_bad_initial_state_is_a_zero_step_witness(self):
        graph = self.graph()
        result = conformance._check_monitor(
            graph, "ME", lambda m, state: ("bad", "at boot"), None, "unused")
        assert (result.verdict, result.detail) == ("fail", "at boot")
        assert result.witness.states == (graph.boot,)
        assert result.witness.choices == ()

    @pytest.mark.parametrize("depth", [1, 3, 5])
    def test_first_bad_at_depth_k_is_the_breadth_first_tree_path(self,
                                                                 depth):
        graph = self.graph()
        node = min(n for n, d in graph.depths.items() if d == depth)
        target = graph.nodes[node]
        result = conformance._check_monitor(
            graph, "ME",
            lambda m, state: ("bad", "hit") if state == target else m, None,
            "unused")
        assert (result.verdict, result.detail) == ("fail", "hit")
        assert len(result.witness.states) == depth + 1
        assert result.witness == graph.trace_to(node)
        explorer.replay(result.witness)

    def test_a_monitor_that_stays_good_passes(self):
        for bound, verdict in ((10_000, "pass"), (2, "bounded_pass")):
            result = conformance._check_monitor(
                self.graph(bound), "ME", lambda m, state: m, None, "all good")
            assert (result.verdict, result.witness, result.detail) == \
                (verdict, None, "all good")


@pytest.mark.parametrize("oil, tsk", [(WAIT_OIL, WAIT_TSK),
                                      (ACTIONS_OIL, ACTIONS_TSK)],
                         ids=["waits", "actions"])
def test_deadlock_freedom_reads_the_first_dead_end(oil, tsk):
    """Cut by ``bound`` before the first dead end of the strict graph, DF
    passes up to the bound; cut after it, DF fails with the witness it
    finds on the whole graph."""
    config, bodies = make_app(oil, tsk)

    def df(bound):
        return verify_all(config, bodies, bound=bound,
                          properties=("DF",))["DF"]

    whole = df(10_000)
    depth = len(whole.witness.states) - 1
    assert whole.verdict == "fail" and depth > 1
    cut = df(depth - 1)
    assert (cut.verdict, cut.witness) == ("bounded_pass", None)
    for bound in (depth, depth + 1):
        cut = df(bound)
        assert (cut.verdict, cut.witness) == ("fail", whole.witness)


def test_deadlock_freedom_steps_only_its_witness(monkeypatch):
    """The harmonic app has 4 strict dead ends up to alarm call order (8
    concrete ones); DF steps its 13-step witness and no other."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    import harmonic
    config, bodies = make_app(*harmonic.generate(1)[:2])
    stepped = []
    step = explorer.step

    def counting(*args, **kwargs):
        stepped.append(args[0])
        return step(*args, **kwargs)

    monkeypatch.setattr(explorer, "step", counting)
    df = verify_all(config, bodies, properties=("DF",))["DF"]
    assert df.detail.startswith("4 dead end(s); shortest witness has 13 ")
    assert len(stepped) == len(df.witness.states) - 1 == 13


# ==== test report parsing ==================================================


class TestReportParsing:
    def test_basic(self):
        parsed = parse_test_report("DF = pass\nME = fail\n")
        assert parsed == {"DF": "pass", "ME": "fail"}

    def test_comments_and_blanks(self):
        parsed = parse_test_report("# header\n\nDF = pass  # trailing\n")
        assert parsed == {"DF": "pass"}

    def test_bad_verdict(self):
        with pytest.raises(AdjudicationError, match="pass or fail"):
            parse_test_report("DF = maybe\n")

    def test_missing_equals(self):
        with pytest.raises(AdjudicationError, match="line 1"):
            parse_test_report("DF pass\n")

    def test_duplicate_entry(self):
        with pytest.raises(AdjudicationError, match="duplicate"):
            parse_test_report("DF = pass\nDF = fail\n")


# ==== adjudication matrix ==================================================


def fake_results(**verdicts) -> dict[str, PropertyResult]:
    return {pid: PropertyResult(pid, verdict)
            for pid, verdict in verdicts.items()}


class TestAdjudication:
    def test_both_pass_clears_both_sides(self):
        (row,) = adjudicate(fake_results(DF="pass"), {"DF": "pass"})
        assert (row.kernel_conform, row.app_conform) == (True, True)

    def test_verified_but_test_fails_blames_kernel(self):
        (row,) = adjudicate(fake_results(DF="pass"), {"DF": "fail"})
        assert (row.kernel_conform, row.app_conform) == (False, True)

    def test_refuted_but_test_passes_blames_both(self):
        (row,) = adjudicate(fake_results(DF="fail"), {"DF": "pass"})
        assert (row.kernel_conform, row.app_conform) == (False, False)

    def test_both_fail_blames_application(self):
        (row,) = adjudicate(fake_results(DF="fail"), {"DF": "fail"})
        assert (row.kernel_conform, row.app_conform) == (True, False)

    def test_bounded_pass_counts_as_pass_and_is_flagged(self):
        (row,) = adjudicate(fake_results(ME="bounded_pass"), {"ME": "pass"})
        assert row.verification == "pass"
        assert row.bounded
        assert row.kernel_conform and row.app_conform

    def test_missing_testing_entry(self):
        with pytest.raises(AdjudicationError, match="no entry for ME"):
            adjudicate(fake_results(ME="pass"), {"DF": "pass"})

    def test_row_origins(self):
        rows = adjudicate(fake_results(DF="pass", PE="pass"),
                          {"DF": "pass", "PE": "pass"})
        origin = {r.property_id: r.origin for r in rows}
        assert origin == {"DF": "standard", "PE": "application"}


# ==== report rendering =====================================================


class TestReport:
    def make_rows(self):
        results = fake_results(DF="fail", ME="bounded_pass")
        results["DF"].detail = "1 dead end(s)"
        results["ME"].detail = "12 states scanned"
        rows = adjudicate(results, {"DF": "pass", "ME": "pass"})
        return rows, results

    def test_human_table(self):
        rows, results = self.make_rows()
        text = emit_report(rows, results)
        assert "conformance report" in text
        assert re.search(r"DF\s+standard\s+fail\s+pass\s+FAULT\s+FAULT",
                         text)
        assert re.search(r"ME\s+standard\s+pass\*\s+pass\s+ok\s+ok", text)
        assert "(* verified only up to the exploration bound)" in text
        assert "kernel implementation: inconformant (DF)" in text
        assert "application: inconformant (DF)" in text
        assert "DF: 1 dead end(s)" in text

    def test_machine_lines(self):
        rows, results = self.make_rows()
        text = emit_report(rows, results,
                           witness_paths={"DF": "out/witness-DF.trace"})
        assert "verdict.DF.verification = fail" in text
        assert "verdict.DF.kernel = inconformant" in text
        assert "verdict.ME.bounded = yes" in text
        assert "witness.DF = out/witness-DF.trace" in text

    def test_all_conformant_summary(self):
        rows = adjudicate(fake_results(DF="pass"), {"DF": "pass"})
        text = emit_report(rows)
        assert "kernel implementation: conformant" in text
        assert "application: conformant" in text
