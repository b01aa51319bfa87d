"""Command line behaviour: exit codes, printed results, output files."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (EMS_LTL, EMS_OIL, EMS_PROPS, EMS_REPAIRED_OIL,
                      EMS_REPORT, EMS_TSK)
from helpers import (ACTIONS_OIL, ACTIONS_TSK, MINI_OIL, MINI_TSK, make_app,
                     random_app, unrolled_run)
from osekcheck import explorer, kernel_core, ltl, timing
from osekcheck.cli import main
from osekcheck.conformance import PROPERTY_ORDER
from osekcheck.model import NORMAL, label_text, rotated


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ==== run ==================================================================


class TestRun:
    def test_faulty_application_stops_on_overflow(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", EMS_OIL, EMS_TSK,
                               "--out", tmp_path)
        assert code == 2
        assert "result: error:E_OS_LIMIT after 26 steps (counter=16)" in out
        assert (tmp_path / "run.trace").exists()

    def test_repaired_application_runs_forever(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", EMS_REPAIRED_OIL, EMS_TSK,
                               "--bound", 200, "--out", tmp_path)
        assert code == 3
        assert "step bound 200 exhausted" in out

    def test_resting_application_exits_zero(self, capsys, tmp_path):
        oil = tmp_path / "a.oil"
        tsk = tmp_path / "a.tsk"
        oil.write_text("CPU a { COUNTER C { MAXALLOWEDVALUE = 3;"
                       " SYSTEM = TRUE; };"
                       " TASK A { PRIORITY = 1; AUTOSTART = TRUE; }; };")
        tsk.write_text("TASK A { TerminateTask(); }")
        code, out, _ = run_cli(capsys, "run", oil, tsk, "--out", tmp_path)
        assert code == 0
        assert "result: allidle" in out

    def test_machine_trace_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", EMS_OIL, EMS_TSK,
                               "--trace-format", "machine")
        assert code == 2
        lines = out.splitlines()
        assert lines[0].startswith("# trace steps=26 strict=yes")
        first = lines[1].split()
        assert first[0] == "0" and first[2] == "boot"
        assert len(first[3]) == 12


def assert_run_prints_stepped_trace(capsys, oil, tsk, bound, idle_mode):
    """``run`` prints the strict steps of a run that never rests, up to
    ``bound`` steps or up to its first state equal to an earlier one up to
    ``model.rotated``: then the prefix and one round of the cycle, closed on
    that earlier state by a ``# lasso:`` line.  Its result line is that of
    the run unrolled to ``bound`` steps.  Returns the trace printed."""
    config, bodies = make_app(Path(oil).read_text(), Path(tsk).read_text())
    state = kernel_core.boot(config, bodies, idle_mode)
    states = [state]
    keys = [rotated(state)]
    lasso_start = rotation = None
    for _ in range(bound):
        state = explorer.step(state, strict=True)
        assert state.status == NORMAL
        if rotated(state) in keys:
            lasso_start = keys.index(rotated(state))
            target = states[lasso_start]
            if state != target:
                rotation = ((state.counter_value - target.counter_value)
                            % state.program.modulus)
            break
        states.append(state)
        keys.append(rotated(state))
    choices = (None,) * (len(states) - (lasso_start is None))
    trace = explorer.Trace(tuple(states), choices, lasso_start, strict=True,
                           rotation=rotation)
    explorer.replay(trace)
    code, result = unrolled_run(config, bodies, bound=bound,
                                idle_mode=idle_mode)
    assert code == 3
    for fmt in ("text", "machine"):
        assert run_cli(capsys, "run", oil, tsk, "--bound", bound,
                       "--idle-tick-mode", idle_mode, "--trace-format",
                       fmt)[:2] == \
            (3, f"{explorer.render_trace(trace, fmt)}\n{result}\n")
    return trace


# ems_repaired's run comes back to state 12 up to rotation at step 164, the
# counter 100 ticks further on; it first repeats state 12 exactly at step
# 4876, after 32 rounds.  4876 and 9740 end on the cycle's first state, 7001
# in it.
@pytest.mark.parametrize("bound", [4876, 7001, 9740])
@pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
def test_run_round_its_cycle_prints_every_step(capsys, bound, idle_mode):
    trace = assert_run_prints_stepped_trace(capsys, EMS_REPAIRED_OIL,
                                            EMS_TSK, bound, idle_mode)
    assert (len(trace.states), trace.lasso_start, trace.rotation) == \
        (164, 12, 100)


# random_app seed 270 idles 2 ticks into state 5 and, at step 12, 1 tick
# into a state equal to it up to rotation: the loop target keeps its own
# amount, and a bound of 18 or more ends in a later round.
@pytest.mark.parametrize("bound", [18, 19, 20, 33, 47, 100])
def test_run_repeat_keeps_its_label_amount(capsys, tmp_path, bound):
    oil, tsk = random_app(random.Random(270))
    (tmp_path / "a.oil").write_text(oil)
    (tmp_path / "a.tsk").write_text(tsk)
    trace = assert_run_prints_stepped_trace(capsys, tmp_path / "a.oil",
                                            tmp_path / "a.tsk", bound,
                                            timing.JUMP)
    assert (len(trace.states), trace.lasso_start, trace.rotation) == \
        (12, 5, 3)
    assert label_text(trace.states[5].last_label) == "time +2 (idle)"


# The longest outputs, byte for byte: exit code, stdout length and the first
# 16 hex digits of its sha256.  ``ltlmc``'s was recorded while each snapshot
# line was formatted anew.  ``run``'s were recorded when it began to stop at
# its lasso; their step and snapshot lines were then those of the first 164
# states that ``run`` printed while it unrolled the cycle.  The tests above
# compare ``run`` with ``render_trace`` of the same code, so only these see
# a change in how traces are rendered.
PINNED_OUTPUTS = {
    "run": (("run", EMS_REPAIRED_OIL, EMS_TSK),
            3, 178_482, "3351ae55a8b7ea69"),
    "run-machine": (("run", EMS_REPAIRED_OIL, EMS_TSK,
                     "--trace-format", "machine"),
                    3, 172_795, "95726ca1f7a147eb"),
    "ltlmc": (("ltlmc", EMS_OIL, EMS_TSK, "--formula", EMS_LTL),
              2, 226_073, "0098f789e3af1641"),
}


@pytest.mark.parametrize("name", PINNED_OUTPUTS)
def test_long_output_is_pinned(capsys, name):
    argv, code, size, digest = PINNED_OUTPUTS[name]
    got, out, _ = run_cli(capsys, *argv)
    data = out.encode()
    assert (got, len(data), hashlib.sha256(data).hexdigest()[:16]) == \
        (code, size, digest)


# ==== search-final =========================================================


class TestSearchFinal:
    def test_faulty_application_has_dead_end(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "search-final", EMS_OIL, EMS_TSK,
                               "--out", tmp_path)
        assert code == 2
        assert "dead ends: 1" in out
        assert "status=error:E_OS_LIMIT counter=16" in out
        assert (tmp_path / "deadlock-0.trace").exists()

    def test_repaired_application_never_rests(self, capsys):
        code, out, _ = run_cli(capsys, "search-final", EMS_REPAIRED_OIL,
                               EMS_TSK)
        assert code == 0
        assert "all-idle finals: 0" in out
        assert "dead ends: 0" in out


# ==== ltlmc ================================================================


class TestLtlmc:
    def test_faulty_application_violations(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "ltlmc", EMS_OIL, EMS_TSK,
                               "--formula", EMS_LTL, "--out", tmp_path)
        assert code == 2
        verdicts = dict(line.split(":", 1) for line in out.splitlines()
                        if ":" in line and not line.startswith("trace"))
        assert verdicts["no_overflow"].strip().startswith("violated")
        assert verdicts["no_deadlock"].strip().startswith("violated")
        assert verdicts["adap_served"].strip().startswith("holds")
        assert (tmp_path / "no_overflow.trace").exists()

    def test_repaired_application_all_hold(self, capsys):
        code, out, _ = run_cli(capsys, "ltlmc", EMS_REPAIRED_OIL, EMS_TSK,
                               "--formula", EMS_LTL)
        assert code == 0
        assert out.count("holds") == 3

    def test_each_proposition_is_read_once_per_node(self, capsys, tmp_path,
                                                     monkeypatch):
        """Formulas checked on one graph share its proposition values."""
        formulas = tmp_path / "f.ltl"
        formulas.write_text(
            "a: [] <> running(Task_10ms)\n"
            "b: [] (ready(Task_10ms) -> <> running(Task_10ms))\n")
        evaluated = Counter()
        eval_prop = ltl.eval_prop

        def counting(prop, state):
            evaluated[prop, id(state)] += 1
            return eval_prop(prop, state)

        monkeypatch.setattr(ltl, "eval_prop", counting)
        code, out, _ = run_cli(capsys, "ltlmc", EMS_REPAIRED_OIL, EMS_TSK,
                               "--formula", formulas)
        assert code == 0 and out.count("holds") == 2
        assert max(evaluated.values()) == 1

    def test_bad_formula_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.ltl"
        bad.write_text("oops: [] (p\n")
        code, _, err = run_cli(capsys, "ltlmc", EMS_OIL, EMS_TSK,
                               "--formula", bad)
        assert code == 1
        assert "error" in err

    def test_empty_formula_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.ltl"
        empty.write_text("# nothing here\n")
        code, _, err = run_cli(capsys, "ltlmc", EMS_OIL, EMS_TSK,
                               "--formula", empty)
        assert code == 1
        assert "no formulas" in err


# ==== conform ==============================================================


class TestConform:
    def test_faulty_application_inconformant(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "conform", EMS_OIL, EMS_TSK,
                               "--test-report", EMS_REPORT,
                               "--props", EMS_PROPS, "--out", tmp_path)
        assert code == 2
        assert "kernel implementation: inconformant (DF, MAF)" in out
        assert "verdict.DF.verification = fail" in out
        assert "verdict.ME.verification = pass" in out
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "witness-DF.trace").exists()
        assert (tmp_path / "witness-MAF.trace").exists()

    def test_repaired_application_conformant(self, capsys):
        code, out, _ = run_cli(capsys, "conform", EMS_REPAIRED_OIL, EMS_TSK,
                               "--test-report", EMS_REPORT)
        assert code == 0
        assert "kernel implementation: conformant" in out
        assert "application: conformant" in out

    def test_bad_test_report(self, capsys, tmp_path):
        bad = tmp_path / "bad.report"
        bad.write_text("DF = maybe\n")
        code, _, err = run_cli(capsys, "conform", EMS_OIL, EMS_TSK,
                               "--test-report", bad)
        assert code == 1
        assert "pass or fail" in err

    def test_missing_report_entry(self, capsys, tmp_path):
        partial = tmp_path / "partial.report"
        partial.write_text("DF = pass\n")
        code, _, err = run_cli(capsys, "conform", EMS_OIL, EMS_TSK,
                               "--test-report", partial)
        assert code == 1
        assert "no entry" in err

    def test_empty_props_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.props"
        empty.write_text("# none\n")
        code, _, err = run_cli(capsys, "conform", EMS_OIL, EMS_TSK,
                               "--test-report", EMS_REPORT,
                               "--props", empty)
        assert code == 1
        assert "no properties" in err


# ==== boot and budget failures =============================================


def app_argv(command, oil, tsk, formula) -> list:
    if command == "ltlmc":
        return [command, oil, tsk, "--formula", formula]
    if command == "conform":
        return [command, oil, tsk, "--test-report", EMS_REPORT]
    return [command, oil, tsk]


class TestFailures:
    @pytest.mark.parametrize("command",
                             ["run", "search-final", "ltlmc", "conform"])
    def test_boot_error_is_bad_input(self, capsys, tmp_path, command):
        oil = tmp_path / "a.oil"
        tsk = tmp_path / "a.tsk"
        formula = tmp_path / "a.ltl"
        oil.write_text("CPU a { COUNTER C { MAXALLOWEDVALUE = 3;"
                       " SYSTEM = TRUE; }; TASK A { PRIORITY = 1; }; };")
        tsk.write_text("TASK A { TerminateTask(); }")
        formula.write_text("no_deadlock: [] !deadlocked\n")
        code, out, err = run_cli(capsys,
                                 *app_argv(command, oil, tsk, formula))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: no autostart task; nothing would ever run"]

    @pytest.mark.parametrize("command", ["search-final", "ltlmc", "conform"])
    def test_state_budget_exhausted(self, capsys, monkeypatch, command):
        monkeypatch.setattr(explorer, "MAX_STATES", 5)
        code, out, err = run_cli(capsys,
                                 *app_argv(command, EMS_OIL, EMS_TSK,
                                           EMS_LTL))
        assert code == 4
        assert out == ""
        assert err.splitlines()[-1] == \
            "error: state budget exhausted: exploration exceeded 5 states"


# ==== invocations share no state ===========================================


@pytest.mark.parametrize("command", ["run", "conform"])
def test_no_state_outlives_an_invocation(capsys, tmp_path, command):
    """A, B, A in one process: A prints the same bytes both times, so no
    memo (keyed on ``id()`` or kept at module level) carries over."""
    apps = {}
    for name, oil, tsk in (("mini", MINI_OIL, MINI_TSK),
                           ("actions", ACTIONS_OIL, ACTIONS_TSK)):
        (tmp_path / f"{name}.oil").write_text(oil)
        (tmp_path / f"{name}.tsk").write_text(tsk)
        apps[name] = app_argv(command, tmp_path / f"{name}.oil",
                              tmp_path / f"{name}.tsk", None)
    first = run_cli(capsys, *apps["mini"])
    other = run_cli(capsys, *apps["actions"])
    again = run_cli(capsys, *apps["mini"])
    assert first == again
    assert other != first


# ==== shared input handling ================================================


class TestInputs:
    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "/nonexistent.oil", EMS_TSK)
        assert code == 1
        assert "cannot read" in err

    def test_broken_oil(self, capsys, tmp_path):
        bad = tmp_path / "bad.oil"
        bad.write_text("TASK {")
        code, _, err = run_cli(capsys, "run", bad, EMS_TSK)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("bad", ["config", "tasks", "formula",
                                     "test-report", "props"])
    def test_undecodable_file_is_one_error_line(self, capsys, tmp_path, bad):
        texts = {"config": MINI_OIL, "tasks": MINI_TSK,
                 "formula": "idle: [] !deadlocked\n",
                 "test-report": "".join(f"{pid} = pass\n"
                                        for pid in PROPERTY_ORDER),
                 "props": "DF\n"}
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / name
            paths[name].write_bytes(b"\xff\xfe" if name == bad
                                    else text.encode())
        app = (paths["config"], paths["tasks"])
        argv = {"formula": ("ltlmc", *app, "--formula", paths["formula"]),
                "test-report": ("conform", *app, "--test-report",
                                paths["test-report"]),
                "props": ("conform", *app, "--test-report",
                          paths["test-report"], "--props", paths["props"])}
        code, _, err = run_cli(capsys, *argv.get(bad, ("run", *app)))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read {paths[bad]}: ")

    def test_nonpositive_bound(self, capsys):
        code, _, err = run_cli(capsys, "run", EMS_OIL, EMS_TSK,
                               "--bound", 0)
        assert code == 1
        assert "--bound must be positive" in err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ltlmc", str(EMS_OIL), str(EMS_TSK)])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_console_script_entry_point(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "osekcheck.cli", "run", str(EMS_OIL),
             str(EMS_TSK)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "error:E_OS_LIMIT" in proc.stdout


# ==== parser limits ========================================================

TINY_OIL = ("COUNTER C { MAXALLOWEDVALUE = 255; SYSTEM = TRUE; };"
            " TASK A { PRIORITY = 1; AUTOSTART = TRUE; };")
TINY_TSK = "TASK A { TerminateTask(); }"


def nested_attributes(depth: int) -> str:
    inner = "X = Y;"
    for _ in range(depth):
        inner = f"X = Y {{ {inner} }};"
    return TINY_OIL.replace("AUTOSTART = TRUE;", "AUTOSTART = TRUE; " + inner)


def balanced_disjunction(low: int, high: int) -> str:
    if high - low == 1:
        return f"counter_eq({low})"
    mid = (low + high) // 2
    return (f"({balanced_disjunction(low, mid)} | "
            f"{balanced_disjunction(mid, high)})")


class TestParserLimits:
    """Inputs that once ended in a traceback end in exit 1 and one line."""

    def run_app(self, capsys, tmp_path, oil=TINY_OIL, tsk=TINY_TSK,
                formula="ok: [] !deadlocked"):
        paths = []
        for name, text in (("a.oil", oil), ("a.tsk", tsk), ("a.ltl", formula)):
            (tmp_path / name).write_text(text + "\n")
            paths.append(tmp_path / name)
        return run_cli(capsys, "ltlmc", paths[0], paths[1],
                       "--formula", paths[2])

    @pytest.mark.parametrize("formula, message", [
        ("(" * 170 + "deadlocked" + ")" * 170, "nesting deeper than 100"),
        ("!" * 5000 + "deadlocked", "nesting deeper than 100"),
        (" & ".join(["deadlocked"] * 300), "nesting deeper than 100"),
        ("<> counter_eq(³)", "unexpected character '³' in formula"),
    ], ids=["parens-170", "not-5000", "and-chain-300", "superscript-digit"])
    def test_formula(self, capsys, tmp_path, formula, message):
        code, out, err = self.run_app(capsys, tmp_path,
                                      formula=f"f: {formula}")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("tsk, message", [
        ("TASK A { " + "while(true){ " * 1200 + "Schedule();"
         + " }" * 1200 + " }", "line 1: nesting deeper than 100"),
        ("TASK A {\n TimeInterval = ³; TerminateTask(); }",
         "line 2: unexpected character '³'"),
    ], ids=["while-1200", "superscript-digit"])
    def test_task_file(self, capsys, tmp_path, tsk, message):
        code, out, err = self.run_app(capsys, tmp_path, tsk=tsk)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("oil", [
        nested_attributes(1000),
        "CPU c { " * 1000 + TINY_OIL + " };" * 1000,
    ], ids=["attributes-1000", "cpu-1000"])
    def test_config(self, capsys, tmp_path, oil):
        code, out, err = self.run_app(capsys, tmp_path, oil=oil)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "line 1: nesting deeper than 100 levels" in err

    def test_nesting_at_the_limit_is_accepted(self, capsys, tmp_path):
        code, out, err = self.run_app(
            capsys, tmp_path, oil=nested_attributes(99),
            formula="f: " + "!" * 100 + "deadlocked")
        assert code == 2
        assert out.startswith("f: violated")
        assert "error" not in err
        code, _, err = self.run_app(
            capsys, tmp_path, oil=nested_attributes(100))
        assert code == 1
        assert "nesting deeper than 100 levels" in err
        code, _, err = self.run_app(
            capsys, tmp_path, formula="f: " + "!" * 101 + "deadlocked")
        assert code == 1
        assert "nesting deeper than 100 levels" in err

    def test_wide_disjunction_gets_a_verdict(self, capsys, tmp_path):
        code, out, err = self.run_app(
            capsys, tmp_path,
            formula=f"any: <> {balanced_disjunction(0, 256)}")
        assert code == 0
        assert out.startswith("any: holds")
        assert err == ""


# ==== output files =========================================================


class TestOutputFiles:
    """Formula names are file names under ``--out``; a name that is not a
    plain file name, or a path that cannot be written, is bad input."""

    def run_ltlmc(self, capsys, tmp_path, formulas: str, *extra):
        paths = []
        for name, text in (("a.oil", TINY_OIL), ("a.tsk", TINY_TSK),
                           ("a.ltl", formulas)):
            (tmp_path / name).write_text(text + "\n")
            paths.append(tmp_path / name)
        return run_cli(capsys, "ltlmc", paths[0], paths[1],
                       "--formula", paths[2], *extra)

    @pytest.mark.parametrize("name", ["../esc", "a/b", "a.b", "a b", "é"])
    def test_formula_name_is_a_plain_file_name(self, capsys, tmp_path,
                                               name):
        out = tmp_path / "out"
        code, stdout, err = self.run_ltlmc(
            capsys, tmp_path, f"ok: [] running(A)\n{name}: [] running(A)",
            "--out", out)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            f"error: {tmp_path / 'a.ltl'}: line 2: formula name {name!r} "
            "may use only ASCII letters, digits, '_' and '-'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["a.ltl", "a.oil", "a.tsk"]

    def test_allowed_characters(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = self.run_ltlmc(
            capsys, tmp_path, "Az09_-: [] running(A)", "--out", out)
        assert code == 2
        assert stdout.startswith("Az09_-: violated")
        assert [p.name for p in out.iterdir()] == ["Az09_-.trace"]

    def test_duplicate_formula_name(self, capsys, tmp_path):
        code, stdout, err = self.run_ltlmc(
            capsys, tmp_path, "f: [] running(A)\n# again\nf: <> running(A)",
            "--out", tmp_path / "out")
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            f"error: {tmp_path / 'a.ltl'}: line 3: duplicate formula "
            "name 'f'"]

    @pytest.mark.parametrize("command",
                             ["run", "search-final", "ltlmc", "conform"])
    def test_out_is_an_existing_file(self, capsys, tmp_path, command):
        blocker = tmp_path / "out"
        blocker.write_text("")
        code, stdout, err = run_cli(
            capsys, *app_argv(command, EMS_OIL, EMS_TSK, EMS_LTL),
            "--out", blocker)
        assert (code, stdout) == (1, "")
        errors = [line for line in err.splitlines()
                  if not line.startswith("warning: ")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: cannot create {blocker}: ")

    def test_unwritable_trace_file(self, capsys, tmp_path):
        out = tmp_path / "out"
        (out / "f.trace").mkdir(parents=True)
        code, stdout, err = self.run_ltlmc(
            capsys, tmp_path, "f: [] running(A)", "--out", out)
        assert code == 1
        assert stdout.startswith("f: violated")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {out / 'f.trace'}: ")

    def test_unwritable_report(self, capsys, tmp_path):
        (tmp_path / "a.oil").write_text(TINY_OIL)
        (tmp_path / "a.tsk").write_text(TINY_TSK)
        out = tmp_path / "out"
        (out / "report.txt").mkdir(parents=True)
        code, _, err = run_cli(capsys, "conform", tmp_path / "a.oil",
                               tmp_path / "a.tsk", "--test-report",
                               EMS_REPORT, "--out", out)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {out / 'report.txt'}: ")
