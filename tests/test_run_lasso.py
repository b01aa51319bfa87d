"""``run`` stops at its first state equal to an earlier one and prints its
lasso, up to counter rotation unless a body calls SetAbsAlarm.

Its result line and exit code are checked against ``helpers.unrolled_run``,
which steps until a state repeats exactly and unrolls the cycle to the
bound, on the corpus, on random_app 0-999 and on SetAbsAlarm apps, in both
idle modes.  Every lasso it prints replays, and records a rotation exactly
when its closing step ends at a state other than the loop target.
"""

from __future__ import annotations

import random

import pytest

from conftest import EMS_OIL, EMS_REPAIRED_OIL, EMS_TSK
from helpers import (ABS_LOOP_OIL, ABS_LOOP_TSK, ABS_OIL, ABS_TSK, make_app,
                     random_app, unrolled_run)
from osekcheck import cli, explorer, timing

PARSER = cli.build_parser()


def run(capsys, monkeypatch, oil, tsk, bound, idle_mode):
    """``run``'s exit code, result line and the trace it printed."""
    printed = []

    def emit(trace, *rest):
        printed.append(trace)
        emit_trace(trace, *rest)

    emit_trace = cli._emit_trace
    monkeypatch.setattr(cli, "_emit_trace", emit)
    args = PARSER.parse_args(["run", str(oil), str(tsk), "--bound",
                              str(bound), "--idle-tick-mode", idle_mode])
    code = args.func(args)
    monkeypatch.undo()
    out = capsys.readouterr().out
    (trace,) = printed
    assert ("# lasso:" in out) == (trace.lasso_start is not None)
    return code, out.splitlines()[-1], trace


def check_lasso(trace) -> int:
    """Replay the lasso; its rotation is set exactly when the closing step
    ends away from the loop target.  Returns the step it closes at."""
    explorer.replay(trace)
    end = explorer.step(trace.states[-1], trace.choices[-1], strict=True)
    assert (trace.rotation is not None) == \
        (end != trace.states[trace.lasso_start])
    return len(trace.states)


@pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
@pytest.mark.parametrize("oil", [EMS_OIL, EMS_REPAIRED_OIL],
                         ids=["ems", "ems_repaired"])
def test_corpus_results_are_the_unrolled_runs(capsys, monkeypatch, oil,
                                              idle_mode):
    config, bodies = make_app(oil.read_text(), EMS_TSK.read_text())
    for bound in (11, 12, 163, 164, 165, 4876, 7001, 10_000):
        code, line, trace = run(capsys, monkeypatch, oil, EMS_TSK, bound,
                                idle_mode)
        assert (code, line) == unrolled_run(config, bodies, bound=bound,
                                            idle_mode=idle_mode), bound
        if oil == EMS_REPAIRED_OIL and bound >= 164:
            assert check_lasso(trace) == 164
            assert (trace.lasso_start, trace.rotation) == (12, 100)
        else:
            assert trace.lasso_start is None


@pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
def test_random_app_results_are_the_unrolled_runs(capsys, monkeypatch,
                                                  tmp_path, idle_mode):
    """At the default bound, and for a run that goes round a cycle, at a
    bound inside the first round and at one inside the second."""
    oil, tsk = tmp_path / "a.oil", tmp_path / "a.tsk"
    lassos = rotations = 0
    for seed in range(1000):
        texts = random_app(random.Random(seed))
        oil.write_text(texts[0])
        tsk.write_text(texts[1])
        config, bodies = make_app(*texts)
        code, line, trace = run(capsys, monkeypatch, oil, tsk, 10_000,
                                idle_mode)
        assert (code, line) == unrolled_run(config, bodies,
                                            idle_mode=idle_mode), seed
        if trace.lasso_start is None:
            continue
        lassos += 1
        rotations += trace.rotation is not None
        closing = check_lasso(trace)
        length = closing - trace.lasso_start
        for bound in (max(1, closing - 1 - length // 2),
                      closing + length // 2):
            got = run(capsys, monkeypatch, oil, tsk, bound, idle_mode)
            assert got[:2] == unrolled_run(config, bodies, bound=bound,
                                           idle_mode=idle_mode), \
                (seed, bound)
            assert (got[2].lasso_start is None) == (bound < closing)
    assert (lassos, rotations) == (40, 36)


@pytest.mark.parametrize("idle_mode", timing.IDLE_MODES)
def test_set_abs_alarm_run_closes_on_an_exact_repeat(capsys, monkeypatch,
                                                     tmp_path, idle_mode):
    oil, tsk = tmp_path / "a.oil", tmp_path / "a.tsk"
    oil.write_text(ABS_LOOP_OIL)
    tsk.write_text(ABS_LOOP_TSK)
    config, bodies = make_app(ABS_LOOP_OIL, ABS_LOOP_TSK)
    assert not explorer.rotation_sound(bodies)
    for bound in (16, 17, 18, 64, 65, 66, 100, 10_000):
        code, line, trace = run(capsys, monkeypatch, oil, tsk, bound,
                                idle_mode)
        assert (code, line) == unrolled_run(config, bodies, bound=bound,
                                            idle_mode=idle_mode), bound
        if bound >= 65:
            assert check_lasso(trace) == 65
            assert (trace.lasso_start, trace.rotation) == (2, None)
        else:
            assert trace.lasso_start is None
    # The SetAbsAlarm app that ltlmc and conform check on concrete states
    # fails CancelAlarm after 19 steps, before any state repeats.
    oil.write_text(ABS_OIL)
    tsk.write_text(ABS_TSK)
    code, line, trace = run(capsys, monkeypatch, oil, tsk, 10_000, idle_mode)
    assert (code, line) == unrolled_run(*make_app(ABS_OIL, ABS_TSK),
                                        idle_mode=idle_mode)
    assert line == "result: error:E_OS_NOFUNC after 19 steps (counter=3)"
