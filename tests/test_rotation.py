"""States up to counter rotation: the symmetry, the key, its soundness and
its witnesses.

Moving the counter and every alarm time by one amount (``model.translated``)
commutes with every step unless a body calls SetAbsAlarm; concrete graphs
expand each translation class once on the strength of it.  ``ltlmc`` and
``conform`` explore graphs keyed on ``model.rotated`` unless a body calls
SetAbsAlarm or a formula reads the counter; every witness is stepped from
the concrete boot state by its choices.  The differential test checks the
rotation graphs against the concrete ones on random_app 0-999, the
six-alarm app and harmonic K=4-6.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from pathlib import Path

import pytest

from helpers import (ABS_OIL, ABS_TSK, ACTIONS_OIL, ACTIONS_TSK,
                     COINCIDE_LTL, COINCIDE_OIL, COINCIDE_TSK, LOOP_OIL,
                     LOOP_TSK, make_app, random_app)
from osekcheck import cli, conformance, explorer, kernel_core, ltl, timing
from osekcheck.model import AlarmCell, rotated, translated

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harmonic  # noqa: E402
from workloads import RANDOM_FORMULAS  # noqa: E402

FORMULAS = ltl.parse_formula_file(RANDOM_FORMULAS)

OIL = """
COUNTER C { MAXALLOWEDVALUE = 15; MINCYCLE = 1; SYSTEM = TRUE; };
TASK Main { PRIORITY = 1; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK Hi   { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; };
ALARM Go   { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };
ALARM Kick { COUNTER = C; ACTION = ACTIVATETASK { TASK = Hi; }; };
ALARM Tock { COUNTER = C; ACTION = ALARMCALLBACK { ALARMCALLBACKNAME = tock; }; };
"""

TSK = """
TASK Main { while (true) { Schedule(); } }
TASK Hi { TerminateTask(); }
"""


def armed_and_cancelled():
    """Counter 3; Go armed at 7 with cycle 4, Kick cancelled at 3, Tock
    never armed."""
    state = kernel_core.boot(*make_app(OIL, TSK))
    for service, *args in (("SetRelAlarm", "Go", 7, 4),
                           ("SetRelAlarm", "Kick", 2, 0),
                           ("CancelAlarm", "Kick")):
        state = kernel_core.call_service(state, "Main", service, *args)
    return state


class TestRotatedKey:
    def test_counter_zero_armed_times_shifted_disarmed_cleared(self):
        state = armed_and_cancelled()
        assert state.counter_value == 3
        assert state.working_alarms == ("Go",)
        assert state.alarm_cell("Kick") == AlarmCell("Kick", 3, 0)
        key = rotated(state)
        assert key.counter_value == 0
        assert key.alarm_cell("Go") == AlarmCell("Go", 4, 4)
        assert key.alarm_cell("Kick") == AlarmCell("Kick", None, 0)
        assert key.alarm_cell("Tock") is state.alarm_cell("Tock")
        assert key.working_alarms == state.working_alarms
        assert key.tasks == state.tasks
        assert key.last_label == state.last_label

    def test_armed_times_wrap(self):
        state = armed_and_cancelled()
        for _ in range(6):
            state = kernel_core.call_service(state, "Main", "Schedule")
        assert state.counter_value == 9
        assert state.alarm_cell("Go") == AlarmCell("Go", 7, 4)
        assert rotated(state).alarm_cell("Go") == AlarmCell("Go", 14, 4)

    def test_identity_on_its_own_output(self):
        key = rotated(armed_and_cancelled())
        assert rotated(key) is key
        boot = kernel_core.boot(*make_app(OIL, TSK))
        assert rotated(boot) is boot


def test_batch_calls_keyed_up_to_order_but_the_first_failing_code():
    """The six orders of the alarm-action app's first batch: Kick's SETEVENT
    fails with E_OS_STATE unless Go activated Ext before it.  The key sorts
    the calls by alarm, but puts a call with the first failing code first,
    so strict error handling freezes every order's key as it froze the
    order."""
    state = kernel_core.boot(*make_app(ACTIONS_OIL, ACTIONS_TSK))
    while len(kernel_core.pending_expiries(state)) < 3:
        state = explorer.step(state)
    keys = {}
    for order in itertools.permutations(("Go", "Kick", "Tock")):
        target = kernel_core.handle_expiries(state, order)
        key = rotated(target)
        assert key.counter_value == 0 and rotated(key) is key
        assert sorted(key.last_label.calls) == sorted(target.last_label.calls)
        assert explorer._freeze(key).status == \
            explorer._freeze(target).status
        keys.setdefault(key.last_label, []).append(order)
    assert [[(c.by, c.status) for c in label.calls] for label in keys] == [
        [("Go", "E_OK"), ("Kick", "E_OK"), ("Tock", "E_OK")],
        [("Kick", "E_OS_STATE"), ("Go", "E_OK"), ("Tock", "E_OK")]]
    assert list(keys.values()) == [
        [("Go", "Kick", "Tock"), ("Go", "Tock", "Kick"),
         ("Tock", "Go", "Kick")],
        [("Kick", "Go", "Tock"), ("Kick", "Tock", "Go"),
         ("Tock", "Kick", "Go")]]


CANNED = {"loops": (LOOP_OIL, LOOP_TSK), "actions": (ACTIONS_OIL, ACTIONS_TSK),
          "coincide": (COINCIDE_OIL, COINCIDE_TSK)}


@pytest.mark.parametrize("name", sorted(CANNED))
@pytest.mark.parametrize("strict", [False, True])
def test_rotation_commutes_with_every_step(name, strict):
    """Stepping a state's key gives the key of the state's successor, on
    every edge of the concrete graph."""
    config, bodies = make_app(*CANNED[name])
    for idle_mode in timing.IDLE_MODES:
        graph = explorer.build_graph(config, bodies, strict=strict,
                                     idle_mode=idle_mode)
        for node, state in graph.nodes.items():
            key = rotated(state)
            for choice, target in graph.edges[node]:
                assert rotated(explorer.step(key, choice,
                                             strict=strict)) == \
                    rotated(graph.nodes[target]), (name, node, choice)


# ==== translation is a symmetry =============================================


def assert_translation_commutes(graph, rng) -> int:
    """On every node of ``graph``, for k = 1, modulus - 1 and a drawn k, the
    successors of the node translated by k are its edge targets translated
    by k, with the same choices.  Returns how many nodes hold a disarmed
    alarm's stale time."""
    modulus = graph.program.modulus
    stale = 0
    for node, state in graph.nodes.items():
        working = state.working_alarms
        stale += any(cell.alarm_time is not None and cell.id not in working
                     for cell in state.alarms)
        for k in (1, modulus - 1, rng.randrange(1, modulus)):
            expected = [(choice, translated(graph.nodes[target], k))
                        for choice, target in graph.edges[node]]
            actual = explorer.successors(translated(state, k),
                                         strict=graph.strict)
            assert actual == expected, (node, k)
    return stale


def test_translation_moves_the_counter_and_every_set_alarm_time():
    state = armed_and_cancelled()
    moved = translated(state, 14)
    assert moved.counter_value == 1
    assert moved.alarm_cell("Go") == AlarmCell("Go", 5, 4)
    assert moved.alarm_cell("Kick") == AlarmCell("Kick", 1, 0)
    assert moved.alarm_cell("Tock") is state.alarm_cell("Tock")
    assert (moved.tasks, moved.working_alarms, moved.last_label) == \
        (state.tasks, state.working_alarms, state.last_label)
    assert translated(moved, -14) == state
    assert translated(state, 0) == state


@pytest.mark.parametrize("name", sorted(CANNED) + ["random_app"])
@pytest.mark.parametrize("strict", [False, True])
def test_translation_commutes_with_every_step(name, strict):
    """The symmetry that concrete graphs expand each translation class
    once on, checked on every edge; random_app runs a sample of seeds, whose
    graphs hold states with a disarmed alarm's stale time, as does the
    state with Kick cancelled."""
    rng = random.Random(name)
    apps = ([make_app(*random_app(random.Random(seed)))
             for seed in rng.sample(range(1000), 40)]
            if name == "random_app" else [make_app(*CANNED[name])])
    stale = 0
    for config, bodies in apps:
        for idle_mode in timing.IDLE_MODES:
            stale += assert_translation_commutes(explorer.build_graph(
                config, bodies, strict=strict, idle_mode=idle_mode), rng)
    if name == "random_app":
        assert stale
    state = armed_and_cancelled()
    assert state.alarm_cell("Kick").alarm_time is not None
    for k in range(16):
        assert explorer.successors(translated(state, k), strict=strict) == \
            [(choice, translated(target, k)) for choice, target
             in explorer.successors(state, strict=strict)]


def test_set_abs_alarm_breaks_the_symmetry():
    """SetAbsAlarm arms Abs at counter 6 wherever the counter stands, so a
    translated state's step arms it at 6, not 6 + k: why a concrete graph
    of such an app keys each class at shift 0 only."""
    config, bodies = make_app(ABS_OIL, ABS_TSK)
    assert not explorer.rotation_sound(bodies)
    graph = explorer.build_graph(config, bodies)
    broken = set()
    for node, state in graph.nodes.items():
        for k in range(1, graph.program.modulus):
            if explorer.successors(translated(state, k)) != \
                    [(choice, translated(graph.nodes[target], k))
                     for choice, target in graph.edges[node]]:
                broken.add(node)
    assert broken
    for node in broken:
        state = graph.nodes[node]
        assert state.front(state.running).name == "SetAbsAlarm"
        (_, target), = graph.edges[node]
        assert graph.nodes[target].alarm_cell("Abs").alarm_time == 6


def assert_refuted(formula, trace):
    """The lasso replays, and ``formula`` is false on its own states."""
    explorer.replay(trace)
    start = trace.lasso_start
    assert start is not None
    assert not ltl.eval_on_lasso(formula, trace.states[:start],
                                 trace.states[start:],
                                 lambda state, prop: ltl.eval_prop(prop,
                                                                   state))


def check_formulas(config, bodies, rotate, idle_mode=timing.JUMP,
                   formulas=FORMULAS):
    """The formulas' verdicts, by default the random sweep's; each lasso is
    checked."""
    graphs = explorer.build_graphs(
        config, bodies, {ltl.mentions_deadlock(f) for _, f in formulas},
        idle_mode=idle_mode, rotate=rotate)
    verdicts = {}
    for name, formula in formulas:
        graph = graphs[ltl.mentions_deadlock(formula)]
        result = ltl.model_check(ltl.KernelGraphView(graph), formula)
        verdicts[name] = result.verdict
        if result.verdict == "violated":
            trace = conformance.lasso_to_trace(graph, result)
            assert len(trace.states) == len(result.prefix) - 1 + \
                len(result.cycle)
            assert_refuted(formula, trace)
    return verdicts, {s: g.truncated for s, g in graphs.items()}


def test_lasso_is_one_round_that_closes_up_to_rotation():
    """Seed 68: a round of the cycle moves the counter and changes a disarmed
    alarm's data, so the concrete run never comes back to the loop target.
    The witness is still the graph's lasso, stepped once, and its closing
    step is checked up to rotation and the counter's move."""
    config, bodies = make_app(*random_app(random.Random(68)))
    graph = explorer.build_graph(config, bodies, rotate=True)
    formula = ltl.parse_ltl("[] !error(E_OS_LIMIT)")
    result = ltl.model_check(ltl.KernelGraphView(graph), formula)
    assert result.verdict == "violated"
    trace = conformance.lasso_to_trace(graph, result)
    assert len(trace.states) == len(result.prefix) - 1 + len(result.cycle)
    target = trace.states[trace.lasso_start]
    end = explorer.step(trace.states[-1], trace.choices[-1])
    assert end != target
    assert rotated(end) == rotated(target)
    assert trace.rotation == 4
    assert_refuted(formula, trace)
    for fmt in ("text", "machine"):
        assert (f"# lasso: closes back to step {trace.lasso_start} via [-] "
                "up to rotation, counter +4 a round\n") in \
            explorer.render_trace(trace, fmt)
    for wrong in (None, 5):
        with pytest.raises(explorer.ReplayMismatch) as err:
            explorer.replay(trace._replace(rotation=wrong))
        assert err.value.index == len(trace.states) - 1


def verify(config, bodies, monkeypatch, rotate, idle_mode):
    """The six properties' verdicts; each witness is checked."""
    with monkeypatch.context() as patch:
        patch.setattr(ltl, "rotation_sound", lambda *args: rotate)
        results = conformance.verify_all(config, bodies, idle_mode=idle_mode)
    for result in results.values():
        if result.witness is not None:
            explorer.replay(result.witness)
    sf = results["SF"]
    if sf.witness is not None:
        task, event = re.fullmatch(r"task (\S+) can wait for (\S+) forever",
                                   sf.detail).groups()
        assert_refuted(conformance.starvation_formula(event, task),
                       sf.witness)
    return {pid: result.verdict for pid, result in results.items()}


def verdict_apps(seeds, monkeypatch):
    """random_app seeds ``0..seeds-1`` with the random sweep's formulas, then
    the six-alarm app and harmonic K=4-6 (720 handling orders a batch at
    most) with their own."""
    for seed in range(seeds):
        yield seed, make_app(*random_app(random.Random(seed))), FORMULAS
    yield ("coincide", make_app(COINCIDE_OIL, COINCIDE_TSK),
           ltl.parse_formula_file(COINCIDE_LTL))
    for alarms in (4, 5, 6):
        monkeypatch.setattr(harmonic, "N_ALARMS", alarms)
        oil, tsk, formulas = harmonic.generate(1)
        yield (f"harmonic K={alarms}", make_app(oil, tsk),
               ltl.parse_formula_file(formulas))


@pytest.mark.parametrize("idle_mode, seeds", [(timing.JUMP, 1000),
                                              (timing.UNIT, 250)])
def test_rotation_keeps_every_verdict_on_random_apps(monkeypatch, idle_mode,
                                                     seeds):
    """Rotation against concrete keys: the same verdicts and truncation,
    and every witness replays and refutes its property."""
    for name, (config, bodies), formulas in verdict_apps(seeds, monkeypatch):
        assert ltl.rotation_sound(bodies, (f for _, f in formulas))
        assert verify(config, bodies, monkeypatch, True, idle_mode) == \
            verify(config, bodies, monkeypatch, False, idle_mode), name
        assert check_formulas(config, bodies, True, idle_mode, formulas) == \
            check_formulas(config, bodies, False, idle_mode, formulas), name


# ==== where the concrete key stays ==========================================


def test_set_abs_alarm_keeps_the_concrete_key(capsys, tmp_path):
    config, bodies = make_app(ABS_OIL, ABS_TSK)
    assert not ltl.rotation_sound(bodies)
    concrete = len(explorer.build_graph(config, bodies).nodes)
    assert len(explorer.build_graph(config, bodies,
                                    rotate=True).nodes) < concrete
    (tmp_path / "abs.oil").write_text(ABS_OIL)
    (tmp_path / "abs.tsk").write_text(ABS_TSK)
    (tmp_path / "report").write_text("ME = pass\n")
    (tmp_path / "props").write_text("ME\n")
    cli.main(["conform", str(tmp_path / "abs.oil"), str(tmp_path / "abs.tsk"),
              "--test-report", str(tmp_path / "report"),
              "--props", str(tmp_path / "props")])
    assert f"ME: {concrete} states scanned" in capsys.readouterr().out


def test_counter_eq_keeps_the_concrete_key(capsys, tmp_path, monkeypatch,
                                           ems_repaired_app):
    _, bodies = ems_repaired_app
    formula = ltl.parse_ltl("[] !counter_eq(3)")
    assert ltl.rotation_sound(bodies)
    assert not ltl.rotation_sound(bodies, [formula])
    built = []

    def build_graphs(*args, **options):
        graphs = original(*args, **options)
        built.extend(len(g.nodes) for g in graphs.values())
        return graphs

    original = explorer.build_graphs
    monkeypatch.setattr(explorer, "build_graphs", build_graphs)
    formulas = tmp_path / "counter.ltl"
    formulas.write_text(f"never3: {formula}\n")
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    assert cli.main(["ltlmc", str(corpus / "ems_repaired.oil"),
                     str(corpus / "ems.tsk"), "--formula", str(formulas),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_VIOLATION
    assert built == [4876]
    assert "never3: violated" in capsys.readouterr().out


# ==== witnesses that stay concrete ==========================================


def test_deadlock_witness_halts_where_it_did(ems_app):
    """Criterion 2's dead end, read from DF's detail: the rotation graph
    finds it, and the stepped witness reports the concrete counter."""
    df = conformance.verify_all(*ems_app, properties=("DF", "ME"))["DF"]
    assert df.verdict == "fail"
    assert df.detail == ("1 dead end(s); shortest witness has 26 steps and "
                         "halts at counter 16")
    explorer.replay(df.witness)
