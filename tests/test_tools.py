"""The parity tools in ``tools/`` still run against the current API.

Each tool's core is run once on the smallest canned app and once on the app
whose batches fire every alarm action.  The tools themselves take minutes,
so they are only run by hand, to compare two checkouts; a slice of
``graph_digest``'s output is frozen in ``frozen_graphs.txt`` and checked
here, and each property's answer from ``conformance.verify_all`` on a set of
apps is frozen in ``frozen_conform.txt``.  On the same apps every node's
snapshot is checked against ``helpers.plain_snapshot``, which formats each
line anew.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import EMS_OIL, EMS_REPAIRED_OIL, EMS_TSK
from helpers import (ABS_OIL, ABS_TSK, ACTIONS_OIL, ACTIONS_TSK,
                     COINCIDE_OIL, COINCIDE_TSK, LOOP_OIL, LOOP_TSK,
                     MINI_OIL, MINI_TSK, make_app, plain_snapshot,
                     random_app)
from osekcheck import conformance, explorer, timing
from osekcheck.model import canonical_snapshot

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cli_digest  # noqa: E402
import graph_digest  # noqa: E402

# ``graph_digest`` lines of the loop-shape app, the alarm-action app and
# random_app seeds 0-99, in both idle modes and both error semantics,
# recorded while states were frozen dataclasses that carried the
# configuration and the bodies; they pin the snapshots, edges and parents of
# every node against that implementation.  The six-alarm app's lines were
# recorded while every handling order of a batch was handled on its own.
# The ``checking`` lines that follow, of the same apps in both idle modes,
# pin the graphs ``conform`` checks (``graph_digest.checking_lines``); they
# were recorded while the concrete graphs walked a batch's orders by
# permutation and only the checking graphs walked it by subsets.
FROZEN_GRAPHS = Path(__file__).with_name("frozen_graphs.txt")

# ``conform_lines`` of both corpus configurations, the canned apps of
# ``tests/helpers``, the harmonic app (seed 1) and random_app seeds 0-99,
# recorded while ME, PIF and MAF scanned the nodes, PE ran its own search
# and DF traced every dead end; they pin each property's verdict, detail
# and witness (its step count and the hash of its last state).  Keying the
# checked graphs up to alarm call order changed only state counts and DF's
# dead-end counts, and those lines were recorded again.
FROZEN_CONFORM = Path(__file__).with_name("frozen_conform.txt")


def test_graph_line_counts_the_graph():
    config, bodies = make_app(MINI_OIL, MINI_TSK)
    graph = explorer.build_graph(config, bodies)
    line = graph_digest.graph_line(config, bodies, timing.JUMP, False)
    nodes, edges, truncated, digest = line.split()
    assert int(nodes) == len(graph.nodes)
    assert int(edges) == sum(len(out) for out in graph.edges.values())
    assert truncated == "0"
    assert len(digest) == 32
    assert graph_digest.graph_line(config, bodies, timing.JUMP, False) == line


def test_checking_lines_digest_the_graphs_conform_checks():
    """Keyed up to rotation and call order where that is sound; the
    absolute-alarm app's checking graphs are its concrete graphs."""
    config, bodies = make_app(ACTIONS_OIL, ACTIONS_TSK)
    graphs = explorer.build_graphs(config, bodies, (False, True),
                                   rotate=True)
    lines = graph_digest.checking_lines(config, bodies, timing.JUMP)
    assert {strict: int(line.split()[0]) for strict, line in lines.items()} \
        == {strict: len(graph.nodes) for strict, graph in graphs.items()}
    config, bodies = make_app(ABS_OIL, ABS_TSK)
    for idle_mode in timing.IDLE_MODES:
        assert graph_digest.checking_lines(config, bodies, idle_mode) == {
            strict: graph_digest.graph_line(config, bodies, idle_mode, strict)
            for strict in (False, True)}


def test_digest_covers_exit_code_output_and_written_files(tmp_path):
    (tmp_path / "mini.oil").write_text(MINI_OIL)
    (tmp_path / "mini.tsk").write_text(MINI_TSK)
    out = tmp_path / "out"
    line = cli_digest.digest(["search-final", str(tmp_path / "mini.oil"),
                              str(tmp_path / "mini.tsk"), "--out", str(out)],
                             tmp_path)
    code, _, stdout_bytes, _, stderr_bytes, written, _, answer = line.split()
    assert code == "0"
    assert int(stdout_bytes) > 0
    assert int(stderr_bytes) == 0
    assert written.startswith("final-0.trace=")
    assert answer.startswith("verdicts=")
    assert not out.exists()


def test_digest_runs_every_subcommand_in_both_idle_modes():
    """Each subcommand goes in both formats and both idle modes; without
    ``unit`` only ``run`` goes in the unit idle mode."""
    app = ("app", "a.oil", "a.tsk", "a.ltl", "a.report", [], "out")
    runs = dict(cli_digest.invocations(*app))
    for fmt in ("text", "machine"):
        for command in ("run", "search-final", "ltlmc", "conform"):
            assert f"app {command} {fmt}" in runs
            argv = runs[f"app {command} {fmt} unit"]
            assert argv[0] == command
            assert argv[-2:] == ["--idle-tick-mode", "unit"]
    fewer = dict(cli_digest.invocations(*app, unit=False))
    assert sorted(set(runs) - set(fewer)) == sorted(
        f"app {command} {fmt} unit" for fmt in ("text", "machine")
        for command in ("search-final", "ltlmc", "conform"))


def test_actions_app_branches_six_ways_and_freezes():
    config, bodies = make_app(ACTIONS_OIL, ACTIONS_TSK)
    line = graph_digest.graph_line(config, bodies, timing.JUMP, True)
    graph = explorer.build_graph(config, bodies, strict=True)
    assert int(line.split()[0]) == len(graph.nodes)
    assert max(len(out) for out in graph.edges.values()) == 6
    assert any(s.status == "error:E_OS_STATE" for s in graph.nodes.values())


def test_digest_of_the_actions_app(tmp_path):
    (tmp_path / "actions.oil").write_text(ACTIONS_OIL)
    (tmp_path / "actions.tsk").write_text(ACTIONS_TSK)
    line = cli_digest.digest(["search-final", str(tmp_path / "actions.oil"),
                              str(tmp_path / "actions.tsk"), "--out",
                              str(tmp_path / "out")], tmp_path)
    code, _, stdout_bytes, _, stderr_bytes, written, *_ = line.split()
    assert code == "2"  # strict dead ends: the failing SETEVENT freezes
    assert int(stdout_bytes) > 0
    assert int(stderr_bytes) == 0
    assert written.startswith("deadlock-0.trace=")


def frozen_app(name: str):
    if name == "loops":
        return make_app(LOOP_OIL, LOOP_TSK)
    if name == "actions":
        return make_app(ACTIONS_OIL, ACTIONS_TSK)
    if name == "coincide":
        return make_app(COINCIDE_OIL, COINCIDE_TSK)
    seed = int(name.removeprefix("random_app:"))
    return make_app(*random_app(random.Random(seed)))


def test_graphs_are_frozen():
    apps = {}
    checking = {}
    changed = []
    for line in FROZEN_GRAPHS.read_text().splitlines():
        where, _, rest = line.partition(" strict=")
        name, idle_mode, *kind = where.split()
        strict, expected = rest[0] == "1", rest[2:]
        if name not in apps:
            apps[name] = frozen_app(name)
        if kind == ["checking"]:
            if (name, idle_mode) not in checking:
                checking[name, idle_mode] = graph_digest.checking_lines(
                    *apps[name], idle_mode)
            actual = checking[name, idle_mode][strict]
        else:
            actual = graph_digest.graph_line(*apps[name], idle_mode, strict)
        if actual != expected:
            changed.append(f"{where} strict={int(strict)}: {actual}")
    assert changed == []


def conform_lines(name: str, config, bodies) -> list[str]:
    """One line per property: app, property, verdict, the witness's step
    count and last state's hash (``-`` without a witness), then detail."""
    lines = []
    for pid, result in conformance.verify_all(config, bodies).items():
        witness = result.witness
        steps, last = (("-", "-") if witness is None else
                       (len(witness.states) - 1,
                        witness.states[-1].snapshot()[1]))
        lines.append(f"{name} {pid} {result.verdict} {steps} {last} "
                     f"{result.detail}")
    return lines


def harmonic_app():
    """The harmonic app of seed 1 as the digest tools make it: with
    ``PYTHONHASHSEED=0``, since its identifier order follows set order."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    texts = subprocess.run(
        [sys.executable, "-c", "import harmonic, json; "
         "print(json.dumps(harmonic.generate(1)[:2]))"],
        cwd=perfbench, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, check=True).stdout
    return make_app(*json.loads(texts))


def conform_apps():
    for name, oil in (("ems", EMS_OIL), ("ems_repaired", EMS_REPAIRED_OIL)):
        yield name, make_app(oil.read_text(), EMS_TSK.read_text())
    for name, oil, tsk in (("mini", MINI_OIL, MINI_TSK),
                           ("loops", LOOP_OIL, LOOP_TSK),
                           ("actions", ACTIONS_OIL, ACTIONS_TSK),
                           ("coincide", COINCIDE_OIL, COINCIDE_TSK),
                           ("abs", ABS_OIL, ABS_TSK)):
        yield name, make_app(oil, tsk)
    yield "harmonic:1", harmonic_app()
    for seed in range(100):
        yield (f"random_app:{seed}",
               make_app(*random_app(random.Random(seed))))


def test_conform_is_frozen():
    actual = [line for name, (config, bodies) in conform_apps()
              for line in conform_lines(name, config, bodies)]
    assert actual == FROZEN_CONFORM.read_text().splitlines()


def test_snapshots_match_the_plain_renderer():
    """Every node of each app's graphs, in both idle modes and both error
    semantics, snapshots to the text that ``plain_snapshot`` formats."""
    differ = []
    for name, (config, bodies) in conform_apps():
        for idle_mode in timing.IDLE_MODES:
            graphs = explorer.build_graphs(config, bodies, (False, True),
                                           idle_mode=idle_mode)
            for strict, graph in graphs.items():
                differ += [f"{name} {idle_mode} strict={int(strict)} {node}"
                           for node, state in graph.nodes.items()
                           if canonical_snapshot(state)
                           != plain_snapshot(state)]
    assert differ == []


def test_each_program_keeps_its_own_snapshot_lines():
    """Two apps whose task cells are equal but whose ``act=`` and ``pgm=``
    columns differ, snapshotted in turn: each keeps its own text."""
    one = explorer.build_graph(*make_app(MINI_OIL, MINI_TSK))
    other = explorer.build_graph(*make_app(
        MINI_OIL.replace("ACTIVATION = 1; AUTOSTART = FALSE",
                         "ACTIVATION = 2; AUTOSTART = FALSE"),
        MINI_TSK.replace("TASK High { TerminateTask(); }",
                         "TASK High { Schedule(); TerminateTask(); }")))
    assert one.boot.tasks == other.boot.tasks
    assert plain_snapshot(one.boot) != plain_snapshot(other.boot)
    for _ in range(2):
        for graph in (one, other):
            for state in (graph.boot, *graph.nodes.values()):
                assert canonical_snapshot(state) == plain_snapshot(state)
