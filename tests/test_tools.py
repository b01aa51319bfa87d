"""The parity tools in ``tools/`` still run against the current API.

Each tool's core is run once on the smallest canned app and once on the app
whose batches fire every alarm action.  The tools themselves take minutes,
so they are only run by hand, to compare two checkouts; a slice of
``graph_digest``'s output is frozen in ``frozen_graphs.txt`` and checked
here.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from helpers import (ACTIONS_OIL, ACTIONS_TSK, COINCIDE_OIL, COINCIDE_TSK,
                     LOOP_OIL, LOOP_TSK, MINI_OIL, MINI_TSK, make_app,
                     random_app)
from osekcheck import explorer, timing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cli_digest  # noqa: E402
import graph_digest  # noqa: E402

# ``graph_digest`` lines of the loop-shape app, the alarm-action app and
# random_app seeds 0-99, in both idle modes and both error semantics,
# recorded while states were frozen dataclasses that carried the
# configuration and the bodies; they pin the snapshots, edges and parents of
# every node against that implementation.  The six-alarm app's lines were
# recorded while every handling order of a batch was handled on its own.
FROZEN_GRAPHS = Path(__file__).with_name("frozen_graphs.txt")


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
    changed = []
    for line in FROZEN_GRAPHS.read_text().splitlines():
        name, idle_mode, strict, expected = line.split(" ", 3)
        if name not in apps:
            apps[name] = frozen_app(name)
        actual = graph_digest.graph_line(*apps[name], idle_mode,
                                         strict == "strict=1")
        if actual != expected:
            changed.append(f"{name} {idle_mode} {strict}: {actual}")
    assert changed == []
