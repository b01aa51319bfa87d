"""Digest the state graphs of fixed apps, node by node.

Two checkouts whose digests are equal explore the same graphs: the same
node and edge counts, and for every node the same snapshot text, edges
(choice and target) and parent (node and choice).  This is the differential
check for refactors of the state or the explorer.  Each line covers one app
in one idle mode (``jump``, ``unit``) and one error semantics (continue,
strict).  Each app's concrete graphs come first; then the ``checking``
lines digest the graphs that ``conform`` checks, built as
``conformance.verify_all`` builds them: keyed up to counter rotation and
alarm call order unless a body calls SetAbsAlarm.  The apps are both
corpus configurations, the harmonic-alarm app of
``perfbench/harmonic.py`` (seed 1), the loop-shape app, the alarm-action
app (ACTIVATETASK, SETEVENT and ALARMCALLBACK expiring together), the
six-alarm app (720 handling orders per batch), the absolute-alarm app (a
body that calls SetAbsAlarm) and the looping absolute-alarm app (whose run
closes its lasso on an exact repeat) of ``tests/helpers``, and
``tests/helpers.random_app`` seeds 0-999.  The
script runs with ``PYTHONHASHSEED=0`` (re-executing itself if needed),
because the harmonic generator's identifier order follows set iteration
order.

Usage, from the root of the checkout whose package is imported::

    PYTHONPATH=src python tools/graph_digest.py [--seeds 0-999] > graphs.txt
    diff graphs-before.txt graphs-after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harmonic  # noqa: E402
from helpers import (ABS_LOOP_OIL, ABS_LOOP_TSK, ABS_OIL,  # noqa: E402
                     ABS_TSK, ACTIONS_OIL, ACTIONS_TSK, COINCIDE_OIL,
                     COINCIDE_TSK, LOOP_OIL, LOOP_TSK, make_app, random_app)
from osekcheck import explorer, ltl, timing  # noqa: E402
from osekcheck.model import canonical_snapshot  # noqa: E402


def graph_line(config, bodies, idle_mode: str, strict: bool) -> str:
    return digest_line(explorer.build_graph(config, bodies,
                                            idle_mode=idle_mode,
                                            strict=strict))


def checking_lines(config, bodies, idle_mode: str) -> dict[bool, str]:
    """The lines of the graphs that ``conformance.verify_all`` checks, keyed
    by error semantics (``True`` is strict)."""
    graphs = explorer.build_graphs(config, bodies, (False, True),
                                   idle_mode=idle_mode,
                                   rotate=ltl.rotation_sound(bodies))
    return {strict: digest_line(graph) for strict, graph in graphs.items()}


def digest_line(graph) -> str:
    digest = hashlib.sha256()
    edges = 0
    for node, state in graph.nodes.items():
        out = graph.edges[node]
        edges += len(out)
        parent = graph.parents.get(node)
        digest.update("\n".join([
            str(node), canonical_snapshot(state),
            ",".join(f"{explorer.choice_text(c)}>{t}" for c, t in out),
            "-" if parent is None
            else f"{parent[0]}:{explorer.choice_text(parent[1])}",
            ""]).encode())
    return (f"{len(graph.nodes)} {edges} {int(graph.truncated)} "
            f"{digest.hexdigest()[:32]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-999",
                        help="random_app seed range, inclusive (0-999)")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    low, high = (int(x) for x in args.seeds.split("-"))
    corpus = ROOT / "corpus"
    apps = [(name, (corpus / f"{name}.oil").read_text(),
             (corpus / "ems.tsk").read_text())
            for name in ("ems", "ems_repaired")]
    apps.append(("harmonic", *harmonic.generate(1)[:2]))
    apps.append(("loops", LOOP_OIL, LOOP_TSK))
    apps.append(("actions", ACTIONS_OIL, ACTIONS_TSK))
    apps.append(("coincide", COINCIDE_OIL, COINCIDE_TSK))
    apps.append(("abs", ABS_OIL, ABS_TSK))
    apps.append(("abs_loop", ABS_LOOP_OIL, ABS_LOOP_TSK))
    apps += [(f"random_app:{seed}", *random_app(random.Random(seed)))
             for seed in range(low, high + 1)]
    for name, oil, tsk in apps:
        config, bodies = make_app(oil, tsk)
        for idle_mode in timing.IDLE_MODES:
            for strict in (False, True):
                print(f"{name} {idle_mode} strict={int(strict)} "
                      f"{graph_line(config, bodies, idle_mode, strict)}",
                      flush=True)
        for idle_mode in timing.IDLE_MODES:
            for strict, line in checking_lines(config, bodies,
                                               idle_mode).items():
                print(f"{name} {idle_mode} checking strict={int(strict)} "
                      f"{line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
