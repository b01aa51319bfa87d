"""Freeze the expected answers of the generated workloads.

    python3 perfbench/freeze.py

Runs every harmonic and random_app input through the four subcommands and
writes the exit codes, verdict lines and state counts to perfbench/frozen/,
with each random_app's measured cost, by which random_sweep draws its sample.
Before anything is written, every violation witness is replayed and every
LTL lasso is refuted again by the independent lasso evaluator, and the
harmonic generator is checked to give the same answers for several seeds.
Run it only when the expected answers must change on purpose; the benchmark
reads the frozen files and never rewrites them.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from osekcheck import explorer, ltl  # noqa: E402
from osekcheck.oil_config import parse_oil  # noqa: E402
from osekcheck.task_lang import parse_task_file  # noqa: E402
from verdicts import digest, verdict_lines  # noqa: E402

POOL_SIZE = 1000
HARMONIC_SEEDS = range(4)
COST_REPEATS = 3


def answers(app: workloads.App):
    """(exit code, verdict lines) per subcommand, and the app's cost: the
    least over COST_REPEATS passes of the seconds the four subcommands take
    together.  Every pass must give the same answers."""
    frozen, costs = None, []
    for _ in range(COST_REPEATS):
        out, cost = {}, 0.0
        for command in workloads.COMMANDS:
            code, stdout, seconds = workloads.invoke(app.argv(command))
            if not isinstance(code, int):
                sys.exit(f"{app.name} {command}: {code}")
            out[command] = (code, verdict_lines(command, stdout))
            cost += seconds
        if frozen is not None and out != frozen:
            sys.exit(f"{app.name}: answers differ between passes")
        frozen = out
        costs.append(cost)
    return frozen, min(costs)


def explore(app: workloads.App) -> int:
    """Confirm the witnesses of ``app``; return its reachable state count."""
    config = parse_oil(app.config.read_text())
    bodies = parse_task_file(app.tasks.read_text(), config)
    formulas = ltl.parse_formula_file(app.formulas.read_text())
    problems = oracle.confirm(config, bodies, formulas, Counter())
    if problems:
        sys.exit(f"{app.name}: " + "; ".join(problems))
    return len(explorer.build_graph(config, bodies).nodes)


def freeze_harmonic(work: Path) -> None:
    frozen = None
    for seed in HARMONIC_SEEDS:
        app = workloads.harmonic_app(seed, work, 0)
        result = (answers(app)[0], explore(app))
        if frozen is not None and result != frozen:
            sys.exit(f"harmonic seed {seed} differs from seed 0")
        frozen = result
    by_command, states = frozen
    for command, (_, lines) in by_command.items():
        if any(ch in line for line in lines for ch in "*?["):
            sys.exit(f"harmonic {command}: verdict line is not a literal")
    text = workloads.format_expectations(
        {"harmonic": states},
        {("harmonic", c): v for c, v in by_command.items()})
    header = ("# Frozen by perfbench/freeze.py: expected answers of the "
              "harmonic workload,\n# identical for every seed.\n\n")
    workloads.HARMONIC_EXPECTED.write_text(header + text)
    print(f"harmonic: {states} states, frozen")


def freeze_random_pool(work: Path) -> None:
    rows = []
    for seed in range(POOL_SIZE):
        app = workloads.random_app_files(seed, work, 0)
        result, cost = answers(app)
        states = explore(app)
        visited = int(result["search-final"][1][0].split()[1])
        cells = [f"{code}:{digest(lines)}" for code, lines in result.values()]
        rows.append(f"{seed} {states} {visited} {cost * 1000:.3f} "
                    + " ".join(cells))
        if seed % 100 == 99:
            print(f"random pool: {seed + 1} apps", flush=True)
    header = ("# Frozen by perfbench/freeze.py: one line per random_app seed."
              "\n# seed states visited cost_ms, then exit:digest of the "
              "verdict lines\n# for " + " ".join(workloads.COMMANDS) + ".\n"
              "# cost_ms: least of " + str(COST_REPEATS) + " timings of the "
              "four subcommands together.\n")
    workloads.RANDOM_POOL.write_text(header + "\n".join(rows) + "\n")


def main() -> None:
    workloads.RANDOM_POOL.parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench_freeze_", dir=ROOT))
    try:
        freeze_harmonic(work)
        freeze_random_pool(work)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
