"""osekcheck benchmark: time to verdict and states/s, end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Drives ``osekcheck.cli.main`` in-process from one closed-loop caller (no
threads, no ``--workers``), with default interpreter settings, GC on and
default CLI flags apart from the inputs.  stdout is kept in memory and there
is no ``--out``, so no disk I/O enters the timings.  Every invocation's exit
code and verdict lines are checked against the expected answer.

``--trace 0`` runs whole passes over the workload for at least ``--seconds``
and until the run holds MIN_SAMPLES invocations, and prints the end-to-end
metrics.  ``--seconds`` is thus a minimum.  With ``--seconds 15`` on two
shared vCPUs every workload measures a fixed number of passes, so a change
of machine speed does not change how many samples a run has: corpus 5
passes of 8 invocations (35 to 45 s timed), harmonic 10 passes of 4 (15 to
21 s), random_sweep 2 passes of 576 (17 to 22 s).
``--trace 1`` runs one pass of the same inputs twice untraced and twice with
every public function of the program wrapped in a span, checks that the
counts of the two traced passes are identical, confirms every witness
independently, and prints the per-layer metrics; the layer table and the
spans are also written to ``.perfbench_out/``.  The metric names and units
are those of BENCHMARK.json.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn, each in a fresh process.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "harmonic", "random_sweep")
MIN_SAMPLES = 40        # so that the tail is at least p75 (10 beyond it)
COLD_STARTS = 11
SETUPS = 11             # the run's own set-up and 10 fresh processes
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
ORACLE_METRICS = ("explorer.replay.s", "explorer.replay.steps",
                  "ltl.eval_on_lasso.s")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile of the ladder with at least ten samples beyond it
    (nearest rank); returns (percentile, value).  Falls back to p50."""
    ordered = sorted(values)
    best = (50, ordered[math.ceil(0.5 * len(ordered)) - 1])
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            best = (pct, ordered[rank - 1])
    return best


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed invocations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


def run_one(workloads, invocation, tally: Tally) -> float:
    """Run one invocation and check its answer; returns its seconds."""
    code, stdout, seconds = workloads.invoke(
        invocation.app.argv(invocation.command))
    tally.record(invocation.check(code, stdout),
                 f"{invocation.app.name} {invocation.command}: exit {code}")
    return seconds


def run_pass(workloads, invocations, tally: Tally) -> float:
    """Run each invocation once; returns the seconds they took together."""
    return sum(run_one(workloads, inv, tally) for inv in invocations)


def closed_loop(workloads, workload, seconds: float, tally: Tally,
                side: list):
    """Whole passes over the workload, one caller, until the time and
    MIN_SAMPLES are both reached; returns each pass's (invocation, seconds)
    samples.  Stopping only after whole passes keeps every run's mix the
    same.

    ``side`` holds (count, measure, results) entries: measurements taken in
    fresh processes between invocations, spread evenly over the run so that
    they meet the same conditions on the machine as the invocations do.
    Their time does not count towards ``seconds``.
    """
    passes = []
    start = time.perf_counter()
    paused = 0.0

    def progress() -> float:
        """Share of the run done: the lesser of the shares of its two
        stopping conditions."""
        return min((time.perf_counter() - start - paused) / seconds,
                   sum(map(len, passes)) / MIN_SAMPLES)

    def measure_side(share: float) -> None:
        nonlocal paused
        for count, measure, results in side:
            while len(results) < math.ceil(count * share):
                begin = time.perf_counter()
                results.append(measure())
                paused += time.perf_counter() - begin

    while progress() < 1.0:
        passes.append([])
        for invocation in workload.invocations:
            passes[-1].append((invocation,
                               run_one(workloads, invocation, tally)))
            measure_side(min(1.0, progress()))
    measure_side(1.0)
    return passes


def cold_start(workload, tally: Tally) -> float:
    """Wall time of a fresh ``python -m osekcheck.cli search-final`` process
    on the workload's smallest application."""
    expected = next(inv for inv in workload.invocations
                    if inv.app == workload.smallest
                    and inv.command == "search-final")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "osekcheck.cli",
         *workload.smallest.argv("search-final")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    tally.record(expected.check(proc.returncode, proc.stdout),
                 f"cold start: exit {proc.returncode}")
    return seconds


def fresh_setup(args) -> float:
    """Set-up time of a fresh process that stops before the first timed
    call."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, workloads, workload, setup_s: float, tally: Tally):
    """Rates are the work of all the run's passes over their timed seconds.
    A p50 is the median over passes of each pass's median: corpus has two
    applications per subcommand, and a median of all their samples would
    fall in the gap between the two applications' times, where a few
    samples decide it.  Every pass has the same mix of invocations, so a
    run of whole passes measures the same mix whatever its length."""
    cold, setups = [], [setup_s]
    passes = closed_loop(
        workloads, workload, args.seconds, tally,
        [(COLD_STARTS, lambda: cold_start(workload, tally), cold),
         (SETUPS, lambda: fresh_setup(args), setups)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [sample for pass_ in passes for sample in pass_]
    pct, tail_value = tail([seconds for _, seconds in samples])

    timed = sum(seconds for _, seconds in samples)

    def rate(work):
        return sum(work(inv) for inv, _ in samples) / timed

    def p50(keep):
        return statistics.median(
            statistics.median(s for inv, s in pass_ if keep(inv))
            for pass_ in passes)

    values = {
        "setup_s": statistics.median(setups),
        "cold_start_s": statistics.median(cold),
        "verdicts_per_s": rate(lambda inv: 1),
        "states_per_s": rate(lambda inv: inv.app.states),
        "verdict_s.p50": p50(lambda inv: True),
        "verdict_s.tail": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    for command in workloads.COMMANDS:
        values[command.replace("-", "_") + "_s.p50"] = p50(
            lambda inv, command=command: inv.command == command)
    notes = {name: f"median over {len(passes)} passes of their medians"
             for name in values if name.endswith(".p50")}
    notes["setup_s"] = f"median of {len(setups)} processes"
    notes["cold_start_s"] = f"median of {len(cold)} processes"
    notes["verdict_s.tail"] = f"p{pct} of {len(samples)} samples"
    notes["verdicts_per_s"] = notes["states_per_s"] = (
        f"{len(passes)} passes, {len(samples)} invocations in {timed:.1f} s")
    return values, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def layer_values(tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer values of one traced pass, and the counts that must repeat."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    repeat: dict[str, float] = dict(tracer.counts)
    for name in tracer.names:  # traced but never called reads as zero
        stats = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        values[f"{name}.s"] = stats["s"]
        values[f"{name}.self_s"] = stats["self_s"]
        values[f"{name}.calls"] = repeat[f"{name}.calls"] = stats["calls"]
        if stats["calls"]:
            values[f"{name}.per_call"] = stats["s"] / stats["calls"] * 1e6
    values.update(tracer.counts)
    aliases = {"ltl.view_successor_calls":
               "ltl.KernelGraphView.successors.calls",
               "ltl.prop_evals": "ltl.eval_prop.calls"}
    for alias, source in aliases.items():
        if source in values:
            values[alias] = values[source]
    calls = values.get("explorer.build_graph.calls")
    edges = tracer.counts.get("explorer.build_graph.edges")
    if calls and edges:
        values["explorer.build_graph.new_state_ratio"] = (
            tracer.counts["explorer.build_graph.states"] - calls) / edges
    return values, repeat


def parsed(app):
    from osekcheck import ltl
    from osekcheck.oil_config import parse_oil
    from osekcheck.task_lang import parse_task_file

    config = parse_oil(app.config.read_text())
    bodies = parse_task_file(app.tasks.read_text(), config)
    return config, bodies, ltl.parse_formula_file(app.formulas.read_text())


def graph_peak_mb(app) -> float:
    """tracemalloc peak of one continue-on-error graph build."""
    from osekcheck import explorer

    config, bodies, _ = parsed(app)
    tracemalloc.start()
    try:
        explorer.build_graph(config, bodies)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def traced(args, workloads, workload, tally: Tally):
    import oracle
    from tracer import Tracer

    inputs = workload.invocations

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            wall = run_pass(workloads, inputs, tally)
        finally:
            tracer.uninstall()
        return (tracer, wall) + layer_values(tracer)

    # Untraced and traced passes alternate, so drift hits both alike.
    untraced = run_pass(workloads, inputs, tally)
    first, wall1, values1, repeat1 = traced_pass()
    untraced += run_pass(workloads, inputs, tally)
    _, wall2, values2, repeat2 = traced_pass()
    untraced /= 2
    if repeat1 != repeat2:
        changed = sorted(k for k in repeat1.keys() | repeat2.keys()
                         if repeat1.get(k) != repeat2.get(k))
        tally.problem(f"counts differ between two traced passes: {changed}")
    values = {k: (v + values2[k]) / 2
              if k.endswith((".s", ".self_s", ".per_call")) and k in values2
              else v for k, v in values1.items()}

    values["trace_overhead"] = (wall1 + wall2) / 2 / untraced
    notes = {"trace_overhead": f"traced {wall1:.2f}/{wall2:.2f} s vs "
                               f"untraced {untraced:.2f} s over "
                               f"{len(inputs)} invocations"}

    # Replay and the lasso evaluator are priced by the benchmark's own
    # confirmation pass, whether or not the CLI calls them.
    apps = list(dict.fromkeys(inv.app for inv in inputs))
    oracle_totals = Counter(dict.fromkeys(ORACLE_METRICS, 0))
    for key in ORACLE_METRICS:
        values.pop(key, None)
    try:
        for app in apps:
            config, bodies, formulas = parsed(app)
            for problem in oracle.confirm(config, bodies, formulas,
                                          oracle_totals):
                tally.problem(f"{app.name}: {problem}")
        values.update(oracle_totals)
        values["explorer.build_graph.peak_mb"] = graph_peak_mb(
            max(apps, key=lambda a: a.states))
    except (AttributeError, TypeError) as exc:  # the library API moved
        notes["explorer.replay.s"] = f"confirmation pass absent: {exc!r}"

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    first.write(out_dir / f"spans-{stem}.tsv.gz")
    return values, notes, out_dir / f"layers-{stem}.json"


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after the other;
    their rows are printed in turn and their results folded into one."""
    folded = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        folded["correct"] = folded["correct"] and result["correct"]
        folded["attempted"] += result["attempted"]
        folded["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            folded["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(folded))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "osekcheck" / "cli.py").is_file():
        print(f"error: no osekcheck sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace and os.environ.get("PYTHONHASHSEED") != "0":
        # The program iterates over sets of strings, so how often it calls
        # some functions depends on the hash seed; fixing it makes the
        # traced counts repeat from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".perfbench_work"))
    tally = Tally()
    try:
        workload = workloads.build(args.workload, args.seed, work)
        warm_up = workloads.warm_up_app(work)
        for command in workloads.COMMANDS:
            workloads.invoke(warm_up.argv(command))
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            values, notes, table = traced(args, workloads, workload, tally)
            declared = spec["per_layer"]
        else:
            values, notes = end_to_end(args, workloads, workload, setup_s,
                                       tally)
            declared = spec["end_to_end"]
            table = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  closed loop, 1 caller")
    for metric in declared:
        name = metric["name"]
        shown = (f"{values[name]:.6g}" if name in values else "absent")
        print(f"{name:<40} {shown:>12} {metric['unit']:<6} "
              f"{notes.get(name, '')}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_share':<40} {share:>12.6g} {'share':<6} "
          f"{tally.failed} of {tally.attempted} invocations failed")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if table is not None:
        table.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "metrics": metrics, "notes": notes}, indent=1) + "\n")
        print(f"per-layer table written to {table.relative_to(ROOT)}")
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
