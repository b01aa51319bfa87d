"""The three workloads: their inputs, expected answers and invocations.

A workload is one pass: a list of CLI invocations.  The closed loop runs
whole passes, so every run sees the same mix of invocations.  Inputs come
from the seed; expectations come from files that were written by hand
(corpus) or frozen when the benchmark was built (harmonic, random_sweep; see
freeze.py).
"""

from __future__ import annotations

import io
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import harmonic
from verdicts import digest, lines_match, verdict_lines

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
CORPUS = ROOT / "corpus"
COMMANDS = ("run", "search-final", "ltlmc", "conform")

ALL_PASS_REPORT = "".join(f"{pid} = pass\n"
                          for pid in ("DF", "ME", "PIF", "SF", "PE", "MAF"))
# Valid for every random_app application: T0 always exists.
RANDOM_FORMULAS = ("no_limit: [] !error(E_OS_LIMIT)\n"
                   "no_deadlock: [] !deadlocked\n"
                   "first_recurs: [] <> running(T0)\n"
                   "first_served: [] (ready(T0) -> <> running(T0))\n")
RANDOM_POOL = BENCH / "frozen" / "random_pool.tsv"
HARMONIC_EXPECTED = BENCH / "frozen" / "harmonic.txt"
RANDOM_APPS_PER_RUN = 144   # a pass over them takes about 10 s
RANDOM_ALWAYS_DRAWN = 5
BOUND_EXHAUSTED = 3  # exit code of `run` when the step bound runs out
WARM_UP_SEED = 2     # random_app seed of the smallest pool application


@dataclass(frozen=True)
class App:
    name: str
    config: Path
    tasks: Path
    formulas: Path
    report: Path
    props: Path | None
    states: int  # reachable states, continue-on-error, frozen

    def argv(self, command: str) -> list[str]:
        argv = [command, str(self.config), str(self.tasks)]
        if command == "ltlmc":
            argv += ["--formula", str(self.formulas)]
        elif command == "conform":
            argv += ["--test-report", str(self.report)]
            if self.props is not None:
                argv += ["--props", str(self.props)]
        return argv


@dataclass(frozen=True)
class Invocation:
    app: App
    command: str
    exit_code: int
    patterns: tuple[str, ...] | None = None  # shell patterns, one per line
    lines_digest: str | None = None          # or a digest of exact lines

    def check(self, code, stdout: str) -> bool:
        """Exit code and verdict lines equal the expected answer."""
        if code != self.exit_code:
            return False
        lines = verdict_lines(self.command, stdout)
        if self.patterns is not None:
            return lines_match(self.patterns, lines)
        return digest(lines) == self.lines_digest


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]  # one pass
    smallest: App  # cold start runs on this one


def invoke(argv: list[str]) -> tuple[object, str, float]:
    """Run one CLI invocation in-process with its output kept in memory.

    Returns (exit code, stdout, seconds).  A crash gives a text exit code,
    which never equals an expected one.
    """
    from osekcheck import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed answer
        code = f"crash {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


# ---------------------------------------------------------------------------
# expectation files
# ---------------------------------------------------------------------------


def parse_expectations(text: str):
    """Read ``states APP N`` lines and ``[APP COMMAND] EXIT`` sections.

    Each section lists the expected verdict lines as shell patterns.
    Returns ({app: states}, {(app, command): (exit, patterns)}).
    """
    states: dict[str, int] = {}
    sections: dict[tuple[str, str], tuple[int, list[str]]] = {}
    current: list[str] | None = None
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        if raw.startswith("states "):
            _, app, count = raw.split()
            states[app] = int(count)
        elif raw.startswith("["):
            head, code = raw.rsplit("]", 1)
            app, command = head[1:].split()
            current = []
            sections[(app, command)] = (int(code), current)
        elif current is None:
            raise ValueError(f"verdict line outside a section: {raw!r}")
        else:
            current.append(raw)
    return states, {key: (code, tuple(lines))
                    for key, (code, lines) in sections.items()}


def format_expectations(states: dict[str, int],
                        sections: dict[tuple[str, str],
                                       tuple[int, list[str]]]) -> str:
    out = [f"states {app} {count}" for app, count in states.items()]
    for (app, command), (code, lines) in sections.items():
        out += ["", f"[{app} {command}] {code}", *lines]
    return "\n".join(out) + "\n"


def _expected_invocations(apps: list[App], path: Path) -> list[Invocation]:
    _, sections = parse_expectations(path.read_text())
    out = []
    for app in apps:
        for command in COMMANDS:
            code, patterns = sections[(app.name, command)]
            out.append(Invocation(app, command, code, patterns=patterns))
    return out


def read_random_pool() -> list[dict]:
    """Frozen facts per random_app seed, in seed order."""
    pool = []
    for raw in RANDOM_POOL.read_text().splitlines():
        if raw.startswith("#") or not raw.strip():
            continue
        seed, states, visited, cost_ms, *answers = raw.split()
        expected = {}
        for command, answer in zip(COMMANDS, answers):
            code, lines_digest = answer.split(":")
            expected[command] = (int(code), lines_digest)
        pool.append({"seed": int(seed), "states": int(states),
                     "visited": int(visited), "cost_ms": float(cost_ms),
                     "expected": expected})
    return pool


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def corpus(seed: int, work: Path) -> Workload:
    """Both corpus configurations through all four subcommands."""
    states, _ = parse_expectations(
        (BENCH / "corpus_expected.txt").read_text())
    apps = [App(name, CORPUS / f"{name}.oil", CORPUS / "ems.tsk",
                CORPUS / "ems.ltl", CORPUS / "ems_tests.report",
                CORPUS / "ems.props", states[name])
            for name in ("ems", "ems_repaired")]
    invocations = _expected_invocations(apps,
                                        BENCH / "corpus_expected.txt")
    random.Random(seed).shuffle(invocations)
    # Strict exploration of ems stops at the overflow after a few states.
    return Workload("corpus", invocations, apps[0])


def harmonic_app(seed: int, work: Path, states: int) -> App:
    oil, tsk, formulas = harmonic.generate(seed)
    return App("harmonic", _write(work / "harmonic.oil", oil),
               _write(work / "harmonic.tsk", tsk),
               _write(work / "harmonic.ltl", formulas),
               _write(work / "all_pass.report", ALL_PASS_REPORT), None,
               states)


def harmonic_workload(seed: int, work: Path) -> Workload:
    """One harmonic-alarm application whose identifiers come from the seed."""
    states, _ = parse_expectations(HARMONIC_EXPECTED.read_text())
    app = harmonic_app(seed, work, states["harmonic"])
    invocations = _expected_invocations([app], HARMONIC_EXPECTED)
    random.Random(seed).shuffle(invocations)
    return Workload("harmonic", invocations, app)


def random_app_files(app_seed: int, work: Path, states: int) -> App:
    from helpers import random_app

    oil, tsk = random_app(random.Random(app_seed))
    formulas = work / "random.ltl"
    report = work / "all_pass.report"
    if not formulas.exists():
        _write(formulas, RANDOM_FORMULAS)
        _write(report, ALL_PASS_REPORT)
    return App(f"random_app:{app_seed}",
               _write(work / f"app{app_seed}.oil", oil),
               _write(work / f"app{app_seed}.tsk", tsk),
               formulas, report, None, states)


def random_sweep(seed: int, work: Path) -> Workload:
    """A stratified sample of the frozen random_app pool.

    Apps whose ``run`` never rests are left out: their ``run`` prints a
    10000-step trace, the cost the corpus workload already weights, and on
    this workload it would swamp the per-invocation fixed costs it is meant
    to price.  The rest of the pool is sorted by the cost freeze.py measured.
    Its five costliest apps cost twenty to fifty times the median, so they
    are in every sample; the others are cut into as many strata as apps are
    drawn, and the seed picks one app per stratum.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    rng = random.Random(seed)
    pool = sorted((entry for entry in read_random_pool()
                   if entry["expected"]["run"][0] != BOUND_EXHAUSTED),
                  key=lambda e: (e["cost_ms"], e["seed"]))
    rest = pool[:-RANDOM_ALWAYS_DRAWN]
    count = RANDOM_APPS_PER_RUN - RANDOM_ALWAYS_DRAWN
    sample = [rest[rng.randrange(len(rest) * i // count,
                                 len(rest) * (i + 1) // count)]
              for i in range(count)] + pool[-RANDOM_ALWAYS_DRAWN:]
    apps = {}
    invocations = []
    for entry in sample:
        app = apps[entry["seed"]] = random_app_files(
            entry["seed"], work, entry["states"])
        for command in COMMANDS:
            code, lines_digest = entry["expected"][command]
            invocations.append(Invocation(app, command, code,
                                          lines_digest=lines_digest))
    rng.shuffle(invocations)
    smallest = min(sample, key=lambda e: (e["visited"], e["seed"]))
    return Workload("random_sweep", invocations, apps[smallest["seed"]])


def warm_up_app(work: Path) -> App:
    """A four-state random_app application that takes every subcommand
    through its code paths in milliseconds."""
    sys.path.insert(0, str(ROOT / "tests"))
    return random_app_files(WARM_UP_SEED, work, 0)


def build(name: str, seed: int, work: Path) -> Workload:
    builders = {"corpus": corpus, "harmonic": harmonic_workload,
                "random_sweep": random_sweep}
    return builders[name](seed, work)
