"""Digest stdout, stderr and exit code of each CLI subcommand on fixed apps.

Two checkouts whose digests are equal print the same bytes on stdout and
stderr (warnings and ``error:`` lines, with their line numbers) and exit
with the same codes.  Each line ends with ``verdicts=<digest>``, the digest
of the stdout lines that state the answer (``perfbench/verdicts.py``), so
two checkouts whose traces differ can still be shown to give the same
verdicts.  File paths in the output are replaced by ``<root>``
(the checkout) and ``<work>`` (the scratch directory of generated apps), so
checkouts in different directories compare equal.  The apps are both
corpus configurations, the harmonic-alarm app of ``perfbench/harmonic.py``
(seed 1), the loop-shape app of ``tests/helpers`` (nested loops, a split
TimeInterval inside a loop, code after a loop and after TerminateTask, an
empty body), the alarm-action app of ``tests/helpers`` (ACTIVATETASK,
SETEVENT and ALARMCALLBACK expiring together), the six-alarm app of
``tests/helpers`` (720 handling orders per batch) and
``tests/helpers.random_app`` seeds 0-999; each goes through
``run``, ``search-final``, ``ltlmc`` and ``conform`` in ``--trace-format``
``text`` and ``machine``; in each format ``run`` also goes with
``--idle-tick-mode unit`` and with ``--bound 7919``, which ends part-way
through the cycle of ``ems_repaired`` and of all but one of the random apps
whose run goes round a cycle.  The corpus, harmonic, loop-shape,
alarm-action and six-alarm apps also go through ``conform`` on property
subsets that need one error semantics or both.
``search-final``, ``ltlmc`` and ``conform`` run once more with ``--out``
into the scratch directory, and every file written there (trace files and
``report.txt``) is digested by name and content next to the output.
``ems_repaired`` also goes through ``ltlmc`` with ``--out`` on a fixed file
of formulas that stress the LTL translation: nested untils of 3 to 7
operands, a 100-operand conjunction and one formula using every operator.
The script runs with ``PYTHONHASHSEED=0`` (re-executing itself if needed),
because the harmonic generator's identifier order follows set iteration
order.

Usage, from the root of the checkout whose package is imported::

    PYTHONPATH=src python tools/cli_digest.py [--seeds 0-999] > digests.txt
    diff digests-before.txt digests-after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harmonic  # noqa: E402
import verdicts  # noqa: E402
from helpers import (ACTIONS_LTL, ACTIONS_OIL, ACTIONS_TSK,  # noqa: E402
                     COINCIDE_LTL, COINCIDE_OIL, COINCIDE_TSK, LOOP_LTL,
                     LOOP_OIL, LOOP_TSK, random_app)
from osekcheck import cli  # noqa: E402
from workloads import ALL_PASS_REPORT, RANDOM_FORMULAS  # noqa: E402

CORPUS = ROOT / "corpus"
CUT_BOUND = "7919"
PROP_SUBSETS = ("DF", "ME\nPIF\nMAF", "DF\nSF", "DF\nPE\nMAF")
EMS_TASKS = ("Task_10ms", "EMS_Task_10ms", "EMS_Task_100ms",
             "EMS_Adap_Task_10ms", "SystemInit")
STRESS_FORMULAS = "\n".join(
    [f"until{k}: [] <> ("
     + "".join(f"!running({EMS_TASKS[i % 5]}) U " for i in range(k))
     + f"running({EMS_TASKS[k % 5]}))" for k in range(2, 7)]
    + ["chain100: " + " & ".join(f"!counter_eq({i})" for i in range(100)),
       "every_op: [] (ready(Task_10ms) -> <> running(Task_10ms)) && "
       "(G !deadlocked || F [] suspended(SystemInit)) & (X true | "
       "!(waiting(EMS_Adap_Task_10ms) U false)) -> (running(SystemInit) U "
       "(expired(AL_Task_10ms) U set(Adap_Event, EMS_Adap_Task_10ms)) | "
       "wait(Adap_Event, EMS_Adap_Task_10ms) | error(E_OS_LIMIT))"]) + "\n"


def _portable(text: str, work: Path) -> str:
    return text.replace(str(work), "<work>").replace(str(ROOT), "<root>")


def _hash(text: str, work: Path) -> str:
    data = _portable(text, work).encode()
    return f"{hashlib.sha256(data).hexdigest()[:16]} {len(data)}"


def digest(argv: list[str], work: Path) -> str:
    """Exit code, stdout and stderr digests, then one ``name=digest`` per
    file the command wrote under ``work/out`` (which is removed after),
    then ``verdicts=`` and the digest of stdout's verdict lines."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is part of the answer
        code = f"crash:{type(exc).__name__}"
    line = (f"{code} {_hash(out.getvalue(), work)} "
            f"{_hash(err.getvalue(), work)}")
    files = work / "out"
    if files.exists():
        for path in sorted(p for p in files.rglob("*") if p.is_file()):
            line += (f" {path.relative_to(files)}="
                     f"{_hash(path.read_text(), work)}")
        shutil.rmtree(files)
    answer = verdicts.verdict_lines(argv[0],
                                    _portable(out.getvalue(), work))
    return f"{line} verdicts={verdicts.digest(answer)}"


def invocations(name, oil, tsk, ltl, report, subsets, out):
    for fmt in ("text", "machine"):
        common = ["--trace-format", fmt]
        yield f"{name} run {fmt}", ["run", oil, tsk, *common]
        yield (f"{name} run {fmt} unit",
               ["run", oil, tsk, *common, "--idle-tick-mode", "unit"])
        yield (f"{name} run {fmt} --bound {CUT_BOUND}",
               ["run", oil, tsk, *common, "--bound", CUT_BOUND])
        yield (f"{name} search-final {fmt}",
               ["search-final", oil, tsk, *common])
        yield (f"{name} ltlmc {fmt}",
               ["ltlmc", oil, tsk, "--formula", ltl, *common])
        yield (f"{name} conform {fmt}",
               ["conform", oil, tsk, "--test-report", report, *common])
        for label, props in subsets:
            yield (f"{name} conform[{label}] {fmt}",
                   ["conform", oil, tsk, "--test-report", report,
                    "--props", props, *common])
        common += ["--out", out]
        yield (f"{name} search-final {fmt} --out",
               ["search-final", oil, tsk, *common])
        yield (f"{name} ltlmc {fmt} --out",
               ["ltlmc", oil, tsk, "--formula", ltl, *common])
        yield (f"{name} conform {fmt} --out",
               ["conform", oil, tsk, "--test-report", report, *common])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-999",
                        help="random_app seed range, inclusive (0-999)")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    low, high = (int(x) for x in args.seeds.split("-"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def write(name: str, text: str) -> str:
            (work / name).write_text(text)
            return str(work / name)

        report = write("all_pass.report", ALL_PASS_REPORT)
        subsets = [(s.replace("\n", "+"), write(f"props{i}", s + "\n"))
                   for i, s in enumerate(PROP_SUBSETS)]
        apps = [(name, str(CORPUS / f"{name}.oil"), str(CORPUS / "ems.tsk"),
                 str(CORPUS / "ems.ltl"), report, subsets)
                for name in ("ems", "ems_repaired")]
        oil, tsk, formulas = harmonic.generate(1)
        apps.append(("harmonic", write("h.oil", oil), write("h.tsk", tsk),
                     write("h.ltl", formulas), report, subsets))
        apps.append(("loops", write("loops.oil", LOOP_OIL),
                     write("loops.tsk", LOOP_TSK),
                     write("loops.ltl", LOOP_LTL), report, subsets))
        apps.append(("actions", write("actions.oil", ACTIONS_OIL),
                     write("actions.tsk", ACTIONS_TSK),
                     write("actions.ltl", ACTIONS_LTL), report, subsets))
        apps.append(("coincide", write("coincide.oil", COINCIDE_OIL),
                     write("coincide.tsk", COINCIDE_TSK),
                     write("coincide.ltl", COINCIDE_LTL), report, subsets))
        stress = write("stress.ltl", STRESS_FORMULAS)
        for fmt in ("text", "machine"):
            argv = ["ltlmc", str(CORPUS / "ems_repaired.oil"),
                    str(CORPUS / "ems.tsk"), "--formula", stress,
                    "--trace-format", fmt, "--out", str(work / "out")]
            print(f"ems_repaired ltlmc[stress] {fmt} --out "
                  f"{digest(argv, work)}", flush=True)
        random_ltl = write("random.ltl", RANDOM_FORMULAS)
        for seed in range(low, high + 1):
            oil, tsk = random_app(random.Random(seed))
            apps.append((f"random_app:{seed}", write(f"{seed}.oil", oil),
                         write(f"{seed}.tsk", tsk), random_ltl, report, []))
        for app in apps:
            for label, argv in invocations(*app, str(work / "out")):
                print(f"{label} {digest(argv, work)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
