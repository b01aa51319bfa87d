"""What a fresh process loads: the command-line module, ``run`` and
``search-final`` need neither the LTL layer nor ``dataclasses``, and
``ltlmc`` and ``conform`` load theirs when they are the first command."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import MINI_OIL, MINI_TSK
from osekcheck.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("osekcheck.ltl", "osekcheck.conformance", "dataclasses")


def fresh(*argv: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.fixture
def mini(tmp_path) -> dict[str, Path]:
    files = {"oil": MINI_OIL, "tsk": MINI_TSK,
             "ltl": "no_deadlock: [] !deadlocked\n"
                    "high_never_runs: [] !running(High)\n",
             "report": "".join(f"{pid} = pass\n" for pid in
                               ("DF", "ME", "PIF", "SF", "PE", "MAF")),
             "props": "DF\nXYZ\n"}
    for name, text in files.items():
        (tmp_path / f"mini.{name}").write_text(text)
    return {name: tmp_path / f"mini.{name}" for name in files}


def test_cli_import_and_run_load_no_ltl_layer():
    command = ("import sys\n"
               "from osekcheck.cli import main\n"
               f"lazy = {LAZY!r}\n"
               "print(sorted(m for m in lazy if m in sys.modules))\n"
               "for command in ('run', 'search-final'):\n"
               "    main([command, sys.argv[1], sys.argv[2]])\n"
               "print(sorted(m for m in lazy if m in sys.modules))\n")
    proc = fresh("-c", command, str(SRC.parent / "corpus" / "ems.oil"),
                 str(SRC.parent / "corpus" / "ems.tsk"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"


def test_no_source_module_imports_dataclasses():
    for path in sorted((SRC / "osekcheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {n.split(".")[0] for n in names}, \
                path.name


def argv_of(command: str, mini: dict[str, Path]) -> list[str]:
    argv = [command, str(mini["oil"]), str(mini["tsk"])]
    if command == "ltlmc":
        return argv + ["--formula", str(mini["ltl"])]
    return argv + ["--test-report", str(mini["report"])]


@pytest.mark.parametrize("command, code", [("ltlmc", 2), ("conform", 0)])
def test_checking_command_as_first_command(capsys, mini, command, code):
    argv = argv_of(command, mini)
    assert main(argv) == code
    expected = capsys.readouterr()
    proc = fresh("-m", "osekcheck.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected.out, expected.err)


def test_unknown_property_as_first_command(mini):
    proc = fresh("-m", "osekcheck.cli",
                 *argv_of("conform", mini), "--props", str(mini["props"]))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: unknown properties: XYZ"]
