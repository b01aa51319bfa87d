"""Command-line front end.

Subcommands::

    osekcheck run CONFIG TASKS            deterministic execution to rest
    osekcheck search-final CONFIG TASKS   enumerate final states and dead ends
    osekcheck ltlmc CONFIG TASKS          check temporal formulas
    osekcheck conform CONFIG TASKS        verification/testing adjudication

Exit codes: 0 success, 1 bad input, 2 deadlock / violation / inconformance,
3 step bound exhausted (run), 4 state budget exhausted (an exploring
command), 5 formulas hold only up to the exploration bound (ltlmc).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import explorer, kernel_core, timing
from .model import ALLIDLE, DEADLOCK, NORMAL, rotated
from .oil_config import KernelConfig, OilError, parse_oil
from .task_lang import TaskBody, parse_task_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_BOUND = 3
EXIT_BUDGET = 4
EXIT_BOUNDED_ONLY = 5


class CliInputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc


def _load_app(config_path: str,
              tasks_path: str) -> tuple[KernelConfig, dict[str, TaskBody]]:
    try:
        config = parse_oil(_read(config_path))
    except OilError as exc:
        raise CliInputError(f"{config_path}: {exc}") from exc
    for warning in config.warnings:
        print(f"warning: {config_path}: {warning.code}: {warning.message}",
              file=sys.stderr)
    warnings: list = []
    try:
        bodies = parse_task_file(_read(tasks_path), config, warnings)
    except OilError as exc:
        raise CliInputError(f"{tasks_path}: {exc}") from exc
    for warning in warnings:
        print(f"warning: {tasks_path}: {warning.code}: {warning.message}",
              file=sys.stderr)
    return config, bodies


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliInputError(f"cannot create {path}: {exc}") from exc
    return path


def _write(target: Path, text: str) -> None:
    try:
        target.write_text(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {target}: {exc}") from exc


def _emit_trace(trace: explorer.Trace, fmt: str, out: Path | None,
                name: str) -> None:
    text = explorer.render_trace(trace, fmt)
    if out is None:
        print(text)
    else:
        target = out / f"{name}.trace"
        _write(target, text)
        print(f"trace written to {target}")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    config, bodies = _load_app(args.config, args.tasks)
    state = kernel_core.boot(config, bodies, args.idle_tick_mode)
    modulus = state.program.modulus
    key = rotated if explorer.rotation_sound(bodies) else (lambda s: s)
    states = [state]
    first_index = {key(state): 0}
    outcome = lasso_start = rotation = None
    for _ in range(args.bound):
        if state.status != NORMAL:
            outcome = state.status
            break
        result = explorer.step(state, None, strict=True)
        if result.status in (ALLIDLE, DEADLOCK):
            outcome = result.status
            break
        first = first_index.setdefault(key(result), len(states))
        if first < len(states):
            # A strict step reads only the compared cells and commutes with
            # rotation, so the run goes round states[first:] for ever, each
            # round moving the counter as far as this one.
            lasso_start = first
            if result != states[first]:
                rotation = ((result.counter_value
                             - states[first].counter_value) % modulus)
            break
        state = result
        states.append(state)
    choices = (None,) * (len(states) - (lasso_start is None))
    trace = explorer.Trace(tuple(states), choices, lasso_start, strict=True,
                           rotation=rotation)
    _emit_trace(trace, args.trace_format, _out_dir(args), "run")
    steps, counter = len(states) - 1, state.counter_value
    if lasso_start is not None:
        steps = args.bound
        rounds, offset = divmod(steps - lasso_start,
                                len(states) - lasso_start)
        counter = (states[lasso_start + offset].counter_value
                   + rounds * (rotation or 0)) % modulus
    if outcome is None:
        print(f"result: step bound {args.bound} exhausted after {steps} "
              f"steps (counter={counter})")
        return EXIT_BOUND
    print(f"result: {outcome} after {steps} steps (counter={counter})")
    return EXIT_OK if outcome == ALLIDLE else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# search-final
# ---------------------------------------------------------------------------


def cmd_search_final(args: argparse.Namespace) -> int:
    config, bodies = _load_app(args.config, args.tasks)
    result = explorer.search_final(config, bodies, bound=args.bound,
                                   idle_mode=args.idle_tick_mode)
    out = _out_dir(args)
    print(f"visited {result.visited} states"
          + (" (bound reached, exploration incomplete)"
             if result.truncated else ""))
    print(f"all-idle finals: {len(result.finals)}")
    print(f"dead ends: {len(result.deadlocks)}")
    for index, record in enumerate(result.finals):
        state = record.state
        print(f"final {index}: counter={state.counter_value} "
              f"steps={len(record.trace.states) - 1}")
        _emit_trace(record.trace, args.trace_format, out, f"final-{index}")
    for index, record in enumerate(result.deadlocks):
        state = record.state
        print(f"dead end {index}: status={state.status} "
              f"counter={state.counter_value} "
              f"steps={len(record.trace.states) - 1}")
        _emit_trace(record.trace, args.trace_format, out,
                    f"deadlock-{index}")
    return EXIT_VIOLATION if result.deadlocks else EXIT_OK


# ---------------------------------------------------------------------------
# ltlmc
# ---------------------------------------------------------------------------


def cmd_ltlmc(args: argparse.Namespace) -> int:
    from . import conformance, ltl  # only the checking commands load them

    config, bodies = _load_app(args.config, args.tasks)
    try:
        formulas = ltl.parse_formula_file(_read(args.formula))
        for _, formula in formulas:
            ltl.validate_formula(formula, config)
    except ltl.LtlError as exc:
        print(f"error: {args.formula}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not formulas:
        print(f"error: {args.formula}: no formulas", file=sys.stderr)
        return EXIT_INPUT
    graphs = explorer.build_graphs(
        config, bodies, {ltl.mentions_deadlock(f) for _, f in formulas},
        bound=args.bound, idle_mode=args.idle_tick_mode,
        rotate=ltl.rotation_sound(bodies, (f for _, f in formulas)))
    out = _out_dir(args)
    any_violated = False
    any_bounded = False
    views = {strict: ltl.KernelGraphView(graph)
             for strict, graph in graphs.items()}
    for name, formula in formulas:
        view = views[ltl.mentions_deadlock(formula)]
        result = ltl.model_check(view, formula)
        print(f"{name}: {result.verdict}   {formula}")
        if result.verdict == "violated":
            any_violated = True
            trace = conformance.lasso_to_trace(view.graph, result)
            _emit_trace(trace, args.trace_format, out, name)
        elif result.verdict == "bounded_holds":
            any_bounded = True
    if any_violated:
        return EXIT_VIOLATION
    if any_bounded:
        print("note: some formulas verified only up to the exploration bound")
        return EXIT_BOUNDED_ONLY
    return EXIT_OK


# ---------------------------------------------------------------------------
# conform
# ---------------------------------------------------------------------------


def cmd_conform(args: argparse.Namespace) -> int:
    from . import conformance  # only the checking commands load it

    config, bodies = _load_app(args.config, args.tasks)
    try:
        testing = conformance.parse_test_report(_read(args.test_report))
        selected: tuple[str, ...] | None = None
        if args.props is not None:
            names = []
            for raw in _read(args.props).splitlines():
                line = raw.split("#", 1)[0].strip()
                if line:
                    names.append(line)
            if not names:
                raise CliInputError(f"{args.props}: no properties listed")
            selected = tuple(names)
        results = conformance.verify_all(
            config, bodies, bound=args.bound, idle_mode=args.idle_tick_mode,
            properties=selected)
        rows = conformance.adjudicate(results, testing)
    except conformance.AdjudicationError as exc:
        raise CliInputError(str(exc)) from exc
    out = _out_dir(args)
    witness_paths: dict[str, str] = {}
    if out is not None:
        for pid, result in results.items():
            if result.witness is not None:
                target = out / f"witness-{pid}.trace"
                _write(target, explorer.render_trace(result.witness,
                                                     args.trace_format))
                witness_paths[pid] = str(target)
    report = conformance.emit_report(rows, results, witness_paths)
    print(report, end="")
    if out is not None:
        _write(out / "report.txt", report)
    conforms = all(r.kernel_conform and r.app_conform for r in rows)
    return EXIT_OK if conforms else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="kernel configuration file")
    sub.add_argument("tasks", help="task body file")
    sub.add_argument("--bound", type=int, default=10_000,
                     help="exploration depth bound (default 10000)")
    sub.add_argument("--out", default=None,
                     help="directory for trace and report files")
    sub.add_argument("--trace-format", choices=("text", "machine"),
                     default="text", help="trace rendering style")
    sub.add_argument("--idle-tick-mode", choices=timing.IDLE_MODES,
                     default=timing.JUMP,
                     help="idle time passes in one jump or unit ticks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osekcheck",
        description="execute and verify static-priority kernel applications")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute deterministically until rest or error")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    search = commands.add_parser(
        "search-final", help="enumerate reachable final states and dead ends")
    _add_common(search)
    search.set_defaults(func=cmd_search_final)

    ltlmc = commands.add_parser(
        "ltlmc", help="model-check temporal formulas over all executions")
    _add_common(ltlmc)
    ltlmc.add_argument("--formula", required=True,
                       help="file of named formulas, one per line")
    ltlmc.set_defaults(func=cmd_ltlmc)

    conform = commands.add_parser(
        "conform", help="adjudicate verification against test results")
    _add_common(conform)
    conform.add_argument("--props", default=None,
                         help="file listing property ids to check")
    conform.add_argument("--test-report", required=True,
                         help="file of 'property = pass|fail' lines")
    conform.set_defaults(func=cmd_conform)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "bound", 1) <= 0:
        print("error: --bound must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (CliInputError, kernel_core.BootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except explorer.ResourceLimit as exc:
        print(f"error: state budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
