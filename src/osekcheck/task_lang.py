"""Task bodies in a small C-like statement language.

A task file contains ``TASK name { ... };`` blocks whose bodies are sequences
of kernel service calls, ``TimeInterval = N;`` computation placeholders and
``while(true){ ... }`` loops.  Variable declarations and plain assignments are
tolerated and ignored with a warning, so code lifted from C sources parses
unchanged.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .oil_config import (OIL_SYMBOL_TABLE, Cursor, Diagnostic,
                         KernelConfig, ParseError, Record, SemanticError,
                         int_value, tokenize)

# ---------------------------------------------------------------------------
# statement AST
# ---------------------------------------------------------------------------


class CallService(Record):
    name: str
    args: tuple[object, ...] = ()  # identifier strings and nonnegative ints


class TimeInterval(Record):
    ticks: int


class WhileTrue(Record):
    body: tuple["Statement", ...]


Statement = CallService | TimeInterval | WhileTrue


class CodeEntry(NamedTuple):
    statement: Statement
    next: int  # the program counter after the statement
    rest: str  # snapshot spelling of everything that follows the statement


class TaskBody(Record):
    __slots__ = ("task_id", "statements", "__dict__")  # for the cached code
    task_id: str
    statements: tuple[Statement, ...]

    @cached_property
    def code(self) -> tuple[CodeEntry, ...]:
        """One entry per program counter; ``len(code)`` is the end.  A loop
        entry leads into its body, whose last statement jumps back to the
        first.  ``rest`` spells what follows, loops closed by ``@{...}``."""
        code: list[CodeEntry] = []
        _flatten(self.statements, None, [], code)
        return tuple(code)


def _flatten(statements: tuple[Statement, ...], loop_start: int | None,
             rest: list[str], code: list[CodeEntry]) -> None:
    """Append ``statements``; the last jumps back to ``loop_start``, if any."""
    for idx, stmt in enumerate(statements):
        tail = [compact_statement(s) for s in statements[idx + 1:]] + rest
        loop = isinstance(stmt, WhileTrue)
        back = (idx == len(statements) - 1 and not loop
                and loop_start is not None)
        code.append(CodeEntry(stmt, loop_start if back else len(code) + 1,
                              ";".join(tail)))
        if loop:
            marker = "@{" + ";".join(map(compact_statement, stmt.body)) + "}"
            _flatten(stmt.body, len(code), [marker] + tail, code)


# Service name -> parameter kinds.  "int" parameters are literal numbers,
# everything else is an identifier checked against the configuration.
SERVICES: dict[str, tuple[str, ...]] = {
    "ActivateTask": ("task",),
    "TerminateTask": (),
    "ChainTask": ("task",),
    "Schedule": (),
    "SetEvent": ("task", "event"),
    "ClearEvent": ("event",),
    "WaitEvent": ("event",),
    "GetResource": ("resource",),
    "ReleaseResource": ("resource",),
    "SetRelAlarm": ("alarm", "int", "int"),
    "SetAbsAlarm": ("alarm", "int", "int"),
    "CancelAlarm": ("alarm",),
}

_TYPE_WORDS = {"int", "char", "long", "short", "unsigned", "signed",
               "float", "double", "bool", "void"}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _skip_c_statement(cur: Cursor, warnings: list[Diagnostic],
                      what: str) -> None:
    start = cur.peek().line
    while cur.peek().kind != "EOF" and cur.peek().value != ";":
        cur.next()
    cur.expect("PUNCT", ";")
    warnings.append(Diagnostic(
        "warning", "IgnoredCode", f"line {start}: ignoring {what}"))


def _parse_statement_list(cur: Cursor, warnings: list[Diagnostic],
                          task_id: str) -> tuple[Statement, ...]:
    statements: list[Statement] = []
    cur.enter()
    while cur.peek().value not in ("}",) and cur.peek().kind != "EOF":
        tok = cur.peek()
        if tok.kind != "IDENT":
            raise ParseError(f"expected a statement, found {tok.value!r}", tok.line)
        name = tok.value
        if name in _TYPE_WORDS:
            _skip_c_statement(cur, warnings, "variable declaration")
            continue
        if name == "while":
            statements.append(_parse_while(cur, warnings, task_id))
            continue
        if name == "TimeInterval":
            cur.next()
            cur.expect("PUNCT", "=")
            val = cur.expect("INT")
            cur.expect("PUNCT", ";")
            ticks = int_value(val.value)
            if ticks < 1:
                raise SemanticError([Diagnostic(
                    "error", "BadInterval",
                    f"line {val.line}: task {task_id}: TimeInterval must be "
                    "at least 1")])
            statements.append(TimeInterval(ticks))
            continue
        if cur.peek(1).value == "(":
            statements.append(_parse_call(cur, task_id))
            continue
        if cur.peek(1).value == "=":
            _skip_c_statement(cur, warnings, f"assignment to {name}")
            continue
        raise ParseError(f"expected a statement, found {name!r}", tok.line)
    cur.leave()
    return tuple(statements)


def _parse_while(cur: Cursor, warnings: list[Diagnostic],
                 task_id: str) -> WhileTrue:
    kw = cur.expect("IDENT", "while")
    cur.expect("PUNCT", "(")
    cond = cur.next()
    if cond.value not in ("true", "1"):
        raise ParseError(
            f"only while(true) loops are supported, found {cond.value!r}",
            cond.line)
    cur.expect("PUNCT", ")")
    cur.expect("PUNCT", "{")
    body = _parse_statement_list(cur, warnings, task_id)
    cur.expect("PUNCT", "}")
    if not body:
        raise SemanticError([Diagnostic(
            "error", "EmptyLoop",
            f"line {kw.line}: task {task_id}: while(true) body must not be "
            "empty")])
    return WhileTrue(body)


def _parse_call(cur: Cursor, task_id: str) -> CallService:
    name_tok = cur.expect("IDENT")
    cur.expect("PUNCT", "(")
    args: list[object] = []
    if cur.peek().value != ")":
        while True:
            tok = cur.next()
            if tok.kind == "IDENT":
                args.append(tok.value)
            elif tok.kind == "INT":
                args.append(int_value(tok.value))
            else:
                raise ParseError(
                    f"expected an argument, found {tok.value!r}", tok.line)
            if cur.peek().value != ",":
                break
            cur.next()
    cur.expect("PUNCT", ")")
    cur.expect("PUNCT", ";")
    if name_tok.value not in SERVICES:
        raise SemanticError([Diagnostic(
            "error", "UnknownService",
            f"line {name_tok.line}: task {task_id}: unknown service "
            f"{name_tok.value}")])
    return CallService(name_tok.value, tuple(args))


# ---------------------------------------------------------------------------
# semantic checks
# ---------------------------------------------------------------------------


def _check_call(call: CallService, task_id: str, config: KernelConfig,
                errors: list[Diagnostic]) -> None:
    kinds = SERVICES[call.name]
    if len(call.args) != len(kinds):
        errors.append(Diagnostic(
            "error", "BadArity",
            f"task {task_id}: {call.name} expects {len(kinds)} argument(s), "
            f"got {len(call.args)}"))
        return
    pools = {"task": config.tasks, "event": set(config.events),
             "resource": config.resources, "alarm": config.alarms}
    for kind, arg in zip(kinds, call.args):
        if kind == "int":
            if not isinstance(arg, int) or arg < 0:
                errors.append(Diagnostic(
                    "error", "BadArgument",
                    f"task {task_id}: {call.name} expects a nonnegative "
                    f"integer, got {arg!r}"))
        else:
            if not isinstance(arg, str) or arg not in pools[kind]:
                errors.append(Diagnostic(
                    "error", "DanglingReference",
                    f"task {task_id}: {call.name} references unknown {kind} "
                    f"{arg!r}"))


def _check_statements(statements: tuple[Statement, ...], task_id: str,
                      config: KernelConfig, errors: list[Diagnostic],
                      warnings: list[Diagnostic]) -> None:
    for idx, stmt in enumerate(statements):
        last = idx == len(statements) - 1
        if isinstance(stmt, CallService):
            _check_call(stmt, task_id, config, errors)
            if stmt.name in ("TerminateTask", "ChainTask") and not last:
                warnings.append(Diagnostic(
                    "warning", "UnreachableCode",
                    f"task {task_id}: statements after {stmt.name} are "
                    "unreachable"))
        elif isinstance(stmt, WhileTrue):
            _check_statements(stmt.body, task_id, config, errors, warnings)
            if not last:
                warnings.append(Diagnostic(
                    "warning", "UnreachableCode",
                    f"task {task_id}: statements after while(true) are "
                    "unreachable"))


def _ends_control(statements: tuple[Statement, ...]) -> bool:
    if not statements:
        return False
    tail = statements[-1]
    if isinstance(tail, WhileTrue):
        return True
    return isinstance(tail, CallService) and tail.name in ("TerminateTask",
                                                           "ChainTask")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def parse_task_file(source: str, config: KernelConfig,
                    warnings: list[Diagnostic] | None = None
                    ) -> dict[str, TaskBody]:
    """Parse task bodies and bind them against the configuration.

    Every configured task must receive exactly one body and every body must
    belong to a configured task.  Collected warnings are appended to the
    optional ``warnings`` list.
    """
    sink: list[Diagnostic] = [] if warnings is None else warnings
    cur = Cursor(tokenize(source, OIL_SYMBOL_TABLE))
    bodies: dict[str, TaskBody] = {}
    errors: list[Diagnostic] = []

    while cur.peek().kind != "EOF":
        tok = cur.peek()
        if tok.kind == "IDENT" and tok.value in _TYPE_WORDS:
            _skip_c_statement(cur, sink, "variable declaration")
            continue
        kw = cur.expect("IDENT")
        if kw.value != "TASK":
            raise ParseError(f"expected 'TASK', found {kw.value!r}", kw.line)
        name_tok = cur.expect("IDENT")
        cur.expect("PUNCT", "{")
        statements = _parse_statement_list(cur, sink, name_tok.value)
        cur.expect("PUNCT", "}")
        if cur.peek().value == ";":
            cur.next()
        if name_tok.value not in config.tasks:
            errors.append(Diagnostic(
                "error", "UnknownTask",
                f"line {name_tok.line}: body for undeclared task "
                f"{name_tok.value}"))
            continue
        if name_tok.value in bodies:
            errors.append(Diagnostic(
                "error", "DuplicateBody",
                f"line {name_tok.line}: task {name_tok.value} has two bodies"))
            continue
        bodies[name_tok.value] = TaskBody(name_tok.value, statements)

    for task_id in config.tasks:
        if task_id not in bodies:
            errors.append(Diagnostic(
                "error", "MissingBody", f"task {task_id} has no body"))

    for body in bodies.values():
        _check_statements(body.statements, body.task_id, config, errors, sink)
        if not _ends_control(body.statements):
            sink.append(Diagnostic(
                "warning", "MissingTerminate",
                f"task {body.task_id}: body does not end in TerminateTask; "
                "an implicit TerminateTask is appended at run time"))

    if errors:
        raise SemanticError(errors)
    return bodies


def compact_statement(stmt: Statement) -> str:
    """Single-line spelling used by state snapshots."""
    if isinstance(stmt, CallService):
        args = ",".join(str(a) for a in stmt.args)
        return f"{stmt.name}({args})"
    if isinstance(stmt, TimeInterval):
        return f"TimeInterval={stmt.ticks}"
    inner = ";".join(compact_statement(s) for s in stmt.body)
    return f"while{{{inner}}}"
