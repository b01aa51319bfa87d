"""Static system configuration in an OIL-like notation.

A configuration declares tasks, counters, alarms, resources and events.  The
parser accepts the usual OIL surface syntax (object blocks with ``NAME = value;``
attributes, nested attribute blocks for alarm actions and autostart parameters,
``/* */`` and ``//`` comments, an optional ``CPU name { ... };`` wrapper) and
produces an immutable :class:`KernelConfig`.  Validation is split out so that
hand-built configurations can be checked as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# ---------------------------------------------------------------------------
# errors and diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """A single validation finding, either a hard error or a warning."""

    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}[{self.code}]: {self.message}"


class OilError(Exception):
    """Base class for configuration errors."""


class ParseError(OilError):
    """Raised when the configuration text is not syntactically well formed."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.message = message
        self.line = line


class SemanticError(OilError):
    """Raised when a syntactically valid configuration violates an invariant."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = tuple(diagnostics)


# ---------------------------------------------------------------------------
# configuration data model
# ---------------------------------------------------------------------------

FULL = "FULL"
NON = "NON"


@dataclass(frozen=True)
class TaskDef:
    id: str
    priority: int
    schedule: str = FULL  # FULL | NON
    autostart: bool = False
    max_activations: int = 1
    events: frozenset[str] = frozenset()
    resources: frozenset[str] = frozenset()

    @property
    def is_extended(self) -> bool:
        """A task that declares events is an extended task."""
        return bool(self.events)


@dataclass(frozen=True)
class CounterDef:
    id: str
    max_allowed_value: int
    ticks_per_base: int = 1
    min_cycle: int = 0
    is_system: bool = False


@dataclass(frozen=True)
class AlarmAction:
    kind: str  # "activatetask" | "setevent" | "alarmcallback"
    task: str | None = None
    event: str | None = None
    callback: str | None = None


@dataclass(frozen=True)
class AlarmDef:
    id: str
    counter: str
    action: AlarmAction
    autostart: bool = False
    autostart_offset: int | None = None
    autostart_cycle: int | None = None


@dataclass(frozen=True)
class ResourceDef:
    id: str


@dataclass(frozen=True)
class KernelConfig:
    """Complete static configuration, keyed maps in declaration order."""

    tasks: dict[str, TaskDef] = field(default_factory=dict)
    counters: dict[str, CounterDef] = field(default_factory=dict)
    alarms: dict[str, AlarmDef] = field(default_factory=dict)
    resources: dict[str, ResourceDef] = field(default_factory=dict)
    events: tuple[str, ...] = ()
    name: str = "system"
    warnings: tuple[Diagnostic, ...] = ()

    @property
    def system_counter(self) -> CounterDef:
        marked = [c for c in self.counters.values() if c.is_system]
        if len(marked) == 1:
            return marked[0]
        if not marked and len(self.counters) == 1:
            return next(iter(self.counters.values()))
        raise SemanticError([Diagnostic(
            "error", "NoSystemCounter",
            "configuration does not designate a unique system counter")])


# ---------------------------------------------------------------------------
# tokenizer and cursor, shared by the configuration, task and formula parsers
# ---------------------------------------------------------------------------

MAX_NESTING = 100
"""Deepest nesting any parser accepts.  Every ``{ }`` block of a
configuration or task file and every parenthesis or operator of a formula
opens one level, so each parsed tree stays this shallow."""

OIL_SYMBOL_TABLE = {ch: ch for ch in "{}=;,()"}

_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value: str, line: int):
        self.kind = kind  # IDENT | INT | PUNCT | EOF
        self.value = value
        self.line = line


def tokenize(source: str, symbols: dict[str, str],
             eof: str = "") -> list[Token]:
    """Split text into tokens, skipping whitespace and comments.

    Numbers are ASCII decimal or ``0x`` hex; identifiers start with a letter
    or ``_``.  ``symbols`` maps each punctuation spelling to its token value,
    and the longest spelling wins.  The closing EOF token has value ``eof``.
    """
    widths = sorted({len(s) for s in symbols}, reverse=True)
    tokens: list[Token] = []
    i, line, n = 0, 1, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            if (ch == "0" and source[j:j + 1] in ("x", "X")
                    and source[j + 1:j + 2] in _HEX_DIGITS):
                j += 2
                while j < n and source[j] in _HEX_DIGITS:
                    j += 1
            else:
                while j < n and source[j] in _DIGITS:
                    j += 1
            tokens.append(Token("INT", source[i:j], line))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line))
            i = j
        elif source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
        elif source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated comment", line)
            line += source.count("\n", i, end)
            i = end + 2
        else:
            for width in widths:
                spelling = source[i:i + width]
                value = symbols.get(spelling)
                if value is not None:
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", line)
            tokens.append(Token("PUNCT", value, line))
            i += len(spelling)
    tokens.append(Token("EOF", eof, line))
    return tokens


def int_value(text: str) -> int:
    """Value of an INT token."""
    return int(text, 16) if text[1:2] in ("x", "X") else int(text)


class Cursor:
    """Reads a token list and bounds the depth of the tree being built.

    ``enter``/``leave`` bracket every nested construct.  ``peak`` is the
    deepest level reached since the innermost open ``enter``; ``sink``
    records that everything parsed since then got a new parent above it
    (the left operand of a binary operator).  Both ``enter`` and ``sink``
    raise ParseError past ``MAX_NESTING`` levels.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.peak = 0
        self._outer_peaks: list[int] = []  # one per open level

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:
            return self.tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.line)
        return tok

    def enter(self) -> None:
        self._outer_peaks.append(self.peak)
        self.peak = len(self._outer_peaks)
        self._check()

    def leave(self) -> None:
        self.peak = max(self.peak, self._outer_peaks.pop())

    def sink(self) -> None:
        self.peak += 1
        self._check()

    def _check(self) -> None:
        if self.peak > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.peek().line)


# ---------------------------------------------------------------------------
# attribute tree parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Attr:
    name: str
    value: str        # IDENT or INT text ("TRUE", "FULL", "127", ...)
    nested: tuple["_Attr", ...] | None
    line: int


@dataclass(frozen=True)
class _ObjectDecl:
    kind: str
    id: str
    attrs: tuple[_Attr, ...]
    line: int


def _parse_attr_block(cur: Cursor) -> tuple[_Attr, ...]:
    attrs: list[_Attr] = []
    cur.expect("PUNCT", "{")
    cur.enter()
    while cur.peek().value != "}":
        name_tok = cur.expect("IDENT")
        cur.expect("PUNCT", "=")
        val_tok = cur.next()
        if val_tok.kind not in ("IDENT", "INT"):
            raise ParseError(
                f"expected attribute value, found {val_tok.value!r}", val_tok.line)
        nested = None
        if cur.peek().value == "{":
            nested = _parse_attr_block(cur)
        cur.expect("PUNCT", ";")
        attrs.append(_Attr(name_tok.value, val_tok.value, nested, name_tok.line))
    cur.expect("PUNCT", "}")
    cur.leave()
    return tuple(attrs)


_OBJECT_KINDS = {"TASK", "COUNTER", "ALARM", "RESOURCE", "EVENT"}


def _parse_objects(cur: Cursor, warnings: list[Diagnostic],
                   decls: list[_ObjectDecl], cpu_name: list[str]) -> None:
    while cur.peek().kind != "EOF" and cur.peek().value != "}":
        kind_tok = cur.expect("IDENT")
        name_tok = cur.expect("IDENT")
        kind = kind_tok.value.upper()
        if kind == "CPU":
            cpu_name.append(name_tok.value)
            cur.expect("PUNCT", "{")
            cur.enter()
            _parse_objects(cur, warnings, decls, cpu_name)
            cur.expect("PUNCT", "}")
            cur.leave()
            cur.expect("PUNCT", ";")
        elif kind in _OBJECT_KINDS:
            attrs = _parse_attr_block(cur)
            cur.expect("PUNCT", ";")
            decls.append(_ObjectDecl(kind, name_tok.value, attrs, kind_tok.line))
        else:
            warnings.append(Diagnostic(
                "warning", "UnknownObject",
                f"line {kind_tok.line}: ignoring {kind} object {name_tok.value!r}"))
            if cur.peek().value == "{":
                depth = 0
                while True:
                    tok = cur.next()
                    if tok.kind == "EOF":
                        raise ParseError("unterminated object block", kind_tok.line)
                    if tok.value == "{":
                        depth += 1
                    elif tok.value == "}":
                        depth -= 1
                        if depth == 0:
                            break
            cur.expect("PUNCT", ";")


# ---------------------------------------------------------------------------
# object construction
# ---------------------------------------------------------------------------


def _as_int(attr: _Attr) -> int:
    try:
        return int_value(attr.value)
    except ValueError:
        raise ParseError(
            f"attribute {attr.name} expects an integer, found {attr.value!r}",
            attr.line) from None


def _as_bool(attr: _Attr) -> bool:
    text = attr.value.upper()
    if text in ("TRUE", "1"):
        return True
    if text in ("FALSE", "0"):
        return False
    raise ParseError(
        f"attribute {attr.name} expects TRUE or FALSE, found {attr.value!r}",
        attr.line)


def _build_task(decl: _ObjectDecl, warnings: list[Diagnostic]) -> TaskDef:
    priority: int | None = None
    schedule = FULL
    autostart = False
    max_activations = 1
    events: list[str] = []
    resources: list[str] = []
    for attr in decl.attrs:
        name = attr.name.upper()
        if name == "PRIORITY":
            priority = _as_int(attr)
        elif name == "SCHEDULE":
            schedule = attr.value.upper()
            if schedule not in (FULL, NON):
                raise ParseError(
                    f"SCHEDULE must be FULL or NON, found {attr.value!r}", attr.line)
        elif name == "AUTOSTART":
            autostart = _as_bool(attr)
        elif name == "ACTIVATION":
            max_activations = _as_int(attr)
        elif name == "EVENT":
            events.append(attr.value)
        elif name == "RESOURCE":
            resources.append(attr.value)
        else:
            warnings.append(Diagnostic(
                "warning", "UnknownAttribute",
                f"line {attr.line}: task {decl.id}: ignoring attribute {attr.name}"))
    if priority is None:
        raise ParseError(f"task {decl.id} is missing PRIORITY", decl.line)
    return TaskDef(decl.id, priority, schedule, autostart, max_activations,
                   frozenset(events), frozenset(resources))


def _build_counter(decl: _ObjectDecl, warnings: list[Diagnostic]) -> CounterDef:
    mav: int | None = None
    ticks_per_base = 1
    min_cycle = 0
    is_system = False
    for attr in decl.attrs:
        name = attr.name.upper()
        if name == "MAXALLOWEDVALUE":
            mav = _as_int(attr)
        elif name in ("TICKSPERBASE", "TICKPERBASE"):
            ticks_per_base = _as_int(attr)
        elif name in ("MINCYCLE", "MINICYCLE"):
            min_cycle = _as_int(attr)
        elif name == "SYSTEM":
            is_system = _as_bool(attr)
        else:
            warnings.append(Diagnostic(
                "warning", "UnknownAttribute",
                f"line {attr.line}: counter {decl.id}: ignoring attribute {attr.name}"))
    if mav is None:
        raise ParseError(f"counter {decl.id} is missing MAXALLOWEDVALUE", decl.line)
    if ticks_per_base != 1:
        warnings.append(Diagnostic(
            "warning", "TicksPerBaseIgnored",
            f"counter {decl.id}: TICKSPERBASE={ticks_per_base} declared, but the "
            "kernel advances one tick per base tick"))
    return CounterDef(decl.id, mav, ticks_per_base, min_cycle, is_system)


def _build_alarm(decl: _ObjectDecl, warnings: list[Diagnostic]) -> AlarmDef:
    counter: str | None = None
    action: AlarmAction | None = None
    autostart = False
    offset: int | None = None
    cycle: int | None = None

    def nested_value(attrs: tuple[_Attr, ...], name: str) -> _Attr | None:
        for a in attrs:
            if a.name.upper() == name:
                return a
        return None

    for attr in decl.attrs:
        name = attr.name.upper()
        if name == "COUNTER":
            counter = attr.value
        elif name == "ACTION":
            kind = attr.value.upper()
            nested = attr.nested or ()
            if kind == "ACTIVATETASK":
                task = nested_value(nested, "TASK")
                if task is None:
                    raise ParseError(
                        f"alarm {decl.id}: ACTIVATETASK action requires TASK", attr.line)
                action = AlarmAction("activatetask", task=task.value)
            elif kind == "SETEVENT":
                task = nested_value(nested, "TASK")
                event = nested_value(nested, "EVENT")
                if task is None or event is None:
                    raise ParseError(
                        f"alarm {decl.id}: SETEVENT action requires TASK and EVENT",
                        attr.line)
                action = AlarmAction("setevent", task=task.value, event=event.value)
            elif kind == "ALARMCALLBACK":
                cb = nested_value(nested, "ALARMCALLBACKNAME")
                action = AlarmAction(
                    "alarmcallback", callback=cb.value if cb else decl.id)
            else:
                raise ParseError(
                    f"alarm {decl.id}: unknown action {attr.value!r}", attr.line)
        elif name == "AUTOSTART":
            autostart = _as_bool(attr)
            for sub in attr.nested or ():
                sub_name = sub.name.upper()
                if sub_name == "ALARMTIME":
                    offset = _as_int(sub)
                elif sub_name == "CYCLETIME":
                    cycle = _as_int(sub)
                elif sub_name != "APPMODE":
                    warnings.append(Diagnostic(
                        "warning", "UnknownAttribute",
                        f"line {sub.line}: alarm {decl.id}: ignoring attribute "
                        f"{sub.name}"))
        elif name == "ALARMTIME":
            offset = _as_int(attr)
        elif name == "CYCLETIME":
            cycle = _as_int(attr)
        else:
            warnings.append(Diagnostic(
                "warning", "UnknownAttribute",
                f"line {attr.line}: alarm {decl.id}: ignoring attribute {attr.name}"))
    if counter is None:
        raise ParseError(f"alarm {decl.id} is missing COUNTER", decl.line)
    if action is None:
        raise ParseError(f"alarm {decl.id} is missing ACTION", decl.line)
    if autostart and cycle is None:
        cycle = 0
    return AlarmDef(decl.id, counter, action, autostart, offset, cycle)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(config: KernelConfig) -> list[Diagnostic]:
    """Check configuration invariants; returns errors and warnings."""
    out: list[Diagnostic] = []

    def err(code: str, message: str) -> None:
        out.append(Diagnostic("error", code, message))

    def warn(code: str, message: str) -> None:
        out.append(Diagnostic("warning", code, message))

    declared_events = set(config.events)
    for task in config.tasks.values():
        if task.priority < 0:
            err("BadPriority", f"task {task.id}: priority must be nonnegative")
        if task.max_activations < 1:
            err("BadActivation",
                f"task {task.id}: ACTIVATION must be at least 1")
        if task.is_extended and task.max_activations != 1:
            err("ExtendedMultiActivation",
                f"task {task.id}: extended tasks cannot declare multiple activations")
        for ev in sorted(task.events):
            if ev not in declared_events:
                err("DanglingReference",
                    f"task {task.id}: event {ev} is not declared")
        for res in sorted(task.resources):
            if res not in config.resources:
                err("DanglingReference",
                    f"task {task.id}: resource {res} is not declared")

    for counter in config.counters.values():
        if counter.max_allowed_value < 1:
            err("BadCounter",
                f"counter {counter.id}: MAXALLOWEDVALUE must be at least 1")
        if counter.ticks_per_base < 1:
            err("BadCounter",
                f"counter {counter.id}: TICKSPERBASE must be at least 1")
        if not 0 <= counter.min_cycle <= counter.max_allowed_value:
            err("BadCounter",
                f"counter {counter.id}: MINCYCLE must lie within "
                "[0, MAXALLOWEDVALUE]")

    system_marked = [c for c in config.counters.values() if c.is_system]
    if len(system_marked) > 1:
        err("AmbiguousSystemCounter",
            "more than one counter is marked SYSTEM")
    elif not system_marked and len(config.counters) != 1:
        err("NoSystemCounter",
            "no counter is marked SYSTEM and the designation is ambiguous"
            if config.counters else "configuration declares no counter")
    system = (config.system_counter if len(system_marked) == 1
              or len(config.counters) == 1 else None)

    for alarm in config.alarms.values():
        counter = config.counters.get(alarm.counter)
        if counter is None:
            err("DanglingReference",
                f"alarm {alarm.id}: counter {alarm.counter} is not declared")
        elif system is not None and counter is not system:
            warn("AlarmCounterIgnored",
                 f"alarm {alarm.id}: COUNTER = {counter.id} declared, but "
                 f"every alarm runs on the system counter {system.id}")
        act = alarm.action
        if act.kind in ("activatetask", "setevent"):
            target = config.tasks.get(act.task or "")
            if target is None:
                err("DanglingReference",
                    f"alarm {alarm.id}: task {act.task} is not declared")
            elif act.kind == "setevent":
                if not target.is_extended:
                    warn("ActionOnBasicTask",
                         f"alarm {alarm.id}: SETEVENT targets basic task "
                         f"{target.id}; every expiry will fail")
                elif act.event not in target.events:
                    warn("EventNotWaited",
                         f"alarm {alarm.id}: task {target.id} does not declare "
                         f"event {act.event}")
            if act.kind == "setevent" and act.event not in declared_events:
                err("DanglingReference",
                    f"alarm {alarm.id}: event {act.event} is not declared")
        if alarm.autostart:
            if alarm.autostart_offset is None:
                err("MissingAttribute",
                    f"alarm {alarm.id}: autostart requires ALARMTIME")
            elif system is not None and not (
                    0 <= alarm.autostart_offset <= system.max_allowed_value):
                err("OffsetOutOfRange",
                    f"alarm {alarm.id}: ALARMTIME must lie within "
                    "[0, MAXALLOWEDVALUE]")
            cyc = alarm.autostart_cycle or 0
            if system is not None and cyc != 0 and not (
                    system.min_cycle <= cyc <= system.max_allowed_value):
                err("CycleOutOfRange",
                    f"alarm {alarm.id}: CYCLETIME must be 0 or lie within "
                    "[MINCYCLE, MAXALLOWEDVALUE]")

    for res in config.resources:
        if not any(res in t.resources for t in config.tasks.values()):
            warn("UnusedResource", f"resource {res} is accessed by no task")

    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def parse_oil(source: str) -> KernelConfig:
    """Parse configuration text; raises ParseError or SemanticError."""
    cur = Cursor(tokenize(source, OIL_SYMBOL_TABLE))
    warnings: list[Diagnostic] = []
    decls: list[_ObjectDecl] = []
    cpu_name: list[str] = []
    _parse_objects(cur, warnings, decls, cpu_name)
    if cur.peek().kind != "EOF":
        raise ParseError(f"unexpected {cur.peek().value!r}", cur.peek().line)

    tasks: dict[str, TaskDef] = {}
    counters: dict[str, CounterDef] = {}
    alarms: dict[str, AlarmDef] = {}
    resources: dict[str, ResourceDef] = {}
    events: list[str] = []
    duplicates: list[Diagnostic] = []

    def check_dup(space: dict, decl: _ObjectDecl) -> bool:
        if decl.id in space:
            duplicates.append(Diagnostic(
                "error", "DuplicateId",
                f"line {decl.line}: {decl.kind} {decl.id} is declared twice"))
            return True
        return False

    for decl in decls:
        if decl.kind == "TASK":
            if not check_dup(tasks, decl):
                tasks[decl.id] = _build_task(decl, warnings)
        elif decl.kind == "COUNTER":
            if not check_dup(counters, decl):
                counters[decl.id] = _build_counter(decl, warnings)
        elif decl.kind == "ALARM":
            if not check_dup(alarms, decl):
                alarms[decl.id] = _build_alarm(decl, warnings)
        elif decl.kind == "RESOURCE":
            if not check_dup(resources, decl):
                resources[decl.id] = ResourceDef(decl.id)
        elif decl.kind == "EVENT":
            if decl.id in events:
                duplicates.append(Diagnostic(
                    "error", "DuplicateId",
                    f"line {decl.line}: EVENT {decl.id} is declared twice"))
            else:
                events.append(decl.id)
                for attr in decl.attrs:
                    if attr.name.upper() != "MASK":
                        warnings.append(Diagnostic(
                            "warning", "UnknownAttribute",
                            f"line {attr.line}: event {decl.id}: ignoring "
                            f"attribute {attr.name}"))
    if duplicates:
        raise SemanticError(duplicates)

    config = KernelConfig(tasks, counters, alarms, resources, tuple(events),
                          cpu_name[0] if cpu_name else "system")
    diags = validate(config)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise SemanticError(errors)
    all_warnings = tuple(warnings) + tuple(d for d in diags
                                           if d.severity == "warning")
    return replace(config, warnings=all_warnings)


def pretty_print(config: KernelConfig) -> str:
    """Render a configuration back to canonical OIL-like text."""
    lines: list[str] = []

    def block(kind: str, ident: str, attrs: list[str]) -> None:
        lines.append(f"{kind} {ident} {{")
        lines.extend(f"    {a}" for a in attrs)
        lines.append("};")
        lines.append("")

    for c in config.counters.values():
        attrs = [f"MAXALLOWEDVALUE = {c.max_allowed_value};",
                 f"TICKSPERBASE = {c.ticks_per_base};",
                 f"MINCYCLE = {c.min_cycle};"]
        if c.is_system:
            attrs.append("SYSTEM = TRUE;")
        block("COUNTER", c.id, attrs)
    for ev in config.events:
        block("EVENT", ev, ["MASK = AUTO;"])
    for r in config.resources.values():
        block("RESOURCE", r.id, ["RESOURCEPROPERTY = STANDARD;"])
    for t in config.tasks.values():
        attrs = [f"PRIORITY = {t.priority};",
                 f"SCHEDULE = {t.schedule};",
                 f"AUTOSTART = {'TRUE' if t.autostart else 'FALSE'};",
                 f"ACTIVATION = {t.max_activations};"]
        attrs.extend(f"EVENT = {e};" for e in sorted(t.events))
        attrs.extend(f"RESOURCE = {r};" for r in sorted(t.resources))
        block("TASK", t.id, attrs)
    for a in config.alarms.values():
        attrs = [f"COUNTER = {a.counter};"]
        act = a.action
        if act.kind == "activatetask":
            attrs.append(f"ACTION = ACTIVATETASK {{ TASK = {act.task}; }};")
        elif act.kind == "setevent":
            attrs.append(
                f"ACTION = SETEVENT {{ TASK = {act.task}; EVENT = {act.event}; }};")
        else:
            attrs.append(
                "ACTION = ALARMCALLBACK "
                f"{{ ALARMCALLBACKNAME = {act.callback}; }};")
        if a.autostart:
            attrs.append(
                f"AUTOSTART = TRUE {{ ALARMTIME = {a.autostart_offset}; "
                f"CYCLETIME = {a.autostart_cycle or 0}; }};")
        else:
            attrs.append("AUTOSTART = FALSE;")
        block("ALARM", a.id, attrs)
    text = "\n".join(lines).rstrip() + "\n"
    if config.name == "system":  # the name of a configuration without CPU
        return text
    return f"CPU {config.name} {{\n{text}}};\n"
