"""Fuzzing the three parsers: any text ends in a result or a parser error.

Inputs mix each language's words with arbitrary characters, non-ASCII
digits and deep nesting.  A parsed result must also survive the recursive
walks done on it later (unparsing and negation normal form).  Hypothesis
raises the recursion limit while a test runs, so the explicit deep examples
nest far past it; ``test_cli.TestParserLimits`` checks the default limit.

The fuzzed texts almost never parse, so the round trips (unparsed text parses
back to the same value) are checked on generated applications instead, with
comments and line breaks for some of their spaces.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import cycle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_app
from osekcheck import ltl
from osekcheck.ltl import LtlError, parse_formula_file
from osekcheck.oil_config import OilError, parse_oil, pretty_print
from osekcheck.task_lang import parse_task_file, unparse_task_file

NOISE = ["³", "٣", "𝟙", "½", "0x", "0xZ", "0x1f", "010", "1e3", "-1", "\n",
         "/*", "*/", "// note\n", "/* note */", "#", ":", "\t", " "]

OIL_WORDS = ["CPU", "TASK", "COUNTER", "ALARM", "RESOURCE", "EVENT", "OS",
             "PRIORITY", "SCHEDULE", "FULL", "NON", "AUTOSTART", "TRUE",
             "FALSE", "ACTIVATION", "MAXALLOWEDVALUE", "TICKSPERBASE",
             "MINCYCLE", "SYSTEM", "ACTION", "ACTIVATETASK", "SETEVENT",
             "ALARMCALLBACK", "ALARMTIME", "CYCLETIME", "MASK", "A", "C", "E",
             "{", "}", "=", ";", ",", "(", ")", "0", "1", "7"]

TASK_WORDS = ["TASK", "A", "B", "E", "R", "AL", "while", "(", ")", "true",
              "1", "{", "}", ";", ",", "=", "TimeInterval", "int", "x",
              "ActivateTask", "TerminateTask", "ChainTask", "Schedule",
              "SetEvent", "WaitEvent", "ClearEvent", "GetResource",
              "ReleaseResource", "SetRelAlarm", "CancelAlarm", "0", "3"]

FORMULA_WORDS = ["->", "[]", "<>", "||", "&&", "(", ")", ",", "!", "&", "|",
                 "U", "X", "F", "G", "R", "true", "false", "running", "A",
                 "deadlocked", "counter_eq", "wait", "E", "0", "12", "-", "<"]

CONFIG = parse_oil("""
COUNTER C { MAXALLOWEDVALUE = 15; SYSTEM = TRUE; };
EVENT E { MASK = AUTO; };
RESOURCE R { };
TASK A { PRIORITY = 2; AUTOSTART = TRUE; RESOURCE = R; };
TASK B { PRIORITY = 1; EVENT = E; };
ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; }; };
""")


def soup(words: list[str]) -> st.SearchStrategy[str]:
    piece = st.sampled_from(words) | st.sampled_from(NOISE) | st.text(
        max_size=3)
    return st.lists(piece, max_size=40).map(" ".join)


def nested(opening: str, middle: str, closing: str, outside: str = "{}"
           ) -> st.SearchStrategy[str]:
    return st.integers(0, 150).map(
        lambda n: outside.format(opening * n + middle + closing * n))


config_text = soup(OIL_WORDS) | nested(
    "X = Y { ", "Z = W;", " };", "TASK A {{ PRIORITY = 1; {} }};") | nested(
    "CPU c { ", "TASK A { PRIORITY = 1; AUTOSTART = TRUE; };", " };")

task_text = soup(TASK_WORDS) | nested(
    "while (true) { ", "Schedule();", " }", "TASK A {{ {} }}") | soup(
    TASK_WORDS).map(lambda body: f"TASK A {{ {body} }}")

formula = soup(FORMULA_WORDS) | nested("(", "running(A)", ")") | nested(
    "! <> ", "deadlocked", "") | st.integers(1, 150).map(
    lambda n: " & ".join(["running(A)"] * n))
formula_text = st.lists(formula, max_size=4).map(
    lambda fs: "\n".join(f"f{i}: {f}" for i, f in enumerate(fs))) | soup(
    FORMULA_WORDS)


# What may stand for a space between two words of a generated application.
GAPS = [" ", "\n", "\t", "/* note */", "// note\n", " /**/ "]
app_text = st.tuples(st.integers(0, 10**9),
                     st.lists(st.sampled_from(GAPS), min_size=1, max_size=6))


def respaced(text: str, gaps: list[str]) -> str:
    words = text.split(" ")
    return words[0] + "".join(gap + word
                              for gap, word in zip(cycle(gaps), words[1:]))


@settings(max_examples=300, deadline=None)
@given(app_text, st.sampled_from(["{}", "CPU box {{ {} }};"]))
def test_config_round_trip(app, wrapper):
    seed, gaps = app
    oil, _ = random_app(random.Random(seed))
    config = parse_oil(wrapper.format(respaced(oil, gaps)))
    again = parse_oil(pretty_print(config))
    assert replace(again, warnings=()) == replace(config, warnings=())


@settings(max_examples=300, deadline=None)
@given(app_text)
def test_task_file_round_trip(app):
    seed, gaps = app
    oil, tsk = random_app(random.Random(seed))
    config = parse_oil(oil)
    bodies = parse_task_file(respaced(tsk, gaps), config)
    assert parse_task_file(unparse_task_file(bodies), config) == bodies


@settings(max_examples=300, deadline=None)
@given(config_text)
@example("TASK A { PRIORITY = 1; " + "X = Y { " * 3000 + " };" * 3000 + " };")
@example("COUNTER C { MAXALLOWEDVALUE = ³; };")
def test_config_text(text):
    try:
        config = parse_oil(text)
    except OilError:
        return
    pretty_print(config)


@settings(max_examples=300, deadline=None)
@given(task_text)
@example("TASK A { TimeInterval = ³; }")
@example("TASK A { " + "while(true){ " * 3000 + "Schedule();"
         + " }" * 3000 + " }")
def test_task_text(text):
    try:
        bodies = parse_task_file(text, CONFIG)
    except OilError:
        return
    unparse_task_file(bodies)


@settings(max_examples=300, deadline=None)
@given(formula_text)
@example("f: counter_eq(³)")
@example("f: " + "(" * 3000 + "running(A)" + ")" * 3000)
@example("f: " + " & ".join(["running(A)"] * 300))
def test_formula_text(text):
    try:
        formulas = parse_formula_file(text)
    except LtlError:
        return
    for _, parsed in formulas:
        str(parsed)
        ltl._intern(parsed)
        list(ltl.iter_props(parsed))
