"""Task body parser tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_app, random_app, unparse_task_file
from osekcheck.oil_config import OilError, SemanticError, parse_oil
from osekcheck.task_lang import (CallService, TimeInterval, WhileTrue,
                                 parse_task_file)

OIL = """
COUNTER C { MAXALLOWEDVALUE = 15; MINCYCLE = 1; SYSTEM = TRUE; };
EVENT E { MASK = AUTO; };
TASK A { PRIORITY = 2; AUTOSTART = TRUE; };
TASK X { PRIORITY = 1; EVENT = E; };
ALARM AL { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; }; };
RESOURCE R { };
"""

GOOD = """
TASK A { GetResource(R); ActivateTask(X); ReleaseResource(R); TerminateTask(); }
TASK X { while (true) { WaitEvent(E); ClearEvent(E); TimeInterval = 2; } }
"""


def erring(tsk: str, oil: str = OIL):
    config = parse_oil(oil)
    with pytest.raises(OilError) as err:
        parse_task_file(tsk, config)
    return err


def body_codes(err) -> set[str]:
    if isinstance(err.value, SemanticError):
        return {d.code for d in err.value.diagnostics}
    return set()


# ==== structure ============================================================


class TestParsing:
    def test_bodies_and_statements(self):
        config, bodies = make_app(OIL, GOOD)
        assert set(bodies) == {"A", "X"}
        first = bodies["A"].statements[0]
        assert first == CallService("GetResource", ("R",))
        loop = bodies["X"].statements[0]
        assert isinstance(loop, WhileTrue)
        assert loop.body[-1] == TimeInterval(2)

    def test_hex_numbers(self):
        # "0x10" was once the number 0 followed by the word x10
        _, bodies = make_app(OIL, GOOD.replace(
            "TimeInterval = 2;",
            "TimeInterval = 0x2; SetRelAlarm(AL, 0x10, 010);"))
        assert bodies["X"].statements[0].body[-2:] == (
            TimeInterval(2), CallService("SetRelAlarm", ("AL", 16, 10)))

    def test_while_condition_one(self):
        _, bodies = make_app(OIL, GOOD.replace("while (true)", "while (1)"))
        assert isinstance(bodies["X"].statements[0], WhileTrue)

    def test_trailing_semicolon_after_block(self):
        _, bodies = make_app(OIL, GOOD.replace("TerminateTask(); }",
                                               "TerminateTask(); };"))
        assert set(bodies) == {"A", "X"}

    def test_c_noise_ignored_with_warning(self):
        config = parse_oil(OIL)
        warnings = []
        bodies = parse_task_file(
            GOOD.replace("GetResource(R);",
                         "int a; unsigned long b = 3; a = b; "
                         "GetResource(R);"),
            config, warnings)
        assert [s.name for s in bodies["A"].statements[:2]] == \
            ["GetResource", "ActivateTask"]
        assert any(w.code == "IgnoredCode" for w in warnings)

    def test_unreachable_after_terminate_warns(self):
        config = parse_oil(OIL)
        warnings = []
        parse_task_file(GOOD.replace("TerminateTask(); }",
                                     "TerminateTask(); Schedule(); }"),
                        config, warnings)
        assert any(w.code == "UnreachableCode" for w in warnings)

    def test_missing_terminate_warns(self):
        config = parse_oil(OIL)
        warnings = []
        parse_task_file(GOOD.replace("ReleaseResource(R); TerminateTask();",
                                     "ReleaseResource(R);"),
                        config, warnings)
        assert any(w.code == "MissingTerminate" for w in warnings)


# ==== flattened code =======================================================


class TestCode:
    def test_loops_jump_back_and_nothing_leads_past_them(self):
        _, bodies = make_app(OIL, GOOD.replace(
            "GetResource(R); ActivateTask(X); ReleaseResource(R); ",
            "Schedule(); while (true) { ActivateTask(X); "
            "while (true) { TimeInterval = 2; } Schedule(); } "))
        code = bodies["A"].code
        # 0 Schedule, 1 while, 2 ActivateTask, 3 while, 4 TimeInterval,
        # 5 Schedule (after the inner loop), 6 TerminateTask (after the outer)
        assert [type(e.statement).__name__ for e in code] == [
            "CallService", "WhileTrue", "CallService", "WhileTrue",
            "TimeInterval", "CallService", "CallService"]
        assert [e.next for e in code] == [1, 2, 3, 4, 4, 2, 7]
        assert code[4].rest == ("@{TimeInterval=2};Schedule();"
                                "@{ActivateTask(X);while{TimeInterval=2};"
                                "Schedule()};TerminateTask()")
        assert code[6].rest == ""

    def test_empty_body(self):
        _, bodies = make_app(OIL, GOOD.replace(
            "GetResource(R); ActivateTask(X); ReleaseResource(R); "
            "TerminateTask();", ""))
        assert bodies["A"].code == ()


# ==== rejection ============================================================


class TestErrors:
    def test_unknown_task(self):
        err = erring(GOOD + "TASK Zonk { TerminateTask(); }")
        assert "UnknownTask" in body_codes(err)

    def test_duplicate_body(self):
        err = erring(GOOD + "TASK A { TerminateTask(); }")
        assert "DuplicateBody" in body_codes(err)

    def test_missing_body(self):
        err = erring("TASK A { TerminateTask(); }")
        assert "MissingBody" in body_codes(err)

    def test_unknown_service(self):
        err = erring(GOOD.replace("ActivateTask(X);", "LaunchRocket(X);"))
        assert "UnknownService" in body_codes(err)

    def test_bad_arity(self):
        err = erring(GOOD.replace("ActivateTask(X);", "ActivateTask(X, E);"))
        assert "BadArity" in body_codes(err)

    def test_bad_argument_kind(self):
        err = erring(GOOD.replace("ActivateTask(X);",
                                  "SetRelAlarm(AL, X, 0);"))
        assert "BadArgument" in body_codes(err)

    def test_dangling_service_reference(self):
        err = erring(GOOD.replace("ActivateTask(X);", "ActivateTask(Ghost);"))
        assert "DanglingReference" in body_codes(err)

    def test_literal_where_task_expected(self):
        err = erring(GOOD.replace("ActivateTask(X);", "ActivateTask(7);"))
        assert "DanglingReference" in body_codes(err)

    def test_zero_time_interval(self):
        err = erring(GOOD.replace("TimeInterval = 2;", "TimeInterval = 0;"))
        assert "BadInterval" in body_codes(err)

    def test_non_ascii_digits_are_not_numbers(self):
        # "³" once crashed int(); "٣" was once read as 3
        for digit in ("³", "٣"):
            err = erring(GOOD.replace("TimeInterval = 2;",
                                      f"TimeInterval = {digit};"))
            assert str(err.value) == \
                f"line 3: unexpected character {digit!r}"

    def test_nesting_limit(self):
        def loops(depth: int) -> str:
            return ("TASK A { TerminateTask(); }\nTASK X { "
                    + "while (true) { " * depth + "Schedule();"
                    + " }" * depth + " }")
        # the task block is one level, each loop one more
        make_app(OIL, loops(99))
        err = erring(loops(100))
        assert str(err.value) == "line 2: nesting deeper than 100 levels"

    def test_empty_loop(self):
        err = erring("""
TASK A { TerminateTask(); }
TASK X { while (true) { } }
""")
        assert "EmptyLoop" in body_codes(err)


# ==== round-trip ===========================================================


class TestRoundTrip:
    def test_unparse_reparses(self):
        config, bodies = make_app(OIL, GOOD)
        again = parse_task_file(unparse_task_file(bodies), config)
        assert again == bodies

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_bodies_round_trip(self, seed):
        oil, tsk = random_app(random.Random(seed))
        config, bodies = make_app(oil, tsk)
        again = parse_task_file(unparse_task_file(bodies), config)
        assert again == bodies


# ==== corpus ===============================================================


class TestCorpus:
    def test_ems_bodies(self, ems_app):
        _, bodies = ems_app
        assert set(bodies) == {"SystemInit", "EMS_Adap_Task_10ms",
                               "EMS_Task_100ms", "EMS_Task_10ms",
                               "Task_10ms"}
        adap = bodies["EMS_Adap_Task_10ms"]
        assert isinstance(adap.statements[0], WhileTrue)
        init = bodies["SystemInit"]
        assert init.statements[0].name == "SetRelAlarm"
