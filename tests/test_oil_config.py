"""Configuration parser and validator tests."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_app
from osekcheck.model import Program
from osekcheck.oil_config import (ParseError, SemanticError, parse_oil,
                                  pretty_print)
from osekcheck.task_lang import parse_task_file

BASE = """
COUNTER C { MAXALLOWEDVALUE = 15; TICKSPERBASE = 1; MINCYCLE = 2; SYSTEM = TRUE; };
TASK A { PRIORITY = 2; SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };
TASK B { PRIORITY = 1; };
"""


def codes(excinfo) -> set[str]:
    return {d.code for d in excinfo.value.diagnostics}


# ==== basic parsing ========================================================


class TestParsing:
    def test_minimal_config(self):
        config = parse_oil(BASE)
        assert list(config.tasks) == ["A", "B"]
        assert config.tasks["A"].priority == 2
        assert config.tasks["A"].autostart
        assert config.system_counter.max_allowed_value == 15

    def test_task_defaults(self):
        config = parse_oil(BASE)
        task = config.tasks["B"]
        assert task.schedule == "FULL"
        assert task.max_activations == 1
        assert not task.autostart
        assert not task.is_extended

    def test_hex_and_comments(self):
        config = parse_oil("""
        // system clock
        COUNTER C { MAXALLOWEDVALUE = 0xFF; /* eight bits */ SYSTEM = TRUE; };
        TASK A { PRIORITY = 1; AUTOSTART = TRUE; };
        """)
        assert config.system_counter.max_allowed_value == 255

    def test_numbers_are_ascii_decimal_or_hex(self):
        # one number rule for all three input languages: a leading zero is
        # still decimal, "0x" needs a hex digit, and non-ASCII digits such
        # as "٣" (once read as 3) are not numbers
        assert parse_oil(BASE.replace("PRIORITY = 1;", "PRIORITY = 010;")
                         ).tasks["B"].priority == 10
        cases = {"0x": "line 4: expected ';', found 'x'",
                 "٣": "line 4: unexpected character '٣'",
                 "1³": "line 4: unexpected character '³'",
                 "1" + "0" * 5 + "x": "line 4: expected ';', found 'x'"}
        for value, message in cases.items():
            with pytest.raises(ParseError) as err:
                parse_oil(BASE.replace("PRIORITY = 1;",
                                       f"PRIORITY = {value};"))
            assert str(err.value) == message, value

    def test_nesting_limit(self):
        def nested(depth: int) -> str:
            return BASE.replace(
                "PRIORITY = 1;",
                "PRIORITY = 1; " + "X = Y { " * depth + " };" * depth)
        # the task block is one level, each attribute block one more
        assert set(parse_oil(nested(99)).tasks) == {"A", "B"}
        with pytest.raises(ParseError,
                           match="line 4: nesting deeper than 100 levels"):
            parse_oil(nested(100))
        with pytest.raises(ParseError, match="nesting deeper than 100"):
            parse_oil("CPU c { " * 101 + BASE + " };" * 101)

    def test_cpu_wrapper(self):
        config = parse_oil("CPU box {\n" + BASE + "\n};")
        assert set(config.tasks) == {"A", "B"}
        assert config.name == "box"

    def test_unknown_object_skipped(self):
        config = parse_oil(BASE + """
        OS TheOs { STATUS = EXTENDED; NESTED = THING { X = 1; }; };
        """)
        assert any(w.code == "UnknownObject" for w in config.warnings)
        assert set(config.tasks) == {"A", "B"}

    def test_unknown_attribute_warns(self):
        config = parse_oil(BASE.replace("PRIORITY = 1;",
                                        "PRIORITY = 1; STACKSIZE = 64;"))
        assert any(w.code == "UnknownAttribute" for w in config.warnings)

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(ParseError):
            parse_oil("TASK A { PRIORITY = 1; ")

    def test_counter_attribute_aliases(self):
        config = parse_oil("""
        COUNTER C { MAXALLOWEDVALUE = 7; TICKPERBASE = 1; MINICYCLE = 3; SYSTEM = TRUE; };
        TASK A { PRIORITY = 0; AUTOSTART = TRUE; };
        """)
        assert config.system_counter.min_cycle == 3

    def test_ticks_per_base_ignored_with_warning(self):
        config = parse_oil(BASE.replace("TICKSPERBASE = 1", "TICKSPERBASE = 8"))
        assert any(w.code == "TicksPerBaseIgnored" for w in config.warnings)


# ==== events, resources, alarms ============================================


class TestObjects:
    def test_extended_task(self):
        config = parse_oil(BASE + """
        EVENT E { MASK = AUTO; };
        TASK X { PRIORITY = 3; EVENT = E; };
        """ + "TASK W { PRIORITY = 0; };")
        assert config.tasks["X"].is_extended
        assert config.tasks["X"].events == frozenset({"E"})

    def test_resource_ceiling(self):
        config = parse_oil(BASE + """
        RESOURCE R { RESOURCEPROPERTY = STANDARD; };
        TASK H { PRIORITY = 9; RESOURCE = R; };
        """.replace("TASK B { PRIORITY = 1; };", ""))
        bodies = parse_task_file("".join(
            f"TASK {t} {{ TerminateTask(); }}" for t in config.tasks), config)
        # ceiling is the highest priority among tasks declaring the resource
        assert Program(config, bodies).ceiling["R"] == 9

    def test_alarm_actions(self):
        config = parse_oil(BASE + """
        EVENT E { MASK = AUTO; };
        TASK X { PRIORITY = 3; EVENT = E; };
        ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; }; };
        ALARM AS { COUNTER = C; ACTION = SETEVENT { TASK = X; EVENT = E; }; };
        ALARM AC { COUNTER = C; ACTION = ALARMCALLBACK { ALARMCALLBACKNAME = cb; }; };
        """)
        assert config.alarms["AA"].action.kind == "activatetask"
        assert config.alarms["AS"].action.event == "E"
        assert config.alarms["AC"].action.callback == "cb"

    def test_alarm_autostart_block(self):
        config = parse_oil(BASE + """
        ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; };
                   AUTOSTART = TRUE { ALARMTIME = 5; CYCLETIME = 4; }; };
        """)
        alarm = config.alarms["AA"]
        assert alarm.autostart
        assert (alarm.autostart_offset, alarm.autostart_cycle) == (5, 4)


# ==== validation ===========================================================


class TestValidation:
    def test_duplicate_task(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + "TASK A { PRIORITY = 7; };")
        assert "DuplicateId" in codes(err)

    def test_missing_priority(self):
        with pytest.raises(ParseError, match="PRIORITY"):
            parse_oil("COUNTER C { MAXALLOWEDVALUE = 3; SYSTEM = TRUE; };"
                      "TASK A { AUTOSTART = TRUE; };")

    def test_autostart_alarm_needs_alarmtime(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + "ALARM AA { COUNTER = C;"
                             " ACTION = ACTIVATETASK { TASK = A; };"
                             " AUTOSTART = TRUE; };")
        assert "MissingAttribute" in codes(err)

    def test_negative_priority(self):
        with pytest.raises((SemanticError, ParseError)):
            parse_oil(BASE.replace("PRIORITY = 2", "PRIORITY = -2"))

    def test_zero_activation(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE.replace("ACTIVATION = 1", "ACTIVATION = 0"))
        assert "BadActivation" in codes(err)

    def test_extended_task_single_activation_only(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + """
            EVENT E { MASK = AUTO; };
            TASK X { PRIORITY = 3; EVENT = E; ACTIVATION = 2; };
            """)
        assert "ExtendedMultiActivation" in codes(err)

    def test_dangling_alarm_task(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + "ALARM AA { COUNTER = C;"
                             " ACTION = ACTIVATETASK { TASK = Nope; }; };")
        assert "DanglingReference" in codes(err)

    def test_alarm_needs_known_counter(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + "ALARM AA { COUNTER = Zonk;"
                             " ACTION = ACTIVATETASK { TASK = A; }; };")
        assert codes(err) & {"DanglingReference", "BadCounter"}

    def test_two_system_counters_ambiguous(self):
        text = BASE + "COUNTER D { MAXALLOWEDVALUE = 7; SYSTEM = TRUE; };"
        with pytest.raises(SemanticError) as err:
            parse_oil(text)
        assert "AmbiguousSystemCounter" in codes(err)

    def test_sole_counter_is_system_by_default(self):
        config = parse_oil(BASE.replace(" SYSTEM = TRUE;", ""))
        assert config.system_counter.id == "C"

    def test_autostart_offset_out_of_range(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + """
            ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; };
                       AUTOSTART = TRUE { ALARMTIME = 99; CYCLETIME = 0; }; };
            """)
        assert "OffsetOutOfRange" in codes(err)

    def test_autostart_cycle_below_min_cycle(self):
        with pytest.raises(SemanticError) as err:
            parse_oil(BASE + """
            ALARM AA { COUNTER = C; ACTION = ACTIVATETASK { TASK = A; };
                       AUTOSTART = TRUE { ALARMTIME = 3; CYCLETIME = 1; }; };
            """)
        assert "CycleOutOfRange" in codes(err)

    def test_alarm_runs_on_the_system_counter(self):
        text = """
        COUNTER C { MAXALLOWEDVALUE = 7; MINCYCLE = 1; SYSTEM = TRUE; };
        COUNTER C2 { MAXALLOWEDVALUE = 100; MINCYCLE = 1; };
        TASK A { PRIORITY = 1; AUTOSTART = TRUE; };
        ALARM B { COUNTER = C2; ACTION = ACTIVATETASK { TASK = A; };
                  AUTOSTART = TRUE { ALARMTIME = 50; CYCLETIME = 60; }; };
        """
        with pytest.raises(SemanticError) as err:
            parse_oil(text)
        assert codes(err) == {"OffsetOutOfRange", "CycleOutOfRange"}
        config = parse_oil(text.replace("ALARMTIME = 50; CYCLETIME = 60;",
                                        "ALARMTIME = 5; CYCLETIME = 6;"))
        assert [w.code for w in config.warnings] == ["AlarmCounterIgnored"]
        config = parse_oil(text.replace("COUNTER = C2;", "COUNTER = C;")
                           .replace("ALARMTIME = 50; CYCLETIME = 60;",
                                    "ALARMTIME = 5; CYCLETIME = 6;"))
        assert not config.warnings

    def test_setevent_on_basic_task_warns(self):
        config = parse_oil(BASE + """
        EVENT E { MASK = AUTO; };
        TASK X { PRIORITY = 3; EVENT = E; };
        ALARM AA { COUNTER = C; ACTION = SETEVENT { TASK = A; EVENT = E; }; };
        """)
        assert any(w.code == "ActionOnBasicTask" for w in config.warnings)

    def test_setevent_event_not_declared_by_target_warns(self):
        config = parse_oil(BASE + """
        EVENT E { MASK = AUTO; };
        EVENT F { MASK = AUTO; };
        TASK X { PRIORITY = 3; EVENT = F; };
        ALARM AA { COUNTER = C; ACTION = SETEVENT { TASK = X; EVENT = E; }; };
        """)
        assert any(w.code == "EventNotWaited" for w in config.warnings)

    def test_unused_resource_warns(self):
        config = parse_oil(BASE + "RESOURCE R { };")
        assert any(w.code == "UnusedResource" for w in config.warnings)


# ==== round-trip ===========================================================


class TestRoundTrip:
    def test_pretty_print_reparses(self):
        config = parse_oil(BASE + """
        EVENT E { MASK = AUTO; };
        TASK X { PRIORITY = 3; EVENT = E; };
        ALARM AA { COUNTER = C; ACTION = SETEVENT { TASK = X; EVENT = E; };
                   AUTOSTART = TRUE { ALARMTIME = 5; CYCLETIME = 4; }; };
        """)
        again = parse_oil(pretty_print(config))
        assert replace(again, warnings=()) == replace(config, warnings=())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_random_configs_round_trip(self, seed):
        oil, _ = random_app(random.Random(seed))
        config = parse_oil(oil)
        again = parse_oil(pretty_print(config))
        assert replace(again, warnings=()) == replace(config, warnings=())


# ==== corpus ===============================================================


class TestCorpus:
    def test_ems_shape(self, ems_app):
        config, _ = ems_app
        assert len(config.tasks) == 5
        assert len(config.alarms) == 3
        assert config.system_counter.max_allowed_value == 127
        assert config.tasks["SystemInit"].priority == 4
        assert config.tasks["EMS_Adap_Task_10ms"].is_extended

    def test_repaired_raises_the_setter(self, ems_repaired_app):
        config, _ = ems_repaired_app
        assert (config.tasks["Task_10ms"].priority
                > config.tasks["EMS_Task_10ms"].priority
                > config.tasks["EMS_Adap_Task_10ms"].priority)
