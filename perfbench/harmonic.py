"""Seeded generator of harmonic-alarm applications.

N periodic basic tasks are activated by K autostart alarms that share one
ALARMTIME and have harmonic CYCLETIMEs (P, 2P, 4P, ...), so at the common
offset and at every multiple of the longest period all K expiries coincide and
the explorer emits K! handling orders.  Tasks share priority levels (two at
each of the two lower ones), so the order of their activations is also the
order in which they run, and the orderings stay distinct past the expiry step.
With one activation allowed per task the load eventually overruns an
activation limit.

The structure is fixed by ``N_TASKS`` and ``N_ALARMS``; the seed only picks
the identifiers.  Every seed therefore yields an isomorphic application with
the same state count and verdicts, so the frozen expectation holds for any
seed while the program still sees different inputs.
"""

from __future__ import annotations

import random
import string

N_TASKS = 5
N_ALARMS = 5
PERIOD = 8
_LEVELS = 3                      # cycle times PERIOD * 1, 2, 4
_PRIORITIES = (1, 1, 2, 2, 3)
_TICKS = (1, 2, 1, 3, 2)
_NAME_LEN = 8


def _names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice(string.ascii_uppercase)
                  + "".join(rng.choices(string.ascii_lowercase,
                                        k=_NAME_LEN - 1)))
    return sorted(names, key=lambda _: rng.random())


def generate(seed: int) -> tuple[str, str, str]:
    """Return (configuration, task bodies, formula file) for ``seed``."""
    rng = random.Random(seed)
    ids = _names(rng, 2 + N_TASKS + N_ALARMS)
    counter, init = ids[0], ids[1]
    tasks = ids[2:2 + N_TASKS]
    alarms = ids[2 + N_TASKS:]
    modulus = PERIOD * 2 ** (_LEVELS - 1) * 4

    oil = [f"COUNTER {counter} {{ MAXALLOWEDVALUE = {modulus - 1}; "
           "TICKSPERBASE = 1; MINCYCLE = 1; SYSTEM = TRUE; };",
           f"TASK {init} {{ PRIORITY = {max(_PRIORITIES) + 1}; "
           "SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = TRUE; };"]
    for index, task in enumerate(tasks):
        oil.append(f"TASK {task} {{ PRIORITY = "
                   f"{_PRIORITIES[index % len(_PRIORITIES)]}; "
                   "SCHEDULE = FULL; ACTIVATION = 1; AUTOSTART = FALSE; };")
    for index, alarm in enumerate(alarms):
        cycle = PERIOD * 2 ** (index % _LEVELS)
        oil.append(f"ALARM {alarm} {{ COUNTER = {counter}; ACTION = "
                   f"ACTIVATETASK {{ TASK = {tasks[index % N_TASKS]}; }}; "
                   f"AUTOSTART = TRUE {{ ALARMTIME = {PERIOD}; "
                   f"CYCLETIME = {cycle}; }}; }};")

    tsk = [f"TASK {init} {{ TerminateTask(); }}"]
    for index, task in enumerate(tasks):
        tsk.append(f"TASK {task} {{ TimeInterval = "
                   f"{_TICKS[index % len(_TICKS)]}; TerminateTask(); }}")

    # Two formulas are checked on strict semantics (they mention
    # deadlocked) and three on continue-on-error semantics.
    formulas = [
        "no_overflow: [] !error(E_OS_LIMIT)",
        "no_deadlock: [] !deadlocked",
        f"first_recurs: [] <> running({tasks[0]})",
        f"second_served: [] (ready({tasks[1]}) -> <> running({tasks[1]}))",
        f"low_or_dead: [] (ready({tasks[3]}) -> <> running({tasks[3]}))"
        " || <> deadlocked",
    ]
    return ("\n".join(oil) + "\n", "\n".join(tsk) + "\n",
            "\n".join(formulas) + "\n")
