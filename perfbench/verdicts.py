"""Verdict lines: the part of a CLI invocation's stdout that states its answer.

Traces and snapshots are left out; what remains is what a user reads to learn
the outcome.  Only output formats that the README documents are relied on.
"""

from __future__ import annotations

import hashlib
import re
from fnmatch import fnmatchcase

# Matched over the whole output at once, so a 10 MB trace is never split
# into a list of lines.
_FIXED = (r"(?:result: |visited |all-idle finals: |dead ends: |note: "
          r"|kernel implementation: |application: |verdict\."
          r"|(?:final|dead end) \d+: )[^\n]*")
# ltlmc prints "name: verdict   formula"; the formula text is not a verdict.
_FORMULA = r"(\S+): (holds|violated|bounded_holds)(?:[ \t][^\n]*)?"
_LINES = re.compile(f"^(?:({_FIXED})|{_FORMULA})$", re.MULTILINE)
_FIXED_ONLY = re.compile(f"^{_FIXED}$", re.MULTILINE)


def verdict_lines(command: str, stdout: str) -> list[str]:
    """The lines of ``stdout`` that carry the verdict of ``command``."""
    if command != "ltlmc":
        return _FIXED_ONLY.findall(stdout)
    return [fixed or f"{name}: {verdict}"
            for fixed, name, verdict in _LINES.findall(stdout)]


def digest(lines: list[str]) -> str:
    """Short stable fingerprint of a list of verdict lines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def lines_match(patterns: tuple[str, ...], lines: list[str]) -> bool:
    """Each line matches the shell-style pattern at the same position."""
    return (len(patterns) == len(lines)
            and all(fnmatchcase(line, pattern)
                    for pattern, line in zip(patterns, lines)))
