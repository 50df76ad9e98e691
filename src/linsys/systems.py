"""Named built-in systems, defined in the same text format the parser
accepts so examples run without input files.

The texts are parsed once, at import, into a table of immutable
``ZSystem``s, so a lookup never runs the parser.  ``STAR<k>`` is a family:
k three-term progressions sharing their middle term (variable x_{2k+1}),
e.g. STAR2 has rows x1+x2-2x5 and x3+x4-2x5; its rows are built directly,
once per k.
"""
from __future__ import annotations

import functools
import re

from .eqsys import MAX_VARIABLES, ZSystem, parse_system

_DEFS: dict[str, str] = {
    # W shape: a parallelogram (x1,x2,x4,x3) overlapping a 3-AP (x1,x3,x5)
    "SW": "x1 - x2 - x3 + x4 = 0\nx1 - 2x3 + x5 = 0",
    # 4-term arithmetic progression
    "S4AP": "x1 - 2x2 + x3 = 0\nx2 - 2x3 + x4 = 0",
    # 3-term arithmetic progression
    "S3AP": "x1 - 2x2 + x3 = 0",
    # single parallelogram
    "SP": "x1 - x2 - x3 + x4 = 0",
    # two overlapping parallelograms (same semishapes as SW, worse bounds)
    "SPP": "x1 - x2 - x3 + x4 = 0\nx2 - x3 - x4 + x5 = 0",
    # four equations in nine variables; irreducible, multiplicity 3 at x5
    "S1": (
        "x1 + x2 - x3 - x4 = 0\n"
        "x5 + x6 - 2x7 = 0\n"
        "x5 + x7 + x8 - 3x9 = 0\n"
        "x4 - 2x5 + x8 = 0"
    ),
    # two dominant equations (coefficients 4 and 2) and one non-dominant
    "S2": (
        "x1 + x2 + x3 + x4 - 4x5 = 0\n"
        "x1 + x2 - x5 - x6 = 0\n"
        "x1 - 2x6 + x7 = 0"
    ),
    # needs three dominant reductions to reach the terminal system
    "S3": (
        "x1 - x2 - x3 + x4 = 0\n"
        "x2 - x3 - x4 + x5 = 0\n"
        "x1 - 2x2 + x6 = 0"
    ),
}

_TABLE: dict[str, ZSystem] = {name: parse_system(text) for name, text in _DEFS.items()}

_STAR = re.compile(r"^STAR(\d+)$")


@functools.cache
def _star(k: int) -> ZSystem:
    if k < 1:
        raise ValueError("STAR index must be >= 1")
    r = 2 * k + 1
    if r > MAX_VARIABLES:  # before the rows are built: k may be huge
        raise ValueError(f"r={r} exceeds the supported limit ({MAX_VARIABLES})")
    rows = []
    for i in range(k):
        row = [0] * r
        row[2 * i] = row[2 * i + 1] = 1
        row[-1] = -2
        rows.append(tuple(row))
    return ZSystem(r, tuple(rows))


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_DEFS)) + ("STAR<k>",)


def builtin(name: str) -> ZSystem:
    """Look up a built-in system by name (case-insensitive)."""
    key = name.strip().upper()
    if key in _TABLE:
        return _TABLE[key]
    m = _STAR.match(key)
    if m:
        return _star(int(m.group(1)))
    known = ", ".join(builtin_names())
    raise KeyError(f"unknown system {name!r}; built-ins: {known}")
