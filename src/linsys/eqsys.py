"""Balanced linear equation systems over Z and their reductions mod p.

A system is a list of homogeneous linear equations in variables x1..xr
(1-indexed in text, 0-based in memory).  The text format is one equation
per line::

    x1 - x2 - x3 + x4 = 0      # '#' starts a comment
    2x3 + -0 ...               # (not legal: signs belong between terms)

Each term is an optional unsigned integer coefficient glued to a variable
token ``x<k>``; an omitted coefficient means 1, and a ``0x9`` term is the
legal way to declare a variable whose column is otherwise all zero.  A
leading ``-`` (or ``+``) before the first term is accepted so that every
string the canonical renderer produces parses back; whitespace is
insignificant elsewhere too.

An equation is *balanced* when its coefficients sum to zero.  Balanced
systems are translation-invariant: if (x_1,..,x_r) solves the system then
so does (x_1+v,..,x_r+v), which the search code relies on.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .arith import is_prime
from .errors import ParseError

#: Hard practical limits (documented in the README): systems bigger than
#: this are outside the intended desk scale and are rejected up front.
MAX_EQUATIONS = 64
MAX_VARIABLES = 64
#: Coefficients must fit a signed 64-bit integer.
COEFF_LIMIT = 2**63 - 1


def _check_shape(s: ZSystem | FpSystem) -> None:
    """The limits both system classes share; fills in default names."""
    if s.r < 1:
        raise ValueError("a system needs at least one variable")
    if s.r > MAX_VARIABLES:
        raise ValueError(f"r={s.r} exceeds the supported limit ({MAX_VARIABLES})")
    if len(s.rows) > MAX_EQUATIONS:
        raise ValueError(f"L={len(s.rows)} exceeds the supported limit ({MAX_EQUATIONS})")
    if not s.names:
        object.__setattr__(s, "names", tuple(f"x{i + 1}" for i in range(s.r)))
    if len(s.names) != s.r:
        raise ValueError("names must match the variable count")
    for row in s.rows:
        if len(row) != s.r:
            raise ValueError("row width does not match r")


@dataclass(frozen=True)
class ZSystem:
    """An immutable system of integer equations in r named variables, one
    coefficient row per equation.

    L = 0 with r = 1 is the terminal "empty system in one variable" that
    dominant reductions aim for; it is constructed programmatically, never
    parsed from text.
    """

    r: int
    rows: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_shape(self)
        for row in self.rows:
            if not any(row):
                raise ValueError("all-zero equation")
            for c in row:
                if abs(c) > COEFF_LIMIT:
                    raise ValueError(f"coefficient {c} overflows the 64-bit range")

    @property
    def L(self) -> int:
        return len(self.rows)

    @property
    def is_balanced(self) -> bool:
        return all(sum(row) == 0 for row in self.rows)


@dataclass(frozen=True)
class FpSystem:
    """A system reduced mod a prime p: rows of least nonnegative residues.

    ``vanished`` records (equation, variable) pairs whose integer
    coefficient was nonzero but divisible by p — the support changed, so
    mod-p conclusions need not lift back to Z.
    """

    p: int
    r: int
    rows: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = field(default=())
    vanished: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        _check_shape(self)
        for row in self.rows:
            if any(not (0 <= c < self.p) for c in row):
                raise ValueError("rows must hold least nonnegative residues")

    @property
    def L(self) -> int:
        return len(self.rows)

    @property
    def is_balanced(self) -> bool:
        return all(sum(row) % self.p == 0 for row in self.rows)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"[ \t]*(?:(?P<var>x(?P<idx>\d+))|(?P<int>\d+)|(?P<sign>[+-])|(?P<eq>=)|(?P<bad>\S))")


def _tokenize(text: str, lineno: int) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:  # only trailing whitespace left
            break
        col = m.start(m.lastgroup) + 1
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}", lineno, col)
        out.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return out


def _parse_equation(tokens: list[tuple[str, str, int]], lineno: int) -> dict[int, int]:
    """Parse one tokenized equation into {0-based index: coefficient}."""
    coeffs: dict[int, int] = {}
    i = 0
    sign = 1
    # optional leading sign
    if tokens and tokens[i][0] == "sign":
        sign = -1 if tokens[i][1] == "-" else 1
        i += 1
    while True:
        # term: [integer] variable
        mag = 1
        if i < len(tokens) and tokens[i][0] == "int":
            mag = int(tokens[i][1])
            if mag > COEFF_LIMIT:
                raise ParseError(f"coefficient {mag} overflows the 64-bit range", lineno, tokens[i][2])
            i += 1
            if i >= len(tokens) or tokens[i][0] != "var":
                col = tokens[i][2] if i < len(tokens) else (tokens[-1][2] + len(tokens[-1][1]))
                raise ParseError("expected variable after coefficient", lineno, col)
        if i >= len(tokens) or tokens[i][0] != "var":
            col = tokens[i][2] if i < len(tokens) else (tokens[-1][2] + len(tokens[-1][1]) if tokens else 1)
            raise ParseError("expected a term like '2x3'", lineno, col)
        kind, tok, col = tokens[i]
        idx = int(tok[1:])
        if idx < 1:
            raise ParseError("variable index must be >= 1", lineno, col)
        if idx > MAX_VARIABLES:
            raise ParseError(f"variable index {idx} exceeds the supported limit ({MAX_VARIABLES})", lineno, col)
        coeffs[idx - 1] = coeffs.get(idx - 1, 0) + sign * mag
        if abs(coeffs[idx - 1]) > COEFF_LIMIT:
            raise ParseError("accumulated coefficient overflows the 64-bit range", lineno, col)
        i += 1
        if i >= len(tokens):
            raise ParseError("missing '= 0'", lineno, col + len(tok))
        kind, tok, col = tokens[i]
        if kind == "sign":
            sign = -1 if tok == "-" else 1
            i += 1
            continue
        if kind == "eq":
            i += 1
            if i >= len(tokens) or tokens[i][0] != "int" or tokens[i][1] != "0":
                bad_col = tokens[i][2] if i < len(tokens) else col + 1
                raise ParseError("right-hand side must be 0", lineno, bad_col)
            i += 1
            if i != len(tokens):
                raise ParseError("trailing input after '= 0'", lineno, tokens[i][2])
            return coeffs
        raise ParseError("expected '+', '-' or '='", lineno, col)


def parse_system(text: str) -> ZSystem:
    """Parse a system; r is the largest variable suffix that occurs."""
    per_eq: list[tuple[dict[int, int], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        per_eq.append((_parse_equation(tokens, lineno), lineno))
    if not per_eq:
        raise ParseError("no equations found", 1, 1)
    if len(per_eq) > MAX_EQUATIONS:
        raise ParseError(f"more than {MAX_EQUATIONS} equations", per_eq[MAX_EQUATIONS][1], 1)
    r = max(max(c) for c, _ in per_eq) + 1
    rows = []
    for coeffs, lineno in per_eq:
        row = tuple(coeffs.get(i, 0) for i in range(r))
        if not any(row):
            raise ParseError("all-zero equation", lineno, 1)
        rows.append(row)
    return ZSystem(r, tuple(rows))


# ---------------------------------------------------------------------------
# rendering

def _render_row(coeffs: tuple[int, ...], names: tuple[str, ...], extra_zero: int | None = None) -> str:
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = names[i] if mag == 1 else f"{mag}{names[i]}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    if extra_zero is not None:
        parts.append(f"+ 0{names[extra_zero]}")
    return " ".join(parts) + " = 0"


def render_system(s: ZSystem | FpSystem) -> str:
    """Canonical text: minimal signs, ascending indices, one line per equation.

    If the last variable's column is all zero (legal — r was declared via a
    0-coefficient term), a ``+ 0x<r>`` term is appended to the first
    equation so that parsing the output recovers the same r.
    """
    if not s.rows:
        raise ValueError("cannot render a system with no equations")
    anchor = None
    if all(row[s.r - 1] == 0 for row in s.rows):
        anchor = s.r - 1
    lines = []
    for li, row in enumerate(s.rows):
        lines.append(_render_row(row, s.names, extra_zero=anchor if li == 0 else None))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# predicates and reductions

def reduce_mod_p(s: ZSystem, p: int) -> FpSystem:
    """Least nonnegative residues of every coefficient; p must be prime."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    rows = []
    vanished = []
    for l, row in enumerate(s.rows):
        rows.append(tuple(c % p for c in row))
        for i, c in enumerate(row):
            if c != 0 and c % p == 0:
                vanished.append((l, i))
    return FpSystem(p, s.r, tuple(rows), s.names, tuple(vanished))


def subsystem(s: ZSystem, indices: tuple[int, ...] | list[int]) -> ZSystem:
    """The subsystem with the given equations, still in all r variables."""
    idx = list(indices)
    if not idx:
        raise ValueError("a subsystem needs at least one equation")
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate equation index")
    for i in idx:
        if not 0 <= i < s.L:
            raise IndexError(f"equation index {i} out of range")
    return ZSystem(s.r, tuple(s.rows[i] for i in sorted(idx)), s.names)
