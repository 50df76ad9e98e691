"""Command-line front end.

Exit codes: 0 success, 1 bad input (usage, parse or validation), 2 a
requested verification failed.  All subcommands print either JSON
(--format json) or plain text with the same numbers; nothing is written
anywhere except stdout/stderr and an optional --out file.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from types import GeneratorType
from typing import Any, Callable, Iterable, Optional

from . import bounds, structure
from .arith import power_exceeds
from .dominance import (
    ReductionTrace,
    lower_bound_strong,
    lower_bound_weak,
    reduction_sequence,
)
from .eqsys import FpSystem, ZSystem, parse_system, reduce_mod_p, render_system
from .errors import GuardExceeded, ParseError
from .lattice import (
    best_sphere_set,
    check_modulus,
    norm_class_counts,
    pigeonhole_bound,
    sphere_set_checks,
    verify_construction,  # unused here; perfbench/tracing.py patches this name
)
from .oracle import (
    DEFAULT_NODE_BUDGET,
    Matching,
    SearchResult,
    is_multicolored_free,
    is_strongly_free,
    is_weakly_free,
    max_strongly_free,
    max_weakly_free,
)
from .systems import builtin, builtin_names


class VerificationFailure(Exception):
    """A requested check came out false; the CLI exits with code 2."""


class _Parser(argparse.ArgumentParser):
    """Refuses bad usage with ParseError, so that it exits 1 like any other
    bad input instead of argparse's 2, the code of a failed verification."""

    def error(self, message: str):
        raise ParseError(message)


def _load_system(name_or_path: str) -> ZSystem:
    path = Path(name_or_path)
    if path.exists():
        return parse_system(path.read_text())
    try:
        return builtin(name_or_path)
    except KeyError:
        raise ParseError(f"{name_or_path!r} is neither a readable file nor a built-in "
                         f"({', '.join(builtin_names())})")


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (str, bool, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None  # JSON has no inf or nan
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "value": float(obj)}
    return str(obj)


def _text_entry(key: str, value: Any) -> str:
    """One entry of a text report: ``key: value``, with a list or dict
    written as JSON and a multi-line string indented below its key."""
    if isinstance(value, str) and "\n" in value:
        return "\n".join([f"{key}:", *("  " + ln for ln in value.splitlines())])
    if isinstance(value, (dict, list)):
        return f"{key}: {json.dumps(value)}"
    return f"{key}: {value}"


def _lazy_json(slices: Iterator) -> Iterator[str]:
    """The JSON of a report value given lazily, in pieces: ``slices``, a
    generator, yields at least one list (or dict) of plain leaves, or the
    JSON text of one as a str, and their items in order make up the value.
    Each slice that is not text yet is encoded by the C encoder; each is
    written without its brackets, joined to the next by ", ", which is
    what json.dumps writes for the whole value."""
    closing = None
    for piece in slices:
        text = piece if isinstance(piece, str) else json.dumps(piece)
        if closing is None:
            yield text[0]
            closing, sep = text[-1], ""
        if len(text) > 2:
            yield sep
            yield text[1:-1]
            sep = ", "
    yield closing


def _parts(report: dict, as_json: bool) -> list:
    """The text of a report with lazy values, as a list of strings and, in
    their places, the lazy values; every other value is encoded here."""
    parts: list = []
    for key, value in report.items():
        lazy = type(value) is GeneratorType
        if as_json:
            parts += [", " if parts else "{", f"{json.dumps(str(key))}: ",
                      value if lazy else json.dumps(_jsonable(value))]
        else:
            parts += [f"{key}: ", value, "\n"] if lazy else [_text_entry(str(key), _jsonable(value)), "\n"]
    return parts + ["}\n"] if as_json else parts


def _emit(report: Any, args: argparse.Namespace, text: Optional[str] = None) -> None:
    """Write ``report``, a dict or a dataclass, to stdout and to ``--out``:
    as JSON on one line (``python -m json.tool`` indents it), or as ``text``
    when given and one ``key: value`` line per entry otherwise.  A value of
    a dict report may be given lazily, as a generator of slices (see
    _lazy_json); it is written a slice at a time, so that the report is
    never held whole.  Every other value is encoded, and the ``--out`` file
    opened, before the first byte goes out, so that a value the encoder
    refuses or a file that cannot be opened leaves stdout empty.  The CLI
    writes stdout nowhere else."""
    as_json = args.format == "json"
    if text is not None and not as_json:
        pieces: Iterable[str] = (text, "\n")
    elif isinstance(report, dict) and GeneratorType in map(type, report.values()):
        pieces = itertools.chain.from_iterable(
            (part,) if isinstance(part, str) else _lazy_json(part) for part in _parts(report, as_json))
    elif as_json:
        pieces = (json.dumps(_jsonable(report)), "\n")  # no indent: only then is the C encoder used
    else:
        pieces = ("\n".join(_text_entry(k, v) for k, v in _jsonable(report).items()), "\n")
    if not args.out:
        sys.stdout.writelines(pieces)
        return
    with open(args.out, "w") as copy:
        for piece in pieces:
            copy.write(piece)
            sys.stdout.write(piece)


#: decimal exponents past this are refused: Fraction builds 10^|exponent| exactly
EXPONENT_LIMIT = 400


def _fraction(text: str) -> Fraction:
    """A decimal or a fraction (``0.5``, ``1e-3``, ``1/3``), read exactly
    while parsing; ``--alpha`` and ``--epsilon`` both take it."""
    exponent = re.search(r"[eE][-+]?0*(\d*)", text.replace("_", ""))
    if exponent and (len(exponent.group(1)) > 3 or int(exponent.group(1) or 0) > EXPONENT_LIMIT):
        raise argparse.ArgumentTypeError(f"decimal exponents must lie within ±{EXPONENT_LIMIT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal or a fraction")


_FLOAT_RANGE = f"must lie within the float range (±{sys.float_info.max:.3g})"


def _float_range_int(text: str) -> int:
    """An integer the bounds can read as a float, checked while parsing, so
    that a larger one is refused with a message naming its option."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"integers {_FLOAT_RANGE}")
    return value


def _check_top(top: int, options: str) -> None:
    """Refuse a top exponent M = m*h past the float range, naming the
    options it is made of: the bounds read M as a float."""
    if abs(top) > sys.float_info.max:
        raise ParseError(f"{options} {_FLOAT_RANGE}")


def _epsilon(text: str) -> Fraction:
    """``--epsilon``, checked while parsing and so before any work."""
    epsilon = _fraction(text)
    if not 0 < epsilon < 1:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1)")
    return epsilon


def _read_points(path: str) -> list[tuple[int, ...]]:
    """The rows of integers in ``path``, all as wide as the first; a file
    of none is the empty list."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries = tuple(int(tok) for tok in line.replace(",", " ").split())
        except ValueError:
            raise ParseError(f"line {lineno}: not a row of integers")
        if rows and len(entries) != len(rows[0]):
            raise ParseError(f"line {lineno}: expected {len(rows[0])} columns like the first row, "
                             f"got {len(entries)}")
        rows.append(entries)
    return rows


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args: argparse.Namespace) -> int:
    s = _load_system(args.system)
    if not s.is_balanced:
        raise ParseError("system is not balanced (every row must sum to zero)")
    report: dict[str, Any] = {"system": render_system(s)}
    report.update(structure.hypergraph_report(s))
    holds, margin = bounds.star_inequality(report["r1"], report["r2"], report["L"])
    report["star"] = holds
    report["star_margin"] = margin
    if args.p is not None:
        t = reduce_mod_p(s, args.p)
        report["p"] = args.p
        if t.vanished:
            report["support_changed"] = True
            print(f"warning: some coefficients vanish mod {args.p}; "
                  f"the mod-p hypergraph differs from the integer one", file=sys.stderr)
        if holds and report["irreducible"]:
            base = bounds.c_tilde(report["r1"], report["r2"], report["L"], report["m_max"], args.p)
            report["ctilde"] = base.value
            report["ctilde_over_p"] = base.value / args.p
    _emit(report, args)
    return 0


def cmd_lambda(args: argparse.Namespace) -> int:
    _check_top(args.m * args.h, "--m times --h")
    _emit(bounds.lambda_min(args.m, float(args.alpha), args.h), args)
    return 0


def cmd_ctilde(args: argparse.Namespace) -> int:
    _check_top(args.m * (args.d - 1), "--m times (--d - 1)")
    rep = bounds.c_tilde(args.r1, args.r2, args.L, args.m, args.d)
    _emit({**dataclasses.asdict(rep), "over_d": rep.value / args.d}, args)
    return 0


def cmd_star(args: argparse.Namespace) -> int:
    holds, margin = bounds.star_inequality(args.r1, args.r2, args.L)
    _emit({"holds": holds, "margin": margin}, args)
    return 0


def cmd_upper(args: argparse.Namespace) -> int:
    s = _load_system(args.system)
    t = reduce_mod_p(s, args.p)
    graph = structure.build_hypergraph(t)
    holds, margin = bounds.star_inequality(graph.r1, graph.r2, graph.L)
    report: dict[str, Any] = {"p": args.p, "n": args.n, "star": holds, "star_margin": margin}
    alloc = bounds.optimize_allocation(t, graph)
    report["base"] = alloc.value
    report["base_over_p"] = alloc.value / args.p
    report["allocation"] = alloc.optimizer
    report["upper"] = bounds.upper_bound_strong(t, args.n, alloc)  # inf (null) past the float range
    report["log_upper"] = args.n * math.log(alloc.value)
    if not holds:
        report["warnings"] = [f"r1/2 + r2/e > L fails (margin {margin:.6f}); the bound may be vacuous"]
    _emit(report, args)
    return 0


def _trace_report(trace: ReductionTrace) -> dict[str, Any]:
    steps = []
    for step in trace.steps:
        merged: dict[str, list[str]] = {}
        for old, new in step.merge_map:
            merged.setdefault(new, []).append(old)
        steps.append({
            "subsystem": [i + 1 for i in step.subsystem],
            "coefficient": step.coefficient,
            "merged": merged,
            "result": render_system(step.result) if step.result.L else "(no equations)",
            "variables": list(step.result.names),
        })
    return {
        "initial": render_system(trace.initial),
        "steps": steps,
        "terminated": True,
        "b_tilde": trace.b_tilde,
    }


def _trace_text(trace: ReductionTrace) -> str:
    lines = [render_system(trace.initial)]
    for i, step in enumerate(trace.steps, start=1):
        eqs = ", ".join(str(j + 1) for j in step.subsystem)
        lines += ["", f"-- step {i}: contract equation(s) {eqs} (coefficient {step.coefficient}) -->"]
        if step.result.L:
            lines.append(render_system(step.result))
        else:
            lines.append(f"(no equations left; variables {', '.join(step.result.names)})")
    lines += ["", f"terminal: empty system in one variable; b~ = {trace.b_tilde}"]
    return "\n".join(lines)


def cmd_reduce(args: argparse.Namespace) -> int:
    s = _load_system(args.system)
    trace = reduction_sequence(s, args.strategy)
    if trace is None:
        _emit({"initial": render_system(s), "terminated": False,
               "note": "no reduction sequence reaches the one-variable empty system"}, args)
        return 0
    _emit(_trace_report(trace), args, _trace_text(trace) if args.format == "text" else None)
    return 0


def _lower_section(s: ZSystem, p: int, trace: Optional[ReductionTrace],
                   epsilon: Fraction) -> dict[str, Any]:
    """The strong lower bound from ``trace`` (a terminating reduction of
    ``s``, or None) and the weak one from ``s``, in that order; a bound not
    derived is None, followed by a note saying why."""
    section: dict[str, Any] = {"strong": None}
    if trace is None:
        section["strong_note"] = "no terminating dominant reduction; no strong lower bound derived"
    elif p <= trace.b_tilde:
        section["strong_note"] = f"p = {p} does not exceed b~ = {trace.b_tilde}; no strong lower bound derived"
    else:
        section["strong"] = lower_bound_strong(trace, p, epsilon=epsilon)
    section["weak"] = lower_bound_weak(s, p)
    if section["weak"] is None:
        section["weak_note"] = "no dominant equation with coefficient in [2, p); no weak lower bound derived"
    return section


def cmd_lower_bound(args: argparse.Namespace) -> int:
    s = _load_system(args.system)
    lower = _lower_section(s, args.p, reduction_sequence(s, args.strategy), args.epsilon)
    _emit({"p": args.p, **lower}, args)
    return 0


def _class_slices(counts: list[int]) -> Iterator[dict[int, int]]:
    """A census's nonempty classes, norm -> count, as consecutive dicts of
    1,024, at least one: a count runs to hundreds of digits, so that a
    slice's JSON stays below half a megabyte."""
    items = filter(itemgetter(1), enumerate(counts))
    chunk = dict(itertools.islice(items, 1024))
    yield chunk
    while chunk := dict(itertools.islice(items, 1024)):
        yield chunk


def cmd_behrend(args: argparse.Namespace) -> int:
    if args.p is not None:
        check_modulus(args.p, args.k)  # so that materialized rows are their own embedding
    counts = norm_class_counts(args.n, args.k)
    count = max(counts)
    radius_sq = counts.index(count)  # the smallest norm of the largest classes
    try:
        bound = float(pigeonhole_bound(args.n, args.k))
    except OverflowError:
        bound = math.inf  # null in JSON, as upper reports a bound past the float range
    # classes and points are written a slice at a time; best_count, the largest count,
    # is encoded before the first byte, so a count too long to print leaves stdout empty
    report: dict[str, Any] = {
        "n": args.n, "k": args.k,
        "classes": _class_slices(counts),
        "best_norm_sq": radius_sq,
        "best_count": count,
        "pigeonhole_bound": bound,
    }
    if args.materialize:
        if args.p is not None:
            report["p"] = args.p
        # the sphere is built here, before the first byte, so that its guard leaves stdout empty
        report["points"] = best_sphere_set(args.n, args.k, counts).json_chunks()
    _emit(report, args)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    s = _load_system(args.system)
    t = reduce_mod_p(s, args.p)
    fn = max_strongly_free if args.kind == "strong" else max_weakly_free
    res = fn(t, args.n, node_budget=args.node_budget)
    _emit({"kind": args.kind, "p": args.p, "n": args.n, "value": res.value,
           "witness": [",".join(map(str, pt)) for pt in res.witness],
           "nodes_explored": res.nodes_explored, "exhaustive": res.exhaustive}, args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    s = _load_system(args.system)
    t = reduce_mod_p(s, args.p)
    rows = _read_points(args.set)
    if args.kind == "multicolor":
        width = len(rows[0]) if rows else 0  # no rows: Matching refuses them
        if width % t.r:
            raise ParseError(f"matching rows need r*n = {t.r}*n columns, got {width}")
        n = width // t.r
        matching = Matching(tuple(tuple(row[i * n:(i + 1) * n] for i in range(t.r)) for row in rows))
        holds = is_multicolored_free(t, matching)
    else:  # no rows: the empty set
        holds = (is_strongly_free if args.kind == "strong" else is_weakly_free)(t, rows)
    _emit({"kind": args.kind, "holds": holds}, args)
    if not holds:
        raise VerificationFailure(f"{args.kind} freeness does not hold")
    return 0


def _gate_exact(report: dict[str, Any], checks: list[tuple[str, bool]], key: str,
                search: Callable[[FpSystem, int], SearchResult], t: FpSystem, n: int,
                upper: float, name: str) -> None:
    """Report the exact maximum ``search(t, n)`` and check it against
    ``upper``; a search refused by the compile guard or cut off by its node
    budget reports null and is not checked."""
    try:
        res = search(t, n)
    except GuardExceeded as exc:
        report[key] = None
        report[f"{key}_note"] = f"search refused: {exc}; not checked"
        return
    if res.exhaustive:
        report[key] = res.value
        checks.append((name, res.value <= upper * (1 + 1e-9)))
    else:
        report[key] = None
        report[f"{key}_note"] = (f"search stopped at its node budget ({res.nodes_explored} sets) "
                                 f"with a free set of {res.value} points; not checked")


def cmd_certify(args: argparse.Namespace) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError("dimension must be >= 1")
    s = _load_system(args.system)
    p = args.p
    t = reduce_mod_p(s, p)
    graph = structure.build_hypergraph(t)
    holds, margin = bounds.star_inequality(graph.r1, graph.r2, graph.L)
    report: dict[str, Any] = {
        "system": render_system(s), "p": p, "n": args.n,
        "parameters": (graph.r1, graph.r2, graph.L, graph.m_max),
        "star": holds, "star_margin": margin, "irreducible": graph.irreducible,
    }
    checks: list[tuple[str, bool]] = []

    trace = reduction_sequence(s, "greedy")
    lower = _lower_section(s, p, trace, args.epsilon)
    if trace is None:
        report["reduction_note"] = lower["strong_note"]
    else:
        report["reduction_steps"] = len(trace.steps)
        report["b_tilde"] = trace.b_tilde
        if lower["strong"] is None:
            report["lower_strong_note"] = lower["strong_note"]
        else:
            report["lower_strong"] = lower["strong"]
            k = (p - 1) // trace.b_tilde
            if args.n == 1:
                report["sphere"] = None
                report["sphere_note"] = "sphere sets need n >= 2; not built"
            elif args.n is not None:
                try:
                    sphere = best_sphere_set(args.n, k)
                except GuardExceeded as exc:  # the materialization or the census guard
                    report["sphere"] = None
                    report["sphere_note"] = f"sphere set refused: {exc}; not checked"
                else:
                    report["sphere"] = {"k": k, "radius_sq": sphere.radius_sq, "size": len(sphere)}
                    try:
                        constant, free = sphere_set_checks(s, sphere, p)
                        checks += [("sphere set has only constant solutions", constant),
                                   ("embedded sphere set is strongly free mod p", free)]
                    except GuardExceeded as exc:  # both checks, or neither
                        report["sphere_check"] = None
                        report["sphere_check_note"] = f"sphere checks refused: {exc}; not checked"
    report["lower_weak"] = lower["weak"]
    if "weak_note" in lower:
        report["weak_note"] = lower["weak_note"]

    if args.n is not None:
        if holds and graph.irreducible:
            upper = bounds.upper_bound_strong(t, args.n, bounds.optimize_allocation(t, graph))
            report["upper_strong"] = upper
            if not power_exceeds(p, args.n, 81):
                _gate_exact(report, checks, "exact_strong", max_strongly_free, t, args.n, upper,
                            "exact strong maximum within upper bound")
                if report.get("lower_strong"):
                    report["lower_strong_note"] = (
                        "lower bound is asymptotic (holds for all large n); "
                        "not gated at this n")
        # SW's literal rows, though SPP has SW's row space mod every p
        # (x2 - x3 - x4 + x5 = -(x1 - x2 - x3 + x4) + (x1 - 2x3 + x5)) and so its
        # bound; perfbench/checks.py refuses upper_weak for any system but SW,
        # so a row-space rule has to change together with that check.
        if t.rows == reduce_mod_p(builtin("SW"), p).rows:
            if p < 3:
                report["upper_weak"] = None
                report["upper_weak_note"] = ("the W-shape bound needs p >= 3; "
                                             "exact weak maximum not checked")
            else:
                wupper = bounds.wshape_upper(p, args.n)
                report["upper_weak"] = wupper
                if not power_exceeds(p, args.n, 81):
                    _gate_exact(report, checks, "exact_weak", max_weakly_free, t, args.n, wupper,
                                "exact weak maximum within W-shape upper bound")

    report["checks"] = [{"name": name, "ok": ok} for name, ok in checks]
    failed = [name for name, ok in checks if not ok]
    report["verified"] = not failed
    _emit(report, args)
    if failed:
        raise VerificationFailure("; ".join(failed))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_all  # imported here: no other subcommand needs it
    results = run_all(seed=args.seed)
    bad = [r for r in results if not r.ok]
    passed, total = len(results) - len(bad), len(results)
    text = "\n".join([r.line() for r in results] + [f"{passed}/{total} criteria passed"])
    _emit({"passed": passed, "total": total, "criteria": results}, args, text)
    if bad:
        raise VerificationFailure(", ".join(f"criterion {r.number:02d}" for r in bad))
    return 0


# ---------------------------------------------------------------------------

#: the subcommands with their one-line help, in the order --help lists them
_HELP = {
    "analyze": "hypergraph, parameters, star inequality",
    "lambda": "per-variable growth constant",
    "ctilde": "balanced-allocation base constant",
    "star": "check r1/2 + r2/e > L",
    "upper": "strong-freeness upper bound at (p, n)",
    "reduce": "dominant reduction trace",
    "lower-bound": "dominant lower-bound reports",
    "behrend": "norm-class census and sphere sets in {0..k}^n",
    "search": "exact maximum free-set search at desk scale",
    "verify": "check a point set or matching file",
    "certify": "run the full chain and gate on verifications",
    "selftest": "run the acceptance criteria",
}


def _fill(name: str, sp: argparse.ArgumentParser) -> None:
    """Define subcommand ``name``'s options on ``sp``, the one place they
    are defined: the parser of the subcommand alone and the whole tree both
    come from here."""

    def common(p=False, n=False, system=False, epsilon=False):
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--out", help="also write the report to this file")
        if epsilon:
            sp.add_argument("--epsilon", type=_epsilon, default=Fraction(1, 16),
                            help="slack in the strong bound, a fraction in (0,1)")
        if system:
            sp.add_argument("--system", required=True,
                            help="path to a .lineq file or a built-in name "
                                 f"({', '.join(builtin_names())})")
        if p:
            sp.add_argument("--p", type=int, required=True, help="prime modulus")
        if n:
            sp.add_argument("--n", type=_float_range_int, required=True, help="dimension")

    if name == "analyze":
        common(system=True)
        sp.add_argument("--p", type=int, help="optionally reduce mod p and report the base constant")
        sp.set_defaults(func=cmd_analyze)
    elif name == "lambda":
        common()
        sp.add_argument("--m", type=_float_range_int, required=True)
        sp.add_argument("--alpha", type=_fraction, required=True,
                        help="a decimal or a fraction: 0.5, 1e-3 or 1/3")
        sp.add_argument("--h", type=_float_range_int, required=True)
        sp.set_defaults(func=cmd_lambda)
    elif name == "ctilde":
        common()
        for flag in ("--r1", "--r2", "--L", "--m", "--d"):
            sp.add_argument(flag, type=_float_range_int, required=True)
        sp.set_defaults(func=cmd_ctilde)
    elif name == "star":
        common()
        for flag in ("--r1", "--r2", "--L"):
            sp.add_argument(flag, type=_float_range_int, required=True)
        sp.set_defaults(func=cmd_star)
    elif name == "upper":
        common(p=True, n=True, system=True)
        sp.set_defaults(func=cmd_upper)
    elif name == "reduce":
        common(system=True)
        sp.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")
        sp.set_defaults(func=cmd_reduce)
    elif name == "lower-bound":
        common(p=True, system=True, epsilon=True)
        sp.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")
        sp.set_defaults(func=cmd_lower_bound)
    elif name == "behrend":
        common()
        sp.add_argument("--n", type=_float_range_int, required=True)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--materialize", action="store_true")
        sp.add_argument("--p", type=int, help="check that the materialized points embed into F_p^n: "
                                               "a prime above k")
        sp.set_defaults(func=cmd_behrend)
    elif name == "search":
        common(p=True, n=True)
        sp.add_argument("--system", default="SW",
                        help="path or built-in name (default SW)")
        sp.add_argument("--kind", choices=("strong", "weak"), required=True)
        sp.add_argument("--node-budget", type=int, default=None,
                        help="sets the search may visit before it stops with exhaustive: false, "
                             f"at least 1 (default {DEFAULT_NODE_BUDGET})")
        sp.set_defaults(func=cmd_search)
    elif name == "verify":
        common(p=True, system=True)
        sp.add_argument("--kind", choices=("strong", "weak", "multicolor"), required=True)
        sp.add_argument("--set", required=True, help="CSV file: one point (or matching row) per line")
        sp.set_defaults(func=cmd_verify)
    elif name == "certify":
        common(p=True, system=True, epsilon=True)
        sp.add_argument("--n", type=_float_range_int, help="dimension for bounds, searches and sphere sets")
        sp.set_defaults(func=cmd_certify)
    elif name == "selftest":
        common()
        sp.add_argument("--seed", type=int, default=20260815)
        sp.set_defaults(func=cmd_selftest)


@functools.cache
def _build_parser(name: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone, or with no name the whole
    tree, which --help, no arguments and unknown names need; each is built
    once per process, and parse_args leaves it unchanged and returns a
    fresh namespace each call."""
    if name is not None:
        sp = _Parser(prog=f"linsys {name}")
        _fill(name, sp)
        return sp
    ap = _Parser(
        prog="linsys",
        description="Bounds, reductions, constructions and brute-force checks "
                    "for solution-free sets of balanced linear systems over F_p^n.")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for sub_name, text in _HELP.items():
        _fill(sub_name, sub.add_parser(sub_name, help=text))
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        if argv and argv[0] in _HELP:  # one subcommand's parser, not the whole tree
            args = _build_parser(argv[0]).parse_args(argv[1:])
        else:
            args = _build_parser().parse_args(argv)
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (ParseError, GuardExceeded, ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
