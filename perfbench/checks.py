"""Checks of linsys reports against computations made apart from it.

``check_pass`` takes every job of a pass with its exit code and output and
says, per job, whether it failed and what was wrong.  A job fails when it
exits with a code other than 0 or when a check of its report fails.  A job
that hits one of the known faults named in jobs.py fails, but it is not
wrong: the benchmark's ``correct`` speaks of the jobs that ran through.

None of these checks calls linsys; the reference module recomputes what
they compare against.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

import reference as R
from jobs import Job

EPSILON = Fraction(1, 16)            # the CLI's default slack for lower bounds
SPHERE_GUARD = 2**24                 # certify builds sphere sets only in boxes up to this

# Published maxima of strongly free sets, keyed (system, p, n).  Cap sets in
# AG(n,3): 2, 4, 9, 20 (Pellegrino 1970), 45 (Edel, Ferret, Landjev and Storme
# 2002), 112 (Potechin 2008).  Over F_3 a 4-term progression repeats its
# first term, so S4AP-free sets there are cap sets too.  3-AP-free sets in
# F_5^2 are the arcs of AG(2,5): at most q + 1 = 6 points.
CAP_SETS = {1: 2, 2: 4, 3: 9, 4: 20, 5: 45, 6: 112}
PUBLISHED = {(name, 3, n): v for name in ("S3AP", "S4AP") for n, v in CAP_SETS.items()}
PUBLISHED[("S3AP", 5, 2)] = 6

# the remaining maxima, from maxima.py (see the README)
_MAXIMA_FILE = Path(__file__).with_name("maxima.json")


@lru_cache(maxsize=None)
def brute_force_maxima() -> dict[tuple[str, str, int, int], int]:
    rows = json.loads(_MAXIMA_FILE.read_text())
    return {(r["system"], r["kind"], r["p"], r["n"]): r["value"] for r in rows}


def known_maximum(system: str, kind: str, p: int, n: int) -> Optional[int]:
    if kind == "strong" and (system, p, n) in PUBLISHED:
        return PUBLISHED[(system, p, n)]
    return brute_force_maxima().get((system, kind, p, n))


@dataclass
class Verdict:
    failed: bool = False
    problems: list[str] = field(default_factory=list)


class _Checker:
    """Collects problems for one report."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def close(self, got: float, want: float, rel: float, what: str) -> bool:
        ok = got is not None and math.isclose(got, want, rel_tol=rel, abs_tol=0.0)
        return self.expect(ok, f"{what} = {got}, expected {want} (relative {rel})")


@lru_cache(maxsize=None)
def _census(n: int, k: int) -> dict[int, int]:
    return R.census(n, k)


@lru_cache(maxsize=None)
def _optimum(rows: R.Rows):
    return R.optimum(rows)


def _points(strings: list[str]) -> list[R.Point]:
    return [tuple(int(c) for c in s.split(",")) for s in strings]


# ---------------------------------------------------------------------------
# per subcommand

def _check_search(job: Job, rep: dict, c: _Checker, context: dict) -> None:
    p, n, kind, system = job.int_arg("--p"), job.int_arg("--n"), job.arg("--kind"), job.arg("--system")
    c.expect((rep["kind"], rep["p"], rep["n"]) == (kind, p, n), "report echoes other parameters")
    c.expect(rep["exhaustive"] is True, "search was not exhaustive")
    witness = _points(rep["witness"])
    c.expect(len(witness) == rep["value"] == len(set(witness)), "witness size differs from value")
    c.expect(all(len(pt) == n and all(0 <= x < p for x in pt) for pt in witness),
             "witness point outside F_p^n")
    want = known_maximum(system, kind, p, n)
    c.expect(want is not None, "no reference maximum for this search")
    c.expect(rep["value"] == want, f"value {rep['value']}, expected {want}")
    rows = R.mod_rows(job.rows, p)
    bad = R.offending_tuple(rows, p, witness, kind)
    if not c.expect(bad is None, f"witness is not {kind}ly free: {bad}"):
        return
    members = set(witness)
    for q in R.all_points(p, n):
        if q not in members and R.offending_tuple(rows, p, witness + [q], kind, must=q) is None:
            c.expect(False, f"witness is not maximal: {q} can be added")
            break


def _check_upper_base(job: Job, rep: dict, c: _Checker) -> None:
    """Lambda at the reported allocation, evaluated densely, is the base."""
    p, n = job.int_arg("--p"), job.int_arg("--n")
    rows = R.mod_rows(job.rows, p)
    mult = R.multiplicities(rows)
    alloc = rep["allocation"]
    L = len(rows)
    c.expect(len(alloc) == len(mult), "allocation has the wrong length")
    c.expect(all(a >= 0 for a in alloc), "negative exponent in the allocation")
    c.close(sum(alloc), L, 1e-9, "sum of the allocation")
    c.expect(all(alloc[i] == alloc[j] for i in range(len(mult)) for j in range(len(mult))
                 if mult[i] == mult[j]), "variables of one multiplicity get different exponents")
    levels = {R.lambda_dense(m, float(a), p - 1) for m, a in zip(mult, alloc)}
    c.close(rep["base"], max(levels), 1e-6, "base against dense Lambda")
    c.close(rep["upper"], rep["base"] ** n, 1e-12, "upper against base^n")
    c.close(rep["base_over_p"], rep["base"] / p, 1e-12, "base_over_p")


def _check_params(rows: R.Rows, rep: dict, c: _Checker) -> tuple:
    """(r1, r2, L, m_max) where the report has them, and the star inequality."""
    r1, r2, L, m_max = R.parameters(rows)
    if "parameters" in rep:
        c.expect(tuple(rep["parameters"]) == (r1, r2, L, m_max),
                 f"parameters {rep['parameters']}, expected {(r1, r2, L, m_max)}")
    star = R.star_holds(r1, r2, L)
    c.expect(rep["star"] == star, f"star {rep['star']}, expected {star}")
    c.close(rep["star_margin"], r1 / 2 + r2 / math.e - L, 1e-12, "star_margin")
    return r1, r2, L, m_max


def _check_upper(job: Job, rep: dict, c: _Checker, context: dict) -> None:
    p, n, system = job.int_arg("--p"), job.int_arg("--n"), job.arg("--system")
    rows = R.mod_rows(job.rows, p)
    c.expect((rep["p"], rep["n"]) == (p, n), "report echoes other parameters")
    _check_params(rows, rep, c)
    c.expect(("warnings" in rep) != rep["star"], "warning and star inequality disagree")
    _check_upper_base(job, rep, c)
    exact = PUBLISHED.get((system, p, n))
    if exact is not None:
        c.expect(exact <= rep["upper"], f"exact maximum {exact} exceeds upper bound {rep['upper']}")
    context[(tuple(job.argv[1:3]), p, n)] = rep["upper"]


def _check_lower_strong(strong: dict, p: int, b: int, c: _Checker) -> None:
    floor_term = (p + b - 1) // b
    c.expect(strong["kind"] == "strong" and strong["asymptotic"] is True, "strong report is not asymptotic")
    c.expect((strong["p"], strong["b"], strong["floor_term"]) == (p, b, floor_term),
             f"strong lower bound (p, b, floor) = {(strong['p'], strong['b'], strong['floor_term'])}, "
             f"expected {(p, b, floor_term)}")
    c.close(strong["base"], float((1 - EPSILON) * floor_term), 1e-12, "strong lower base")
    eps = strong["epsilon"]
    c.expect((eps["num"], eps["den"]) == (EPSILON.numerator, EPSILON.denominator), "epsilon")
    if b >= 2:
        c.close(strong["simple_base"], p / b, 1e-12, "simple_base")
    else:
        c.expect(strong["simple_base"] is None, "simple_base for b~ = 1")


def _weak_b(rows: R.Rows, p: int) -> Optional[int]:
    bs = [b for row in rows if (b := R.dominant_coefficient(row)) is not None and 2 <= b < p]
    return min(bs) if bs else None


def _check_lower_weak(weak: Optional[dict], rows: R.Rows, p: int, c: _Checker) -> None:
    b = _weak_b(rows, p)
    if b is None:
        c.expect(weak is None, "weak lower bound without a dominant equation")
        return
    if c.expect(weak is not None, "weak lower bound missing"):
        c.expect((weak["kind"], weak["p"], weak["b"]) == ("weak", p, b), f"weak lower bound b, expected {b}")
        c.close(weak["base"], p / b, 1e-12, "weak base")


def _check_certify(job: Job, rep: dict, c: _Checker, context: dict) -> None:
    p, n = job.int_arg("--p"), job.int_arg("--n")
    rows_p = R.mod_rows(job.rows, p)
    c.expect(rep["verified"] is True and all(ch["ok"] for ch in rep["checks"]), "a certify check failed")
    c.expect((rep["p"], rep["n"]) == (p, n), "report echoes other parameters")
    r1, r2, L, _ = _check_params(rows_p, rep, c)
    irreducible = R.irreducible(rows_p)
    c.expect(rep["irreducible"] == irreducible, f"irreducible {rep['irreducible']}, expected {irreducible}")
    c.expect(p ** n > 81 and "exact_strong" not in rep and "exact_weak" not in rep,
             "certify ran an exact search")

    greedy = R.greedy(job.rows)
    sphere = None
    if greedy is None:
        c.expect("reduction_note" in rep and "lower_strong" not in rep, "reduction reported where none exists")
    else:
        b, steps = greedy
        c.expect((rep.get("b_tilde"), rep.get("reduction_steps")) == (b, steps),
                 f"greedy (b~, steps) = {(rep.get('b_tilde'), rep.get('reduction_steps'))}, expected {(b, steps)}")
        if p > b:
            if c.expect(bool(rep.get("lower_strong")), "strong lower bound missing"):
                _check_lower_strong(rep["lower_strong"], p, b, c)
            k = (p - 1) // b
            if n >= 2 and k >= 1 and (k + 1) ** n <= SPHERE_GUARD:
                radius_sq, size = R.best_class(_census(n, k))
                sphere = {"k": k, "radius_sq": radius_sq, "size": size}
        else:
            c.expect(not rep.get("lower_strong"), f"strong lower bound reported with p <= b~ = {b}")
    c.expect(rep.get("sphere") == sphere, f"sphere {rep.get('sphere')}, expected {sphere}")
    _check_lower_weak(rep["lower_weak"], job.rows, p, c)

    if R.star_holds(r1, r2, L) and irreducible:
        upper = rep.get("upper_strong")
        if c.expect(upper is not None, "upper bound missing"):
            same = context.get((tuple(job.argv[1:3]), p, n))
            if same is not None:
                c.expect(upper == same, f"upper_strong {upper} differs from the upper job's {same}")
            if rep.get("lower_strong"):
                c.expect(rep["lower_strong"]["base"] <= upper ** (1 / n) * (1 + 1e-12),
                         "strong lower base exceeds the upper base")
    else:
        c.expect("upper_strong" not in rep, "upper bound reported where it does not apply")
    if rows_p == R.mod_rows(R.BUILTIN_ROWS["SW"], p):
        c_w = R.ctilde_dense(3, 2, 2, 2, p)
        c.close(rep.get("upper_weak"), 7 * (c_w * p) ** (n / 2), 1e-6, "W-shape upper bound")
    else:
        c.expect("upper_weak" not in rep, "W-shape bound for a system other than SW")


def _state_of(variables: list[str], text: str) -> R.State:
    atoms = [R.atoms(v) for v in variables]
    eqs = R.parse_rendered(text) if text != "(no equations)" else []
    for eq in eqs:
        if not set(eq) <= set(atoms):
            raise ValueError(f"equation uses a variable outside {variables}")
    return (tuple(frozenset(a) for a in atoms),
            tuple(tuple(eq.get(a, 0) for a in atoms) for eq in eqs))


def _check_trace(job: Job, rep: dict, c: _Checker) -> None:
    """Each step is a dominant reduction of the one before; the last system
    has one variable and no equations."""
    state = R.initial_state(job.rows)
    c.expect(R.canonical(_state_of([f"x{i + 1}" for i in range(len(job.rows[0]))], rep["initial"]))
             == R.canonical(state), "initial system differs from the input")
    used = []
    for i, step in enumerate(rep["steps"], start=1):
        subset = [e - 1 for e in step["subsystem"]]
        if not c.expect(all(0 <= e < len(state[1]) for e in subset), f"step {i}: no such equation"):
            return
        coeffs = [R.dominant_coefficient(state[1][e]) for e in subset]
        if not c.expect(None not in coeffs, f"step {i}: contracts a non-dominant equation"):
            return
        c.expect(step["coefficient"] == max(coeffs), f"step {i}: coefficient {step['coefficient']}")
        used.append(max(coeffs))
        state = R.contract(state, subset)
        got = _state_of(step["variables"], step["result"])
        c.expect(R.canonical(got) == R.canonical(state), f"step {i}: result is not the contraction")
        c.expect(all(sum(row) == 0 for row in got[1]), f"step {i}: result is not balanced")
    c.expect(R.is_terminal(state), "trace does not end in one variable and no equations")
    c.expect(rep["b_tilde"] == max(used, default=1), "b_tilde is not the largest step coefficient")


def _check_reduce(job: Job, rep: dict, c: _Checker, context: dict) -> None:
    best = _optimum(job.rows)
    if best is None:
        c.expect(rep["terminated"] is False, "reduction reported where none exists")
        return
    if not c.expect(rep["terminated"] is True, "no reduction reported"):
        return
    _check_trace(job, rep, c)
    b, steps = best
    c.expect((rep["b_tilde"], len(rep["steps"])) == (b, steps),
             f"(b~, steps) = {(rep['b_tilde'], len(rep['steps']))}, expected {(b, steps)}")
    greedy = R.greedy(job.rows)
    if greedy is not None:
        c.expect(rep["b_tilde"] <= greedy[0], "exhaustive b~ exceeds greedy b~")
    system = job.arg("--system")
    if system.startswith("STAR"):
        c.expect((rep["b_tilde"], len(rep["steps"])) == (2, 1), "STARk is not b~ = 2 in one step")
    if system == "S3":
        c.expect((rep["b_tilde"], len(rep["steps"])) == (2, 3), "S3 is not b~ = 2 in three steps")


def _check_lower_bound(job: Job, rep: dict, c: _Checker, context: dict) -> None:
    p = job.int_arg("--p")
    c.expect(rep["p"] == p, "report echoes another p")
    best = _optimum(job.rows)
    if best is None:
        c.expect(rep["strong"] is None, "strong lower bound without a reduction")
    elif c.expect(rep["strong"] is not None, "strong lower bound missing"):
        _check_lower_strong(rep["strong"], p, best[0], c)
        greedy = R.greedy(job.rows)
        if greedy is not None:
            c.expect(rep["strong"]["b"] <= greedy[0], "exhaustive b~ exceeds greedy b~")
    _check_lower_weak(rep["weak"], job.rows, p, c)


def _check_behrend(job: Job, rep: dict, c: _Checker, context: dict) -> None:
    n, k, p = job.int_arg("--n"), job.int_arg("--k"), job.int_arg("--p")
    counts = {int(q): v for q, v in rep["classes"].items()}
    want = _census(n, k)
    c.expect(counts == want, "census differs from the polynomial power")
    c.expect(sum(counts.values()) == (k + 1) ** n - 2, "census does not sum to (k+1)^n - 2")
    radius_sq, size = R.best_class(want)
    c.expect((rep["best_norm_sq"], rep["best_count"]) == (radius_sq, size),
             f"best class {(rep['best_norm_sq'], rep['best_count'])}, expected {(radius_sq, size)}")
    c.expect(rep["best_count"] * n * k * k >= (k + 1) ** n, "best class below (k+1)^n/(n k^2)")
    c.close(rep["pigeonhole_bound"], float(Fraction((k + 1) ** n, n * k * k)), 1e-12, "pigeonhole_bound")
    if "--materialize" in job.argv:
        pts = _points(rep["points"])
        c.expect(len(pts) == len(set(pts)) == size, "sphere set has the wrong size")
        limit = k if p is None else min(k, p - 1)
        c.expect(all(len(pt) == n and all(0 <= x <= limit for x in pt) for pt in pts),
                 "sphere point outside the box")
        c.expect(all(sum(x * x for x in pt) == radius_sq for pt in pts), "point off the sphere")


_BY_SUBCOMMAND = {
    "search": _check_search,
    "upper": _check_upper,
    "certify": _check_certify,
    "reduce": _check_reduce,
    "lower-bound": _check_lower_bound,
    "behrend": _check_behrend,
}


def check_job(job: Job, code: int, out: str, err: str, context: dict) -> Verdict:
    """Verdict on one job.  ``context`` carries results between the jobs of
    one pass (certify compares its upper bound with the upper job's)."""
    if job.fault is not None and code == 1 and job.fault in err:
        return Verdict(failed=True)
    if code != 0:
        return Verdict(True, [f"exit code {code}: {err.strip()[-300:]}"])
    c = _Checker()
    try:
        _BY_SUBCOMMAND[job.argv[0]](job, json.loads(out), c, context)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        c.expect(False, f"malformed report: {type(exc).__name__}: {exc}")
    return Verdict(bool(c.problems), c.problems)


def check_pass(jobs: list[Job], outcomes: list[tuple[int, str, str]]) -> list[Verdict]:
    context: dict = {}
    return [check_job(job, *outcome, context) for job, outcome in zip(jobs, outcomes)]
