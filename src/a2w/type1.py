"""Matrix power functions on R^d: W(x)[i, j] = a_ij * prod_f r_f(x)^(e_ij,f).

One type covers the line and both several-variable families. On the line
(d = 1) the single factor r is |x|; separable weights on R^d have one
factor |x_c| per coordinate, radial weights the single factor ||x||.
Every factor carries an exact rational exponent matrix. When every
off-diagonal exponent is the average of its two diagonal neighbors (the
midpoint condition), each factor splits as r^(D/2) A r^(D/2), and W
inherits closed-form determinants and inverses; those identities
drive both the exact A2 decision and the symbolic averages used by the
estimators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .report import (A2Report, Finding, VERDICT_A2, VERDICT_NOT_A2,
                     VERDICT_NOT_INTEGRABLE, VERDICT_NOT_PD_AE, VERDICT_PD_AE)
from .scalar_power import format_rational, scalar_closed_form_constant

__all__ = [
    "SymbolicPowerMatrix",
    "MidpointConditionError",
    "EvaluationAtOriginError",
    "build_type1",
    "build_type1_raw",
    "evaluate",
    "normalized_exponents",
    "check_positive_definite_ae",
    "check_a2",
    "symbolic_det",
    "symbolic_inverse",
    "a2_upper_bound",
]

class MidpointConditionError(ValueError):
    """Exponent matrix does not satisfy the midpoint condition."""


class EvaluationAtOriginError(ValueError):
    """Power matrices are evaluated away from x = 0 only."""


ExponentMatrix = tuple[tuple[Fraction, ...], ...]


def _fraction(e) -> Fraction:
    return e if type(e) is Fraction else Fraction(e)


def _exponent_matrix(rows) -> ExponentMatrix:
    mat = tuple(tuple(map(_fraction, row)) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("exponent matrix must be square and nonempty")
    return mat


def _midpoint(gi: Fraction, gj: Fraction) -> Fraction:
    """(gi + gj) / 2, one Fraction built from the integer parts."""
    return Fraction(gi.numerator * gj.denominator + gj.numerator * gi.denominator,
                    2 * gi.denominator * gj.denominator)


def _midpoint_complete(diag: tuple[Fraction, ...]) -> ExponentMatrix:
    """Exponent matrix with e_ij = (e_ii + e_jj) / 2 from its diagonal;
    e_ij and e_ji are one Fraction."""
    n = len(diag)
    mat = [list(diag) for _ in range(n)]
    for i in range(n):
        for j in range(i):
            mat[i][j] = mat[j][i] = _midpoint(diag[i], diag[j])
    return tuple(map(tuple, mat))


@dataclass(frozen=True, eq=False)
class SymbolicPowerMatrix:
    """Coefficient matrix and exact exponent matrices on R^d, d in {1, 2, 3}.

    exponents holds one matrix per coordinate factor |x_c| (separable; on
    the line this is the one factor |x|), or, for d >= 2, a single matrix
    for the radial factor ||x||.
    """

    coeff: np.ndarray
    exponents: tuple[ExponentMatrix, ...]
    d: int = 1

    def __post_init__(self):
        # the weight owns a read-only copy, so what it caches stays true
        a = linalg.as_square(self.coeff).copy()
        a.setflags(write=False)
        if a.shape[0] > linalg.MAX_ORDER:
            raise ValueError(f"order limited to {linalg.MAX_ORDER}")
        mats = tuple(_exponent_matrix(m) for m in self.exponents)
        d = int(self.d)
        if d not in (1, 2, 3) or len(mats) not in (1, d):
            raise ValueError("need d in {1, 2, 3} and one exponent matrix per "
                             "coordinate or a single radial one")
        if any(len(m) != a.shape[0] for m in mats):
            raise ValueError("exponent matrices must match the coefficient order")
        object.__setattr__(self, "coeff", a)
        object.__setattr__(self, "exponents", mats)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.coeff.shape[0]

    @property
    def separable(self) -> bool:
        """One factor per coordinate; a weight on the line is separable."""
        return len(self.exponents) == self.d

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """The entries a_ij != 0 in row-major order, built once per weight
        for the average kernels: (rows, columns, coefficients, exponents,
        factor, index). exponents lists each factor's distinct exponents of
        these entries (which normalized_exponents leaves as they are) as
        floats, factor[e] is the factor of exponents[e], and index[f, t]
        locates term t's exponent of factor f in exponents."""
        rows, cols = np.nonzero(self.coeff)
        cells = list(zip(rows.tolist(), cols.tolist()))
        exponents, factor, index = [], [], []
        for f, m in enumerate(self.exponents):
            exps = [float(m[i][j]) for i, j in cells]
            at = {e: len(exponents) + k for k, e in enumerate(dict.fromkeys(exps))}
            exponents += at
            factor += [f] * len(at)
            index.append([at[e] for e in exps])
        return (rows, cols, self.coeff[rows, cols], np.array(exponents),
                np.array(factor, dtype=np.intp),
                np.array(index, dtype=np.intp).reshape(len(index), len(cells)))

    @cached_property
    def midpoint_findings(self) -> tuple[Finding, ...]:
        """One finding per normalized exponent off its midpoint, located at
        prefix + (i, j) (see _located); built once per weight. Diagonal
        and zero-coefficient entries are on it (normalized_exponents); the
        rest are tested as 2 e_ij = e_ii + e_jj in integers, and a Fraction
        is built only for a finding."""
        zero = (self.coeff == 0).tolist()
        found = []
        for where, exps in _located(self.exponents):
            for i, row in enumerate(exps):
                gi = row[i]
                for j, e in enumerate(row):
                    if i == j or zero[i][j]:
                        continue
                    gj = exps[j][j]
                    twice_num = gi.numerator * gj.denominator + gj.numerator * gi.denominator
                    if 2 * e.numerator * gi.denominator * gj.denominator != e.denominator * twice_num:
                        want = _midpoint(gi, gj)
                        at = where + (i, j)
                        found.append(Finding(
                            kind="midpoint-violated", where=at,
                            detail=(f"exponent {format_rational(e)} at {at}"
                                    f" differs from midpoint {format_rational(want)}")))
        return tuple(found)

    @cached_property
    def a2_report(self) -> A2Report:
        """check_a2's decision, made once per weight."""
        return _decide_a2(self)

    @cached_property
    def coeff_inverse(self) -> np.ndarray:
        """The correctly rounded inverse of the coefficient matrix
        (linalg.adjugate_inverse), computed once per weight. An entry past
        the float range raises OverflowError naming it."""
        try:
            return linalg.adjugate_inverse(self.coeff)
        except OverflowError as exc:
            raise OverflowError(f"coefficient matrix: {exc}") from None

    @cached_property
    def equilibrated(self) -> "SymbolicPowerMatrix":
        """S A S, S = diag(2^-(e_i // 2)), a_ii = m 2^e_i (math.frexp; e_i = 0 if
        a_ii <= 0), built once; the weight itself if S = I. Exact but in the
        subnormals, it keeps both functionals and |a_ij (A^-1)_ji|."""
        s = np.array([2.0 ** -(math.frexp(a)[1] // 2) if a > 0 else 1.0
                      for a in self.coeff.diagonal().real.tolist()])
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = self.coeff * s[:, None] * s
        if (s == 1.0).all() or not np.isfinite(coeff).all():
            return self  # S = I, or |a_ij| far above sqrt(a_ii a_jj): not PD
        return SymbolicPowerMatrix(coeff, self.exponents, self.d)

    def scaled(self, factor: float) -> "SymbolicPowerMatrix":
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError("scale factor must be positive and finite")
        return SymbolicPowerMatrix(self.coeff * factor, self.exponents, self.d)


def _completed(coeff, diags, d: int) -> SymbolicPowerMatrix:
    """Midpoint-completed weight from one diagonal per exponent matrix."""
    a = linalg.as_hermitian(coeff)
    mats = []
    for diag in diags:
        diag = tuple(map(_fraction, diag))
        if len(diag) != a.shape[0]:
            raise ValueError("need one diagonal exponent per row")
        mats.append(_midpoint_complete(diag))
    return SymbolicPowerMatrix(a, tuple(mats), d)


def build_type1(coeff, diag_exponents) -> SymbolicPowerMatrix:
    """Construct the midpoint-completed power matrix on the line.

    Off-diagonal exponents are derived exactly: e_ij = (e_ii + e_jj) / 2.
    The coefficient matrix must be self-adjoint.
    """
    return _completed(coeff, (diag_exponents,), 1)


def build_type1_raw(coeff, exponents) -> SymbolicPowerMatrix:
    """Store coefficients and exponents exactly as given (no midpoint repair).

    Exists so that invalid exponent patterns can be fed to the checkers.
    """
    return SymbolicPowerMatrix(coeff, (exponents,))


def _line(w: SymbolicPowerMatrix) -> ExponentMatrix:
    """The exponent matrix of a weight on the line; other d are rejected."""
    if w.d != 1:
        raise ValueError("defined for weights on the line (d = 1) only")
    return w.exponents[0]


def evaluate(w: SymbolicPowerMatrix, x) -> np.ndarray:
    """Pointwise value W(x) for x != 0, on the line; an array of points
    gives the stack of values, shaped x.shape + (n, n)."""
    floats = np.array([[float(e) for e in row] for row in _line(w)])
    x = np.abs(x)
    if np.any(x == 0.0):
        raise EvaluationAtOriginError("evaluation at the origin")
    return w.coeff * x[..., None, None] ** floats


def normalized_exponents(w: SymbolicPowerMatrix) -> tuple[ExponentMatrix, ...]:
    """Exponent matrices with zero-coefficient off-diagonal entries rewritten.

    An entry with a_ij = 0 contributes nothing pointwise, so its exponent is
    replaced by the midpoint value before any structural check; this makes
    the midpoint test insensitive to don't-care exponents.
    """
    zero = (w.coeff == 0).tolist()
    return tuple(tuple(tuple(_midpoint(row[i], m[j][j]) if i != j and zero[i][j] else e
                             for j, e in enumerate(row)) for i, row in enumerate(m))
                 for m in w.exponents)


def _located(mats) -> list[tuple[tuple, ExponentMatrix]]:
    """(location prefix, matrix) per factor: (c,) when the weight has one
    matrix per coordinate of R^2 or R^3, () for a single matrix."""
    return [((c,) if len(mats) > 1 else (), m) for c, m in enumerate(mats)]


_WITNESS_POINTS = np.logspace(-8.0, 8.0, 65)


def _witness_scan(w: SymbolicPowerMatrix) -> float | None:
    """First x in _WITNESS_POINTS where W(x) is finite and falls below
    linalg's PSD clamp, all points in one eigh_stack call. W(-x) = W(x),
    so negative points add no witness."""
    xs = _WITNESS_POINTS
    with np.errstate(over="ignore", invalid="ignore"):
        m = evaluate(w, xs)
    finite = np.isfinite(m).all(axis=(-2, -1))
    xs, m = xs[finite], m[finite]
    _, _, fails = linalg._psd_eigh(linalg._symmetrized(m), strict=False)
    return float(xs[fails][0]) if fails.any() else None


def check_positive_definite_ae(w: SymbolicPowerMatrix) -> A2Report:
    """Decide whether W(x) is positive definite for a.e. x.

    Characterization: coefficient matrix positive definite, decided exactly
    on its floats, and the midpoint condition on every exponent matrix.
    All violations are reported; on the line a numeric witness point is
    attached whenever the scan finds one.
    """
    self_adjoint = linalg.hermitian_defect(w.coeff) <= 1e-12
    findings = [] if self_adjoint else [Finding(
        kind="coefficient-not-self-adjoint", where=(),
        detail="coefficient matrix is not self-adjoint within tolerance")]
    findings.extend(w.midpoint_findings)
    if self_adjoint:
        pd = linalg.is_positive_definite(w.coeff)
        k = pd.failed_minor
        if k is not None:
            findings.append(Finding(
                kind="leading-minor-not-positive", where=(k,),
                detail=(f"leading minor {k + 1} of the coefficient matrix is "
                        f"{_six_digits(pd.minors[k])}")))
    if not findings:
        return A2Report(VERDICT_PD_AE)
    witness = _witness_scan(w) if w.d == 1 else None
    return A2Report(VERDICT_NOT_PD_AE, tuple(findings), witness=witness)


def _six_digits(q: Fraction) -> str:
    """q as format(float(q), ".6g") writes it, also beyond the float range
    (a minor of a coefficient near 1e300 is)."""
    if q == 0 or sys.float_info.min <= abs(q) <= sys.float_info.max:
        return f"{float(q):.6g}"
    six = Context(prec=6)
    return f"{six.divide(Decimal(q.numerator), q.denominator).normalize(six):g}"


def check_a2(w: SymbolicPowerMatrix) -> A2Report:
    """Full exact A2 decision for a Type 1 power matrix on R^d, made once
    per weight (SymbolicPowerMatrix.a2_report).

    A2 holds iff the function is positive definite a.e. and every diagonal
    exponent lies strictly inside (-b, b), where b = 1 for |x| and for each
    coordinate factor and b = d for the radial factor: at or below -b the
    weight itself loses local integrability, at or above b the inverse does.
    """
    return w.a2_report


def _decide_a2(w: SymbolicPowerMatrix) -> A2Report:
    pd = check_positive_definite_ae(w)
    if pd.verdict != VERDICT_PD_AE:
        return pd
    return _exponent_range_report("diagonal", *_diagonal_range(w), VERDICT_A2)


def _diagonal_range(w: SymbolicPowerMatrix) -> tuple[list, int]:
    """(where, g) for every factor's diagonal exponent, and the bound b of
    their A2 range (-b, b): 1 for |x| and each |x_c|, d for ||x||."""
    return ([(where + (i,), mat[i][i]) for where, mat in _located(w.exponents)
             for i in range(len(mat))], 1 if w.separable else w.d)


def _exponent_range_report(noun: str, located, bound: int, passed: str) -> A2Report:
    """The scalar rule behind both characterizations, |x|^g is A2 iff
    -1 < g < 1, applied to (where, g) pairs with a bound b: g <= -b costs
    the weight its local integrability, g >= b the inverse's. The verdict
    is not_locally_integrable if the weight's fails, else not_a2 if any
    exponent fails, else passed."""
    findings = []
    for where, g in located:
        if g <= -bound:
            side = f"<= {-bound}: the weight"
        elif g >= bound:
            side = f">= {bound}: the inverse weight"
        else:
            continue
        findings.append(Finding(
            kind=f"{noun}-exponent-range", where=where,
            detail=(f"{noun} exponent {format_rational(g)} {side} "
                    "is not locally integrable")))
    if any(g <= -bound for _, g in located):
        return A2Report(VERDICT_NOT_INTEGRABLE, tuple(findings))
    return A2Report(VERDICT_NOT_A2 if findings else passed, tuple(findings))


def _require_midpoint(w: SymbolicPowerMatrix) -> None:
    bad = w.midpoint_findings
    if bad:
        raise MidpointConditionError("; ".join(f.detail for f in bad))


def symbolic_det(w: SymbolicPowerMatrix) -> tuple[complex, Fraction]:
    """det W(x) = coefficient * |x|^exponent on the line, exact in the exponent.

    Under the midpoint condition every permutation term carries the same
    power of |x|, namely the diagonal exponent sum.
    """
    _line(w)
    _require_midpoint(w)
    return linalg.lu_det(w.coeff), sum((g for _, g in _diagonal_range(w)[0]), Fraction(0))


def symbolic_inverse(w: SymbolicPowerMatrix) -> SymbolicPowerMatrix:
    """Closed-form inverse: adjugate coefficients, every factor's exponents negated.

    W(x)^-1 [i, j] = cof(A, j, i) / det A * prod_f r_f(x)^(-e_ij,f).
    """
    _require_midpoint(w)
    mats = normalized_exponents(w)
    neg = {id(e): -e for m in mats for row in m for e in row}  # e_ij, e_ji: one object
    return SymbolicPowerMatrix(
        w.coeff_inverse,
        tuple(tuple(tuple(neg[id(e)] for e in row) for row in m) for m in mats), w.d)


def a2_upper_bound(w: SymbolicPowerMatrix) -> float:
    """Certified upper bound for the trace A2 functional over the search
    family, for a weight on the line.

    max_ij |a_ij (A^-1)_ji|, that is |a_ij cof_ij(A)| / |det A|, on the
    equilibrated weight and its correctly rounded inverse, times the sum
    over all entries of the per-exponent closed-form constants
    1/(1 - e_ij^2). Valid for every interval in the search family
    (anchored, symmetric, origin-free), where each scalar factor obeys its
    closed-form constant. A weight that is not A2 raises NotA2Error
    (A2Report.require_a2).
    """
    _line(w)
    check_a2(w).require_a2()
    eq = w.equilibrated
    sup_factor = float((np.abs(eq.coeff) * np.abs(eq.coeff_inverse.T)).max())
    return sup_factor * sum(scalar_closed_form_constant(e)
                            for row in normalized_exponents(w)[0] for e in row)
