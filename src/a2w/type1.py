"""Matrix power functions on R^d: W(x)[i, j] = a_ij * prod_f r_f(x)^(e_ij,f).

One type covers the line and both several-variable families. On the line
(d = 1) the single factor r is |x|; separable weights on R^d have one
factor |x_c| per coordinate, radial weights the single factor ||x||.
Every factor carries an exact rational exponent matrix. When every
off-diagonal exponent is the average of its two diagonal neighbors (the
midpoint condition), each factor splits as r^(D/2) A r^(D/2), and W
inherits closed-form determinants, minors and inverses; those identities
drive both the exact A2 decision and the symbolic averages used by the
estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .report import (A2Report, Finding, VERDICT_A2, VERDICT_MARGINAL,
                     VERDICT_NOT_A2, VERDICT_NOT_INTEGRABLE, VERDICT_NOT_PD_AE,
                     VERDICT_PD_AE)
from .scalar_power import (NotA2Error, format_rational,
                           scalar_closed_form_constant)

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
    "symbolic_minor_det",
    "symbolic_inverse",
    "a2_upper_bound",
]

class MidpointConditionError(ValueError):
    """Exponent matrix does not satisfy the midpoint condition."""


class EvaluationAtOriginError(ValueError):
    """Power matrices are evaluated away from x = 0 only."""


ExponentMatrix = tuple[tuple[Fraction, ...], ...]


def _exponent_matrix(rows) -> ExponentMatrix:
    mat = tuple(tuple(e if type(e) is Fraction else Fraction(e) for e in row)
                for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("exponent matrix must be square and nonempty")
    return mat


def _midpoint_complete(diag: tuple[Fraction, ...]) -> ExponentMatrix:
    """Exponent matrix with e_ij = (e_ii + e_jj) / 2 from its diagonal."""
    return tuple(tuple((gi + gj) / 2 for gj in diag) for gi in diag)


def _negated(mat) -> ExponentMatrix:
    return tuple(tuple(-e for e in row) for row in mat)


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
        a = linalg.as_square(self.coeff)
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
        prefix + (i, j) (see _located); built once per weight."""
        found = []
        for where, exps in _located(normalized_exponents(self)):
            for i, row in enumerate(exps):
                for j, e in enumerate(row):
                    want = (exps[i][i] + exps[j][j]) / 2
                    if e != want:
                        at = where + (i, j)
                        found.append(Finding(
                            kind="midpoint-violated", where=at,
                            detail=(f"exponent {format_rational(e)} at {at}"
                                    f" differs from midpoint {format_rational(want)}")))
        return tuple(found)

    def scaled(self, factor: float) -> "SymbolicPowerMatrix":
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError("scale factor must be positive and finite")
        return SymbolicPowerMatrix(self.coeff * factor, self.exponents, self.d)


def _completed(coeff, diags, d: int) -> SymbolicPowerMatrix:
    """Midpoint-completed weight from one diagonal per exponent matrix."""
    a = linalg.as_hermitian(coeff)
    mats = []
    for diag in diags:
        diag = tuple(Fraction(g) for g in diag)
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


def _diag(mat) -> tuple[Fraction, ...]:
    return tuple(mat[i][i] for i in range(len(mat)))


def evaluate(w: SymbolicPowerMatrix, x: float) -> np.ndarray:
    """Pointwise value W(x) for x != 0, on the line."""
    floats = np.array([[float(e) for e in row] for row in _line(w)])
    if x == 0.0:
        raise EvaluationAtOriginError("evaluation at the origin")
    return w.coeff * np.abs(x) ** floats


def normalized_exponents(w: SymbolicPowerMatrix) -> tuple[ExponentMatrix, ...]:
    """Exponent matrices with zero-coefficient off-diagonal entries rewritten.

    An entry with a_ij = 0 contributes nothing pointwise, so its exponent is
    replaced by the midpoint value before any structural check; this makes
    the midpoint test insensitive to don't-care exponents.
    """
    n = w.n
    return tuple(tuple(tuple((m[i][i] + m[j][j]) / 2
                             if i != j and w.coeff[i, j] == 0 else m[i][j]
                             for j in range(n)) for i in range(n))
                 for m in w.exponents)


def _located(mats) -> list[tuple[tuple, ExponentMatrix]]:
    """(location prefix, matrix) per factor: (c,) when the weight has one
    matrix per coordinate of R^2 or R^3, () for a single matrix."""
    return [((c,) if len(mats) > 1 else (), m) for c, m in enumerate(mats)]


def _witness_scan(w: SymbolicPowerMatrix) -> float | None:
    """First x in +/- logspace(1e-8, 1e8, 65) where W(x) fails positivity."""
    mags = np.logspace(-8.0, 8.0, 65)
    for x in list(mags) + list(-mags):
        m = evaluate(w, float(x))
        h = (m + m.conj().T) / 2.0
        vals, _ = linalg.sym_eigen(h)
        radius = float(np.max(np.abs(vals)))
        if vals[0] < -1e-12 * radius:
            return float(x)
    return None


def check_positive_definite_ae(w: SymbolicPowerMatrix) -> A2Report:
    """Decide whether W(x) is positive definite for a.e. x.

    Characterization: coefficient matrix positive definite and the midpoint
    condition on every exponent matrix. All violations are reported; on
    the line a numeric witness point is attached whenever the scan finds
    one.
    """
    findings: list[Finding] = []
    if linalg.hermitian_defect(w.coeff) > 1e-12:
        findings.append(Finding(
            kind="coefficient-not-self-adjoint", where=(),
            detail="coefficient matrix is not self-adjoint within tolerance"))
    findings.extend(w.midpoint_findings)

    pd = None
    if not any(f.kind == "coefficient-not-self-adjoint" for f in findings):
        pd = linalg.is_positive_definite((w.coeff + w.coeff.conj().T) / 2.0)
        if pd.verdict == "not_positive":
            idx = pd.failed_minor if pd.failed_minor is not None else w.n - 1
            findings.append(Finding(
                kind="leading-minor-not-positive", where=(idx,),
                detail=(f"leading minor {idx + 1} of the coefficient matrix is "
                        f"{pd.minors[idx]:.6g}")))
        elif pd.verdict == "marginal":
            findings.append(Finding(
                kind="coefficient-marginal", where=(),
                detail="coefficient positivity is within tolerance of zero"))

    if not findings:
        return A2Report(VERDICT_PD_AE)
    if pd is not None and pd.verdict == "marginal" and all(
            f.kind == "coefficient-marginal" for f in findings):
        return A2Report(VERDICT_MARGINAL, tuple(findings))
    witness = _witness_scan(w) if w.d == 1 else None
    return A2Report(VERDICT_NOT_PD_AE, tuple(findings), witness=witness)


def check_a2(w: SymbolicPowerMatrix) -> A2Report:
    """Full exact A2 decision for a Type 1 power matrix on R^d.

    A2 holds iff the function is positive definite a.e. and every diagonal
    exponent lies strictly inside (-b, b), where b = 1 for |x| and for each
    coordinate factor and b = d for the radial factor: at or below -b the
    weight itself loses local integrability, at or above b the inverse does.
    """
    pd = check_positive_definite_ae(w)
    if pd.verdict != VERDICT_PD_AE:
        return pd
    bound = 1 if w.separable else w.d
    findings: list[Finding] = []
    weight_bad = False
    for where, mat in _located(w.exponents):
        for i, g in enumerate(_diag(mat)):
            if g <= -bound:
                weight_bad = True
                findings.append(Finding(
                    kind="diagonal-exponent-range", where=where + (i,),
                    detail=(f"diagonal exponent {format_rational(g)} <= {-bound}: "
                            "the weight is not locally integrable")))
            elif g >= bound:
                findings.append(Finding(
                    kind="diagonal-exponent-range", where=where + (i,),
                    detail=(f"diagonal exponent {format_rational(g)} >= {bound}: "
                            "the inverse weight is not locally integrable")))
    if weight_bad:
        return A2Report(VERDICT_NOT_INTEGRABLE, tuple(findings))
    if findings:
        return A2Report(VERDICT_NOT_A2, tuple(findings))
    return A2Report(VERDICT_A2)


def _require_midpoint(w: SymbolicPowerMatrix) -> None:
    bad = w.midpoint_findings
    if bad:
        raise MidpointConditionError("; ".join(f.detail for f in bad))


def symbolic_det(w: SymbolicPowerMatrix) -> tuple[complex, Fraction]:
    """det W(x) = coefficient * |x|^exponent on the line, exact in the exponent.

    Under the midpoint condition every permutation term carries the same
    power of |x|, namely the diagonal exponent sum.
    """
    mat = _line(w)
    _require_midpoint(w)
    return linalg.lu_det(w.coeff), sum(_diag(mat), Fraction(0))


def symbolic_minor_det(w: SymbolicPowerMatrix, i: int, j: int) -> tuple[complex, Fraction]:
    """Determinant of W(x) with row i and column j deleted (0-based)."""
    mat = _line(w)
    _require_midpoint(w)
    n = w.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"minor index ({i}, {j}) out of range for order {n}")
    if n == 1:
        return 1.0 + 0j, Fraction(0)
    minor = np.delete(np.delete(w.coeff, i, axis=0), j, axis=1)
    exps = normalized_exponents(w)[0]
    return linalg.lu_det(minor), sum(_diag(mat), Fraction(0)) - exps[i][j]


def symbolic_inverse(w: SymbolicPowerMatrix) -> SymbolicPowerMatrix:
    """Closed-form inverse: adjugate coefficients, every factor's exponents negated.

    W(x)^-1 [i, j] = cof(A, j, i) / det A * prod_f r_f(x)^(-e_ij,f).
    """
    _require_midpoint(w)
    return SymbolicPowerMatrix(
        linalg.adjugate_inverse(w.coeff),
        tuple(_negated(m) for m in normalized_exponents(w)), w.d)


def a2_upper_bound(w: SymbolicPowerMatrix) -> float:
    """Certified upper bound for the trace A2 functional over the search
    family, for a weight on the line.

    sup_ij |a_ij * det A_ij| / |det A| times the sum over all entries of the
    per-exponent closed-form constants 1/(1 - e_ij^2). Valid for every
    interval in the search family (anchored, symmetric, origin-free), where
    each scalar factor obeys its closed-form constant.
    """
    _line(w)
    report = check_a2(w)
    if report.verdict != VERDICT_A2:
        raise NotA2Error(f"a2_upper_bound needs an A2 weight, got {report.verdict}")
    a = w.coeff
    det = abs(linalg.lu_det(a))
    sup_factor = max(abs(a[i, j]) * abs(linalg.cofactor(a, i, j)) / det
                     for i in range(w.n) for j in range(w.n))
    return sup_factor * sum(scalar_closed_form_constant(e)
                            for row in normalized_exponents(w)[0] for e in row)
