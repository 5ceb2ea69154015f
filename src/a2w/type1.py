"""Entrywise matrix power functions W(x)[i, j] = s * a_ij * |x|^(e_ij).

The exponent matrix is exact rational data. When every off-diagonal
exponent is the average of its two diagonal neighbors (the midpoint
condition), the function factors as |x|^(D/2) A |x|^(D/2) and inherits
closed-form determinants, minors, and inverses; those identities drive
both the exact A2 decision and the symbolic interval averages used by the
estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .report import (A2Report, Finding, VERDICT_A2, VERDICT_MARGINAL,
                     VERDICT_NOT_A2, VERDICT_NOT_INTEGRABLE, VERDICT_NOT_PD_AE,
                     VERDICT_PD_AE)
from .scalar_power import (NotA2Error, format_rational,
                           scalar_closed_form_constant, scalar_is_a2)

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

ONE = Fraction(1)


class MidpointConditionError(ValueError):
    """Exponent matrix does not satisfy the midpoint condition."""


class EvaluationAtOriginError(ValueError):
    """Power matrices are evaluated away from x = 0 only."""


ExponentMatrix = tuple[tuple[Fraction, ...], ...]


def _exponent_matrix(rows) -> ExponentMatrix:
    mat = tuple(tuple(Fraction(e) for e in row) for row in rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("exponent matrix must be square and nonempty")
    return mat


def _midpoint_complete(diag: tuple[Fraction, ...]) -> ExponentMatrix:
    """Exponent matrix with e_ij = (e_ii + e_jj) / 2 from its diagonal."""
    return tuple(tuple((gi + gj) / 2 for gj in diag) for gi in diag)


def _normalized_matrix(coeff: np.ndarray, mat) -> ExponentMatrix:
    """Rewrite exponents of zero-coefficient off-diagonal entries to midpoint."""
    n = len(mat)
    return tuple(tuple((mat[i][i] + mat[j][j]) / 2
                       if i != j and coeff[i, j] == 0 else mat[i][j]
                       for j in range(n)) for i in range(n))


def _negated(mat) -> ExponentMatrix:
    return tuple(tuple(-e for e in row) for row in mat)


def _midpoint_findings(coeff: np.ndarray, mat, where: tuple = ()) -> list[Finding]:
    """One finding per normalized exponent off its midpoint, located at
    where + (i, j)."""
    exps = _normalized_matrix(coeff, mat)
    found = []
    for i, row in enumerate(exps):
        for j, e in enumerate(row):
            want = (exps[i][i] + exps[j][j]) / 2
            if e != want:
                at = where + (i, j)
                found.append(Finding(
                    kind="midpoint-violated", where=at,
                    detail=(f"exponent {format_rational(e)} at {at}"
                            f" differs from midpoint {format_rational(want)}")))
    return found


@dataclass(frozen=True, eq=False)
class SymbolicPowerMatrix:
    """Coefficient matrix, exact exponent matrix, and a global scalar factor."""

    coeff: np.ndarray
    exponents: ExponentMatrix
    global_scale: complex = 1.0 + 0j

    def __post_init__(self):
        a = linalg.as_square(self.coeff)
        if a.shape[0] > linalg.MAX_ORDER:
            raise ValueError(f"order limited to {linalg.MAX_ORDER}")
        object.__setattr__(self, "coeff", a)
        object.__setattr__(self, "exponents", _exponent_matrix(self.exponents))
        if len(self.exponents) != a.shape[0]:
            raise ValueError("coefficient and exponent shapes differ")
        object.__setattr__(self, "global_scale", complex(self.global_scale))

    @property
    def n(self) -> int:
        return self.coeff.shape[0]

    def effective_coeff(self) -> np.ndarray:
        return self.global_scale * self.coeff

    def diag_exponents(self) -> tuple[Fraction, ...]:
        return tuple(self.exponents[i][i] for i in range(self.n))

    def scaled(self, factor: float) -> "SymbolicPowerMatrix":
        if not (factor > 0 and math.isfinite(factor)):
            raise ValueError("scale factor must be positive and finite")
        return SymbolicPowerMatrix(self.coeff, self.exponents,
                                   self.global_scale * factor)


def build_type1(coeff, diag_exponents) -> SymbolicPowerMatrix:
    """Construct the midpoint-completed power matrix from diagonal exponents.

    Off-diagonal exponents are derived exactly: e_ij = (e_ii + e_jj) / 2.
    The coefficient matrix must be self-adjoint.
    """
    a = linalg.as_hermitian(coeff)
    diag = tuple(Fraction(g) for g in diag_exponents)
    if len(diag) != a.shape[0]:
        raise ValueError("need one diagonal exponent per row")
    return SymbolicPowerMatrix(a, _midpoint_complete(diag))


def build_type1_raw(coeff, exponents) -> SymbolicPowerMatrix:
    """Store coefficients and exponents exactly as given (no midpoint repair).

    Exists so that invalid exponent patterns can be fed to the checkers.
    """
    return SymbolicPowerMatrix(linalg.as_square(coeff), _exponent_matrix(exponents))


def _float_exponents(w: SymbolicPowerMatrix) -> np.ndarray:
    return np.array([[float(e) for e in row] for row in w.exponents])


def evaluate(w: SymbolicPowerMatrix, x: float) -> np.ndarray:
    """Pointwise value W(x) for x != 0."""
    if x == 0.0:
        raise EvaluationAtOriginError("evaluation at the origin")
    return w.effective_coeff() * np.abs(x) ** _float_exponents(w)


def normalized_exponents(w: SymbolicPowerMatrix) -> ExponentMatrix:
    """Exponent matrix with zero-coefficient off-diagonal entries rewritten.

    An entry with a_ij = 0 contributes nothing pointwise, so its exponent is
    replaced by the midpoint value before any structural check; this makes
    the midpoint test insensitive to don't-care exponents.
    """
    return _normalized_matrix(w.coeff, w.exponents)


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


def check_positive_definite_ae(w: SymbolicPowerMatrix,
                               hermitian_tol: float = 1e-12) -> A2Report:
    """Decide whether W(x) is positive definite for a.e. x.

    Characterization: coefficient matrix positive definite and the midpoint
    condition on exponents. All violations are reported, and a numeric
    witness point is attached whenever the scan finds one.
    """
    findings: list[Finding] = []
    if linalg.hermitian_defect(w.effective_coeff()) > hermitian_tol:
        findings.append(Finding(
            kind="coefficient-not-self-adjoint", where=(),
            detail="coefficient matrix is not self-adjoint within tolerance"))
    findings.extend(_midpoint_findings(w.coeff, w.exponents))

    pd = None
    if not any(f.kind == "coefficient-not-self-adjoint" for f in findings):
        pd = linalg.is_positive_definite((w.effective_coeff()
                                          + w.effective_coeff().conj().T) / 2.0)
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
    return A2Report(VERDICT_NOT_PD_AE, tuple(findings), witness=_witness_scan(w))


def check_a2(w: SymbolicPowerMatrix) -> A2Report:
    """Full exact A2 decision for a Type 1 power matrix.

    A2 holds iff the function is positive definite a.e. and every diagonal
    exponent lies strictly inside (-1, 1): below -1 the weight itself loses
    local integrability, at or above 1 the inverse does.
    """
    pd = check_positive_definite_ae(w)
    if pd.verdict != VERDICT_PD_AE:
        return pd
    findings: list[Finding] = []
    weight_bad = False
    for i, g in enumerate(w.diag_exponents()):
        if g <= -1:
            weight_bad = True
            findings.append(Finding(
                kind="diagonal-exponent-range", where=(i,),
                detail=(f"diagonal exponent {format_rational(g)} <= -1: "
                        "the weight is not locally integrable")))
        elif g >= 1:
            findings.append(Finding(
                kind="diagonal-exponent-range", where=(i,),
                detail=(f"diagonal exponent {format_rational(g)} >= 1: "
                        "the inverse weight is not locally integrable")))
    if weight_bad:
        return A2Report(VERDICT_NOT_INTEGRABLE, tuple(findings))
    if findings:
        return A2Report(VERDICT_NOT_A2, tuple(findings))
    return A2Report(VERDICT_A2)


def _require_midpoint(coeff: np.ndarray, mat, where: tuple = ()) -> None:
    bad = _midpoint_findings(coeff, mat, where)
    if bad:
        raise MidpointConditionError("; ".join(f.detail for f in bad))


def symbolic_det(w: SymbolicPowerMatrix) -> tuple[complex, Fraction]:
    """det W(x) = coefficient * |x|^exponent, exact in the exponent.

    Under the midpoint condition every permutation term carries the same
    power of |x|, namely the diagonal exponent sum.
    """
    _require_midpoint(w.coeff, w.exponents)
    coeff = linalg.lu_det(w.effective_coeff())
    return coeff, sum(w.diag_exponents(), Fraction(0))


def symbolic_minor_det(w: SymbolicPowerMatrix, i: int, j: int) -> tuple[complex, Fraction]:
    """Determinant of W(x) with row i and column j deleted (0-based)."""
    _require_midpoint(w.coeff, w.exponents)
    n = w.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"minor index ({i}, {j}) out of range for order {n}")
    if n == 1:
        return 1.0 + 0j, Fraction(0)
    minor = np.delete(np.delete(w.effective_coeff(), i, axis=0), j, axis=1)
    exps = normalized_exponents(w)
    total = sum(w.diag_exponents(), Fraction(0))
    return linalg.lu_det(minor), total - exps[i][j]


def symbolic_inverse(w: SymbolicPowerMatrix,
                     singular_rtol: float = 1e-12) -> SymbolicPowerMatrix:
    """Closed-form inverse: adjugate coefficients, negated exponents.

    W(x)^-1 [i, j] = cof(A, j, i) / det A * |x|^(-e_ij).
    """
    _require_midpoint(w.coeff, w.exponents)
    return SymbolicPowerMatrix(
        linalg.adjugate_inverse(w.effective_coeff(), singular_rtol),
        _negated(normalized_exponents(w)))


def a2_upper_bound(w: SymbolicPowerMatrix, validate: bool = False) -> float:
    """Certified upper bound for the trace A2 functional over the search family.

    sup_ij |a_ij * det A_ij| / |det A| times the sum over all entries of the
    per-exponent closed-form constants 1/(1 - e_ij^2). Valid for every
    interval in the search family (anchored, symmetric, origin-free), where
    each scalar factor obeys its closed-form constant.

    With validate=True each distinct closed-form factor is re-checked
    against a coarse sup-search oracle at call time.
    """
    report = check_a2(w)
    if report.verdict != VERDICT_A2:
        raise NotA2Error(f"a2_upper_bound needs an A2 weight, got {report.verdict}")
    a = w.effective_coeff()
    det = abs(linalg.lu_det(a))
    n = w.n
    sup_factor = 0.0
    for i in range(n):
        for j in range(n):
            minor_mag = abs(linalg.cofactor(a, i, j))
            sup_factor = max(sup_factor, abs(a[i, j]) * minor_mag / det)
    exps = normalized_exponents(w)
    if validate:
        _validate_closed_form_factors({exps[i][j] for i in range(n) for j in range(n)})
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += scalar_closed_form_constant(exps[i][j])
    return sup_factor * total


def _validate_closed_form_factors(exponents: set[Fraction]) -> None:
    """Cross-check 1/(1-g^2) against a coarse sup search on |x|^g."""
    from .estimator import estimate_a2
    from .search import coarse_interval_config

    cfg = coarse_interval_config()
    for g in exponents:
        closed = scalar_closed_form_constant(g)
        scalar = SymbolicPowerMatrix(np.array([[1.0]]), ((g,),))
        est = estimate_a2(scalar, "trace", cfg).estimate
        if est > closed * (1.0 + 1e-9) or est < closed * 0.98:
            raise ArithmeticError(
                f"closed-form constant failed validation for exponent {g}: "
                f"search found {est}, closed form {closed}")
