"""Small dense matrix kernel.

Everything here is written for matrices of order <= 8. One exact
elimination serves the coefficient matrix: _bareiss, fraction-free
Gauss-Jordan on its floats read as Gaussian integers over one power of 2
(_scaled), on the real rows alone when every imaginary part is 0.
is_positive_definite, lu_det, cofactor and adjugate_inverse
take their minors, determinants and inverses from it, correctly rounded,
so a matrix is singular only when its determinant is exactly 0.
elim_inverse, the float route the verify suites compare against, stays
on numpy rows. The one eigensolver, eigh_stack, is LAPACK's
numpy.linalg.eigh on one matrix or a stack (..., n, n); _psd_eigh holds
its PSD clamp (eigenvalues just below 0 clamp to 0, lower ones raise).
as_hermitian and hermitian_defect take one matrix or a stack. Repeat runs
give bit-identical results. All of these accept anything convertible to
a square complex ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
import sys

import numpy as np

MAX_ORDER = 8

__all__ = [
    "MAX_ORDER",
    "SingularMatrixError",
    "ConvergenceError",
    "NegativeEigenvalueError",
    "as_square",
    "as_hermitian",
    "hermitian_defect",
    "lu_det",
    "elim_inverse",
    "cofactor",
    "adjugate_inverse",
    "sym_eigen",
    "eigh_stack",
    "sqrt_psd",
    "operator_norm",
    "PosDefResult",
    "is_positive_definite",
]


class SingularMatrixError(ArithmeticError):
    """Matrix is singular (exactly, or within elim_inverse's pivot tolerance)."""


class ConvergenceError(ArithmeticError):
    """LAPACK's eigensolver did not converge."""


class NegativeEigenvalueError(ArithmeticError):
    """Matrix has an eigenvalue below the PSD clamping tolerance."""


def _as_squares(a: np.ndarray) -> np.ndarray:
    """Validate a complex array as a finite stack (..., n, n) of square
    matrices."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_square(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _as_squares(a)


def _defect(a: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(defect, scale) per matrix of a finite stack a and its adjoint adj,
    on a / 2 and adj / 2 so that no modulus overflows: scale is the largest
    entry modulus, defect the largest entry of a - adj over scale (0 read
    as 1)."""
    half, half_adj = a / 2.0, adj / 2.0
    scale = np.abs(half).max(axis=(-2, -1))
    gap = np.abs(half - half_adj).max(axis=(-2, -1))
    return gap / np.where(scale > 0.0, scale, 1.0), scale


def hermitian_defect(m):
    """Max-entry distance from self-adjointness, relative to the entry
    scale: a float for one matrix, an array with one value per matrix for
    a stack shaped (..., n, n)."""
    a = _as_squares(np.asarray(m, dtype=complex))
    defect, _ = _defect(a, a.conj().swapaxes(-1, -2))
    return float(defect) if a.ndim == 2 else defect


def as_hermitian(m, tol: float = 1e-12) -> np.ndarray:
    """Check self-adjointness within tol (hermitian_defect(m) > tol
    fails) and return the exactly symmetrized matrix (_symmetrized); a
    stack shaped (..., n, n) raises if any of its matrices fails."""
    a = _as_squares(np.asarray(m, dtype=complex))
    adj = a.conj().swapaxes(-1, -2)
    defect, scale = _defect(a, adj)
    if np.any(defect > tol):
        raise ValueError("matrix is not self-adjoint within tolerance")
    return _symmetrized(a, adj, 2.0 * float(scale.max(initial=0.0)))


_HALF_MAX = sys.float_info.max / 2.0


def _symmetrized(a: np.ndarray, adj: np.ndarray | None = None,
                 top: float | None = None) -> np.ndarray:
    """(a + a*) / 2 for a finite complex stack (..., n, n), exactly
    self-adjoint; adj is a* and top the largest entry modulus of a, when
    the caller has them. The real part of the diagonal comes back bit for
    bit, subnormals and entries near the float limit included."""
    if adj is None:
        adj = a.conj().swapaxes(-1, -2)
    if top is None:
        top = np.abs(a).max(initial=0.0)
    if top <= _HALF_MAX:
        # no real or imaginary part exceeds the largest modulus, so none
        # exceeds half the float maximum and no sum of two overflows
        return (a + adj) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        h = (a + adj) / 2.0
    over = ~np.isfinite(h)
    if over.any():
        # a sum past the float limit has halves that are normal floats,
        # halved exactly; adding them commutes, so h stays self-adjoint
        h[over] = a[over] / 2.0 + adj[over] / 2.0
    return h


def _scaled(a: np.ndarray) -> tuple[list[list[int]], list[list[int]], int]:
    """The real and imaginary parts of a finite complex matrix as integer
    rows over one common denominator. Floats are dyadic rationals, so the
    denominator is the largest power of 2 among the entries' own. A real
    matrix gets rows of zeros for its imaginary part."""
    n = a.shape[0]
    parts = a.real.tolist() + (a.imag.tolist() if a.imag.any() else [])
    ratios = [[x.as_integer_ratio() for x in row] for row in parts]
    denom = max(d for row in ratios for _, d in row)
    ints = [[num * (denom // d) for num, d in row] for row in ratios]
    im = ints[n:] if len(ints) > n else [[0] * a.shape[1] for _ in range(n)]
    return ints[:n], im, denom


def _bareiss(re: list[list[int]], im: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """Fraction-free Gauss-Jordan (Bareiss) elimination, in place, of the
    leading n columns of n Gaussian-integer rows (re, im) of any width.
    Step k divides every row but k by the previous pivot, exactly: each
    entry is a determinant of the integer matrix (E. H. Bareiss, Math.
    Comp. 22, 1968). Rows swap only at a pivot that is 0, which a positive
    definite matrix never has. Returns (pivots, swaps): pivots[k] is the
    diagonal entry met at step k before any swap, the (k + 1)-th leading
    minor while no row has moved. They end at (0, 0) for a singular
    matrix; otherwise the last, D, is the determinant of the row-swapped
    leading block B, and the columns past n hold D B^-1 times what stood
    there.

    When every imaginary part is 0 the same recurrence runs on the real
    rows alone, one pair of products and one exact // per entry; the
    imaginary rows stay 0.
    """
    n = len(re)
    real = not any(map(any, im))
    pivots, swaps, (cr, ci, norm) = [], 0, (1, 0, 1)
    for k in range(n):
        pivots.append((re[k][k], im[k][k]))
        if pivots[-1] == (0, 0):
            r = next((r for r in range(k + 1, n) if re[r][k] or im[r][k]), None)
            if r is None:
                break
            re[k], re[r], im[k], im[r] = re[r], re[k], im[r], im[k]
            swaps += 1
        kr, ki = re[k], im[k]
        pr, pi = kr[k], ki[k]
        if real:
            tail = kr[k + 1:]
            for ir in re:
                if ir is not kr:
                    ar = ir[k]
                    ir[k + 1:] = [(pr * x - ar * y) // norm for x, y in zip(ir[k + 1:], tail)]
            norm = pr
            continue
        for ir, ii in zip(re, im):
            if ir is kr:
                continue
            ar, ai = ir[k], ii[k]
            for j in range(k + 1, len(kr)):
                nr = pr * ir[j] - pi * ii[j] - ar * kr[j] + ai * ki[j]
                ni = pr * ii[j] + pi * ir[j] - ar * ki[j] - ai * kr[j]
                # times the conjugate of the previous pivot, over its norm
                ir[j], ii[j] = (nr * cr - ni * ci) // norm, (nr * ci + ni * cr) // norm
        cr, ci, norm = (1, 0, pr) if pi == 0 else (pr, -pi, pr * pr + pi * pi)
    return pivots, swaps


def _ratio(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded; +-inf beyond floats."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def lu_det(m) -> complex:
    """Exact determinant, each part correctly rounded (_bareiss): 0j for
    a singular matrix, +-inf in a part beyond the float range."""
    re, im, denom = _scaled(as_square(m))
    pivots, swaps = _bareiss(re, im)
    (dr, di), sign, scale = pivots[-1], (-1) ** swaps, denom ** len(re)
    return complex(_ratio(sign * dr, scale), _ratio(sign * di, scale))


def elim_inverse(m) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting; a pivot at
    or below 1e-14 times the largest entry is singular."""
    a = as_square(m).copy()
    n = a.shape[0]
    scale = float(np.max(np.abs(a)))
    aug = np.hstack([a, np.eye(n, dtype=complex)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if np.abs(aug[piv, col]) <= 1e-14 * max(scale, 1e-300):
            raise SingularMatrixError("pivot below singularity tolerance")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def cofactor(m, i: int, j: int) -> complex:
    """Signed minor (-1)^(i+j) det M_ij with row i and column j deleted
    (0-based), by lu_det."""
    a = as_square(m)
    n = a.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"cofactor index ({i}, {j}) out of range for order {n}")
    minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
    return (-1) ** (i + j) * (lu_det(minor) if n > 1 else 1 + 0j)


def adjugate_inverse(m) -> np.ndarray:
    """Exact inverse, each part of each entry correctly rounded.

    _bareiss on [M | I], scaled to Gaussian integers, leaves X = D inv(M)
    past column n, with D its last pivot: X is adj M up to a sign and a
    power of 2. Each part of X / D is then one int / int: over |D| with
    X's sign flipped for a real D < 0, else X conj(D) over |D|^2.
    Raises SingularMatrixError only when det M is exactly 0, and
    OverflowError naming the first entry past the float range.
    """
    a = as_square(m)
    n = a.shape[0]
    re, im, _ = _scaled(np.hstack([a, np.eye(n)]))
    dr, di = _bareiss(re, im)[0][-1]
    if dr == di == 0:
        raise SingularMatrixError("matrix is singular")
    if di == 0:
        sr, si, norm = (1 if dr > 0 else -1), 0, abs(dr)
    else:
        sr, si, norm = dr, di, dr * dr + di * di
    rows = [list(zip(rr[n:], ri[n:])) for rr, ri in zip(re, im)]
    try:
        return np.array([[complex((xr * sr + xi * si) / norm, (xi * sr - xr * si) / norm)
                          for xr, xi in row] for row in rows])
    except OverflowError:
        i, j = next((i, j) for i, row in enumerate(rows) for j, (xr, xi) in enumerate(row)
                    if math.isinf(_ratio(xr * sr + xi * si, norm))
                    or math.isinf(_ratio(xi * sr - xr * si, norm)))
        raise OverflowError(f"inverse entry ({i}, {j}) overflows the float range") from None


def sym_eigen(m):
    """Eigendecomposition of a self-adjoint matrix: as_hermitian, then
    eigh_stack. Returns (eigenvalues ascending, unitary matrix of column
    eigenvectors). The input must be self-adjoint within as_hermitian's
    default tolerance.
    """
    return eigh_stack(as_hermitian(m))


def eigh_stack(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and column eigenvectors of every matrix of
    a self-adjoint stack (..., n, n), by LAPACK through numpy.linalg.eigh,
    which reads the lower triangles. Each matrix is solved on its own, so
    its result does not depend on the rest of the stack. LAPACK's failure
    to converge raises ConvergenceError."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh: {exc}") from exc


def _psd_eigh(m, strict: bool = True):
    """The PSD clamp: eigh_stack of a self-adjoint matrix or stack
    (..., n, n), with each matrix's eigenvalues in [-1e-12 * spectral
    radius, 0) clamped to 0. Returns (clamped eigenvalues, eigenvectors,
    below), below marking the matrices with a lower eigenvalue; strict
    raises NegativeEigenvalueError for the first of them in stack order
    instead."""
    vals, vecs = eigh_stack(m)
    floor = -1e-12 * np.abs(vals).max(axis=-1)
    below = vals[..., 0] < floor
    if strict and below.any():
        raise NegativeEigenvalueError(
            f"eigenvalue {vals[below][0, 0]:.6e} below PSD clamp {floor[below][0]:.6e}")
    return np.clip(vals, 0.0, None), vecs, below


def sqrt_psd(m) -> np.ndarray:
    """Self-adjoint square root of a PSD matrix, or of every matrix of a
    stack (..., n, n), under the PSD clamp (_psd_eigh): eigenvalues in
    [-1e-12 * spectral_radius, 0) are clamped to zero; anything lower
    raises NegativeEigenvalueError.
    """
    vals, vecs, _ = _psd_eigh(as_hermitian(m))
    root = (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return (root + root.conj().swapaxes(-1, -2)) / 2.0


def operator_norm(m) -> float:
    """Largest singular value, computed from the top eigenvalue of M* M."""
    a = as_square(m)
    gram = a.conj().T @ a
    vals, _ = eigh_stack((gram + gram.conj().T) / 2.0)
    top = float(vals[-1])
    return math.sqrt(top) if top > 0.0 else 0.0


@dataclass(frozen=True)
class PosDefResult:
    """Outcome of Sylvester's criterion, decided exactly."""

    verdict: str  # "positive" | "not_positive"
    minors: tuple[Fraction, ...]  # leading minors, up to the first not positive
    failed_minor: int | None = None  # 0-based index of that minor


def is_positive_definite(m) -> PosDefResult:
    """Decide positive definiteness exactly, by Sylvester's criterion.

    The leading minors of the symmetrized matrix (as_hermitian) are the
    pivots of its exact elimination (_bareiss), read up to the first that
    is not positive; each is a real integer over a power of 2. A positive
    definite matrix never needs a row swap.
    """
    re, im, denom = _scaled(as_hermitian(as_square(m)))
    minors = []
    for k, (pivot, _) in enumerate(_bareiss(re, im)[0]):
        minors.append(Fraction(pivot, denom ** (k + 1)))
        if pivot <= 0:
            return PosDefResult("not_positive", tuple(minors), k)
    return PosDefResult("positive", tuple(minors))
