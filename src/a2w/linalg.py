"""Small dense matrix kernel.

Everything here is written for matrices of order <= 8. lu_det, cofactor
and adjugate_inverse validate their input as an ndarray and then run on
Python complex scalars in nested lists, with no BLAS call; elim_inverse
and leibniz_det, the independent routes the verify suites compare
against, stay on numpy rows. There is one eigensolver, eigh_stack:
LAPACK's, through numpy.linalg.eigh, on one matrix or a stack shaped
(..., n, n), one matrix at a time. sym_eigen, sqrt_psd and operator_norm
take their eigenvalues from it, and the estimator's A2 functionals call
it on whole stacks; is_positive_definite is exact, in integers. One
routine, _psd_eigh, holds the PSD clamp (eigenvalues just below 0 clamp
to 0, lower ones raise) for sqrt_psd, the norm functional and the Type 1
witness scan, which reads its mask. as_hermitian and hermitian_defect
take one matrix or a stack. Repeat runs on one machine give bit-identical
results. All of these accept anything convertible to a square complex
ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
import math

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
    "permutation_sign",
    "leibniz_det",
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
    """Matrix is singular (or too close to it) for the requested inverse."""


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


def hermitian_defect(m):
    """Max-entry distance from self-adjointness, relative to the entry
    scale: a float for one matrix, an array with one value per matrix for
    a stack shaped (..., n, n)."""
    a = _as_squares(np.asarray(m, dtype=complex))
    gap = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    scale = np.abs(a).max(axis=(-2, -1))
    defect = gap / np.where(scale > 0.0, scale, 1.0)
    return float(defect) if a.ndim == 2 else defect


def as_hermitian(m, tol: float = 1e-12) -> np.ndarray:
    """Check self-adjointness within tol and return the exactly
    symmetrized matrix; a stack shaped (..., n, n) raises if any of its
    matrices fails."""
    a = np.asarray(m, dtype=complex)
    if np.any(hermitian_defect(a) > tol):
        raise ValueError("matrix is not self-adjoint within tolerance")
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def permutation_sign(images: tuple[int, ...]) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1.

    Computed from the cycle decomposition: sign = (-1)^(n - #cycles).
    """
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
    return 1 if (n - cycles) % 2 == 0 else -1


def leibniz_det(m) -> complex:
    """Determinant by full permutation expansion, terms in lexicographic order.

    Exponentially slow by design; serves as the auditable counterpart to
    lu_det. Rejects matrices of order above MAX_ORDER.
    """
    a = as_square(m)
    n = a.shape[0]
    if n > MAX_ORDER:
        raise ValueError(f"permutation expansion limited to order {MAX_ORDER}")
    total = 0j
    for perm in permutations(range(n)):
        term = complex(permutation_sign(perm))
        for i in range(n):
            term *= a[i, perm[i]]
        total += term
    return total


def _eliminate(a: list[list[complex]]) -> complex:
    """Determinant by partially pivoted elimination, overwriting the rows of a.

    The pivot of each column is the first row, on or below the diagonal,
    with the largest abs; a column that is zero there makes the
    determinant 0j.
    """
    n = len(a)
    swaps = 0
    for col in range(n):
        piv, big = col, abs(a[col][col])
        for row in range(col + 1, n):
            mag = abs(a[row][col])
            if mag > big:
                piv, big = row, mag
        if big == 0.0:
            return 0j
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            swaps += 1
        top = a[col]
        pivot = top[col]
        for row in a[col + 1:]:
            f = row[col] / pivot
            row[col + 1:] = [x - f * y for x, y in zip(row[col + 1:], top[col + 1:])]
    det = complex(-1 if swaps % 2 else 1)
    for i in range(n):
        det *= a[i][i]
    return det


def _cofactor(rows: list[list[complex]], i: int, j: int) -> complex:
    """cofactor on a validated matrix given as rows of Python complex."""
    if len(rows) == 1:
        return 1 + 0j  # determinant of the empty matrix
    minor = [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
    return (-1 if (i + j) % 2 else 1) * _eliminate(minor)


def lu_det(m) -> complex:
    """Determinant via partially pivoted elimination; returns 0 for singular input."""
    return _eliminate(as_square(m).tolist())


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
    """Signed minor (-1)^(i+j) det M_ij with row i and column j deleted (0-based)."""
    a = as_square(m)
    n = a.shape[0]
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"cofactor index ({i}, {j}) out of range for order {n}")
    return _cofactor(a.tolist(), i, j)


def adjugate_inverse(m) -> np.ndarray:
    """Inverse via the adjugate: inv(M)[i, j] = cofactor(M, j, i) / det M.

    The singularity test compares |det M| against 1e-12 times the product
    of the row 2-norms, Hadamard's bound on |det M|: a badly scaled but
    well-conditioned matrix such as diag(1e-6, 1e6) attains that bound
    and inverts, while rows that are nearly dependent fall far below it.
    """
    rows = as_square(m).tolist()
    n = len(rows)
    det = _eliminate([row[:] for row in rows])
    if abs(det) <= 1e-12 * math.prod(math.sqrt(sum(abs(x) ** 2 for x in row))
                                     for row in rows):
        raise SingularMatrixError("determinant below singularity tolerance")
    return np.array([[_cofactor(rows, j, i) / det for j in range(n)]
                     for i in range(n)], dtype=complex)


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

    Floats are dyadic rationals, so one power of 2 scales the symmetrized
    matrix (as_hermitian) to Gaussian integers. Fraction-free (Bareiss)
    elimination gives each leading minor exactly, as a pivot that is a real
    integer, and stops at the first that is not positive. Each division is
    by the previous pivot, which is positive, so no pivoting is needed.
    """
    h = as_hermitian(as_square(m))
    n = h.shape[0]
    ratios = [[x.as_integer_ratio() for x in row]
              for row in h.real.tolist() + h.imag.tolist()]
    denom = max(d for row in ratios for _, d in row)  # every d is a power of 2
    ints = [[num * (denom // d) for num, d in row] for row in ratios]
    re, im = ints[:n], ints[n:]
    minors, prev = [], 1
    for k in range(n):
        pivot = re[k][k]
        minors.append(Fraction(pivot, denom ** (k + 1)))
        if pivot <= 0:
            return PosDefResult("not_positive", tuple(minors), k)
        # Bareiss step k: the quotient is a Gaussian integer, so each of
        # its components divides exactly by the real integer prev
        for i in range(k + 1, n):
            ar, ai = re[i][k], im[i][k]
            for j in range(k + 1, n):
                br, bi = re[k][j], im[k][j]
                re[i][j] = (re[i][j] * pivot - ar * br + ai * bi) // prev
                im[i][j] = (im[i][j] * pivot - ar * bi - ai * br) // prev
        prev = pivot
    return PosDefResult("positive", tuple(minors))
