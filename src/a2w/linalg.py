"""Small dense matrix kernel.

Everything here is written for matrices of order <= 8 and favors
determinism over speed: fixed iteration orders. lu_det, cofactor,
adjugate_inverse and sym_eigen validate their input as an ndarray and
then run on Python complex scalars in nested lists, with no BLAS call;
elim_inverse and leibniz_det, the independent routes the verify suites
compare against, stay on numpy rows, and sqrt_psd and operator_norm form
their products with numpy's matmul on the eigenvectors sym_eigen returns.
All of these accept anything convertible to a square complex ndarray.
as_hermitian_stack and eigh_stack take stacks of matrices, shaped
(..., n, n), for the estimator's A2 functionals: the stacked eigensolve is
LAPACK's, through numpy.linalg.eigh, one matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "as_hermitian_stack",
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
    """Iterative routine did not converge within its sweep budget."""


class NegativeEigenvalueError(ArithmeticError):
    """Matrix has an eigenvalue below the PSD clamping tolerance."""


def as_square(m) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _defect(a: np.ndarray) -> float:
    """hermitian_defect of a matrix that as_square has already validated."""
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T))) / scale


def hermitian_defect(m) -> float:
    """Max-entry distance from self-adjointness, relative to the entry scale."""
    return _defect(as_square(m))


def as_hermitian(m, tol: float = 1e-12) -> np.ndarray:
    """Check self-adjointness within tol and return the exactly symmetrized matrix."""
    a = as_square(m)
    if _defect(a) > tol:
        raise ValueError("matrix is not self-adjoint within tolerance")
    return (a + a.conj().T) / 2.0


def as_hermitian_stack(m, tol: float = 1e-12) -> np.ndarray:
    """as_hermitian on every matrix of a stack shaped (..., n, n): the
    same checks and texts, raised if any matrix fails, and the exactly
    symmetrized stack. A matrix passes when its hermitian_defect is at
    most tol, that is, when its largest entry of M - M* is at most tol
    times its largest entry."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    adjoint = a.conj().swapaxes(-1, -2)
    gap = np.abs(a - adjoint).max(axis=(-2, -1))
    if (gap > tol * np.abs(a).max(axis=(-2, -1))).any():
        raise ValueError("matrix is not self-adjoint within tolerance")
    return (a + adjoint) / 2.0


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


def _rotate_columns(rows: list[list[complex]], p: int, q: int,
                    c: float, a: complex, b: complex) -> None:
    """rows <- rows @ J for the Jacobi rotation J with J[p, p] = J[q, q] = c,
    J[p, q] = -a and J[q, p] = b; only columns p and q change."""
    for row in rows:
        xp, xq = row[p], row[q]
        row[p] = xp * c + xq * b
        row[q] = xq * c - xp * a


def sym_eigen(m):
    """Eigendecomposition of a self-adjoint matrix by cyclic Jacobi rotations.

    Sweeps run over the upper triangle in fixed row-major order and each
    rotation updates rows and columns p, q in place in Python complex
    arithmetic, without BLAS, which makes the output a deterministic
    function of the input entries on any IEEE-754 platform. Returns
    (eigenvalues ascending, unitary matrix of column eigenvectors). The
    input must be self-adjoint within as_hermitian's default tolerance.
    """
    return _jacobi(as_hermitian(m))


def _jacobi(a: np.ndarray):
    """sym_eigen on a finite, exactly self-adjoint matrix, not re-validated."""
    h = a.tolist()
    n = len(h)
    max_sweeps = 50
    scale = max(abs(x) for row in h for x in row)
    if scale == 0.0:
        return np.zeros(n), np.eye(n, dtype=complex)
    v = [[1 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    stop = 1e-14 * scale
    for _ in range(max_sweeps):
        if max((abs(h[p][q]) for p, q in pairs), default=0.0) <= stop:
            break
        for p, q in pairs:
            g = h[p][q]
            r = abs(g)
            if r <= 1e-18 * scale:
                continue
            phase = g / r
            tau = (h[p][p].real - h[q][q].real) / (2.0 * r)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            sa, sb = s * phase, s * phase.conjugate()
            # h <- (J* h) J: rows p, q by J*, then columns p, q by J
            hp, hq = h[p], h[q]
            h[p] = [c * x + sa * y for x, y in zip(hp, hq)]
            h[q] = [c * y - sb * x for x, y in zip(hp, hq)]
            _rotate_columns(h, p, q, c, sa, sb)
            _rotate_columns(v, p, q, c, sa, sb)
    else:
        raise ConvergenceError(f"Jacobi sweep budget {max_sweeps} exhausted")
    vals = np.array([h[i][i].real for i in range(n)])
    order = np.argsort(vals, kind="stable")
    return vals[order], np.array(v, dtype=complex)[:, order]


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


def sqrt_psd(m) -> np.ndarray:
    """Self-adjoint square root of a PSD matrix.

    Eigenvalues in [-1e-12 * spectral_radius, 0) are clamped to zero;
    anything lower raises NegativeEigenvalueError.
    """
    vals, vecs = sym_eigen(m)
    radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
    floor = -1e-12 * radius
    if np.any(vals < floor):
        raise NegativeEigenvalueError(
            f"eigenvalue {vals.min():.6e} below PSD clamp {floor:.6e}")
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return (root + root.conj().T) / 2.0


def operator_norm(m) -> float:
    """Largest singular value, computed from the top eigenvalue of M* M."""
    a = as_square(m)
    gram = a.conj().T @ a
    vals, _ = _jacobi(as_square((gram + gram.conj().T) / 2.0))
    top = float(vals[-1])
    return math.sqrt(top) if top > 0.0 else 0.0


@dataclass(frozen=True)
class PosDefResult:
    """Outcome of the two-route positive definiteness test."""

    verdict: str  # "positive" | "not_positive" | "marginal"
    minors: tuple[float, ...]
    min_eigenvalue: float
    failed_minor: int | None = None  # 0-based index of first failing leading minor


def is_positive_definite(m) -> PosDefResult:
    """Decide positive definiteness by leading minors and, independently, eigenvalues.

    "positive" needs both routes clearly positive, with a margin of 1e-10
    relative to the entry scale. "not_positive" needs neither route positive
    and at least one clearly negative. Anything else is "marginal".
    """
    h = as_hermitian(m)
    n = h.shape[0]
    scale = float(np.max(np.abs(h)))
    if scale == 0.0:
        return PosDefResult("not_positive", tuple(0.0 for _ in range(n)), 0.0, 0)
    minors = []
    for k in range(1, n + 1):
        minors.append(lu_det(h[:k, :k]).real)
    vals, _ = _jacobi(h)
    lam_min = float(vals[0])
    minor_margins = [mk / scale**k for k, mk in enumerate(minors, start=1)]
    margin = 1e-10
    minors_pos = all(g > margin for g in minor_margins)
    minors_neg = any(g < -margin for g in minor_margins)
    eig_pos = lam_min > margin * scale
    eig_neg = lam_min < -margin * scale
    failed = None
    for k, g in enumerate(minor_margins):
        if g <= margin:
            failed = k
            break
    if minors_pos and eig_pos:
        return PosDefResult("positive", tuple(minors), lam_min, None)
    if not minors_pos and not eig_pos and (minors_neg or eig_neg):
        return PosDefResult("not_positive", tuple(minors), lam_min, failed)
    return PosDefResult("marginal", tuple(minors), lam_min, failed)
