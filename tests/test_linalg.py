"""Dense linear algebra kernel against numpy oracles."""

import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from a2w import linalg


def _hermitian(values: np.ndarray) -> np.ndarray:
    return (values + values.conj().T) / 2.0


def _times(x, y):
    """Product of two complex Fractions given as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _over(x, y):
    """Quotient x / y of two complex Fractions given as (re, im) pairs."""
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _exact_elimination(m):
    """Oracle for the exact kernel: Gauss-Jordan elimination of [m | I] in
    Fraction arithmetic on the entries' exact values, complex entries as
    (re, im) pairs, swapping rows only at a pivot that is 0. Returns
    (minors, det, inverse): the leading minors' real parts up to the
    first that is not positive (for a self-adjoint m every pivot is real,
    because each step leaves the trailing block self-adjoint), the
    determinant, and the inverse's rows, None for a singular m."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    rows = np.asarray(m, dtype=complex).tolist()
    n = len(rows)
    a = [[(Fraction(z.real), Fraction(z.imag)) for z in row]
         + [one if i == j else zero for j in range(n)] for i, row in enumerate(rows)]
    minors, det = [], one
    for k in range(n):
        if not minors or minors[-1] > 0:
            minors.append(_times(det, a[k][k])[0])
        if a[k][k] == zero:
            r = next((r for r in range(k + 1, n) if a[r][k] != zero), None)
            if r is None:
                return minors, zero, None
            a[k], a[r] = a[r], a[k]
            det = (-det[0], -det[1])
        pivot = a[k][k]
        det = _times(det, pivot)
        a[k] = [_over(x, pivot) for x in a[k]]
        for i in range(n):
            f = a[i][k]
            if i != k and f != zero:
                a[i] = [(x[0] - y[0], x[1] - y[1])
                        for x, y in zip(a[i], (_times(f, z) for z in a[k]))]
    return minors, det, [row[n:] for row in a]


def _rounded(z) -> complex:
    return complex(float(z[0]), float(z[1]))


def _bits(z) -> bytes:
    return np.asarray(z, dtype=complex).tobytes()


def _square_strategy(n: int, complex_entries: bool = False):
    elems = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    real = arrays(np.float64, (n, n), elements=elems)
    if not complex_entries:
        return real
    return st.tuples(real, real).map(lambda p: p[0] + 1j * p[1])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lu_det_matches_numpy(rng, n):
    for _ in range(25):
        m = rng.normal(size=(n, n))
        assert np.isclose(linalg.lu_det(m), np.linalg.det(m), rtol=1e-9, atol=1e-12)


def test_determinants_agree_on_singular_matrix():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert abs(linalg.lu_det(m)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elim_inverse_matches_numpy(rng, n):
    for _ in range(25):
        m = rng.normal(size=(n, n)) + np.eye(n) * 0.5
        if abs(np.linalg.det(m)) < 1e-6:
            continue
        got = linalg.elim_inverse(m)
        want = np.linalg.inv(m)
        assert np.allclose(got, want, rtol=1e-8, atol=1e-10)


def test_elim_inverse_rejects_singular():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.elim_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjugate_inverse_identity(rng, n):
    for _ in range(20):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
        inv = linalg.adjugate_inverse(m)
        assert np.allclose(m @ inv, np.eye(n), atol=1e-9)


@pytest.mark.parametrize("diag", [(1e-6, 1e6), (1e-3, 1.0, 1.0, 1e3)])
def test_adjugate_inverse_of_badly_scaled_diagonals(diag):
    # no scale is singular: each entry is the exact 1/d rounded once,
    # which is what float division gives
    inv = linalg.adjugate_inverse(np.diag(diag))
    assert np.array_equal(inv, np.diag([1.0 / d for d in diag]))


def test_adjugate_inverse_rejects_singular():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.adjugate_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_cofactor_alternating_signs():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.cofactor(m, 0, 0) == pytest.approx(4.0)
    assert linalg.cofactor(m, 0, 1) == pytest.approx(-3.0)
    assert linalg.cofactor(m, 1, 0) == pytest.approx(-2.0)
    assert linalg.cofactor(m, 1, 1) == pytest.approx(1.0)


def _complex_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.mark.parametrize("n", range(1, linalg.MAX_ORDER + 1))
def test_elimination_kernels_match_numpy(rng, n):
    for _ in range(10):
        m = _complex_matrix(rng, n)
        det = np.linalg.det(m)
        assert abs(linalg.lu_det(m) - det) <= 1e-10 * abs(det)
        inv = np.linalg.inv(m)
        assert np.allclose(linalg.adjugate_inverse(m), inv, rtol=1e-9, atol=1e-12)
        for i in range(n):
            for j in range(n):
                # cof(M, i, j) = det M * inv(M)[j, i]
                want = det * inv[j, i]
                assert abs(linalg.cofactor(m, i, j) - want) <= 1e-9 * (1.0 + abs(want))


def test_zero_column_below_pivot_gives_exact_zero():
    m = np.array([[2.0, 1.0, 3.0], [0.0, 0.0, 5.0], [0.0, 0.0, 7.0j]])
    det = linalg.lu_det(m)
    assert det == 0j and type(det) is complex


def test_sym_eigen_of_diagonal_is_exact():
    diag = [3.0, -1.0, 2.5, 0.0, -1.0]
    vals, vecs = linalg.sym_eigen(np.diag(diag))
    order = np.argsort(diag, kind="stable")
    assert vals.tolist() == sorted(diag)
    assert np.array_equal(vecs, np.eye(len(diag))[:, order])


def _assert_trace_and_determinant(a, vals):
    """sum(vals) = tr a and prod(vals) = lu_det(a), each within rounding
    of the spectral scale: oracles that run no LAPACK eigensolver."""
    n = len(vals)
    scale = np.max(np.abs(vals))
    assert abs(vals.sum() - np.trace(a).real) <= 1e-14 * n * scale
    # first order in the eigenvalues: d prod / d lambda_i = prod_{j != i} lambda_j
    cofactors = [np.prod(np.abs(np.delete(vals, i))) for i in range(n)]
    assert abs(np.prod(vals) - linalg.lu_det(a)) <= 1e-14 * n * scale * sum(cofactors)


def test_sym_eigen_order_eight_meets_trace_and_determinant(rng):
    for _ in range(5):
        a = _hermitian(_complex_matrix(rng, linalg.MAX_ORDER))
        vals, _ = linalg.sym_eigen(a)
        _assert_trace_and_determinant(a, vals)


def test_sym_eigen_repeat_calls_are_bit_identical(rng):
    a = _hermitian(_complex_matrix(rng, 6))
    (v1, u1), (v2, u2) = linalg.sym_eigen(a), linalg.sym_eigen(a)
    assert v1.tobytes() == v2.tobytes() and u1.tobytes() == u2.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sym_eigen_matches_numpy(rng, n):
    for _ in range(25):
        a = _hermitian(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        vals, vecs = linalg.sym_eigen(a)
        _assert_trace_and_determinant(a, vals)
        # eigenvector columns reconstruct the matrix
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-9)
        if n == 2:
            # closed form (a + d)/2 -+ sqrt(((a - d)/2)^2 + |b|^2)
            mean, half = np.trace(a).real / 2.0, (a[0, 0] - a[1, 1]).real / 2.0
            radius = np.hypot(half, abs(a[0, 1]))
            scale = np.max(np.abs(vals))
            assert 2.0 * radius > 1e-3 * scale  # well separated
            assert np.max(np.abs(vals - [mean - radius, mean + radius])) <= 4e-14 * scale


def test_sym_eigen_ascending_order(rng):
    a = _hermitian(rng.normal(size=(4, 4)))
    vals, _ = linalg.sym_eigen(a)
    assert np.all(np.diff(vals) >= -1e-12)


def test_sym_eigen_rejects_nonhermitian():
    with pytest.raises(ValueError):
        linalg.sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_psd_squares_back(rng):
    for n in (1, 2, 3, 4):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g @ g.conj().T + 0.1 * np.eye(n)
        r = linalg.sqrt_psd(a)
        assert np.allclose(r @ r, a, atol=1e-9)
        assert linalg.hermitian_defect(r) < 1e-10


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(linalg.NegativeEigenvalueError):
        linalg.sqrt_psd(np.diag([1.0, -1.0]))


def test_operator_norm_matches_numpy(rng):
    for n in (1, 2, 3, 5):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert linalg.operator_norm(m) == pytest.approx(
            np.linalg.norm(m, ord=2), rel=1e-9)


def test_hermitian_defect_is_relative():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert linalg.hermitian_defect(a) == 0.0
    assert linalg.hermitian_defect(1e8 * a) == 0.0
    b = np.array([[1.0, 1.0 + 1e-10], [1.0, 1.0]])
    assert 0.0 < linalg.hermitian_defect(b) < 1e-9


def test_a_modulus_past_the_float_range_is_not_self_adjoint():
    # |1.7e308 + 1.7e308j| and the gap to the adjoint, 3.4e308j, overflow;
    # on the halved matrix both are finite and the defect is sqrt(2)
    a = np.array([[1.7e308 + 1.7e308j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.hermitian_defect(a) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        with pytest.raises(ValueError, match="not self-adjoint"):
            linalg.as_hermitian(a)
        big = np.array([[1.7e308, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 1.0]])
        assert np.array_equal(linalg.as_hermitian(big), big)
        big[1, 0] += 1e306j
        assert linalg.hermitian_defect(big) == pytest.approx(
            5e305 / abs(big[0, 1] / 2.0), rel=1e-12)


def test_as_hermitian_symmetrizes_within_tol():
    a = np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]])
    h = linalg.as_hermitian(a)
    assert np.allclose(h, h.conj().T)
    with pytest.raises(ValueError):
        linalg.as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_checks_every_matrix_of_a_stack():
    good = np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]])
    stack = linalg.as_hermitian(np.array([good, 2.0 * good, np.zeros((2, 2))]))
    for got, m in zip(stack, (good, 2.0 * good, np.zeros((2, 2)))):
        assert np.array_equal(got, linalg.as_hermitian(m))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not self-adjoint"):
        linalg.as_hermitian(np.array([good, skew]))
    with pytest.raises(ValueError, match="must be finite"):
        linalg.as_hermitian(np.array([good, np.full((2, 2), np.nan)]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        linalg.as_hermitian(np.zeros((3, 2, 1)))


@pytest.mark.parametrize("a", [
    np.diag([1.7e308, 1.7e308]),
    np.array([[1.7e308, 1.6e308 + 1e308j], [1.6e308 - 1e308j, 1.7e308]]),
    np.array([[1.7e308, 1.6e308 + 5e-324j], [1.6e308 - 1e-323j, 1.7e308]]),
    np.diag([5e-324, 1.0]),
    np.array([[5e-324, 5e-324], [5e-324, 1.0]]),
], ids=["float-limit", "complex-limit", "limit-and-subnormal", "subnormal",
        "subnormal-off-diagonal"])
def test_as_hermitian_is_exact_at_the_ends_of_the_float_range(a):
    # (a + a*) / 2 would overflow near the limit; a / 2 + a* / 2 would
    # flush 5e-324 to 0 and make diag(5e-324, 1) singular
    with np.errstate(over="raise", invalid="raise"):
        h = linalg.as_hermitian(a)
    assert np.isfinite(h).all()
    assert np.array_equal(h, h.conj().T)
    assert np.array_equal(h.diagonal(), a.diagonal().real)
    assert np.array_equal(h.real, a.real)


def test_as_hermitian_decides_as_the_defect_does_at_the_boundary(rng):
    # a defect equal to tol passes, the next float below it fails, as
    # hermitian_defect(a) > tol decides; a zero matrix has defect 0
    cases = [np.array([[1.0, 0.5], [0.25, 1.0]]), np.zeros((3, 3)),
             np.array([[0.0, 1e-300j], [0.0, 0.0]])]
    cases += [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(20)]
    cases += [np.diag([2.0, 3.0]) + 1e-13 * rng.normal(size=(2, 2)) for _ in range(20)]
    for a in cases:
        defect = linalg.hermitian_defect(a)
        for tol in (defect, np.nextafter(defect, -1.0), np.nextafter(defect, 2.0), 0.0):
            if defect > tol:
                with pytest.raises(ValueError, match="not self-adjoint"):
                    linalg.as_hermitian(a, tol)
            else:
                assert np.array_equal(linalg.as_hermitian(a, tol), (a + a.conj().T) / 2.0)
    assert np.array_equal(linalg.as_hermitian(np.zeros((2, 2)), 0.0), np.zeros((2, 2)))


@pytest.mark.parametrize("scale", [sys.float_info.max, sys.float_info.max / 2.0,
                                   np.nextafter(sys.float_info.max / 2.0, 2.0), 5e-324])
def test_as_hermitian_keeps_diagonals_without_warnings(scale):
    # at and just above half the float maximum a + a* may overflow; the
    # halves are summed instead, with no RuntimeWarning
    parts = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 0.75]])
    a = parts * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = linalg.as_hermitian(a)
        stack = linalg.as_hermitian(np.array([a, np.diag([1.0, 2.0])]))
    assert np.array_equal(h.diagonal(), a.diagonal().real)
    assert np.array_equal(h, a) and np.array_equal(stack[0], a)


def test_an_inverse_entry_past_the_float_range_is_named():
    for m, at in (([[5e-324, 0.0], [0.0, 1.0]], "(0, 0)"),
                  ([[1.0, 0.0], [0.0, 1e-320j]], "(1, 1)")):
        with pytest.raises(OverflowError, match=re.escape(f"inverse entry {at} overflows")):
            linalg.adjugate_inverse(m)


def test_hermitian_defect_of_a_stack_is_per_matrix():
    good = np.array([[1.0, 2.0], [2.0, 1.0]])
    skew = np.array([[1.0, 1.0 + 1e-10], [1.0, 1.0]])
    stack = np.array([good, skew, np.zeros((2, 2))])
    assert linalg.hermitian_defect(stack).tolist() == [
        linalg.hermitian_defect(m) for m in stack]


def test_sqrt_psd_of_a_stack_is_per_matrix(rng):
    g = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    stack = g @ g.conj().swapaxes(-1, -2)
    roots = linalg.sqrt_psd(stack)
    for root, m in zip(roots, stack):
        assert np.array_equal(root, linalg.sqrt_psd(m))


def test_psd_clamp_raises_on_the_first_failing_matrix_of_a_stack():
    eye = np.eye(2)
    for stack, low in (([eye, np.diag([1.0, -0.5]), eye], -0.5),
                       ([eye, eye, np.diag([-0.25, 1.0]), np.diag([1.0, -0.5])], -0.25)):
        with pytest.raises(linalg.NegativeEigenvalueError) as err:
            linalg.sqrt_psd(np.array(stack))
        assert str(err.value) == f"eigenvalue {low:.6e} below PSD clamp {-1e-12:.6e}"


def test_eigh_stack_solves_each_matrix_alone(rng):
    g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    stack = g @ g.conj().swapaxes(-1, -2)
    vals, vecs = linalg.eigh_stack(stack)
    for k, m in enumerate(stack):
        one_vals, one_vecs = linalg.eigh_stack(m)
        assert np.array_equal(one_vals, vals[k]) and np.array_equal(one_vecs, vecs[k])
        # V diag(vals) V* = M and V* V = I, checked without a second solver
        rebuilt = (one_vecs * one_vals) @ one_vecs.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-12 * np.max(np.abs(m))
        assert np.max(np.abs(one_vecs.conj().T @ one_vecs - np.eye(3))) <= 1e-12


def test_eigh_stack_failure_is_a_convergence_error(monkeypatch):
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(linalg.ConvergenceError, match="Eigenvalues did not converge"):
        linalg.eigh_stack(np.eye(2))


class TestIsPositiveDefinite:
    def test_positive_case_has_all_minors(self, rng):
        g = rng.normal(size=(3, 3))
        a = g @ g.T + 3 * np.eye(3)
        res = linalg.is_positive_definite(a)
        assert res.verdict == "positive"
        assert len(res.minors) == 3
        assert all(m > 0 for m in res.minors)
        assert np.linalg.eigvalsh(a)[0] > 0

    def test_indefinite_case_names_failed_minor(self):
        a = np.diag([1.0, -2.0, 3.0])
        res = linalg.is_positive_definite(a)
        assert res.verdict == "not_positive"
        assert res.failed_minor == 1
        assert np.linalg.eigvalsh(a)[0] < 0

    def test_marginal_case(self):
        # exactly singular: the minor that is 0 fails, with no margin
        res = linalg.is_positive_definite(np.diag([1.0, 0.0]))
        assert res.verdict == "not_positive"
        assert res.failed_minor == 1
        assert res.minors == (1, 0)

    @pytest.mark.parametrize("m", [
        np.diag([1e-300, 1.0]),
        [[1.0, 1.0 - 2.0**-52], [1.0 - 2.0**-52, 1.0]],
        [[2.0, 1 + 1j], [1 - 1j, 2.0]],
        [[1e300, 0.0], [0.0, 1e300]],
    ], ids=["tiny-diagonal", "one-ulp-from-singular", "complex", "huge"])
    def test_exactly_positive_definite(self, m):
        res = linalg.is_positive_definite(m)
        assert res.verdict == "positive"
        assert res.failed_minor is None
        assert res.minors == tuple(_exact_elimination(m)[0])

    @pytest.mark.parametrize("m, minors", [
        ([[1.0, 1j], [-1j, 1.0]], (1, 0)),
        ([[1e300, 2e300], [2e300, 1e300]],
         (Fraction(1e300), Fraction(1e300) ** 2 - Fraction(2e300) ** 2)),
        (np.zeros((3, 3)), (0,)),
    ], ids=["complex-singular", "huge-indefinite", "zero"])
    def test_first_minor_not_positive_is_named_exactly(self, m, minors):
        res = linalg.is_positive_definite(m)
        assert res.verdict == "not_positive"
        assert res.failed_minor == len(minors) - 1
        assert res.minors == minors

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_matches_the_fraction_oracle(self, rng, complex_entries):
        # random self-adjoint matrices, mostly indefinite; Gram matrices,
        # mostly positive definite; exactly singular B B* from an integer
        # B of shape n x (n - 1); and matrices that are not self-adjoint:
        # fixed ones that need a row swap (real ones among them, which run
        # the real pass, with a negative determinant or exactly singular),
        # and small integer ones, which often need one or are singular.
        # Minors are read from the self-adjoint ones; determinants and
        # inverses, correctly rounded, from all
        def draw(shape, ints=False):
            def part():
                return rng.integers(-3, 4, size=shape) if ints else rng.normal(size=shape)
            return part() + 1j * part() if complex_entries else part() + 0j

        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]) / 3.0
        swapping = [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1j], [2.0, 0.0]],
                    [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [0.0, 1.0, 1.0]],
                    [[0.0, 0.0, 0.5], [0.0, 3.0, 0.0], [-0.25, 0.0, 0.0]],
                    [[0.0, 2.0, 1.0, 0.0], [1.5, 0.0, 0.0, 1.0],
                     [0.0, 0.0, 1.0, 3.0], [1.0, 1.0, 0.0, 0.0]],
                    b @ b.T, [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]]
        for trial in range(-len(swapping), 400):
            n = int(rng.integers(1, 6))
            if trial < 0:
                m = np.array(swapping[trial], dtype=complex)
            elif trial % 4 == 0:
                m = _hermitian(draw((n, n)))
            elif trial % 4 == 1:
                g = draw((n, n))
                m = g @ g.conj().T + 1e-3 * np.eye(n)
            elif trial % 4 == 2:
                b = draw((n, n - 1), ints=True)
                m = b @ b.conj().T
            else:
                m = draw((n, n), ints=trial % 8 == 7)
            self_adjoint = 0 <= trial and trial % 4 < 3
            if self_adjoint:
                res = linalg.is_positive_definite(m)
                m = linalg.as_hermitian(m)
            want, det, inv = _exact_elimination(m)
            if self_adjoint:
                assert res.minors == tuple(want)
                failed = next((k for k, d in enumerate(want) if d <= 0), None)
                assert res.failed_minor == failed
                assert res.verdict == ("positive" if failed is None else "not_positive")
            assert _bits(linalg.lu_det(m)) == _bits(_rounded(det))
            if inv is None:
                with pytest.raises(linalg.SingularMatrixError):
                    linalg.adjugate_inverse(m)
            else:
                got = linalg.adjugate_inverse(m)
                assert _bits(got) == _bits([[_rounded(z) for z in row] for row in inv])
                if self_adjoint:
                    assert np.array_equal(got, got.conj().T)
            if trial >= 0 and trial % 4 == 2:
                assert failed is not None and inv is None
                assert linalg.lu_det(m) == 0j

    def test_dual_route_agreement(self, rng):
        # Sylvester minors and the eigenvalue route must agree
        for _ in range(40):
            a = _hermitian(rng.normal(size=(3, 3)) * 2)
            res = linalg.is_positive_definite(a)
            eig_min = np.linalg.eigvalsh(a)[0]
            scale = np.linalg.norm(a, ord=2)
            if res.verdict == "positive":
                assert eig_min > -1e-12 * scale
            elif res.verdict == "not_positive":
                assert eig_min < 1e-9 * scale


@given(st.one_of(_square_strategy(3), _square_strategy(3, complex_entries=True)))
def test_permutation_parity_consistency(m):
    # det M^T = det M exactly, and lu_det rounds the exact determinant
    # correctly, so the two floats are equal bit for bit
    assert _bits(linalg.lu_det(m.T)) == _bits(linalg.lu_det(m))


@given(st.integers(min_value=1, max_value=5))
def test_identity_determinant_and_inverse(n):
    eye = np.eye(n)
    assert linalg.lu_det(eye) == pytest.approx(1.0)
    assert np.allclose(linalg.elim_inverse(eye), eye)
