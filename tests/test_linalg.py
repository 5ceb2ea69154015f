"""Dense linear algebra kernel against numpy oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from a2w import linalg


def _hermitian(values: np.ndarray) -> np.ndarray:
    return (values + values.conj().T) / 2.0


def _square_strategy(n: int, complex_entries: bool = False):
    elems = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    real = arrays(np.float64, (n, n), elements=elems)
    if not complex_entries:
        return real
    return st.tuples(real, real).map(lambda p: p[0] + 1j * p[1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leibniz_det_matches_numpy(rng, n):
    for _ in range(25):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        want = np.linalg.det(m)
        got = linalg.leibniz_det(m)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lu_det_matches_numpy(rng, n):
    for _ in range(25):
        m = rng.normal(size=(n, n))
        assert np.isclose(linalg.lu_det(m), np.linalg.det(m), rtol=1e-9, atol=1e-12)


def test_determinants_agree_on_singular_matrix():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert abs(linalg.leibniz_det(m)) < 1e-12
    assert abs(linalg.lu_det(m)) < 1e-12


def test_leibniz_det_rejects_large_order():
    m = np.eye(linalg.MAX_ORDER + 1)
    with pytest.raises(ValueError):
        linalg.leibniz_det(m)


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
    # Well conditioned per row: Hadamard's bound is attained, not undercut.
    inv = linalg.adjugate_inverse(np.diag(diag))
    assert np.allclose(inv, np.diag([1.0 / d for d in diag]), rtol=1e-15, atol=0.0)


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


def test_sym_eigen_order_eight_matches_eigvalsh(rng):
    for _ in range(5):
        a = _hermitian(_complex_matrix(rng, linalg.MAX_ORDER))
        vals, _ = linalg.sym_eigen(a)
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(vals - want)) <= 1e-12 * np.max(np.abs(want))


def test_sym_eigen_repeat_calls_are_bit_identical(rng):
    a = _hermitian(_complex_matrix(rng, 6))
    (v1, u1), (v2, u2) = linalg.sym_eigen(a), linalg.sym_eigen(a)
    assert v1.tobytes() == v2.tobytes() and u1.tobytes() == u2.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sym_eigen_matches_numpy(rng, n):
    for _ in range(25):
        a = _hermitian(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        vals, vecs = linalg.sym_eigen(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(vals, want, rtol=1e-9, atol=1e-9)
        # eigenvector columns reconstruct the matrix
        assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-9)


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


def test_as_hermitian_symmetrizes_within_tol():
    a = np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]])
    h = linalg.as_hermitian(a)
    assert np.allclose(h, h.conj().T)
    with pytest.raises(ValueError):
        linalg.as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_as_hermitian_stack_checks_every_matrix():
    good = np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]])
    stack = linalg.as_hermitian_stack(np.array([good, 2.0 * good, np.zeros((2, 2))]))
    for got, m in zip(stack, (good, 2.0 * good, np.zeros((2, 2)))):
        assert np.array_equal(got, linalg.as_hermitian(m))
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not self-adjoint"):
        linalg.as_hermitian_stack(np.array([good, skew]))
    with pytest.raises(ValueError, match="must be finite"):
        linalg.as_hermitian_stack(np.array([good, np.full((2, 2), np.nan)]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        linalg.as_hermitian_stack(np.zeros((3, 2, 1)))


def test_eigh_stack_solves_each_matrix_alone(rng):
    g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    stack = g @ g.conj().swapaxes(-1, -2)
    vals, vecs = linalg.eigh_stack(stack)
    for k, m in enumerate(stack):
        one_vals, one_vecs = linalg.eigh_stack(m)
        assert np.array_equal(one_vals, vals[k]) and np.array_equal(one_vecs, vecs[k])
        assert np.allclose(one_vals, linalg.sym_eigen(m)[0], rtol=1e-12, atol=1e-12)


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
        assert res.min_eigenvalue > 0

    def test_indefinite_case_names_failed_minor(self):
        a = np.diag([1.0, -2.0, 3.0])
        res = linalg.is_positive_definite(a)
        assert res.verdict == "not_positive"
        assert res.failed_minor == 1
        assert res.min_eigenvalue < 0

    def test_marginal_case(self):
        res = linalg.is_positive_definite(np.diag([1.0, 0.0]))
        assert res.verdict == "marginal"

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


@given(_square_strategy(3))
def test_permutation_parity_consistency(m):
    # det of the transpose equals det of the matrix in the Leibniz route
    assert linalg.leibniz_det(m.T) == pytest.approx(
        linalg.leibniz_det(m), rel=1e-9, abs=1e-9)


@given(st.integers(min_value=1, max_value=5))
def test_identity_determinant_and_inverse(n):
    eye = np.eye(n)
    assert linalg.leibniz_det(eye) == pytest.approx(1.0)
    assert linalg.lu_det(eye) == pytest.approx(1.0)
    assert np.allclose(linalg.elim_inverse(eye), eye)
