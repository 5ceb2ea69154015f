"""Averages, A2 functionals, and the supremum estimator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from a2w.estimator import (Interval, NonPositiveInputError, SupSearchConfig,
                           a2_functional_norm, a2_functional_trace,
                           average_numeric, average_symbolic,
                           coarse_interval_config, estimate_a2)
from a2w.quadrature import PointwiseMatrixFunction
from a2w.scalar_power import (NotA2Error, average_abs_pow,
                              scalar_closed_form_constant)
from a2w.type1 import (SymbolicPowerMatrix, a2_upper_bound, build_type1,
                       symbolic_inverse)
from a2w.type2 import Type2Weight
from a2w.verify import random_interval, random_type1_weight

TWO_BY_TWO = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1/2", "-2/3"])


def _as_pointwise(w) -> PointwiseMatrixFunction:
    eff = w.effective_coeff()
    floats = [[float(e) for e in row] for row in w.exponents]

    def entry(i, j):
        c, e = eff[i, j], floats[i][j]
        return lambda x: c * np.abs(np.asarray(x, dtype=float)) ** e

    smin = min(min(row) for row in w.exponents)
    return PointwiseMatrixFunction(n=w.n, entry=entry, singular_exponent=smin)


class TestAverages:
    def test_symbolic_average_entrywise(self):
        iv = Interval(0.0, 2.0)
        got = average_symbolic(TWO_BY_TWO, iv)
        for i in range(2):
            for j in range(2):
                want = TWO_BY_TWO.coeff[i, j] * average_abs_pow(
                    TWO_BY_TWO.exponents[i][j], iv)
                assert got[i, j] == pytest.approx(want, rel=1e-12)

    def test_numeric_route_matches_symbolic(self):
        pmf = _as_pointwise(TWO_BY_TWO)
        for iv in (Interval(0.0, 1.0), Interval(-3.0, 3.0), Interval(0.5, 8.0)):
            sym = average_symbolic(TWO_BY_TWO, iv)
            num = average_numeric(pmf, iv, tol=1e-10)
            assert np.allclose(num, sym, rtol=1e-8)

    def test_numeric_route_matches_symbolic_on_inverse(self):
        winv = symbolic_inverse(TWO_BY_TWO)
        pmf = _as_pointwise(winv)
        iv = Interval(0.0, 4.0)
        assert np.allclose(average_numeric(pmf, iv, tol=1e-10),
                           average_symbolic(winv, iv), rtol=1e-8)


class TestFunctionals:
    def test_trace_on_diagonal_matrices(self):
        a = np.diag([2.0, 3.0])
        b = np.diag([1.0, 0.5])
        assert a2_functional_trace(a, b) == pytest.approx(3.5)

    def test_norm_on_diagonal_matrices(self):
        a = np.diag([2.0, 3.0])
        b = np.diag([1.0, 0.5])
        # sqrt(a) sqrt(b) is diagonal; largest squared entry is 2
        assert a2_functional_norm(a, b) == pytest.approx(2.0)

    def test_identity_attains_floors(self):
        eye = np.eye(3)
        assert a2_functional_trace(eye, eye) == pytest.approx(3.0)
        assert a2_functional_norm(eye, eye) == pytest.approx(1.0)

    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            w = random_type1_weight(rng, n)
            winv = symbolic_inverse(w)
            iv = random_interval(rng)
            aw = average_symbolic(w, iv)
            ai = average_symbolic(winv, iv)
            tr = a2_functional_trace(aw, ai)
            nm = a2_functional_norm(aw, ai)
            assert nm <= tr * (1.0 + 1e-9)
            assert tr <= n * nm * (1.0 + 1e-9)
            assert nm >= 1.0 - 1e-9
            assert tr >= n * (1.0 - 1e-9)

    def test_below_floor_raises(self):
        # trace of a pair that is not (average, inverse average) compatible
        with pytest.raises(NonPositiveInputError):
            a2_functional_trace(np.diag([0.5, 0.5]), np.diag([0.5, 0.5]))

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(NonPositiveInputError):
            a2_functional_trace(np.diag([1.0, -1.0]), np.eye(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            a2_functional_trace(np.eye(2), np.eye(3))


class TestEstimateA2:
    def test_scalar_weight_reaches_closed_form(self):
        w = SymbolicPowerMatrix(np.array([[1.0]]), ((Fraction(1, 2),),))
        res = estimate_a2(w, functional="trace")
        want = scalar_closed_form_constant(Fraction(1, 2))
        assert 0.99 * want <= res.estimate <= want * (1.0 + 1e-9)

    def test_matrix_estimate_below_certified_bound(self):
        res = estimate_a2(TWO_BY_TWO, functional="trace")
        assert res.estimate <= a2_upper_bound(TWO_BY_TWO) * (1.0 + 1e-9)
        assert res.estimate >= 2.0  # trace floor

    def test_norm_below_trace_estimate(self):
        tr = estimate_a2(TWO_BY_TWO, functional="trace",
                         config=coarse_interval_config()).estimate
        nm = estimate_a2(TWO_BY_TWO, functional="norm",
                         config=coarse_interval_config()).estimate
        assert nm <= tr * (1.0 + 1e-9)

    def test_unknown_functional_rejected(self):
        with pytest.raises(ValueError):
            estimate_a2(TWO_BY_TWO, functional="determinant")

    def test_exponent_outside_range_rejected(self):
        w = build_type1(np.array([[2.0]]), ["3/2"])
        with pytest.raises(Exception) as exc_info:
            estimate_a2(w)
        assert "(-1, 1)" in str(exc_info.value)

    def test_type2_equal_exponents_near_scalar_constant(self):
        w = Type2Weight((1.0, 1.0), ("1/2", "1/2"), "rotation2d")
        res = estimate_a2(w, functional="norm",
                          config=coarse_interval_config(quadrature_tol=1e-9))
        # rotation conjugation collapses; the scalar constant 4/3 governs
        assert res.estimate <= 4.0 / 3.0 * (1.0 + 1e-6)
        assert res.estimate >= 0.95 * 4.0 / 3.0

    def test_type2_non_member_rejected(self):
        w = Type2Weight((1.0, 1.0), ("3/2", "1/2"), "rotation2d")
        with pytest.raises(NotA2Error):
            estimate_a2(w)

    def test_unsupported_weight_type(self):
        with pytest.raises(TypeError):
            estimate_a2(object())

    def test_estimates_deterministic(self):
        r1 = estimate_a2(TWO_BY_TWO, config=coarse_interval_config())
        r2 = estimate_a2(TWO_BY_TWO, config=coarse_interval_config())
        assert r1 == r2
