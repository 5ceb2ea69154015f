"""Scalar power weights: exact parsing, closed forms, and the A2 constant."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from a2w.estimator import a2_functional_trace, average_symbolic, estimate_a2
from a2w.regions import Interval
from a2w.scalar_power import (NotA2Error, NotIntegrableError,
                              average_abs_pow, format_rational,
                              integral_abs_pow, integral_abs_pow_stack,
                              parse_rational, power_stack,
                              scalar_closed_form_constant, scalar_is_a2)
from a2w.search import coarse_interval_config, interval_grid
from a2w.type1 import SymbolicPowerMatrix, check_a2, symbolic_inverse

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=40)


def scalar_weight(coeff, gamma) -> SymbolicPowerMatrix:
    """coeff |x|^gamma as a 1x1 power matrix."""
    return SymbolicPowerMatrix(np.array([[coeff]]), (((Fraction(gamma),),),))


def scalar_product(w: SymbolicPowerMatrix, iv: Interval) -> float:
    """<w>_I <1/w>_I, the 1x1 trace functional."""
    return a2_functional_trace(average_symbolic(w, iv),
                               average_symbolic(symbolic_inverse(w), iv))


class TestParseRational:
    @pytest.mark.parametrize("raw,want", [
        (3, Fraction(3)),
        (-2, Fraction(-2)),
        ("1/2", Fraction(1, 2)),
        ("-5/8", Fraction(-5, 8)),
        ("7", Fraction(7)),
        ("  -3/4 ", Fraction(-3, 4)),
        (Fraction(2, 6), Fraction(1, 3)),
    ])
    def test_accepts_exact_forms(self, raw, want):
        assert parse_rational(raw) == want

    @pytest.mark.parametrize("raw", [
        0.5, "0.5", "1e-3", "1/0", "one half", True, False, None, [1, 2],
    ])
    def test_rejects_inexact_forms(self, raw):
        with pytest.raises(ValueError):
            parse_rational(raw)

    @given(rationals)
    def test_format_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestClosedFormIntegrals:
    @pytest.mark.parametrize("gamma", ["-9/10", "-1/2", "-1/3", "0", "1/2", "2", "7/3"])
    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.25, 3.0), (-2.0, -0.5),
                                        (-1.5, 2.5), (-1e-3, 1e3)])
    def test_matches_scipy_quad(self, gamma, bounds):
        g = Fraction(gamma)
        iv = Interval(*bounds)
        want, _ = scipy.integrate.quad(
            lambda x: abs(x) ** float(g), iv.a, iv.b,
            points=[0.0] if iv.a < 0.0 < iv.b else None, limit=200)
        got = integral_abs_pow(g, iv)
        assert got == pytest.approx(want, rel=1e-8)

    def test_minus_one_exact_branch(self):
        iv = Interval(1.0, math.e)
        assert integral_abs_pow(Fraction(-1), iv) == pytest.approx(1.0, rel=1e-12)

    def test_exponent_within_rounding_of_minus_one_takes_log_form(self):
        g = Fraction(-10**20 - 1, 10**20)
        assert float(g) == -1.0
        assert integral_abs_pow(g, Interval(1.0, math.e)) == pytest.approx(
            1.0, rel=1e-12)

    def test_minus_one_rejected_at_zero(self):
        with pytest.raises(NotIntegrableError):
            integral_abs_pow(Fraction(-1), Interval(0.0, 1.0))

    @pytest.mark.parametrize("gamma", ["-1", "-3/2", "-2"])
    def test_nonintegrable_across_zero(self, gamma):
        with pytest.raises(NotIntegrableError):
            integral_abs_pow(Fraction(gamma), Interval(-1.0, 2.0))

    def test_average_is_integral_over_length(self):
        iv = Interval(0.5, 2.5)
        g = Fraction(1, 3)
        assert average_abs_pow(g, iv) == pytest.approx(
            integral_abs_pow(g, iv) / 2.0, rel=1e-15)

    def test_reflection_symmetry(self):
        g = Fraction(-2, 5)
        assert integral_abs_pow(g, Interval(0.5, 2.0)) == pytest.approx(
            integral_abs_pow(g, Interval(-2.0, -0.5)), rel=1e-14)

    def test_tiny_relative_width_stays_accurate(self):
        # log1p/expm1 path: interval much narrower than its distance to 0
        g = Fraction(1, 2)
        lo = 1e8
        hi = lo * (1.0 + 1e-12)
        got = integral_abs_pow(g, Interval(lo, hi))
        want = math.sqrt(lo) * (hi - lo)  # first-order exact to ~1e-13 rel
        assert got == pytest.approx(want, rel=1e-6)
        assert got > 0


class TestStackedIntegrals:
    """integral_abs_pow_stack against integral_abs_pow, elementwise."""

    EXPONENTS = sorted({Fraction(p, q) for q in (2, 3, 4, 5, 7, 10, 100)
                        for p in range(1 - q, q)})

    @pytest.mark.parametrize("intervals", ["grid", "far"])
    def test_agrees_with_the_scalar_form(self, intervals):
        if intervals == "grid":
            # the grid a rotation's search scans by default
            ivs = interval_grid(coarse_interval_config())
        else:
            ivs = [Interval(1e6 - 1e-6, 1e6 + 1e-6), Interval(1e3, 1e3 + 1e-3),
                   Interval(-1e3 - 1e-3, -1e3)]
        a = np.array([iv.a for iv in ivs])
        b = np.array([iv.b for iv in ivs])
        got = integral_abs_pow_stack(np.array([[float(g)] for g in self.EXPONENTS]), a, b)
        want = np.array([[integral_abs_pow(g, iv) for iv in ivs] for g in self.EXPONENTS])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_a_value_does_not_depend_on_its_stack(self):
        ivs = [Interval(-2.0, 3.0), Interval(0.0, 2.0), Interval(-2.0, 0.0),
               Interval(1.0, 3.0), Interval(-3.0, -1.0), Interval(1e3, 1e3 + 1e-3)]
        gammas = [-1.5, -1.0, -0.5, 0.0, 1 / 3, 0.99, 2.5]
        a = np.array([iv.a for iv in ivs])
        b = np.array([iv.b for iv in ivs])
        stack = integral_abs_pow_stack(np.array(gammas)[:, None], a, b)
        for i, g in enumerate(gammas):
            for k in range(len(ivs)):
                alone = integral_abs_pow_stack(g, a[k], b[k])
                assert np.array_equal(alone, stack[i, k], equal_nan=True)

    def test_a_half_exponent_does_not_depend_on_its_stack(self):
        # numpy takes x ** 0.5 as sqrt only in a loop over more than one
        # base; one interval against a column of exponents used pow
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 10.0, 200)
        b = a + rng.uniform(0.1, 10.0, 200)
        gammas = np.array([[-0.5], [0.5]])  # a rotation's W and W^-1 at g = 1/2
        for lo in (a, -b):  # origin-free, then touching 0
            stack = integral_abs_pow_stack(gammas, lo, b)
            for k in range(a.size):
                alone = integral_abs_pow_stack(gammas, lo[k:k + 1], b[k:k + 1])
                assert np.array_equal(alone[:, 0], stack[:, k]), k

    def test_power_stack_takes_each_exponent_the_same_way_in_every_layout(self):
        # numpy raises by sqrt, square and reciprocal when one exponent of
        # 1/2, 2 or -1 meets several bases, and by pow otherwise: one
        # exponent against many bases must match one base against many
        # exponents, bit for bit, for every rational of [-3, 3] with
        # denominator at most 24
        exponents = sorted({Fraction(p, q) for q in range(1, 25) for p in range(-3 * q, 3 * q + 1)})
        assert len(exponents) == 1081
        s = np.array([[float(e)] for e in exponents])
        x = np.random.default_rng(1).uniform(1e-3, 1e3, 40)
        many_bases = np.array([power_stack(x, e) for e in s])
        for e, ufunc in ((0.5, np.sqrt), (2.0, np.square), (-1.0, np.reciprocal)):
            assert np.array_equal(many_bases[exponents.index(e)], ufunc(x)), e
        for k in range(x.size):
            many_exponents = power_stack(x[k:k + 1], s)[:, 0]
            assert np.array_equal(many_exponents, many_bases[:, k]), x[k]

    @pytest.mark.parametrize("g", [1.0, -2.0])
    def test_a_value_outside_the_a2_range_does_not_depend_on_its_stack(self, g):
        # s = g + 1 is 2 or -1: g over many intervals against each interval
        # alone with a second exponent, on origin-free intervals and on
        # intervals that touch 0, where g = -2 is not integrable (NaN)
        rng = np.random.default_rng(79)
        a = np.concatenate([rng.uniform(0.1, 10.0, 500), -rng.uniform(0.0, 10.0, 500)])
        b = np.concatenate([a[:500] + rng.uniform(1e-3, 10.0, 500), rng.uniform(1e-3, 10.0, 500)])
        stack = integral_abs_pow_stack([[g]], a, b)[0]
        for k in range(a.size):
            alone = integral_abs_pow_stack([[g], [1 / 3]], a[k:k + 1], b[k:k + 1])[0]
            assert np.array_equal(alone, stack[k:k + 1], equal_nan=True), (a[k], b[k])

    @pytest.mark.parametrize("g", [-1.0, -1.5])
    def test_nan_exactly_where_the_scalar_form_raises(self, g):
        ivs = [Interval(-1.0, 2.0), Interval(0.0, 2.0), Interval(-2.0, 0.0),
               Interval(1.0, 3.0), Interval(-3.0, -1.0)]
        got = integral_abs_pow_stack(g, [iv.a for iv in ivs], [iv.b for iv in ivs])
        for iv, value in zip(ivs, got):
            if iv.contains_zero():
                assert np.isnan(value)
                with pytest.raises(NotIntegrableError):
                    integral_abs_pow(g, iv)
            else:
                assert value == pytest.approx(integral_abs_pow(g, iv), rel=1e-15)


class TestA2Membership:
    @given(rationals)
    def test_membership_rule(self, g):
        assert scalar_is_a2(g) == (Fraction(-1) < g < Fraction(1))

    @pytest.mark.parametrize("gamma", ["-1", "1", "3/2", "-2"])
    def test_closed_form_rejects_non_members(self, gamma):
        with pytest.raises(NotA2Error):
            scalar_closed_form_constant(gamma)

    @pytest.mark.parametrize("gamma,want", [
        ("0", 1.0),
        ("1/2", 4.0 / 3.0),
        ("-1/2", 4.0 / 3.0),
        ("9/10", 1.0 / (1.0 - 0.81)),
    ])
    def test_closed_form_values(self, gamma, want):
        assert scalar_closed_form_constant(gamma) == pytest.approx(want, rel=1e-12)


class TestScalarProduct:
    def test_anchored_interval_attains_constant(self):
        w = scalar_weight(1.0, Fraction(1, 2))
        got = scalar_product(w, Interval(0.0, 1.0))
        assert got == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_coefficient_cancels(self):
        iv = Interval(0.25, 4.0)
        a = scalar_product(scalar_weight(1.0, Fraction(1, 3)), iv)
        b = scalar_product(scalar_weight(17.5, Fraction(1, 3)), iv)
        assert a == pytest.approx(b, rel=1e-14)

    def test_product_at_least_one(self):
        # Cauchy-Schwarz floor for any interval and any member exponent
        w = scalar_weight(2.0, Fraction(-1, 3))
        for iv in (Interval(0.0, 2.0), Interval(-5.0, 5.0), Interval(3.0, 9.0)):
            assert scalar_product(w, iv) >= 1.0 - 1e-12

    @given(st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10),
                        max_denominator=20))
    def test_origin_free_products_below_anchored_sup(self, g):
        w = scalar_weight(1.0, g)
        cap = scalar_closed_form_constant(g)
        for iv in (Interval(1.0, 2.0), Interval(0.001, 10.0), Interval(5.0, 500.0)):
            assert scalar_product(w, iv) <= cap * (1.0 + 1e-12)


class TestConstantEstimate:
    def test_gamma_half_reaches_four_thirds(self):
        w = scalar_weight(1.0, Fraction(1, 2))
        res = estimate_a2(w)
        assert 0.99 * (4.0 / 3.0) <= res.estimate <= (4.0 / 3.0) * (1.0 + 1e-9)
        assert res.argmax.near_endpoint_distance() <= 1e-3 * res.argmax.halflength

    def test_rejects_non_member(self):
        w = scalar_weight(1.0, Fraction(3, 2))
        assert check_a2(w).verdict == "not_a2"
        with pytest.raises(NotA2Error, match=r"^not_a2 \(diagonal exponent 3/2 >= 1: "):
            estimate_a2(w)

    def test_inverse_weight_same_constant(self):
        w = scalar_weight(3.0, Fraction(2, 5))
        a = estimate_a2(w).estimate
        b = estimate_a2(symbolic_inverse(w)).estimate
        assert a == pytest.approx(b, rel=1e-9)
