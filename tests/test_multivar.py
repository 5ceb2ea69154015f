"""Tests for separable and radial power weights over cubes."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad, quad, tplquad

from a2w import estimator, multivar
from a2w.estimator import a2_functional_trace, average_symbolic, estimate_a2
from a2w.linalg import SingularMatrixError
from a2w.multivar import average_type1b, build_type1a, build_type1b, cube_integral_radial
from a2w.quadrature import QuadratureBudgetError
from a2w.regions import Cube, Interval
from a2w.report import (VERDICT_A2, VERDICT_NOT_A2, VERDICT_NOT_INTEGRABLE,
                        VERDICT_NOT_PD_AE)
from a2w.scalar_power import NotA2Error, NotIntegrableError, average_abs_pow
from a2w.type1 import (MidpointConditionError, SymbolicPowerMatrix, build_type1,
                       a2_upper_bound, check_a2, evaluate, symbolic_det,
                       symbolic_inverse)

HALF = Fraction(1, 2)

# integral of ||x|| over the unit square, (sqrt(2) + asinh(1)) / 3
MEAN_RADIUS_UNIT_SQUARE = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 3.0
# integral of 1/||x|| over [-1, 1]^2
RECIP_RADIUS_BOX = 8.0 * math.log(1.0 + math.sqrt(2.0))

# (gamma, lower corner, side, integral of ||x||^gamma over the cube), each
# value from the d-dimensional Gauss cell tree that the face/angle route
# replaced, run at tol 1e-10 with purely relative error control; each agrees
# to 4e-11 or better with a 40-digit mpmath evaluation
RADIAL_PINS = [
    (-1.5, (0.0, 0.0), 1.0, 3.3235848646039314),
    (-1.0, (-0.5, -0.5), 1.0, 3.525494347964317),
    (0.5, (1.0, 1.0), 1.0, 1.4597829838736676),
    (1.5, (4.0, 4.0), 2.0, 75.77596980380244),
    (-1 / 3, (-0.06, -0.1), 1.0, 1.2314979064419502),
    (1.0, (-0.06, -0.1), 1.0, 0.6652873161410991),
    (-1.5, (0.0, -0.4), 1.0, 5.4045063051521645),
    (-1.0, (1000.0, 1000.0), 1.0, 0.0007067534191936243),
    (1.5, (1000.0, 1000.0), 1.0, 53222.85366649216),
    (0.5, (-1.5, -1.5), 3.0, 9.433407622929597),
    (-2.5, (0.0, 0.0, 0.0), 1.0, 3.4652910388640636),
    (-1.5, (-0.125, -0.125, -0.125), 0.25, 0.5026740055865879),
    (-1.0, (1.0, 1.0, 1.0), 1.0, 0.38498569730350457),
    (-1 / 3, (2.0, 2.0, 2.0), 1.0, 0.6132259057659137),
    (0.5, (-0.06, -0.1, -0.2), 1.0, 0.873070520782562),
    (-2.5, (-0.06, -0.1, -0.2), 1.0, 13.232842039799253),
    (1.0, (0.0, -0.4, -0.7), 1.0, 0.7001349036837494),
    (-1.0, (0.0, -0.4, -0.7), 1.0, 1.7244566402169141),
    (1.5, (0.0, 0.0, 0.0), 2.0, 21.996426287527783),
    (0.5, (0.5, 0.5, 0.5), 0.5, 0.14312578712066343),
    (1.5, (1000.0, 1000.0, 1000.0), 1.0, 72138.41619165929),
    (-1.0, (1000.0, 1000.0, 1000.0), 1.0, 0.0005770617383204662),
]
# the same tree on [1e3, 1e3 + 1]^3 at gamma = -2.5, where the rounding
# level of the cancelling face terms is about 4e-8 of the integral
FAR_STEEP = (-2.5, (1000.0,) * 3, 1.0, 7.99936883612543e-09)


def separable_pair():
    """2x2 separable example with distinct exponents per coordinate."""
    return build_type1a([[5.0, 3.0], [3.0, 2.0]],
                        [(HALF, -Fraction(2, 3)), (0, Fraction(1, 3))])


class TestCube:
    def test_geometry(self):
        cube = Cube((-0.5, 1.0), 2.0)
        assert cube.d == 2
        assert cube.upper == (1.5, 3.0)
        assert cube.volume == pytest.approx(4.0)
        iv = cube.interval(0)
        assert (iv.a, iv.b) == (-0.5, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            Cube((0.0,), 1.0)
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            Cube((0.0,) * 4, 1.0)
        with pytest.raises(ValueError, match="side"):
            Cube((0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="side"):
            Cube((0.0, 0.0), math.inf)
        with pytest.raises(ValueError, match="corner"):
            Cube((math.nan, 0.0), 1.0)


class TestBuilders:
    def test_separable_midpoint_completion(self):
        w = separable_pair()
        mx, my = w.exponents
        assert mx[0][1] == (HALF - Fraction(2, 3)) / 2 == Fraction(-1, 12)
        assert my[0][1] == Fraction(1, 6)
        assert w.n == 2 and w.d == 2

    def test_radial_midpoint_completion(self):
        w = build_type1b([[4.0, 1.0], [1.0, 2.0]], (HALF, -Fraction(1, 4)), 3)
        assert w.exponents[0][0][1] == Fraction(1, 8)
        assert w.d == 3

    def test_raw_stores_verbatim(self):
        mats = (((HALF, Fraction(1, 7)), (Fraction(1, 7), HALF)),)
        w = SymbolicPowerMatrix(np.eye(2), mats * 2, 2)
        assert w.exponents[0][0][1] == Fraction(1, 7)
        wb = SymbolicPowerMatrix(np.eye(2), mats, 2)
        assert wb.exponents[0][0][1] == Fraction(1, 7)

    def test_diagonal_length_must_match(self):
        with pytest.raises(ValueError, match="per row"):
            build_type1a(np.eye(2), [(HALF,), (0, 0)])
        with pytest.raises(ValueError, match="per row"):
            build_type1b(np.eye(2), (HALF,), 2)

    def test_dimension_count_enforced(self):
        with pytest.raises(ValueError, match="d in \\{2, 3\\}"):
            build_type1a(np.eye(2), [(0, 0)])
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            build_type1b(np.eye(2), (0, 0), 4)

    def test_exponent_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            SymbolicPowerMatrix(np.eye(2), (((HALF, HALF),), ((HALF, HALF),)), 2)
        with pytest.raises(ValueError, match="match the coefficient"):
            SymbolicPowerMatrix(np.eye(3), (((HALF, HALF), (HALF, HALF)),), 2)


class TestCheckSeparable:
    def test_valid_weight_is_a2(self):
        assert check_a2(separable_pair()).verdict == VERDICT_A2

    def test_diagonal_exponent_at_one_rejected(self):
        w = build_type1a(np.eye(2), [(HALF, 0), (1, 0)])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_A2
        f = report.findings[0]
        assert f.kind == "diagonal-exponent-range"
        assert f.where == (1, 0)

    def test_nonintegrable_exponent_rejected(self):
        w = build_type1a(np.eye(2), [(-1, 0), (0, 0)])
        assert check_a2(w).verdict == VERDICT_NOT_INTEGRABLE

    def test_midpoint_violation_breaks_positivity(self):
        mats = (((Fraction(0), Fraction(1, 3)), (Fraction(1, 3), HALF)),
                ((Fraction(0), Fraction(1, 3)), (Fraction(1, 3), HALF)))
        w = SymbolicPowerMatrix([[2.0, 1.0], [1.0, 2.0]], mats, 2)
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert report.findings[0].kind == "midpoint-violated"
        assert report.findings[0].where == (0, 0, 1)

    def test_zero_coefficient_offdiagonal_is_dont_care(self):
        mats = (((Fraction(0), Fraction(9)), (Fraction(9), HALF)),) * 2
        w = SymbolicPowerMatrix(np.diag([1.0, 2.0]), mats, 2)
        assert check_a2(w).verdict == VERDICT_A2

    def test_indefinite_coefficient(self):
        w = build_type1a([[1.0, 3.0], [3.0, 1.0]], [(0, 0), (0, 0)])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert any(f.kind == "leading-minor-not-positive"
                   for f in report.findings)

    def test_nonhermitian_coefficient(self):
        w = SymbolicPowerMatrix([[1.0, 0.5], [0.0, 1.0]],
                                (((Fraction(0), Fraction(0)),) * 2,) * 2, 2)
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert report.findings[0].kind == "coefficient-not-self-adjoint"

    def test_marginal_coefficient(self):
        # [[1, 1], [1, 1]] is exactly singular: its leading minor 2 is 0
        w = SymbolicPowerMatrix([[1.0, 1.0], [1.0, 1.0]],
                                (((Fraction(0), Fraction(0)),) * 2,) * 2, 2)
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert [(f.kind, f.where) for f in report.findings] == [
            ("leading-minor-not-positive", (1,))]

    def test_marginal_coefficient_with_midpoint_violation(self):
        mats = (((Fraction(0), Fraction(1, 3)), (Fraction(1, 3), HALF)),
                ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
        report = check_a2(SymbolicPowerMatrix([[1.0, 1.0], [1.0, 1.0]], mats, 2))
        assert report.verdict == VERDICT_NOT_PD_AE
        assert [(f.kind, f.where) for f in report.findings] == [
            ("midpoint-violated", (0, 0, 1)), ("midpoint-violated", (0, 1, 0)),
            ("leading-minor-not-positive", (1,))]
        assert report.witness is None


class TestCheckRadial:
    def test_wider_range_in_dimension_two(self):
        ok = build_type1b([[1.0]], (Fraction(3, 2),), 2)
        assert check_a2(ok).verdict == VERDICT_A2

    def test_exponent_two_rejected_in_dimension_two(self):
        bad = build_type1b([[1.0]], (Fraction(2),), 2)
        report = check_a2(bad)
        assert report.verdict == VERDICT_NOT_A2
        assert report.findings[0].kind == "diagonal-exponent-range"
        assert "inverse" in report.findings[0].detail

    def test_three_dimensional_bound(self):
        assert check_a2(
            build_type1b([[1.0]], (Fraction(5, 2),), 3)).verdict == VERDICT_A2
        assert check_a2(
            build_type1b([[1.0]], (Fraction(3),), 3)).verdict == VERDICT_NOT_A2

    def test_nonintegrable_exponent(self):
        report = check_a2(build_type1b([[1.0]], (Fraction(-2),), 2))
        assert report.verdict == VERDICT_NOT_INTEGRABLE

    def test_midpoint_violation(self):
        w = SymbolicPowerMatrix([[2.0, 1.0], [1.0, 2.0]],
                                (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),), 2)
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert report.findings[0].kind == "midpoint-violated"

    def test_marginal_coefficient_with_midpoint_violation(self):
        w = SymbolicPowerMatrix([[1.0, 1.0], [1.0, 1.0]],
                                (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),), 3)
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert [(f.kind, f.where) for f in report.findings] == [
            ("midpoint-violated", (0, 1)), ("midpoint-violated", (1, 0)),
            ("leading-minor-not-positive", (1,))]
        assert report.witness is None


class TestAverageSeparable:
    def test_matches_product_of_1d_closed_forms(self):
        w = separable_pair()
        cube = Cube((-0.25, 0.5), 1.5)
        avg = average_symbolic(w, cube)
        for i in range(2):
            for j in range(2):
                expect = w.coeff[i, j]
                for c in range(2):
                    expect *= average_abs_pow(
                        w.exponents[c][i][j], cube.interval(c))
                assert avg[i, j] == pytest.approx(expect, rel=1e-12)

    def test_matches_tensor_gauss_on_origin_free_cube(self):
        w = separable_pair()
        cube = Cube((0.5, 0.25), 1.0)
        nodes, wts = np.polynomial.legendre.leggauss(40)
        avg = average_symbolic(w, cube)
        for i in range(2):
            for j in range(2):
                ex = float(w.exponents[0][i][j])
                ey = float(w.exponents[1][i][j])
                fx = sum(wt * (0.5 * (n + 1.0) * 1.0 + 0.5) ** ex
                         for n, wt in zip(nodes, wts)) * 0.5
                fy = sum(wt * (0.5 * (n + 1.0) * 1.0 + 0.25) ** ey
                         for n, wt in zip(nodes, wts)) * 0.5
                assert avg[i, j] == pytest.approx(w.coeff[i, j] * fx * fy,
                                                  rel=1e-11)

    def test_matches_quadpack_on_straddling_cube(self):
        w = separable_pair()
        cube = Cube((-0.25, -0.5), 1.5)
        avg = average_symbolic(w, cube)
        ix = quad(lambda t: abs(t) ** 0.5, -0.25, 1.25, points=[0.0])[0]
        iy = quad(lambda t: 1.0, -0.5, 1.0)[0]
        expect = w.coeff[0, 0] * ix * iy / cube.volume
        assert avg[0, 0] == pytest.approx(expect, rel=1e-9)

    def test_dimension_mismatch(self):
        w = build_type1b([[1.0]], (HALF,), 3)
        with pytest.raises(ValueError, match="does not match"):
            average_type1b(w, Cube((0.0, 0.0), 1.0))
        with pytest.raises(ValueError, match="does not match"):
            average_symbolic(separable_pair(), Cube((0.0,) * 3, 1.0))

    def test_nonintegrable_entry_reported(self):
        w = SymbolicPowerMatrix([[1.0]], (((Fraction(-3, 2),),), ((Fraction(0),),)), 2)
        with pytest.raises(NotIntegrableError, match=r"coordinate 0"):
            average_symbolic(w, Cube((0.0, 0.0), 1.0))

    def test_hermitized_real_output(self):
        avg = average_symbolic(separable_pair(), Cube((0.0, 0.0), 2.0))
        assert np.all(avg.imag == 0.0)
        assert np.array_equal(avg, avg.conj().T)

    @pytest.mark.parametrize("w, region", [
        (build_type1(np.array([[4.0, 1 + 2j], [1 - 2j, 3.0]]), ["1/2", "-1/3"]),
         Interval(-0.25, 1.5)),
        (separable_pair(), Cube((-0.25, 0.5), 1.5)),
        (build_type1a([[2.0, 0.5, 0.0], [0.5, 3.0, 0.2], [0.0, 0.2, 1.0]],
                      [(HALF, 0, -HALF), (Fraction(1, 3), HALF, 0), (0, 0, HALF)]),
         Cube((0.0, 0.0, 0.0), 1.0)),
    ], ids=["line", "cube-2d", "cube-3d"])
    def test_a_pair_averages_as_two_single_calls(self, w, region):
        # the estimate averages (W, W^-1) with one call, one term table
        winv = symbolic_inverse(w)
        both = average_symbolic((w, winv), region)
        assert both.shape == (2, w.n, w.n)
        assert both[0].tobytes() == average_symbolic(w, region).tobytes()
        assert both[1].tobytes() == average_symbolic(winv, region).tobytes()

    def test_a_tuple_of_other_orders_or_a_radial_weight_is_refused(self):
        w = separable_pair()
        scalar = build_type1a([[1.0]], [(HALF,), (0,)])
        radial = build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, 0), 2)
        cube = Cube((0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="one order"):
            average_symbolic((w, scalar), cube)
        with pytest.raises(ValueError, match="does not match"):
            average_symbolic((w, radial), cube)
        with pytest.raises(ValueError, match="does not match"):
            average_symbolic((w, build_type1(np.eye(2), ["1/2", "0"])), cube)


class TestRadialIntegral:
    def test_exact_volume_at_exponent_zero(self):
        assert cube_integral_radial(0.0, (-0.3, 0.1), (0.7, 1.1)) == \
            pytest.approx(1.0, rel=1e-15)

    def test_mean_radius_over_unit_square(self):
        val = cube_integral_radial(1.0, (0.0, 0.0), (1.0, 1.0), tol=1e-8)
        assert val == pytest.approx(MEAN_RADIUS_UNIT_SQUARE, rel=1e-7)

    def test_reciprocal_radius_over_centered_box(self):
        val = cube_integral_radial(-1.0, (-1.0, -1.0), (1.0, 1.0), tol=1e-8)
        assert val == pytest.approx(RECIP_RADIUS_BOX, rel=1e-7)

    def test_squared_radius_is_polynomial_exact(self):
        val = cube_integral_radial(2.0, (-1.0, -1.0), (1.0, 1.0), tol=1e-9)
        assert val == pytest.approx(8.0 / 3.0, rel=1e-9)
        val3 = cube_integral_radial(2.0, (-1.0,) * 3, (1.0,) * 3, tol=1e-9)
        assert val3 == pytest.approx(8.0, rel=1e-9)

    @pytest.mark.parametrize("gamma,lam", [(-1.5, 0.5), (-1.0, 2.0),
                                           (0.5, 3.0), (2.0, 0.25)])
    def test_dilation_scaling(self, gamma, lam):
        lo, hi = (-0.5, -1.0), (1.5, 0.75)
        base = cube_integral_radial(gamma, lo, hi, tol=1e-8)
        scaled = cube_integral_radial(gamma, tuple(lam * v for v in lo),
                                      tuple(lam * v for v in hi), tol=1e-8)
        assert scaled == pytest.approx(lam ** (gamma + 2.0) * base, rel=1e-6)

    def test_three_dimensional_dilation(self):
        lo, hi = (-0.25, 0.0, -1.0), (1.0, 0.5, 0.5)
        base = cube_integral_radial(-1.0, lo, hi, tol=1e-7)
        scaled = cube_integral_radial(-1.0, tuple(2.0 * v for v in lo),
                                      tuple(2.0 * v for v in hi), tol=1e-7)
        assert scaled == pytest.approx(2.0 ** 2.0 * base, rel=1e-5)

    @pytest.mark.parametrize("gamma,lower,side,expected", RADIAL_PINS)
    def test_matches_the_cell_tree(self, gamma, lower, side, expected):
        upper = tuple(v + side for v in lower)
        val = cube_integral_radial(gamma, lower, upper, tol=1e-8)
        assert val == pytest.approx(expected, rel=1e-8)

    def test_far_box_cancellation_is_reported_not_returned(self):
        gamma, lower, side, expected = FAR_STEEP
        upper = tuple(v + side for v in lower)
        with pytest.raises(QuadratureBudgetError,
                           match=r"box \(1000\.0, 1000\.0, 1000\.0\)\.\."):
            cube_integral_radial(gamma, lower, upper, tol=1e-8)
        val = cube_integral_radial(gamma, lower, upper, tol=1e-7)
        assert val == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("d", [2, 3])
    def test_log_form_at_minus_d_off_the_origin(self, d):
        val = cube_integral_radial(-float(d), (1.0,) * d, (2.0,) * d, tol=1e-8)
        if d == 2:
            ref = dblquad(lambda y, x: 1.0 / (x * x + y * y),
                          1.0, 2.0, 1.0, 2.0, epsabs=0.0, epsrel=1e-12)[0]
        else:
            ref = tplquad(lambda z, y, x: (x * x + y * y + z * z) ** -1.5,
                          1.0, 2.0, 1.0, 2.0, 1.0, 2.0,
                          epsabs=0.0, epsrel=1e-12)[0]
        assert val == pytest.approx(ref, rel=1e-8)

    def test_origin_free_box_allows_steep_exponents(self):
        val = cube_integral_radial(-3.0, (1.0, 1.0), (2.0, 2.0), tol=1e-8)
        ref = quad(lambda x: quad(lambda y: (x * x + y * y) ** -1.5,
                                  1.0, 2.0)[0], 1.0, 2.0)[0]
        assert val == pytest.approx(ref, rel=1e-6)

    def test_nonintegrable_at_origin(self):
        with pytest.raises(ValueError, match="not integrable"):
            cube_integral_radial(-2.0, (-1.0, -1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="not integrable"):
            cube_integral_radial(-3.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_box_validation(self):
        with pytest.raises(ValueError, match="dimensions"):
            cube_integral_radial(1.0, (0.0,), (1.0,))
        with pytest.raises(ValueError, match="positive extent"):
            cube_integral_radial(1.0, (0.0, 0.0), (1.0, 0.0))

    def test_budget_exhaustion(self):
        # a tolerance below the rounding level of the face terms is out of reach
        with pytest.raises(QuadratureBudgetError,
                           match=r"box \(-1\.0, -1\.0\)\.\.\(1\.0, 1\.0\)"):
            cube_integral_radial(-1.0, (-1.0, -1.0), (1.0, 1.0), tol=1e-17)


class TestRadialStack:
    # (lower, upper, gammas) on one box: the exact volume, generic
    # exponents, the d = 3 branch at gamma = -2 with the origin inside, and
    # the log form gamma = -d on boxes that miss the origin
    BOXES = [
        ((-0.3, 0.1), (0.7, 1.1), [0.0, 0.5, -1.5, -2.0]),
        ((0.0, 0.0), (1.0, 1.0), [0.5, -1.5, 1.0]),
        ((1000.0, 1000.0), (1001.0, 1001.0), [-1.0, 0.0, 1.5]),
        ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), [-1.0, -3.0, 0.5]),
        ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), [-2.0, 0.5, 0.0]),
        ((-0.06, -0.1, -0.2), (0.94, 0.9, 0.8), [0.5, -2.5]),
    ]

    @pytest.mark.parametrize("lo, hi, gammas", BOXES)
    def test_stacked_values_hold_the_tolerance_of_each_alone(self, lo, hi, gammas):
        tol = 1e-8
        stacked = multivar._radial_integrals(gammas, lo, hi, tol)
        for gamma, value in zip(gammas, stacked):
            alone = cube_integral_radial(gamma, lo, hi, tol)
            assert value == alone if gamma == 0.0 else abs(value - alone) <= tol * abs(alone)

    def test_only_exact_volumes_run_no_tree(self, monkeypatch):
        monkeypatch.setattr(multivar, "_panel_tree", None)
        assert multivar._radial_integrals([0.0, 0.0], (0.0, 0.0), (1.0, 2.0), 1e-8) == [2.0, 2.0]

    def test_budget_scales_with_the_groups(self, monkeypatch):
        budgets = []
        tree = multivar._panel_tree

        def recording(f, cuts, tolerance, gaps, budget, where):
            budgets.append(budget)
            return tree(f, cuts, tolerance, gaps, budget, where)

        monkeypatch.setattr(multivar, "_panel_tree", recording)
        multivar._radial_integrals([0.0, 0.5, -1.5, -2.0], (-0.3, 0.1), (0.7, 1.1), 1e-8)
        assert budgets == [multivar._PANEL_BUDGET * 3]

    def test_error_numbers_the_piece_within_its_exponent(self):
        # ||x||^2000 overflows on [1, 2]^2; its pieces are numbered from 0,
        # whatever exponent stands before it
        with pytest.raises(QuadratureBudgetError, match="not finite") as err:
            multivar._radial_integrals([0.5, 2000.0], (1.0, 1.0), (2.0, 2.0), 1e-8)
        piece = re.match(r"box \(1\.0, 1\.0\)\.\.\(2\.0, 2\.0\), angular piece (\d+): ",
                         str(err.value))
        assert piece is not None and int(piece.group(1)) < 4

    def test_rounding_error_names_its_box_beside_other_exponents(self):
        gamma, lower, side, _ = FAR_STEEP
        with pytest.raises(QuadratureBudgetError,
                           match=r"^box \(1000\.0, 1000\.0, 1000\.0\)\.\..*rounding"):
            multivar._radial_integrals([0.5, gamma], lower,
                                       tuple(v + side for v in lower), 1e-8)

    @pytest.mark.parametrize("cube", [Cube((0.0, 0.0), 1.0), Cube((-0.3, -0.3), 2.0),
                                      Cube((1.5, 1.5), 0.5)])
    def test_pair_matches_each_average_alone(self, cube):
        w = build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 2)
        winv = symbolic_inverse(w)
        stacked = average_type1b((w, winv), cube, 1e-8)
        assert [a.shape for a in stacked] == [(2, 2)] * 2
        for weight, value in zip((w, winv), stacked):
            alone = average_type1b(weight, cube, 1e-8)
            assert np.allclose(value, alone, rtol=1e-8, atol=0.0)

    def test_nonintegrable_entry_names_its_weight_entry(self):
        w = build_type1b([[1.0]], (HALF,), 2)
        bad = SymbolicPowerMatrix([[1.0, 0.0], [0.0, 1.0]],
                                  (((Fraction(0), Fraction(0)), (Fraction(0), Fraction(-2))),), 2)
        with pytest.raises(NotIntegrableError) as err:
            average_type1b((w, bad), Cube((-1.0, -1.0), 2.0))
        assert str(err.value) == ("entry (1, 1): exponent -2.0 <= -2 is not "
                                  "integrable at the origin")


class TestAverageRadial:
    def test_scalar_weight_average(self):
        w = build_type1b([[3.0]], (Fraction(1),), 2)
        avg = average_type1b(w, Cube((0.0, 0.0), 1.0), tol=1e-8)
        assert avg[0, 0] == pytest.approx(3.0 * MEAN_RADIUS_UNIT_SQUARE,
                                          rel=1e-6)

    def test_shared_exponents_are_cached(self):
        w = build_type1b([[4.0, 1.0], [1.0, 2.0]], (HALF, HALF), 2)
        cube = Cube((-1.0, -1.0), 2.0)
        avg = average_type1b(w, cube, tol=1e-7)
        factor = cube_integral_radial(0.5, cube.lower, cube.upper,
                                      tol=1e-7) / cube.volume
        assert np.allclose(avg, w.coeff * factor, rtol=1e-10)

    def test_cornered_trace_is_dilation_invariant(self):
        # W(tx) = T W(x) T with T = diag(t^(g_i/2)), and the trace
        # functional is invariant under that similarity, so every cornered
        # cube gives the same value; tiny cubes need relative error control
        w = build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 2)
        winv = symbolic_inverse(w)
        values = []
        for side in np.logspace(-3.0, 3.0, 7):
            cube = Cube((0.0, 0.0), side)
            values.append(a2_functional_trace(average_type1b(w, cube),
                                              average_type1b(winv, cube)))
        for v in values:
            assert v == pytest.approx(2.1860225424733, rel=1e-9)

    def test_nonintegrable_entry_wrapped(self):
        w = SymbolicPowerMatrix([[1.0]], (((Fraction(-2),),),), 2)
        with pytest.raises(NotIntegrableError, match=r"entry \(0, 0\)"):
            average_type1b(w, Cube((-1.0, -1.0), 2.0))

    def test_an_average_past_the_float_range_raises_as_a_separable_one(self):
        # the integral of ||x||^1.9 over [1, 2]^2 is above 1, so the
        # coefficient 1.7e308 takes the (0, 0) average past the float range;
        # the separable twin raises the same text
        radial = build_type1b(np.diag([1.7e308, 1.0]), ["19/10", "0"], 2)
        separable = build_type1a(np.diag([1.7e308, 1.0]), [("9/10", "0"), ("9/10", "0")])
        cube = Cube((1.0, 1.0), 1.0)
        with pytest.raises(OverflowError) as raised:
            average_type1b(radial, cube)
        with pytest.raises(OverflowError) as twin:
            average_symbolic(separable, cube)
        assert str(raised.value) == str(twin.value) == \
            "average of entry (0, 0) overflows the float range"
        with pytest.raises(OverflowError, match=re.escape(str(twin.value))):
            average_type1b((symbolic_inverse(radial), radial), cube)


class TestInverses:
    def test_separable_inverse_is_pointwise_inverse(self):
        w = separable_pair()
        inv = symbolic_inverse(w)
        assert np.allclose(w.coeff @ inv.coeff, np.eye(2), atol=1e-12)
        for x in ((0.7, 1.3), (-0.4, 2.0)):
            wx = np.empty((2, 2), dtype=complex)
            ix = np.empty((2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    wx[i, j] = w.coeff[i, j] * math.prod(
                        abs(x[c]) ** float(w.exponents[c][i][j])
                        for c in range(2))
                    ix[i, j] = inv.coeff[i, j] * math.prod(
                        abs(x[c]) ** float(inv.exponents[c][i][j])
                        for c in range(2))
            assert np.allclose(wx @ ix, np.eye(2), atol=1e-12)

    def test_radial_inverse_is_pointwise_inverse(self):
        w = build_type1b([[4.0, 1.0], [1.0, 2.0]], (HALF, -Fraction(1, 4)), 2)
        inv = symbolic_inverse(w)
        for x in ((0.6, -0.9), (2.0, 1.0)):
            r = math.hypot(*x)
            wx = np.array([[w.coeff[i, j] * r ** float(w.exponents[0][i][j])
                            for j in range(2)] for i in range(2)])
            ix = np.array([[inv.coeff[i, j] * r ** float(inv.exponents[0][i][j])
                            for j in range(2)] for i in range(2)])
            assert np.allclose(wx @ ix, np.eye(2), atol=1e-12)

    def test_inverse_requires_midpoint(self):
        mats = (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),) * 2
        w = SymbolicPowerMatrix([[2.0, 1.0], [1.0, 2.0]], mats, 2)
        with pytest.raises(MidpointConditionError):
            symbolic_inverse(w)
        wb = SymbolicPowerMatrix([[2.0, 1.0], [1.0, 2.0]], mats[:1], 2)
        with pytest.raises(MidpointConditionError):
            symbolic_inverse(wb)

    def test_singular_coefficient_rejected(self):
        w = build_type1a([[1.0, 1.0], [1.0, 1.0]], [(0, 0), (0, 0)])
        with pytest.raises(SingularMatrixError):
            symbolic_inverse(w)


class TestLineOnly:
    @pytest.mark.parametrize("w", [
        separable_pair(), build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, 0), 2)])
    def test_line_functions_reject_cube_weights(self, w):
        for call in (lambda: symbolic_det(w), lambda: evaluate(w, 1.0),
                     lambda: a2_upper_bound(w)):
            with pytest.raises(ValueError, match="line"):
                call()

    def test_interval_average_needs_a_weight_on_the_line(self):
        with pytest.raises(ValueError, match="does not match"):
            average_symbolic(separable_pair(), Interval(0.0, 1.0))
        radial = build_type1b([[1.0]], (HALF,), 2)
        with pytest.raises(ValueError, match="does not match"):
            average_symbolic(radial, Cube((0.0, 0.0), 1.0))


class TestCubeSearch:
    def test_separable_scalar_attains_interval_constant(self):
        w = build_type1a([[1.0]], [(HALF,), (0,)])
        result = estimate_a2(w, "trace")
        assert result.estimate == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert result.argmax == Cube((0.0, 0.0), 1.0)
        assert result.functional == "trace"
        assert result.evaluations == 1  # the cornered unit cube

    def test_matrix_estimate_exceeds_identity_floor(self):
        result = estimate_a2(separable_pair(), "trace")
        assert result.estimate >= 2.0
        assert math.isfinite(result.estimate)

    def test_radial_estimate_runs(self):
        w = build_type1b([[1.0]], (HALF,), 2)
        result = estimate_a2(w, "trace")
        assert result.estimate >= 1.0
        assert result.argmax.side == 1.0

    def test_radial_wide_exponent_is_searchable(self):
        w = build_type1b([[1.0]], (Fraction(3, 2),), 2)
        result = estimate_a2(w, "trace")
        assert result.estimate >= 1.0

    def test_non_a2_weight_rejected(self):
        # the verdict and the findings' details, as estimate_a2 raises them
        with pytest.raises(NotA2Error) as exc:
            estimate_a2(build_type1a(np.eye(1), [(Fraction(3, 2),), (0,)]))
        assert str(exc.value) == ("not_a2 (diagonal exponent 3/2 >= 1: the inverse "
                                  "weight is not locally integrable)")
        with pytest.raises(NotA2Error) as exc:
            estimate_a2(build_type1b([[1.0]], (Fraction(2),), 2))
        assert str(exc.value) == ("not_a2 (diagonal exponent 2 >= 2: the inverse "
                                  "weight is not locally integrable)")

    @pytest.mark.parametrize("w", [
        build_type1a([[1.0, 2.0], [2.0, 1.0]], [(HALF, -HALF), (0, 0)]),
        build_type1a([[1.0, 1.0], [1.0, 1.0]], [(HALF, -HALF), (0, 0)]),
        SymbolicPowerMatrix([[2.0, 1.0], [1.0, 2.0]],
                            (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),), 2),
        build_type1b(np.eye(2), (Fraction(-2), 0), 2),
    ], ids=["indefinite", "singular", "off-midpoint", "not-integrable"])
    def test_non_a2_weight_raises_its_decision(self, w):
        report = check_a2(w)
        with pytest.raises(NotA2Error) as exc:
            estimate_a2(w)
        assert str(exc.value) == report.verdict + " (" + "; ".join(
            f.detail for f in report.findings) + ")"

    def test_unknown_functional_and_type(self):
        with pytest.raises(ValueError, match="unknown functional"):
            estimate_a2(separable_pair(), "det")
        with pytest.raises(TypeError):
            estimate_a2(np.eye(2))

    def test_deterministic(self):
        w = build_type1a([[1.0]], [(HALF,), (-Fraction(1, 3),)])
        r1 = estimate_a2(w, "norm")
        r2 = estimate_a2(w, "norm")
        assert r1.estimate == r2.estimate
        assert r1.argmax == r2.argmax
        assert r1.evaluations == r2.evaluations

    @pytest.mark.parametrize("w", [separable_pair(), build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 2)],
                             ids=["type1a", "type1b"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_estimate_is_the_cornered_cube_alone(self, monkeypatch, w, functional):
        # one functional call, on the equilibrated weight, whose value is
        # that of the cornered unit cube's averages
        calls = []
        func = estimator._FUNCTIONALS[functional]

        def recording(avg_w, avg_winv):
            calls.append(func(avg_w, avg_winv))
            return calls[-1]

        monkeypatch.setitem(estimator._FUNCTIONALS, functional, recording)
        result = estimate_a2(w, functional)
        w = w.equilibrated
        average = average_symbolic if w.separable else average_type1b
        cube = Cube((0.0, 0.0), 1.0)
        assert len(calls) == 1
        assert result.estimate == func(average(w, cube), average(symbolic_inverse(w), cube))

    @pytest.mark.parametrize("coeff", [[[1.7e308, 0.0], [0.0, 1.7e308]],
                                       [[5e-324, 0.0], [0.0, 1.0]]],
                             ids=["float-limit", "subnormal"])
    @pytest.mark.parametrize("build", [
        lambda a: build_type1a(a, [(HALF, -HALF), (Fraction(-1, 3), 0)]),
        lambda a: build_type1b(a, (HALF, -HALF), 2),
    ], ids=["type1a", "type1b"])
    def test_float_end_coefficients_run_as_equilibrated(self, coeff, build):
        # the averages of the first and the inverse of the second leave
        # the float range; on S A S both run, with the identity's values
        for functional in ("trace", "norm"):
            got = estimate_a2(build(coeff), functional)
            want = estimate_a2(build(np.eye(2)), functional)
            assert got.estimate == pytest.approx(want.estimate, rel=1e-14, abs=0.0)
            assert got.argmax == want.argmax

    def test_failure_is_raised_on_the_cornered_cube(self, monkeypatch):
        # a failure of the one radial average carries the cube it ran on
        w = build_type1b([[1.0]], (HALF,), 2)
        cubes = []

        def planted(weights, cube):
            cubes.append(cube)
            raise NotIntegrableError("planted")

        monkeypatch.setattr(multivar, "average_type1b", planted)
        with pytest.raises(NotIntegrableError, match="planted") as err:
            estimate_a2(w, "trace")
        assert cubes == [err.value.region] == [Cube((0.0, 0.0), 1.0)]

    @pytest.mark.parametrize("w", [
        build_type1b([[1.0]], (HALF,), 2),
        build_type1b([[2.0, 1.0], [1.0, 2.0]], (Fraction(-1, 3), HALF), 2),
        build_type1b([[1.0]], (Fraction(-3, 2),), 3),
        build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 3),
    ], ids=["n1-d2", "n2-d2", "n1-d3", "n2-d3"])
    def test_radial_cube_runs_one_panel_tree(self, monkeypatch, w):
        # every radial integral of W and W^-1 on the cube is a row group
        # of one tree
        trees = []
        tree = multivar._panel_tree

        def counting(*args):
            trees.append(args)
            return tree(*args)

        monkeypatch.setattr(multivar, "_panel_tree", counting)
        estimate_a2(w, "trace")
        assert len(trees) == 1
