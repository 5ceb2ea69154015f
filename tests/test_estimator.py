"""Averages, A2 functionals, and the supremum estimator."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from a2w.estimator import (NonPositiveInputError, a2_functional_norm,
                           a2_functional_trace, average_numeric, average_symbolic,
                           estimate_a2)
from a2w.quadrature import PointwiseMatrixFunction, QuadratureBudgetError
from a2w.scalar_power import (NotA2Error, average_abs_pow,
                              scalar_closed_form_constant)
from a2w.type1 import (SymbolicPowerMatrix, a2_upper_bound, build_type1,
                       build_type1_raw, check_a2, symbolic_inverse)
from a2w import estimator, linalg, multivar, quadrature, search, type2
from a2w.scalar_power import integral_abs_pow_stack
from a2w.regions import Interval
from a2w.search import (SupSearchConfig, coarse_interval_config, fine_interval_config,
                        golden_max, interval_grid, run_interval_search)
from a2w.type2 import (Type2Weight, as_pointwise, inverse_weight,
                       pair_pointwise)
from a2w.verify import random_interval, random_type1_weight
from test_homogeneity import shape_scores

TWO_BY_TWO = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1/2", "-2/3"])


def _as_pointwise(w) -> PointwiseMatrixFunction:
    eff = w.coeff
    floats = np.array([[float(e) for e in row] for row in w.exponents[0]])

    def values(xs):
        ax = np.abs(np.asarray(xs, dtype=float))
        return eff[:, :, None] * ax[None, None, :] ** floats[:, :, None]

    return PointwiseMatrixFunction(
        n=w.n, values=values, exponents=(tuple(e for row in w.exponents[0] for e in row),))


class TestAverages:
    def test_symbolic_average_entrywise(self):
        iv = Interval(0.0, 2.0)
        got = average_symbolic(TWO_BY_TWO, iv)
        for i in range(2):
            for j in range(2):
                want = TWO_BY_TWO.coeff[i, j] * average_abs_pow(
                    TWO_BY_TWO.exponents[0][i][j], iv)
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


# Anchored, symmetric, origin-free, and the divergence window I_n.
ORACLE_INTERVALS = (Interval(0.0, 2.5), Interval(-1.5, 1.5), Interval(3.0, 7.0),
                    Interval(2.0 * math.pi * 7, 2.0 * math.pi * 7 + math.pi))


def _power_trig_integral(g: float, trig, lo: float, hi: float) -> float:
    """Reference for the integral of |x|^g trig(x) over [lo, hi], lo >= 0."""
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    if lo == 0.0:
        val, _ = scipy.integrate.quad(trig, 0.0, hi, weight="alg",
                                      wvar=(g, 0.0), **opts)
    else:
        val, _ = scipy.integrate.quad(lambda x: x ** g * trig(x), lo, hi, **opts)
    return val


def _signed_integral(g: float, trig, iv: Interval) -> float:
    """Integral of |x|^g trig(x) over iv, reflecting its negative part."""
    total = 0.0
    if iv.a < 0.0:
        total += _power_trig_integral(g, lambda u: trig(-u), max(0.0, -iv.b), -iv.a)
    if iv.b > 0.0:
        total += _power_trig_integral(g, trig, max(0.0, iv.a), iv.b)
    return total


def _assert_matrix_close(got: np.ndarray, want: np.ndarray):
    assert np.array_equal(got, got.conj().T)
    scale = float(np.max(np.abs(np.diagonal(want))))
    assert np.max(np.abs(got - want)) <= 1e-8 * scale


class TestMatrixRouteOracles:
    """average_numeric against closed forms and tight references."""

    @pytest.mark.parametrize("iv", ORACLE_INTERVALS)
    def test_identity_family_is_diagonal_closed_form(self, iv):
        gammas = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))
        w = Type2Weight((2.0, 0.5, 3.0), gammas, "identity")
        for pmf, data in ((as_pointwise(w), zip(w.alphas, gammas)),
                          (as_pointwise(inverse_weight(w)),
                           ((1.0 / a, -g) for a, g in zip(w.alphas, gammas)))):
            want = np.diag([a * average_abs_pow(g, iv) for a, g in data])
            _assert_matrix_close(average_numeric(pmf, iv, tol=1e-10), want)

    @pytest.mark.parametrize("unitary,n", [("rotation2d", 2), ("rotation3d_euler", 3)])
    @pytest.mark.parametrize("iv", ORACLE_INTERVALS)
    def test_equal_exponent_rotation_is_scalar(self, unitary, n, iv):
        g = Fraction(-1, 4)
        w = Type2Weight((1.5,) * n, (g,) * n, unitary)
        want = 1.5 * average_abs_pow(g, iv) * np.eye(n)
        _assert_matrix_close(average_numeric(as_pointwise(w), iv, tol=1e-10), want)

    @pytest.mark.parametrize("iv", ORACLE_INTERVALS)
    def test_unequal_exponent_rotation_matches_scipy(self, iv):
        (a1, a2), (g1, g2) = (2.0, 1.0), (0.5, -1.0 / 3.0)
        w = Type2Weight((a1, a2), (Fraction(1, 2), Fraction(-1, 3)), "rotation2d")
        cc = lambda x: math.cos(x) ** 2
        ss = lambda x: math.sin(x) ** 2
        cs = lambda x: math.cos(x) * math.sin(x)
        # W = U diag(a1 |x|^g1, a2 |x|^g2) U^T with U the planar rotation
        w00 = a1 * _signed_integral(g1, cc, iv) + a2 * _signed_integral(g2, ss, iv)
        w11 = a1 * _signed_integral(g1, ss, iv) + a2 * _signed_integral(g2, cc, iv)
        w01 = a1 * _signed_integral(g1, cs, iv) - a2 * _signed_integral(g2, cs, iv)
        want = np.array([[w00, w01], [w01, w11]]) / iv.length
        _assert_matrix_close(average_numeric(as_pointwise(w), iv, tol=1e-10), want)

    def test_budget_failure_names_the_worst_entry(self, monkeypatch):
        def values(xs):
            out = np.zeros((2, 2, xs.size))
            out[0, 0], out[1, 1] = 1.0, 2.0
            out[0, 1] = out[1, 0] = np.cos(40.0 * xs)
            return out

        pmf = PointwiseMatrixFunction(n=2, values=values)
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 5)
        with pytest.raises(QuadratureBudgetError,
                           match=r"entry \(0, 1\) error sum .* tolerance"):
            average_numeric(pmf, Interval(1.0, 5.0), tol=1e-10)


class TestPairRoute:
    """W and W^-1 from one panel tree: type2.pair_pointwise."""

    @pytest.mark.parametrize("w", [
        Type2Weight((2.0, 1.0), (Fraction(1, 2), Fraction(-1, 3)), "rotation2d"),
        Type2Weight((1.0, 3.0, 0.5), (Fraction(1, 4), 0, Fraction(-1, 2)),
                    "rotation3d_euler"),
        Type2Weight((2.0, 0.5), (Fraction(1, 5), 0), "identity"),
    ], ids=["rotation2d", "rotation3d", "identity"])
    @pytest.mark.parametrize("iv", ORACLE_INTERVALS)
    def test_pair_matches_the_one_matrix_routes(self, w, iv):
        got = average_numeric(pair_pointwise(w), iv, tol=1e-10)
        assert got.shape == (2, w.n, w.n)
        _assert_matrix_close(got[0], average_numeric(as_pointwise(w), iv, tol=1e-12))
        _assert_matrix_close(got[1], average_numeric(as_pointwise(inverse_weight(w)),
                                                     iv, tol=1e-12))

    def test_one_matrix_power_model_covers_every_exponent(self):
        # |x|^(1/5) beside |x|^0: the origin panel's error must come from the
        # worst exponent, not from min(gammas) = 0, where Gauss is exact.
        w = Type2Weight((1.0, 1.0), ("1/5", "0"), "identity")
        got = average_numeric(as_pointwise(w), Interval(0.0, 1.0), 1e-6)[0, 0]
        assert got.real == pytest.approx(1.0 / 1.2, rel=2e-6)

    def test_off_diagonals_anchor_to_their_own_matrix(self):
        # A huge first matrix must not loosen the second one's off-diagonal.
        def values(xs):
            out = np.zeros((2, 2, 2, xs.size))
            out[0, 0, 0] = out[0, 1, 1] = 1e8
            out[1, 0, 0] = out[1, 1, 1] = 1.0
            out[1, 0, 1] = out[1, 1, 0] = np.cos(7.0 * xs)
            return out

        pmf = PointwiseMatrixFunction(n=2, values=values, exponents=((0,), (0,)))
        got = average_numeric(pmf, Interval(1.0, 5.0), tol=1e-10)
        want = (math.sin(35.0) - math.sin(7.0)) / 7.0 / 4.0
        assert got[1, 0, 1].real == pytest.approx(want, rel=1e-8)
        assert got[0, 0, 0].real == pytest.approx(1e8, rel=1e-12)

    def test_budget_failure_names_the_matrix(self, monkeypatch):
        def values(xs):
            out = np.zeros((2, 2, 2, xs.size))
            out[:, 0, 0], out[:, 1, 1] = 1.0, 2.0
            out[1, 0, 1] = out[1, 1, 0] = np.cos(40.0 * xs)
            return out

        pmf = PointwiseMatrixFunction(n=2, values=values, exponents=((0,), (0,)))
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 5)
        with pytest.raises(QuadratureBudgetError,
                           match=r"matrix 1 entry \(0, 1\) error sum"):
            average_numeric(pmf, Interval(1.0, 5.0), tol=1e-10)

    @pytest.mark.parametrize("w", [
        Type2Weight((3.0, 9.0), (Fraction(1, 4),) * 2, "rotation2d"),
        Type2Weight((3.0,) * 3, (Fraction(-1, 4),) * 3, "rotation3d_euler"),
        Type2Weight((1.0, 2.0), ("1/2", "-1/3"), "identity"),
    ], ids=["rotation2d", "rotation3d", "identity"])
    @pytest.mark.parametrize("center, halflength", [(0.0, 1.0), (2.0, 2.0), (10.0, 1.0)],
                             ids=["symmetric", "anchored", "origin-free"])
    def test_one_evaluation_evaluates_each_node_set_once(self, monkeypatch, w,
                                                        center, halflength):
        seen = []
        stack = type2.unitary_stack

        def spy(family, n, xs):
            seen.append(np.asarray(xs).tobytes())
            return stack(family, n, xs)

        monkeypatch.setattr(type2, "unitary_stack", spy)
        config = SupSearchConfig(centers=(center,), halflengths=(halflength,),
                                 refine_rounds=0)
        assert estimate_a2(w, "trace", config).evaluations == 1
        if w.unitary == "identity":
            # closed-form averages: no node set is evaluated at all
            assert seen == []
        else:
            assert seen
            assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_identity_runs_no_quadrature(self, monkeypatch, functional):
        # An identity weight is its diagonal power matrix: closed-form
        # averages, so no node set is ever evaluated.
        seen = []
        stack = type2.unitary_stack

        def spy(family, n, xs):
            seen.append(family)
            return stack(family, n, xs)

        monkeypatch.setattr(type2, "unitary_stack", spy)
        w = Type2Weight((1.0, 2.0), ("1/2", "-1/3"), "identity")
        result = estimate_a2(w, functional)
        assert result == estimate_a2(type2.as_type1(w), functional)
        assert seen == []


ROTATION_39 = Type2Weight((3.0, 9.0), ("1/4", "1/4"), "rotation2d")


ROTATION_WEIGHTS = [
    ROTATION_39,
    Type2Weight((3.0, 9.0), ("9/10", "9/10"), "rotation2d"),
    Type2Weight((3.0, 9.0), ("-9/10", "-9/10"), "rotation2d"),
    Type2Weight((1.0, 3.0, 0.5), ("-1/3",) * 3, "rotation3d_euler"),
]


def _recorded_averages(monkeypatch, w, intervals):
    """(<W>, <W^-1>) as the rotation search computes them on each interval,
    with the trace functional's value. The whole coarse grid is warmed as
    one stack, as the search warms it; an interval off the grid is a stack
    of one. The trace functional records every stack it is passed."""
    stacks = []
    trace = estimator.a2_functional_trace

    def recording(avg_w, avg_winv):
        stacks.append(np.stack([avg_w, avg_winv], axis=1))
        return trace(avg_w, avg_winv)

    monkeypatch.setitem(estimator._FUNCTIONALS, "trace", recording)
    grid = interval_grid(coarse_interval_config())
    evaluate, warm = estimator._type2_eval_fn(w, "trace")
    warm(grid)
    values = [evaluate(iv) for iv in intervals]
    scan, *alone = stacks
    assert len(scan) == len(grid) and all(len(s) == 1 for s in alone)
    on_grid = dict(zip(grid, scan))
    alone = iter(alone)
    for iv, value in zip(intervals, values):
        yield iv, on_grid[iv] if iv in on_grid else next(alone)[0], value


def _assert_close_to_the_oracle(got, want, iv, tol):
    # a diagonal entry within tol of its own mass, an off-diagonal entry
    # within tol of its matrix's trace mass plus its own
    err = np.abs(got - want)
    off = ~np.eye(want.shape[-1], dtype=bool)
    for e, m in zip(err, want):
        diag = np.abs(m.diagonal())
        assert np.all(e.diagonal() <= tol * diag), iv
        assert np.all(e[off] <= tol * (diag.sum() + np.abs(m[off]))), iv


class TestRotationMoments:
    """Rotation averages in closed form: Fourier-power moments, and one
    Gauss-Legendre rule on short intervals far from 0."""

    @pytest.mark.parametrize("w, nodes", [
        (ROTATION_39, 1816),
        (Type2Weight((3.0, 3.0, 3.0), ("1/4",) * 3, "rotation3d_euler"), 1536),
    ], ids=["rotation2d", "rotation3d"])
    def test_unitary_nodes(self, monkeypatch, w, nodes):
        # Counters, not clocks: 16 nodes for the Fourier coefficients, one
        # call of 20 nodes per grid interval that takes the Gauss rule,
        # then 20 per refinement interval that takes it.
        seen = []
        stack = type2.unitary_stack

        def spy(family, n, xs):
            seen.append(np.size(xs))
            return stack(family, n, xs)

        monkeypatch.setattr(type2, "unitary_stack", spy)
        degree = {"rotation2d": 2, "rotation3d_euler": 6}[w.unitary]
        gauss = sum(degree * iv.length <= 1.0
                    and iv.near_endpoint_distance() >= 2.0 * iv.length
                    for iv in interval_grid(coarse_interval_config()))
        assert estimate_a2(w).evaluations == 205
        assert sum(seen) == nodes
        assert seen[:2] == [16, 20 * gauss]
        assert set(seen[2:]) <= {20}

    @pytest.mark.parametrize("w", ROTATION_WEIGHTS + [
        Type2Weight((3.0, 9.0), ("0", "0"), "rotation2d"),
    ], ids=["g=1/4", "g=9/10", "g=-9/10", "rotation3d", "g=0"])
    def test_grid_averages_match_a_tight_panel_tree(self, monkeypatch, w):
        # the search averages the equilibrated weight
        grid = interval_grid(coarse_interval_config())
        pair = pair_pointwise(w.equilibrated)
        for iv, got, _ in _recorded_averages(monkeypatch, w, grid):
            _assert_close_to_the_oracle(got, average_numeric(pair, iv, 1e-12), iv, 1e-10)

    @pytest.mark.parametrize("w", ROTATION_WEIGHTS,
                             ids=["g=1/4", "g=9/10", "g=-9/10", "rotation3d"])
    def test_far_short_intervals_keep_the_floor(self, monkeypatch, w):
        # There a difference of moments would lose the phase of e^(imx) to
        # the rounding of x; the Gauss rule keeps the averages and the floor.
        far = [Interval(1e6 - 1e-6, 1e6 + 1e-6), Interval(1e3, 1e3 + 1e-3)]
        pair = pair_pointwise(w.equilibrated)
        for iv, got, value in _recorded_averages(monkeypatch, w, far):
            assert value >= w.n
            _assert_close_to_the_oracle(got, average_numeric(pair, iv, 1e-12), iv, 1e-10)

    @pytest.mark.parametrize("w", [
        ROTATION_39,
        Type2Weight((1.0, 2.0), ("1/2", "1/2"), "rotation2d"),
    ], ids=["alphas-3-9", "alphas-1-2"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_estimate_at_the_argmax_matches_a_tight_evaluation(self, w, functional):
        # The argmax comes from golden refinement, whose endpoints are off
        # the grid.
        result = estimate_a2(w, functional)
        tight = estimator._FUNCTIONALS[functional](
            *average_numeric(pair_pointwise(w), result.argmax, 1e-12))
        assert result.estimate == pytest.approx(tight, rel=1e-8)


def _euler_rotation(x):
    """rotation3d_euler's U(x), written out: the product of the three axis
    rotations at angle x."""
    c, s = math.cos(x), math.sin(x)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    ry = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    rz = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return rx @ ry @ rz


def _rotation_limit(w, functional):
    """The functional's limit on [0, L] as L -> infinity, F(c_0, c_0')/(1 - g^2),
    with c_0 and c_0' the means of U D U* and U D^-1 U* over a period.

    For rotation2d both means are multiples of I, so the trace is
    (a_1 + a_2)(1/a_1 + 1/a_2) / (2(1 - g^2)) and the norm half of it. For
    rotation3d_euler, U D U* has degree 6, so its mean over 16 equispaced
    points of a period is exact."""
    g = float(w.gammas[0])
    if w.unitary == "rotation2d":
        (a1, a2), scale = w.alphas, 2.0 if functional == "trace" else 4.0
        return (a1 + a2) * (1.0 / a1 + 1.0 / a2) / (scale * (1.0 - g * g))
    us = [_euler_rotation(2.0 * math.pi * k / 16) for k in range(16)]
    c0, c0_inv = (sum(u @ np.diag(d) @ u.T for u in us) / 16
                  for d in (np.array(w.alphas), 1.0 / np.array(w.alphas)))
    product = c0 @ c0_inv
    top = np.trace(product) if functional == "trace" else np.linalg.eigvals(product).real.max()
    return top / (1.0 - g * g)


class TestRotationLimits:
    """A rotation with one exponent on [0, L]: as L grows, its averages
    tend to L^g c_0 / (1 + g) and L^-g c_0' / (1 - g), so the functional
    tends to a target that shares no code with the closed-form route."""

    @pytest.mark.parametrize("w, functional, cap", [
        (ROTATION_39, "trace", 1e-6),
        (ROTATION_39, "norm", 1e-4),
        (Type2Weight((1.0, 4.0), ("-1/2", "-1/2"), "rotation2d"), "trace", 1e-6),
        (Type2Weight((1.0, 4.0), ("-1/2", "-1/2"), "rotation2d"), "norm", 1e-4),
        (Type2Weight((1.0, 2.0, 5.0), ("1/3",) * 3, "rotation3d_euler"), "trace", 1e-6),
        (Type2Weight((1.0, 2.0, 5.0), ("1/3",) * 3, "rotation3d_euler"), "norm", 1e-4),
    ], ids=["rotation2d-trace", "rotation2d-norm", "negative-g-trace", "negative-g-norm",
            "rotation3d-trace", "rotation3d-norm"])
    def test_long_anchored_intervals_tend_to_the_limit(self, w, functional, cap):
        target = _rotation_limit(w, functional)
        evaluate, _ = estimator._type2_eval_fn(w, functional)
        errors = [abs(evaluate(Interval(0.0, 10.0 ** k)) - target) / target
                  for k in range(2, 9)]
        # each decade of L shrinks the error, until it reaches rounding
        assert all(b < a or b < 1e-13 for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= cap, errors


def _eval_fn(w, functional, config):
    """A rotation's evaluate function, its table warmed with config's grid
    as the search warms it."""
    evaluate, warm = estimator._type2_eval_fn(w, functional)
    warm(interval_grid(config))
    return evaluate


def _grid_cells(config):
    """(config of that one interval, interval) for each grid interval."""
    for c in config.centers:
        for h in config.halflengths:
            one = replace(config, centers=(c,), halflengths=(h,))
            for iv in interval_grid(one):
                yield one, iv


# rotations whose incumbents refine: README's rotation2d (1, 2) and
# rotation3d_euler (1, 3, 0.5), ROTATION_39, and ORIGIN_FREE, which
# refines the scale and then the offset of an origin-free interval
ORIGIN_FREE = Type2Weight((1.0, 10.0, 1.0), ("1/10",) * 3, "rotation3d_euler")
REFINED_ROTATIONS = [
    ROTATION_39,
    Type2Weight((1.0, 2.0), ("1/2", "1/2"), "rotation2d"),
    Type2Weight((1.0, 3.0, 0.5), ("-1/3",) * 3, "rotation3d_euler"),
    ORIGIN_FREE,
]


def _gauss(w, iv):
    """Whether a rotation's interval takes the Gauss rule (_type2_eval_fn)."""
    degree = {"rotation2d": 2, "rotation3d_euler": 6}[w.unitary]
    return degree * iv.length <= 1.0 and iv.near_endpoint_distance() >= 2.0 * iv.length


class _SearchLog:
    """estimate_a2(w, functional, config), recording the (interval, value)
    of each evaluation (visits), the interval lists warm receives
    (batches) with the number of visits before each (warmed_after), the
    size of each stack the functional scores (stacks) and (rounds, warm
    calls) per golden_max call (phases). warm=False warms the grid as one
    stack and runs the search without its warm entry point, so golden_max
    scores each refinement interval as a stack of one."""

    def __init__(self, w, functional, config=None, warm=True):
        use_warm = warm  # searched's own warm is the estimator's
        self.visits, self.batches, self.stacks, self.phases = [], [], [], []
        self.warmed_after = []
        func = estimator._FUNCTIONALS[functional]

        def scored(avg_w, avg_winv):
            self.stacks.append(len(avg_w))
            return func(avg_w, avg_winv)

        def searched(evaluate, config, *, warm, **kwargs):
            def visit(iv):
                value = evaluate(iv)
                self.visits.append((iv, value))
                return value

            def warmed(ivs):
                self.batches.append(ivs)
                self.warmed_after.append(len(self.visits))
                warm(ivs)

            if not use_warm:
                warm(interval_grid(config))
            return run_interval_search(visit, config, warm=warmed if use_warm else None,
                                       **kwargs)

        def golden(f, lo, hi, rounds, warm=None):
            calls = []

            def counted(points):
                calls.append(len(points))
                warm(points)

            try:
                return golden_max(f, lo, hi, rounds, warm=counted if warm else None)
            finally:
                self.phases.append((rounds, len(calls)))

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(estimator._FUNCTIONALS, functional, scored)
            patch.setattr(estimator, "run_interval_search", searched)
            patch.setattr(search, "golden_max", golden)
            self.result = estimate_a2(w, functional, config)


class TestStackedGrid:
    """A rotation's search warms its whole grid as one stack before its
    scan, and a power matrix's shapes [t, 1] score as one stack (the
    shape scans of test_homogeneity); every value must be the value of
    its interval scored alone."""

    @pytest.mark.parametrize("w,grid", [
        (TWO_BY_TWO, None),
        (build_type1(np.array([[4.0, 1 + 2j, 0.5], [1 - 2j, 3.0, 0.0], [0.5, 0.0, 2.0]]),
                     ["1/2", "-1/3", "3/4"]), None),
        (ROTATION_39, "coarse"),
        (Type2Weight((1.0, 3.0, 0.5), ("-1/3",) * 3, "rotation3d_euler"), "coarse"),
        # README's rotation on the fine grid: where numpy takes |x|^(1/2)
        # by sqrt in some node layouts and by pow in others, 63 (trace)
        # and 83 (norm) of the 2,499 values are 1 ulp from the value alone
        (REFINED_ROTATIONS[1], "fine"),
    ], ids=["type1-2x2", "type1-3x3", "rotation2d", "rotation3d", "rotation2d-1-2-fine"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_grid_values_equal_values_alone(self, w, grid, functional):
        if isinstance(w, SymbolicPowerMatrix):
            # the symmetric and anchored shapes, and origin-free ones from
            # 1e-9 to 1 - 1e-9
            ts = np.concatenate([[-1.0, 0.0], np.logspace(-9.0, -0.01, 60),
                                 1.0 - np.logspace(-1.0, -9.0, 20)])
            score = shape_scores(w, functional)
            func = estimator._FUNCTIONALS[functional]
            pair = estimator._closed_form_pair(w)
            for t, value in zip(ts, score(ts)):
                assert value == score([t])[0], t
                # and the value of the estimate's one average call
                assert value == func(*average_symbolic(pair, Interval(t, 1.0))), t
            return
        config = {"coarse": coarse_interval_config(), "fine": fine_interval_config()}[grid]
        evaluate = _eval_fn(w, functional, config)
        for one, iv in _grid_cells(config):
            assert evaluate(iv) == _eval_fn(w, functional, one)(iv), iv
        # the Gauss-rule intervals are on the grid too
        assert any(_gauss(w, iv) for iv in interval_grid(config))

    @pytest.mark.parametrize("w", REFINED_ROTATIONS, ids=["rotation2d-3-9", "rotation2d-1-2",
                                                          "rotation3d", "rotation3d-offset"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    @pytest.mark.parametrize("grid", ["coarse", "fine"])
    def test_lookahead_stacks_change_no_visit_or_value(self, w, functional, grid):
        # The refinement's lookahead stacks only fill the table: the search
        # sees the same intervals and values, bit for bit, as one whose
        # golden_max gets no warm, which scores each refinement interval
        # as a stack of one. The search warms its whole grid first, before
        # it evaluates anything.
        config = {"coarse": None, "fine": fine_interval_config()}[grid]
        warmed = _SearchLog(w, functional, config, warm=True)
        cold = _SearchLog(w, functional, config, warm=False)
        n_grid = len(interval_grid(cold.result.config))
        assert cold.phases  # it refines: 2 starting points and one per round
        assert cold.result.evaluations == n_grid + sum(rounds + 2 for rounds, _ in cold.phases)
        assert [(iv.a.hex(), iv.b.hex(), v.hex()) for iv, v in warmed.visits] == \
            [(iv.a.hex(), iv.b.hex(), v.hex()) for iv, v in cold.visits]
        assert warmed.result == cold.result
        assert warmed.result.estimate.hex() == cold.result.estimate.hex()
        assert cold.stacks == [n_grid] + [1] * (cold.result.evaluations - n_grid)
        assert cold.phases == [(rounds, 0) for rounds, _ in cold.phases]
        assert warmed.batches[0] == interval_grid(warmed.result.config)
        assert warmed.warmed_after[0] == 0
        assert warmed.stacks[0] == n_grid and 1 not in warmed.stacks
        assert warmed.phases == [(rounds, math.ceil(rounds / search._LOOKAHEAD))
                                 for rounds, _ in cold.phases]

    def test_an_origin_free_incumbent_refines_its_scale_then_its_offset(self):
        # two golden phases of the coarse grid's 8 rounds, each warmed
        # twice: the scale about the incumbent's center, then the offset
        log = _SearchLog(ORIGIN_FREE, "trace")
        assert log.phases == [(8, 2), (8, 2)]
        assert log.result.argmax == Interval(-66.696425644526, -64.77634582020916)
        assert log.result.evaluations == 215
        assert log.result.estimate.hex() == "0x1.be8fe3364caa0p+2"

    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_a_failing_lookahead_stack_falls_back_to_stacks_of_one(self, monkeypatch,
                                                                   functional):
        # Both masses of one refinement interval change sign, so a stack
        # that holds it fails its check. If the search never visits it,
        # the result is the one without the failure; if it does, the search
        # raises there, with the text that interval raises alone.
        w = ROTATION_39
        clean = _SearchLog(w, functional)
        visited = {iv for iv, _ in clean.visits}
        warmed_only = next(iv for batch in clean.batches for iv in batch
                           if iv not in visited and not _gauss(w, iv))
        refined = clean.visits[-7][0]  # a refinement interval, warmed first
        assert refined not in interval_grid(clean.result.config) and not _gauss(w, refined)

        def plant(iv):
            def flipped(gammas, a, b):
                out = integral_abs_pow_stack(gammas, a, b)
                return np.where((a == iv.a) & (b == iv.b), -out, out)

            monkeypatch.setattr(estimator, "integral_abs_pow_stack", flipped)

        plant(warmed_only)
        log = _SearchLog(w, functional)
        assert log.result == clean.result and log.visits == clean.visits
        assert 1 in log.stacks  # the failed stack's visits, scored alone

        plant(refined)
        with pytest.raises(NonPositiveInputError) as alone:
            estimator._type2_eval_fn(w, functional)[0](refined)
        with pytest.raises(NonPositiveInputError) as search_error:
            estimate_a2(w, functional)
        assert search_error.value.region == refined
        assert str(search_error.value) == str(alone.value)

    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_a_failing_check_is_raised_on_its_own_interval(self, monkeypatch, functional):
        # Both averages on [0, 1], the shape a power matrix is scored at,
        # shrink to a quarter, which puts its value below its floor: the
        # estimate raises on [0, 2], with the text that shape raises alone.
        w = TWO_BY_TWO
        kernel = estimator.integral_abs_pow_stack

        def planted(gammas, a, b):
            out = kernel(gammas, a, b)
            return np.where((a == 0.0) & (b == 1.0), 0.25 * out, out)

        monkeypatch.setattr(estimator, "integral_abs_pow_stack", planted)
        with pytest.raises(NonPositiveInputError) as alone:
            shape_scores(w, functional)([0.0])
        with pytest.raises(NonPositiveInputError, match="below its floor") as scan:
            estimate_a2(w, functional)
        assert scan.value.region == Interval(0.0, 2.0)
        assert str(scan.value) == str(alone.value)

    def test_lapack_failure_is_raised_on_its_own_interval(self, monkeypatch):
        # LAPACK fails on <W> of [0, 1] (on the equilibrated weight); the
        # estimate reports it on [0, 2], as a ConvergenceError.
        w = TWO_BY_TWO
        target = linalg.as_hermitian(average_symbolic(w.equilibrated, Interval(0.0, 1.0)))
        eigh = np.linalg.eigh

        def planted(m):
            if any(np.array_equal(x, target) for x in np.reshape(m, (-1, w.n, w.n))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", planted)
        with pytest.raises(linalg.ConvergenceError, match="LAPACK eigh") as scan:
            estimate_a2(w, "norm")
        assert scan.value.region == Interval(0.0, 2.0)


class TestExactOracles:
    """An equal-alpha rotation is alpha |x|^g I, whatever the unitary: over
    anchored intervals <W><W^-1> = I / (1 - g^2), the family's maximum."""

    @pytest.mark.parametrize("unitary, n", [("rotation2d", 2), ("rotation3d_euler", 3)])
    @pytest.mark.parametrize("gamma", ["-9/10", "-1/3", "1/4", "1/2", "9/10"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_equal_alphas_reach_the_exact_constant(self, unitary, n, gamma, functional):
        w = Type2Weight((2.0,) * n, (gamma,) * n, unitary)
        g = Fraction(gamma)
        want = float((n if functional == "trace" else 1) / (1 - g * g))
        got = estimate_a2(w, functional).estimate
        assert abs(got / want - 1.0) <= 1e-8


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

    @staticmethod
    def _rotated(low: float) -> np.ndarray:
        """diag(1, low) turned by 45 degrees: positive diagonal, eigenvalue low."""
        q = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        return q @ np.diag([1.0, low]) @ q.T

    def test_norm_shares_the_psd_clamp_of_sqrt_psd(self):
        # -1e-12 times the spectral radius 1 is the floor: a matrix just
        # above it clamps in both, one just below it fails both, same text
        above, below = self._rotated(-0.5e-12), self._rotated(-3e-12)
        linalg.sqrt_psd(above)
        assert a2_functional_norm(above, np.eye(2)) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(linalg.NegativeEigenvalueError) as root:
            linalg.sqrt_psd(below)
        with pytest.raises(NonPositiveInputError) as norm:
            a2_functional_norm(below, np.eye(2))
        assert "below PSD clamp" in str(root.value)
        assert str(norm.value) == str(root.value)

    def test_norm_raises_on_the_failing_pair_of_a_stack(self):
        eye = np.eye(2)
        bad = self._rotated(-0.5)
        with pytest.raises(linalg.NegativeEigenvalueError) as root:
            linalg.sqrt_psd(bad)
        with pytest.raises(NonPositiveInputError) as norm:
            a2_functional_norm(np.array([eye, eye, eye]), np.array([eye, bad, eye]))
        assert str(norm.value) == str(root.value)

    def test_below_floor_raises(self):
        # trace of a pair that is not (average, inverse average) compatible
        with pytest.raises(NonPositiveInputError):
            a2_functional_trace(np.diag([0.5, 0.5]), np.diag([0.5, 0.5]))

    def test_floors_allow_the_rounding_of_an_ill_conditioned_pair(self):
        # cond(A) is about 4e10, so near-constant shapes read n and 1 only
        # to about 4e10 eps; these three once read 1.99999809, 1.99999619
        # and 1.99999046 for the trace, below a floor of 2 (1 - 1e-9)
        w = build_type1(np.array([[1.0, 1 - 5e-11], [1 - 5e-11, 1.0]]), ["1/2", "-1/3"])
        inv = symbolic_inverse(w)
        for r in (10 ** 8.25, 1e10, 1e12):
            iv = Interval((r - 1.0) / (r + 1.0), 1.0)
            pair = average_symbolic(w, iv), average_symbolic(inv, iv)
            assert a2_functional_trace(*pair) == pytest.approx(2.0, abs=1e-4)
            assert a2_functional_norm(*pair) == pytest.approx(1.0, abs=1e-4)
            # beyond the rounding the floors still hold
            with pytest.raises(NonPositiveInputError, match="below its floor 2"):
                a2_functional_trace(pair[0], 0.999 * pair[1])
            with pytest.raises(NonPositiveInputError, match="below its floor 1"):
                a2_functional_norm(pair[0], 0.999 * pair[1])

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(NonPositiveInputError):
            a2_functional_trace(np.diag([1.0, -1.0]), np.eye(2))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            a2_functional_trace(np.eye(2), np.eye(3))


class TestEstimateA2:
    def test_scalar_weight_reaches_closed_form(self):
        w = SymbolicPowerMatrix(np.array([[1.0]]), (((Fraction(1, 2),),),))
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
        with pytest.raises(NotA2Error) as exc_info:
            estimate_a2(w)
        assert str(exc_info.value) == (
            "not_a2 (diagonal exponent 3/2 >= 1: the inverse weight is not "
            "locally integrable)")

    def test_type2_equal_exponents_near_scalar_constant(self):
        w = Type2Weight((1.0, 1.0), ("1/2", "1/2"), "rotation2d")
        res = estimate_a2(w, functional="norm",
                          config=coarse_interval_config())
        # rotation conjugation collapses; the scalar constant 4/3 governs
        assert res.estimate <= 4.0 / 3.0 * (1.0 + 1e-6)
        assert res.estimate >= 0.95 * 4.0 / 3.0

    def test_type2_non_member_rejected(self):
        w = Type2Weight((1.0, 1.0), ("3/2", "1/2"), "rotation2d")
        with pytest.raises(NotA2Error):
            estimate_a2(w)

    def test_identity_non_member_rejected_before_conversion(self):
        # decide_a2's verdict, not an error of the closed-form route
        w = Type2Weight((1.0, -1.0), ("1/2", "1/2"), "identity")
        with pytest.raises(NotA2Error, match="not_positive_definite_ae"):
            estimate_a2(w)

    def test_type2_passing_only_the_necessary_conditions_is_rejected(self):
        # Exponents inside (-1, 1) but unequal under a rotation: not A2, so
        # the supremum is infinite and no finite estimate may be returned.
        w = Type2Weight((1.0, 1.0), ("-1/2", "1/2"), "rotation2d")
        with pytest.raises(NotA2Error, match="not_a2"):
            estimate_a2(w)

    def test_unsupported_weight_type(self):
        with pytest.raises(TypeError):
            estimate_a2(object())

    def test_estimates_deterministic(self):
        r1 = estimate_a2(TWO_BY_TWO, config=coarse_interval_config())
        r2 = estimate_a2(TWO_BY_TWO, config=coarse_interval_config())
        assert r1 == r2


# Weights that are not A2, each with the message NotA2Error carries: the
# verdict, then the findings' details. Ungated, the searches of the first
# four fail on an average or a functional instead.
NOT_A2 = [
    (build_type1(np.array([[1.0, 2.0], [2.0, 1.0]]), ["1/2", "-1/3"]),
     "not_positive_definite_ae (leading minor 2 of the coefficient matrix is -3)"),
    (build_type1(np.array([[1.0, 1.0], [1.0, 1.0]]), ["1/2", "-1/3"]),
     "not_positive_definite_ae (leading minor 2 of the coefficient matrix is 0)"),
    (build_type1_raw(np.array([[2.0, 1.0], [1.0, 2.0]]),
                     [["1/2", "1/3"], ["1/3", "-1/2"]]),
     "not_positive_definite_ae (exponent 1/3 at (0, 1) differs from midpoint 0; "
     "exponent 1/3 at (1, 0) differs from midpoint 0)"),
    (build_type1(np.eye(2), ["1", "0"]),
     "not_a2 (diagonal exponent 1 >= 1: the inverse weight is not locally integrable)"),
    (Type2Weight((1.0, 2.0), ("1/2", "1/4"), "rotation2d"),
     "not_a2 (rotation weight is A2 only when all eigenvalue exponents are equal; "
     "got (1/2, 1/4))"),
]


class TestTheA2Gate:
    @pytest.mark.parametrize("w, message", NOT_A2,
                             ids=["indefinite", "singular", "off-midpoint",
                                  "exponent-1", "rotation-unequal"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_estimate_raises_the_decision(self, w, message, functional):
        decide = type2.decide_a2 if isinstance(w, Type2Weight) else check_a2
        report = decide(w)
        assert message == report.verdict + " (" + "; ".join(
            f.detail for f in report.findings) + ")"
        with pytest.raises(NotA2Error) as exc:
            estimate_a2(w, functional)
        assert str(exc.value) == message

    @pytest.mark.parametrize("w, message", NOT_A2[:4],
                             ids=["indefinite", "singular", "off-midpoint", "exponent-1"])
    def test_upper_bound_raises_the_same_text(self, w, message):
        with pytest.raises(NotA2Error) as exc:
            a2_upper_bound(w)
        assert str(exc.value) == message

    def test_the_decision_runs_before_any_average(self, monkeypatch):
        # a weight that is not A2 never reaches the evaluate functions
        def fail(*args):
            raise AssertionError("averaged a weight that is not A2")

        monkeypatch.setattr(estimator, "_closed_form_pair", fail)
        monkeypatch.setattr(estimator, "average_symbolic", fail)
        monkeypatch.setattr(multivar, "average_type1b", fail)
        monkeypatch.setattr(estimator, "_type2_eval_fn", fail)
        for w, message in NOT_A2:
            with pytest.raises(NotA2Error, match=re.escape(message)):
                estimate_a2(w)
