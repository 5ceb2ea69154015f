"""Adaptive quadrature: power-law model at 0, graded endpoints, budgets."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from a2w import multivar, quadrature
from a2w.multivar import cube_integral_radial
from a2w.quadrature import (_PANEL_CAP, PointwiseMatrixFunction,
                            QuadratureBudgetError, adaptive_quad, matrix_quad)
from a2w.type2 import (Type2Weight, divergence_experiment, logspaced_ints,
                       pair_pointwise)


def spied(f):
    """f and the list of node counts of its calls, one entry per call."""
    seen = []

    def g(xs):
        seen.append(np.size(xs))
        return f(xs)
    return g, seen


def spied_rounds(monkeypatch):
    """The panel count of each _gl_panels call (the seeds, then one per
    round) and the node count of each integrand call, as two lists."""
    rounds, calls = [], []
    gl = quadrature._gl_panels

    def spy(f, panels):
        rounds.append(len(panels))

        def g(xs):
            calls.append(xs.size)
            return f(xs)
        return gl(g, panels)
    monkeypatch.setattr(quadrature, "_gl_panels", spy)
    return rounds, calls


class TestPurePowers:
    @pytest.mark.parametrize("p", [-0.9, -0.5, -0.3, 0.0, 0.3, 0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("b", [0.3, 1.0, 7.25])
    def test_anchored_at_zero(self, p, b):
        got = adaptive_quad(lambda x: np.abs(x) ** p, 0.0, b, 1e-10,
                            singular_exponent=p)
        want = b ** (p + 1.0) / (p + 1.0)
        assert got.real == pytest.approx(want, rel=5e-9)
        assert abs(got.imag) < 1e-12 * abs(want)

    @pytest.mark.parametrize("p", [-0.9, -0.25, 0.5])
    def test_straddling_zero_splits(self, p):
        got = adaptive_quad(lambda x: np.abs(x) ** p, -2.0, 1.0, 1e-10,
                            singular_exponent=p)
        want = (2.0 ** (p + 1.0) + 1.0) / (p + 1.0)
        assert got.real == pytest.approx(want, rel=5e-9)

    @pytest.mark.parametrize("p", [-0.5, 0.5])
    def test_negative_side_only(self, p):
        got = adaptive_quad(lambda x: np.abs(x) ** p, -3.0, 0.0, 1e-10,
                            singular_exponent=p)
        want = 3.0 ** (p + 1.0) / (p + 1.0)
        assert got.real == pytest.approx(want, rel=5e-9)

    def test_integer_exponent_leaves_the_panel_at_zero_to_split_compare(self):
        # |x|^0 gets no power model: its gap is 0 up to rounding, so the
        # model would mark the panel at 0 converged whatever cos^2 does.
        got = adaptive_quad(lambda x: np.cos(x) ** 2, 0.0, 30.0, 1e-10,
                            singular_exponent=0)
        assert got.real == pytest.approx(15.0 + math.sin(60.0) / 4.0, rel=1e-9)

    def test_nonintegrable_exponent_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: np.abs(x) ** -1.5, 0.0, 1.0, 1e-8,
                          singular_exponent=-1.5)

    def test_nonintegrable_only_matters_at_zero(self):
        got = adaptive_quad(lambda x: np.abs(x) ** -1.5, 1.0, 4.0, 1e-10,
                            singular_exponent=-1.5)
        want = 2.0 * (1.0 - 0.5)  # integral of x^-3/2 from 1 to 4
        assert got.real == pytest.approx(want, rel=1e-8)


class TestSmoothIntegrands:
    @pytest.mark.parametrize("fn,a,b", [
        (np.cos, 0.0, 2.0),
        (np.exp, -1.0, 1.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
    ])
    def test_matches_scipy(self, fn, a, b):
        want, _ = scipy.integrate.quad(fn, a, b, limit=200)
        got = adaptive_quad(fn, a, b, 1e-11)
        assert got.real == pytest.approx(want, rel=1e-9)

    def test_power_times_smooth(self):
        f = lambda x: np.abs(x) ** -0.5 * np.cos(x)
        want, _ = scipy.integrate.quad(
            lambda x: abs(x) ** -0.5 * math.cos(x), 0.0, 2.0, limit=400)
        got = adaptive_quad(f, 0.0, 2.0, 1e-9, singular_exponent=-0.5)
        assert got.real == pytest.approx(want, rel=1e-7)

    def test_oscillatory_window(self):
        a = 2.0 * math.pi * 50
        f = lambda x: np.cos(x) ** 2
        got = adaptive_quad(f, a, a + math.pi, 1e-10)
        assert got.real == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_complex_valued(self):
        f = lambda x: np.exp(1j * x)
        got = adaptive_quad(f, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(complex(math.sin(1.0), 1.0 - math.cos(1.0)),
                                    rel=1e-10)


class TestEndpointGrading:
    def test_boundary_peak_needs_grading(self):
        # reciprocal-style peak of width 1e-3 at the left endpoint
        g = lambda x: 1.0 / (1e-6 + (x - 1.0) ** 2)
        want = math.atan(1.0 / 1e-3) / 1e-3
        graded = adaptive_quad(g, 1.0, 2.0, 1e-10, endpoint_grading=24)
        assert graded.real == pytest.approx(want, rel=1e-9)

    def test_grading_does_not_change_smooth_results(self):
        got0 = adaptive_quad(np.cos, 0.0, 1.0, 1e-12)
        got1 = adaptive_quad(np.cos, 0.0, 1.0, 1e-12, endpoint_grading=10)
        assert got0.real == pytest.approx(math.sin(1.0), rel=1e-12)
        assert got1.real == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_grading_with_origin_singularity(self):
        p = -0.7
        for a, b in ((0.0, 1.0), (-1.0, 2.0)):
            got = adaptive_quad(lambda x: np.abs(x) ** p, a, b, 1e-10,
                                singular_exponent=p, endpoint_grading=12)
            want = ((-a) ** (p + 1.0) + b ** (p + 1.0)) / (p + 1.0)
            assert got.real == pytest.approx(want, rel=1e-8)


class TestBudgetAndValidation:
    def test_budget_exhaustion_raises(self, monkeypatch):
        # nowhere-smooth integrand cannot converge on a tiny budget
        rng_vals = lambda x: np.sin(1.0 / (np.abs(x) + 1e-12)) / (np.abs(x) + 1e-3)
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 8)
        with pytest.raises(QuadratureBudgetError):
            adaptive_quad(rng_vals, 0.0, 1.0, 1e-14)

    def test_overflowing_gauss_values_raise(self):
        # The power model keeps bisecting the panel at 0 for exponents this
        # close to -1, until |x|^-0.98 overflows at its Gauss nodes; before
        # that was caught the sum came back as inf.
        f = lambda x: np.abs(x) ** -0.98
        with np.errstate(over="ignore"):
            with pytest.raises(QuadratureBudgetError, match="not finite"):
                adaptive_quad(f, 0.0, 1.0, 1e-6, singular_exponent=-0.98)

    def test_overflow_is_reported_once(self):
        # The error is the one report: numpy's overflow warning, which the
        # CLI would print as a second stderr line, stays silent.
        f = lambda x: np.abs(x) ** -0.98
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureBudgetError, match="not finite"):
                adaptive_quad(f, 0.0, 1.0, 1e-6, singular_exponent=-0.98)

    def test_non_finite_seed_panel_names_its_row(self):
        pmf = PointwiseMatrixFunction(
            2, lambda xs: np.stack([[np.ones_like(xs), 0 * xs],
                                    [0 * xs, np.full_like(xs, np.inf)]]))
        with pytest.raises(QuadratureBudgetError,
                           match=r"entry \(1, 1\) Gauss values on \[1.0, 2.0\]"):
            matrix_quad(pmf, 1.0, 2.0, 1e-8)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quad(np.cos, 1.0, 1.0, 1e-8)
        with pytest.raises(ValueError):
            adaptive_quad(np.cos, 2.0, 1.0, 1e-8)

    @pytest.mark.parametrize("budget,panels", [(40, 41), (41, 41)])
    def test_rounds_stop_at_the_budget(self, monkeypatch, budget, panels):
        # one seed panel and two more per split: the count reaches the
        # budget, or budget + 1 for an even budget, and never passes it
        f, seen = spied(lambda x: 2.0 + np.sin(1e4 * x))
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", budget)
        with pytest.raises(QuadratureBudgetError, match=f"panel budget {budget} "):
            adaptive_quad(f, 1.0, 2.0, 1e-12)
        assert sum(seen) == 10 * panels

    def test_budget_error_names_pending_panels(self, monkeypatch):
        # 10 seed panels, all unknown: the first round stops at the budget
        # after three splits and leaves seven of them not yet estimated
        f, seen = spied(np.cos)
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 15)
        with pytest.raises(QuadratureBudgetError,
                           match=r"panel budget 15 exhausted: error sum .*; "
                                 r"7 panel\(s\) not yet estimated"):
            adaptive_quad(f, 1.0, 2.0, 1e-8, endpoint_grading=5)
        assert seen == [100, 60]

    def test_budget_error_names_the_worst_row(self, monkeypatch):
        # entry (0, 0) is constant and converges; entry (1, 1) oscillates
        # far too fast for 9 panels
        def values(xs):
            return np.stack([[np.ones_like(xs), 0 * xs],
                             [0 * xs, 2.0 + np.sin(1e4 * xs)]])

        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 9)
        with pytest.raises(QuadratureBudgetError,
                           match=r"panel budget 9 exhausted: entry \(1, 1\) error sum"):
            matrix_quad(PointwiseMatrixFunction(2, values), 1.0, 2.0, 1e-12)

    def test_non_finite_values_mid_round_name_the_first_panel(self):
        # the four seed panels of [1, 2] are split in one round; the
        # children of the second and the fourth are not finite, and the
        # error names the second, the first in pop order
        def bad(xs):
            hit = ((1.25 < xs) & (xs < 1.5)) | (1.75 < xs)
            return np.where(hit & (len(seen) > 1), np.inf, 1.0)

        f, seen = spied(bad)
        with pytest.raises(QuadratureBudgetError,
                           match=r"Gauss values on \[1.25, 1.5\] are not finite"):
            adaptive_quad(f, 1.0, 2.0, 1e-8, endpoint_grading=2)
        assert seen == [40, 80]

    def test_determinism(self):
        f = lambda x: np.abs(x) ** -0.4 * (1.0 + np.sin(x) ** 2)
        a = adaptive_quad(f, 0.0, 3.0, 1e-10, singular_exponent=-0.4)
        b = adaptive_quad(f, 0.0, 3.0, 1e-10, singular_exponent=-0.4)
        assert a == b

    def test_tolerance_scaling(self):
        # tighter tolerance must not be less accurate on a hard integrand
        f = lambda x: np.abs(x) ** -0.8
        want = 1.0 / 0.2
        loose = adaptive_quad(f, 0.0, 1.0, 1e-4, singular_exponent=-0.8).real
        tight = adaptive_quad(f, 0.0, 1.0, 1e-12, singular_exponent=-0.8).real
        assert abs(tight - want) <= abs(loose - want) + 1e-13
        assert tight == pytest.approx(want, rel=1e-10)


class TestOneTree:
    def test_scalar_and_matrix_integrands_share_the_tree(self):
        # one row under the same tolerance: the same panels, the same sum
        p = -0.5
        pmf = PointwiseMatrixFunction(
            n=1, values=lambda xs: (np.abs(xs) ** p)[None, None, :],
            exponents=((p,),))
        got = adaptive_quad(lambda x: np.abs(x) ** p, -2.0, 1.0, 1e-10,
                            singular_exponent=p)
        assert got.real == matrix_quad(pmf, -2.0, 1.0, 1e-10)[0, 0].real

    def test_rows_of_one_integrand_share_the_tree(self):
        # f and 1/f on one tree: the row integrals, each within its own
        # relative tolerance of the exact value
        def rows(x):
            f = 2.0 + np.cos(x)
            return np.array([f, 1.0 / f])

        got = adaptive_quad(rows, 0.0, 2.0 * math.pi, 1e-10)
        assert got.shape == (2,)
        want = [4.0 * math.pi, 2.0 * math.pi / math.sqrt(3.0)]
        assert got.real == pytest.approx(want, rel=1e-10)
        assert np.all(got.imag == 0.0)


class TestPointwiseMatrixFunction:
    def test_entries_integrate(self):
        def values(xs):
            out = np.zeros((2, 2, xs.size))
            for i in range(2):
                out[i, i] = np.abs(xs) ** 0.5 + i
            return out

        pmf = PointwiseMatrixFunction(n=2, values=values)
        assert (pmf.m, pmf.exponents) == (1, None)
        top = adaptive_quad(lambda xs: pmf.values(xs)[0, 0], 0.0, 1.0, 1e-10,
                            singular_exponent=0.5)
        assert top.real == pytest.approx(2.0 / 3.0, rel=1e-8)

    def test_a_pair_lists_the_power_model_of_each_matrix(self):
        pmf = pair_pointwise(Type2Weight((1.0, 2.0), ("1/4", "-1/3"), "identity"))
        assert pmf.m == 2
        assert pmf.exponents == ((Fraction(1, 4), Fraction(-1, 3)),
                                 (Fraction(-1, 4), Fraction(1, 3)))


class TestRoundCounts:
    """Counters, not clocks: the trees below make 532 and 74 splits, and
    a round of splits per integrand call keeps them on few calls."""

    @pytest.mark.parametrize("a,b,nodes", [(0.0, 2000.0, 10650), (-1.0, 1.0, 1500)])
    def test_rotation_pair_tree(self, a, b, nodes):
        pmf = pair_pointwise(Type2Weight((3.0, 9.0), ("1/4", "1/4"), "rotation2d"))
        values, seen = spied(pmf.values)
        matrix_quad(dataclasses.replace(pmf, values=values), a, b, 1e-6)
        assert sum(seen) == nodes
        assert len(seen) <= 40

    def test_calls_stay_under_the_panel_cap(self):
        # the larger rounds on [0, 2000] split more than _PANEL_CAP panels
        pmf = pair_pointwise(Type2Weight((3.0, 9.0), ("1/4", "1/4"), "rotation2d"))
        values, seen = spied(pmf.values)
        matrix_quad(dataclasses.replace(pmf, values=values), 0.0, 2000.0, 1e-6)
        assert max(seen) == 10 * _PANEL_CAP

    def test_results_do_not_depend_on_how_a_round_is_split_into_calls(self, monkeypatch):
        # Each of the three trees has rounds of more than 7 panels.
        def results():
            pmf = pair_pointwise(Type2Weight((3.0, 9.0), ("1/4", "1/4"), "rotation2d"))
            return (matrix_quad(pmf, 0.0, 2000.0, 1e-6),
                    cube_integral_radial(1.5, (0.01, -2.0, -0.5), (3.0, 0.2, 0.1), 1e-12),
                    divergence_experiment("0", "1/2", (100, 1000)))

        default = results()
        monkeypatch.setattr(quadrature, "_PANEL_CAP", 7)
        capped = results()
        assert np.array_equal(capped[0], default[0])
        assert capped[1:] == default[1:]

    @pytest.mark.parametrize("tree,calls,panels", [
        (lambda: divergence_experiment("0", "1/2", logspaced_ints(100, 100000, 13)), 2, 144),
        (lambda: adaptive_quad(lambda x: np.abs(x) ** -0.9, 0.0, 1.0, 1e-10,
                               singular_exponent=Fraction(-9, 10)), 387, 1423),
        (lambda: multivar._radial_integrals([0.5, -0.5], (0, 0), (1, 1), 1e-6), 2, 3),
    ], ids=["divergence-sweep", "graded-power", "radial-unit-square"])
    def test_benchmark_tree_shapes(self, monkeypatch, tree, calls, panels):
        # the trees the benchmark's ops run: a sweep's one round of 48
        # splits over 26 rows, a one-row tree graded toward 0 a split or
        # two at a time, and a radial cube's one split
        rounds, seen = spied_rounds(monkeypatch)
        tree()
        assert (len(seen), sum(rounds)) == (calls, panels)


def complex_rows(x):
    """Eight complex rows with a power singularity at 0."""
    return np.abs(x) ** -0.5 * np.exp(1j * np.arange(8)[:, None] * x)


class TestRoundArithmetic:
    """A round's split-compare runs on Python lists below _BLOCK_ROW_PAIRS
    rows x pairs and on the round's numpy block from there; the choice
    changes no bit of a result or of an error."""

    def test_block_split_errors_are_the_list_arithmetic(self):
        # the list path's expression, float by float, is the reference;
        # numpy's complex abs rounds differently from Python's in about a
        # third of these values
        rng = np.random.default_rng(7)
        a, b, c, d = rng.standard_normal((4, 5, 40))
        for vals, parents in ((a, b[:, :20]), (a + 1j * b, c[:, :20] + 1j * d[:, :20])):
            popped = [(float(j), j + 0.5, j + 1.0, val) for j, val in enumerate(parents.T.tolist())]
            children = vals.T.tolist()
            want = [[abs((lv + rv) - v) / 2.0 + 1e-300
                     for lv, rv, v in zip(children[2 * j], children[2 * j + 1], val)]
                    for j, (*_, val) in enumerate(popped)]
            assert quadrature._compare_block(vals, popped, lambda k: "").T.tolist() == want

    def test_trees_across_the_break_even_give_the_same_bits(self, monkeypatch):
        # Both trees have rounds on each side of the break-even, and list
        # rounds that split a block round's panels. Both split panels at
        # 0 under the power model; the second has complex rows. The first
        # tree's budget error must read the same too.
        pmf = pair_pointwise(Type2Weight((3.0, 9.0), ("1/4", "1/4"), "rotation2d"))
        trees = [(6, lambda: matrix_quad(pmf, 0.0, 2000.0, 1e-6)),
                 (8, lambda: adaptive_quad(complex_rows, -1.0, 20.0, 1e-10,
                                           singular_exponent=Fraction(-1, 2),
                                           endpoint_grading=8))]
        for m, tree in trees:
            with monkeypatch.context() as patch:
                rounds, _ = spied_rounds(patch)
                tree()
            sizes = [m * panels // 2 for panels in rounds[1:]]  # rows x pairs
            assert min(sizes) < quadrature._BLOCK_ROW_PAIRS <= max(sizes)

        def results():
            out = [tree().tobytes() for _, tree in trees]
            with monkeypatch.context() as patch:
                patch.setattr(quadrature, "_PANEL_BUDGET", 1000)
                with pytest.raises(QuadratureBudgetError) as info:
                    trees[0][1]()
            return out + [str(info.value)]

        default = results()
        for threshold in (0, 10**9):  # every round on the block, every round on lists
            monkeypatch.setattr(quadrature, "_BLOCK_ROW_PAIRS", threshold)
            assert results() == default

    def test_a_block_round_names_the_first_non_finite_panel(self, monkeypatch):
        # TestBudgetAndValidation's mid-round example, its one round on the block
        def bad(xs):
            hit = ((1.25 < xs) & (xs < 1.5)) | (1.75 < xs)
            return np.where(hit & (len(seen) > 1), np.inf, 1.0)

        f, seen = spied(bad)
        monkeypatch.setattr(quadrature, "_BLOCK_ROW_PAIRS", 0)
        with pytest.raises(QuadratureBudgetError,
                           match=r"^Gauss values on \[1.25, 1.5\] are not finite$"):
            adaptive_quad(f, 1.0, 2.0, 1e-8, endpoint_grading=2)
        assert seen == [40, 80]
