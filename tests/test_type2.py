"""Tests for rotation-conjugated diagonal power weights."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from a2w.estimator import estimate_a2
from a2w.quadrature import adaptive_quad
from a2w.report import (VERDICT_A2, VERDICT_NECESSARY_PASSED, VERDICT_NOT_A2,
                        VERDICT_NOT_INTEGRABLE, VERDICT_NOT_PD_AE)
from a2w.type1 import evaluate
from a2w.type2 import (DivergenceRow, Type2Weight, as_pointwise, as_type1,
                       check_necessary_a2, decide_a2, decide_rotation_a2, divergence_experiment,
                       fit_loglog_slope, fourier_coefficients,
                       fourier_power_moments, inverse_weight,
                       logspaced_ints, unitary_stack)

HALF = Fraction(1, 2)


def planar(g1, g2, a1=1.0, a2=1.0):
    return Type2Weight((a1, a2), (Fraction(g1), Fraction(g2)), "rotation2d")


def planar_by_hand(w, x):
    """A planar weight at x, written out from cos x and sin x."""
    d1, d2 = (a * abs(x) ** float(g) for a, g in zip(w.alphas, w.gammas))
    c, s = math.cos(x), math.sin(x)
    return np.array([[c * c * d1 + s * s * d2, (d1 - d2) * s * c],
                     [(d1 - d2) * s * c, s * s * d1 + c * c * d2]])


def stack_of_points(values):
    """A matrix function's values, shaped (n, n, N), as N matrices."""
    return np.moveaxis(values, -1, 0)


points = st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=20)


class TestConstruction:
    def test_accepts_rational_strings(self):
        w = Type2Weight((1.0, 2.0), ("1/2", "-1/3"), "rotation2d")
        assert w.gammas == (HALF, Fraction(-1, 3))
        assert w.alphas == (1.0, 2.0)
        assert w.n == 2 and w.is_rotation

    @pytest.mark.parametrize("alphas, want", [
        ((3.0, 9.0), (0.75, 2.25)), ((1.0, 2.0), (1.0, 2.0)),
        ((1e-320, 1e-320), None), ((1e300, 1e300), None),
        ((8.573012007848464, 1.7e308), None),
        ((5.004807362210215, 5e-324, 1.970504762186334e160), None),
    ])
    def test_equilibrated_scales_by_one_power_of_four(self, alphas, want):
        # every alpha times one 4^-k, which leaves the binary exponents of
        # the largest and the smallest summing to 0..3
        w = Type2Weight(alphas, ("1/3",) * len(alphas),
                        {2: "rotation2d", 3: "rotation3d_euler"}[len(alphas)])
        eq = w.equilibrated
        before, after = (list(map(math.frexp, x.alphas)) for x in (w, eq))
        assert [m for m, _ in before] == [m for m, _ in after]
        (shift,) = {b - a for (_, a), (_, b) in zip(before, after)}
        assert shift % 2 == 0
        assert 0 <= math.frexp(max(eq.alphas))[1] + math.frexp(min(eq.alphas))[1] <= 3
        assert (eq.gammas, eq.unitary) == (w.gammas, w.unitary)
        assert want is None or eq.alphas == want

    @pytest.mark.parametrize("alphas", [(1.7e308, 5e-324), (1.5e308, 4e-309)],
                             ids=["alpha-overflows", "inverse-overflows"])
    def test_equilibrated_needs_the_alphas_within_the_float_range(self, alphas):
        with pytest.raises(OverflowError, match="span more than the float range"):
            Type2Weight(alphas, (HALF, HALF), "rotation2d").equilibrated

    def test_identity_default(self):
        w = Type2Weight((1.0,), (HALF,))
        assert w.unitary == "identity" and not w.is_rotation

    def test_identity_is_its_diagonal_power_matrix(self):
        w = Type2Weight((2.0, 0.5, 3.0), (HALF, Fraction(-1, 3), 0))
        twin = as_type1(w)
        assert twin.exponents[0][0][1] == Fraction(1, 12)
        xs = np.array([-3.5, 0.25, 7.0])
        for x, got in zip(xs, stack_of_points(as_pointwise(w).values(xs))):
            assert np.allclose(evaluate(twin, x), got, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("unitary, n", [("rotation2d", 2),
                                            ("rotation3d_euler", 3)])
    def test_rotations_have_no_power_matrix(self, unitary, n):
        with pytest.raises(ValueError, match=unitary):
            as_type1(Type2Weight((1.0,) * n, (HALF,) * n, unitary))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="matching nonempty"):
            Type2Weight((1.0, 2.0), (HALF,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="matching nonempty"):
            Type2Weight((), ())

    def test_rejects_nonfinite_alpha(self):
        with pytest.raises(ValueError, match="finite"):
            Type2Weight((math.inf, 1.0), (HALF, HALF), "rotation2d")

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown unitary family"):
            Type2Weight((1.0,), (HALF,), "hadamard")

    def test_rotation2d_needs_order_two(self):
        with pytest.raises(ValueError, match="exactly 2"):
            Type2Weight((1.0, 1.0, 1.0), (HALF, HALF, HALF), "rotation2d")

    def test_rotation3d_needs_order_three(self):
        with pytest.raises(ValueError, match="exactly 3"):
            Type2Weight((1.0, 1.0), (HALF, HALF), "rotation3d_euler")

    def test_order_cap(self):
        with pytest.raises(ValueError, match="limited to 8"):
            Type2Weight((1.0,) * 9, (HALF,) * 9)


class TestUnitaries:
    @given(points)
    def test_rotation2d_orthogonal(self, xs):
        for u in stack_of_points(unitary_stack("rotation2d", 2, xs)):
            assert np.max(np.abs(u @ u.T - np.eye(2))) < 1e-12

    @given(points)
    def test_rotation3d_orthogonal(self, xs):
        for u in stack_of_points(unitary_stack("rotation3d_euler", 3, xs)):
            assert np.max(np.abs(u @ u.T - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_stack_matches_single_evaluations(self):
        # entries written out at points where they are known exactly
        xs = np.concatenate([[0.0, math.pi / 2, math.pi], np.linspace(-3.0, 7.0, 11)])
        stack2 = unitary_stack("rotation2d", 2, xs)
        stack3 = unitary_stack("rotation3d_euler", 3, xs)
        assert np.array_equal(stack2[:, :, 0], np.eye(2))
        assert np.array_equal(stack3[:, :, 0], np.eye(3))
        # at pi/2 each axis rotation is a signed permutation, and so is the
        # product; at pi each is diagonal with entries +-1 and the product is I
        assert np.allclose(stack3[:, :, 1], [[0, 0, -1], [0, 1, 0], [1, 0, 0]],
                           rtol=0.0, atol=1e-14)
        assert np.allclose(stack3[:, :, 2], np.eye(3), rtol=0.0, atol=1e-14)
        for k, x in enumerate(xs):
            c, s = math.cos(x), math.sin(x)
            assert np.allclose(stack2[:, :, k], [[c, -s], [s, c]], atol=1e-14)

    def test_identity_stack(self):
        xs = np.array([0.3, 1.7])
        stack = unitary_stack("identity", 4, xs)
        for k in range(2):
            assert np.array_equal(stack[:, :, k], np.eye(4))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown unitary family"):
            unitary_stack("fourier", 2, np.array([0.0]))


class TestEvaluation:
    def test_planar_entries_match_hand_formula(self):
        w = planar(HALF, -Fraction(1, 3), a1=2.0, a2=5.0)
        xs = np.array([0.37, -1.9, 4.0])
        for x, got in zip(xs, stack_of_points(as_pointwise(w).values(xs))):
            assert np.allclose(got, planar_by_hand(w, x), rtol=1e-13)

    def test_origin_fine_for_nonnegative_exponents(self):
        w = planar(0, HALF)
        val = as_pointwise(w).values(0.0)[:, :, 0]
        assert np.allclose(val, np.diag([1.0, 0.0]), atol=1e-15)

    def test_trace_is_unitarily_invariant(self, rng):
        w = Type2Weight((1.0, 2.0, 0.5),
                        (HALF, -Fraction(1, 4), Fraction(3, 4)),
                        "rotation3d_euler")
        xs = rng.uniform(0.01, 50.0, size=25)
        for x, got in zip(xs, np.trace(as_pointwise(w).values(xs))):
            expect = sum(a * abs(x) ** float(g)
                         for a, g in zip(w.alphas, w.gammas))
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))

    def test_eigenvalues_are_the_diagonal_profile(self, rng):
        w = Type2Weight((3.0, 1.0, 2.0), (HALF, 0, -HALF), "rotation3d_euler")
        xs = rng.uniform(0.05, 20.0, size=25)
        values = stack_of_points(as_pointwise(w).values(xs))
        for x, got in zip(xs, np.linalg.eigvalsh(values)):
            expect = np.sort([a * abs(x) ** float(g)
                              for a, g in zip(w.alphas, w.gammas)])
            assert np.allclose(got, expect, rtol=1e-9)

    def test_entry_function_matches_assembled_matrix(self):
        w = Type2Weight((1.0, 4.0, 0.25), (0, HALF, -HALF), "rotation3d_euler")
        xs = np.linspace(0.2, 9.0, 40)
        vals = as_pointwise(w).values(xs)
        u = stack_of_points(unitary_stack("rotation3d_euler", 3, xs))
        d = np.array([[a * x ** float(g) for a, g in zip(w.alphas, w.gammas)]
                      for x in xs])
        direct = np.moveaxis(u @ (d[:, :, None] * u.conj().swapaxes(1, 2)), 0, -1)
        for i in range(3):
            for j in range(3):
                assert np.allclose(vals[i, j], direct[i, j], rtol=1e-12, atol=1e-14)


class TestProfilesAndInverse:
    def test_as_pointwise_entries(self):
        w = planar(HALF, -HALF, a1=2.0)
        pw = as_pointwise(w)
        assert pw.n == 2
        assert pw.exponents == (w.gammas,)
        xs = np.array([0.7, 3.0])
        direct = np.stack([planar_by_hand(w, x) for x in xs], axis=-1)
        for i in range(2):
            for j in range(2):
                assert np.allclose(pw.values(xs)[i, j], direct[i, j])

    def test_inverse_weight_swaps_data(self):
        w = planar(HALF, -Fraction(1, 4), a1=2.0, a2=5.0)
        inv = inverse_weight(w)
        assert inv.alphas == (0.5, 0.2)
        assert inv.gammas == (-HALF, Fraction(1, 4))
        assert inv.unitary == "rotation2d"

    def test_inverse_is_pointwise_matrix_inverse(self):
        w = Type2Weight((1.0, 3.0, 0.5), (HALF, 0, -HALF), "rotation3d_euler")
        xs = np.array([0.3, 1.2, 8.0])
        fwd = stack_of_points(as_pointwise(w).values(xs))
        bwd = stack_of_points(as_pointwise(inverse_weight(w)).values(xs))
        for prod in fwd @ bwd:
            assert np.max(np.abs(prod - np.eye(3))) < 1e-12

    def test_inverse_weight_as_pointwise(self):
        w = planar(HALF, 0)
        pw = as_pointwise(inverse_weight(w))
        assert pw.exponents == ((-HALF, 0),)
        xs = np.array([0.9])
        assert np.allclose(pw.values(xs)[0, 0],
                           planar_by_hand(inverse_weight(w), 0.9)[0, 0])

    def test_inverse_requires_positive_coefficients(self):
        w = planar(0, HALF, a1=-1.0)
        with pytest.raises(ValueError, match="positive"):
            inverse_weight(w)

    def test_identity_exponent_zero_stays_under_closed_form_bound(self):
        w = Type2Weight((1.0, 1.0), ("1/5", "0"), "identity")
        bound = 1.0 / (1.0 - 1.0 / 25.0) + 1.0
        assert estimate_a2(w).estimate <= bound * (1.0 + 1e-6)


class TestCheckers:
    def test_nonpositive_alpha_breaks_positivity(self):
        report = check_necessary_a2(planar(0, HALF, a2=0.0))
        assert report.verdict == VERDICT_NOT_PD_AE
        assert [f.kind for f in report.findings] == ["alpha-not-positive"]
        assert report.findings[0].where == (1,)

    def test_necessary_passes_inside_open_range(self):
        report = check_necessary_a2(planar(-HALF, Fraction(9, 10)))
        assert report.verdict == VERDICT_NECESSARY_PASSED
        assert report.verdict != VERDICT_A2  # inconclusive, not a pass

    def test_necessary_rejects_large_exponent(self):
        report = check_necessary_a2(planar(0, 1))
        assert report.verdict == VERDICT_NOT_A2
        f = report.findings[0]
        assert f.kind == "eigenvalue-exponent-range"
        assert f.where == (1,)
        assert "inverse" in f.detail

    def test_necessary_rejects_nonintegrable_exponent(self):
        report = check_necessary_a2(planar(Fraction(-3, 2), 0))
        assert report.verdict == VERDICT_NOT_INTEGRABLE
        assert report.findings[0].kind == "eigenvalue-exponent-range"

    def test_necessary_lists_both_endpoint_failures(self):
        report = check_necessary_a2(planar(-1, 1))
        assert report.verdict == VERDICT_NOT_INTEGRABLE
        assert len(report.findings) == 2


class TestDecisions:
    def test_equal_exponents_are_a2(self):
        report = decide_rotation_a2(planar(HALF, HALF))
        assert report.verdict == VERDICT_A2
        assert report.findings == ()

    def test_unequal_coefficients_still_a2_with_note(self):
        report = decide_rotation_a2(planar(HALF, HALF, a1=1.0, a2=7.0))
        assert report.verdict == VERDICT_A2
        assert any("unequal positive coefficients" in n for n in report.notes)

    def test_unequal_exponents_are_not_a2(self):
        report = decide_rotation_a2(planar(0, HALF))
        assert report.verdict == VERDICT_NOT_A2
        f = report.findings[0]
        assert f.kind == "rotation-exponents-unequal"
        assert "0" in f.detail and "1/2" in f.detail

    def test_three_dimensional_rule_is_flagged(self):
        w = Type2Weight((1.0, 1.0, 1.0), (HALF, HALF, HALF),
                        "rotation3d_euler")
        report = decide_rotation_a2(w)
        assert report.verdict == VERDICT_A2
        assert any("3d rotation rule" in n for n in report.notes)

    def test_rotation_rule_rejects_identity_family(self):
        with pytest.raises(ValueError, match="rotation unitary"):
            decide_rotation_a2(Type2Weight((1.0,), (HALF,)))

    def test_necessary_failure_propagates(self):
        report = decide_rotation_a2(planar(0, 1))
        assert report.verdict == VERDICT_NOT_A2
        assert report.findings[0].kind == "eigenvalue-exponent-range"

    def test_dispatch_diagonal_weight(self):
        report = decide_a2(Type2Weight((2.0, 1.0), (HALF, -HALF)))
        assert report.verdict == VERDICT_A2
        assert any("diagonal weight" in n for n in report.notes)

    def test_dispatch_diagonal_rejects_out_of_range(self):
        report = decide_a2(Type2Weight((1.0,), (Fraction(3, 2),)))
        assert report.verdict == VERDICT_NOT_A2

    def test_dispatch_uses_rotation_rule(self):
        assert decide_a2(planar(0, HALF)).verdict == VERDICT_NOT_A2
        assert decide_a2(planar(HALF, HALF)).verdict == VERDICT_A2


class TestLogspacedInts:
    def test_endpoints_and_monotonicity(self):
        ns = logspaced_ints(100, 100000, 13)
        assert ns[0] == 100 and ns[-1] == 100000
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert len(ns) == 13

    def test_duplicates_collapse(self):
        ns = logspaced_ints(1, 10, 25)
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert len(ns) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            logspaced_ints(0, 10, 3)
        with pytest.raises(ValueError):
            logspaced_ints(10, 5, 3)
        with pytest.raises(ValueError):
            logspaced_ints(1, 10, 1)


class TestDivergenceExperiment:
    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError, match="gamma1 < gamma2"):
            divergence_experiment("1/2", "1/2", [1, 2])

    def test_reversed_order_rejected(self):
        with pytest.raises(ValueError, match="gamma1 < gamma2"):
            divergence_experiment("1/2", "0", [1, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            divergence_experiment("-1", "1/2", [1, 2])
        with pytest.raises(ValueError):
            divergence_experiment("0", "1", [1, 2])

    def test_bad_n_values_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            divergence_experiment("0", "1/2", [])
        with pytest.raises(ValueError, match="strictly increasing"):
            divergence_experiment("0", "1/2", [3, 3])
        with pytest.raises(ValueError, match="strictly increasing"):
            divergence_experiment("0", "1/2", [0, 2])

    def test_row_geometry_and_growth(self):
        rows = divergence_experiment("0", "1/2", [10, 100, 1000])
        for row, n in zip(rows, (10, 100, 1000)):
            assert row.n == n
            assert row.a == pytest.approx(2.0 * math.pi * n, rel=1e-15)
            assert row.b == pytest.approx(row.a + math.pi, rel=1e-15)
            assert row.product == pytest.approx(row.avg_w * row.avg_winv,
                                                rel=1e-12)
            assert row.product > 1.0
        products = [r.product for r in rows]
        assert all(q > p for p, q in zip(products, products[1:]))

    def test_window_averages_match_quadpack(self):
        rows = divergence_experiment("0", "1/2", [100])
        row = rows[0]
        g = 0.5

        def w11(x):
            return math.cos(x) ** 2 + abs(x) ** g * math.sin(x) ** 2

        ref_w = quad(w11, row.a, row.b, epsabs=0.0, epsrel=1e-11, limit=400)[0]
        ref_winv = quad(lambda x: 1.0 / w11(x), row.a, row.b, epsabs=0.0,
                        epsrel=1e-11, limit=400)[0]
        assert row.avg_w == pytest.approx(ref_w / math.pi, rel=1e-7)
        assert row.avg_winv == pytest.approx(ref_winv / math.pi, rel=1e-7)

    def test_rows_keep_their_values(self):
        # pinned rows: the probe and the panel tree must keep these values
        want = [(12.568718997378273, 0.9999998301986538, 12.568716863192867),
                (39.64453382818765, 0.9999999991942375, 39.64453379624357)]
        rows = divergence_experiment("-1/2", "1/2", [100, 1000])
        assert [row.n for row in rows] == [100, 1000]
        for row, values in zip(rows, want):
            got = (row.avg_w, row.avg_winv, row.product)
            assert got == pytest.approx(values, rel=1e-12)

    @pytest.mark.parametrize("n", [100, 100000])
    def test_rows_match_an_mpmath_reference(self, n):
        # At n = 1e5 the 1/w_11 peaks at the window ends are ~4e-5 wide; a
        # probe that took cos x at x ~ 6e5 put avg_winv 3.7e-8 off.
        mpmath = pytest.importorskip("mpmath")
        (row,) = divergence_experiment("-3/4", "3/4", [n])
        with mpmath.workdps(30):
            g, a = mpmath.mpf(3) / 4, 2 * mpmath.pi * n

            def w11(t):
                return ((a + t) ** -g * mpmath.cos(t) ** 2
                        + (a + t) ** g * mpmath.sin(t) ** 2)

            ends = [mpmath.mpf(10) ** -k for k in range(1, 10)]
            cuts = sorted([0, mpmath.pi / 2, mpmath.pi] + ends
                          + [mpmath.pi - e for e in ends])
            want_w = float(mpmath.quad(w11, cuts) / mpmath.pi)
            want_winv = float(mpmath.quad(lambda t: 1 / w11(t), cuts) / mpmath.pi)
        assert row.avg_w == pytest.approx(want_w, rel=1e-10)
        assert row.avg_winv == pytest.approx(want_winv, rel=1e-10)

    def test_a_row_keeps_its_value_in_a_longer_sweep(self):
        # windows that share a tree refine it for the sharpest of them
        short = divergence_experiment("-1/2", "1/2", [100, 1000])
        full = divergence_experiment("-1/2", "1/2", logspaced_ints(100, 100000, 13))
        assert full[0].n == 100
        assert (full[0].avg_w, full[0].avg_winv) == pytest.approx(
            (short[0].avg_w, short[0].avg_winv), rel=1e-10)

    def test_long_sweeps_run_in_chunks_of_windows(self, monkeypatch):
        trees = []

        def spy(*args, **kwargs):
            trees.append(args[0])
            return adaptive_quad(*args, **kwargs)

        monkeypatch.setattr("a2w.type2.adaptive_quad", spy)
        ns = logspaced_ints(100, 100000, 13)
        divergence_experiment("-1/2", "0", ns)
        assert len(trees) == 1
        monkeypatch.setattr("a2w.type2._WINDOWS_PER_TREE", 5)
        trees.clear()
        rows = divergence_experiment("-1/2", "0", ns)
        assert len(trees) == 3
        alone = [row for i in range(0, len(ns), 5)
                 for row in divergence_experiment("-1/2", "0", ns[i:i + 5])]
        assert rows == alone

    def test_slope_tracks_exponent_gap(self):
        rows = divergence_experiment("-1/2", "1/2", logspaced_ints(10, 2000, 6))
        slope = fit_loglog_slope(rows)
        assert 0.40 < slope < 0.60

    def test_probe_calls_are_rounds_not_splits(self, monkeypatch):
        # Counters, not clocks: every window of the sweep and its reciprocal
        # share one tree, and a round of splits per probe call keeps it on
        # few calls.
        seen = []

        def spy(family, n, xs):
            seen.append(np.size(xs))
            return unitary_stack(family, n, xs)

        monkeypatch.setattr("a2w.type2.unitary_stack", spy)
        divergence_experiment("-1/2", "0", logspaced_ints(100, 100000, 13))
        assert sum(seen) == 1440
        assert len(seen) == 2


class TestFourierMoments:
    """The closed-form pieces of a rotation's averages."""

    @pytest.mark.parametrize("unitary, alphas", [("rotation2d", (3.0, 9.0)),
                                                 ("rotation3d_euler", (1.0, 3.0, 0.5))])
    def test_coefficients_resynthesize_the_weight(self, unitary, alphas, rng):
        coeffs = fourier_coefficients(Type2Weight(alphas, ("1/4",) * len(alphas), unitary))
        ms = np.arange(coeffs.shape[1])
        for x in rng.uniform(-50.0, 50.0, 5):
            u = unitary_stack(unitary, len(alphas), np.array([x]))[:, :, 0]
            for c, d in zip(coeffs, (np.array(alphas), 1.0 / np.array(alphas))):
                terms = np.einsum("mij,m->ij", c, np.exp(1j * ms * x))
                got = terms + terms.conj().T - c[0]
                assert np.allclose(got, u @ np.diag(d) @ u.T, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("s", [0.1, 2 / 3, 1.25, 1.9])
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_moments_match_the_incomplete_gamma_function(self, s, m):
        # Phi_m(x) = (-im)^-s gamma(s, -imx) for x > 0, on both sides of
        # the switch from the power series to the continued fraction at mx = 4
        mpmath = pytest.importorskip("mpmath")
        xs = [1e-3, 0.3, 0.67, 4 / m - 1e-9, 4 / m + 1e-9, 100.0, 1e6]
        got = fourier_power_moments([s - 1.0], 6, xs + [-x for x in xs])[0, m - 1]
        with mpmath.workdps(40):
            for x, pos, neg in zip(xs, got, got[len(xs):]):
                want = complex((-1j * m) ** -mpmath.mpf(s)
                               * mpmath.gammainc(s, 0, -1j * m * mpmath.mpf(x)))
                assert abs(pos - want) <= 1e-13 * abs(want), x
                assert neg == -pos.conjugate()

    def test_a_moment_does_not_depend_on_the_other_points(self):
        # grid endpoints are evaluated together, refinement endpoints alone;
        # g = -1/2 puts s = 1/2 in the power x^s, which numpy takes as sqrt
        # over several points and as pow over one
        xs = np.concatenate([-np.logspace(-3, 6, 40), np.logspace(-3, 6, 40),
                             np.random.default_rng(0).uniform(-10.0, 10.0, 300)])
        together = fourier_power_moments([-0.5, 0.5], 6, xs)
        for k, x in enumerate(xs):
            assert np.array_equal(together[..., k],
                                  fourier_power_moments([-0.5, 0.5], 6, [x])[..., 0])

    def test_moments_vanish_at_zero(self):
        assert np.all(fourier_power_moments([-0.5, 0.5], 2, [0.0]) == 0.0)


class TestFitSlope:
    def test_exact_power_law(self):
        rows = [DivergenceRow(n=n, a=0.0, b=1.0, avg_w=1.0,
                              avg_winv=3.0 * n ** 0.7,
                              product=3.0 * n ** 0.7)
                for n in (2, 5, 17, 120, 900)]
        assert fit_loglog_slope(rows) == pytest.approx(0.7, abs=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two rows"):
            fit_loglog_slope([DivergenceRow(1, 0.0, 1.0, 1.0, 1.0, 1.0)])
