"""Power matrices with exact exponent bookkeeping: build, decide, invert."""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from a2w import linalg, type1
from a2w.cli import load_weight_spec
from a2w.report import (VERDICT_A2, VERDICT_NOT_A2, VERDICT_NOT_INTEGRABLE,
                        VERDICT_NOT_PD_AE, VERDICT_PD_AE)
from a2w.estimator import estimate_a2
from a2w.scalar_power import (NotA2Error, format_rational,
                              scalar_closed_form_constant)
from a2w.search import coarse_interval_config
from a2w.type1 import (EvaluationAtOriginError, MidpointConditionError,
                       SymbolicPowerMatrix, a2_upper_bound, build_type1,
                       build_type1_raw, check_a2, check_positive_definite_ae,
                       evaluate, normalized_exponents, symbolic_det,
                       symbolic_inverse)
from a2w.verify import random_type1_weight

TWO_BY_TWO = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1/2", "-2/3"])
THREE_BY_THREE = build_type1(
    np.array([[4.0, 1.0, 2.0], [1.0, 2.0, -1.0], [2.0, -1.0, 3.0]]),
    ["3/4", "-3/4", "1/2"])


class TestBuild:
    def test_midpoint_completion_two_by_two(self):
        assert TWO_BY_TWO.exponents[0][0][1] == Fraction(-1, 12)
        assert TWO_BY_TWO.exponents[0][1][0] == Fraction(-1, 12)

    def test_midpoint_completion_three_by_three(self):
        e = THREE_BY_THREE.exponents[0]
        assert e[0][1] == Fraction(0)
        assert e[0][2] == Fraction(5, 8)
        assert e[1][2] == Fraction(-1, 8)
        assert e[1][0] == e[0][1] and e[2][0] == e[0][2] and e[2][1] == e[1][2]

    def test_requires_self_adjoint_coeff(self):
        with pytest.raises(ValueError):
            build_type1(np.array([[1.0, 2.0], [3.0, 1.0]]), ["0", "0"])

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            build_type1(np.eye(2), ["0"])

    def test_raw_keeps_exponents_verbatim(self):
        w = build_type1_raw(np.eye(2), [["0", "1/3"], ["1/3", "0"]])
        assert w.exponents[0][0][1] == Fraction(1, 3)

    def test_order_cap(self):
        n = linalg.MAX_ORDER + 1
        with pytest.raises(ValueError):
            build_type1(np.eye(n), ["0"] * n)

    def test_scaled_multiplies_global_scale(self):
        w = TWO_BY_TWO.scaled(3.0)
        assert np.allclose(w.coeff, 3.0 * TWO_BY_TWO.coeff)
        with pytest.raises(ValueError):
            TWO_BY_TWO.scaled(-1.0)

    def test_equilibrated_scales_by_powers_of_two(self):
        # S = diag(2^-k_i), k_i half the binary exponent of a_ii rounded
        # down: exact, a diagonal in [1/2, 2), the same exponents, and the
        # weight itself if S = I or if S A S leaves the floats (A is then
        # far from positive definite). 1e300 = m 2^997, 5e-324 = 2^-1074.
        w = build_type1(np.array([[1e300, 1e-12], [1e-12, 5e-324]]), ["1/2", "-1/3"])
        eq = w.equilibrated
        s = np.array([2.0 ** -498, 2.0 ** 537])
        assert np.array_equal(eq.coeff, w.coeff * s[:, None] * s)
        assert all(0.5 <= a < 2.0 for a in eq.coeff.diagonal().real)
        assert eq.exponents == w.exponents and w.equilibrated is eq
        for same in (build_type1(np.array([[1.0, 0.5], [0.5, 1.5]]), ["1/2", "0"]),
                     build_type1_raw(np.array([[0.0, 1.0], [1.0, -4.0]]),
                                     [["0", "0"], ["0", "0"]]),
                     build_type1(np.array([[1e300, 3e150], [3e150, 5e-324]]), ["1/2", "0"])):
            assert same.equilibrated is same
        # |a_ij (A^-1)_ji| does not change, so neither does the bound
        a = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1/2", "-2/3"])
        assert a.equilibrated is not a
        sup_factor = float((np.abs(a.coeff) * np.abs(a.coeff_inverse.T)).max())
        assert a2_upper_bound(a) == sup_factor * sum(
            scalar_closed_form_constant(e) for row in a.exponents[0] for e in row)

    def test_inverse_negates_each_exponent_object_once(self):
        # after midpoint completion e_ij and e_ji are one Fraction, and so
        # are their negations
        w = build_type1(np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.0], [0.5, 0.0, 2.0]]),
                        ["1/2", "-1/3", "3/4"])
        inv = symbolic_inverse(w)
        want = tuple(tuple(tuple(-e for e in row) for row in m) for m in normalized_exponents(w))
        assert inv.exponents == want
        mat = inv.exponents[0]
        assert all(mat[i][j] is mat[j][i] for i in range(3) for j in range(3)
                   if w.coeff[i, j] != 0)

    def test_weight_owns_its_coefficient(self):
        # the cached decision and inverse are of the coefficient as built
        a = np.array([[2, 0], [0, 1]], dtype=complex)
        w = build_type1_raw(a, [["1/2", "1/12"], ["1/12", "-1/3"]])
        assert check_a2(w).verdict == VERDICT_A2
        a[0, 0] = -1
        assert check_a2(w).verdict == VERDICT_A2
        assert check_a2(build_type1_raw(a, w.exponents[0])).verdict == VERDICT_NOT_PD_AE
        assert np.array_equal(w.coeff_inverse, np.diag([0.5, 1.0]))
        with pytest.raises(ValueError, match="read-only"):
            w.coeff[0, 0] = -1


class TestEvaluate:
    def test_matches_direct_formula(self, rng):
        for _ in range(10):
            x = float(rng.uniform(0.1, 10.0))
            got = evaluate(THREE_BY_THREE, x)
            e = THREE_BY_THREE.exponents[0]
            want = np.array([[THREE_BY_THREE.coeff[i, j] * x ** float(e[i][j])
                              for j in range(3)] for i in range(3)])
            assert np.allclose(got, want, rtol=1e-12)

    def test_even_in_x(self):
        assert np.allclose(evaluate(TWO_BY_TWO, 1.7), evaluate(TWO_BY_TWO, -1.7))

    def test_origin_rejected(self):
        with pytest.raises(EvaluationAtOriginError):
            evaluate(TWO_BY_TWO, 0.0)
        with pytest.raises(EvaluationAtOriginError):
            evaluate(TWO_BY_TWO, np.array([1.0, 0.0]))

    def test_array_of_points_gives_the_stack(self):
        xs = np.array([-3.0, 1e-8, 0.5, 1e8])
        got = evaluate(THREE_BY_THREE, xs)
        assert got.shape == (4, 3, 3)
        for k, x in enumerate(xs):
            assert np.array_equal(got[k], evaluate(THREE_BY_THREE, float(x)))


class TestNormalizedExponents:
    def test_zero_coeff_entry_is_dont_care(self):
        w = build_type1_raw(np.array([[2.0, 0.0], [0.0, 3.0]]),
                            [["1/2", "9/9"], ["9/9", "-1/2"]])
        norm = normalized_exponents(w)
        assert norm[0][0][1] == Fraction(0)  # rewritten to the midpoint
        assert check_positive_definite_ae(w).verdict == VERDICT_PD_AE


def _fraction_midpoint_findings(coeff, mats):
    """The midpoint findings of SymbolicPowerMatrix(coeff, mats, d) in
    plain Fraction arithmetic: every normalized exponent against
    (e_ii + e_jj) / 2."""
    found = []
    for c, m in enumerate(mats):
        n = len(m)
        norm = [[(m[i][i] + m[j][j]) / 2 if i != j and coeff[i][j] == 0 else m[i][j]
                 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                want = (norm[i][i] + norm[j][j]) / 2
                if norm[i][j] != want:
                    at = ((c,) if len(mats) > 1 else ()) + (i, j)
                    found.append((at, f"exponent {format_rational(norm[i][j])} at {at}"
                                      f" differs from midpoint {format_rational(want)}"))
    return found


class TestMidpointFindings:
    def test_integer_test_matches_fraction_arithmetic(self, rng):
        # random exponent matrices, denominators up to 1e6, off-diagonal
        # entries on the midpoint or 2^-k off it, zero coefficients among
        # them; one matrix on the line, two for a separable weight on R^2
        def exponent():
            return Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))

        for trial in range(300):
            n = int(rng.integers(1, 5))
            d = 2 if trial % 3 == 0 else 1
            coeff = rng.integers(-1, 2, size=(n, n)) * (rng.random((n, n)) < 0.7)
            mats = []
            for _ in range(d):
                diag = [exponent() for _ in range(n)]
                m = [[(diag[i] + diag[j]) / 2 for j in range(n)] for i in range(n)]
                for i in range(n):
                    for j in range(n):
                        if i != j and rng.random() < 0.4:
                            m[i][j] += Fraction(int(rng.choice([-1, 1])), 2 ** int(rng.integers(1, 60)))
                mats.append(m)
            w = SymbolicPowerMatrix(coeff, tuple(mats), d)
            want = _fraction_midpoint_findings(coeff.tolist(), w.exponents)
            assert [(f.where, f.detail) for f in w.midpoint_findings] == want
            assert all(f.kind == "midpoint-violated" for f in w.midpoint_findings)


class TestDecisions:
    def test_two_by_two_example_is_a2(self):
        assert check_a2(TWO_BY_TWO).verdict == VERDICT_A2

    def test_three_by_three_example_is_a2(self):
        assert check_a2(THREE_BY_THREE).verdict == VERDICT_A2

    def test_perturbed_offdiagonal_fails_positivity(self):
        exps = [["1/2", "1/60"], ["1/60", "-2/3"]]  # -1/12 + 1/10 = 1/60
        w = build_type1_raw(np.array([[5.0, 3.0], [3.0, 2.0]]), exps)
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert any(f.kind == "midpoint-violated" for f in report.findings)
        assert report.witness is not None

    def test_witness_actually_breaks_positivity(self):
        exps = [["1/2", "1/60"], ["1/60", "-2/3"]]
        w = build_type1_raw(np.array([[5.0, 3.0], [3.0, 2.0]]), exps)
        x = check_a2(w).witness
        m = evaluate(w, x)
        h = (m + m.conj().T) / 2.0
        vals = np.linalg.eigvalsh(h)
        assert vals[0] < -1e-12 * np.max(np.abs(vals))

    def test_unit_diagonal_exponent_fails_range_rule(self):
        w = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1", "-2/3"])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_A2
        assert any(f.kind == "diagonal-exponent-range" for f in report.findings)

    def test_low_diagonal_exponent_kills_integrability(self):
        w = build_type1(np.array([[2.0, 0.0], [0.0, 2.0]]), ["-1", "0"])
        assert check_a2(w).verdict == VERDICT_NOT_INTEGRABLE

    def test_indefinite_coefficient_fails(self):
        w = build_type1(np.array([[1.0, 3.0], [3.0, 1.0]]), ["0", "0"])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert any(f.kind == "leading-minor-not-positive" for f in report.findings)

    def test_marginal_coefficient(self):
        # [[1, 1], [1, 1]] is exactly singular: its leading minor 2 is 0
        w = build_type1(np.array([[1.0, 1.0], [1.0, 1.0]]), ["0", "0"])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert [(f.kind, f.where, f.detail) for f in report.findings] == [
            ("leading-minor-not-positive", (1,),
             "leading minor 2 of the coefficient matrix is 0")]

    def test_complex_coefficient_decided_exactly(self):
        # |i|^2 = 1 makes [[1, i], [-i, 1]] singular: minor 2 is exactly 0
        singular = build_type1(np.array([[1.0, 1j], [-1j, 1.0]]), ["0", "0"])
        report = check_a2(singular)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert [(f.kind, f.where, f.detail) for f in report.findings] == [
            ("leading-minor-not-positive", (1,),
             "leading minor 2 of the coefficient matrix is 0")]
        ok = build_type1(np.array([[2.0, 1 + 1j], [1 - 1j, 2.0]]), ["0", "0"])
        assert check_a2(ok).verdict == VERDICT_A2

    def test_minor_beyond_the_float_range_is_reported(self):
        w = build_type1(np.array([[1e300, 2e300], [2e300, 1e300]]), ["1/2", "-1/3"])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert report.findings[0].detail == (
            "leading minor 2 of the coefficient matrix is -3e+600")

    def test_all_violations_reported(self):
        exps = [["1/2", "0"], ["0", "-2/3"]]  # both off-diagonals wrong
        w = build_type1_raw(np.array([[1.0, 3.0], [3.0, 1.0]]), exps)
        report = check_a2(w)
        kinds = {f.kind for f in report.findings}
        assert "midpoint-violated" in kinds
        assert "leading-minor-not-positive" in kinds

    def test_random_valid_weights_are_a2(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            w = random_type1_weight(rng, n)
            assert check_a2(w).verdict == VERDICT_A2


def _reference_scan(w):
    """The witness scan point by point, in its scan order (+logspace, then
    -logspace), with no eigensolver; points where W(x) overflows are
    skipped.

    Sylvester: W(x) is positive definite iff its leading principal minors
    are positive, and the clamp never flags a positive definite matrix.
    When the first minor that is not positive is negative, interlacing
    puts an eigenvalue of W(x) below 0. With W(x) scaled to largest entry
    1, that minor is below -1e-6 at every witness of these cases, so the
    eigenvalue lies far past the clamp's -1e-12 and both decide alike.
    """
    mags = np.logspace(-8.0, 8.0, 65)
    for x in list(mags) + list(-mags):
        with np.errstate(over="ignore", invalid="ignore"):
            m = evaluate(w, float(x))
        if not np.isfinite(m).all():
            continue
        m = m / np.max(np.abs(m))
        minors = [linalg.lu_det(m[:k, :k]).real for k in range(1, len(m) + 1)]
        first = next((d for d in minors if d <= 0.0), None)
        if first is not None:
            assert first < -1e-6, f"W({x!r}) is too close to the PSD clamp"
            return float(x)
    return None


WITNESS_CASES = [
    # criterion 2: the off-diagonal exponent 1/10 above its midpoint
    ([[5.0, 3.0], [3.0, 2.0]], [["1/2", "1/60"], ["1/60", "-2/3"]], None),
    # det W(x) = 1 - |x|/4: positive definite up to |x| = 4
    ([[1.0, 0.5], [0.5, 1.0]], [["1/2", "1/2"], ["1/2", "-1/2"]],
     10.0 ** 0.75),
    # complex coefficients, and W(x) overflows below |x| = 10^-7.7
    ([[1.0, 0.5j], [-0.5j, 1.0]], [["-40", "-79/2"], ["-79/2", "-40"]],
     10.0 ** 0.75),
    # order 3: 3|x|^(1/5) > 1 from |x| = 3^-5 on
    ([[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
     [["0", "1/5", "0"], ["1/5", "0", "0"], ["0", "0", "1/2"]],
     10.0 ** -2.25),
]
WITNESS_IDS = ["criterion-2", "fails-above-4", "overflowing", "order-3"]


class TestWitnessScan:
    # W(-x) = W(x), so the reference never reaches its negative half with
    # a witness still to find; the stacked scan leaves that half out.
    @pytest.mark.parametrize("coeff, exps, want", WITNESS_CASES, ids=WITNESS_IDS)
    def test_matches_the_point_by_point_scan(self, coeff, exps, want):
        w = build_type1_raw(np.array(coeff), exps)
        got = type1._witness_scan(w)
        assert got is not None and got == _reference_scan(w)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("coeff, exps", [case[:2] for case in WITNESS_CASES],
                             ids=WITNESS_IDS)
    def test_flags_a_point_where_sqrt_psd_raises(self, coeff, exps):
        # one PSD clamp: the scan's mask holds the finite points whose W(x)
        # sqrt_psd rejects, and its witness is the first of them
        w = build_type1_raw(np.array(coeff), exps)
        xs = type1._WITNESS_POINTS
        with np.errstate(over="ignore", invalid="ignore"):
            stack = evaluate(w, xs)
        finite = np.isfinite(stack).all(axis=(-2, -1))
        raising = []
        for x, m in zip(xs[finite].tolist(), stack[finite]):
            try:
                linalg.sqrt_psd(m)
            except linalg.NegativeEigenvalueError:
                raising.append(x)
        _, _, below = linalg._psd_eigh(linalg.as_hermitian(stack[finite]), strict=False)
        assert xs[finite][below].tolist() == raising
        assert raising and type1._witness_scan(w) == raising[0]

    @pytest.mark.parametrize("w", [TWO_BY_TWO, THREE_BY_THREE],
                             ids=["two-by-two", "three-by-three"])
    def test_positive_definite_weight_has_no_witness(self, w):
        assert _reference_scan(w) is None
        assert type1._witness_scan(w) is None

    def test_overflow_leaves_a_verdict(self):
        # pytest turns numpy's overflow RuntimeWarning into an error
        w = build_type1_raw(np.array([[1.0, 0.5], [0.5, 1.0]]),
                            [["-40", "-79/2"], ["-79/2", "-40"]])
        report = check_a2(w)
        assert report.verdict == VERDICT_NOT_PD_AE
        assert report.witness == pytest.approx(10.0 ** 0.75, rel=1e-12)


class TestSymbolicAlgebra:
    def test_det_exponent_is_diagonal_sum(self):
        coeff, exp = symbolic_det(THREE_BY_THREE)
        assert exp == Fraction(1, 2)  # 3/4 - 3/4 + 1/2
        assert coeff.real == pytest.approx(
            np.linalg.det(THREE_BY_THREE.coeff), rel=1e-12)

    def test_det_matches_pointwise(self, rng):
        for _ in range(10):
            x = float(rng.uniform(0.05, 20.0))
            coeff, exp = symbolic_det(TWO_BY_TWO)
            want = np.linalg.det(evaluate(TWO_BY_TWO, x))
            assert coeff * x ** float(exp) == pytest.approx(want, rel=1e-10)

    def test_midpoint_required_for_symbolic_routes(self):
        w = build_type1_raw(np.array([[2.0, 1.0], [1.0, 2.0]]),
                            [["0", "1/3"], ["1/3", "0"]])
        with pytest.raises(MidpointConditionError):
            symbolic_det(w)
        with pytest.raises(MidpointConditionError):
            symbolic_inverse(w)

    def test_inverse_is_pointwise_inverse(self, rng):
        winv = symbolic_inverse(THREE_BY_THREE)
        for _ in range(10):
            x = float(rng.uniform(0.05, 50.0))
            prod = evaluate(THREE_BY_THREE, x) @ evaluate(winv, x)
            assert np.allclose(prod, np.eye(3), atol=1e-10)

    def test_inverse_negates_exponents(self):
        winv = symbolic_inverse(TWO_BY_TWO)
        for i in range(2):
            for j in range(2):
                assert winv.exponents[0][i][j] == -TWO_BY_TWO.exponents[0][i][j]

    def test_double_inverse_roundtrip(self, rng):
        w = random_type1_weight(rng, 3)
        back = symbolic_inverse(symbolic_inverse(w))
        assert np.allclose(back.coeff, w.coeff, atol=1e-10)
        assert back.exponents == w.exponents

    def test_singular_coefficient_rejected(self):
        w = build_type1(np.array([[1.0, 1.0], [1.0, 1.0]]), ["0", "0"])
        with pytest.raises(linalg.SingularMatrixError):
            symbolic_inverse(w)


class TestUpperBound:
    def test_positive_and_validates(self):
        # Each closed-form factor 1/(1 - e^2) against a coarse sup search on
        # the scalar weight |x|^e, for every distinct exponent of the weight.
        assert a2_upper_bound(TWO_BY_TWO) > 0
        exps = {e for row in normalized_exponents(TWO_BY_TWO)[0] for e in row}
        assert len(exps) == 3
        for e in exps:
            closed = scalar_closed_form_constant(e)
            scalar = SymbolicPowerMatrix(np.array([[1.0]]), (((e,),),))
            est = estimate_a2(scalar, "trace", coarse_interval_config()).estimate
            assert closed * 0.98 <= est <= closed * (1.0 + 1e-9)

    def test_requires_a2(self):
        w = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1", "-2/3"])
        with pytest.raises(NotA2Error):
            a2_upper_bound(w)

    def test_scaling_invariance(self):
        assert a2_upper_bound(TWO_BY_TWO.scaled(7.0)) == pytest.approx(
            a2_upper_bound(TWO_BY_TWO), rel=1e-12)

    def test_scalar_case_reduces_to_closed_form(self):
        w = SymbolicPowerMatrix(np.array([[2.0]]), (((Fraction(1, 2),),),))
        assert a2_upper_bound(w) == pytest.approx(4.0 / 3.0, rel=1e-12)


def _fraction_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse in Fraction arithmetic, swapping in the first
    nonzero pivot of each column."""
    n = len(m)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def exact_trace_on_unit_interval(w) -> Fraction:
    """The trace functional of a Type 1 weight on [0, 1] (and on [-1, 1]),
    T = sum_ij a_ij (A^-1)_ji / (1 - e_ij^2), in exact rationals from the
    coefficient's floats: <W> has entries a_ij / (1 + e_ij) and <W^-1>
    entries (A^-1)_ij / (1 - e_ij). A^-1 comes from the real embedding
    [[X, -Y], [Y, X]] of A = X + iY, whose inverse embeds A^-1."""
    n = w.n
    x = [[Fraction(v) for v in row] for row in w.coeff.real.tolist()]
    y = [[Fraction(v) for v in row] for row in w.coeff.imag.tolist()]
    inv = _fraction_inverse([xr + [-v for v in yr] for xr, yr in zip(x, y)]
                            + [yr + xr for xr, yr in zip(x, y)])
    exps = normalized_exponents(w)[0]
    return sum((x[i][j] * inv[j][i] - y[i][j] * inv[j + n][i]) / (1 - exps[i][j] ** 2)
               for i in range(n) for j in range(n))


def _readme_specs() -> list[dict]:
    """Every type1 and type1_raw spec in the README's json blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    docs = [json.loads(doc) for block in re.findall(r"```json\n(.*?)```", text, re.S)
            for doc in block.strip().split("\n\n")]
    return [doc for doc in docs if doc["kind"] in ("type1", "type1_raw")]


# The A2 type1 and type1_raw specs that the tests use, once each.
TEST_SPECS = [
    {"kind": "type1", "coeff": [[5, 3], [3, 2]], "diag_exponents": ["1/2", "-2/3"]},
    {"kind": "type1", "coeff": [[4, 1, 2], [1, 2, -1], [2, -1, 3]],
     "diag_exponents": ["3/4", "-3/4", "1/2"]},
    {"kind": "type1", "coeff": [[4, [1, 2], 0.5], [[1, -2], 3, 0], [0.5, 0, 2]],
     "diag_exponents": ["1/2", "-1/3", "3/4"]},
    {"kind": "type1", "coeff": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
     "diag_exponents": ["1/2", "0"]},
    {"kind": "type1", "coeff": [[1.0, 0.0], [0.0, 2.0]], "diag_exponents": ["1/2", "-1/3"]},
    {"kind": "type1", "coeff": [[1, 0.999999], [0.999999, 1]],
     "diag_exponents": ["-99/100", "1/2"]},
    {"kind": "type1", "coeff": [[1, 0.99999999995], [0.99999999995, 1]],
     "diag_exponents": ["1/2", "-1/3"]},
    {"kind": "type1", "coeff": [[1.0]], "diag_exponents": ["1/2"]},
    {"kind": "type1_raw", "coeff": [[1.0]], "exponents": [["1/3"]]},
    {"kind": "type1_raw", "coeff": [[2.0, 0.0], [0.0, 3.0]],
     "exponents": [["1/2", "9/9"], ["9/9", "-1/2"]]},
]


class TestExactTraceOracle:
    def test_two_by_two_value(self):
        assert exact_trace_on_unit_interval(TWO_BY_TWO) == (
            Fraction(40, 3) + 18 - Fraction(2592, 143))

    def test_two_by_two_estimate_and_bound(self):
        # the estimate reaches the exact T of [0, 1], and the bound is
        # max |a_ij (A^-1)_ji| = 10 times 4/3 + 9/5 + 2 * 144/143
        exact = Fraction(40, 3) + 18 - Fraction(2592, 143)
        bound = Fraction(110410, 2145)
        assert abs(Fraction(estimate_a2(TWO_BY_TWO, "trace").estimate) - exact) <= 1e-15 * exact
        assert abs(Fraction(a2_upper_bound(TWO_BY_TWO)) - bound) <= 1e-15 * bound

    def test_readme_specs_are_covered(self):
        assert _readme_specs()
        assert all(check_a2(load_weight_spec(doc)[0]).verdict == VERDICT_A2
                   for doc in _readme_specs())

    @pytest.mark.parametrize("doc", TEST_SPECS + _readme_specs())
    def test_estimate_between_exact_value_and_upper_bound(self, doc):
        # [0, 1] is anchored, so every grid holds it or a dilate of it with
        # the same value: the estimate cannot fall below T but by rounding
        w, _ = load_weight_spec(doc)
        assert check_a2(w).verdict == VERDICT_A2
        exact = exact_trace_on_unit_interval(w)
        estimate = estimate_a2(w, "trace").estimate
        assert estimate >= float(exact) * (1.0 - 1e-12)
        assert estimate <= a2_upper_bound(w)


SCALED_SPECS = [
    ([[5, 3], [3, 2]], ["1/2", "-2/3"]),
    ([[4, 1, 0.5], [1, 3, 0.2], [0.5, 0.2, 2]], ["1/2", "-1/3", "1/4"]),
    ([[2, 1 + 1j], [1 - 1j, 2]], ["1/2", "-1/3"]),
]


@pytest.mark.parametrize("t", [2.0 ** -990, 1e-300, 1e300, 2.0 ** 990],
                         ids=["2^-990", "1e-300", "1e300", "2^990"])
@pytest.mark.parametrize("coeff, exps", SCALED_SPECS, ids=["w2", "three-by-three", "complex"])
def test_coefficient_scale_leaves_estimates_and_bound(coeff, exps, t):
    # both functionals and the bound are invariant under A -> tA; the norm
    # may drift by LAPACK's internal scaling. An even power of 2 shifts
    # every k_i of the equilibration by one integer, so S A S, and with it
    # every value, is bit for bit that of t = 1
    a = np.array(coeff, dtype=complex)

    def values(s):
        w = build_type1(s * a, exps)
        return (estimate_a2(w, "trace").estimate, a2_upper_bound(w),
                estimate_a2(w, "norm").estimate)

    (trace1, bound1, norm1), (trace, bound, norm) = values(1.0), values(t)
    assert trace == pytest.approx(trace1, rel=1e-14, abs=0.0)
    assert bound == pytest.approx(bound1, rel=1e-14, abs=0.0)
    assert norm == pytest.approx(norm1, rel=1e-12, abs=0.0)
    if np.frexp(t)[0] == 0.5:
        assert (trace, bound, norm) == (trace1, bound1, norm1)
