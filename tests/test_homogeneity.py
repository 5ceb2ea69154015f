"""Reference tests for the homogeneity reduction of the searches.

Power matrices (type1 and its cube extensions type1a and type1b) satisfy
W(tx) = T W(x) T with T = diag(|t|^(g_i/2)), and are even, so both A2
functionals see only an interval's shape. A power matrix on the line is
therefore scored once, at the anchored shape [0, 1] on the equilibrated
coefficient, and on cubes at the cornered unit cube [0, 1]^d; these
tests check both against the full searches they replace, and that no
origin-free shape [t, 1], and no shifted cube, beats them. An identity
Type 2 weight is a diagonal power matrix: its dilation invariance is
checked on the quadrature averages, and its estimate against the full
grid of its diagonal twin's closed-form averages, the route the
estimator runs it on.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from a2w.estimator import (_FUNCTIONALS, _averages, _closed_form_pair, _term_table,
                           a2_functional_norm, a2_functional_trace, average_numeric,
                           average_symbolic, estimate_a2)
from a2w.multivar import average_type1b, build_type1a, build_type1b
from a2w.regions import Cube, Interval
from a2w.report import VERDICT_A2
from a2w.search import (coarse_interval_config, fine_interval_config, interval_grid,
                        run_interval_search)
from a2w.type1 import build_type1, check_a2, symbolic_inverse
from a2w.type2 import Type2Weight, as_type1, pair_pointwise

HALF = Fraction(1, 2)
FUNCTIONALS = (a2_functional_trace, a2_functional_norm)
SCALES = (1e-6, 1e-3, 1e3, 1e6)
GRIDS = (fine_interval_config, coarse_interval_config)

W2 = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1/2", "-2/3"])
SCALAR = build_type1(np.array([[1.0]]), ["1/2"])
IDENTITY = Type2Weight((1.0, 2.0), ("1/2", "-1/3"), "identity")


def averages(weight):
    """region -> (<W>, <W^-1>), by the route the searches use."""
    if isinstance(weight, Type2Weight):
        pair = pair_pointwise(weight)
        return lambda iv: tuple(average_numeric(pair, iv, 1e-6))
    average = average_symbolic if weight.separable else average_type1b
    inverse = symbolic_inverse(weight)
    return lambda region: (average(weight, region), average(inverse, region))


def shape_scores(weight, functional):
    """score(ts): the functional of a separable power matrix on each box
    [t, 1]^d of ts, t in [-1, 1), as one stack of averages of the pair the
    estimate scores (_closed_form_pair). The weight is even and
    homogeneous, so on the line an interval [a, b] with |a| <= b takes the
    value of [a / b, 1]."""
    table = _term_table(_closed_form_pair(weight))
    func = _FUNCTIONALS[functional]

    def score(ts):
        t = np.tile(np.array(ts, dtype=float), (weight.d, 1))
        return func(*_averages(table, 2, weight.n, t, np.ones_like(t)))

    return score


def shape(iv):
    """The shape [t, 1] at which the search scores iv: reflected so that
    |a| <= b, then divided by b."""
    t = iv.b / iv.a if iv.a + iv.b < 0.0 else iv.a / iv.b
    return Interval(t + 0.0, 1.0)


def grid_shapes(grid):
    """t of the shapes [t, 1] of grid()'s row at its smallest half-length,
    centers >= 0: -1 (symmetric), then (c - h)/(c + h) up from 0
    (anchored); 50 on the default grid and 14 on the coarse one."""
    config = grid()
    row = replace(config, centers=tuple(c for c in config.centers if c >= 0.0),
                  halflengths=(min(config.halflengths),))
    return [shape(iv).a for iv in interval_grid(row)]


def dilate(region, t):
    if isinstance(region, Interval):
        return Interval(t * region.a, t * region.b)
    return Cube(tuple(t * c for c in region.lower), t * region.side)


INTERVALS = (Interval(-1.0, 1.0), Interval(0.0, 1.0), Interval(-3.0, -1.0),
             Interval(1.0, 2.0), Interval(-0.25, 1.0))


def cubes(d):
    return (Cube((0.0,) * d, 1.0), Cube((-0.5,) * d, 1.0),
            Cube((1.0,) * d, 1.0), Cube((2.0,) * d, 1.0),
            Cube((-0.25,) + (-0.75,) * (d - 1), 1.0))


@pytest.mark.parametrize("weight, regions", [
    (W2, INTERVALS),
    (IDENTITY, INTERVALS),
    (build_type1a([[2.0, 1.0], [1.0, 3.0]], [(HALF, -HALF), (Fraction(-1, 3), 0)]),
     cubes(2)),
    (build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 2), cubes(2)),
    (build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 3), cubes(3)),
], ids=["type1", "identity", "type1a", "type1b-d2", "type1b-d3"])
def test_functionals_are_dilation_invariant(weight, regions):
    pair = averages(weight)
    for region in regions:
        for func in FUNCTIONALS:
            base = func(*pair(region))
            for t in SCALES:
                assert func(*pair(dilate(region, t))) == \
                    pytest.approx(base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("weight", [W2, SCALAR, IDENTITY],
                         ids=["w2", "scalar", "identity"])
def test_one_row_matches_the_full_grid(weight, grid):
    # the one anchored shape against the whole grid on the weight as
    # given, refined along the dilation as any weight would be
    config = grid()
    pair = averages(as_type1(weight) if weight is IDENTITY else weight)
    full = run_interval_search(lambda iv: a2_functional_trace(*pair(iv)),
                               config, "trace")
    reduced = estimate_a2(weight, "trace", config)
    assert (reduced.argmax, reduced.evaluations, reduced.config) == (Interval(0.0, 2.0), 1, None)
    assert reduced.estimate == pytest.approx(full.estimate, rel=1e-13, abs=0.0)
    assert shape(full.argmax) == Interval(0.0, 1.0)
    assert full.evaluations > 1


@pytest.mark.parametrize("weight", [
    build_type1a([[1.0]], [(HALF,), (0,)]),
    build_type1a([[2.0, 1.0], [1.0, 3.0]], [(HALF, -HALF), (Fraction(-1, 3), 0)]),
    build_type1b([[1.0]], (HALF,), 2),
    build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 2),
    build_type1b([[2.0, 1.0], [1.0, 2.0]], (HALF, -HALF), 3),
], ids=["type1a-scalar", "type1a", "type1b-scalar", "type1b-d2", "type1b-d3"])
@pytest.mark.parametrize("functional", ["trace", "norm"])
def test_unit_cubes_match_the_old_side_grid(weight, functional):
    # The side grid the cube search used to scan: 13 sides from 1e-3 to 1e3
    # for each family.
    func = dict(zip(("trace", "norm"), FUNCTIONALS))[functional]
    pair = averages(weight)
    d = weight.d
    best = max(func(*pair(cube))
               for side in np.logspace(-3.0, 3.0, 13)
               for cube in (Cube((0.0,) * d, side), Cube((-0.5 * side,) * d, side),
                            Cube((side,) * d, side), Cube((2.0 * side,) * d, side)))
    result = estimate_a2(weight, functional)
    assert result.estimate == pytest.approx(best, rel=1e-12, abs=0.0)
    assert (result.argmax, result.evaluations) == (Cube((0.0,) * d, 1.0), 1)


# Its norm functional carries cond(<W>) eps of rounding noise on short
# intervals, which refinement along the dilation used to climb.
ILL_3X3 = build_type1(np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]),
                      [HALF, -HALF, HALF])


@pytest.mark.parametrize("functional", ["trace", "norm"])
@pytest.mark.parametrize("weight", [W2, SCALAR, IDENTITY, ILL_3X3],
                         ids=["w2", "scalar", "identity", "ill-3x3"])
def test_homogeneous_search_does_not_refine_along_the_dilation(weight, functional):
    # A power matrix is scored once, at its anchored shape, and the
    # estimate is the value of that shape on the equilibrated weight.
    result = estimate_a2(weight, functional)
    assert (result.argmax, result.evaluations) == (Interval(0.0, 2.0), 1)
    twin = as_type1(weight) if weight is IDENTITY else weight
    func = dict(zip(("trace", "norm"), FUNCTIONALS))[functional]
    assert result.estimate == func(*averages(twin.equilibrated)(shape(result.argmax)))


def a2_power_matrices(rng, count):
    """count A2 power matrices, n = 1..8 in turn, each n in four kinds:
    real, complex, complex with eigenvalues across 8 decades, and sparse;
    about a third of the diagonal exponents are within 1e-2..1e-6 of -1
    or 1, the rest multiples of 1/100."""
    for k in range(count):
        n, kind = 1 + k % 8, (k // 8) % 4
        m = rng.standard_normal((n, n))
        if kind in (1, 2):
            m = m + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(m)
        a = (q * 10.0 ** rng.uniform(0.0, 8.0 if kind == 2 else 2.0, n)) @ q.conj().T
        if kind == 3:
            a = np.diag(rng.uniform(1.0, 4.0, n)) + np.triu(np.where(
                rng.random((n, n)) < 0.3, rng.uniform(-0.3, 0.3, (n, n)), 0.0), 1)
        near = [Fraction(int(s) * (10 ** e - 1), 10 ** e)
                for s, e in zip(rng.choice([-1, 1], n), rng.integers(2, 7, n))]
        exponents = [g if rng.random() < 0.3 else Fraction(int(rng.integers(-99, 100)), 100)
                     for g in near]
        yield build_type1((a + a.conj().T) / 2.0, exponents)


# origin-free shapes [t, 1]: t from 1e-9 up, and from 1 - 1e-6 down, 200 each
ORIGIN_FREE = np.concatenate([np.logspace(-9.0, -0.01, 200), 1.0 - np.logspace(-0.01, -6.0, 200)])


def test_no_origin_free_shape_beats_the_anchored_and_symmetric_ones():
    # Why a power matrix is scored at [0, 1] alone: on a dense grid of
    # origin-free shapes, none beats the better of [-1, 1] and [0, 1] by
    # more than the search's tie window, 1e-12 relative, and the estimate
    # is the value of [0, 1].
    ts = np.concatenate([[-1.0, 0.0], ORIGIN_FREE])
    for weight in a2_power_matrices(np.random.default_rng(20261020), 96):
        assert check_a2(weight).verdict == VERDICT_A2
        for functional in ("trace", "norm"):
            values = shape_scores(weight, functional)(ts)
            assert max(values[2:]) <= (1.0 + 1e-12) * max(values[:2]), (weight, functional)
            assert estimate_a2(weight, functional).estimate == values[1]


def a2_cube_weights(rng, count):
    """count A2 cube weights: type1a and type1b in turn, n = 1..4, d = 2
    and 3, real or complex coefficients with eigenvalues across up to 8
    decades; diagonal exponents are multiples of 1/100 inside their
    factor's range, (-1, 1) per coordinate, or (-d, d) for the radius."""
    for k in range(count):
        n, d, radial = 1 + k % 4, 2 + (k // 4) % 2, (k // 8) % 2 == 1
        m = rng.standard_normal((n, n))
        if (k // 16) % 2:
            m = m + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(m)
        a = (q * 10.0 ** rng.uniform(0.0, 8.0, n)) @ q.conj().T
        a = (a + a.conj().T) / 2.0

        def exponents(bound):
            return [Fraction(int(g), 100) for g in rng.integers(1 - 100 * bound, 100 * bound, n)]

        yield build_type1b(a, exponents(d), d) if radial else \
            build_type1a(a, [exponents(1) for _ in range(d)])


def test_no_shifted_cube_beats_the_cornered_one():
    # Why a cube weight is scored at the cornered unit cube alone: the
    # centered unit cube takes its value within the search's tie window,
    # 1e-12 relative, and the unit cubes shifted one and two sides out
    # along the diagonal stay below it, so the four-cube search the
    # estimate replaces reported the cornered cube and its value. Each
    # cube is averaged alone, on the equilibrated pair, as the estimate
    # averages the cornered one. The two cubes are equal in exact
    # arithmetic only: on a few weights of other seeds, radial ones and
    # ill-conditioned norms, rounding puts the centered cube up to 6.3e-12
    # away.
    for weight in a2_cube_weights(np.random.default_rng(20261020), 96):
        assert check_a2(weight).verdict == VERDICT_A2
        d = weight.d
        pair = averages(weight.equilibrated)
        cornered, centered, *shifted = (Cube((c,) * d, 1.0) for c in (0.0, -0.5, 1.0, 2.0))
        for func, functional in zip(FUNCTIONALS, ("trace", "norm")):
            value = func(*pair(cornered))
            assert func(*pair(centered)) == pytest.approx(value, rel=1e-12, abs=0.0), \
                (weight, functional)
            assert max(func(*pair(cube)) for cube in shifted) <= (1.0 + 1e-12) * value, \
                (weight, functional)
            assert estimate_a2(weight, functional).estimate == value


def mp_averages(weight, iv):
    """(<W>, <W^-1>) of weight on the interval iv at 40 digits (mpmath),
    from the closed form of the integral of |x|^e, with the exact inverse
    of its float coefficient."""
    mp = pytest.importorskip("mpmath")
    a, b = mp.mpf(iv.a), mp.mpf(iv.b)
    coeff = mp.matrix(weight.coeff.real.tolist())
    exps = weight.exponents[0]

    def average(m, sign):
        def power_average(e):
            s = sign * mp.mpf(e.numerator) / e.denominator + 1
            ends = b ** s + (-a) ** s if a < 0 else b ** s - a ** s
            return ends / (s * (b - a))
        return mp.matrix([[m[i, j] * power_average(exps[i][j]) for j in range(weight.n)]
                          for i in range(weight.n)])

    return average(coeff, 1), average(coeff ** -1, -1)


def mp_norm(weight, iv):
    """The norm functional of weight on the interval iv, from mp_averages,
    as the top eigenvalue of L^T <W^-1> L with <W> = L L^T."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        avg_w, avg_winv = mp_averages(weight, iv)
        low = mp.cholesky(avg_w)
        top = max(mp.eigsy(low.T * avg_winv * low, eigvals_only=True))
        return float(top)


def mp_norm_2x2(weight, iv):
    """The norm functional of a 2x2 weight on the interval iv without an
    eigensolver: the larger root (tau + sqrt(tau^2 - 4 det A det B)) / 2 of
    the characteristic polynomial of AB, tau = tr(AB), for A = <W> and
    B = <W^-1> from mp_averages."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        avg_w, avg_winv = mp_averages(weight, iv)
        tau = sum((avg_w * avg_winv)[i, i] for i in range(2))
        # the discriminant is (l1 - l2)^2, which rounds below 0 on the
        # far shapes, where <W><W^-1> is within (1 - t)^2 of I
        disc = tau ** 2 - 4 * mp.det(avg_w) * mp.det(avg_winv)
        return float((tau + mp.sqrt(max(disc, 0))) / 2)


def test_an_ill_balanced_norm_matches_its_closed_form_at_every_shape():
    # At half-length 1e-6 <W> of this weight carries diag(h^(g_i/2)) on
    # both sides, and cond(<W>) grew to about 5e6; at [t, 1] it stays near
    # cond(A), so the norm keeps its digits on every shape and at the
    # argmax
    ts = grid_shapes(fine_interval_config)
    for t, value in zip(ts, shape_scores(ILL_3X3, "norm")(ts)):
        assert value == pytest.approx(mp_norm(ILL_3X3, Interval(t, 1.0)), rel=1e-13, abs=0.0)
    result = estimate_a2(ILL_3X3, "norm")
    assert result.estimate == pytest.approx(mp_norm(ILL_3X3, shape(result.argmax)),
                                            rel=1e-13, abs=0.0)


@pytest.mark.parametrize("weight", [
    W2, build_type1(np.array([[2.0, -1.0], [-1.0, 3.0]]), ["-1/2", "1/3"])],
    ids=["w2", "2x2-half"])
def test_a_2x2_norm_matches_its_closed_form_at_every_shape(weight):
    # every one of the 50 default shapes, against the roots of a quadratic
    # in 40 digits: no code shared with the LAPACK route
    ts = grid_shapes(fine_interval_config)
    assert len(ts) == 50
    for t, value in zip(ts, shape_scores(weight, "norm")(ts)):
        assert value == pytest.approx(mp_norm_2x2(weight, Interval(t, 1.0)), rel=1e-13,
                                      abs=0.0), t
