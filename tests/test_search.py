"""Supremum search over the three-shape interval family."""

import math

import numpy as np
import pytest

from a2w.estimator import a2_functional_trace, average_symbolic
from a2w import search
from a2w.regions import Interval
from a2w.search import (SearchError, SupSearchConfig,
                        coarse_interval_config, fine_interval_config,
                        golden_max, run_interval_search)
from a2w.type1 import SymbolicPowerMatrix, symbolic_inverse


def scalar_objective(coeff, gamma):
    """<w>_I <1/w>_I for w = coeff |x|^gamma, as a 1x1 trace functional."""
    w = SymbolicPowerMatrix(np.array([[coeff]]), (((gamma,),),))
    winv = symbolic_inverse(w)
    return lambda iv: a2_functional_trace(average_symbolic(w, iv),
                                          average_symbolic(winv, iv))


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(-1.0, 3.0)
        assert iv.length == 4.0
        assert iv.halflength == 2.0
        assert iv.contains_zero()
        assert iv.near_endpoint_distance() == 1.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_anchored_interval_distance_zero(self):
        assert Interval(0.0, 5.0).near_endpoint_distance() == 0.0


class TestConfigs:
    def test_default_grid_shape(self):
        cfg = fine_interval_config()
        assert len(cfg.centers) == 99
        assert len(cfg.halflengths) == 49
        assert 0.0 in cfg.centers

    def test_coarse_grid_is_smaller(self):
        assert len(coarse_interval_config().centers) < len(
            fine_interval_config().centers)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupSearchConfig(centers=(), halflengths=(1.0,))
        with pytest.raises(ValueError):
            SupSearchConfig(centers=(0.0,), halflengths=(-1.0,))
        with pytest.raises(ValueError):
            SupSearchConfig(centers=(0.0,), halflengths=(1.0,), refine_rounds=-1)


class TestGoldenMax:
    def test_finds_parabola_peak(self):
        x, fx = golden_max(lambda t: -(t - 1.7) ** 2, 0.0, 4.0, 60)
        assert x == pytest.approx(1.7, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_monotone_function_ends_at_boundary(self):
        x, _ = golden_max(lambda t: t, 0.0, 1.0, 40)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        f = lambda t: math.sin(t)
        assert golden_max(f, 0.0, 3.0, 30) == golden_max(f, 0.0, 3.0, 30)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda t: -(t - 1.7) ** 2, 0.0, 4.0),
        (lambda t: t, 0.0, 1.0),
        (math.sin, 0.0, 3.0),
        (math.sin, -2.0, 9.0),
    ], ids=["parabola", "monotone", "sin", "sin-two-peaks"])
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4, 5, 7, 8, 13, 20, 30])
    def test_warm_sees_every_point_first_and_changes_nothing(self, f, lo, hi, rounds):
        # warm only fills a cache: the points f is called at, their values
        # and the result are those without warm, and each point was in an
        # earlier batch; a batch covers _LOOKAHEAD rounds
        def run(warm):
            seen = []

            def g(t):
                seen.append((t, f(t)))
                assert warm is None or t in warmed, t
                return f(t)

            return golden_max(g, lo, hi, rounds, warm=warm), seen

        warmed, batches = set(), []

        def warm(points):
            batches.append(len(points))
            warmed.update(points)

        assert run(warm) == run(None)
        depth = search._LOOKAHEAD
        assert len(batches) == math.ceil(rounds / depth)
        assert batches[0] == 2 + 2 ** (min(rounds, depth) + 1) - 2


class TestFamilyShapes:
    def test_no_strict_straddlers_evaluated(self):
        # every interval handed to the functional is symmetric, anchored,
        # or origin-free; asymmetric straddlers are excluded by design
        seen = []

        def f(iv: Interval) -> float:
            seen.append(iv)
            return 1.0 / (1.0 + iv.halflength)

        cfg = SupSearchConfig(centers=(0.0, 0.5, 1.0, 2.0, -1.0),
                              halflengths=(0.5, 1.0, 2.0), refine_rounds=3)
        run_interval_search(f, cfg, functional="probe")
        assert seen
        for iv in seen:
            straddles = iv.a < 0.0 < iv.b
            symmetric = straddles and abs(iv.a + iv.b) <= 1e-12 * iv.halflength
            assert not straddles or symmetric


class TestRunIntervalSearch:
    def test_scalar_power_objective_reaches_sup(self):
        res = run_interval_search(scalar_objective(1.0, "1/2"),
                                  fine_interval_config(), functional="probe")
        assert res.estimate == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert res.functional == "probe"
        # grid minus excluded straddlers, plus refinement evaluations
        assert res.evaluations > 2000

    def test_estimate_is_recomputable_at_argmax(self):
        product = scalar_objective(1.0, "-1/3")
        res = run_interval_search(product, coarse_interval_config(),
                                  functional="probe")
        assert product(res.argmax) == res.estimate

    def test_tie_break_prefers_anchored(self):
        # constant functional: everything ties; the anchored shape
        # (near endpoint at 0) must win deterministically
        cfg = SupSearchConfig(centers=(0.0, 1.0, 3.0), halflengths=(1.0, 2.0),
                              refine_rounds=0)
        res = run_interval_search(lambda iv: 5.0, cfg, functional="probe")
        assert res.argmax.near_endpoint_distance() == 0.0

    def test_ulp_noise_on_ties_does_not_steer_refinement(self):
        # a functional of the length alone ties [-1, 1], [0, 2] and [1, 3];
        # nudging the symmetric value by one ulp either way must leave the
        # incumbent, and so every refined interval, unchanged
        cfg = SupSearchConfig(centers=(0.0, 1.0, 2.0), halflengths=(1.0, 2.0),
                              refine_rounds=6)

        def refined(direction):
            seen = []

            def f(iv):
                seen.append(iv)
                val = 1.0 / (1.0 + (math.log(iv.length) - 1.0) ** 2)
                return math.nextafter(val, direction) if iv.a == -iv.b else val

            run_interval_search(f, cfg, functional="probe")
            return seen

        up, down = refined(math.inf), refined(-math.inf)
        assert up == down
        assert all(iv.a == 0.0 for iv in up[5:])  # anchored refinement

    def test_nonfinite_objective_raises(self):
        cfg = SupSearchConfig(centers=(1.0,), halflengths=(0.5,), refine_rounds=0)
        with pytest.raises(SearchError):
            run_interval_search(lambda iv: math.nan, cfg, functional="probe")

    def test_repeat_runs_identical(self):
        product = scalar_objective(2.0, "2/3")
        cfg = coarse_interval_config()
        r1 = run_interval_search(product, cfg, "probe")
        r2 = run_interval_search(product, cfg, "probe")
        assert r1 == r2

