"""Supremum search over interval families.

Candidate intervals are parametrized by (center, half-length) on
logarithmic grids; run_interval_search scans a rotation's whole grid,
then refines its incumbent. A power matrix's functionals, an identity
Type 2 weight's among them, see only an interval's shape, so
estimator.estimate_a2 scores it once, at its anchored shape, as it
scores cubes at the cornered unit cube.
The grid holds the three families of regions.FAMILIES, the scope of the
regions.Estimate it returns: a lower bound, as only real intervals count.

run_interval_search calls evaluate once per interval, grid first, in
scan order. It hands its warm function the whole grid before the scan,
and each golden_max lookahead tree of the refinement intervals before
they are visited; the estimator's warm function scores each as one
stack (estimator._value_cache), so the search's counts, order and tie
rule do not see the batching.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .regions import FAMILIES, Estimate, Interval

__all__ = [
    "SupSearchConfig",
    "SearchError",
    "fine_interval_config",
    "coarse_interval_config",
    "interval_grid",
    "run_interval_search",
    "golden_max",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# rounds of golden_max whose reachable points are warmed as one batch
_LOOKAHEAD = 4
_TIE_RTOL = 1e-12


class SearchError(RuntimeError):
    """Search could not produce a finite estimate."""


@dataclass(frozen=True)
class SupSearchConfig:
    """Grid and refinement budget for the supremum search."""

    centers: tuple[float, ...]
    halflengths: tuple[float, ...]
    refine_rounds: int = 20

    def __post_init__(self):
        if not self.centers or not self.halflengths:
            raise ValueError("empty search grid")
        if any(not math.isfinite(c) for c in self.centers):
            raise ValueError("centers must be finite")
        if any(h <= 0 or not math.isfinite(h) for h in self.halflengths):
            raise ValueError("half-lengths must be positive and finite")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")


def _log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    return tuple(float(x) for x in np.logspace(math.log10(lo), math.log10(hi), count))


@functools.cache
def fine_interval_config() -> SupSearchConfig:
    """Fine grid: centers {0} and +/- logspace(1e-6, 1e6, 49), same half-lengths."""
    mags = _log_grid(1e-6, 1e6, 49)
    centers = (0.0,) + mags + tuple(-m for m in mags)
    return SupSearchConfig(centers=centers, halflengths=mags, refine_rounds=20)


@functools.cache
def coarse_interval_config() -> SupSearchConfig:
    """Reduced grid: centers {0} and +/- logspace(1e-3, 1e3, 13), same
    half-lengths, 195 family intervals: the default for rotations, whose
    functionals are not scale invariant."""
    mags = _log_grid(1e-3, 1e3, 13)
    centers = (0.0,) + mags + tuple(-m for m in mags)
    return SupSearchConfig(centers=centers, halflengths=mags, refine_rounds=8)


def _candidate(center: float, halflength: float) -> Interval | None:
    """Interval for a (center, half-length) pair, or None if outside the family."""
    if center == 0.0:
        return Interval(-halflength, halflength)
    if abs(center) < halflength:
        return None  # asymmetric straddler, not in the family
    # abs(center) == halflength is anchored: the difference is exact, so
    # one endpoint is exactly 0.0
    return Interval(center - halflength, center + halflength)


def interval_grid(config: SupSearchConfig) -> list[Interval]:
    """The family's intervals on config's grid, in scan order: centers
    outer, half-lengths inner."""
    grid = []
    for c in config.centers:
        for h in config.halflengths:
            iv = _candidate(c, h)
            if iv is not None:
                grid.append(iv)
    return grid


def _reachable(a: float, b: float, c: float, d: float, depth: int) -> list[float]:
    """The points golden_max's next depth rounds can visit from the bracket
    [a, b] with probes c < d, by the loop's own expressions: a binary tree
    of 2^(depth + 1) - 2 points, each level's two children first."""
    if depth == 0:
        return []
    c1 = d - _INVPHI * (d - a)  # fc >= fd: the bracket becomes [a, d]
    d1 = c + _INVPHI * (b - c)  # fc < fd: the bracket becomes [c, b]
    return [c1, d1, *_reachable(a, d, c1, c, depth - 1),
            *_reachable(c, b, d, d1, depth - 1)]


def golden_max(f, lo: float, hi: float, rounds: int, warm=None):
    """Golden-section maximization of f on [lo, hi] with a fixed round budget.

    warm(points), when given, is called before the first evaluation with
    the two starting points and every point the first _LOOKAHEAD rounds
    can visit, then every _LOOKAHEAD rounds with the points the next ones
    can visit. It may only fill a cache that f reads: the points f is
    called at, in their order, and the result do not depend on warm.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    if warm is not None:
        warm([c, d, *_reachable(a, b, c, d, min(rounds, _LOOKAHEAD))])
    fc, fd = f(c), f(d)
    for r in range(rounds):
        if warm is not None and r and r % _LOOKAHEAD == 0:
            warm(_reachable(a, b, c, d, min(rounds - r, _LOOKAHEAD)))
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _scored(evaluate, region) -> float:
    """evaluate(region) as a finite float. An exception raised while
    evaluating carries region as its ``region`` attribute; a value that
    is not finite raises SearchError naming the region."""
    try:
        val = float(evaluate(region))
    except Exception as exc:
        exc.region = region
        raise
    if not math.isfinite(val):
        raise SearchError(f"functional returned non-finite value on {region}")
    return val


def run_interval_search(evaluate, config: SupSearchConfig, functional: str, *,
                        warm=None) -> Estimate:
    """Maximize evaluate(Interval) over the configured family.

    Grid scan, then config.refine_rounds rounds of golden-section
    refinement along the one-parameter subfamily through the incumbent:
    the scale direction, and the offset direction for origin-free
    intervals. Ties within 1e-12 relative are resolved deterministically
    toward the interval whose near endpoint is closest to 0 in units of
    its half-length, then toward the earliest evaluation. The reported
    estimate is the functional value at the reported argmax, recomputable
    exactly. An evaluation that fails raises on its interval (_scored).

    warm(intervals), when given, receives the grid before the scan and
    the intervals each golden_max lookahead can refine to before they are
    evaluated, to score each batch in one stack; it must not change what
    evaluate returns.
    """
    grid = interval_grid(config)
    if not grid:
        raise SearchError("candidate family is empty")
    if warm is not None:
        warm(grid)
    record: list[tuple[float, int, Interval]] = []

    def scored(iv: Interval) -> float:
        val = _scored(evaluate, iv)
        record.append((val, len(record), iv))
        return val

    def best() -> tuple[float, int, Interval]:
        """The record of the maximum under the tie rule, which the incumbent
        and the final argmax share: a last-ulp difference between tied
        values cannot steer refinement."""
        top = max(v for v, _, _ in record)
        floor = top * (1.0 - _TIE_RTOL) if top > 0 else top
        return min((t for t in record if t[0] >= floor),
                   key=lambda t: (t[2].near_endpoint_distance() / t[2].halflength, t[1]))

    rounds = config.refine_rounds

    def golden(region, lo: float, hi: float) -> None:
        """golden_max of scored(region(p)) over p in [lo, hi]; the
        lookahead warms the regions that are valid intervals."""
        def regions(points):
            out = []
            for p in points:
                try:
                    out.append(region(p))
                except (ArithmeticError, ValueError):
                    pass  # raised again if the search visits it
            return out

        golden_max(lambda p: scored(region(p)), lo, hi, rounds,
                   warm=None if warm is None else lambda ps: warm(regions(ps)))

    for iv in grid:
        scored(iv)
    best_iv = best()[2]
    span = math.log(4.0)
    if rounds and 0.0 in (best_iv.a, best_iv.b):
        t0 = best_iv.b or best_iv.a  # the far endpoint, signed

        def along(logt: float) -> Interval:
            t = math.copysign(math.exp(logt), t0)
            return Interval(min(0.0, t), max(0.0, t))

        golden(along, math.log(abs(t0)) - span, math.log(abs(t0)) + span)
    elif rounds:
        # the scale about a fixed center, clamped to keep the family; a
        # symmetric interval (center 0) has no clamp and no offset
        c0 = (best_iv.a + best_iv.b) / 2.0
        h0 = best_iv.halflength
        cap = abs(c0) or math.inf

        def along_scale(logh: float) -> Interval:
            h = min(math.exp(logh), cap)
            return Interval(c0 - h, c0 + h)

        golden(along_scale, math.log(h0) - span, min(math.log(h0) + span, math.log(cap)))
        best_iv = best()[2]
        if not best_iv.contains_zero():
            c1 = (best_iv.a + best_iv.b) / 2.0
            h1 = best_iv.halflength

            def along_offset(logc: float) -> Interval:
                c = math.copysign(max(math.exp(logc), h1), c1)
                return Interval(c - h1, c + h1)

            golden(along_offset, max(math.log(abs(c1)) - span, math.log(h1)),
                   math.log(abs(c1)) + span)

    val, _, argmax = best()
    return Estimate(estimate=val, argmax=argmax, evaluations=len(record),
                    functional=functional, scope=FAMILIES, config=config)
