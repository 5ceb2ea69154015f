"""Supremum search over interval families.

Candidate intervals are parametrized by (center, half-length) on
logarithmic grids. A power matrix's functionals, an identity Type 2
weight's among them, are scale invariant, so it searches one size per
shape (estimator.search_config); a rotation's are not, and it scans the
whole grid. The family (FAMILIES) deliberately contains only three
interval shapes relative to the origin: symmetric (center 0), anchored
(one endpoint exactly 0), and origin-free. Asymmetric intervals with 0
strictly inside are excluded; on those the scalar product <w><1/w> is not
controlled by the closed-form per-exponent constants this package
certifies against, so admitting them would break the certified upper
bounds. Estimates are honest lower bounds of the true supremum either way,
since only real intervals are evaluated.

run_interval_search calls evaluate once per interval, grid first, in
scan order. The estimator's evaluate functions compute the whole grid
as one stack on that first call (estimator._grid_scan), so the search's
counts, order and tie rule do not see the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "Interval",
    "SupSearchConfig",
    "SupSearchResult",
    "SearchError",
    "default_interval_config",
    "coarse_interval_config",
    "interval_grid",
    "run_interval_search",
    "golden_max",
]

FAMILIES = ("symmetric", "anchored", "origin-free")
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TIE_RTOL = 1e-12


class SearchError(RuntimeError):
    """Search could not produce a finite estimate."""


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"degenerate interval [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def halflength(self) -> float:
        return (self.b - self.a) / 2.0

    def contains_zero(self) -> bool:
        return self.a <= 0.0 <= self.b

    def near_endpoint_distance(self) -> float:
        """Distance from 0 to the endpoint closer to it."""
        return min(abs(self.a), abs(self.b))


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


def default_interval_config() -> SupSearchConfig:
    """Default family: centers {0} and +/- logspace(1e-6, 1e6, 49), same half-lengths."""
    mags = _log_grid(1e-6, 1e6, 49)
    centers = (0.0,) + mags + tuple(-m for m in mags)
    return SupSearchConfig(centers=centers, halflengths=mags, refine_rounds=20)


def coarse_interval_config() -> SupSearchConfig:
    """Reduced grid: centers {0} and +/- logspace(1e-3, 1e3, 13), same
    half-lengths, 195 family intervals. It is the default for rotations,
    whose functionals are not scale invariant: they scan the whole grid,
    where a power matrix scans one row of the default grid."""
    mags = _log_grid(1e-3, 1e3, 13)
    centers = (0.0,) + mags + tuple(-m for m in mags)
    return SupSearchConfig(centers=centers, halflengths=mags, refine_rounds=8)


@dataclass(frozen=True)
class SupSearchResult:
    """Searched maximum; argmax is an Interval, or a multivar.Cube for cubes."""

    estimate: float
    argmax: Interval
    evaluations: int
    functional: str


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


def golden_max(f, lo: float, hi: float, rounds: int):
    """Golden-section maximization of f on [lo, hi] with a fixed round budget."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(rounds):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _maximize(candidates, evaluate, refine, tie_key,
              functional: str) -> SupSearchResult:
    """Grid scan, refinement and canonical argmax shared by every search.

    Every candidate region is evaluated in order; refine(scored, incumbent)
    may then evaluate more regions through scored, and incumbent() returns
    the region of the current maximum. Values within 1e-12 relative
    of the maximum tie; ties go to the smallest tie_key, then to the
    earliest evaluation. The incumbent and the final argmax follow this
    one rule, so a last-ulp difference between tied values cannot steer
    refinement. An exception raised while evaluating a region carries
    that region as its ``region`` attribute.
    """
    if not candidates:
        raise SearchError("candidate family is empty")
    record: list[tuple[float, int, object]] = []

    def scored(region) -> float:
        try:
            val = float(evaluate(region))
        except Exception as exc:
            exc.region = region
            raise
        if not math.isfinite(val):
            raise SearchError(f"functional returned non-finite value on {region}")
        record.append((val, len(record), region))
        return val

    def best():
        top = max(v for v, _, _ in record)
        floor = top * (1.0 - _TIE_RTOL) if top > 0 else top
        return min((t for t in record if t[0] >= floor),
                   key=lambda t: (tie_key(t[2]), t[1]))

    for region in candidates:
        scored(region)
    refine(scored, lambda: best()[2])

    val, _, argmax = best()
    return SupSearchResult(estimate=val, argmax=argmax,
                           evaluations=len(record), functional=functional)


def run_interval_search(evaluate, config: SupSearchConfig,
                        functional: str) -> SupSearchResult:
    """Maximize evaluate(Interval) over the configured family.

    Grid scan, then golden-section refinement along the one-parameter
    subfamily through the incumbent (scale direction, and the offset
    direction for origin-free intervals). Ties within 1e-12 relative are
    resolved deterministically toward the interval whose near endpoint is
    closest to 0 in units of its half-length, then toward the earliest
    evaluation. The reported estimate is the functional value at the
    reported argmax, recomputable exactly.
    """
    rounds = config.refine_rounds

    def refine(scored, incumbent) -> None:
        if rounds == 0:
            return
        best_iv = incumbent()
        span = math.log(4.0)
        if best_iv.a == 0.0 or best_iv.b == 0.0:
            sign = 1.0 if best_iv.b > 0.0 else -1.0
            t0 = max(abs(best_iv.a), abs(best_iv.b))

            def along(logt: float) -> float:
                t = math.exp(logt)
                iv = Interval(0.0, t) if sign > 0 else Interval(-t, 0.0)
                return scored(iv)

            golden_max(along, math.log(t0) - span, math.log(t0) + span, rounds)
        elif best_iv.contains_zero():
            h0 = best_iv.halflength

            def along(logh: float) -> float:
                h = math.exp(logh)
                return scored(Interval(-h, h))

            golden_max(along, math.log(h0) - span, math.log(h0) + span, rounds)
        else:
            c0 = (best_iv.a + best_iv.b) / 2.0
            h0 = best_iv.halflength

            def along_scale(logh: float) -> float:
                h = min(math.exp(logh), abs(c0))  # clamp keeps the family
                return scored(Interval(c0 - h, c0 + h))

            golden_max(along_scale,
                        math.log(h0) - span,
                        min(math.log(h0) + span, math.log(abs(c0))),
                        rounds)
            best_iv = incumbent()
            if not best_iv.contains_zero():
                c1 = (best_iv.a + best_iv.b) / 2.0
                h1 = best_iv.halflength

                def along_offset(logc: float) -> float:
                    c = math.copysign(max(math.exp(logc), h1), c1)
                    return scored(Interval(c - h1, c + h1))

                golden_max(along_offset,
                            max(math.log(abs(c1)) - span, math.log(h1)),
                            math.log(abs(c1)) + span,
                            rounds)

    return _maximize(interval_grid(config), evaluate, refine,
                    lambda iv: iv.near_endpoint_distance() / iv.halflength,
                    functional)
