"""The regions an A2 characteristic is a supremum over, and the record
of one estimate; this module imports no other a2w module.

The interval families (FAMILIES) are shapes relative to the origin:
symmetric (center 0), anchored (one endpoint exactly 0) and origin-free.
Intervals with 0 strictly inside and off center are left out: the
closed-form constants this package certifies against do not control
<w><1/w> on them. The cube families (CUBE_FAMILIES) are the cubes
cornered at or centered on the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FAMILIES", "CUBE_FAMILIES", "Interval", "Cube", "Estimate"]

FAMILIES = ("symmetric", "anchored", "origin-free")
CUBE_FAMILIES = ("cornered", "centered")
_DIMS = (2, 3)  # the dimensions of cubes


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

    def to_payload(self) -> dict:
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube in R^d, d in {2, 3}: lower corner and one side.

    Storing one side length makes the equal-sides requirement structural;
    rectangles cannot be expressed.
    """

    lower: tuple[float, ...]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(c) for c in self.lower))
        object.__setattr__(self, "side", float(self.side))
        if len(self.lower) not in _DIMS:
            raise ValueError("cubes are supported in dimensions 2 and 3")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError("cube side must be positive and finite")
        if any(not math.isfinite(c) for c in self.lower):
            raise ValueError("cube corner must be finite")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(c + self.side for c in self.lower)

    @property
    def volume(self) -> float:
        return self.side ** self.d

    def interval(self, c: int) -> Interval:
        return Interval(self.lower[c], self.lower[c] + self.side)

    def to_payload(self) -> dict:
        return {"lower": list(self.lower), "side": self.side}


@dataclass(frozen=True)
class Estimate:
    """A functional's value at argmax, a lower bound of its supremum over
    the region families of scope. A power matrix takes its one value on
    every region of its scope; a rotation's is the maximum its search
    found on config, its search.SupSearchConfig grid (None for power
    matrices). quadrature_tol is a radial weight's relative error per cube
    average, None where the averages are closed form."""

    estimate: float
    argmax: Interval | Cube
    evaluations: int
    functional: str
    scope: tuple[str, ...]
    config: object = None  # a search.SupSearchConfig, which imports this module
    quadrature_tol: float | None = None
