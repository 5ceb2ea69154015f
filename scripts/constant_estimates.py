"""Estimate A2 characteristics for a gallery of built-in weights.

Each row decides membership exactly, then (for members) estimates the
characteristic by supremum search and prints the certified upper bound
when one is available. Scalar weights also get the closed form
1 / (1 - gamma^2) so the search accuracy is visible at a glance.

A power matrix on the line is scored at its anchored shape, one on
cubes at the unit cube cornered at the origin; the rotation searches its
default (coarse) interval grid.

Run:  python3 scripts/constant_estimates.py [--functional trace|norm]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from a2w.estimator import estimate_a2
from a2w.multivar import build_type1b, estimate_a2_cubes
from a2w.scalar_power import scalar_closed_form_constant
from a2w.type1 import a2_upper_bound, build_type1, check_a2
from a2w.type2 import Type2Weight, decide_a2


@dataclass
class GalleryConfig:
    functional: str = "trace"


def gallery(cfg: GalleryConfig) -> None:
    rows = []

    scalar = build_type1(np.array([[1.0]]), ["1/2"])
    est = estimate_a2(scalar, functional=cfg.functional)
    rows.append(("scalar |x|^(1/2)", check_a2(scalar).verdict, est.estimate,
                 a2_upper_bound(scalar), scalar_closed_form_constant("1/2")))

    w2 = build_type1(np.array([[5.0, 3.0], [3.0, 2.0]]), ["1/2", "-2/3"])
    est = estimate_a2(w2, functional=cfg.functional)
    rows.append(("2x2 power matrix", check_a2(w2).verdict, est.estimate,
                 a2_upper_bound(w2), None))

    w3 = build_type1(
        np.array([[4.0, 1.0, 2.0], [1.0, 2.0, -1.0], [2.0, -1.0, 3.0]]),
        ["3/4", "-3/4", "1/2"],
    )
    est = estimate_a2(w3, functional=cfg.functional)
    rows.append(("3x3 power matrix", check_a2(w3).verdict, est.estimate,
                 a2_upper_bound(w3), None))

    rot = Type2Weight(alphas=(1.0, 2.0), gammas=("1/2", "1/2"), unitary="rotation2d")
    est = estimate_a2(rot, functional=cfg.functional)
    rows.append(("rotation, equal exponents", decide_a2(rot).verdict, est.estimate,
                 None, None))

    radial = build_type1b(np.array([[2.0]]), ["1/2"], d=2)
    est = estimate_a2_cubes(radial, functional=cfg.functional)
    rows.append(("planar radial ||x||^(1/2)", check_a2(radial).verdict,
                 est.estimate, None, None))

    hdr = f"{'weight':<28} {'verdict':<10} {'estimate':>12} {'cert. bound':>12} {'closed form':>12}"
    print(hdr)
    print("-" * len(hdr))
    for name, verdict, estimate, bound, closed in rows:
        b = f"{bound:.6g}" if bound is not None else "-"
        c = f"{closed:.6g}" if closed is not None else "-"
        print(f"{name:<28} {verdict:<10} {estimate:>12.6g} {b:>12} {c:>12}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--functional", choices=("trace", "norm"), default="trace")
    args = ap.parse_args()
    gallery(GalleryConfig(functional=args.functional))


if __name__ == "__main__":
    main()
