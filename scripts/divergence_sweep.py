"""Sweep exponent gaps and measure how fast the oscillating weight leaves A2.

For each (gamma1, gamma2) pair the experiment averages the mixed diagonal
entry w11(x) = |x|^g1 cos^2 x + |x|^g2 sin^2 x and its reciprocal over the
windows [2 pi n, 2 pi n + pi], then fits log(product) against log(n).
Theory says the slope is (g2 - g1) / 2; the table reports both plus the
gap, so widening the exponent spread is visibly linear in the fit.

Run:  python3 scripts/divergence_sweep.py [--out sweep.csv]
"""

from __future__ import annotations

import argparse
import csv
from dataclasses import dataclass
from fractions import Fraction

from a2w.type2 import divergence_experiment, fit_loglog_slope, logspaced_ints


@dataclass
class SweepConfig:
    gamma_pairs: tuple[tuple[str, str], ...] = (
        ("0", "1/4"),
        ("0", "1/2"),
        ("0", "3/4"),
        ("-1/4", "1/4"),
        ("-1/2", "1/2"),
        ("-3/4", "3/4"),
    )
    n_min: int = 100
    n_max: int = 100000
    points: int = 13
    out_csv: str | None = None

    def n_values(self) -> list[int]:
        return logspaced_ints(self.n_min, self.n_max, self.points)


def run_sweep(cfg: SweepConfig) -> list[dict]:
    records = []
    for g1, g2 in cfg.gamma_pairs:
        rows = divergence_experiment(g1, g2, cfg.n_values())
        slope = fit_loglog_slope(rows)
        theory = float(Fraction(g2) - Fraction(g1)) / 2.0
        records.append(
            {
                "gamma1": g1,
                "gamma2": g2,
                "fitted_slope": slope,
                "theoretical_slope": theory,
                "abs_error": abs(slope - theory),
                "product_at_nmax": rows[-1].product,
            }
        )
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="optional CSV path for the summary table")
    ap.add_argument("--points", type=int, default=13)
    args = ap.parse_args()

    cfg = SweepConfig(points=args.points, out_csv=args.out)
    records = run_sweep(cfg)

    hdr = f"{'gamma1':>8} {'gamma2':>8} {'fit':>10} {'theory':>10} {'|err|':>10} {'P(n_max)':>12}"
    print(hdr)
    print("-" * len(hdr))
    for r in records:
        print(
            f"{r['gamma1']:>8} {r['gamma2']:>8} {r['fitted_slope']:>10.5f} "
            f"{r['theoretical_slope']:>10.5f} {r['abs_error']:>10.2e} "
            f"{r['product_at_nmax']:>12.5g}"
        )

    if cfg.out_csv:
        with open(cfg.out_csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(records[0]))
            w.writeheader()
            w.writerows(records)
        print(f"wrote {cfg.out_csv}")


if __name__ == "__main__":
    main()
