"""Benchmark-side reference checks for op outputs.

Every reference is computed here from the spec data the generator drew,
with closed forms and numpy.linalg, never from a2w's own output. A check
returns a list of violation strings; an empty list means the output passed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Floors (trace >= n, norm >= 1) and closed-form symbolic bounds hold to rounding.
_EXACT_RTOL = 1e-9
# type2 constants run at the CLI's default quadrature tolerance.
_QUAD_RTOL = 1e-6
_SLOPE_ATOL = 0.02


def _scalar_constant(g: Fraction) -> float:
    """1/(1 - g^2): the scalar characteristic of |x|^g over the search family."""
    return 1.0 / (1.0 - float(g) ** 2)


def _floor(estimate: float, functional: str, n: int) -> list[str]:
    floor = float(n) if functional == "trace" else 1.0
    if estimate < floor * (1.0 - _EXACT_RTOL):
        return [f"{functional} estimate {estimate!r} below its floor {floor}"]
    return []


def family_bound(coeff, exponents) -> float:
    """sup_ij |a_ij cof_ij| / |det A| * sum_ij 1/(1 - e_ij^2), via numpy.linalg."""
    a = np.array(coeff, dtype=complex)
    n = a.shape[0]
    det = abs(np.linalg.det(a))
    sup = 0.0
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof = abs(np.linalg.det(minor)) if n > 1 else 1.0
            sup = max(sup, abs(a[i, j]) * cof / det)
    return sup * sum(_scalar_constant(e) for row in exponents for e in row)


def _constant(oracle: dict, payload: dict) -> list[str]:
    est = float(payload["estimate"])
    functional = oracle.get("functional", "trace")
    check = oracle["check"]
    if check == "scalar":
        ref = _scalar_constant(oracle["gamma"])
        out = _floor(est, functional, 1)
        if not (0.99 * ref <= est <= ref * (1.0 + _EXACT_RTOL)):
            out.append(f"scalar estimate {est!r} outside [0.99, 1] x {ref!r}")
        return out
    if check == "family_bound":
        n = len(oracle["coeff"])
        out = _floor(est, functional, n)
        bound = family_bound(oracle["coeff"], oracle["exponents"])
        if est > bound * (1.0 + _EXACT_RTOL):
            out.append(f"estimate {est!r} above the family bound {bound!r}")
        return out
    if check == "type2":
        alphas, gammas = oracle["alphas"], oracle["gammas"]
        n = len(alphas)
        out = _floor(est, functional, n)
        if oracle["unitary"] == "identity":
            bound = sum(_scalar_constant(g) for g in gammas)
            if est > bound * (1.0 + _QUAD_RTOL):
                out.append(f"identity estimate {est!r} above {bound!r}")
            return out
        ref = n / (1.0 - float(gammas[0]) ** 2)
        bound = ref * max(alphas) / min(alphas)
        if est > bound * (1.0 + _QUAD_RTOL):
            out.append(f"rotation estimate {est!r} above {bound!r}")
        if max(alphas) == min(alphas) and est < 0.99 * ref:
            out.append(f"equal-alpha rotation estimate {est!r} below 0.99 x {ref!r}")
        return out
    if check == "floor":
        return _floor(est, functional, oracle["n"])
    raise ValueError(f"unknown constant check {check!r}")


def check(oracle: dict, payload: dict) -> list[str]:
    """Violations of the op's reference checks by its parsed --json payload."""
    kind = oracle["check"]
    if kind == "divergence":
        want = float(oracle["gamma2"] - oracle["gamma1"]) / 2.0
        slope = float(payload["fitted_slope"])
        if abs(slope - want) > _SLOPE_ATOL:
            return [f"fitted slope {slope!r} not within {_SLOPE_ATOL} of {want!r}"]
        return []
    if kind == "verify":
        return [f"verify property failed: {r['module']}/{r['property']}"
                for r in payload["results"] if not r["passed"]]
    if kind == "verdict":
        got = payload["report"]["verdict"]
        if got != oracle["verdict"]:
            return [f"verdict {got!r}, built to be {oracle['verdict']!r}"]
        return []
    return _constant(oracle, payload)
