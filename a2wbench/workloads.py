"""Seeded op lists for the four benchmark workloads.

Every workload is a fixed list of CLI invocations ("ops") built from the
seed alone. The list has a fixed shape per workload (kinds, orders,
functionals and grids sit in fixed slots), and the seed draws the data in
each slot: exponents, coefficients, eigenvalue scales and divergence pairs.
Fixing the slots keeps the cost of one pass close across seeds, so a
metric moves with the program rather than with the draw.

Every spec is well-formed and every ``constant`` spec is A2, so every op
is expected to exit 0. Each op carries the data the benchmark-side
oracles need (see oracles.py). Nothing here imports a2w: the program only
ever sees the spec files written by ``build``.

Ops marked ``known_defect`` reproduce a defect of the program at this
commit: they fail or break an oracle on every seed. They are not part of
the timed mix; run.py runs each once before the timed passes and reports
whether the defect still shows, so that a fix is seen as a change.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("interval-symbolic", "interval-quadrature", "cube", "decide-verify")

# The README's 2x2 example, kept verbatim in the symbolic workload.
README_W2 = {"kind": "type1", "coeff": [[5, 3], [3, 2]],
             "diag_exponents": ["1/2", "-2/3"]}

# Radial specs that fail at this commit (see the cube workload).
RADIAL_SQRT_1X1 = {"kind": "type1b", "coeff": [[1]], "d": 3,
                   "diag_exponents": ["1/2"]}
RADIAL_2X2 = {"kind": "type1b", "coeff": [[2, 1], [1, 2]], "d": 3,
              "diag_exponents": ["1/2", "-1/2"]}


@dataclass
class Op:
    """One CLI invocation plus what the benchmark expects of it."""

    label: str
    argv: list[str]
    oracle: dict = field(default_factory=dict)
    known_defect: str = ""


# ---------------------------------------------------------------- data draws

def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rational(rng: random.Random, bound: int = 1, qmax: int = 12,
              lo: Fraction | None = None, hi: Fraction | None = None) -> Fraction:
    """A rational p/q with q <= qmax strictly inside (lo, hi), default (-bound, bound)."""
    lo = Fraction(-bound) if lo is None else lo
    hi = Fraction(bound) if hi is None else hi
    while True:
        q = rng.randint(2, qmax)
        p = rng.randint(int(lo * q) - 1, int(hi * q) + 1)
        x = Fraction(p, q)
        if lo < x < hi:
            return x


def _near_one(rng: random.Random) -> Fraction:
    q = rng.randint(10, 12)
    return Fraction(rng.choice((-1, 1)) * (q - 1), q)


def _nonzero(rng: random.Random, **bounds) -> Fraction:
    while True:
        x = _rational(rng, **bounds)
        if x != 0:
            return x


def _diag_exponents(rng: random.Random, n: int) -> list[Fraction]:
    """n >= 2 exponents, one near +-1, whose midpoints (g_i + g_j)/2 are distinct and non-zero.

    A zero or repeated midpoint makes entries constant or alike, and such a
    draw cut an op's time by up to 40 %: the cost of a pass would follow the
    seed rather than the program.
    """
    while True:
        diag = [_rational(rng) for _ in range(n)]
        diag[rng.randrange(n)] = _near_one(rng)
        mids = {(diag[i] + diag[j]) / 2 for i in range(n) for j in range(i, n)}
        if len(mids) == n * (n + 1) // 2 and 0 not in mids:
            return diag


def _pd_matrix(rng: random.Random, n: int, complex_entries: bool = False):
    """Hermitian B B* + I/2 rounded to 4 decimals: positive definite with margin."""
    b = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if complex_entries else 0.0)
          for _ in range(n)] for _ in range(n)]
    a = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = sum(b[i][k] * b[j][k].conjugate() for k in range(n))
            v = complex(round(v.real, 4), round(v.imag, 4))
            if i == j:
                v = complex(v.real + 0.5, 0.0)
            a[i][j] = v
            a[j][i] = v.conjugate()
    return a


def _json_matrix(a) -> list:
    return [[v.real if v.imag == 0 else [v.real, v.imag] for v in row] for row in a]


def _not_pd(a):
    """Flip the first diagonal entry negative: leading minor 1 fails."""
    out = [row[:] for row in a]
    out[0][0] = complex(-abs(out[0][0].real), 0.0)
    return out


def _midpoint(diag) -> list[list[Fraction]]:
    return [[(gi + gj) / 2 for gj in diag] for gi in diag]


# ---------------------------------------------------------------- spec + op

class _OpList:
    def __init__(self, spec_dir: str):
        self.spec_dir = spec_dir
        self.ops: list[Op] = []

    def add(self, label: str, argv: list[str], spec: dict | None = None,
            known_defect: str = "", **oracle) -> None:
        if spec is not None:
            path = os.path.join(self.spec_dir, f"op{len(self.ops):03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            argv = [argv[0], path] + argv[1:]
        self.ops.append(Op(label=label, argv=argv, oracle=oracle,
                           known_defect=known_defect))


def _type1_spec(a, diag, raw: bool = False) -> dict:
    if raw:
        return {"kind": "type1_raw", "coeff": _json_matrix(a),
                "exponents": [[_fmt(e) for e in row] for row in _midpoint(diag)]}
    return {"kind": "type1", "coeff": _json_matrix(a),
            "diag_exponents": [_fmt(g) for g in diag]}


def _symbolic(b: _OpList, rng: random.Random, tiny: bool) -> None:
    def constant(label, spec, coeff, diag, functional):
        b.add(f"constant {label} {functional}",
              ["constant", "--json", "--functional", functional], spec,
              check="family_bound", functional=functional,
              coeff=[[complex(v) for v in row] for row in coeff],
              exponents=_midpoint(diag))

    w2 = [[complex(5), complex(3)], [complex(3), complex(2)]]
    constant("type1 readme-w2", README_W2, w2, [Fraction(1, 2), Fraction(-2, 3)], "trace")
    for functional, gamma in (("trace", _near_one(rng)), ("norm", _nonzero(rng))):
        coeff = round(rng.uniform(0.1, 10.0), 4)
        b.add(f"constant scalar {functional}",
              ["constant", "--json", "--functional", functional],
              {"kind": "scalar", "gamma": _fmt(gamma), "coeff": coeff},
              check="scalar", functional=functional, gamma=gamma)
    if tiny:
        return
    slots = (  # (kind, n, complex coefficients, functional)
        ("type1", 2, False, "norm"),
        ("type1", 2, True, "trace"),
        ("type1", 3, True, "trace"),
        ("type1", 4, False, "trace"),
        ("type1_raw", 2, True, "trace"),
        ("type1_raw", 3, False, "trace"),
    )
    for kind, n, cplx, functional in slots:
        a = _pd_matrix(rng, n, cplx)
        diag = _diag_exponents(rng, n)
        spec = _type1_spec(a, diag, raw=(kind == "type1_raw"))
        label = f"{kind} n={n}{' complex' if cplx else ''}"
        constant(label, spec, a, diag, functional)


# Divergence pairs, all with gap >= 1/2: the sweep n = 100..1e5 fits the
# asymptotic slope to within 0.02 only when the gap is wide (at gap 1/12 it
# reads 0.016 against 1/24). They are fixed because a sweep's time is not
# smooth in the exponents, 0.08 s at (-2/3, 1/3) against 0.38 s at
# (-7/8, 7/8), so drawn pairs made the time of a pass follow the seed.
DIVERGENCE_PAIRS = (("-1/2", "0"), ("-1/4", "1/4"), ("0", "1/2"), ("1/4", "3/4"),
                    ("-3/4", "-1/4"), ("-1/2", "1/2"), ("-3/4", "1/4"),
                    ("-1/8", "7/8"), ("-2/3", "1/3"), ("-3/4", "3/4"))
# Identity exponents per order, non-zero (see the known defect below).
IDENTITY_GAMMAS = {2: ("1/4", "-1/3"), 3: ("-2/5", "1/6", "1/3"),
                   4: ("-1/3", "-1/8", "1/5", "3/8")}


def _quadrature(b: _OpList, rng: random.Random, tiny: bool) -> None:
    def type2(label, alphas, gammas, unitary, known_defect=""):
        gammas = [Fraction(g) for g in gammas]
        spec = {"kind": "type2", "alphas": alphas,
                "gammas": [_fmt(g) for g in gammas], "unitary": unitary}
        b.add(f"constant {label}", ["constant", "--json"], spec, known_defect,
              check="type2", unitary=unitary, alphas=alphas, gammas=gammas)

    def rotation(label, alphas, unitary):
        # The quadrature work moves with the alphas (a 1.5 alpha ratio took
        # 4.4 s, a ratio of 3 took 2.1 s) and with the exponent's sign (a
        # pass took 8.1 s with all three rotations at +1/4, 8.75 s with two
        # at -1/4), so both are fixed and rotation specs do not take the seed.
        type2(label, alphas, [Fraction(1, 4)] * len(alphas), unitary)

    # With 0 as the smallest or largest identity exponent, one of W and W^-1
    # declares singular exponent 0 to the quadrature, which then treats the
    # origin panel of its fractional-power entries as exact: the estimate
    # exceeds the exact bound sum 1/(1 - g^2) by about 2e-4 relative.
    type2("identity n=2 gammas 1/5,0", [1.0, 1.0], ["1/5", "0"],
          "identity", known_defect="identity exponent 0 at an end of the range")

    rotation("rotation2d equal-alpha", [3.0, 3.0], "rotation2d")
    for g1, g2 in DIVERGENCE_PAIRS[:2] if tiny else DIVERGENCE_PAIRS:
        b.add("divergence", ["divergence", f"--gamma1={g1}", f"--gamma2={g2}", "--json"],
              check="divergence", gamma1=Fraction(g1), gamma2=Fraction(g2))
    if tiny:
        return
    rotation("rotation2d unequal-alpha", [3.0, 9.0], "rotation2d")
    for n, gammas in IDENTITY_GAMMAS.items():
        alphas = [round(rng.uniform(0.5, 4.0), 3) for _ in range(n)]
        type2(f"identity n={n}", alphas, gammas, "identity")
    rotation("rotation3d_euler equal-alpha", [3.0] * 3, "rotation3d_euler")


def _cube(b: _OpList, rng: random.Random, tiny: bool) -> None:
    def constant(label, spec, n, grid, functional="trace", known_defect=""):
        argv = ["constant", "--json", "--functional", functional]
        if grid == "coarse":
            argv += ["--grid", "coarse"]
        b.add(f"constant {label} {grid}", argv, spec, known_defect,
              check="floor", functional=functional, n=n)

    def type1a(n, d, grid, functional):
        a = _pd_matrix(rng, n)
        diags = [[_fmt(_rational(rng)) for _ in range(n)] for _ in range(d)]
        spec = {"kind": "type1a", "coeff": _json_matrix(a),
                "diag_exponents_per_coordinate": diags}
        constant(f"type1a n={n} d={d}", spec, n, grid, functional)

    def type1b(diag, d, grid, known_defect=""):
        n = len(diag)
        spec = {"kind": "type1b", "coeff": _json_matrix(_pd_matrix(rng, n)), "d": d,
                "diag_exponents": diag}
        constant(f"type1b n={n} d={d} {'/'.join(diag)}", spec, n, grid,
                 known_defect=known_defect)

    # Known failures at this commit (ROADMAP open item 1): the radial average
    # raises NonPositiveInputError on every default-grid spec with |g| < 1,
    # at d = 3 on the coarse grid with |g| < 1, and at d = 2 on the coarse
    # grid for some exponents (1/3, 1/4). They run once, outside the mix.
    radial = "type1b radial average raises NonPositiveInputError"
    constant("type1b fixed |x|^(1/2) d=3", RADIAL_SQRT_1X1, 1, "coarse",
             known_defect=radial)
    constant("type1b fixed [[2,1],[1,2]] d=3", RADIAL_2X2, 2, "coarse",
             known_defect=radial)
    type1b(["1/3"], 2, "coarse", known_defect=radial)
    type1b(["1/2", "-1/2"], 2, "default", known_defect=radial)

    type1a(2, 2, "default", "trace")
    type1a(2, 3, "coarse", "norm")
    # Radial exponents sit in fixed slots and the seed draws the coefficients:
    # the radial quadrature work depends on the exponent and the cube alone,
    # so this keeps the cost of a pass equal across seeds. The slots are the
    # d = 2 specs that pass at this commit; the passing d = 3 ones (|g| >= 1)
    # take 8 to 13 s each, longer than a pass can hold.
    type1b(["1/2"], 2, "coarse")
    if tiny:
        return
    type1a(1, 2, "coarse", "trace")
    type1a(1, 3, "default", "trace")
    type1a(2, 2, "default", "norm")
    type1a(2, 3, "default", "trace")
    type1b(["-2/3"], 2, "coarse")
    type1b(["-1/3", "1/2"], 2, "coarse")
    type1b(["1"], 2, "default")


# Verdict strings of a2w's report module, restated so that the expected
# verdict comes from the generator and not from the program.
A2, NOT_A2 = "a2", "not_a2"
NOT_PD, NOT_INTEGRABLE = "not_positive_definite_ae", "not_locally_integrable"


def _beyond(rng: random.Random, edge: int, direction: int) -> Fraction:
    """The edge itself (one time in four) or a rational within one unit past it."""
    if rng.random() < 0.25:
        return Fraction(edge)
    lo, hi = (Fraction(edge), Fraction(edge + 1)) if direction > 0 else \
        (Fraction(edge - 1), Fraction(edge))
    return _rational(rng, lo=lo, hi=hi)


_TYPE2_FAMILIES = ((2, "rotation2d"), (3, "rotation3d_euler"), (2, "identity"),
                   (3, "identity"))


def _check_spec(rng: random.Random, kind: str, k: int) -> tuple[dict, str]:
    """Spec k of `kind` for the decision mix and the verdict it is built to have.

    Even k are valid A2 weights. Odd k carry exactly one defect, cycling
    through the kind's defect list.
    """
    defect = None if k % 2 == 0 else (k // 2)
    if kind == "scalar":
        gamma, verdict = _rational(rng), A2
        if defect is not None:
            up = defect % 2 == 0
            gamma = _beyond(rng, 1 if up else -1, 1 if up else -1)
            verdict = NOT_A2 if up else NOT_INTEGRABLE
        return {"kind": "scalar", "gamma": _fmt(gamma),
                "coeff": round(rng.uniform(0.1, 10.0), 4)}, verdict

    if kind == "type2":
        n, unitary = _TYPE2_FAMILIES[(k // 2) % 4 if defect is None else rng.randrange(4)]
        flaw = None if defect is None else ("unequal", "alpha", "range")[defect % 3]
        if flaw == "unequal":
            n, unitary = rng.choice(_TYPE2_FAMILIES[:2])
        if flaw == "range":
            unitary = "identity"
        alphas = [round(rng.uniform(0.5, 4.0), 3) for _ in range(n)]
        if unitary == "identity":
            gammas = [_rational(rng) for _ in range(n)]
        else:
            gammas = [_rational(rng)] * n
        verdict = A2
        if flaw == "unequal":
            while gammas[-1] == gammas[0]:
                gammas[-1] = _rational(rng)
            verdict = NOT_A2
        elif flaw == "alpha":
            alphas[rng.randrange(n)] = -round(rng.uniform(0.1, 2.0), 3)
            verdict = NOT_PD
        elif flaw == "range":
            gammas[rng.randrange(n)] = _beyond(rng, 1, 1)
            verdict = NOT_A2
        return {"kind": "type2", "alphas": alphas,
                "gammas": [_fmt(g) for g in gammas], "unitary": unitary}, verdict

    n = 2 + k % 2 if kind == "type1_raw" else 1 + k % 3
    a = _pd_matrix(rng, n, complex_entries=(k % 4 == 1))
    defects = {"type1": ("not_pd", "high", "low"),
               "type1_raw": ("not_pd", "midpoint", "high"),
               "type1a": ("not_pd", "high"),
               "type1b": ("not_pd", "high", "low")}[kind]
    flaw = None if defect is None else defects[defect % len(defects)]
    d = 1 if kind in ("type1", "type1_raw") else 2 + k % 2
    bound = d if kind == "type1b" else 1
    rows = d if kind == "type1a" else 1
    diags = [[_rational(rng, bound=bound, qmax=12 if bound == 1 else 6)
              for _ in range(n)] for _ in range(rows)]
    verdict = A2
    if flaw == "not_pd":
        a, verdict = _not_pd(a), NOT_PD
    elif flaw == "high":
        diags[rng.randrange(rows)][rng.randrange(n)] = _beyond(rng, bound, 1)
        verdict = NOT_A2
    elif flaw == "low":
        diags[0][rng.randrange(n)] = _beyond(rng, -bound, -1)
        verdict = NOT_INTEGRABLE
    coeff = _json_matrix(a)
    if kind == "type1":
        return _type1_spec(a, diags[0]), verdict
    if kind == "type1_raw":
        exps = _midpoint(diags[0])
        if flaw == "midpoint":
            j = 1 + rng.randrange(n - 1)
            if a[0][j] == 0:
                a[0][j], a[j][0] = complex(0.25), complex(0.25)
                coeff = _json_matrix(a)
            exps[0][j] += Fraction(rng.choice((-1, 1)), rng.randint(2, 12))
            verdict = NOT_PD  # a midpoint violation breaks positivity a.e.
        return {"kind": "type1_raw", "coeff": coeff,
                "exponents": [[_fmt(e) for e in row] for row in exps]}, verdict
    if kind == "type1a":
        return {"kind": "type1a", "coeff": coeff,
                "diag_exponents_per_coordinate": [[_fmt(g) for g in row]
                                                  for row in diags]}, verdict
    return {"kind": "type1b", "coeff": coeff, "d": d,
            "diag_exponents": [_fmt(g) for g in diags[0]]}, verdict


def _decide_verify(b: _OpList, rng: random.Random, tiny: bool) -> None:
    per_kind = 2 if tiny else 16
    for k in range(per_kind):
        for kind in ("scalar", "type1", "type1_raw", "type2", "type1a", "type1b"):
            spec, verdict = _check_spec(rng, kind, k)
            tag = "valid" if verdict == A2 else "invalid"
            b.add(f"check {kind} {tag}", ["check", "--json"], spec,
                  check="verdict", verdict=verdict)
    # The time of a verify run depends on its seed (0.8 to 1.2 s across seeds
    # 0..23), and the three verify ops are most of a pass, so their seeds are
    # fixed: drawn from the workload seed, they moved a pass by a fifth.
    trials = ["--trials", "5"] if tiny else []
    for verify_seed in (1,) if tiny else (1, 2, 3):
        b.add("verify all", ["verify", "--json", "--module", "all",
                             "--seed", str(verify_seed)] + trials, check="verify")


def build(workload: str, seed: int, spec_dir: str, tiny: bool = False) -> list[Op]:
    """Write the workload's spec files into spec_dir and return its op list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    b = _OpList(spec_dir)
    if workload == "interval-symbolic":
        _symbolic(b, rng, tiny)
    elif workload == "interval-quadrature":
        _quadrature(b, rng, tiny)
    elif workload == "cube":
        _cube(b, rng, tiny)
    else:
        _decide_verify(b, rng, tiny)
    return b.ops
