"""Weights of the form W(x) = U(x) diag(a_k |x|^(g_k)) U(x)*.

The unitary factor is one of three built-in families: the identity (plain
diagonal weights), a one-parameter planar rotation, and a 3D rotation
assembled as the product of the three basic axis rotations, each at angle
x. unitary_stack gives U(x) and as_pointwise gives W(x), each on a stack
of points; entry values never need the assembled matrix:
w_ij(x) = sum_k a_k |x|^(g_k) u_ik(x) conj(u_jk(x)).

An identity weight is the diagonal Type 1 power matrix with coefficients
a_k and exponents g_k (as_type1), averaged in closed form. A rotation
with one exponent g is |x|^g times the trigonometric polynomial U D U*,
so its averages are closed form too: fourier_coefficients gives the
polynomial's coefficients and fourier_power_moments the integrals of
|x|^g e^(imx). The pointwise matrix functions here serve the numeric
oracle (estimator.average_numeric) and the short-interval Gauss rule.

For unequal exponents the planar rotation family is the package's standard
counterexample: the necessary conditions hold but interval products over
I_n = [2 pi n, 2 pi n + pi] grow like n^((g2 - g1)/2), which the
divergence experiment measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .quadrature import PointwiseMatrixFunction, adaptive_quad
from .report import (A2Report, Finding, VERDICT_A2, VERDICT_NECESSARY_PASSED,
                     VERDICT_NOT_A2, VERDICT_NOT_PD_AE)
from .scalar_power import format_rational, power_stack
from .type1 import SymbolicPowerMatrix, _exponent_range_report, build_type1

__all__ = [
    "UNITARY_FAMILIES",
    "Type2Weight",
    "as_type1",
    "unitary_stack",
    "as_pointwise",
    "inverse_weight",
    "pair_pointwise",
    "fourier_coefficients",
    "fourier_power_moments",
    "check_necessary_a2",
    "decide_rotation_a2",
    "decide_a2",
    "DivergenceRow",
    "logspaced_ints",
    "divergence_experiment",
    "fit_loglog_slope",
]

UNITARY_FAMILIES = ("identity", "rotation2d", "rotation3d_euler")

_ROTATION3D_NOTE = ("3d rotation rule applied with all three eigenvalue "
                    "exponents required equal")
_UNEQUAL_ALPHA_NOTE = ("equal exponents with unequal positive coefficients: "
                       "still A2 by bounded conjugation (implementation-"
                       "derived extension of the equal-coefficient rule)")


@dataclass(frozen=True)
class Type2Weight:
    """Eigenvalue data (a_k, g_k) plus the unitary family name."""

    alphas: tuple[float, ...]
    gammas: tuple[Fraction, ...]
    unitary: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "gammas", tuple(Fraction(g) for g in self.gammas))
        if len(self.alphas) != len(self.gammas) or not self.alphas:
            raise ValueError("need matching nonempty alpha and gamma tuples")
        if any(not math.isfinite(a) for a in self.alphas):
            raise ValueError("alphas must be finite")
        if self.unitary not in UNITARY_FAMILIES:
            raise ValueError(f"unknown unitary family {self.unitary!r}")
        need = {"rotation2d": 2, "rotation3d_euler": 3}.get(self.unitary)
        if need is not None and len(self.alphas) != need:
            raise ValueError(f"{self.unitary} needs exactly {need} eigenvalues")
        if len(self.alphas) > 8:
            raise ValueError("order limited to 8")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def is_rotation(self) -> bool:
        return self.unitary != "identity"

    @property
    def equilibrated(self) -> "Type2Weight":
        """The weight times 4^-k, which centres its largest and smallest
        alphas on 1 (both functionals are invariant under W -> cW, and a
        power of 4 passes exactly through the norm form's square roots).
        OverflowError if a scaled alpha or its inverse is past the float range."""
        exps = [math.frexp(a)[1] for a in self.alphas]
        k = (max(exps) + min(exps)) // 4
        try:
            alphas = tuple(math.ldexp(a, -2 * k) for a in self.alphas)
            if math.isinf(1.0 / min(alphas)):
                raise OverflowError
        except OverflowError:
            raise OverflowError(f"alphas {min(self.alphas):g} to {max(self.alphas):g} "
                                "span more than the float range") from None
        return replace(self, alphas=alphas)


def as_type1(w: Type2Weight) -> SymbolicPowerMatrix:
    """An identity weight diag(a_k |x|^(g_k)) as the diagonal Type 1 power
    matrix it is; a rotation has no such form and raises ValueError."""
    if w.is_rotation:
        raise ValueError(f"{w.unitary} weights are not power matrices")
    return build_type1(np.diag(w.alphas), w.gammas)


def unitary_stack(family: str, n: int, xs: np.ndarray) -> np.ndarray:
    """U(x) for every x in xs, shaped (n, n, len(xs))."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if family == "identity":
        out = np.zeros((n, n, xs.size))
        for k in range(n):
            out[k, k, :] = 1.0
        return out
    c, s = np.cos(xs), np.sin(xs)
    if family == "rotation2d":
        return np.array([[c, -s], [s, c]])
    if family == "rotation3d_euler":
        # the product of the three basic axis rotations, each at angle x
        one, zero = np.ones_like(c), np.zeros_like(c)
        rx = np.array([[one, zero, zero], [zero, c, s], [zero, -s, c]])
        ry = np.array([[c, zero, -s], [zero, one, zero], [s, zero, c]])
        rz = np.array([[c, s, zero], [-s, c, zero], [zero, zero, one]])
        return np.einsum("ijN,jkN,klN->ilN", rx, ry, rz)
    raise ValueError(f"unknown unitary family {family!r}")


def _pointwise(*weights: Type2Weight) -> PointwiseMatrixFunction:
    """Weights that share a unitary family and an order as one stack of
    matrix functions: one unitary_stack call, one power_stack and one
    einsum per node set; power_stack takes each |x|^g by the same routine
    whatever the layout of the nodes, so the nodes beside it in a call do
    not change a power. Each matrix's power model at 0 lists all its
    exponents."""
    w0 = weights[0]
    alphas = np.array([w.alphas for w in weights])[:, :, None]
    gammas = np.array([[float(g) for g in w.gammas] for w in weights])[:, :, None]

    def values(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        u = unitary_stack(w0.unitary, w0.n, xs)
        scaled = alphas * power_stack(np.abs(xs), gammas)
        out = np.einsum("ikN,mkN,jkN->mijN", u, scaled, u.conj())
        return out[0] if len(weights) == 1 else out

    return PointwiseMatrixFunction(n=w0.n, values=values,
                                   exponents=tuple(w.gammas for w in weights))


def as_pointwise(w: Type2Weight) -> PointwiseMatrixFunction:
    """W as a matrix function: one unitary_stack call per node set."""
    return _pointwise(w)


def inverse_weight(w: Type2Weight) -> Type2Weight:
    if any(a <= 0 for a in w.alphas):
        raise ValueError("inverse needs positive eigenvalue coefficients")
    return Type2Weight(tuple(1.0 / a for a in w.alphas),
                       tuple(-g for g in w.gammas), w.unitary)


def pair_pointwise(w: Type2Weight) -> PointwiseMatrixFunction:
    """W and W^-1 as one stack of two: both averages from one panel tree,
    with one unitary_stack call per node set."""
    return _pointwise(w, inverse_weight(w))


# The trigonometric degree K of U D U*: the entries of U have degree 1
# (rotation2d) or 3 (a product of three rotations at angle x), and an entry
# of U D U* is a sum of products of two of them.
_DEGREES = {"rotation2d": 2, "rotation3d_euler": 6}
_SAMPLES = 16  # more than 2K + 1 = 13 samples: the FFT aliases no coefficient
_SERIES_TERMS = 40  # 4^40 / 40! < 1e-23
_CF_DEPTH = 50  # reaches rounding at |z| = 4 for every s in (0, 2); 40 leave 5e-15


def fourier_coefficients(w: Type2Weight) -> np.ndarray:
    """The matrix coefficients C_m, m = 0..K, of the trigonometric
    polynomial U(x) D U(x)* = sum over |m| <= K of C_m e^(imx), with
    D = diag(alphas), and those of U D^-1 U*; shaped (2, K + 1, n, n).

    C_-m is the adjoint of C_m. One unitary_stack call at 16 equispaced
    points of [0, 2 pi) and one FFT of the samples over 16 (exact, and
    their sums stay floats) give them exactly, up to rounding.
    """
    if not w.is_rotation:
        raise ValueError("Fourier coefficients need a rotation unitary family")
    u = unitary_stack(w.unitary, w.n, 2.0 * math.pi * np.arange(_SAMPLES) / _SAMPLES)
    d = np.array([w.alphas, [1.0 / a for a in w.alphas]])
    samples = np.einsum("ikN,pk,jkN->pNij", u, d, u)  # U is real
    return np.fft.fft(samples / _SAMPLES, axis=1)[:, :_DEGREES[w.unitary] + 1]


def fourier_power_moments(gammas, degree: int, xs) -> np.ndarray:
    """Phi_m(x), the integral over [0, x] of |t|^g e^(imt) dt, for each
    exponent g > -1 of gammas, m = 1..degree and x of xs; shaped
    (len(gammas), degree, len(xs)).

    With s = g + 1, y = |x| and z = m y, Phi_m(y) is the power series
    y^s sum_n (iz)^n / (n! (s + n)) for z < 4; otherwise it is
    Gamma(s) m^-s e^(i pi s / 2) - y^s e^(iz) h, where
    Gamma(s, -iz) = e^(iz) (-iz)^s h and h is the continued fraction of
    the upper incomplete gamma function (Numerical Recipes, section 6.2),
    evaluated bottom-up from a fixed depth. For x < 0,
    Phi_m(x) = -conj(Phi_m(|x|)). Each value depends on its own x alone,
    not on the other points of the call.
    """
    xs = np.asarray(xs, dtype=float)
    s = np.array([[float(g) + 1.0] for g in gammas])  # one row per exponent
    m = np.arange(1, degree + 1)[:, None]
    y = np.broadcast_to(np.abs(xs), (degree, xs.size))
    z = m * y
    out = np.empty((len(s), degree, xs.size), dtype=complex)
    near = z < 4.0  # the same elements for every exponent
    if near.any():
        n = np.arange(_SERIES_TERMS)
        ratios = np.where(n == 0, 1.0, 1j * z[near][:, None] / np.maximum(n, 1))
        terms = np.cumprod(ratios, axis=1)  # term n = (iz)^n / n!
        # vecdot, like the Gauss sums of quadrature._gl_panels, sums each
        # element's terms on their own
        out[:, near] = power_stack(y[near], s) * np.vecdot((1.0 / (s + n))[:, None, :], terms)
    if near.all():  # no continued fraction to run
        return np.where(xs < 0.0, -out.conj(), out)
    far = ~near
    iz = 1j * z[far]
    # h = 1 / (b_0 - a_1 / (b_1 - a_2 / (b_2 - ...))) with b_k = 2k + 1 - s - iz
    # and a_k = k (k - s), from the deepest level up
    base = -iz - s
    t = base + (2 * _CF_DEPTH + 1)
    k = np.arange(_CF_DEPTH, 0, -1)
    for level, a in zip(k.tolist(), k[:, None, None] * (k[:, None, None] - s)):
        t = base + (2 * level - 1) - a / t
    const = (np.array([[[math.gamma(v)]] for v in s[:, 0]]) * m ** -s[:, :, None]
             * np.exp(0.5j * math.pi * s[:, :, None]))
    out[:, far] = (np.broadcast_to(const, out.shape)[:, far]
                   - power_stack(y[far], s) * np.exp(iz) / t)
    return np.where(xs < 0.0, -out.conj(), out)


def check_necessary_a2(w: Type2Weight) -> A2Report:
    """Necessary conditions: both W and its inverse must be weights.

    The inverse has eigenvalue data (1/a_k, -g_k), so the combined
    requirement is a_k > 0 and -1 < g_k < 1 for every k. Passing is not
    sufficient, hence the inconclusive verdict.
    """
    findings = [Finding(kind="alpha-not-positive", where=(k,),
                        detail=f"eigenvalue coefficient alpha_{k} = {a:.6g} "
                               "is not positive")
                for k, a in enumerate(w.alphas) if a <= 0]
    if findings:
        return A2Report(VERDICT_NOT_PD_AE, tuple(findings))
    return _exponent_range_report("eigenvalue", [((k,), g) for k, g in enumerate(w.gammas)],
                                  1, VERDICT_NECESSARY_PASSED)


def decide_rotation_a2(w: Type2Weight) -> A2Report:
    """Exact A2 decision for the rotation families.

    A2 holds iff all eigenvalue exponents are equal (exact rational
    equality), the common exponent lies in (-1, 1), and all coefficients
    are positive. With unequal exponents the interval products over
    [2 pi n, 2 pi n + pi] diverge, so the weight is not A2.
    """
    if not w.is_rotation:
        raise ValueError("decide_rotation_a2 needs a rotation unitary family")
    necessary = check_necessary_a2(w)
    notes = (_ROTATION3D_NOTE,) if w.unitary == "rotation3d_euler" else ()
    if necessary.verdict != VERDICT_NECESSARY_PASSED:
        return A2Report(necessary.verdict, necessary.findings, notes=notes)
    if len(set(w.gammas)) == 1:
        if len(set(w.alphas)) > 1:
            notes = notes + (_UNEQUAL_ALPHA_NOTE,)
        return A2Report(VERDICT_A2, notes=notes)
    detail = ("rotation weight is A2 only when all eigenvalue exponents are "
              "equal; got (" +
              ", ".join(format_rational(g) for g in w.gammas) + ")")
    return A2Report(VERDICT_NOT_A2,
                    (Finding(kind="rotation-exponents-unequal", where=(),
                             detail=detail),),
                    notes=notes)


def decide_a2(w: Type2Weight) -> A2Report:
    """Dispatch: rotations get the exact rule, identity is diagonal."""
    if w.is_rotation:
        return decide_rotation_a2(w)
    necessary = check_necessary_a2(w)
    if necessary.verdict != VERDICT_NECESSARY_PASSED:
        return necessary
    return A2Report(VERDICT_A2,
                    notes=("diagonal weight: necessary conditions are also "
                           "sufficient",))


@dataclass(frozen=True)
class DivergenceRow:
    n: int
    a: float
    b: float
    avg_w: float
    avg_winv: float
    product: float


def logspaced_ints(n_min: int, n_max: int, points: int) -> tuple[int, ...]:
    """Strictly increasing integers, log-spaced, duplicates collapsed."""
    if not (1 <= n_min <= n_max) or points < 2:
        raise ValueError("need 1 <= n_min <= n_max and at least 2 points")
    raw = np.logspace(math.log10(n_min), math.log10(n_max), points)
    out: list[int] = []
    for v in raw:
        k = int(round(v))
        if not out or k > out[-1]:
            out.append(k)
    return tuple(out)


_WINDOWS_PER_TREE = 32  # bounds a tree's memory for any sweep length


def divergence_experiment(gamma1, gamma2, n_values) -> list[DivergenceRow]:
    """Scalar products of the planar-rotation diagonal entry over I_n.

    The probe is w_11(x) = |x|^g1 cos^2 x + |x|^g2 sin^2 x, averaged over
    I_n = [2 pi n, 2 pi n + pi]. For g1 < g2 the product grows like
    n^((g2 - g1)/2); the bounded g1 = g2 case is rejected.

    Windows are integrated in the local phase t = x - 2 pi n in [0, pi],
    where U(x) = U(t), so the rounding of a large x never shifts the sharp
    1/w_11 peaks at the window ends. Up to _WINDOWS_PER_TREE windows share
    one panel tree, graded toward both ends, with w_11 and 1/w_11 of each
    as two rows, each held to 1e-8 of its own mass (both are positive).
    """
    g1, g2 = Fraction(gamma1), Fraction(gamma2)
    if not (Fraction(-1) < g1 < g2 < Fraction(1)):
        raise ValueError("need -1 < gamma1 < gamma2 < 1")
    ns = [int(n) for n in n_values]
    if not ns or any(n <= 0 for n in ns) or any(
            b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be positive and strictly increasing")
    starts = np.array([2.0 * math.pi * n for n in ns])
    avgs = []
    for i in range(0, len(ns), _WINDOWS_PER_TREE):
        def probes(ts):
            u = unitary_stack("rotation2d", 2, ts)  # c = u[0, 0], s = -u[0, 1]
            xs = starts[i:i + _WINDOWS_PER_TREE, None] + ts
            probe = xs**float(g1) * u[0, 0]**2 + xs**float(g2) * u[0, 1]**2
            return np.concatenate([probe, 1.0 / probe])

        sums = adaptive_quad(probes, 0.0, math.pi, 1e-8, endpoint_grading=24)
        avgs += (sums.real / math.pi).reshape(2, -1).T.tolist()
    return [DivergenceRow(n, a, a + math.pi, w, winv, w * winv)
            for n, a, (w, winv) in zip(ns, starts.tolist(), avgs)]


def fit_loglog_slope(rows: list[DivergenceRow]) -> float:
    """Least-squares slope of log(product) against log(n)."""
    if len(rows) < 2:
        raise ValueError("need at least two rows to fit a slope")
    xs = [math.log(r.n) for r in rows]
    ys = [math.log(r.product) for r in rows]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
