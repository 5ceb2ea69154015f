"""Command line front-end: check / constant / divergence / verify.

Weight specifications are JSON documents. Exponents must be exact
rationals (integers or "p/q" strings); float exponent literals are a
schema error because every structural decision compares exponents
exactly. Coefficients may be bare reals or [re, im] pairs.

Exit codes: 0 success (check always exits 0 on a valid spec, whatever
the verdict), 2 schema or argument error, 3 decision precondition
failed, 4 search, quadrature or linear-algebra failure, 5 property
failure in verify. Exceptions map to codes through one table in main.

JSON output is deterministic: keys are sorted and wall-clock time is
never part of the payload (it is printed on the human-readable path
only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, multivar, type1, type2
from .estimator import NonPositiveInputError, default_config_for, estimate_a2
from .linalg import (ConvergenceError, NegativeEigenvalueError,
                     SingularMatrixError)
from .quadrature import QuadratureBudgetError
from .report import A2Report, VERDICT_A2, VERDICT_MARGINAL
from .scalar_power import (NotA2Error, NotIntegrableError, format_rational,
                           parse_rational)
from .search import (SearchError, SupSearchConfig, coarse_interval_config,
                     default_interval_config)
from .type1 import MidpointConditionError, SymbolicPowerMatrix
from .verify import VERIFY_MODULES, run_suites

__all__ = ["SchemaError", "load_weight_spec", "main"]

_EXIT_OK = 0
_EXIT_SCHEMA = 2
_EXIT_DECISION = 3
_EXIT_SEARCH = 4
_EXIT_PROPERTY = 5

_KINDS = ("type1", "type1_raw", "type2", "type1a", "type1b", "scalar")


class SchemaError(ValueError):
    """The weight specification does not match the documented schema."""


def _fail(msg: str) -> "SchemaError":
    return SchemaError(msg)


def _get(doc: dict, key: str, kind: str):
    if key not in doc:
        raise _fail(f"kind {kind!r} requires field {key!r}")
    return doc[key]


def _rational(value, where: str) -> Fraction:
    try:
        return parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise _fail(f"{where}: {exc}") from exc


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise _fail(f"{where}: number must be finite")
    return float(value)


def _coeff_entry(value, where: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise _fail(f"{where}: complex entries are [re, im] pairs")
        return complex(_real(value[0], where + "[0]"),
                       _real(value[1], where + "[1]"))
    return complex(_real(value, where), 0.0)


def _coeff_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise _fail(f"{where}: expected a nonempty nested array")
    n = len(value)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise _fail(f"{where}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _coeff_entry(entry, f"{where}[{i}][{j}]")
    return out.real if np.all(out.imag == 0.0) else out


def _rational_list(value, length: int | None, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise _fail(f"{where}: expected a nonempty list")
    if length is not None and len(value) != length:
        raise _fail(f"{where}: expected {length} entries, got {len(value)}")
    return tuple(_rational(v, f"{where}[{k}]") for k, v in enumerate(value))


def _rational_matrix(value, n: int, where: str):
    if not isinstance(value, list) or len(value) != n:
        raise _fail(f"{where}: expected {n} rows")
    return tuple(_rational_list(row, n, f"{where}[{i}]")
                 for i, row in enumerate(value))


def _check_n(doc: dict, n: int, kind: str) -> None:
    if "n" in doc:
        if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
            raise _fail("field 'n' must be an integer")
        if doc["n"] != n:
            raise _fail(f"field 'n' = {doc['n']} does not match the "
                        f"{kind} data (order {n})")


_ALLOWED_KEYS = {
    "scalar": {"kind", "n", "coeff", "gamma"},
    "type1": {"kind", "n", "coeff", "diag_exponents"},
    "type1_raw": {"kind", "n", "coeff", "exponents"},
    "type2": {"kind", "n", "alphas", "gammas", "unitary"},
    "type1a": {"kind", "n", "coeff", "diag_exponents_per_coordinate"},
    "type1b": {"kind", "n", "coeff", "diag_exponents", "d"},
}


def load_weight_spec(doc: dict):
    """Parse a spec document into (weight object, resolved echo dict)."""
    if not isinstance(doc, dict):
        raise _fail("spec must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise _fail(f"unsupported kind {kind!r}; expected one of {_KINDS}")
    stray = set(doc) - _ALLOWED_KEYS[kind]
    if stray:
        raise _fail(f"unknown fields for kind {kind!r}: {sorted(stray)}")

    if kind == "scalar":
        gamma = _rational(_get(doc, "gamma", kind), "gamma")
        coeff = _real(doc.get("coeff", 1), "coeff")
        if coeff <= 0:
            raise _fail("scalar coeff must be positive")
        _check_n(doc, 1, kind)
        weight = SymbolicPowerMatrix(np.array([[coeff]]), (((gamma,),),))
        echo = {"kind": kind, "n": 1, "coeff": coeff,
                "gamma": format_rational(gamma)}
        return weight, echo

    if kind in ("type1", "type1_raw"):
        coeff = _coeff_matrix(_get(doc, "coeff", kind), "coeff")
        n = coeff.shape[0]
        _check_n(doc, n, kind)
        if kind == "type1":
            diag = _rational_list(_get(doc, "diag_exponents", kind), n,
                                  "diag_exponents")
            try:
                weight = type1.build_type1(coeff, diag)
            except ValueError as exc:
                raise _fail(str(exc)) from exc
        else:
            exps = _rational_matrix(_get(doc, "exponents", kind), n, "exponents")
            weight = type1.build_type1_raw(coeff, exps)
        echo = {"kind": kind, "n": n, "coeff": _echo_matrix(coeff),
                "exponents": _echo_exponents(weight.exponents[0])}
        return weight, echo

    if kind == "type2":
        alphas_raw = _get(doc, "alphas", kind)
        if not isinstance(alphas_raw, list) or not alphas_raw:
            raise _fail("alphas: expected a nonempty list")
        alphas = tuple(_real(a, f"alphas[{k}]")
                       for k, a in enumerate(alphas_raw))
        gammas = _rational_list(_get(doc, "gammas", kind), len(alphas), "gammas")
        unitary = doc.get("unitary", "identity")
        if unitary not in type2.UNITARY_FAMILIES:
            raise _fail(f"unknown unitary family {unitary!r}; expected one "
                        f"of {type2.UNITARY_FAMILIES}")
        _check_n(doc, len(alphas), kind)
        try:
            weight = type2.Type2Weight(alphas, gammas, unitary)
        except ValueError as exc:
            raise _fail(str(exc)) from exc
        echo = {"kind": kind, "n": weight.n, "alphas": list(weight.alphas),
                "gammas": [format_rational(g) for g in weight.gammas],
                "unitary": unitary}
        return weight, echo

    if kind == "type1a":
        coeff = _coeff_matrix(_get(doc, "coeff", kind), "coeff")
        n = coeff.shape[0]
        _check_n(doc, n, kind)
        per_coord = _get(doc, "diag_exponents_per_coordinate", kind)
        if not isinstance(per_coord, list) or not per_coord:
            raise _fail("diag_exponents_per_coordinate: expected a list of "
                        "per-coordinate diagonals")
        diags = [_rational_list(row, n, f"diag_exponents_per_coordinate[{c}]")
                 for c, row in enumerate(per_coord)]
        try:
            weight = multivar.build_type1a(coeff, diags)
        except ValueError as exc:
            raise _fail(str(exc)) from exc
        echo = {"kind": kind, "n": n, "d": weight.d,
                "coeff": _echo_matrix(coeff),
                "exponents_per_coordinate": [_echo_exponents(m)
                                             for m in weight.exponents]}
        return weight, echo

    coeff = _coeff_matrix(_get(doc, "coeff", kind), "coeff")
    n = coeff.shape[0]
    _check_n(doc, n, kind)
    d_raw = _get(doc, "d", kind)
    if not isinstance(d_raw, int) or isinstance(d_raw, bool):
        raise _fail("field 'd' must be an integer")
    diag = _rational_list(_get(doc, "diag_exponents", kind), n, "diag_exponents")
    try:
        weight = multivar.build_type1b(coeff, diag, d_raw)
    except ValueError as exc:
        raise _fail(str(exc)) from exc
    echo = {"kind": kind, "n": n, "d": weight.d, "coeff": _echo_matrix(coeff),
            "exponents": _echo_exponents(weight.exponents[0])}
    return weight, echo


def _echo_exponents(mat):
    return [[format_rational(e) for e in row] for row in mat]


def _echo_matrix(m: np.ndarray):
    out = []
    for row in np.atleast_2d(m):
        line = []
        for v in row:
            c = complex(v)
            line.append(c.real if c.imag == 0.0 else [c.real, c.imag])
        out.append(line)
    return out


def _read_spec(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"spec is not valid JSON: {exc}") from exc
    return load_weight_spec(doc)


def _decide(weight) -> A2Report:
    if isinstance(weight, type2.Type2Weight):
        return type2.decide_a2(weight)
    return type1.check_a2(weight)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _human_verdict(report: A2Report) -> str:
    if report.verdict == VERDICT_A2:
        return "A2: yes"
    if report.verdict == VERDICT_MARGINAL:
        return "A2: undetermined (marginal coefficient positivity)"
    reasons = "; ".join(f.detail for f in report.findings)
    tail = f" ({reasons})" if reasons else ""
    return f"A2: no [{report.verdict}]{tail}"


def cmd_check(args) -> int:
    weight, echo = _read_spec(args.spec)
    t0 = time.perf_counter()
    report = _decide(weight)
    elapsed = time.perf_counter() - t0
    payload = {"command": "check", "version": __version__, "seed": None,
               "spec": echo, "report": report.to_payload()}
    if args.json:
        _print_json(payload)
        return _EXIT_OK
    print(f"a2w check v{__version__}")
    print(f"kind: {echo['kind']} (n = {echo['n']})")
    for key in ("gamma", "exponents", "exponents_per_coordinate", "gammas"):
        if key in echo:
            print(f"{key}: {json.dumps(echo[key])}")
    print(f"verdict: {report.verdict}")
    for f in report.findings:
        where = f" at {f.where}" if f.where else ""
        print(f"  finding: {f.kind}{where}: {f.detail}")
    if report.witness is not None:
        print(f"  witness: x = {report.witness!r}")
    for note in report.notes:
        print(f"  note: {note}")
    print(_human_verdict(report))
    print(f"wall time: {elapsed:.4f} s")
    return _EXIT_OK


def _interval_config(grid: str | None, weight) -> SupSearchConfig:
    if grid is None:
        return default_config_for(weight)
    return default_interval_config() if grid == "fine" else coarse_interval_config()


def _cube_config(grid: str | None):
    if grid == "coarse":
        return multivar.coarse_cube_config()
    return multivar.default_cube_config()


def cmd_constant(args) -> int:
    weight, echo = _read_spec(args.spec)
    report = _decide(weight)
    if report.verdict != VERDICT_A2:
        reasons = "; ".join(f.detail for f in report.findings)
        print(f"decision failed: {report.verdict}"
              + (f" ({reasons})" if reasons else ""), file=sys.stderr)
        return _EXIT_DECISION

    t0 = time.perf_counter()
    symbolic = isinstance(weight, SymbolicPowerMatrix)
    if symbolic and weight.d > 1:
        cfg = _cube_config(args.grid)
        result = multivar.estimate_a2_cubes(weight, args.functional, cfg)
        argmax = {"lower": list(result.argmax.lower),
                  "side": result.argmax.side}
        config_echo = {"sides": len(cfg.sides), "families": list(cfg.families)}
    else:
        cfg = _interval_config(args.grid, weight)
        result = estimate_a2(weight, args.functional, cfg)
        argmax = {"a": result.argmax.a, "b": result.argmax.b}
        config_echo = {"centers": len(cfg.centers),
                       "halflengths": len(cfg.halflengths)}
    config_echo.update({"grid": args.grid or "default",
                        "refine_rounds": cfg.refine_rounds,
                        "quadrature_tol": cfg.quadrature_tol})
    elapsed = time.perf_counter() - t0

    upper = None
    if symbolic and weight.d == 1:
        try:
            upper = float(type1.a2_upper_bound(weight))
        except (NotA2Error, NotIntegrableError):
            upper = None

    payload = {"command": "constant", "version": __version__, "seed": None,
               "spec": echo, "functional": result.functional,
               "config": config_echo, "estimate": result.estimate,
               "argmax": argmax, "evaluations": result.evaluations}
    if upper is not None:
        payload["upper_bound"] = upper
    if args.json:
        _print_json(payload)
        return _EXIT_OK
    print(f"a2w constant v{__version__}")
    print(f"functional: {result.functional}")
    print(f"estimate (searched lower bound): {result.estimate!r}")
    print(f"argmax: {argmax}")
    print(f"evaluations: {result.evaluations}")
    if upper is not None:
        print(f"closed-form upper bound: {upper!r}")
    print(f"wall time: {elapsed:.4f} s")
    return _EXIT_OK


def _csv_lines(rows) -> list[str]:
    lines = ["n,a,b,avg_w,avg_winv,product"]
    for r in rows:
        lines.append(f"{r.n},{r.a!r},{r.b!r},{r.avg_w!r},"
                     f"{r.avg_winv!r},{r.product!r}")
    return lines


def cmd_divergence(args) -> int:
    g1 = _rational(args.gamma1, "--gamma1")
    g2 = _rational(args.gamma2, "--gamma2")
    if not (Fraction(-1) < g1 < g2 < Fraction(1)):
        print("invalid exponents: need -1 < gamma1 < gamma2 < 1 "
              f"(got {format_rational(g1)}, {format_rational(g2)})",
              file=sys.stderr)
        return _EXIT_SCHEMA
    if args.points < 2 or args.n_min < 1 or args.n_max < args.n_min:
        print("invalid sweep: need points >= 2 and 1 <= n-min <= n-max",
              file=sys.stderr)
        return _EXIT_SCHEMA

    ns = type2.logspaced_ints(args.n_min, args.n_max, args.points)
    t0 = time.perf_counter()
    rows = type2.divergence_experiment(g1, g2, ns)
    elapsed = time.perf_counter() - t0
    slope = type2.fit_loglog_slope(rows)
    theoretical = (g2 - g1) / 2

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(_csv_lines(rows)) + "\n")

    payload = {"command": "divergence", "version": __version__, "seed": None,
               "config": {"gamma1": format_rational(g1),
                          "gamma2": format_rational(g2),
                          "n_min": args.n_min, "n_max": args.n_max,
                          "points": args.points},
               "rows": [{"n": r.n, "a": r.a, "b": r.b, "avg_w": r.avg_w,
                         "avg_winv": r.avg_winv, "product": r.product}
                        for r in rows],
               "fitted_slope": slope,
               "theoretical_exponent": format_rational(theoretical)}
    if args.json:
        _print_json(payload)
        return _EXIT_OK
    print(f"a2w divergence v{__version__}")
    print(f"gamma1 = {format_rational(g1)}, gamma2 = {format_rational(g2)}")
    for line in _csv_lines(rows):
        print(line)
    print(f"fitted log-log slope: {slope!r}")
    print(f"theoretical exponent (gamma2 - gamma1)/2: "
          f"{format_rational(theoretical)}")
    if args.out:
        print(f"csv written to: {args.out}")
    print(f"wall time: {elapsed:.4f} s")
    return _EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = run_suites(args.module, trials=args.trials, seed=args.seed)
    elapsed = time.perf_counter() - t0
    payload = {"command": "verify", "version": __version__, "seed": args.seed,
               "config": {"module": args.module, "trials": args.trials},
               "results": [{"module": r.module, "property": r.name,
                            "trials": r.trials, "passed": r.passed,
                            "detail": r.detail} for r in results]}
    failed = [r for r in results if not r.passed]
    if args.json:
        _print_json(payload)
    else:
        print(f"a2w verify v{__version__} (seed = {args.seed}, "
              f"trials = {args.trials})")
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            tail = f": {r.detail}" if (r.detail and not r.passed) else ""
            print(f"{mark} {r.module}/{r.name} ({r.trials} trials){tail}")
        print(f"wall time: {elapsed:.4f} s")
    if failed:
        names = ", ".join(f"{r.module}/{r.name}" for r in failed)
        print(f"property failure: {names}", file=sys.stderr)
        return _EXIT_PROPERTY
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2w",
        description="Matrix power weights: exact A2 decisions, characteristic "
                    "estimates, divergence experiments, self-verification.")
    parser.add_argument("--version", action="version",
                        version=f"a2w {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide the A2 property of a weight spec")
    p_check.add_argument("spec", help="path to a JSON weight spec")
    p_check.add_argument("--json", action="store_true",
                         help="emit one JSON document instead of text")
    p_check.set_defaults(fn=cmd_check)

    p_const = sub.add_parser("constant",
                             help="estimate the A2 characteristic by sup search")
    p_const.add_argument("spec", help="path to a JSON weight spec")
    p_const.add_argument("--functional", choices=("trace", "norm"),
                         default="trace")
    p_const.add_argument("--grid", choices=("coarse", "fine"), default=None,
                         help="candidate grid density (default: per weight kind)")
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(fn=cmd_constant)

    p_div = sub.add_parser("divergence",
                           help="interval products of the rotation counterexample")
    p_div.add_argument("--gamma1", required=True,
                       help="smaller eigenvalue exponent, int or p/q")
    p_div.add_argument("--gamma2", required=True,
                       help="larger eigenvalue exponent, int or p/q")
    p_div.add_argument("--n-min", type=int, default=100, dest="n_min")
    p_div.add_argument("--n-max", type=int, default=100000, dest="n_max")
    p_div.add_argument("--points", type=int, default=13)
    p_div.add_argument("--out", default=None, help="write rows to this CSV file")
    p_div.add_argument("--json", action="store_true")
    p_div.set_defaults(fn=cmd_divergence)

    p_ver = sub.add_parser("verify", help="run the randomized oracle suites")
    p_ver.add_argument("--module", choices=VERIFY_MODULES + ("all",),
                       default="all")
    p_ver.add_argument("--trials", type=int, default=60)
    p_ver.add_argument("--seed", type=int, default=1234)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


# Named classes, first match wins: NotIntegrableError is an ArithmeticError
# like the linear-algebra failures, yet it is a decision failure.
_EXIT_TABLE = (
    ((SchemaError,), _EXIT_SCHEMA, "schema error"),
    ((NotA2Error, NotIntegrableError, MidpointConditionError),
     _EXIT_DECISION, "decision failed"),
    ((SearchError, QuadratureBudgetError, NonPositiveInputError,
      SingularMatrixError, ConvergenceError, NegativeEigenvalueError),
     _EXIT_SEARCH, "search failed"),
)
_MAPPED = tuple(cls for classes, _, _ in _EXIT_TABLE for cls in classes)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _MAPPED as exc:
        code, label = next((code, label) for classes, code, label in _EXIT_TABLE
                           if isinstance(exc, classes))
        region = getattr(exc, "region", None)
        where = f" on {region}" if region is not None else ""
        print(f"{label}: {type(exc).__name__}{where}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
