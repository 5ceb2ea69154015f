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
import functools
import json
import math
import sys
import time
from dataclasses import fields
from fractions import Fraction

import numpy as np

from . import __version__, multivar, type1, type2
from .estimator import NonPositiveInputError, estimate_a2
from .linalg import (ConvergenceError, NegativeEigenvalueError,
                     SingularMatrixError)
from .quadrature import QuadratureBudgetError
from .report import VERDICT_A2
from .scalar_power import (NotA2Error, NotIntegrableError, format_rational,
                           parse_rational)
from .search import SearchError, coarse_interval_config, fine_interval_config
from .type1 import MidpointConditionError, SymbolicPowerMatrix
from .verify import VERIFY_MODULES, run_suites

__all__ = ["SchemaError", "load_weight_spec", "main"]

_EXIT_OK = 0
_EXIT_SCHEMA = 2
_EXIT_DECISION = 3
_EXIT_SEARCH = 4
_EXIT_PROPERTY = 5

class SchemaError(ValueError):
    """A weight spec or a command argument is malformed, or a file named on
    the command line cannot be read or written."""


def _get(doc: dict, key: str, kind: str):
    if key not in doc:
        raise SchemaError(f"kind {kind!r} requires field {key!r}")
    return doc[key]


def _rational(value, where: str) -> Fraction:
    try:
        return parse_rational(value)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise SchemaError(f"{where}: number must be finite")
    return float(value)


def _coeff_entry(value, where: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise SchemaError(f"{where}: complex entries are [re, im] pairs")
        return complex(_real(value[0], where + "[0]"),
                       _real(value[1], where + "[1]"))
    return complex(_real(value, where), 0.0)


def _coeff_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty nested array")
    n = len(value)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}: row {i} must have {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _coeff_entry(entry, f"{where}[{i}][{j}]")
    return out.real if np.all(out.imag == 0.0) else out


def _rational_list(value, length: int, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty list")
    if len(value) != length:
        raise SchemaError(f"{where}: expected {length} entries, got {len(value)}")
    return tuple(_rational(v, f"{where}[{k}]") for k, v in enumerate(value))


def _rational_matrix(value, n: int, where: str):
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"{where}: expected {n} rows")
    return tuple(_rational_list(row, n, f"{where}[{i}]")
                 for i, row in enumerate(value))


def _check_n(doc: dict, n: int, kind: str) -> None:
    if "n" in doc:
        if not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
            raise SchemaError("field 'n' must be an integer")
        if doc["n"] != n:
            raise SchemaError(f"field 'n' = {doc['n']} does not match the "
                              f"{kind} data (order {n})")


_ALLOWED_KEYS = {
    "type1": {"kind", "n", "coeff", "diag_exponents"},
    "type1_raw": {"kind", "n", "coeff", "exponents"},
    "type2": {"kind", "n", "alphas", "gammas", "unitary"},
    "type1a": {"kind", "n", "coeff", "diag_exponents_per_coordinate"},
    "type1b": {"kind", "n", "coeff", "diag_exponents", "d"},
    "scalar": {"kind", "n", "coeff", "gamma"},
}
_KINDS = tuple(_ALLOWED_KEYS)


def load_weight_spec(doc: dict):
    """Parse a spec document into (weight object, resolved echo dict).

    A malformed field, or a ValueError that a weight builder raises on the
    parsed data, is a SchemaError.
    """
    try:
        return _parse_spec(doc)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _parse_spec(doc: dict):
    if not isinstance(doc, dict):
        raise SchemaError("spec must be a JSON object")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise SchemaError(f"unsupported kind {kind!r}; expected one of {_KINDS}")
    stray = set(doc) - _ALLOWED_KEYS[kind]
    if stray:
        raise SchemaError(f"unknown fields for kind {kind!r}: {sorted(stray)}")

    if kind == "scalar":
        gamma = _rational(_get(doc, "gamma", kind), "gamma")
        coeff = _real(doc.get("coeff", 1), "coeff")
        if coeff <= 0:
            raise SchemaError("scalar coeff must be positive")
        _check_n(doc, 1, kind)
        weight = SymbolicPowerMatrix(np.array([[coeff]]), (((gamma,),),))
        echo = {"kind": kind, "n": 1, "coeff": coeff,
                "gamma": format_rational(gamma)}
        return weight, echo

    if kind == "type2":
        alphas_raw = _get(doc, "alphas", kind)
        if not isinstance(alphas_raw, list) or not alphas_raw:
            raise SchemaError("alphas: expected a nonempty list")
        alphas = tuple(_real(a, f"alphas[{k}]")
                       for k, a in enumerate(alphas_raw))
        gammas = _rational_list(_get(doc, "gammas", kind), len(alphas), "gammas")
        unitary = doc.get("unitary", "identity")
        if unitary not in type2.UNITARY_FAMILIES:
            raise SchemaError(f"unknown unitary family {unitary!r}; expected "
                              f"one of {type2.UNITARY_FAMILIES}")
        _check_n(doc, len(alphas), kind)
        weight = type2.Type2Weight(alphas, gammas, unitary)
        echo = {"kind": kind, "n": weight.n, "alphas": list(weight.alphas),
                "gammas": [format_rational(g) for g in weight.gammas],
                "unitary": unitary}
        return weight, echo

    # type1, type1_raw, type1a and type1b: a coefficient matrix, then the
    # kind's exponent data and builder.
    coeff = _coeff_matrix(_get(doc, "coeff", kind), "coeff")
    n = coeff.shape[0]
    _check_n(doc, n, kind)
    if kind == "type1":
        weight = type1.build_type1(coeff, _rational_list(
            _get(doc, "diag_exponents", kind), n, "diag_exponents"))
    elif kind == "type1_raw":
        weight = type1.build_type1_raw(coeff, _rational_matrix(
            _get(doc, "exponents", kind), n, "exponents"))
    elif kind == "type1a":
        per_coord = _get(doc, "diag_exponents_per_coordinate", kind)
        if not isinstance(per_coord, list) or not per_coord:
            raise SchemaError("diag_exponents_per_coordinate: expected a list "
                              "of per-coordinate diagonals")
        weight = multivar.build_type1a(coeff, [
            _rational_list(row, n, f"diag_exponents_per_coordinate[{c}]")
            for c, row in enumerate(per_coord)])
    else:
        d = _get(doc, "d", kind)
        if not isinstance(d, int) or isinstance(d, bool):
            raise SchemaError("field 'd' must be an integer")
        weight = multivar.build_type1b(coeff, _rational_list(
            _get(doc, "diag_exponents", kind), n, "diag_exponents"), d)
    echo = {"kind": kind, "n": n, "coeff": _echo_matrix(coeff)}
    if weight.d > 1:
        echo["d"] = weight.d
    if kind == "type1a":
        echo["exponents_per_coordinate"] = [_echo_exponents(m)
                                            for m in weight.exponents]
    else:
        echo["exponents"] = _echo_exponents(weight.exponents[0])
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
        raise SchemaError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"spec is not valid JSON: {exc}") from exc
    return load_weight_spec(doc)


def _emit(args, payload: dict, lines: list[str], elapsed: float) -> None:
    """Print the command's result: with --json the payload, plus the command
    and version, as one sorted JSON document; otherwise the header, the text
    lines and the wall time, which the JSON never carries."""
    if args.json:
        print(json.dumps(dict(payload, command=args.command, version=__version__),
                         sort_keys=True, indent=2))
        return
    header = f"a2w {args.command} v{__version__}"
    if args.command == "verify":
        header += f" (seed = {args.seed}, trials = {args.trials})"
    for line in (header, *lines, f"wall time: {elapsed:.4f} s"):
        print(line)


def cmd_check(args) -> int:
    weight, echo = _read_spec(args.spec)
    t0 = time.perf_counter()
    report = (type2.decide_a2(weight) if isinstance(weight, type2.Type2Weight)
              else type1.check_a2(weight))
    elapsed = time.perf_counter() - t0
    lines = [f"kind: {echo['kind']} (n = {echo['n']})"]
    lines += [f"{key}: {json.dumps(echo[key])}"
              for key in ("gamma", "exponents", "exponents_per_coordinate",
                          "gammas") if key in echo]
    lines.append(f"verdict: {report.verdict}")
    for f in report.findings:
        where = f" at {f.where}" if f.where else ""
        lines.append(f"  finding: {f.kind}{where}: {f.detail}")
    if report.witness is not None:
        lines.append(f"  witness: x = {report.witness!r}")
    lines += [f"  note: {note}" for note in report.notes]
    lines.append("A2: yes" if report.verdict == VERDICT_A2
                 else f"A2: no [{report.verdict}]{report.reasons}")
    _emit(args, {"seed": None, "spec": echo, "report": report.to_payload()},
          lines, elapsed)
    return _EXIT_OK


# --grid value -> a rotation's interval grid, the coarse one without --grid.
# Power matrices, on the line and on cubes, have no grid to select.
_GRIDS = {"fine": fine_interval_config, "coarse": coarse_interval_config}


def cmd_constant(args) -> int:
    weight, echo = _read_spec(args.spec)
    t0 = time.perf_counter()
    result = estimate_a2(weight, args.functional,
                         _GRIDS[args.grid]() if args.grid else None)
    elapsed = time.perf_counter() - t0
    argmax, cfg = result.argmax.to_payload(), result.config
    config_echo = {"families": list(result.scope)}
    if result.quadrature_tol is not None:
        config_echo["quadrature_tol"] = result.quadrature_tol
    if cfg is not None:
        config_echo.update(grid=next(name for name, grid in _GRIDS.items() if grid() == cfg),
                           centers=len(cfg.centers), halflengths=len(cfg.halflengths),
                           refine_rounds=cfg.refine_rounds)

    payload = {"seed": None, "spec": echo, "functional": result.functional,
               "config": config_echo, "estimate": result.estimate,
               "argmax": argmax, "evaluations": result.evaluations}
    lines = [f"functional: {result.functional}",
             f"estimate (searched lower bound): {result.estimate!r}",
             f"argmax: {argmax}", f"evaluations: {result.evaluations}"]
    if isinstance(weight, SymbolicPowerMatrix) and weight.d == 1:
        # estimate_a2 decided the weight A2, so the bound exists.
        bound = payload["upper_bound"] = float(type1.a2_upper_bound(weight))
        lines.append(f"closed-form upper bound (search families): {bound!r}")
    _emit(args, payload, lines, elapsed)
    return _EXIT_OK


def cmd_divergence(args) -> int:
    g1 = _rational(args.gamma1, "--gamma1")
    g2 = _rational(args.gamma2, "--gamma2")
    if not (Fraction(-1) < g1 < g2 < Fraction(1)):
        raise SchemaError("invalid exponents: need -1 < gamma1 < gamma2 < 1 "
                          f"(got {format_rational(g1)}, {format_rational(g2)})")
    if args.points < 2 or args.n_min < 1 or args.n_max <= args.n_min:
        raise SchemaError("invalid sweep: need points >= 2 and "
                          "1 <= n-min < n-max")

    ns = type2.logspaced_ints(args.n_min, args.n_max, args.points)
    t0 = time.perf_counter()
    rows = type2.divergence_experiment(g1, g2, ns)
    elapsed = time.perf_counter() - t0
    slope = type2.fit_loglog_slope(rows)
    theoretical = format_rational((g2 - g1) / 2)
    names = [f.name for f in fields(type2.DivergenceRow)]
    values = [[getattr(r, name) for name in names] for r in rows]
    csv = [",".join(names)] + [",".join(map(repr, v)) for v in values]

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(csv) + "\n")
        except OSError as exc:
            raise SchemaError(f"cannot write csv file: {exc}") from exc

    payload = {"seed": None,
               "config": {"gamma1": format_rational(g1),
                          "gamma2": format_rational(g2),
                          "n_min": args.n_min, "n_max": args.n_max,
                          "points": args.points},
               "rows": [dict(zip(names, v)) for v in values],
               "fitted_slope": slope,
               "theoretical_exponent": theoretical}
    lines = [f"gamma1 = {format_rational(g1)}, gamma2 = {format_rational(g2)}",
             *csv, f"fitted log-log slope: {slope!r}",
             f"theoretical exponent (gamma2 - gamma1)/2: {theoretical}"]
    if args.out:
        lines.append(f"csv written to: {args.out}")
    _emit(args, payload, lines, elapsed)
    return _EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise SchemaError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise SchemaError(f"--seed must be nonnegative, got {args.seed}")
    t0 = time.perf_counter()
    results = run_suites(args.module, trials=args.trials, seed=args.seed)
    elapsed = time.perf_counter() - t0
    payload = {"seed": args.seed,
               "config": {"module": args.module, "trials": args.trials},
               "results": [{"module": r.module, "property": r.name,
                            "trials": r.trials, "passed": r.passed,
                            "detail": r.detail} for r in results]}
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        tail = f": {r.detail}" if (r.detail and not r.passed) else ""
        lines.append(f"{mark} {r.module}/{r.name} ({r.trials} trials){tail}")
    _emit(args, payload, lines, elapsed)
    failed = [r for r in results if not r.passed]
    if failed:
        names = ", ".join(f"{r.module}/{r.name}" for r in failed)
        print(f"property failure: {names}", file=sys.stderr)
        return _EXIT_PROPERTY
    return _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
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
                         help="a rotation's interval grid density (default: "
                              "coarse); power matrices have no grid")
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
      SingularMatrixError, ConvergenceError, NegativeEigenvalueError,
      OverflowError),
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
