"""End-to-end tests for the a2w command line interface."""

import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from a2w import __version__
from a2w import cli, verify
from a2w.cli import SchemaError, load_weight_spec, main
from a2w.type1 import SymbolicPowerMatrix
from a2w.type2 import Type2Weight

SCALAR_HALF = {"kind": "scalar", "gamma": "1/2"}
TWO_BY_TWO = {"kind": "type1", "coeff": [[5, 3], [3, 2]],
              "diag_exponents": ["1/2", "-2/3"]}
ROTATION_EQUAL = {"kind": "type2", "alphas": [1.0, 1.0],
                  "gammas": ["1/2", "1/2"], "unitary": "rotation2d"}
MIDPOINT_VIOLATOR = {"kind": "type1_raw", "coeff": [[5, 3], [3, 2]],
                     "exponents": [["1/2", "1/60"], ["1/60", "-2/3"]]}
IDENTITY = {"kind": "type2", "alphas": [1.0, 2.0], "gammas": ["1/2", "-1/3"],
            "unitary": "identity"}
NEAR_SINGULAR = {"kind": "type1", "coeff": [[1, 1 - 5e-11], [1 - 5e-11, 1]],
                 "diag_exponents": ["1/2", "-1/3"]}
HUGE = {"kind": "type1", "coeff": [[1e300, 0], [0, 1e300]],
        "diag_exponents": ["1/2", "-1/3"]}
# a + a* of this coefficient overflows; its halves do not
AT_FLOAT_LIMIT = dict(HUGE, coeff=[[1.7e308, 0], [0, 1.7e308]])
INTERVAL_FAMILIES = ["symmetric", "anchored", "origin-free"]
POWER_MATRIX_CONFIG = {"families": ["symmetric", "anchored"]}
ROOT = Path(__file__).resolve().parents[1]
CUBE_CONFIG = {"families": ["cornered", "centered"],
               "quadrature_tol": 1e-6}  # multivar.RADIAL_TOL
# README's separable and radial examples
TYPE1A = {"kind": "type1a", "coeff": [[5, 3], [3, 2]],
          "diag_exponents_per_coordinate": [["1/2", "-2/3"], ["0", "1/3"]]}
TYPE1B = {"kind": "type1b", "coeff": [[5, 3], [3, 2]], "d": 2,
          "diag_exponents": ["1/2", "-2/3"]}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLoadWeightSpec:
    def test_scalar_defaults(self):
        weight, echo = load_weight_spec(SCALAR_HALF)
        assert isinstance(weight, SymbolicPowerMatrix)
        assert echo == {"kind": "scalar", "n": 1, "coeff": 1.0, "gamma": "1/2"}

    def test_type1_echo_includes_midpoints(self):
        weight, echo = load_weight_spec(TWO_BY_TWO)
        assert isinstance(weight, SymbolicPowerMatrix)
        assert echo["exponents"] == [["1/2", "-1/12"], ["-1/12", "-2/3"]]
        assert echo["n"] == 2

    def test_type1_raw_passthrough(self):
        doc = {"kind": "type1_raw", "coeff": [[1.0]], "exponents": [["1/3"]]}
        weight, echo = load_weight_spec(doc)
        assert echo["exponents"] == [["1/3"]]

    def test_type2_echo(self):
        weight, echo = load_weight_spec(ROTATION_EQUAL)
        assert isinstance(weight, Type2Weight)
        assert echo["gammas"] == ["1/2", "1/2"]
        assert echo["unitary"] == "rotation2d"

    def test_type1a_echo_has_dimension(self):
        doc = {"kind": "type1a", "coeff": [[1.0]],
               "diag_exponents_per_coordinate": [["1/2"], ["0"]]}
        weight, echo = load_weight_spec(doc)
        assert isinstance(weight, SymbolicPowerMatrix)
        assert weight.d == 2 and weight.separable
        assert echo["d"] == 2
        assert echo["exponents_per_coordinate"] == [[["1/2"]], [["0"]]]

    def test_type1b_echo_has_dimension(self):
        doc = {"kind": "type1b", "coeff": [[1.0]],
               "diag_exponents": ["3/2"], "d": 2}
        weight, echo = load_weight_spec(doc)
        assert isinstance(weight, SymbolicPowerMatrix)
        assert weight.d == 2 and not weight.separable
        assert echo["d"] == 2

    def test_complex_coefficients(self):
        doc = {"kind": "type1", "coeff": [[2.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]],
               "diag_exponents": ["1/2", "0"]}
        weight, echo = load_weight_spec(doc)
        assert echo["coeff"][0][1] == [0.0, 1.0]
        assert echo["coeff"][0][0] == 2.0

    def test_rejects_non_object(self):
        with pytest.raises(SchemaError, match="JSON object"):
            load_weight_spec(["kind"])

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unsupported kind"):
            load_weight_spec({"kind": "bessel"})

    def test_rejects_stray_keys(self):
        with pytest.raises(SchemaError, match="unknown fields"):
            load_weight_spec(dict(SCALAR_HALF, extra=1))

    def test_rejects_float_exponents(self):
        with pytest.raises(SchemaError, match="gamma"):
            load_weight_spec({"kind": "scalar", "gamma": 0.5})
        with pytest.raises(SchemaError, match="diag_exponents"):
            load_weight_spec({"kind": "type1", "coeff": [[1.0]],
                              "diag_exponents": [0.5]})

    def test_rejects_missing_field(self):
        with pytest.raises(SchemaError, match="requires field"):
            load_weight_spec({"kind": "scalar"})

    def test_rejects_ragged_coeff(self):
        with pytest.raises(SchemaError, match="row 1"):
            load_weight_spec({"kind": "type1", "coeff": [[1.0, 0.0], [1.0]],
                              "diag_exponents": ["0", "0"]})

    def test_rejects_mismatched_n(self):
        with pytest.raises(SchemaError, match="does not match"):
            load_weight_spec(dict(TWO_BY_TWO, n=3))

    def test_rejects_bad_complex_pair(self):
        with pytest.raises(SchemaError, match=r"\[re, im\]"):
            load_weight_spec({"kind": "type1", "coeff": [[[1.0, 2.0, 3.0]]],
                              "diag_exponents": ["0"]})

    def test_rejects_boolean_numbers(self):
        with pytest.raises(SchemaError, match="expected a number"):
            load_weight_spec({"kind": "scalar", "gamma": "1/2", "coeff": True})

    def test_rejects_nonpositive_scalar_coeff(self):
        with pytest.raises(SchemaError, match="positive"):
            load_weight_spec({"kind": "scalar", "gamma": "1/2", "coeff": -1.0})

    def test_rejects_unknown_unitary(self):
        with pytest.raises(SchemaError, match="unitary"):
            load_weight_spec(dict(ROTATION_EQUAL, unitary="shear"))

    def test_rejects_alpha_gamma_mismatch(self):
        with pytest.raises(SchemaError, match="expected 2 entries"):
            load_weight_spec({"kind": "type2", "alphas": [1.0, 1.0],
                              "gammas": ["1/2"], "unitary": "rotation2d"})


class TestCheckCommand:
    def test_scalar_json(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["check", write_spec(tmp_path, SCALAR_HALF), "--json"])
        assert code == 0
        assert payload["command"] == "check"
        assert payload["version"] == __version__
        assert payload["seed"] is None
        assert payload["spec"]["gamma"] == "1/2"
        assert payload["report"]["verdict"] == "a2"

    def test_type1_acceptance_example(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["check", write_spec(tmp_path, TWO_BY_TWO), "--json"])
        assert code == 0
        assert payload["report"]["verdict"] == "a2"
        assert payload["spec"]["exponents"][0][1] == "-1/12"

    def test_failed_verdict_still_exits_zero(self, tmp_path, capsys):
        doc = {"kind": "type2", "alphas": [1.0, 1.0],
               "gammas": ["0", "1/2"], "unitary": "rotation2d"}
        code, payload = run_json(
            capsys, ["check", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        assert payload["report"]["verdict"] == "not_a2"
        kinds = [f["kind"] for f in payload["report"]["findings"]]
        assert kinds == ["rotation-exponents-unequal"]

    def test_witness_for_midpoint_violation(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["check", write_spec(tmp_path, MIDPOINT_VIOLATOR), "--json"])
        assert code == 0
        assert payload["report"]["verdict"] == "not_positive_definite_ae"
        assert "witness" in payload["report"]

    def test_text_output(self, tmp_path, capsys):
        code = main(["check", write_spec(tmp_path, SCALAR_HALF)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: a2" in out
        assert "A2: yes" in out
        assert "wall time" in out

    def test_missing_file_is_schema_error(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("schema error:")

    def test_invalid_json_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["check", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_builder_error_is_schema_error(self, tmp_path, capsys):
        doc = {"kind": "type1_raw", "coeff": [[float(i == j) for j in range(9)]
                                              for i in range(9)],
               "exponents": [["0"] * 9 for _ in range(9)]}
        code = main(["check", write_spec(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("schema error: SchemaError: "
                                "order limited to 8\n")

    def test_linear_algebra_failure_exits_four(self, tmp_path, capsys,
                                               monkeypatch):
        # positivity is decided without an eigensolver, but an indefinite
        # coefficient sends check on to the witness scan, whose eigensolve
        # is LAPACK's (linalg.eigh_stack)
        def no_convergence(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        doc = dict(TWO_BY_TWO, coeff=[[1, 3], [3, 1]])
        code = main(["check", write_spec(tmp_path, doc), "--json"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "ConvergenceError" in captured.err

    @pytest.mark.parametrize("doc, verdict, findings", [
        (NEAR_SINGULAR, "a2", []),
        (HUGE, "a2", []),
        (dict(HUGE, coeff=[[1e300, 2e300], [2e300, 1e300]]), "not_positive_definite_ae",
         [{"kind": "leading-minor-not-positive", "where": [1],
           "detail": "leading minor 2 of the coefficient matrix is -3e+600"}]),
    ], ids=["near-singular", "huge", "huge-indefinite"])
    def test_coefficient_positivity_is_exact(self, tmp_path, capsys, doc, verdict,
                                             findings):
        code, payload = run_json(capsys, ["check", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        assert payload["report"]["verdict"] == verdict
        assert payload["report"]["findings"] == findings

    @pytest.mark.parametrize("doc, verdict", [
        (AT_FLOAT_LIMIT, "a2"),
        (dict(HUGE, coeff=[[5e-324, 0], [0, 1]]), "a2"),
        # the witness scan symmetrizes W(x) near the float limit
        (dict(HUGE, coeff=[[1.7e308, 1.7e308], [1.7e308, 1]]), "not_positive_definite_ae"),
    ], ids=["float-limit", "subnormal", "float-limit-indefinite"])
    def test_symmetrizing_keeps_extreme_diagonals(self, tmp_path, capsys, doc, verdict):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_json(capsys, ["check", write_spec(tmp_path, doc),
                                              "--json"])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert payload["report"]["verdict"] == verdict

    def test_stray_key_is_schema_error(self, tmp_path, capsys):
        code = main(["check",
                     write_spec(tmp_path, dict(SCALAR_HALF, mystery=1))])
        assert code == 2
        assert "unknown fields" in capsys.readouterr().err


class TestConstantCommand:
    def test_scalar_estimate_and_upper_bound(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, SCALAR_HALF), "--json"])
        assert code == 0
        assert payload["command"] == "constant"
        assert payload["functional"] == "trace"
        assert payload["upper_bound"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert payload["estimate"] <= payload["upper_bound"] * (1.0 + 1e-9)
        assert payload["estimate"] >= 0.99 * payload["upper_bound"]
        assert set(payload["argmax"]) == {"a", "b"}
        # a homogeneous weight is scored once, at its anchored shape
        assert payload["evaluations"] == 1
        assert payload["config"] == POWER_MATRIX_CONFIG

    def test_matrix_estimate_respects_upper_bound(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, TWO_BY_TWO), "--json",
             "--grid", "coarse"])
        assert code == 0
        assert payload["estimate"] <= payload["upper_bound"] * (1.0 + 1e-9)
        assert payload["estimate"] >= 2.0
        assert payload["config"] == POWER_MATRIX_CONFIG

    def test_norm_functional_selected(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, SCALAR_HALF), "--json",
             "--functional", "norm"])
        assert code == 0
        assert payload["functional"] == "norm"
        assert payload["estimate"] >= 0.99 * 4.0 / 3.0

    def test_rotation_weight_estimate(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, ROTATION_EQUAL), "--json"])
        assert code == 0
        assert "upper_bound" not in payload
        # trace functional on a 2x2 equal-exponent rotation: 2 * (4/3)
        assert payload["estimate"] <= 8.0 / 3.0 * (1.0 + 1e-6)
        assert payload["estimate"] >= 0.99 * 8.0 / 3.0

    def test_type2_default_grid_is_echoed(self, tmp_path, capsys):
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, ROTATION_EQUAL), "--json"])
        assert code == 0
        assert payload["config"] == {"grid": "default", "centers": 27,
                                     "halflengths": 13, "refine_rounds": 8,
                                     "families": INTERVAL_FAMILIES}

    def test_homogeneous_weights_echo_one_halflength(self, tmp_path, capsys):
        # Dilation invariance and evenness: power matrices, identity Type 2
        # weights among them, are scored once, at the anchored shape, on
        # every grid; the echo names the two families that take that value.
        for doc, grid in itertools.product(
                (TWO_BY_TWO, IDENTITY), ([], ["--grid", "coarse"], ["--grid", "fine"])):
            code, payload = run_json(
                capsys, ["constant", write_spec(tmp_path, doc), "--json", *grid])
            assert code == 0
            assert payload["config"] == POWER_MATRIX_CONFIG
            assert payload["evaluations"] == 1
            assert payload["argmax"] == {"a": 0.0, "b": 2.0}

    @pytest.mark.parametrize("grid", ["coarse", "fine"])
    @pytest.mark.parametrize("doc", [SCALAR_HALF, TWO_BY_TWO, IDENTITY, TYPE1A, TYPE1B,
                                     dict(TYPE1B, d=3)],
                             ids=["scalar", "type1", "identity", "type1a", "type1b-d2",
                                  "type1b-d3"])
    def test_a_grid_changes_nothing_for_a_power_matrix(self, tmp_path, capsys, doc, grid):
        # --grid selects a rotation's grid; a power matrix ignores it, on
        # the line and on cubes, and prints the payload it prints without
        # --grid
        path = write_spec(tmp_path, doc)
        _, plain = run_json(capsys, ["constant", path, "--json"])
        code, payload = run_json(capsys, ["constant", path, "--json", "--grid", grid])
        assert code == 0
        assert payload == plain

    @pytest.mark.parametrize("doc", [TWO_BY_TWO, IDENTITY], ids=["type1", "identity"])
    def test_a_power_matrix_constant_leaves_numpy_ma_unimported(self, tmp_path, doc):
        # np.unique imports numpy.ma on its first call, about 10 ms of a
        # cold process; a power matrix's estimate needs neither
        code = "\n".join([
            "import sys",
            "from a2w.cli import main",
            f"assert main(['constant', {write_spec(tmp_path, doc)!r}, '--json']) == 0",
            "print('numpy.ma' in sys.modules)",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("functional", ["trace", "norm"])
    @pytest.mark.parametrize("grid", [[], ["--grid", "coarse"]],
                             ids=["default", "coarse"])
    def test_identity_runs_as_its_diagonal_type1_twin(self, tmp_path, capsys,
                                                      functional, grid):
        twin = {"kind": "type1", "coeff": [[1.0, 0.0], [0.0, 2.0]],
                "diag_exponents": IDENTITY["gammas"]}
        got = []
        for name, doc in (("identity.json", IDENTITY), ("twin.json", twin)):
            code, payload = run_json(
                capsys, ["constant", write_spec(tmp_path, doc, name), "--json",
                         "--functional", functional, *grid])
            assert code == 0
            got.append({key: payload[key] for key in
                        ("estimate", "argmax", "evaluations", "config")})
        assert got[0] == got[1]

    def test_identity_near_the_range_end_is_exact(self, tmp_path, capsys):
        # |x|^(-99/100) in the inverse used to overflow the quadrature at 0;
        # the closed form gives the anchored family's sum of 1/(1 - g^2).
        doc = {"kind": "type2", "alphas": [1, 2], "gammas": ["99/100", "1/3"],
               "unitary": "identity"}
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        want = 1.0 / (1.0 - 0.99 ** 2) + 1.0 / (1.0 - 1.0 / 9.0)
        assert payload["estimate"] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert "upper_bound" not in payload

    def test_rotation_near_the_range_end_exits_zero(self, tmp_path, capsys):
        # |x|^(-99/100) in the inverse used to overflow the quadrature at 0
        # (exit 4); the moments are closed form there.
        doc = {"kind": "type2", "alphas": [1, 2], "gammas": ["99/100", "99/100"],
               "unitary": "rotation2d"}
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        assert payload["estimate"] == pytest.approx(120.2069226611, rel=1e-10)

    def test_rotation_near_the_range_end_leaves_stderr_empty(self, tmp_path):
        # In-process, pytest captures numpy's RuntimeWarning; a fresh
        # interpreter shows what a user sees on stderr.
        doc = {"kind": "type2", "alphas": [1, 2], "gammas": ["99/100", "99/100"],
               "unitary": "rotation2d"}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "a2w.cli", "constant", write_spec(tmp_path, doc)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_rotation_on_the_fine_grid(self, tmp_path, capsys):
        doc = {"kind": "type2", "alphas": [3.0, 9.0], "gammas": ["1/4", "1/4"],
               "unitary": "rotation2d"}
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, doc), "--json", "--grid", "fine"])
        assert code == 0
        assert payload["estimate"] == pytest.approx(2.86075, abs=1e-5)
        assert payload["config"]["centers"] == 99

    def test_separable_cube_weight(self, tmp_path, capsys):
        doc = {"kind": "type1a", "coeff": [[1.0]],
               "diag_exponents_per_coordinate": [["1/2"], ["0"]]}
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        assert set(payload["argmax"]) == {"lower", "side"}
        assert payload["estimate"] == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert payload["config"]["families"] == ["cornered", "centered"]
        assert payload["evaluations"] == 1

    def test_radial_cube_weight(self, tmp_path, capsys):
        doc = {"kind": "type1b", "coeff": [[1.0]],
               "diag_exponents": ["1/2"], "d": 2}
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, doc), "--json",
             "--grid", "coarse"])
        assert code == 0
        assert payload["estimate"] >= 1.0
        assert payload["config"] == CUBE_CONFIG  # --grid selects nothing

    def test_radial_matrix_weight_on_default_grid(self, tmp_path, capsys):
        doc = {"kind": "type1b", "coeff": [[2, 1], [1, 2]],
               "diag_exponents": ["1/2", "-1/2"], "d": 2}
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        assert payload["config"] == CUBE_CONFIG
        assert payload["evaluations"] == 1
        assert payload["estimate"] == pytest.approx(2.1860225424733, rel=1e-9)

    def test_radial_matrix_weight_in_three_dimensions(self, tmp_path, capsys):
        doc = {"kind": "type1b", "coeff": [[2, 1], [1, 2]],
               "diag_exponents": ["1/2", "-1/2"], "d": 3}
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, doc), "--json"])
        assert code == 0
        assert payload["argmax"] == {"lower": [0.0, 0.0, 0.0], "side": 1.0}
        assert payload["estimate"] == pytest.approx(2.0871913, abs=1e-7)

    def test_radial_scalar_weight_in_three_dimensions(self, tmp_path, capsys):
        doc = {"kind": "type1b", "coeff": [[1]], "diag_exponents": ["1/2"],
               "d": 3}
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, doc), "--json", "--grid", "coarse"])
        assert code == 0
        assert payload["config"] == CUBE_CONFIG

    def test_linear_algebra_failure_exits_four(self, tmp_path, capsys,
                                               monkeypatch):
        # the norm functional's eigensolve (linalg.eigh_stack) runs on
        # LAPACK, whose failure to converge must leave as ConvergenceError;
        # only the functional's stacked calls fail, so the decision, which
        # solves one matrix at a time, passes first
        eigh = np.linalg.eigh

        def no_convergence_on_stacks(m):
            if np.ndim(m) >= 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", no_convergence_on_stacks)
        code = main(["constant", write_spec(tmp_path, TWO_BY_TWO),
                     "--functional", "norm", "--grid", "coarse", "--json"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "ConvergenceError on Interval(a=" in captured.err

    def test_near_singular_coefficient_is_a2(self, tmp_path, capsys):
        # 1 - c^2 is about 1e-10, exactly positive: the weight is A2
        code, payload = run_json(
            capsys, ["constant", write_spec(tmp_path, NEAR_SINGULAR), "--json"])
        assert code == 0
        assert payload["estimate"] == pytest.approx(4443472827.94, rel=1e-9)
        assert payload["estimate"] <= payload["upper_bound"]

    @pytest.mark.parametrize("exponents, trace", [(["0", "0"], 2.0), (["1/2", "1/2"], 8 / 3)],
                             ids=["constant", "scalar-power"])
    def test_near_singular_coefficient_runs_with_equal_exponents(self, tmp_path, capsys,
                                                                  exponents, trace):
        # W = |x|^g A: the trace is 2 / (1 - g^2), but its terms are about
        # 1e10 and cancel, so the functionals' floors must allow their
        # rounding (these exited 4, "below its floor")
        doc = dict(NEAR_SINGULAR, diag_exponents=exponents)
        for functional, want in (("trace", trace), ("norm", trace / 2.0)):
            code, payload = run_json(capsys, ["constant", write_spec(tmp_path, doc), "--json",
                                              "--functional", functional])
            assert code == 0
            assert payload["estimate"] == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("doc", [HUGE, dict(HUGE, coeff=[[1e-300, 0], [0, 1e-300]])],
                             ids=["huge", "tiny"])
    @pytest.mark.parametrize("functional, value", [("trace", 59 / 24), ("norm", 4 / 3)],
                             ids=["trace", "norm"])
    def test_extreme_coefficient_scales_run_through(self, tmp_path, capsys, doc,
                                                    functional, value):
        # both functionals are invariant under A -> tA, so diag(t, t) gives
        # the identity's closed forms: 1/(1 - 1/4) + 1/(1 - 1/9) for the
        # trace and the larger term for the norm
        code, payload = run_json(capsys, ["constant", write_spec(tmp_path, doc), "--json",
                                          "--functional", functional])
        assert code == 0
        assert abs(payload["estimate"] - value) <= 1e-15
        assert payload["estimate"] <= payload["upper_bound"]

    @pytest.mark.parametrize("grid", [[], ["--grid", "fine"]], ids=["default", "fine"])
    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_ill_conditioned_power_matrix_runs_on_every_grid(self, tmp_path, capsys,
                                                            grid, functional):
        # cond(coeff) is about 2e6; the trace floor check once failed here
        doc = {"kind": "type1", "coeff": [[1, 0.999999], [0.999999, 1]],
               "diag_exponents": ["-99/100", "1/2"]}
        code, payload = run_json(capsys, ["constant", write_spec(tmp_path, doc), "--json",
                                          "--functional", functional] + grid)
        assert code == 0
        assert payload["estimate"] >= (2.0 if functional == "trace" else 1.0)

    @pytest.mark.parametrize("functional", ["trace", "norm"])
    def test_coefficient_at_the_float_limit_fails_in_one_line(self, tmp_path, capsys,
                                                              functional):
        # check calls it a2; the averages of diag(1.7e308, 1.7e308) |x|^D
        # pass the float range, which the search reports as one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["constant", write_spec(tmp_path, AT_FLOAT_LIMIT),
                         "--functional", functional])
        captured = capsys.readouterr()
        assert code in (0, 4)
        if code == 4:
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("search failed: OverflowError on ")

    def test_coefficients_at_the_float_ends_run_as_equilibrated(self, tmp_path, capsys):
        # check calls both a2; the averages of diag(1.7e308, 1.7e308) |x|^D
        # and the inverse of diag(5e-324, 1), entry (0, 0) 2e323, leave the
        # float range, but the search and the bound run on S A S, near the
        # identity, and print what diag(1e300, 1e300) prints
        for functional in ("trace", "norm"):
            _, want = run_json(capsys, ["constant", write_spec(tmp_path, HUGE), "--json",
                                        "--functional", functional])
            for coeff in ([[1.7e308, 0], [0, 1.7e308]], [[5e-324, 0], [0, 1]]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, payload = run_json(capsys, [
                        "constant", write_spec(tmp_path, dict(HUGE, coeff=coeff)), "--json",
                        "--functional", functional])
                assert code == 0
                assert payload["upper_bound"] == want["upper_bound"]
                assert abs(payload["estimate"] - want["estimate"]) <= 1e-15
                assert (payload["argmax"], payload["evaluations"]) == (
                    want["argmax"], want["evaluations"])

    def test_each_piece_of_work_runs_once(self, tmp_path, capsys, monkeypatch):
        # one symbolic constant: no grid and no grid search, one decision
        # (the closed-form bound reads it back from the weight) and one
        # coefficient inverse (shared by the estimate's inverse weight and
        # the bound)
        from a2w import estimator, linalg, search
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((search, "interval_grid"), (estimator, "interval_grid"),
                             (search, "run_interval_search"),
                             (estimator, "run_interval_search"),
                             (linalg, "is_positive_definite"),
                             (linalg, "adjugate_inverse")):
            counted(module, name)
        code, payload = run_json(capsys, ["constant", write_spec(tmp_path, TWO_BY_TWO),
                                          "--json"])
        assert code == 0
        assert "upper_bound" in payload
        assert calls == {"is_positive_definite": 1, "adjugate_inverse": 1}
        assert payload["evaluations"] == 1

    def test_non_a2_weight_exits_three(self, tmp_path, capsys):
        doc = {"kind": "scalar", "gamma": "1"}
        code = main(["constant", write_spec(tmp_path, doc), "--json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "decision failed: NotA2Error: not_a2 (diagonal exponent 1 >= 1: "
            "the inverse weight is not locally integrable)\n")
        assert captured.out == ""

    @pytest.mark.parametrize("alphas, argv, twin", [
        ([1e300, 1e300], ["--grid", "fine"], [1.0, 1.0]),
        ([1e-320, 1e-320], [], [1.0, 1.0]),  # 1 / 1e-320 is past the float range
    ], ids=["1e300-fine", "1e-320"])
    def test_equal_alphas_at_the_float_ends_run_as_one(self, tmp_path, capsys,
                                                       alphas, argv, twin):
        # both functionals are invariant under W -> cW, so an equal-alpha
        # rotation reads the estimate of alphas (1, 1), bit for bit
        def estimate(a):
            doc = dict(ROTATION_EQUAL, alphas=a)
            code, payload = run_json(capsys, ["constant", write_spec(tmp_path, doc),
                                              "--json", *argv])
            assert code == 0
            return payload["estimate"]

        assert estimate(alphas) == estimate(twin)

    def test_alphas_a_float_range_apart_run(self, tmp_path, capsys):
        # the weight runs as 4^-k W, which a second power of 4 leaves as it is
        def estimate(alphas):
            doc = {"kind": "type2", "alphas": alphas, "gammas": ["-588/828"] * 2,
                   "unitary": "rotation2d"}
            code, payload = run_json(capsys, ["constant", write_spec(tmp_path, doc),
                                              "--json"])
            assert code == 0
            return payload["estimate"]

        alphas = [8.573012007848464, 1.7e308]
        got = estimate(alphas)
        assert got == estimate([a * 4.0 ** -300 for a in alphas])
        assert np.isfinite(got) and got >= 2.0

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "type2", "alphas": [1e308, 1e-308], "gammas": ["1/2", "1/2"],
          "unitary": "rotation2d"},
         # 1e308 |x|^(-1/2), entry (1, 1) of W^-1 near 0, averages past the float range
         "search failed: OverflowError on Interval(a=-0.001, b=0.001): "
         "average of W^-1 entry (1, 1) overflows the float range\n"),
        ({"kind": "type2", "alphas": [5.004807362210215, 5e-324, 1.970504762186334e160],
          "gammas": ["-142/263"] * 3, "unitary": "rotation3d_euler"},
         "search failed: SearchError: functional returned non-finite value on "
         "Interval(a=-0.001, b=0.001)\n"),
    ], ids=["rotation2d", "rotation3d"])
    def test_rotations_past_the_float_range_name_the_interval(self, tmp_path, capsys,
                                                              doc, message):
        code = main(["constant", write_spec(tmp_path, doc)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (4, "", message)

    def test_alphas_past_what_the_float_range_centres_fail_in_one_line(self, tmp_path,
                                                                       capsys):
        # 1 / 4e-309 is past the float range, and c 1.5e308 and 1 / (c 4e-309)
        # are both floats only for 1.39 < c < 1.2: no scaling of W fits
        doc = {"kind": "type2", "alphas": [1.5e308, 4e-309], "gammas": ["1/2", "1/2"],
               "unitary": "rotation2d"}
        code = main(["constant", write_spec(tmp_path, doc)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == ("search failed: OverflowError: alphas 4e-309 to 1.5e+308 "
                                "span more than the float range\n")

    @pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
    @pytest.mark.parametrize("kind", ["scalar", "type1", "identity", "rotation2d",
                                      "type1a", "type1b-d2", "type1b-d3"])
    def test_an_exponent_that_rounds_to_one_fails_the_search(self, tmp_path, capsys,
                                                              kind, sign):
        # 1 - 1e-20 is A2, but its float is 1.0: check says A2, and constant
        # stops before any average, naming the entry or eigenvalue, and a
        # cube's coordinate. A radial factor's bound is d, so there d - 1e-20.
        bound = {"type1b-d2": 2, "type1b-d3": 3}.get(kind, 1)
        g = f"{sign}{bound - 1 or ''}99999999999999999999/100000000000000000000"
        doc, where = {
            "scalar": ({"kind": "scalar", "gamma": g}, "entry (0, 0)"),
            "type1": ({"kind": "type1", "coeff": [[5, 3], [3, 2]],
                       "diag_exponents": ["1/2", g]}, "entry (1, 1)"),
            "identity": ({"kind": "type2", "alphas": [3.0, 9.0], "gammas": ["1/4", g],
                          "unitary": "identity"}, "entry (1, 1)"),
            "rotation2d": ({"kind": "type2", "alphas": [3.0, 9.0], "gammas": [g, g],
                            "unitary": "rotation2d"}, "eigenvalue 0"),
            "type1a": ({"kind": "type1a", "coeff": [[2, 1], [1, 2]],
                        "diag_exponents_per_coordinate": [["1/2", "0"], [g, "0"]]},
                       "coordinate 1, entry (0, 0)"),
            "type1b-d2": ({"kind": "type1b", "coeff": [[2, 1], [1, 2]],
                           "diag_exponents": [g, "0"], "d": 2}, "entry (0, 0)"),
            "type1b-d3": ({"kind": "type1b", "coeff": [[2, 1], [1, 2]],
                           "diag_exponents": ["1/2", g], "d": 3}, "entry (1, 1)"),
        }[kind]
        path = write_spec(tmp_path, doc)
        assert main(["check", path]) == 0
        assert "A2: yes" in capsys.readouterr().out
        code = main(["constant", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == (f"search failed: SearchError: {where} exponent {g} rounds to "
                                f"{sign}{bound} in double precision; the averages need it "
                                f"strictly inside (-{bound}, {bound})\n")

    def test_text_output_mentions_bound(self, tmp_path, capsys):
        code = main(["constant", write_spec(tmp_path, SCALAR_HALF)])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimate (searched lower bound)" in out
        assert "closed-form upper bound (search families): " in out


class TestDivergenceCommand:
    def test_json_payload(self, capsys):
        code, payload = run_json(
            capsys,
            ["divergence", "--gamma1", "0", "--gamma2", "1/2",
             "--n-min", "10", "--n-max", "100", "--points", "3", "--json"])
        assert code == 0
        assert payload["command"] == "divergence"
        assert payload["theoretical_exponent"] == "1/4"
        assert [r["n"] for r in payload["rows"]] == [10, 32, 100]
        products = [r["product"] for r in payload["rows"]]
        assert all(q > p for p, q in zip(products, products[1:]))
        assert payload["fitted_slope"] > 0.0
        assert payload["config"]["gamma1"] == "0"

    def test_near_extreme_exponents_sweep(self, capsys):
        # the 1/w_11 peaks at n = 1e5 are ~1e-5 wide; a probe that took
        # cos x at x ~ 6e5 exhausted its panel budget (exit 4)
        code, payload = run_json(
            capsys, ["divergence", "--gamma1=-99/100", "--gamma2=99/100", "--json"])
        assert code == 0
        assert len(payload["rows"]) == 13
        assert payload["fitted_slope"] == pytest.approx(0.99, abs=0.02)

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = main(["divergence", "--gamma1=-1/2", "--gamma2", "1/2",
                     "--n-min", "5", "--n-max", "50", "--points", "3",
                     "--out", str(out_path), "--json"])
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,a,b,avg_w,avg_winv,product"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "5"
        assert float(first[5]) == pytest.approx(float(first[3]) *
                                                float(first[4]), rel=1e-12)

    def test_unwritable_csv_is_schema_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "rows.csv"
        code = main(["divergence", "--gamma1", "0", "--gamma2", "1/2",
                     "--n-min", "5", "--n-max", "50", "--points", "2",
                     "--out", str(out_path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "schema error: SchemaError: cannot write csv file:")
        assert not out_path.parent.exists()

    def test_equal_exponents_rejected(self, capsys):
        code = main(["divergence", "--gamma1", "1/2", "--gamma2", "1/2"])
        assert code == 2
        assert "invalid exponents" in capsys.readouterr().err

    def test_unparsable_exponent_rejected(self, capsys):
        code = main(["divergence", "--gamma1", "0.25", "--gamma2", "1/2"])
        assert code == 2
        assert "schema error" in capsys.readouterr().err

    def test_bad_sweep_shape_rejected(self, capsys):
        code = main(["divergence", "--gamma1", "0", "--gamma2", "1/2",
                     "--points", "1"])
        assert code == 2
        assert "invalid sweep" in capsys.readouterr().err

    def test_one_point_sweep_rejected(self, capsys):
        # n-min = n-max gives one row, and a slope needs two
        code = main(["divergence", "--gamma1", "0", "--gamma2", "1/2",
                     "--points", "2", "--n-min", "5", "--n-max", "5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "schema error: SchemaError: invalid sweep: need points >= 2 and "
            "1 <= n-min < n-max\n")

    def test_text_output(self, capsys):
        code = main(["divergence", "--gamma1", "0", "--gamma2", "1/2",
                     "--n-min", "10", "--n-max", "40", "--points", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n,a,b,avg_w,avg_winv,product" in out
        assert "fitted log-log slope" in out
        assert "theoretical exponent" in out


class TestVerifyCommand:
    def test_single_module_passes(self, capsys):
        code, payload = run_json(
            capsys, ["verify", "--module", "linalg", "--trials", "10",
                     "--json"])
        assert code == 0
        assert payload["command"] == "verify"
        assert payload["seed"] == 1234
        assert len(payload["results"]) == 4
        assert all(r["passed"] for r in payload["results"])
        assert all(r["module"] == "linalg" for r in payload["results"])

    @pytest.mark.parametrize("seed", [1, 2, 3, 1234])
    def test_all_modules_pass_at_benchmark_and_default_seeds(self, capsys, seed):
        code, payload = run_json(
            capsys, ["verify", "--json", "--module", "all", "--seed", str(seed)])
        assert code == 0
        assert len(payload["results"]) == 19
        failed = [r for r in payload["results"] if not r["passed"]]
        assert failed == []

    def test_injected_fault_exits_five(self, capsys, monkeypatch):
        (name, _), *rest = verify._SUITES["linalg"]
        failing = (name, lambda rng, trials: (False, "injected fault (self-test)"))
        monkeypatch.setitem(verify._SUITES, "linalg", (failing, *rest))
        code, payload = run_json(
            capsys, ["verify", "--module", "linalg", "--trials", "5",
                     "--json"])
        assert code == 5
        failed = [r for r in payload["results"] if not r["passed"]]
        assert len(failed) == 1
        assert failed[0]["detail"] == "injected fault (self-test)"

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "0"], "--trials must be at least 1"),
        (["--seed", "-1"], "--seed must be nonnegative"),
    ], ids=["trials", "seed"])
    def test_trials_below_one_rejected(self, capsys, argv, message):
        code = main(["verify", "--module", "linalg", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_text_output_lists_properties(self, capsys):
        code = main(["verify", "--module", "type2", "--trials", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "trace-identity" in out


class TestDeterminism:
    def test_constant_output_is_stable(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SCALAR_HALF)
        main(["constant", spec, "--json"])
        first = capsys.readouterr().out
        main(["constant", spec, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_check_output_with_witness_is_stable(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MIDPOINT_VIOLATOR)
        main(["check", spec, "--json"])
        first = capsys.readouterr().out
        main(["check", spec, "--json"])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["report"]["witness"] is not None

    def test_verify_output_is_stable(self, capsys):
        argv = ["verify", "--json", "--module", "all"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_divergence_output_is_stable(self, tmp_path, capsys):
        argv = ["divergence", "--gamma1", "0", "--gamma2", "1/2",
                "--n-min", "10", "--n-max", "100", "--points", "3", "--json"]
        main(argv + ["--out", str(tmp_path / "a.csv")])
        first = capsys.readouterr().out
        main(argv + ["--out", str(tmp_path / "b.csv")])
        second = capsys.readouterr().out
        assert first == second
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


class TestParser:
    def test_missing_subcommand_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; each call's flags are its own
        assert cli._build_parser() is cli._build_parser()
        spec = write_spec(tmp_path, TWO_BY_TWO)
        code, payload = run_json(capsys, ["check", spec, "--json"])
        assert code == 0 and payload["report"]["verdict"] == "a2"
        assert main(["check", spec]) == 0
        assert "verdict: a2" in capsys.readouterr().out
        code, payload = run_json(capsys, ["constant", spec, "--json", "--functional", "norm"])
        assert code == 0 and payload["functional"] == "norm"
        code, payload = run_json(capsys, ["constant", spec, "--json"])
        assert code == 0 and payload["functional"] == "trace"
