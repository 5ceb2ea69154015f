"""End-to-end tests for the a2w command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from a2w import __version__
from a2w import verify
from a2w.cli import SchemaError, load_weight_spec, main
from a2w.type1 import SymbolicPowerMatrix
from a2w.type2 import Type2Weight

SCALAR_HALF = {"kind": "scalar", "gamma": "1/2"}
TWO_BY_TWO = {"kind": "type1", "coeff": [[5, 3], [3, 2]],
              "diag_exponents": ["1/2", "-2/3"]}
ROTATION_EQUAL = {"kind": "type2", "alphas": [1.0, 1.0],
                  "gammas": ["1/2", "1/2"], "unitary": "rotation2d"}
IDENTITY = {"kind": "type2", "alphas": [1.0, 2.0], "gammas": ["1/2", "-1/3"],
            "unitary": "identity"}
INTERVAL_FAMILIES = ["symmetric", "anchored", "origin-free"]
ROOT = Path(__file__).resolve().parents[1]
CUBE_CONFIG = {"families": ["cornered", "centered", "shifted"],
               "quadrature_tol": 1e-6}  # multivar.RADIAL_TOL


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
        doc = {"kind": "type1_raw", "coeff": [[5, 3], [3, 2]],
               "exponents": [["1/2", "1/60"], ["1/60", "-2/3"]]}
        code, payload = run_json(
            capsys, ["check", write_spec(tmp_path, doc), "--json"])
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
        assert payload["evaluations"] > 100
        assert payload["config"]["grid"] == "default"

    def test_matrix_estimate_respects_upper_bound(self, tmp_path, capsys):
        code, payload = run_json(
            capsys,
            ["constant", write_spec(tmp_path, TWO_BY_TWO), "--json",
             "--grid", "coarse"])
        assert code == 0
        assert payload["estimate"] <= payload["upper_bound"] * (1.0 + 1e-9)
        assert payload["estimate"] >= 2.0
        assert payload["config"]["centers"] > 0
        assert "quadrature_tol" not in payload["config"]

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
        # Dilation invariance: power matrices, identity Type 2 weights among
        # them, search the default grid's smallest half-length row alone,
        # every shape of the grid.
        for doc in (TWO_BY_TWO, IDENTITY):
            code, payload = run_json(
                capsys, ["constant", write_spec(tmp_path, doc), "--json"])
            assert code == 0
            assert payload["config"] == {
                "grid": "default", "centers": 99, "halflengths": 1,
                "refine_rounds": 20, "families": INTERVAL_FAMILIES}
            # the grid row, plus the golden refinement's rounds + 2
            assert payload["evaluations"] == 99 + 20 + 2

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
        assert payload["config"]["families"] == ["cornered", "centered",
                                                 "shifted"]

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
        assert payload["evaluations"] == 4
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
        # LAPACK, whose failure to converge must leave as ConvergenceError
        def no_convergence(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        code = main(["constant", write_spec(tmp_path, TWO_BY_TWO),
                     "--functional", "norm", "--grid", "coarse", "--json"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "ConvergenceError on Interval(a=" in captured.err

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

    def test_non_a2_weight_exits_three(self, tmp_path, capsys):
        doc = {"kind": "scalar", "gamma": "1"}
        code = main(["constant", write_spec(tmp_path, doc), "--json"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "decision failed: NotA2Error: not_a2 (diagonal exponent 1 >= 1: "
            "the inverse weight is not locally integrable)\n")
        assert captured.out == ""

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
        assert len(payload["results"]) == 5
        assert all(r["passed"] for r in payload["results"])
        assert all(r["module"] == "linalg" for r in payload["results"])

    @pytest.mark.parametrize("seed", [1, 2, 3, 1234])
    def test_all_modules_pass_at_benchmark_and_default_seeds(self, capsys, seed):
        code, payload = run_json(
            capsys, ["verify", "--json", "--module", "all", "--seed", str(seed)])
        assert code == 0
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

    def test_trials_below_one_rejected(self, capsys):
        code = main(["verify", "--module", "linalg", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--trials must be at least 1" in captured.err

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
