import copy
import json
import math

import pytest

from grsoliton.cli import main
from grsoliton.manifest import (
    BUNDLED_NAMES,
    ManifestError,
    bundled_examples,
    load_manifest,
    resolve_manifest,
)
from grsoliton.report import emit_report
from grsoliton.runner import run_manifest

from conftest import (
    SASAKIAN_ETA,
    SASAKIAN_F1,
    SASAKIAN_F2,
    SASAKIAN_METRIC,
    SASAKIAN_PHI,
    SASAKIAN_XI,
)

HYPERBOLIC = {
    "chart": {"coords": ["x", "y"], "bounds": {"y": [0, None]}},
    "metric": [["1/y^2", "0"], ["0", "1/y^2"]],
    "scalars": {"f1": "-2*ln(y)", "f2": "-ln(y)"},
    "constants": {"c1": 2, "c2": 1, "lambda": 3},
    "sampling": {"strategy": "uniform", "count": 150, "seed": 7},
    "tolerance": 1e-8,
}


# eta_z = sqrt(x)^2/x is 1 for x > 0 and NaN for x < 0
NAN_ETA = {
    "chart": {"coords": ["x", "y", "z"], "bounds": {"x": [-1, 1]}},
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "structure": {"phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                  "xi": ["0", "0", "1"], "eta": ["0", "0", "sqrt(x)^2/x"]},
}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def sasakian_manifest():
    return {
        "chart": {"coords": ["x", "y", "z"], "bounds": {"z": [0, math.pi]}},
        "metric": [list(row) for row in SASAKIAN_METRIC],
        "structure": {"phi": [list(r) for r in SASAKIAN_PHI],
                      "xi": list(SASAKIAN_XI), "eta": list(SASAKIAN_ETA)},
        "scalars": {"f1": SASAKIAN_F1, "f2": SASAKIAN_F2},
        "constants": {"c1": -1, "c2": 0, "lambda": 1},
        "sampling": {"strategy": "uniform", "count": 120, "seed": 7},
        "tolerance": 1e-8,
    }


class TestLoadManifest:
    def test_loads_dict(self):
        m = load_manifest(HYPERBOLIC)
        assert m.mode == "gradient"
        assert m.constants == {"c1": 2.0, "c2": 1.0, "lambda": 3.0}
        assert m.sampling["count"] == 150

    def test_digest_is_stable(self):
        a = load_manifest(HYPERBOLIC)
        b = load_manifest(copy.deepcopy(HYPERBOLIC))
        assert a.digest == b.digest

    def test_loads_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(HYPERBOLIC))
        assert load_manifest(str(path)).digest == load_manifest(HYPERBOLIC).digest

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(str(path))

    def test_unknown_keys(self):
        bad = dict(HYPERBOLIC, extra_block={})
        with pytest.raises(ManifestError, match="unknown manifest keys"):
            load_manifest(bad)

    def test_metric_shape_mismatch(self):
        bad = copy.deepcopy(HYPERBOLIC)
        bad["metric"] = [["1"]]
        with pytest.raises(ManifestError, match="metric must be"):
            load_manifest(bad)

    def test_expression_syntax_error_carries_location(self):
        bad = copy.deepcopy(HYPERBOLIC)
        bad["metric"][0][0] = "1/(y^"
        with pytest.raises(ManifestError, match=r"metric\[0\]\[0\]"):
            load_manifest(bad)

    def test_scalars_and_vectors_conflict(self):
        bad = copy.deepcopy(HYPERBOLIC)
        bad["vectors"] = {"X1": ["0", "0"], "X2": ["0", "0"]}
        with pytest.raises(ManifestError, match="at most one"):
            load_manifest(bad)

    def test_fit_requires_gradient_mode(self):
        bad = {
            "chart": {"coords": ["x", "y"], "bounds": {"y": [0, None]}},
            "metric": [["1/y^2", "0"], ["0", "1/y^2"]],
            "vectors": {"X1": ["0", "y"], "X2": ["0", "0"]},
            "constants": {"c1": "fit", "c2": 0, "lambda": 0},
        }
        with pytest.raises(ManifestError, match="gradient mode"):
            load_manifest(bad)

    def test_fit_symbol_collision_rejected(self):
        # a constant marked "fit" has no value, so expressions cannot use it
        bad = copy.deepcopy(HYPERBOLIC)
        bad["constants"]["c1"] = "fit"
        bad["scalars"]["f1"] = "-c1*ln(y)"
        with pytest.raises(ManifestError, match="unknown symbols.*c1"):
            load_manifest(bad)

    def test_numeric_constants_usable_as_symbols(self):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "-(lambda - c2)*ln(y)"
        m = load_manifest(doc)
        report = run_manifest(m, "check-soliton")
        assert report.overall_pass

    def test_structure_needs_odd_dimension(self):
        bad = copy.deepcopy(HYPERBOLIC)
        bad["structure"] = {"phi": [["0", "0"], ["0", "0"]],
                            "xi": ["0", "1"], "eta": ["0", "1"]}
        with pytest.raises(ManifestError, match="odd"):
            load_manifest(bad)

    def test_bad_tolerance(self):
        bad = dict(HYPERBOLIC, tolerance=-1)
        with pytest.raises(ManifestError, match="tolerance"):
            load_manifest(bad)

    def test_extra_constants_are_parameters(self):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["constants"]["k"] = 2.0
        doc["scalars"]["f1"] = "-k*ln(y)"
        m = load_manifest(doc)
        assert m.params["k"] == 2.0
        assert run_manifest(m, "check-soliton").overall_pass


class TestBundled:
    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_loads(self, name):
        m = bundled_examples(name)
        assert m.chart.dim in (2, 3)

    def test_unknown_name(self):
        with pytest.raises(ManifestError):
            bundled_examples("torus")

    def test_hyperbolic_contents(self):
        m = bundled_examples("hyperbolic")
        assert m.chart.names == ("x", "y")
        assert m.chart.bounds[1][0] == 0.0
        assert m.constants == {"c1": 2.0, "c2": 1.0, "lambda": 3.0}

    def test_cone_contents(self):
        m = bundled_examples("cone")
        assert m.chart.names == ("x", "y", "z")
        assert m.constants == {"c1": -1.0, "c2": 1.0, "lambda": 1.0}

    def test_sasakian_contents(self):
        m = bundled_examples("sasakian3")
        assert m.structure is not None
        assert m.constants == {"c1": -1.0, "c2": 0.0, "lambda": 1.0}

    def test_resolve_by_name_or_path(self, tmp_path):
        assert resolve_manifest("hyperbolic").digest == \
            bundled_examples("hyperbolic").digest
        path = tmp_path / "h.json"
        path.write_text(json.dumps(HYPERBOLIC))
        assert resolve_manifest(str(path)).mode == "gradient"


class TestRunManifest:
    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_all_passes_on_bundled(self, name):
        report = run_manifest(bundled_examples(name), "all")
        assert report.overall_pass
        assert report.conventions["d_convention"] == "half"

    def test_check_soliton_row(self):
        report = run_manifest(load_manifest(HYPERBOLIC), "check-soliton")
        names = [row.name for row in report.checks]
        assert names == ["soliton_gradient"]
        assert report.overall_pass

    def test_check_structure_requires_block(self):
        with pytest.raises(ManifestError, match="structure block"):
            run_manifest(load_manifest(HYPERBOLIC), "check-structure")

    def test_check_structure_ladder_rows(self):
        report = run_manifest(load_manifest(sasakian_manifest()), "check-structure")
        names = [row.name for row in report.checks]
        assert names == ["structure_almost_contact", "structure_contact",
                         "structure_k_contact", "structure_normal",
                         "structure_sasakian"]
        assert report.overall_pass

    def test_check_theorem_rows(self):
        report = run_manifest(load_manifest(sasakian_manifest()), "check-theorem")
        names = {row.name for row in report.checks}
        assert {"theorem_alignment", "grad_transport", "ricci_reeb",
                "double_lie", "potential_square_lie",
                "scalar_reduction"} <= names
        assert report.overall_pass

    def test_fit_reports_solution(self):
        report = run_manifest(bundled_examples("cone"), "fit")
        row = report.checks[0]
        assert row.name == "fit_constants"
        assert row.extra["rank"] == 3
        sol = row.extra["solution"]
        assert sol["c1"] == pytest.approx(-1.0, abs=1e-8)
        assert sol["c2"] == pytest.approx(1.0, abs=1e-8)
        assert sol["lambda"] == pytest.approx(1.0, abs=1e-8)

    def test_fit_constants_marked_fit_are_resolved(self):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["constants"] = {"c1": "fit", "c2": 1, "lambda": 3}
        report = run_manifest(load_manifest(doc), "check-soliton")
        assert report.overall_pass
        fit_rows = [r for r in report.checks if r.name == "fit_constants"]
        assert fit_rows and fit_rows[0].extra["solution"]["c1"] == \
            pytest.approx(2.0, abs=1e-8)

    def test_failing_manifest_fails(self):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["constants"]["c1"] = 5
        report = run_manifest(load_manifest(doc), "check-soliton")
        assert not report.overall_pass

    def test_plain_convention_fails_the_ladder(self):
        report = run_manifest(load_manifest(sasakian_manifest()),
                              "check-structure", d_convention="plain")
        assert not report.overall_pass
        assert report.conventions["d_convention"] == "plain"

    def test_overrides_change_sampling(self):
        m = load_manifest(HYPERBOLIC)
        r1 = run_manifest(m, "check-soliton", count=40, seed=1)
        r2 = run_manifest(m, "check-soliton", count=40, seed=2)
        assert r1.checks[0].abs_residual != r2.checks[0].abs_residual

    def test_unknown_subcommand(self):
        with pytest.raises(ManifestError):
            run_manifest(load_manifest(HYPERBOLIC), "frobnicate")


class TestEmit:
    def test_json_round_trip(self):
        report = run_manifest(load_manifest(HYPERBOLIC), "all")
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report.as_dict()
        assert parsed["overall_pass"] is True

    def test_json_deterministic_modulo_timing(self):
        m1 = run_manifest(load_manifest(HYPERBOLIC), "all")
        m2 = run_manifest(load_manifest(copy.deepcopy(HYPERBOLIC)), "all")
        a = json.dumps(m1.as_dict(include_timing=False))
        b = json.dumps(m2.as_dict(include_timing=False))
        assert a == b

    def test_csv_rows(self):
        report = run_manifest(load_manifest(sasakian_manifest()), "check-theorem")
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "name,abs_residual,rel_residual,passed"
        alignment = [l for l in lines if l.startswith("theorem_alignment,")]
        assert alignment and alignment[0].endswith(",true")

    def test_table_contains_verdict(self):
        report = run_manifest(load_manifest(HYPERBOLIC), "check-soliton")
        text = emit_report(report, "table")
        assert "overall: PASS" in text
        assert "soliton_gradient" in text

    def test_unknown_format(self):
        report = run_manifest(load_manifest(HYPERBOLIC), "check-soliton")
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


class TestCliExitCodes:
    def test_pass_is_zero(self, capsys):
        assert main(["all", "--manifest", "hyperbolic"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_check_failure_is_one(self, tmp_path, capsys):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["constants"]["c1"] = 5
        path = tmp_path / "bad_constants.json"
        path.write_text(json.dumps(doc))
        assert main(["check-soliton", "--manifest", str(path)]) == 1

    def test_manifest_error_is_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["all", "--manifest", str(path)]) == 2
        assert main(["all", "--manifest", str(tmp_path / "missing.json")]) == 2
        assert main(["check-structure", "--manifest", "hyperbolic"]) == 2

    def test_domain_error_is_three(self, tmp_path, capsys):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "sqrt(y - 5)"
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        assert main(["check-soliton", "--manifest", str(path)]) == 3
        assert "domain error" in capsys.readouterr().err

    def _sasakian_f2(self, tmp_path, f2, fit=None):
        doc = sasakian_manifest()
        doc["scalars"]["f2"] = f2
        if fit:
            doc["constants"][fit] = "fit"
        path = tmp_path / "f2.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _run_json(self, capsys, argv, code):
        assert main(argv + ["--format", "json"]) == code
        out = capsys.readouterr().out
        return json.loads(out, parse_constant=_reject_constant) if code < 2 else out

    @pytest.mark.parametrize("fit", [None, "c2"])
    def test_fit_undefined_everywhere_is_a_domain_error(self, tmp_path, capsys, fit):
        path = self._sasakian_f2(tmp_path, "sqrt(-1 - y^2)", fit)
        for sub in ("fit", "all") + (("check-soliton", "check-theorem") if fit else ()):
            assert main([sub, "--manifest", path]) == 3, sub
            err = capsys.readouterr().err
            assert err.startswith("domain error: square root of a negative number "
                                  "in 'sqrt(-1 - y^2)' at "), sub

    def test_fit_on_one_valid_point_fails_its_row(self, tmp_path, capsys):
        path = self._sasakian_f2(tmp_path, "sqrt(x - 1.97)")
        argv = ["--manifest", path, "--points", "200", "--seed", "8"]
        report = self._run_json(capsys, ["all"] + argv, 1)
        rows = {row["name"]: row for row in report["checks"]}
        assert rows["soliton_gradient"]["points_used"] == 1
        fit_row = rows["fit_constants"]
        assert fit_row["passed"] is False
        assert fit_row["abs_residual"] is None and fit_row["rel_residual"] is None
        assert (fit_row["points_used"], fit_row["points_skipped"]) == (1, 199)
        [row] = self._run_json(capsys, ["fit"] + argv, 1)["checks"]
        assert row == fit_row

    def test_fit_targets_on_one_valid_point_are_a_domain_error(self, tmp_path, capsys):
        path = self._sasakian_f2(tmp_path, "sqrt(x - 1.97)", "lambda")
        for sub in ("fit", "all", "check-soliton"):
            assert main([sub, "--manifest", path, "--points", "200", "--seed", "8"]) == 3
            assert "in 'sqrt(x - 1.97)' at" in capsys.readouterr().err

    def test_theorem_rows_need_the_potentials_defined(self, tmp_path, capsys):
        # the theorem rows use f2 only through xi(f2) = d f2/dz = 0, which
        # simplification folds away; the potentials are checked on their own
        path = self._sasakian_f2(tmp_path, "sqrt(-1 - y^2)")
        assert main(["check-theorem", "--manifest", path]) == 3
        assert capsys.readouterr().err.startswith(
            "domain error: square root of a negative number in 'sqrt(-1 - y^2)' at ")

    def test_theorem_rows_use_the_points_where_the_potentials_are_defined(
            self, tmp_path, capsys):
        path = self._sasakian_f2(tmp_path, "sqrt(x - 1.97)")
        argv = ["--manifest", path, "--points", "200", "--seed", "8"]
        report = self._run_json(capsys, ["check-theorem"] + argv, 1)
        rows = {row["name"]: row for row in report["checks"]}
        assert list(rows) == ["theorem_alignment", "grad_transport", "ricci_reeb",
                              "double_lie", "potential_square_lie", "scalar_reduction"]
        for name, row in rows.items():
            if name != "ricci_reeb":
                assert (row["points_used"], row["points_skipped"]) == (1, 199), name
        assert rows["ricci_reeb"]["passed"]
        in_all = self._run_json(capsys, ["all"] + argv, 1)["checks"]
        assert [row for row in in_all if row["name"] in rows] == report["checks"]

    def test_fit_on_two_points(self, tmp_path, capsys):
        argv = ["--manifest", "hyperbolic", "--points", "2"]
        [row] = self._run_json(capsys, ["fit"] + argv, 1)["checks"]
        assert (row["passed"], row["points_used"], row["points_skipped"]) == (False, 2, 0)
        doc = copy.deepcopy(HYPERBOLIC)
        doc["constants"]["lambda"] = "fit"
        path = tmp_path / "fit2.json"
        path.write_text(json.dumps(doc))
        assert main(["fit", "--manifest", str(path), "--points", "2"]) == 2
        assert "needs at least 3 sample points, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_fit_rows_count_their_points(self, name, capsys):
        report = self._run_json(capsys, ["all", "--manifest", name, "--points", "150"], 0)
        [row] = [r for r in report["checks"] if r["name"] == "fit_constants"]
        assert (row["points_used"], row["points_skipped"]) == (150, 0)

    def _nan_eta_row(self, tmp_path, capsys):
        path = tmp_path / "nan_eta.json"
        path.write_text(json.dumps(NAN_ETA))
        assert main(["all", "--manifest", str(path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        [row] = report["checks"]
        assert row["name"] == "structure_axioms"
        return row

    def test_json_is_strict_for_non_finite_residuals(self, tmp_path, capsys):
        row = self._nan_eta_row(tmp_path, capsys)
        assert row["abs_residual"] is None and row["rel_residual"] is None
        assert row["passed"] is False

    def test_worst_point_is_a_non_finite_point(self, tmp_path, capsys):
        row = self._nan_eta_row(tmp_path, capsys)
        assert row["worst_point"][0] < 0

    def test_json_format_flag(self, capsys):
        assert main(["check-soliton", "--manifest", "cone",
                     "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["checks"][0]["name"] == "soliton_gradient"

    def test_tolerance_override_can_fail_a_run(self, capsys):
        # absurdly tight tolerance turns roundoff into a failure
        assert main(["check-soliton", "--manifest", "hyperbolic",
                     "--tol", "1e-18"]) == 1
