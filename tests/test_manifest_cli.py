import copy
import dataclasses
import json
import math
from importlib import resources

import pytest

from grsoliton.chart import sample_points
from grsoliton.cli import build_parser, main
from grsoliton.contact import assemble_structure, ricci_reeb_check
from grsoliton.manifest import (
    BUNDLED_NAMES,
    ManifestError,
    bundled_examples,
    load_manifest,
    resolve_manifest,
)
from grsoliton.report import emit_report
from grsoliton.runner import run_manifest
from grsoliton.soliton import (
    build_soliton_check,
    build_theorem_checks,
    gradient_form,
    run_checks,
)
from grsoliton.tensors import covariant_derivative

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


# a 1-D Sasakian soliton (n = 0): the contact and normality conditions
# have no index pairs, so they hold vacuously
LINE = {
    "chart": {"coords": ["z"]},
    "metric": [["1"]],
    "structure": {"phi": [["0"]], "xi": ["1"], "eta": ["1"]},
    "scalars": {"f1": "z^2/2", "f2": "z"},
    "constants": {"c1": 0, "c2": 0, "lambda": 1},
}


# neither a scalars/vectors nor a structure block
METRIC_ONLY = {key: NAN_ETA[key] for key in ("chart", "metric")}

# the message of each subcommand with a missing block, in the order the
# blocks are checked
MISSING_BLOCKS = [
    ("check-soliton", NAN_ETA, "check-soliton needs a scalars or vectors block"),
    ("check-structure", HYPERBOLIC, "check-structure needs a structure block"),
    ("check-theorem", METRIC_ONLY, "check-theorem needs a structure block"),
    ("check-theorem", NAN_ETA, "check-theorem needs a scalars block"),
    ("fit", NAN_ETA, "fit needs a scalars or vectors block"),
]

# (CLI flags, message)
BAD_OVERRIDES = [
    (["--seed", "-1"], "sampling.seed must be a non-negative integer, got -1"),
    (["--points", "0"], "sampling.count must be a positive integer, got 0"),
    (["--points", "-5"], "sampling.count must be a positive integer, got -5"),
    (["--tol", "0"], "tolerance must be a positive finite number, got 0.0"),
    (["--tol", "-1"], "tolerance must be a positive finite number, got -1.0"),
    (["--tol", "nan"], "tolerance must be a positive finite number, got nan"),
    (["--tol", "inf"], "tolerance must be a positive finite number, got inf"),
]

# (manifest edit, message): values that a manifest must not hold
BAD_MANIFEST_VALUES = [
    ({"sampling": {"seed": -1}}, "sampling.seed must be a non-negative integer, got -1"),
    ({"sampling": {"count": True}}, "sampling.count must be a positive integer, got True"),
    ({"sampling": {"seed": True}}, "sampling.seed must be a non-negative integer, got True"),
    ({"tolerance": math.nan}, "tolerance must be a positive finite number, got nan"),
    ({"tolerance": math.inf}, "tolerance must be a positive finite number, got inf"),
    ({"tolerance": True}, "tolerance must be a positive finite number, got True"),
    ({"constants": {"c1": math.nan}}, "constant 'c1' must be a finite number or \"fit\""),
    ({"constants": {"k": math.inf}}, "extra constant 'k' must be a finite number"),
    # a key a block does not know is not ignored: "points" is the CLI's
    # name for the count, and "bound" a typo that would drop every bound
    ({"sampling": {"points": 5000}}, "unknown sampling keys ['points']"),
    ({"chart": {"bound": {"y": [0, None]}}}, "unknown chart keys ['bound']"),
    # the chart is outside input: names are strings, bounds numbers or null
    ({"chart": {"coords": "xy"}}, "chart.coords must be a list of coordinate names, got 'xy'"),
    ({"chart": {"coords": {"x": 1, "y": 2}}},
     "chart.coords must be a list of coordinate names, got {'x': 1, 'y': 2}"),
    ({"chart": {"coords": 5}}, "chart.coords must be a list of coordinate names, got 5"),
    ({"chart": {"coords": ["x", 3]}},
     "chart.coords must be a list of coordinate names, got ['x', 3]"),
    ({"chart": {"bounds": {"y": [True, None]}}},
     "bounds for 'y' must be numbers or null, got [True, None]"),
    ({"chart": {"bounds": {"y": ["a", None]}}},
     "bounds for 'y' must be numbers or null, got ['a', None]"),
    ({"chart": {"bounds": {"y": [[0], None]}}},
     "bounds for 'y' must be numbers or null, got [[0], None]"),
    # a JSON integer too large for a float is no number either
    ({"chart": {"bounds": {"y": [10**400, None]}}},
     f"bounds for 'y' must be numbers or null, got [{10**400}, None]"),
    ({"constants": {"c1": 10**400}}, "constant 'c1' must be a finite number or \"fit\""),
    ({"constants": {"k": 10**400}}, "extra constant 'k' must be a finite number"),
    # a constant named as a coordinate or a reserved name could never bind
    ({"constants": {"y": 5}}, "constant 'y' is already a chart coordinate"),
    ({"constants": {"pi": 3}}, "constant 'pi' is already a reserved name"),
    # nor could a key that the parser does not read as one name
    ({"constants": {"lambda ": 2}}, "constant 'lambda ' is not a name"),
    ({"constants": {"a b": 3}}, "constant 'a b' is not a name"),
    ({"constants": {"1x": 3}}, "constant '1x' is not a name"),
    ({"constants": {"": 3}}, "constant '' is not a name"),
    # a chart too narrow to sample, 1e-3 inside each finite end
    ({"chart": {"bounds": {"y": [0, 0.0015]}}},
     "bad chart: empty feasible box for coordinate 'y'"),
]


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

    def test_fit_constants_need_a_soliton_form(self):
        doc = {
            "chart": {"coords": ["x", "y"], "bounds": {"y": [0, None]}},
            "metric": [["1/y^2", "0"], ["0", "1/y^2"]],
            "vectors": {"X1": ["0", "y"], "X2": ["0", "0"]},
            "constants": {"c1": "fit", "c2": 0, "lambda": 0},
        }
        assert load_manifest(doc).fit_targets() == ("c1",)
        del doc["vectors"]
        with pytest.raises(ManifestError, match='^"fit" constants need a scalars or vectors'):
            load_manifest(doc)

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

    @pytest.mark.parametrize("name", ["c1", "lambda"])
    def test_a_soliton_constant_may_share_a_coordinate_name(self, name):
        # c1, c2 and lambda reach the soliton spec as numbers, never as
        # symbols, so a coordinate of the same name shadows nothing
        doc = copy.deepcopy(HYPERBOLIC)
        doc["chart"]["coords"] = [name, "y"]
        m = load_manifest(doc)
        assert m.chart.names == (name, "y") and m.constants == HYPERBOLIC["constants"]
        assert run_manifest(m, "all").overall_pass


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
        for row in report.checks:
            assert (row.n_points, row.n_skipped) == (120, 0), row.name

    def test_check_theorem_rows(self):
        report = run_manifest(load_manifest(sasakian_manifest()), "check-theorem")
        names = {row.name for row in report.checks}
        assert {"theorem_alignment", "grad_transport", "ricci_reeb",
                "double_lie", "potential_square_lie",
                "scalar_reduction"} <= names
        assert report.overall_pass

    @pytest.mark.parametrize("shift", [1e-5, 1e-6, 1e-7])
    def test_a_small_lambda_shift_fails_pointwise(self, shift):
        # near sin z = 0 |Hess f1| reaches about 1.9e3, which divided the
        # residual of every point when the relative residual was global
        doc = sasakian_manifest()
        doc["constants"]["lambda"] += shift
        [row] = run_manifest(load_manifest(doc), "check-soliton", tolerance=1e-8).checks
        assert not row.passed
        assert row.rel_sup == pytest.approx(shift, rel=1e-3)

    def test_fit_reports_solution(self):
        report = run_manifest(bundled_examples("cone"), "fit")
        row = report.checks[0]
        assert row.name == "fit_constants"
        assert row.details["rank"] == 3
        sol = row.details["solution"]
        assert sol["c1"] == pytest.approx(-1.0, abs=1e-8)
        assert sol["c2"] == pytest.approx(1.0, abs=1e-8)
        assert sol["lambda"] == pytest.approx(1.0, abs=1e-8)

    def test_fit_constants_marked_fit_are_resolved(self):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["constants"] = {"c1": "fit", "c2": 1, "lambda": 3}
        report = run_manifest(load_manifest(doc), "check-soliton")
        assert report.overall_pass
        fit_rows = [r for r in report.checks if r.name == "fit_constants_restricted"]
        assert fit_rows and fit_rows[0].details["solution"]["c1"] == \
            pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    @pytest.mark.parametrize("fitted", [(), ("lambda",), ("c1", "lambda")],
                             ids=["declared", "lambda-fit", "c1-lambda-fit"])
    def test_all_names_each_row_once(self, name, fitted):
        doc = json.loads(resources.files("grsoliton").joinpath(f"data/{name}.json")
                         .read_text())
        doc["constants"].update(dict.fromkeys(fitted, "fit"))
        names = [row.name for row in run_manifest(load_manifest(doc), "all").checks]
        assert len(names) == len(set(names)), names
        assert ("fit_constants_restricted" in names) == bool(fitted)

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
        assert r1.checks[0].abs_sup != r2.checks[0].abs_sup

    def test_unknown_subcommand(self):
        with pytest.raises(ManifestError):
            run_manifest(load_manifest(HYPERBOLIC), "frobnicate")

    def test_a_bool_count_is_not_a_count(self):
        with pytest.raises(ManifestError, match="^sampling.count must be a positive integer"):
            run_manifest(load_manifest(HYPERBOLIC), "check-soliton", count=True)

    def test_check_rows_are_the_reports_of_their_checks(self):
        manifest = bundled_examples("sasakian3")
        points = sample_points(manifest.chart, "uniform", 200, 7)
        f1, f2 = manifest.scalars["f1"], manifest.scalars["f2"]
        params, tol = manifest.params, manifest.tolerance
        soliton = build_soliton_check(manifest.metric, gradient_form(manifest.metric, f1, f2),
                                      -1.0, 0.0, 1.0)
        structure = assemble_structure(manifest.chart, manifest.metric,
                                       *(manifest.structure[k] for k in ("phi", "xi", "eta")),
                                       points=points, params=params)
        theorem = build_theorem_checks(structure, f1, f2, -1.0, 0.0, 1.0)
        theorem[2:2] = [ricci_reeb_check(structure)]
        for subcommand, checks in (("check-soliton", [soliton]),
                                   ("check-theorem", theorem)):
            rows = run_manifest(manifest, subcommand).checks
            reports = run_checks(manifest.chart, checks, points, params, tol)
            assert [dataclasses.replace(row, details={}) for row in rows] == reports
        [soliton] = run_manifest(manifest, "check-soliton").checks
        assert soliton.details == {"constants": {"c1": -1.0, "c2": 0.0, "lambda": 1.0}}

    @pytest.mark.parametrize("subcommand", ["check-theorem", "all"])
    def test_the_theorem_rows_build_each_transport_once(self, subcommand, monkeypatch):
        # nabla_xi grad f1, nabla_xi grad f2 and nabla_xi nabla_xi grad f1:
        # shared by five rows, built once each
        built = []

        def counted(metric, X, Y):
            built.append(Y)
            return covariant_derivative(metric, X, Y)
        monkeypatch.setattr("grsoliton.soliton.covariant_derivative", counted)
        run_manifest(bundled_examples("sasakian3"), subcommand)
        assert len(built) == 3

    def test_the_axiom_row_reports_no_point_counts(self, capsys):
        doc = json.loads(resources.files("grsoliton").joinpath("data/sasakian3.json")
                         .read_text())
        doc["structure"]["phi"] = [list(r) for r in zip(*doc["structure"]["phi"])]
        report = run_manifest(load_manifest(doc), "all")
        [row] = [r for r in report.checks if r.name == "structure_axioms"]
        assert (row.n_points, row.n_skipped) == (None, None)
        assert row.details["axiom"] == "phi_square"
        [row] = [r for r in json.loads(emit_report(report, "json"))["checks"]
                 if r["name"] == "structure_axioms"]
        assert list(row) == ["name", "abs_residual", "rel_residual", "tolerance", "passed",
                             "axiom", "worst_point"]


class TestEmit:
    def test_json_round_trip(self):
        report = run_manifest(load_manifest(HYPERBOLIC), "all")
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report.as_dict()
        assert parsed["overall_pass"] is True

    def test_json_deterministic_modulo_timing(self):
        m1 = run_manifest(load_manifest(HYPERBOLIC), "all")
        m2 = run_manifest(load_manifest(copy.deepcopy(HYPERBOLIC)), "all")
        a, b = m1.as_dict(), m2.as_dict()
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert json.dumps(a) == json.dumps(b)

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

    def test_one_parser_serves_independent_calls(self, capsys):
        assert build_parser() is build_parser()
        assert main(["check-soliton", "--manifest", "hyperbolic", "--tol", "1e-18",
                     "--format", "json"]) == 1
        strict = json.loads(capsys.readouterr().out)
        assert strict["checks"][0]["tolerance"] == 1e-18
        assert main(["fit", "--manifest", "cone", "--points", "50"]) == 0
        assert "fit_constants" in capsys.readouterr().out       # the table format
        # no flag of an earlier call carries over
        assert main(["check-soliton", "--manifest", "hyperbolic", "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)["checks"]
        assert (row["tolerance"], row["points_used"]) == (1e-8, 200)
        for argv in (["fit", "--points", "3"], ["all", "--manifest", "cone", "--format", "xml"],
                     ["nonsense"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            capsys.readouterr()
        assert main(["fit", "--manifest", "cone", "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)["checks"]
        assert row["points_used"] == 200

    def test_manifest_error_is_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["all", "--manifest", str(path)]) == 2
        assert main(["all", "--manifest", str(tmp_path / "missing.json")]) == 2
        assert main(["check-structure", "--manifest", "hyperbolic"]) == 2

    @pytest.mark.parametrize("flags, message", BAD_OVERRIDES,
                             ids=[" ".join(flags) for flags, _ in BAD_OVERRIDES])
    def test_bad_overrides_are_two(self, flags, message, capsys):
        assert main(["check-soliton", "--manifest", "hyperbolic", *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"manifest error: {message}\n")

    @pytest.mark.parametrize("edit, message", BAD_MANIFEST_VALUES,
                             ids=[json.dumps(edit) for edit, _ in BAD_MANIFEST_VALUES])
    def test_bad_manifest_values_are_two(self, edit, message, tmp_path, capsys):
        doc = copy.deepcopy(HYPERBOLIC)
        for key, value in edit.items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["all", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"manifest error: {message}\n"

    @pytest.mark.parametrize("subcommand, doc, message", MISSING_BLOCKS,
                             ids=[f"{sub}-{msg.split()[-2]}" for sub, _, msg in MISSING_BLOCKS])
    def test_a_missing_block_is_two(self, subcommand, doc, message, tmp_path, capsys):
        path = tmp_path / "blockless.json"
        path.write_text(json.dumps(doc))
        for flags in ([], ["--points", "0", "--seed", "-1", "--tol", "nan"]):
            assert main([subcommand, "--manifest", str(path), *flags]) == 2
            assert capsys.readouterr().err == f"manifest error: {message}\n"

    def test_domain_error_is_three(self, tmp_path, capsys):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "sqrt(y - 5)"
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        assert main(["check-soliton", "--manifest", str(path)]) == 3
        assert "domain error" in capsys.readouterr().err

    def test_deeply_nested_input_is_a_manifest_error(self, tmp_path, capsys):
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "(" * 200 + "-2*ln(y)" + ")" * 200
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        assert main(["check-soliton", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "manifest error: scalars.f1: expression nested too deeply at offset ")

    @pytest.mark.parametrize("terms", [1000, 3000])
    def test_long_potentials_are_checked(self, tmp_path, capsys, terms):
        # x/7 - x/7 differentiates to exactly zero, so the rows still pass
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "-2*ln(y)" + " + x/7 - x/7" * (terms // 2)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        for sub in ("check-soliton", "all"):
            assert main([sub, "--manifest", str(path)]) == 0, sub
        capsys.readouterr()

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

    def test_soliton_and_fit_rows_need_the_potentials_defined(self, tmp_path, capsys):
        # f1 enters the soliton and fit rows only through its derivatives,
        # where the undefined constant term differentiates away
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "-2*ln(y) + sqrt(-1)"
        path = tmp_path / "f1.json"
        path.write_text(json.dumps(doc))
        for sub in ("check-soliton", "fit", "all"):
            assert main([sub, "--manifest", str(path)]) == 3, sub
            assert capsys.readouterr().err.startswith(
                "domain error: square root of a negative number in 'sqrt(-1)' at "), sub

    def test_an_overflow_names_the_product(self, tmp_path, capsys):
        # f1 is infinite at every point: (1e200*y)^2 overflows, and so do
        # the products of its derivatives
        doc = copy.deepcopy(HYPERBOLIC)
        doc["scalars"]["f1"] = "-2*ln(y) + (1e200*y)*(1e200*y)"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        for sub in ("check-soliton", "fit", "all"):
            assert main([sub, "--manifest", str(path)]) == 3, sub
            assert capsys.readouterr().err.startswith(
                "domain error: overflow in '1e+200 * (1e+200 * y)' at "), sub

    def test_a_folded_overflow_names_the_product(self, tmp_path, capsys):
        # simplification folds 1e200 * 1e200 in the derivatives of f1 to
        # inf, which must warn of nothing: a warning is an error here
        doc = sasakian_manifest()
        doc["scalars"]["f1"] += " + (1e200*z)*(1e200*z)"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        for sub in ("check-theorem", "check-soliton", "fit", "all"):
            assert main([sub, "--manifest", str(path)]) == 3, sub
            assert capsys.readouterr().err.startswith(
                "domain error: overflow in '1e+200 * (1e+200 * z)' at "), sub

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
        # Ric(xi, .) - 2n g(xi, .) does not read the potentials
        assert rows["ricci_reeb"]["passed"]
        assert (rows["ricci_reeb"]["points_used"], rows["ricci_reeb"]["points_skipped"]) \
            == (200, 0)
        in_all = self._run_json(capsys, ["all"] + argv, 1)["checks"]
        assert [row for row in in_all if row["name"] in rows] == report["checks"]

    @pytest.mark.parametrize("lam, code, failed", [
        (1, 0, []),
        (2, 1, ["soliton_gradient", "grad_transport", "fit_constants"]),
    ], ids=["lambda=1", "lambda=2"])
    def test_a_check_with_no_components_holds(self, lam, code, failed, tmp_path, capsys):
        doc = copy.deepcopy(LINE)
        doc["constants"]["lambda"] = lam
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
        rows = self._run_json(capsys, ["all", "--manifest", str(path)], code)["checks"]
        assert len(rows) == 13
        assert [row["name"] for row in rows if not row["passed"]] == failed
        ladder = {row["name"]: row["abs_residual"] for row in rows[:5]}
        assert ladder["structure_contact"] == ladder["structure_normal"] == 0.0

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
