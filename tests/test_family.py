"""The standard Sasakian structures on R^(2m+1) and their vector-form
soliton (conftest.sasakian_family): the Ricci tensor is the closed-form
eta-Einstein one, and through the CLI every row of `all` passes, the fit
recovers the family of constants that this Ricci predicts, and each
defect fails exactly the rows it should."""

import json

import numpy as np
import pytest

from grsoliton.chart import sample_points
from grsoliton.cli import main
from grsoliton.manifest import load_manifest
from grsoliton.tensors import oneform_field, ricci

from conftest import sasakian_family

LADDER = ("structure_almost_contact", "structure_contact", "structure_k_contact",
          "structure_normal", "structure_sasakian")


def run(capsys, subcommand, doc, code):
    """The rows, by name, of a JSON report of subcommand on doc, which
    must exit with code."""
    assert main([subcommand, "--manifest", json.dumps(doc), "--format", "json"]) == code
    return {row["name"]: row for row in json.loads(capsys.readouterr().out)["checks"]}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a", [0.5, 1, 2.5, 7.3, 10])
def test_ricci_is_eta_einstein(m, a):
    # Ric_a = -2 g_a + (2m + 2) eta_a.eta_a (Boyer, Galicki & Matzeu, 2006)
    doc = sasakian_family(m, a)
    manifest = load_manifest(doc)
    points = sample_points(manifest.chart, "uniform", 300, seed=83)
    eta = oneform_field(manifest.chart, doc["structure"]["eta"]).evaluate_at(points)
    expected = (-2 * manifest.metric.evaluate_at(points)
                + (2 * m + 2) * eta[:, :, None] * eta[:, None, :])
    gap = np.abs(ricci(manifest.metric).evaluate_at(points) - expected).max()
    assert gap <= 1e-11 * np.abs(expected).max()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_row_of_all_passes(m, capsys):
    rows = run(capsys, "all", sasakian_family(m), 0)
    assert list(rows) == [*LADDER, "soliton_vector", "fit_constants"]


@pytest.mark.parametrize("a", [1, 100, 300, 1000, 3000])
def test_the_fit_recovers_the_family_of_constants(a, capsys):
    # Ric = -2 g + 6 eta.eta at m = 2 leaves the design rank 2, with the
    # solutions c1 = 6 c2, lambda = 2 c2 and the target L_xi g = 0, for
    # every a; at a = 3000 the entries reach about 1e7 and the declared
    # distance reads 6.7e-11 (3.6e-15 at a = 1)
    [row] = run(capsys, "fit", sasakian_family(2, a), 0).values()
    assert row["rank"] == 2
    [direction] = np.array(row["null_space"])
    expected = np.array([6.0, 1.0, 2.0]) / np.sqrt(41.0)
    assert min(np.abs(direction - expected).max(), np.abs(direction + expected).max()) <= 1e-9
    assert row["declared_distance"] <= 1e-8


def test_a_fit_lambda_resolves_two(capsys):
    doc = sasakian_family(2)
    doc["constants"]["lambda"] = "fit"
    rows = run(capsys, "check-soliton", doc, 0)
    assert abs(rows["fit_constants_restricted"]["solution"]["lambda"] - 2.0) <= 1e-9
    assert rows["soliton_vector"]["passed"]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("a", [50, 64])
def test_a_deformed_soliton_passes_and_its_twin_fails(m, a, capsys):
    # the entries reach about a^2 (2m + 2); soliton_vector reads 5e-10 to
    # 1.2e-9 here.  lambda + 2^-16 is no soliton, and fails exactly the
    # soliton and fit rows
    doc = sasakian_family(m, a)
    rows = run(capsys, "all", doc, 0)
    assert list(rows) == [*LADDER, "soliton_vector", "fit_constants"]
    doc["constants"]["lambda"] += 2 ** -16
    rows = run(capsys, "all", doc, 1)
    assert {name for name, row in rows.items() if not row["passed"]} == {
        "soliton_vector", "fit_constants"}


def test_a_shifted_lambda_fails_the_soliton_and_fit_rows(capsys):
    doc = sasakian_family(2)
    doc["constants"]["lambda"] = 2.00001
    rows = run(capsys, "all", doc, 1)
    assert {name for name, row in rows.items() if not row["passed"]} == {
        "soliton_vector", "fit_constants"}


def test_a_flipped_phi_is_not_contact(capsys):
    # -phi keeps the almost-contact axioms and normality, but not d eta = Phi
    doc = sasakian_family(2)
    doc["structure"]["phi"] = [[e if e == "0" else f"-({e})" for e in row]
                               for row in doc["structure"]["phi"]]
    rows = run(capsys, "all", doc, 1)
    assert {name for name, row in rows.items() if not row["passed"]} == {
        "structure_contact", "structure_k_contact", "structure_sasakian"}


def test_a_large_deformation_is_symmetric(capsys):
    # at a = 1000 the entries reach about 1e6, and g_ij and g_ji, the same
    # product in another order, differ by 1.2e-10: rounding, relative to the
    # entries, so the metric loads and the ladder passes, and the fit reads
    # rank 2.  soliton_vector still fails, at 2.5e-6, on the rounding of
    # right-hand terms near a^2 (2m + 2) = 6e6: a verdict has no noise floor
    # yet
    rows = run(capsys, "all", sasakian_family(2, 1000), 1)
    assert all(rows[name]["passed"] for name in LADDER)
    assert rows["fit_constants"]["passed"]
    assert not rows["soliton_vector"]["passed"]
