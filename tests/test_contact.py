import numpy as np
import pytest

from grsoliton.chart import (
    define_chart,
    define_metric,
    evaluate_field,
    evaluate_fields,
    sample_points,
)
from grsoliton.contact import (
    StructureError,
    assemble_structure,
    covariant_phi_residual,
    exterior_derivative_oneform,
    fundamental_form,
    ladder_checks,
    ladder_rows,
    nijenhuis_torsion,
    ricci_reeb_check,
    sasakian_identity_checks,
)
from grsoliton.expr import CHUNK_POINTS, DomainError
from grsoliton.soliton import DEFAULT_TOLERANCE, ResidualReport, run_checks
from grsoliton.tensors import (
    lie_derivative_sym2,
    metric_tensor_field,
    oneform_field,
    riemann,
)

from conftest import SASAKIAN_ETA, SASAKIAN_PHI, SASAKIAN_XI, report_of

Y0_POINT = [0.4, 0.0, 1.2]   # y = 0 makes p = 4/17, q = -1/17


@pytest.fixture(scope="module")
def paper_structure(sasakian_geometry):
    chart, g = sasakian_geometry
    return assemble_structure(chart, g, SASAKIAN_PHI, SASAKIAN_XI, SASAKIAN_ETA)


def _points(chart):
    """The 100 points that assemble_structure samples by default."""
    return sample_points(chart, "uniform", 100, 811)


def _ladder(structure, points=None, d_convention="half"):
    """The five structure_* rows of the ladder at points, keyed by the
    name's end: almost_contact, contact, k_contact, normal, sasakian."""
    points = _points(structure.chart) if points is None else points
    reports = run_checks(structure.chart, ladder_checks(structure, d_convention), points,
                         None, DEFAULT_TOLERANCE)
    rows = ladder_rows(structure, reports, DEFAULT_TOLERANCE, d_convention, len(points))
    return {row.name.removeprefix("structure_"): row for row in rows}


def _identities(structure, points=None):
    """The sup-norms of the four Sasakian identities, keyed by name."""
    points = _points(structure.chart) if points is None else points
    reports = run_checks(structure.chart, sasakian_identity_checks(structure), points,
                         None, DEFAULT_TOLERANCE)
    return {r.name: r.abs_sup for r in reports}


class TestAssemble:
    def test_paper_structure_accepted(self, paper_structure):
        assert paper_structure.n == 1
        assert max(paper_structure.axiom_residuals.values()) <= 1e-12

    def test_transposed_phi_fails_square_axiom(self, sasakian_geometry):
        chart, g = sasakian_geometry
        phi_t = [list(row) for row in zip(*SASAKIAN_PHI)]
        with pytest.raises(StructureError) as err:
            assemble_structure(chart, g, phi_t, SASAKIAN_XI, SASAKIAN_ETA)
        assert err.value.axiom == "phi_square"

    def test_even_dimension_rejected(self, euclidean_plane):
        chart, g = euclidean_plane
        with pytest.raises(ValueError, match="odd"):
            assemble_structure(chart, g, [["0", "0"], ["0", "0"]],
                               ["0", "0"], ["0", "0"])

    def test_zero_phi_fails(self, euclidean_space):
        chart, g = euclidean_space
        zeros = [["0"] * 3 for _ in range(3)]
        with pytest.raises(StructureError) as err:
            assemble_structure(chart, g, zeros, ["0", "0", "1"], ["0", "0", "1"])
        assert err.value.axiom == "phi_square"

    def test_scaled_eta_fails_normalisation(self, sasakian_geometry):
        chart, g = sasakian_geometry
        eta2 = [f"2*({c})" for c in SASAKIAN_ETA]
        with pytest.raises(StructureError) as err:
            assemble_structure(chart, g, SASAKIAN_PHI, SASAKIAN_XI, eta2)
        assert err.value.axiom == "reeb_normalisation"


class TestFundamentalForm:
    def test_paper_value(self, paper_structure):
        # Phi(d_x, d_y) = g(d_x, phi d_y) = -(p^2+q^2) + q^2 = -p^2
        form = fundamental_form(paper_structure)
        assert form.evaluate_at([Y0_POINT])[0][0, 1] == pytest.approx(
            -16 / 289, abs=1e-15)

    def test_reeb_slot_vanishes(self, paper_structure):
        chart = paper_structure.chart
        form = fundamental_form(paper_structure)
        pts = sample_points(chart, "uniform", 40, seed=3)
        values = form.evaluate_at(pts)
        xi_vals = paper_structure.xi.evaluate_at(pts)
        assert np.abs(np.einsum("pij,pj->pi", values, xi_vals)).max() <= 1e-15

    def test_antisymmetric(self, paper_structure):
        pts = sample_points(paper_structure.chart, "uniform", 40, seed=4)
        values = fundamental_form(paper_structure).evaluate_at(pts)
        assert np.abs(values + values.transpose(0, 2, 1)).max() <= 1e-12


class TestExteriorDerivative:
    def test_paper_eta_half_convention(self, paper_structure):
        # d eta(d_x, d_y) = q_y / 2 = -16/289 at y = 0
        d_eta = exterior_derivative_oneform(paper_structure.eta, "half")
        assert d_eta.evaluate_at([Y0_POINT])[0][0, 1] == pytest.approx(
            -16 / 289, abs=1e-15)

    def test_closed_form(self, sasakian_geometry):
        chart, _ = sasakian_geometry
        dz = oneform_field(chart, ["0", "0", "1"])
        pts = sample_points(chart, "uniform", 30, seed=5)
        assert np.abs(exterior_derivative_oneform(dz).evaluate_at(pts)).max() == 0.0

    def test_plain_convention_doubles(self, paper_structure):
        pts = sample_points(paper_structure.chart, "uniform", 30, seed=6)
        half = exterior_derivative_oneform(paper_structure.eta, "half").evaluate_at(pts)
        plain = exterior_derivative_oneform(paper_structure.eta, "plain").evaluate_at(pts)
        assert np.abs(plain - 2 * half).max() <= 1e-15

    def test_unknown_convention(self, paper_structure):
        with pytest.raises(ValueError):
            exterior_derivative_oneform(paper_structure.eta, "third")


class TestNijenhuis:
    def test_constant_structure_vanishes(self, euclidean_space):
        chart, g = euclidean_space
        phi = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
        s = assemble_structure(chart, g, phi, ["0", "0", "1"], ["0", "0", "1"])
        pts = sample_points(chart, "uniform", 30, seed=7)
        assert np.abs(nijenhuis_torsion(s).evaluate_at(pts)).max() == 0.0

    def test_paper_value(self, paper_structure):
        # normality forces [phi,phi](d_x, d_y) = -2 d_eta(d_x, d_y) xi = 2 p^2 xi
        torsion = nijenhuis_torsion(paper_structure)
        values = torsion.evaluate_at([Y0_POINT])[0]
        assert np.allclose(values[:, 0, 1], [0.0, 0.0, 32 / 289], atol=1e-14)

    def test_antisymmetry(self, paper_structure):
        pts = sample_points(paper_structure.chart, "uniform", 40, seed=8)
        values = nijenhuis_torsion(paper_structure).evaluate_at(pts)
        assert np.abs(values + values.transpose(0, 1, 3, 2)).max() <= 1e-12


class TestClassify:
    def test_paper_example_is_sasakian(self, paper_structure):
        rows = _ladder(paper_structure)
        assert all(row.passed for row in rows.values())
        assert rows["sasakian"].details["d_convention"] == "half"
        assert max(row.abs_sup for row in rows.values()) <= 1e-10

    def test_contact_equals_fundamental_form(self, paper_structure):
        chart = paper_structure.chart
        pts = sample_points(chart, "uniform", 100, seed=9)
        d_eta = exterior_derivative_oneform(paper_structure.eta).evaluate_at(pts)
        form = fundamental_form(paper_structure).evaluate_at(pts)
        assert np.abs(d_eta - form).max() <= 1e-10

    def test_constant_structure_is_normal_but_not_contact(self, euclidean_space):
        chart, g = euclidean_space
        phi = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
        s = assemble_structure(chart, g, phi, ["0", "0", "1"], ["0", "0", "1"])
        rows = _ladder(s)
        assert rows["almost_contact"].passed
        assert rows["normal"].passed
        assert not rows["contact"].passed
        assert not rows["sasakian"].passed

    def test_plain_convention_breaks_the_ladder(self, paper_structure):
        rows = _ladder(paper_structure, d_convention="plain")
        assert rows["sasakian"].details["d_convention"] == "plain"
        assert not rows["contact"].passed
        assert not rows["sasakian"].passed

    @pytest.mark.parametrize("convention", ["half", "plain"])
    def test_ladder_report_matches_classify(self, paper_structure, convention):
        # one whole-array reduction against the plan's chunk-by-chunk one
        chart = paper_structure.chart
        pts = sample_points(chart, "uniform", CHUNK_POINTS + 100, seed=12)
        checks = ladder_checks(paper_structure, convention)
        values = evaluate_fields([c.residual for c in checks], chart.env_at(pts), len(pts))
        reports = []
        for check, value in zip(checks, values):
            sup = float(np.abs(value).max())
            reports.append(ResidualReport(check.name, sup, sup, 1e-8, sup <= 1e-8, len(pts), 0))
        rows = ladder_rows(paper_structure, reports, 1e-8, convention, len(pts))
        want = _ladder(paper_structure, pts, convention)
        assert rows == list(want.values())

    def test_non_finite_points_are_skipped(self):
        # eta_z = sqrt(x)^2/x is 1 on the chart, x > 0; for x < 0 it and its
        # derivative are NaN, and so are the contact and normality
        # conditions and the Sasakian identities that read eta
        chart = define_chart(["x", "y", "z"], {"x": (0, 1)})
        g = define_metric(chart, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        phi = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
        s = assemble_structure(chart, g, phi, ["0", "0", "1"], ["0", "0", "sqrt(x)^2/x"])
        pts = sample_points(chart, "uniform", 50, seed=13)
        mixed = np.concatenate([pts, pts * [-1.0, 1.0, 1.0]])
        verdicts = [(row.passed, row.abs_sup) for row in _ladder(s, mixed).values()]
        assert verdicts == [(row.passed, row.abs_sup) for row in _ladder(s, pts).values()]
        assert _identities(s, mixed) == _identities(s, pts)
        negative = pts * [-1.0, 1.0, 1.0]
        for check in (_ladder, _identities):
            with pytest.raises(DomainError, match="sqrt"):
                check(s, negative)

    def test_reeb_field_is_killing(self, paper_structure):
        # ladder implication: K-contact => xi Killing
        chart = paper_structure.chart
        g = paper_structure.metric
        pts = sample_points(chart, "uniform", 60, seed=10)
        lie = lie_derivative_sym2(metric_tensor_field(g), paper_structure.xi)
        assert np.abs(lie.evaluate_at(pts)).max() <= 1e-10


class TestSasakianIdentities:
    def test_all_four_small(self, paper_structure):
        residuals = _identities(paper_structure)
        assert set(residuals) == {"covariant_phi", "reeb_transport",
                                  "eta_transport", "curvature_reeb"}
        assert max(residuals.values()) <= 1e-10

    def test_covariant_phi_specific_pair(self, paper_structure):
        # (nabla_{d_x} phi) d_y = g(d_x, d_y) xi - eta(d_y) d_x = 0
        comps = covariant_phi_residual(paper_structure)
        chart = paper_structure.chart
        pts = sample_points(chart, "uniform", 20, seed=11)
        residual = evaluate_field(comps[0, 1], chart.env_at(pts), len(pts))
        assert np.abs(residual).max() <= 1e-13

    def test_curvature_applied_to_reeb(self, paper_structure):
        # R(d_x, xi) xi = eta(xi) d_x - eta(d_x) xi = d_x + q xi
        chart = paper_structure.chart
        g = paper_structure.metric
        R = riemann(g).evaluate_at([Y0_POINT])[0]
        xi = paper_structure.xi.evaluate_at([Y0_POINT])[0]
        value = np.einsum("lijk,j,k->li", R, xi, xi)[:, 0]
        q0 = -1 / 17
        assert np.allclose(value, [1.0, 0.0, q0], atol=1e-14)

    def test_ricci_reeb_pairing(self, paper_structure):
        # Ric(xi, Y) = 2 n g(xi, Y) on the worked example
        report = report_of(paper_structure.chart, ricci_reeb_check(paper_structure),
                           _points(paper_structure.chart))
        assert report.abs_sup <= 1e-9


class TestLadderConsistency:
    def test_sasakian_implies_k_contact_flag(self, paper_structure):
        rows = _ladder(paper_structure)
        if rows["sasakian"].passed:
            assert rows["k_contact"].passed and rows["normal"].passed \
                and rows["contact"].passed
