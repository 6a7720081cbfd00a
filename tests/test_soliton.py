import numpy as np
import pytest

from grsoliton.chart import sample_points
from grsoliton.contact import assemble_structure, ladder_checks, ladder_rows
from grsoliton.expr import DomainError, evaluate_many
from grsoliton.soliton import (
    DEFAULT_TOLERANCE,
    build_soliton_check,
    build_theorem_checks,
    classify_constants,
    gradient_form,
    potential_square_lie_sides,
    run_checks,
    vector_form,
)
from grsoliton.tensors import TensorField, gradient, vector_field

from conftest import (
    SASAKIAN_ETA,
    SASAKIAN_F1,
    SASAKIAN_F2,
    SASAKIAN_PHI,
    SASAKIAN_XI,
    report_of,
)

H2_F1, H2_F2 = "-2*ln(y)", "-ln(y)"
CONE_F1, CONE_F2 = "x^2/2 - ln(x)", "ln(x)"


@pytest.fixture(scope="module")
def paper_structure(sasakian_geometry):
    chart, g = sasakian_geometry
    return assemble_structure(chart, g, SASAKIAN_PHI, SASAKIAN_XI, SASAKIAN_ETA)


def _theorem_check(structure, name, f1=SASAKIAN_F1, f2=SASAKIAN_F2, c2=0.0, lam=1.0):
    """The theorem check called name, at c1 = -1."""
    [check] = [c for c in build_theorem_checks(structure, f1, f2, -1.0, c2, lam)
               if c.name == name]
    return check


def _alignment(structure, f1=SASAKIAN_F1, f2=SASAKIAN_F2):
    """The alignment check at c1 = -1 and its field zeta, the check's reference."""
    check = _theorem_check(structure, "theorem_alignment", f1, f2)
    return TensorField(structure.chart, "vector", check.reference), check


def _points(chart, count=300, seed=21):
    return sample_points(chart, "uniform", count, seed)


class TestGradientForm:
    def test_hyperbolic_instance(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        check = build_soliton_check(g, gradient_form(g, H2_F1, H2_F2), 2.0, 1.0, 3.0)
        report = report_of(chart, check, _points(chart))
        assert report.passed
        assert report.rel_sup <= 1e-12

    def test_cone_instance(self, cone_geometry):
        chart, g = cone_geometry
        check = build_soliton_check(g, gradient_form(g, CONE_F1, CONE_F2), -1.0, 1.0, 1.0)
        report = report_of(chart, check, _points(chart))
        assert report.passed and report.rel_sup <= 1e-12

    def test_sasakian_instance(self, sasakian_geometry):
        chart, g = sasakian_geometry
        check = build_soliton_check(g, gradient_form(g, SASAKIAN_F1, SASAKIAN_F2),
                                    -1.0, 0.0, 1.0)
        report = report_of(chart, check, _points(chart))
        assert report.passed and report.rel_sup <= 1e-12

    def test_flat_zero_instance(self, euclidean_plane):
        chart, g = euclidean_plane
        check = build_soliton_check(g, gradient_form(g, "0", "0"), 0.0, 0.0, 0.0)
        report = report_of(chart, check, _points(chart))
        assert report.abs_sup == 0.0

    def test_wrong_constants_fail(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        check = build_soliton_check(g, gradient_form(g, H2_F1, H2_F2), 5.0, 1.0, 3.0)
        report = report_of(chart, check, _points(chart))
        assert not report.passed

    def test_nonfinite_constant_rejected(self, hyperbolic_geometry):
        _, g = hyperbolic_geometry
        with pytest.raises(ValueError):
            build_soliton_check(g, gradient_form(g, "0", "0"), float("inf"), 0.0, 0.0)

    @pytest.mark.parametrize("constants, name", [
        ((float("nan"), 0.0, 1.0), "c1"),
        ((-1.0, float("inf"), 1.0), "c2"),
        ((-1.0, 0.0, -float("inf")), "lam"),
    ])
    def test_nonfinite_theorem_constant_rejected(self, paper_structure, constants, name):
        # rejected before any term is built, not left to a DomainError that
        # names a metric component
        with pytest.raises(ValueError, match=f"^constant {name} must be finite"):
            build_theorem_checks(paper_structure, SASAKIAN_F1, SASAKIAN_F2, *constants)


class TestVectorForm:
    def test_gradient_substitution_doubles_the_residual(self, hyperbolic_geometry):
        # with X_i = grad f_i the vector-form residual is exactly twice the
        # gradient-form residual, componentwise
        chart, g = hyperbolic_geometry
        c1, c2, lam = 2.0, 1.0, 2.5   # deliberately non-solving constants
        pts = _points(chart, 120)
        gcheck = build_soliton_check(g, gradient_form(g, H2_F1, H2_F2), c1, c2, lam)
        vcheck = build_soliton_check(g, vector_form(g, gradient(g, H2_F1), gradient(g, H2_F2)),
                                     c1, c2, lam)
        gv = evaluate_many(gcheck.residual, chart.env_at(pts), len(pts))
        vv = evaluate_many(vcheck.residual, chart.env_at(pts), len(pts))
        scale = max(1.0, np.abs(vv).max())
        assert np.abs(vv - 2 * gv).max() / scale <= 1e-10

    def test_killing_reeb_field(self, sasakian_geometry):
        chart, g = sasakian_geometry
        form = vector_form(g, vector_field(chart, SASAKIAN_XI),
                           vector_field(chart, ["0", "0", "0"]))
        report = report_of(chart, build_soliton_check(g, form, 0.0, 0.0, 0.0), _points(chart))
        assert report.abs_sup == 0.0

    def test_euclidean_dilation_homothety(self, euclidean_plane):
        chart, g = euclidean_plane
        form = vector_form(g, vector_field(chart, ["x", "y"]), vector_field(chart, ["0", "0"]))
        report = report_of(chart, build_soliton_check(g, form, 0.0, 0.0, 1.0), _points(chart))
        assert report.abs_sup == 0.0


class TestAlignmentCondition:
    def test_paper_instance(self, paper_structure):
        chart = paper_structure.chart
        pts = _points(chart)
        zeta, check = _alignment(paper_structure)
        report = report_of(chart, check, pts)
        assert report.passed
        # zeta = -(2 c2 + lam) cot(z) xi = -cot(z) xi here; cot reaches ~1e3
        # at the sampling margin, so compare in relative terms
        values = zeta.evaluate_at(pts)
        expected = np.zeros_like(values)
        expected[:, 2] = -1.0 / np.tan(pts[:, 2])
        gap = np.abs(values - expected).max() / max(1.0, np.abs(expected).max())
        assert gap <= 1e-9

    def test_zero_on_the_equator(self, paper_structure):
        midplane = [[0.3, -0.2, np.pi / 2]]
        zeta, _ = _alignment(paper_structure)
        assert np.abs(zeta.evaluate_at(midplane)).max() <= 1e-16

    def test_constant_potentials_give_zero(self, paper_structure):
        pts = _points(paper_structure.chart, 50)
        zeta, check = _alignment(paper_structure, "3", "-2")
        report = report_of(paper_structure.chart, check, pts)
        assert np.abs(zeta.evaluate_at(pts)).max() == 0.0
        assert report.abs_sup == 0.0


class TestGradTransport:
    def test_paper_instance(self, paper_structure):
        check = _theorem_check(paper_structure, "grad_transport")
        report = report_of(paper_structure.chart, check, _points(paper_structure.chart))
        assert report.passed and report.abs_sup <= 1e-9

    def test_perturbation_detected(self, paper_structure):
        check = _theorem_check(paper_structure, "grad_transport", SASAKIAN_F1 + " + x")
        report = report_of(paper_structure.chart, check, _points(paper_structure.chart))
        assert report.abs_sup > 1e-3
        assert not report.passed

    def test_vanishing_data_with_cancelling_constants(self, paper_structure):
        # lam = -2 c2 n makes the right side vanish with zero potentials
        check = _theorem_check(paper_structure, "grad_transport", "0", "0", 1.0, -2.0)
        report = report_of(paper_structure.chart, check, _points(paper_structure.chart))
        assert report.abs_sup == 0.0


class TestSupportingIdentities:
    def test_paper_instance(self, paper_structure):
        checks = build_theorem_checks(paper_structure, SASAKIAN_F1, SASAKIAN_F2,
                                      -1.0, 0.0, 1.0)[2:]
        reports = run_checks(paper_structure.chart, checks,
                             _points(paper_structure.chart), None, DEFAULT_TOLERANCE)
        assert [r.name for r in reports] == ["double_lie", "potential_square_lie",
                                             "scalar_reduction"]
        for report in reports:
            assert report.passed
            assert report.rel_sup <= 1e-8

    def test_square_lie_euclidean_oracle(self, euclidean_space):
        # xi = d_z, f2 = x z: both sides equal x for Y = d_x
        chart, _ = euclidean_space
        xi = vector_field(chart, ["0", "0", "1"])
        lhs, rhs = potential_square_lie_sides(xi, "x*z")
        pts = _points(chart, 40)
        lv = evaluate_many(lhs, chart.env_at(pts), len(pts))
        rv = evaluate_many(rhs, chart.env_at(pts), len(pts))
        assert np.abs(lv[:, 0] - pts[:, 0]).max() <= 1e-15
        assert np.abs(rv[:, 0] - pts[:, 0]).max() <= 1e-15
        assert np.abs(lv - rv).max() <= 1e-15

    def test_square_lie_constant_potential(self, euclidean_space):
        chart, _ = euclidean_space
        xi = vector_field(chart, ["0", "0", "1"])
        lhs, rhs = potential_square_lie_sides(xi, "42")
        pts = _points(chart, 20)
        assert np.abs(evaluate_many(lhs, chart.env_at(pts), len(pts))).max() == 0.0
        assert np.abs(evaluate_many(rhs, chart.env_at(pts), len(pts))).max() == 0.0


class TestTheoremProperty:
    def test_sasakian_plus_soliton_implies_alignment(self, paper_structure,
                                                     sasakian_geometry):
        chart, g = sasakian_geometry
        pts = _points(chart)
        reports = run_checks(chart, ladder_checks(paper_structure), pts, None,
                             DEFAULT_TOLERANCE)
        ladder = ladder_rows(paper_structure, reports, DEFAULT_TOLERANCE, "half", len(pts))
        check = build_soliton_check(g, gradient_form(g, SASAKIAN_F1, SASAKIAN_F2),
                                    -1.0, 0.0, 1.0)
        soliton_ok = report_of(chart, check, pts, tolerance=1e-8).passed
        assert all(row.passed for row in ladder) and soliton_ok
        _, check = _alignment(paper_structure)
        alignment = report_of(chart, check, pts, tolerance=1e-6)
        assert alignment.passed


class TestScaleCoherence:
    def test_zero_potentials_expose_the_ricci_term(self, euclidean_plane,
                                                   hyperbolic_geometry):
        # with f1 = f2 = 0 and c2 = 1, lam = 0 the residual reduces to
        # -Ric: zero exactly on Ricci-flat metrics
        _, flat = euclidean_plane
        chart, curved = hyperbolic_geometry
        check_flat = build_soliton_check(flat, gradient_form(flat, "0", "0"), 5.0, 1.0, 0.0)
        points = _points(flat.chart, 200, 0)
        assert report_of(flat.chart, check_flat, points).abs_sup == 0.0
        check_curved = build_soliton_check(curved, gradient_form(curved, "0", "0"), 5.0, 1.0, 0.0)
        assert not report_of(chart, check_curved, _points(chart)).passed


class TestDomainHandling:
    def test_partial_domain_failures_are_skipped(self, cone_geometry):
        chart, g = cone_geometry
        # d/dx sqrt(x-1) = 1/(2 sqrt(x-1)) leaves the domain on half the
        # sampled box x in (0, 2], so those points must be skipped
        check = build_soliton_check(g, gradient_form(g, "sqrt(x-1)", "0"), 0.0, 0.0, 0.0)
        report = report_of(chart, check, _points(chart, 200))
        assert report.n_skipped > 0
        assert report.n_points > 0
        assert report.n_points + report.n_skipped == 200

    def test_all_points_invalid_raises(self, cone_geometry):
        chart, g = cone_geometry
        check = build_soliton_check(g, gradient_form(g, "sqrt(x-5)", "0"), 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            report_of(chart, check, _points(chart, 50))


class TestClassifyConstants:
    def test_killing_and_homothety(self):
        assert classify_constants(0, 0, 0, 3) == {"killing", "homothety"}
        assert classify_constants(0, 0, 2, 3) == {"homothety"}

    def test_ricci_soliton(self):
        assert classify_constants(0, -1, 0.7, 3) == {"ricci_soliton"}

    def test_vacuum_near_horizon(self):
        assert classify_constants(1, 0.5, -2, 4) == {"vacuum_near_horizon"}

    def test_einstein_weyl(self):
        assert classify_constants(1, -1, 0.3, 3) == {"einstein_weyl"}
        assert classify_constants(1, -0.5, 0.3, 4) == {"einstein_weyl"}

    def test_projective_class(self):
        labels = classify_constants(1, -0.5, 0, 3)
        assert "projective_skew_ricci" in labels

    def test_low_dimension_skips_quotient_labels(self):
        assert classify_constants(1, -1, 0, 2) == set()

    def test_generic_constants_unlabelled(self):
        assert classify_constants(0.3, 0.2, 0.1, 3) == set()

    def test_exact_comparison_tolerance(self):
        assert classify_constants(1e-13, -1, 0, 3) == {"ricci_soliton"}
        assert classify_constants(1e-11, -1, 0, 3) == set()
