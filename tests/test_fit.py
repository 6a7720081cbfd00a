import numpy as np
import pytest

from grsoliton.chart import sample_points
from grsoliton.fit import fit_constants
from grsoliton.soliton import SolitonSpec, build_gradient_check

from conftest import report_of

H2_F1, H2_F2 = "-2*ln(y)", "-ln(y)"
CONE_F1, CONE_F2 = "x^2/2 - ln(x)", "ln(x)"


class TestFitConstants:
    def test_cone_full_rank_exact_recovery(self, cone_geometry):
        chart, g = cone_geometry
        pts = sample_points(chart, "uniform", 100, seed=3)
        fit = fit_constants(g, CONE_F1, CONE_F2, pts)
        assert fit.rank == 3
        assert np.allclose(fit.solution, [-1.0, 1.0, 1.0], atol=1e-10)
        assert fit.null_space.shape == (3, 0)
        assert fit.residual_sup <= 1e-10 * max(1.0, fit.target_sup)

    def test_hyperbolic_rank_two_family(self, hyperbolic_geometry):
        # Ric = -g makes the -Ric and -g columns collinear: the solution is
        # the affine family c1 = 2, lam - c2 = 2
        chart, g = hyperbolic_geometry
        pts = sample_points(chart, "uniform", 100, seed=4)
        fit = fit_constants(g, H2_F1, H2_F2, pts)
        assert fit.rank == 2
        assert fit.null_space.shape == (3, 1)
        direction = np.abs(fit.null_space[:, 0])
        assert np.allclose(direction, [0.0, np.sqrt(0.5), np.sqrt(0.5)],
                           atol=1e-8)
        assert fit.coset_distance([2.0, 1.0, 3.0]) <= 1e-8
        assert fit.coset_distance([2.0, -4.0, -2.0]) <= 1e-8   # same coset
        assert fit.coset_distance([3.0, 1.0, 3.0]) > 0.5       # off the coset

    def test_zero_potentials_on_flat_metric(self, euclidean_plane):
        # only the -g column is nonzero: rank 1, lam = 0, 2-dim null space
        chart, g = euclidean_plane
        pts = sample_points(chart, "uniform", 50, seed=5)
        fit = fit_constants(g, "0", "0", pts)
        assert fit.rank == 1
        assert fit.null_space.shape == (3, 2)
        assert abs(fit.solution[2]) <= 1e-14
        assert np.abs(fit.null_space[2, :]).max() <= 1e-12

    def test_degenerate_all_zero_columns(self, euclidean_plane):
        # pinning lambda removes the only nonzero column: rank 0
        chart, g = euclidean_plane
        pts = sample_points(chart, "uniform", 20, seed=6)
        fit = fit_constants(g, "0", "0", pts, fixed={"lambda": 0.0})
        assert fit.rank == 0
        assert fit.free_names == ("c1", "c2")
        assert fit.null_space.shape == (2, 2)

    def test_partial_fit_recovers_free_subset(self, cone_geometry):
        chart, g = cone_geometry
        pts = sample_points(chart, "uniform", 80, seed=7)
        fit = fit_constants(g, CONE_F1, CONE_F2, pts, fixed={"c2": 1.0})
        assert fit.free_names == ("c1", "lambda")
        assert np.allclose(fit.solution, [-1.0, 1.0], atol=1e-10)

    def test_needs_three_points(self, cone_geometry):
        chart, g = cone_geometry
        pts = sample_points(chart, "uniform", 2, seed=8)
        with pytest.raises(ValueError):
            fit_constants(g, CONE_F1, CONE_F2, pts)

    def test_unknown_fixed_name(self, cone_geometry):
        chart, g = cone_geometry
        pts = sample_points(chart, "uniform", 10, seed=9)
        with pytest.raises(ValueError):
            fit_constants(g, CONE_F1, CONE_F2, pts, fixed={"mu": 1.0})

    def test_rank_invariant_under_point_count(self, hyperbolic_geometry,
                                              cone_geometry):
        for (chart, g), f1, f2, rank in (
                (hyperbolic_geometry, H2_F1, H2_F2, 2),
                (cone_geometry, CONE_F1, CONE_F2, 3)):
            for count in (50, 500):
                pts = sample_points(chart, "uniform", count, seed=10)
                assert fit_constants(g, f1, f2, pts).rank == rank

    def test_null_direction_does_not_change_the_residual(self,
                                                         hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        pts = sample_points(chart, "uniform", 100, seed=11)
        fit = fit_constants(g, H2_F1, H2_F2, pts)
        base = _sup_residual(g, fit.solution, pts)
        for t in (-2.0, 0.5, 3.0):
            shifted = fit.solution + t * fit.null_space[:, 0]
            assert abs(_sup_residual(g, shifted, pts) - base) <= 1e-10

    def test_returned_solution_is_locally_optimal(self, cone_geometry):
        chart, g = cone_geometry
        pts = sample_points(chart, "uniform", 60, seed=12)
        fit = fit_constants(g, CONE_F1, CONE_F2, pts)
        base = _sup_residual(g, fit.solution, pts, f1=CONE_F1, f2=CONE_F2)
        rng = np.random.default_rng(13)
        for _ in range(100):
            trial = fit.solution + rng.uniform(-0.5, 0.5, 3)
            assert base <= _sup_residual(g, trial, pts, f1=CONE_F1, f2=CONE_F2) + 1e-12


def _sup_residual(metric, constants, pts, f1=H2_F1, f2=H2_F2):
    spec = SolitonSpec(metric, "gradient", *map(float, constants), f1=f1, f2=f2)
    return report_of(metric.chart, build_gradient_check(spec), pts, spec.params).abs_sup


def manufactured(metric, f1, f2, constants, points):
    """(spec, fit): a gradient-mode spec from the potentials and (c1, c2,
    lam), and the constants fitted back from it, whose affine solution set
    must hold the given ones (fit.coset_distance of them is the certificate)."""
    spec = SolitonSpec(metric, "gradient", *constants, f1=f1, f2=f2)
    return spec, fit_constants(metric, spec.f1, spec.f2, points)


class TestManufactureInstance:
    def test_hyperbolic_coset_recovery(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        pts = sample_points(chart, "uniform", 100, seed=14)
        spec, fit = manufactured(g, H2_F1, H2_F2, (2.0, 1.0, 3.0), pts)
        assert fit.rank == 2
        assert fit.coset_distance([2.0, 1.0, 3.0]) <= 1e-8
        assert report_of(chart, build_gradient_check(spec), pts, spec.params).passed

    def test_cone_exact_recovery(self, cone_geometry):
        chart, g = cone_geometry
        pts = sample_points(chart, "uniform", 100, seed=15)
        spec, fit = manufactured(g, CONE_F1, CONE_F2, (-1.0, 1.0, 1.0), pts)
        assert fit.rank == 3
        assert np.allclose(fit.solution, [-1.0, 1.0, 1.0], atol=1e-8)

    def test_zero_templates(self, euclidean_plane):
        chart, g = euclidean_plane
        pts = sample_points(chart, "uniform", 30, seed=16)
        spec, fit = manufactured(g, "0", "0", (0.0, 0.0, 0.0), pts)
        assert fit.coset_distance([0.0, 0.0, 0.0]) <= 1e-12
        report = report_of(chart, build_gradient_check(spec), pts, spec.params)
        assert report.abs_sup == 0.0
