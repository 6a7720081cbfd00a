import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsoliton import expr
from grsoliton.chart import define_chart, define_metric, sample_points
from grsoliton.tensors import (
    TensorField,
    christoffel,
    covariant_derivative,
    derivative,
    directional_derivative,
    gradient,
    hessian,
    lie_bracket,
    lie_derivative_sym2,
    musical_flat,
    musical_sharp,
    oneform_field,
    ricci,
    riemann,
    riemann_lowered,
    sym_product,
    vector_field,
)

from conftest import SASAKIAN_ETA, SASAKIAN_XI


# bundled metric fixtures paired with the scalar potentials used on them
POTENTIALS = {
    "hyperbolic_geometry": ("-2*ln(y)", "-ln(y)"),
    "cone_geometry": ("x^2/2 - ln(x)", "ln(x)"),
    "sasakian_geometry": ("(ln(16+exp(2*y)) - 2*ln(sin(z)))/2",
                          "(ln(16+exp(2*y)) - 2*ln(sin(z)))/2"),
}
BUNDLED = tuple(POTENTIALS)


def value_at(field, point, params=None):
    return field.evaluate_at([point], params)[0]


def relative_gap(residual_values, reference_values):
    """Sup-norm normalized by max(1, sup |reference|): near singular chart
    boundaries the fields themselves reach 1e12, where absolute comparison
    of exact cancellations is meaningless in doubles."""
    return np.abs(residual_values).max() / max(1.0, np.abs(reference_values).max())


class TestChristoffel:
    def test_hyperbolic_values(self, hyperbolic_geometry):
        _, g = hyperbolic_geometry
        gam = value_at(christoffel(g), [0.3, 2.0])
        assert gam[1, 0, 0] == pytest.approx(0.5, abs=1e-15)       # 1/y
        assert gam[0, 0, 1] == pytest.approx(-0.5, abs=1e-15)      # -1/y
        assert gam[1, 1, 1] == pytest.approx(-0.5, abs=1e-15)

    def test_euclidean_flat(self, euclidean_plane):
        _, g = euclidean_plane
        assert np.abs(value_at(christoffel(g), [0.7, -0.2])).max() == 0.0

    def test_cone_value(self, cone_geometry):
        _, g = cone_geometry
        gam = value_at(christoffel(g), [2.0, 0.1, 0.4])
        assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-15)      # -x
        assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-15)       # 1/x

    def test_lower_pair_symmetry_is_structural(self, sasakian_geometry):
        _, g = sasakian_geometry
        comps = christoffel(g).comps
        n = g.dim
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    assert comps[k, i, j] is comps[k, j, i]


class TestRiemann:
    def test_hyperbolic_lowered_value(self, hyperbolic_geometry):
        # g(d_x, R(d_x, d_y) d_y) = -(g_xx g_yy - g_xy^2) = -1/y^4
        _, g = hyperbolic_geometry
        low = value_at(riemann_lowered(g), [0.1, 2.0])
        assert low[0, 0, 1, 1] == pytest.approx(-1 / 16, abs=1e-15)
        assert low[1, 0, 1, 0] == pytest.approx(1 / 16, abs=1e-15)

    def test_euclidean_zero(self, euclidean_space):
        _, g = euclidean_space
        assert np.abs(value_at(riemann(g), [0.3, 0.1, -0.5])).max() == 0.0

    @pytest.mark.parametrize("fixture", BUNDLED)
    def test_antisymmetry_in_the_plane_slots(self, fixture, request):
        chart, g = request.getfixturevalue(fixture)
        pts = sample_points(chart, "uniform", 50, seed=13)
        R = riemann(g).evaluate_at(pts)
        assert relative_gap(R + R.transpose(0, 1, 3, 2, 4), R) <= 1e-12


class TestRicci:
    def test_hyperbolic_is_minus_metric(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        ric = value_at(ricci(g), [0.4, 2.0])
        assert ric[0, 0] == pytest.approx(-0.25, abs=1e-15)
        pts = sample_points(chart, "uniform", 100, seed=5)
        gv = g.evaluate_at(pts)
        assert relative_gap(ricci(g).evaluate_at(pts) + gv, gv) <= 1e-10

    def test_cone_diagonal(self, cone_geometry):
        _, g = cone_geometry
        ric = value_at(ricci(g), [2.0, 0.3, 0.8])
        assert np.allclose(np.diag(ric), [0.0, -1.0, -1.0], atol=1e-13)
        assert np.abs(ric - np.diag(np.diag(ric))).max() <= 1e-13

    def test_euclidean_zero(self, euclidean_space):
        _, g = euclidean_space
        assert np.abs(value_at(ricci(g), [1.0, 2.0, 3.0])).max() == 0.0
        # every metric on a line is flat, and Ricci builds none of the
        # a = k terms that cancel: on one coordinate it is the literal zero
        line = define_chart(["x"])
        assert ricci(define_metric(line, [["1 + x^2"]])).comps[0, 0] is expr.ZERO

    @pytest.mark.parametrize("fixture", BUNDLED)
    def test_symmetry(self, fixture, request):
        chart, g = request.getfixturevalue(fixture)
        pts = sample_points(chart, "uniform", 100, seed=17)
        ric = ricci(g).evaluate_at(pts)
        assert relative_gap(ric - ric.transpose(0, 2, 1), ric) <= 1e-12


# smooth terms of a conformal factor phi, in coordinates x{i} and x{j}
PHI_TERMS = ("x{i}*x{j}", "sin(x{i} + x{j}/2)", "cos(x{i}*x{j})", "exp(x{i}/2 - x{j}/3)")


@st.composite
def conformal_factors(draw, n):
    """phi as text: a sum of one to four PHI_TERMS with coefficients in [-1, 1]."""
    index = st.integers(0, n - 1)
    terms = draw(st.lists(st.tuples(st.floats(-1, 1), st.sampled_from(PHI_TERMS), index, index),
                          min_size=1, max_size=4))
    return " + ".join(f"({c:.3f})*{term.format(i=i, j=j)}" for c, term, i, j in terms)


class TestConformallyFlatRicci:
    """Ricci of g = e^(2 phi) delta against Besse's formula (Einstein
    Manifolds, 1987, 1.J), Ric = -(n-2)(dd phi - dphi.dphi) - (lap phi +
    (n-2)|dphi|^2) delta, in flat operators: no Christoffel symbol and no
    curvature enters the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_against_the_conformal_formula(self, n, data):
        phi = data.draw(conformal_factors(n))
        chart = define_chart([f"x{i}" for i in range(n)])
        g = define_metric(chart, [[f"exp(2*({phi}))" if i == j else "0" for j in range(n)]
                                  for i in range(n)])
        pts = sample_points(chart, "uniform", 300, seed=79)
        dphi = derivative(expr.parse(phi), chart.names)
        env = chart.env_at(pts)
        d = expr.evaluate_many(dphi, env, len(pts))
        dd = expr.evaluate_many(derivative(dphi, chart.names), env, len(pts))
        oracle = (-(n - 2) * (dd - d[:, :, None] * d[:, None, :])
                  - (np.trace(dd, axis1=1, axis2=2) + (n - 2) * (d * d).sum(axis=1))
                  [:, None, None] * np.eye(n))
        assert relative_gap(ricci(g).evaluate_at(pts) - oracle, oracle) <= 1e-12


class TestGradient:
    def test_hyperbolic_log(self, hyperbolic_geometry):
        _, g = hyperbolic_geometry
        v = value_at(gradient(g, "ln(y)"), [0.0, 2.0])
        assert np.allclose(v, [0.0, 2.0], atol=1e-15)

    def test_constant_gradient_vanishes(self, hyperbolic_geometry):
        _, g = hyperbolic_geometry
        assert np.abs(value_at(gradient(g, "3.5"), [0.1, 1.0])).max() == 0.0

    def test_cone_log(self, cone_geometry):
        _, g = cone_geometry
        v = value_at(gradient(g, "ln(x)"), [2.0, 0.1, 0.1])
        assert np.allclose(v, [0.5, 0.0, 0.0], atol=1e-15)

    def test_defining_property(self, sasakian_geometry):
        # g(grad f, d_i) = d_i f for every coordinate field
        chart, g = sasakian_geometry
        f = "ln(16+exp(2*y)) + x^2"
        grad = gradient(g, f)
        pts = sample_points(chart, "uniform", 40, seed=23)
        gv = g.evaluate_at(pts)
        vv = grad.evaluate_at(pts)
        pairing = np.einsum("pij,pj->pi", gv, vv)
        df_comps = np.asarray([expr.differentiate(expr.parse(f), nm) for nm in chart.names],
                              dtype=object)
        df = expr.evaluate_many(df_comps, chart.env_at(pts), len(pts))
        assert np.abs(pairing - df).max() <= 1e-12


class TestHessian:
    def test_hyperbolic_potential(self, hyperbolic_geometry):
        _, g = hyperbolic_geometry
        h = value_at(hessian(g, "-2*ln(y)"), [0.5, 2.0])
        assert np.allclose(h, np.diag([0.5, 0.0]), atol=1e-15)

    def test_cone_potential(self, cone_geometry):
        _, g = cone_geometry
        h = value_at(hessian(g, "x^2/2 - ln(x)"), [2.0, 0.2, 0.9])
        assert h[1, 1] == pytest.approx(3.0, abs=1e-13)   # x^2 - 1
        assert h[2, 2] == pytest.approx(3.0, abs=1e-13)

    def test_constant_vanishes(self, cone_geometry):
        _, g = cone_geometry
        assert np.abs(value_at(hessian(g, "pi"), [1.0, 0.0, 0.0])).max() == 0.0


class TestMemo:
    @pytest.mark.parametrize("build", [christoffel, riemann, riemann_lowered, ricci])
    def test_shared_components_are_read_only(self, hyperbolic_geometry, build):
        _, g = hyperbolic_geometry
        comps = build(g).comps
        assert not comps.flags.writeable
        with pytest.raises(ValueError):
            comps[(0,) * comps.ndim] = expr.ZERO


class TestMusical:
    def test_hyperbolic_flat_of_dx(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        alpha = value_at(musical_flat(g, vector_field(chart, ["1", "0"])), [0.0, 2.0])
        assert np.allclose(alpha, [0.25, 0.0], atol=1e-16)

    def test_sasakian_flat_of_reeb_is_eta(self, sasakian_geometry):
        chart, g = sasakian_geometry
        xi = vector_field(chart, SASAKIAN_XI)
        eta = oneform_field(chart, SASAKIAN_ETA)
        pts = sample_points(chart, "uniform", 60, seed=29)
        gap = np.abs(musical_flat(g, xi).evaluate_at(pts)
                     - eta.evaluate_at(pts)).max()
        assert gap <= 1e-15

    @pytest.mark.parametrize("fixture", BUNDLED)
    def test_sharp_inverts_flat(self, fixture, request):
        chart, g = request.getfixturevalue(fixture)
        rng = np.random.default_rng(31)
        comps = [f"{rng.uniform(-2, 2):.6f} + {rng.uniform(-1, 1):.6f}*{chart.names[0]}"
                 for _ in range(chart.dim)]
        X = vector_field(chart, comps)
        back = musical_sharp(g, musical_flat(g, X))
        pts = sample_points(chart, "uniform", 50, seed=37)
        assert np.abs(back.evaluate_at(pts) - X.evaluate_at(pts)).max() <= 1e-12


class TestCovariantDerivative:
    def test_hyperbolic_dx_dx(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        dx = vector_field(chart, ["1", "0"])
        v = value_at(covariant_derivative(g, dx, dx), [0.3, 2.0])
        assert np.allclose(v, [0.0, 0.5], atol=1e-16)

    def test_sasakian_reeb_geodesic(self, sasakian_geometry):
        chart, g = sasakian_geometry
        xi = vector_field(chart, SASAKIAN_XI)
        pts = sample_points(chart, "uniform", 50, seed=41)
        assert np.abs(covariant_derivative(g, xi, xi).evaluate_at(pts)).max() == 0.0

    def test_euclidean_constant_fields(self, euclidean_plane):
        chart, g = euclidean_plane
        X = vector_field(chart, ["2", "-1"])
        Y = vector_field(chart, ["0.5", "3"])
        assert np.abs(value_at(covariant_derivative(g, X, Y), [1.0, 1.0])).max() == 0.0


class TestLieBracket:
    def test_leibniz_example(self, euclidean_plane):
        chart, _ = euclidean_plane
        b = lie_bracket(vector_field(chart, ["1", "0"]), vector_field(chart, ["0", "x"]))
        assert np.allclose(value_at(b, [0.7, 0.3]), [0.0, 1.0], atol=1e-16)

    def test_rotationlike_fields(self, euclidean_plane):
        chart, _ = euclidean_plane
        b = lie_bracket(vector_field(chart, ["y", "0"]),
                        vector_field(chart, ["0", "x"]))
        for pt in ([1.0, 2.0], [-0.5, 0.3]):
            assert np.allclose(value_at(b, pt), [-pt[0], pt[1]], atol=1e-16)

    def test_self_bracket_vanishes(self, cone_geometry):
        chart, _ = cone_geometry
        X = vector_field(chart, ["x*y", "z^2", "x+y"])
        pts = sample_points(chart, "uniform", 30, seed=43)
        assert np.abs(lie_bracket(X, X).evaluate_at(pts)).max() == 0.0


class TestLieDerivative:
    def test_hyperbolic_scaling_field(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        L = lie_derivative_sym2(g, vector_field(chart, ["0", "y"]))
        assert np.allclose(value_at(L, [0.2, 2.0]), np.diag([-0.5, 0.0]), atol=1e-16)

    def test_sasakian_reeb_is_killing(self, sasakian_geometry):
        chart, g = sasakian_geometry
        xi = vector_field(chart, SASAKIAN_XI)
        pts = sample_points(chart, "uniform", 60, seed=47)
        L = lie_derivative_sym2(g, xi)
        assert np.abs(L.evaluate_at(pts)).max() == 0.0

    def test_gradient_flow_gives_twice_hessian(self, hyperbolic_geometry):
        chart, g = hyperbolic_geometry
        f = "ln(y)"
        L = lie_derivative_sym2(g, gradient(g, f))
        H = hessian(g, f)
        pts = sample_points(chart, "uniform", 100, seed=53)
        hv = 2 * H.evaluate_at(pts)
        assert relative_gap(L.evaluate_at(pts) - hv, hv) <= 1e-12


class TestSymProduct:
    def test_basis_squares(self, hyperbolic_geometry):
        chart, _ = hyperbolic_geometry
        dx = oneform_field(chart, ["1", "0"])
        dy = oneform_field(chart, ["0", "1"])
        m = value_at(sym_product(dx, dx), [0.1, 1.0])
        assert m[0, 0] == 1.0 and np.abs(m).sum() == 1.0
        c = value_at(sym_product(dx, dy), [0.1, 1.0])
        assert c[0, 1] == 0.5 and c[1, 0] == 0.5 and c[0, 0] == 0.0

    def test_hyperbolic_potential_square(self, hyperbolic_geometry):
        chart, _ = hyperbolic_geometry
        df = oneform_field(chart, [expr.differentiate(expr.parse("-ln(y)"), nm)
                                   for nm in chart.names])
        m = value_at(sym_product(df, df), [0.0, 2.0])
        assert m[1, 1] == pytest.approx(0.25, abs=1e-16)


class TestDirectionalDerivative:
    def test_against_chain_rule(self, cone_geometry):
        chart, _ = cone_geometry
        X = vector_field(chart, ["1", "x", "0"])
        s = directional_derivative(X, "x*y + z")
        for pt in ([1.0, 0.5, 0.2], [2.0, -1.0, 1.0]):
            env = dict(zip(chart.names, pt))
            assert expr.evaluate(s, env) == pytest.approx(pt[1] + pt[0] * pt[0],
                                                          rel=1e-15)


def _random_polynomial_fields(chart, seed, count=2):
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        comps = []
        for _ in range(chart.dim):
            coeffs = rng.uniform(-1, 1, 1 + chart.dim)
            terms = [f"{coeffs[0]:.4f}"]
            terms += [f"{c:.4f}*{nm}" for c, nm in zip(coeffs[1:], chart.names)]
            comps.append(" + ".join(terms))
        fields.append(vector_field(chart, comps))
    return fields


class TestConnectionProperties:
    @pytest.mark.parametrize("fixture", BUNDLED)
    def test_torsion_free(self, fixture, request):
        chart, g = request.getfixturevalue(fixture)
        X, Y = _random_polynomial_fields(chart, seed=61)
        lhs = covariant_derivative(g, X, Y)
        rhs = covariant_derivative(g, Y, X)
        bracket = lie_bracket(X, Y)
        pts = sample_points(chart, "uniform", 60, seed=67)
        lv = lhs.evaluate_at(pts)
        gap = lv - rhs.evaluate_at(pts) - bracket.evaluate_at(pts)
        assert relative_gap(gap, lv) <= 1e-10

    @pytest.mark.parametrize("fixture", BUNDLED)
    def test_metric_compatibility(self, fixture, request):
        # d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il = 0
        chart, g = request.getfixturevalue(fixture)
        n = chart.dim
        gamma = christoffel(g).comps
        comps = []
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    total = expr.differentiate(g.comps[i, j], chart.names[k])
                    for l in range(n):
                        total = expr.sub(total, expr.mul(gamma[l, k, i], g.comps[l, j]))
                        total = expr.sub(total, expr.mul(gamma[l, k, j], g.comps[i, l]))
                    comps.append(total)
        field = TensorField(chart, "torsion",
                            np.asarray(comps, dtype=object).reshape(n, n, n))
        dg = [expr.differentiate(g.comps[i, j], chart.names[k])
              for k in range(n) for i in range(n) for j in range(n)]
        dg_field = TensorField(chart, "torsion",
                               np.asarray(dg, dtype=object).reshape(n, n, n))
        pts = sample_points(chart, "uniform", 60, seed=71)
        assert relative_gap(field.evaluate_at(pts), dg_field.evaluate_at(pts)) <= 1e-10

    @pytest.mark.parametrize("fixture", BUNDLED)
    def test_lowered_pair_symmetry_and_first_bianchi(self, fixture, request):
        chart, g = request.getfixturevalue(fixture)
        pts = sample_points(chart, "uniform", 50, seed=73)
        low = riemann_lowered(g).evaluate_at(pts)
        # R_lijk = R_jkli
        assert relative_gap(low - low.transpose(0, 3, 4, 1, 2), low) <= 1e-10
        R = riemann(g).evaluate_at(pts)
        bianchi = R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)
        assert relative_gap(bianchi, R) <= 1e-10
