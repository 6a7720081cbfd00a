"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance and
printing a single PASS line on the way out (pytest -s shows them live).
Residual "passes" follow the report convention: relative sup-norm
(normalized by max(1, sup |LHS|)) within tolerance.
"""

import json
import time

import numpy as np
import pytest

from grsoliton import expr
from grsoliton.chart import sample_points
from grsoliton.cli import main
from grsoliton.contact import (
    assemble_structure,
    ladder_checks,
    ladder_rows,
    ricci_reeb_check,
)
from grsoliton.fit import fit_constants
from grsoliton.manifest import bundled_examples
from grsoliton.soliton import (
    build_soliton_check,
    build_theorem_checks,
    gradient_form,
    run_checks,
)
from grsoliton.tensors import (
    christoffel,
    covariant_derivative,
    directional_derivative,
    gradient,
    hessian,
    lie_bracket,
    lie_derivative_sym2,
    ricci,
    riemann,
    riemann_lowered,
    vector_field,
)

from conftest import report_of

BUNDLED = ("hyperbolic", "cone", "sasakian3")

INSTANCE_CONSTANTS = {
    "hyperbolic": (2.0, 1.0, 3.0),
    "cone": (-1.0, 1.0, 1.0),
    "sasakian3": (-1.0, 0.0, 1.0),
}


def _verdict(number, label):
    print(f"ACCEPTANCE {number} {label}: PASS")


def _manifest_check(name):
    """The bundled manifest and the check of its gradient form at its
    instance constants."""
    m = bundled_examples(name)
    form = gradient_form(m.metric, m.scalars["f1"], m.scalars["f2"])
    return m, build_soliton_check(m.metric, form, *INSTANCE_CONSTANTS[name])


def _rel(residual_values, reference_values):
    return np.abs(residual_values).max() / max(1.0, np.abs(reference_values).max())


def test_criterion_1_hyperbolic_reproduction():
    started = time.perf_counter()
    m, check = _manifest_check("hyperbolic")
    pts = sample_points(m.chart, "uniform", 10_000, seed=m.sampling["seed"])
    report = report_of(m.chart, check, pts, m.params, 1e-9)
    elapsed = time.perf_counter() - started
    assert report.n_points == 10_000
    assert report.rel_sup <= 1e-9, f"relative residual {report.rel_sup:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _verdict(1, f"hyperbolic soliton residual {report.rel_sup:.2e} in {elapsed:.2f}s")


def test_criterion_2_cone_reproduction():
    m, check = _manifest_check("cone")
    pts = sample_points(m.chart, "uniform", 10_000, seed=m.sampling["seed"])
    report = report_of(m.chart, check, pts, m.params, 1e-9)
    assert report.rel_sup <= 1e-9, f"relative residual {report.rel_sup:.3e}"
    _verdict(2, f"cone soliton residual {report.rel_sup:.2e}")


@pytest.fixture(scope="module")
def sasakian_setup():
    m, check = _manifest_check("sasakian3")
    structure = assemble_structure(m.chart, m.metric, m.structure["phi"],
                                   m.structure["xi"], m.structure["eta"])
    pts = sample_points(m.chart, m.sampling["strategy"], m.sampling["count"],
                        m.sampling["seed"])
    return m, check, structure, pts


def test_criterion_3_sasakian_reproduction(sasakian_setup):
    m, check, structure, pts = sasakian_setup
    f1, f2 = m.scalars["f1"], m.scalars["f2"]
    c1, c2, lam = INSTANCE_CONSTANTS["sasakian3"]
    reports = run_checks(m.chart, ladder_checks(structure), pts, None, 1e-9)
    ladder = ladder_rows(structure, reports, 1e-9, "half", len(pts))
    flags = {row.name: row.passed for row in ladder}
    assert all(flags.values()), flags
    assert max(row.abs_sup for row in ladder) <= 1e-9

    soliton = report_of(m.chart, check, pts, m.params, 1e-9)
    assert soliton.rel_sup <= 1e-9

    alignment_check = build_theorem_checks(structure, f1, f2, c1, c2, lam)[0]
    alignment = report_of(m.chart, alignment_check, pts, tolerance=1e-8)
    assert alignment.rel_sup <= 1e-8

    # xi(f1) = -(2 c2 + lam) cot z, pointwise
    xi_f1 = directional_derivative(structure.xi, f1)
    lhs = expr.evaluate_many(xi_f1, m.chart.env_at(pts), len(pts))
    scale = -(2.0 * c2 + lam)
    rhs = scale * expr.evaluate_many(expr.parse("cot(z)"), m.chart.env_at(pts),
                                     len(pts))
    assert np.abs(lhs - rhs).max() <= 1e-9
    _verdict(3, "Sasakian ladder, soliton, and alignment reproduction")


def test_criterion_4_lemma_suite(sasakian_setup):
    m, _, structure, pts = sasakian_setup
    f1, f2 = m.scalars["f1"], m.scalars["f2"]
    c1, c2, lam = INSTANCE_CONSTANTS["sasakian3"]
    transport_check, *identity_checks = build_theorem_checks(structure, f1, f2, c1, c2, lam)[1:]
    transport = report_of(m.chart, transport_check, pts, tolerance=1e-8)
    assert transport.passed, f"grad transport rel {transport.rel_sup:.3e}"

    ricci_reeb = report_of(m.chart, ricci_reeb_check(structure), pts)
    assert ricci_reeb.abs_sup <= 1e-9

    identities = run_checks(m.chart, identity_checks, pts, None, 1e-7)
    for report in identities:
        assert report.passed, f"{report.name} rel {report.rel_sup:.3e}"
    _verdict(4, "transport identity, Ricci-Reeb pairing, and identity suite")


def test_criterion_5_tensor_property_suite():
    potentials = {
        "hyperbolic": ("-2*ln(y)", "-ln(y)"),
        "cone": ("x^2/2 - ln(x)", "ln(x)"),
        "sasakian3": ("(ln(16+exp(2*y)) - 2*ln(sin(z)))/2",) * 2,
    }
    for name in BUNDLED:
        m = bundled_examples(name)
        chart, g = m.chart, m.metric
        pts = sample_points(chart, "uniform", 200, seed=101)
        env = chart.env_at(pts)

        R = riemann(g).evaluate_at(pts)
        assert _rel(R + R.transpose(0, 1, 3, 2, 4), R) <= 1e-10
        low = riemann_lowered(g).evaluate_at(pts)
        assert _rel(low - low.transpose(0, 3, 4, 1, 2), low) <= 1e-10
        bianchi = R + R.transpose(0, 1, 4, 2, 3) + R.transpose(0, 1, 3, 4, 2)
        assert _rel(bianchi, R) <= 1e-10

        ric = ricci(g).evaluate_at(pts)
        assert _rel(ric - ric.transpose(0, 2, 1), ric) <= 1e-12

        n = chart.dim
        gamma = christoffel(g).comps
        compat = []
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    total = expr.differentiate(g.comps[i, j], chart.names[k])
                    for l in range(n):
                        total = expr.sub(total, expr.mul(gamma[l, k, i], g.comps[l, j]))
                        total = expr.sub(total, expr.mul(gamma[l, k, j], g.comps[i, l]))
                    compat.append(total)
        compat_vals = expr.evaluate_many(compat, env, len(pts))
        assert _rel(compat_vals, g.evaluate_at(pts)) <= 1e-10

        rng = np.random.default_rng(103)
        fields = []
        for _ in range(2):
            comps = [" + ".join([f"{rng.uniform(-1, 1):.4f}"]
                                + [f"{rng.uniform(-1, 1):.4f}*{nm}"
                                   for nm in chart.names])
                     for _ in range(n)]
            fields.append(vector_field(chart, comps))
        X, Y = fields
        torsion = covariant_derivative(g, X, Y).evaluate_at(pts) \
            - covariant_derivative(g, Y, X).evaluate_at(pts) \
            - lie_bracket(X, Y).evaluate_at(pts)
        assert _rel(torsion, covariant_derivative(g, X, Y).evaluate_at(pts)) <= 1e-10

        f1, _ = potentials[name]
        L = lie_derivative_sym2(g, gradient(g, f1))
        H = hessian(g, f1)
        hv = 2 * H.evaluate_at(pts)
        assert _rel(L.evaluate_at(pts) - hv, hv) <= 1e-10

        if name == "hyperbolic":
            gv = g.evaluate_at(pts)
            assert _rel(ric + gv, gv) <= 1e-10

        _fd_agreement(m, pts)
    _verdict(5, "curvature, connection, and derivative properties on all metrics")


def _fd_agreement(manifest, pts, h=1e-5):
    """Symbolic derivatives of every bundled expression vs central FD.

    Points within 0.02 of a finite chart end are excluded: there the
    central difference's own truncation error (h^2 |f'''| / 6, with
    |f'''| ~ 1/sin^3 near a cot/ln singularity) exceeds the bound being
    checked, so the oracle is only valid on the deeper interior.
    """
    chart = manifest.chart
    keep = np.ones(len(pts), dtype=bool)
    for axis, (lo, hi) in enumerate(chart.bounds):
        if np.isfinite(lo):
            keep &= pts[:, axis] >= lo + 0.02
        if np.isfinite(hi):
            keep &= pts[:, axis] <= hi - 0.02
    pts = pts[keep]
    assert len(pts) >= 100
    exprs = [e for row in manifest.metric.comps for e in row]
    if manifest.scalars:
        exprs += list(manifest.scalars.values())
    if manifest.structure:
        exprs += [e for row in manifest.structure["phi"] for e in row]
        exprs += manifest.structure["xi"] + manifest.structure["eta"]
    env = chart.env_at(pts, manifest.params)
    for e in exprs:
        for axis, name in enumerate(chart.names):
            sym = expr.evaluate_many(expr.differentiate(e, name), env, len(pts))
            up = pts.copy()
            up[:, axis] += h
            down = pts.copy()
            down[:, axis] -= h
            fd = (expr.evaluate_many(e, chart.env_at(up, manifest.params), len(pts))
                  - expr.evaluate_many(e, chart.env_at(down, manifest.params), len(pts))) / (2 * h)
            gap = np.abs(sym - fd) / np.maximum(1.0, np.abs(sym))
            assert gap.max() <= 1e-6


def test_criterion_6_fit_round_trip():
    cone = bundled_examples("cone")
    pts = sample_points(cone.chart, "uniform", 200, seed=7)
    fit = fit_constants(cone.metric, gradient_form(cone.metric, cone.scalars["f1"],
                                                   cone.scalars["f2"]), pts)
    assert fit.rank == 3
    assert np.abs(fit.solution - np.array([-1.0, 1.0, 1.0])).max() <= 1e-8

    hyper = bundled_examples("hyperbolic")
    pts = sample_points(hyper.chart, "uniform", 200, seed=7)
    fit = fit_constants(hyper.metric, gradient_form(hyper.metric, hyper.scalars["f1"],
                                                    hyper.scalars["f2"]), pts)
    assert fit.rank == 2
    assert fit.null_space.shape == (3, 1)
    direction = fit.null_space[:, 0]
    target = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    angle = np.arccos(min(1.0, abs(float(direction @ target))))
    assert angle <= 1e-6, f"null direction angle {angle:.3e}"
    assert fit.coset_distance([2.0, 1.0, 3.0]) <= 1e-8
    _verdict(6, "constant recovery with rank and null-space structure")


def test_criterion_7_violation_sensitivity():
    for name in BUNDLED:
        m = bundled_examples(name)
        form = gradient_form(m.metric, expr.add(m.scalars["f1"], expr.parse("0.01*x")),
                             m.scalars["f2"])
        perturbed = build_soliton_check(m.metric, form, *INSTANCE_CONSTANTS[name])
        pts = sample_points(m.chart, m.sampling["strategy"],
                            m.sampling["count"], m.sampling["seed"])
        report = report_of(m.chart, perturbed, pts, m.params)
        assert report.abs_sup > 1e-4, f"{name}: {report.abs_sup:.3e}"
        assert not report.passed
    _verdict(7, "perturbed potentials are detected on every bundled instance")


def test_criterion_8_full_cli_run(capsys):
    started = time.perf_counter()
    for name in BUNDLED:
        code = main(["all", "--manifest", name, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0, f"{name} exited {code}"
        assert json.loads(out)["overall_pass"] is True
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"CLI runs took {elapsed:.1f}s"
    _verdict(8, f"CLI `all` on three bundled manifests in {elapsed:.1f}s")
