"""Almost-contact metric structures and the Sasakian classification ladder.

A structure bundles (phi, xi, eta, g) on an odd-dimensional chart.  The
phi matrix convention is phi^i_j with the column as the input slot, so
phi applied to the j-th coordinate field is the j-th column.

The exterior derivative of a one-form defaults to the half convention
d eta(X, Y) = (X(eta Y) - Y(eta X) - eta([X, Y])) / 2; "plain" drops the
factor.  Every report records which convention produced it.

The almost-contact axioms, the three ladder conditions, the four Sasakian
identities and Ric(xi, .) = 2n g(xi, .) are soliton.Check objects with no
reference, reduced by soliton.ResidualSup as every other check is: a
residual is the sup of |value| over the points where the value is finite,
the other points are counted as skipped, and a check with no point left
raises DomainError.  The axiom gate alone admits no skipped point.
ladder_rows decides the Sasakian ladder from the reports of the
ladder_checks.
"""

import dataclasses
import math
import operator

import numpy as np

from grsoliton import expr
from grsoliton.chart import as_points, sample_points
from grsoliton.expr import Num, as_scalar
from grsoliton.soliton import DEFAULT_TOLERANCE, Check, ResidualReport, reduce_checks
from grsoliton.tensors import (
    TensorField,
    christoffel,
    derivative,
    fold,
    from_upper,
    identity,
    lie_bracket_comps,
    oneform_field,
    ricci,
    riemann,
    upper_pairs,
    vector_field,
)

_AXIOM_POINTS = 100
_AXIOM_SEED = 811


class StructureError(ValueError):
    """An almost-contact axiom fails beyond tolerance; its check used
    n_points sample points and skipped n_skipped."""

    def __init__(self, axiom, residual, point, n_points, n_skipped):
        super().__init__(
            f"axiom {axiom!r} fails: residual {residual:.3e} at {list(point)}")
        self.axiom = axiom
        self.residual = residual
        self.point = point
        self.n_points = n_points
        self.n_skipped = n_skipped


class AlmostContactStructure:
    """Validated (phi, xi, eta, g) bundle on an odd-dimensional chart."""

    __slots__ = ("chart", "metric", "phi", "xi", "eta", "n", "axiom_residuals")

    def __init__(self, chart, metric, phi, xi, eta, n, axiom_residuals):
        self.chart = chart
        self.metric = metric
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.n = n
        self.axiom_residuals = axiom_residuals


def _axiom_components(chart, metric, phi, xi, eta):
    n = chart.dim
    g, phi, xi, eta = metric.comps, phi.comps, xi.comps, eta.comps
    # compat[i, j, a, b] = phi^a_i (g_ab phi^b_j), summed over a, then b
    g_phi = (g[:, :, None] * phi).transpose(2, 0, 1)  # [j, a, b]
    compat = np.add.reduce((phi.T[:, None, :, None] * g_phi).reshape(n, n, n * n), axis=2)
    return {
        "reeb_normalisation": [eta @ xi - expr.ONE],
        "phi_square": phi @ phi + identity(n) - np.multiply.outer(eta, xi).T,
        "metric_compatibility": compat - g + np.multiply.outer(eta, eta),
        "reeb_kernel": np.stack([phi @ xi, eta @ phi], axis=1),
    }


def assemble_structure(chart, metric, phi, xi, eta, points=None, params=None,
                       tolerance=DEFAULT_TOLERANCE, groups=()):
    """Validate the four almost-contact-metric axioms and bundle the fields.

    phi is an (n, n) matrix of expressions (column = input index), xi a
    vector, eta a one-form.  Each axiom is a check with no reference,
    evaluated at points, or at 100 uniform points when points is None.
    Raises StructureError naming the first violated axiom and the points
    its check used and skipped: at the first sample point where its value
    is not finite, with residual nan, or else, when its sup exceeds
    tolerance, at its worst point.  groups are further
    (fields, accumulator) pairs evaluated in the same plan as the axioms
    (see chart.reduce_fields), whether or not an axiom fails.
    """
    if chart.dim % 2 == 0:
        raise ValueError(f"almost contact structures need odd dimension, got {chart.dim}")
    phi = phi if isinstance(phi, TensorField) else \
        TensorField(chart, "endo", [[as_scalar(entry) for entry in row] for row in phi])
    xi = xi if isinstance(xi, TensorField) else vector_field(chart, xi)
    eta = eta if isinstance(eta, TensorField) else oneform_field(chart, eta)
    points = sample_points(chart, "uniform", _AXIOM_POINTS, _AXIOM_SEED) \
        if points is None else as_points(points)
    checks = [Check(axiom, comps, []) for axiom, comps
              in _axiom_components(chart, metric, phi, xi, eta).items()]
    residuals = {}
    for sup in reduce_checks(chart, checks, points, params, tolerance, groups):
        counts = sup.n_valid, sup.n_points - sup.n_valid
        if sup.first_bad is not None:
            raise StructureError(sup.check.name, math.nan, points[sup.first_bad], *counts)
        report = sup.finish()
        if report.abs_sup > tolerance:
            raise StructureError(report.name, report.abs_sup, points[sup.worst], *counts)
        residuals[report.name] = report.abs_sup
    return AlmostContactStructure(chart, metric, phi, xi, eta,
                                  (chart.dim - 1) // 2, residuals)


def fundamental_form(structure):
    """Phi_ij = g(d_i, phi d_j); antisymmetric for a valid structure."""
    return TensorField(structure.chart, "form2", structure.metric.comps @ structure.phi.comps)


def exterior_derivative_oneform(eta, convention="half"):
    """d eta on coordinate fields: scale * (d_i eta_j - d_j eta_i)."""
    if convention not in ("half", "plain"):
        raise ValueError(f"unknown exterior-derivative convention {convention!r}")
    scale = Num(0.5) if convention == "half" else expr.ONE
    n = eta.chart.dim
    rows, cols = upper_pairs(n, strict=True)
    d_eta = derivative(eta.comps, eta.chart.names)  # d_eta[i, j] = d_i eta_j
    comps = scale * (d_eta[rows, cols] - d_eta[cols, rows])
    return TensorField(eta.chart, "form2", from_upper(comps, n, antisymmetric=True))


def nijenhuis_torsion(structure):
    """[phi, phi]^k_ij on coordinate fields (whose own bracket vanishes):

        [phi, phi](X, Y) = phi^2 [X, Y] + [phi X, phi Y]
                           - phi [phi X, Y] - phi [X, phi Y]

    built on the pairs i < j, indexed [k, pair].
    """
    n, names = structure.chart.dim, structure.chart.names
    rows, cols = upper_pairs(n, strict=True)
    phi = structure.phi.comps
    bracket = lie_bracket_comps(phi[:, rows], phi[:, cols], names)
    d_phi = derivative(phi, names)  # d_phi[m, k, j] = d_m phi^k_j
    # [phi d_i, d_j] = -d_j(phi d_i);  [d_i, phi d_j] = d_i(phi d_j)
    inner = -d_phi[cols, :, rows].T + d_phi[rows, :, cols].T
    torsion = bracket - phi @ inner
    return TensorField(structure.chart, "torsion", from_upper(torsion, n, antisymmetric=True))


def reeb_transport_residual(structure):
    """Components of nabla_{d_i} xi + phi d_i (zero iff K-contact holds)."""
    gamma = christoffel(structure.metric).comps
    xi = structure.xi.comps
    comps = fold(derivative(xi, structure.chart.names),  # [i, k]
                 (operator.add, gamma.transpose(2, 1, 0) * xi[:, None, None]))
    return comps + structure.phi.comps.T


def covariant_phi_residual(structure):
    """(nabla_{d_i} phi) d_j - (g_ij xi - eta_j d_i), indexed [i][j][m]."""
    n = structure.chart.dim
    gamma = christoffel(structure.metric).comps
    phi, xi, eta = structure.phi.comps, structure.xi.comps, structure.eta.comps
    comps = fold(derivative(phi, structure.chart.names).transpose(0, 2, 1),
                 (operator.add, gamma.transpose(2, 1, 0)[:, :, None] * phi[:, None, :, None]),
                 (operator.sub, gamma[..., None] * phi.T[:, None, None]))
    comps = comps - structure.metric.comps[..., None] * xi
    diagonal = np.arange(n)
    comps[diagonal, :, diagonal] = comps[diagonal, :, diagonal] + eta
    return comps


def eta_transport_residual(structure):
    """(nabla_{d_i} eta)(d_j) + g(phi d_i, d_j), indexed [i][j]."""
    gamma = christoffel(structure.metric).comps
    phi, eta = structure.phi.comps, structure.eta.comps
    comps = fold(derivative(eta, structure.chart.names),
                 (operator.sub, gamma * eta[:, None, None]),
                 (operator.add, phi[:, :, None] * structure.metric.comps[:, None]))
    return comps


def curvature_reeb_residual(structure):
    """R(d_i, d_j) xi - (eta_j d_i - eta_i d_j), indexed [l][i][j]."""
    n = structure.chart.dim
    eta = structure.eta.comps
    comps = riemann(structure.metric).comps @ structure.xi.comps
    diagonal = np.arange(n)
    comps[diagonal, diagonal] = comps[diagonal, diagonal] - eta
    comps[diagonal, :, diagonal] = comps[diagonal, :, diagonal] + eta
    return comps


def sasakian_identity_checks(structure):
    """The four Sasakian identities as checks with no reference:

    covariant_phi:  (nabla_X phi) Y = g(X, Y) xi - eta(Y) X
    reeb_transport: nabla_X xi = -phi X
    eta_transport:  (nabla_X eta) Y = -g(phi X, Y)
    curvature_reeb: R(X, Y) xi = eta(Y) X - eta(X) Y
    """
    return [
        Check("covariant_phi", covariant_phi_residual(structure), []),
        Check("reeb_transport", reeb_transport_residual(structure), []),
        Check("eta_transport", eta_transport_residual(structure), []),
        Check("curvature_reeb", curvature_reeb_residual(structure), []),
    ]


def ricci_reeb_check(structure):
    """Ric(xi, d_j) - 2 n g(xi, d_j), indexed [j], as a check with no
    reference."""
    xi = structure.xi.comps[:, None]
    comps = fold(expr.ZERO, (operator.add, ricci(structure.metric).comps * xi),
                 (operator.sub, Num(2.0 * structure.n) * (structure.metric.comps * xi)))
    return Check("ricci_reeb", comps, [])


def ladder_checks(structure, d_convention="half"):
    """The contact, K-contact and normality conditions as checks with no
    reference: d eta - Phi, nabla xi + phi, and [phi, phi] + 2 d eta (x) xi."""
    rows, cols = upper_pairs(structure.chart.dim, strict=True)
    d_eta = exterior_derivative_oneform(structure.eta, d_convention).comps[rows, cols]
    contact = d_eta - fundamental_form(structure).comps[rows, cols]
    normal = nijenhuis_torsion(structure).comps[:, rows, cols] \
        + Num(2.0) * (d_eta * structure.xi.comps[:, None])
    return [Check("contact_condition", contact, []),
            Check("reeb_transport", reeb_transport_residual(structure), []),
            Check("normality", normal, [])]


def ladder_rows(structure, reports, tolerance, d_convention, n_points):
    """The five structure_* rows of the Sasakian ladder, from the
    ResidualReports of the ladder_checks at n_points sample points.

    The almost-contact row is the largest axiom residual and used every
    point, as the axiom gate admits no skipped one; contact and normal
    need it, and K-contact needs contact.  The contact, K-contact and
    normal rows are their conditions' reports.  The Sasakian row needs
    contact and normal, makes K-contact pass, and counts the points of
    whichever of its two conditions used fewer.
    """
    contact, reeb, normal = reports
    almost = max(structure.axiom_residuals.values())
    almost_ok = almost <= tolerance
    contact_ok = almost_ok and contact.abs_sup <= tolerance
    normal_ok = almost_ok and normal.abs_sup <= tolerance
    sasakian_ok = contact_ok and normal_ok
    k_contact_ok = sasakian_ok or (contact_ok and reeb.abs_sup <= tolerance)
    sasakian = max(contact.abs_sup, normal.abs_sup)
    return [
        ResidualReport("structure_almost_contact", almost, almost, tolerance, almost_ok,
                       n_points, 0),
        dataclasses.replace(contact, name="structure_contact", passed=contact_ok),
        dataclasses.replace(reeb, name="structure_k_contact", passed=k_contact_ok),
        dataclasses.replace(normal, name="structure_normal", passed=normal_ok),
        dataclasses.replace(min(contact, normal, key=lambda r: r.n_points),
                            name="structure_sasakian", abs_sup=sasakian, rel_sup=sasakian,
                            passed=sasakian_ok, details={"d_convention": d_convention}),
    ]
