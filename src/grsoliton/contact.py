"""Almost-contact metric structures and the Sasakian classification ladder.

A structure bundles (phi, xi, eta, g) on an odd-dimensional chart.  The
phi matrix convention is phi^i_j with the column as the input slot, so
phi applied to the j-th coordinate field is the j-th column.

The exterior derivative of a one-form defaults to the half convention
d eta(X, Y) = (X(eta Y) - Y(eta X) - eta([X, Y])) / 2; "plain" drops the
factor.  Every report records which convention produced it.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from grsoliton import expr
from grsoliton.chart import (
    SupNorms,
    evaluate_field,
    field_components,
    pointwise_sup,
    reduce_fields,
    sample_points,
)
from grsoliton.expr import Num
from grsoliton.tensors import (
    TensorField,
    christoffel,
    derivative,
    fold,
    from_upper,
    identity,
    lie_bracket_comps,
    ricci,
    riemann,
    simplified,
    upper_pairs,
    vector_field,
)

DEFAULT_TOLERANCE = 1e-8

_AXIOM_POINTS = 100
_AXIOM_SEED = 811


class StructureError(ValueError):
    """An almost-contact axiom fails beyond tolerance."""

    def __init__(self, axiom, residual, point):
        super().__init__(
            f"axiom {axiom!r} fails: residual {residual:.3e} at {list(point)}")
        self.axiom = axiom
        self.residual = residual
        self.point = point


@dataclass
class StructureReport:
    """Ladder flags with the per-condition residual sup-norms behind them."""

    almost_contact_metric: bool
    contact_metric: bool
    k_contact: bool
    normal: bool
    sasakian: bool
    residuals: dict = field(default_factory=dict)
    d_convention: str = "half"
    tolerance: float = DEFAULT_TOLERANCE

    def flags(self):
        return {
            "almost_contact_metric": self.almost_contact_metric,
            "contact_metric": self.contact_metric,
            "k_contact": self.k_contact,
            "normal": self.normal,
            "sasakian": self.sasakian,
        }


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


def _worst_point(values):
    """Index of the first point with a non-finite value if there is one,
    else of the point with the largest |value|."""
    sups = pointwise_sup(values)
    bad = ~np.isfinite(sups)
    return int(np.argmax(bad if bad.any() else sups))


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
    vector, eta a one-form.  Raises StructureError naming the violated
    axiom and the worst sample point, which is looked for only then.
    groups are further (fields, accumulator) pairs evaluated in the same
    plan as the axioms (see chart.reduce_fields), whether or not an axiom
    fails.
    """
    if chart.dim % 2 == 0:
        raise ValueError(f"almost contact structures need odd dimension, got {chart.dim}")
    phi = phi if isinstance(phi, TensorField) else \
        TensorField(chart, "endo", [[_expr(entry) for entry in row] for row in phi])
    xi = xi if isinstance(xi, TensorField) else vector_field(chart, xi)
    eta = eta if isinstance(eta, TensorField) else \
        TensorField(chart, "oneform", [_expr(c) for c in eta])
    if points is None:
        points = sample_points(chart, "uniform", _AXIOM_POINTS, _AXIOM_SEED)
    points = np.atleast_2d(np.asarray(points, dtype=float))

    axioms = {axiom: simplified(np.asarray(comps, dtype=object).reshape(-1)) for axiom, comps
              in _axiom_components(chart, metric, phi, xi, eta).items()}
    env = chart.env_at(points, params)
    sups = SupNorms(len(axioms))
    reduce_fields([(list(axioms.values()), sups), *groups], env, len(points))
    residuals = dict(zip(axioms, sups.finish()))
    for axiom, sup in residuals.items():
        if not math.isfinite(sup) or sup > tolerance:
            values = evaluate_field(axioms[axiom], env, len(points))
            raise StructureError(axiom, sup, points[_worst_point(values)])
    return AlmostContactStructure(chart, metric, phi, xi, eta,
                                  (chart.dim - 1) // 2, residuals)


def _expr(entry):
    if isinstance(entry, expr.Expression):
        return entry
    if isinstance(entry, str):
        return expr.parse(entry)
    return Num(entry)


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
    bracket = simplified(lie_bracket_comps(phi[:, rows], phi[:, cols], names))
    d_phi = derivative(phi, names)  # d_phi[m, k, j] = d_m phi^k_j
    # [phi d_i, d_j] = -d_j(phi d_i);  [d_i, phi d_j] = d_i(phi d_j)
    inner = simplified(simplified(-d_phi[cols, :, rows].T) + d_phi[rows, :, cols].T)
    torsion = simplified(bracket - simplified(phi @ inner))
    return TensorField(structure.chart, "torsion", from_upper(torsion, n, antisymmetric=True),
                       presimplify=False)


def reeb_transport_residual(structure):
    """Components of nabla_{d_i} xi + phi d_i (zero iff K-contact holds)."""
    gamma = christoffel(structure.metric).comps
    xi = structure.xi.comps
    comps = fold(derivative(xi, structure.chart.names),  # [i, k]
                 (operator.add, gamma.transpose(2, 1, 0) * xi[:, None, None]))
    return simplified(comps + structure.phi.comps.T)


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
    return simplified(comps)


def eta_transport_residual(structure):
    """(nabla_{d_i} eta)(d_j) + g(phi d_i, d_j), indexed [i][j]."""
    gamma = christoffel(structure.metric).comps
    phi, eta = structure.phi.comps, structure.eta.comps
    comps = fold(derivative(eta, structure.chart.names),
                 (operator.sub, gamma * eta[:, None, None]),
                 (operator.add, phi[:, :, None] * structure.metric.comps[:, None]))
    return simplified(comps)


def curvature_reeb_residual(structure):
    """R(d_i, d_j) xi - (eta_j d_i - eta_i d_j), indexed [l][i][j]."""
    n = structure.chart.dim
    eta = structure.eta.comps
    comps = riemann(structure.metric).comps @ structure.xi.comps
    diagonal = np.arange(n)
    comps[diagonal, diagonal] = comps[diagonal, diagonal] - eta
    comps[diagonal, :, diagonal] = comps[diagonal, :, diagonal] + eta
    return simplified(comps)


def check_sasakian_identities(structure, points=None, params=None):
    """Residual sup-norms of the four Sasakian identities over sample points:

    covariant_phi:  (nabla_X phi) Y = g(X, Y) xi - eta(Y) X
    reeb_transport: nabla_X xi = -phi X
    eta_transport:  (nabla_X eta) Y = -g(phi X, Y)
    curvature_reeb: R(X, Y) xi = eta(Y) X - eta(X) Y
    """
    chart = structure.chart
    if points is None:
        points = sample_points(chart, "uniform", _AXIOM_POINTS, _AXIOM_SEED)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    fields = {
        "covariant_phi": covariant_phi_residual(structure),
        "reeb_transport": reeb_transport_residual(structure),
        "eta_transport": eta_transport_residual(structure),
        "curvature_reeb": curvature_reeb_residual(structure),
    }
    sups = SupNorms(len(fields))
    reduce_fields([(list(fields.values()), sups)], chart.env_at(points, params),
                  len(points))
    return dict(zip(fields, sups.finish()))


def ricci_reeb_comps(structure):
    """Components of Ric(xi, d_j) - 2 n g(xi, d_j), indexed [j]."""
    xi = structure.xi.comps[:, None]
    comps = fold(expr.ZERO, (operator.add, ricci(structure.metric).comps * xi),
                 (operator.sub, Num(2.0 * structure.n) * (structure.metric.comps * xi)))
    return list(simplified(comps))


def ricci_reeb_residual(structure, points=None, params=None):
    """Sup-norm of Ric(xi, d_j) - 2 n g(xi, d_j) over sample points."""
    chart = structure.chart
    if points is None:
        points = sample_points(chart, "uniform", _AXIOM_POINTS, _AXIOM_SEED)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sups = SupNorms()
    reduce_fields([([ricci_reeb_comps(structure)], sups)], chart.env_at(points, params),
                  len(points))
    return sups.finish()[0]


def ladder_fields(structure, d_convention="half"):
    """Components of the contact, K-contact and normality conditions:
    d eta - Phi, nabla xi + phi, and [phi, phi] + 2 d eta (x) xi."""
    rows, cols = upper_pairs(structure.chart.dim, strict=True)
    d_eta = exterior_derivative_oneform(structure.eta, d_convention).comps[rows, cols]
    contact = d_eta - fundamental_form(structure).comps[rows, cols]
    normal = nijenhuis_torsion(structure).comps[:, rows, cols] \
        + Num(2.0) * (d_eta * structure.xi.comps[:, None])
    return [contact, reeb_transport_residual(structure), normal]


class LadderSups(SupNorms):
    """Accumulator of the sup-norms of the three ladder_fields of a
    structure; finish() returns the StructureReport."""

    def __init__(self, structure, tolerance=DEFAULT_TOLERANCE, d_convention="half"):
        super().__init__(3)
        self.structure = structure
        self.tolerance = tolerance
        self.d_convention = d_convention

    def finish(self):
        tolerance = self.tolerance
        residuals = dict(self.structure.axiom_residuals)
        almost = max(residuals.values()) <= tolerance
        residuals.update(zip(("contact_condition", "reeb_transport", "normality"),
                             super().finish()))
        contact = almost and residuals["contact_condition"] <= tolerance
        k_contact = contact and residuals["reeb_transport"] <= tolerance
        normal = almost and residuals["normality"] <= tolerance
        sasakian = contact and normal
        if sasakian:
            k_contact = True
        return StructureReport(
            almost_contact_metric=almost,
            contact_metric=contact,
            k_contact=k_contact,
            normal=normal,
            sasakian=sasakian,
            residuals=residuals,
            d_convention=self.d_convention,
            tolerance=tolerance,
        )


def ladder_report(structure, values, tolerance=DEFAULT_TOLERANCE, d_convention="half"):
    """Ladder flags from the evaluated ladder_fields of a structure.

    Failures are report content, never exceptions.  The Sasakian flag is
    contact and normal; ladder implications are enforced on the output.
    """
    ladder = LadderSups(structure, tolerance, d_convention)
    ladder.update(0, *map(field_components, values))
    return ladder.finish()


def classify_structure(structure, tolerance=DEFAULT_TOLERANCE, points=None,
                       params=None, d_convention="half"):
    """Evaluate the ladder conditions and report flags plus raw residuals."""
    chart = structure.chart
    if points is None:
        points = sample_points(chart, "uniform", _AXIOM_POINTS, _AXIOM_SEED)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ladder = LadderSups(structure, tolerance, d_convention)
    reduce_fields([(ladder_fields(structure, d_convention), ladder)],
                  chart.env_at(points, params), len(points))
    return ladder.finish()
