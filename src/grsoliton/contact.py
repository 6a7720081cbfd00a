"""Almost-contact metric structures and the Sasakian classification ladder.

A structure bundles (phi, xi, eta, g) on an odd-dimensional chart.  The
phi matrix convention is phi^i_j with the column as the input slot, so
phi applied to the j-th coordinate field is the j-th column.

The exterior derivative of a one-form defaults to the half convention
d eta(X, Y) = (X(eta Y) - Y(eta X) - eta([X, Y])) / 2; "plain" drops the
factor.  Every report records which convention produced it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from grsoliton import expr
from grsoliton.chart import (
    SupNorms,
    evaluate_fields,
    field_components,
    pointwise_sup,
    reduce_fields,
    sample_points,
    sup_norm,
)
from grsoliton.expr import Num, simplify
from grsoliton.tensors import (
    TensorField,
    christoffel,
    lie_bracket,
    partial,
    ricci,
    riemann,
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

    def phi_column(self, j):
        """phi applied to the j-th coordinate field, as a vector field."""
        return TensorField(self.chart, "vector", list(self.phi.comps[:, j]),
                           presimplify=False)

    def apply_phi(self, W):
        """phi(W) for a vector field W."""
        n = self.chart.dim
        comps = []
        for k in range(n):
            total = expr.ZERO
            for m in range(n):
                total = expr.add(total, expr.mul(self.phi.comps[k, m], W.comps[m]))
            comps.append(total)
        return TensorField(self.chart, "vector", comps)


def _worst_point(values):
    """Index of the first point with a non-finite value if there is one,
    else of the point with the largest |value|."""
    sups = pointwise_sup(values)
    bad = ~np.isfinite(sups)
    return int(np.argmax(bad if bad.any() else sups))


def _axiom_components(chart, metric, phi, xi, eta):
    n = chart.dim
    g = metric.comps
    delta = np.eye(n)
    reeb_pairing = expr.ZERO
    for i in range(n):
        reeb_pairing = expr.add(reeb_pairing, expr.mul(eta.comps[i], xi.comps[i]))
    axioms = {"reeb_normalisation": [expr.sub(reeb_pairing, expr.ONE)]}

    square = []
    compat = []
    for i in range(n):
        for j in range(n):
            acc = expr.ZERO
            for k in range(n):
                acc = expr.add(acc, expr.mul(phi.comps[i, k], phi.comps[k, j]))
            acc = expr.add(acc, Num(delta[i, j]))
            square.append(expr.sub(acc, expr.mul(eta.comps[j], xi.comps[i])))

            acc = expr.ZERO
            for a in range(n):
                for b in range(n):
                    acc = expr.add(acc, expr.mul(phi.comps[a, i],
                                                 expr.mul(g[a, b], phi.comps[b, j])))
            acc = expr.sub(acc, g[i, j])
            compat.append(expr.add(acc, expr.mul(eta.comps[i], eta.comps[j])))
    axioms["phi_square"] = square
    axioms["metric_compatibility"] = compat

    kernel = []
    for i in range(n):
        acc = expr.ZERO
        for k in range(n):
            acc = expr.add(acc, expr.mul(phi.comps[i, k], xi.comps[k]))
        kernel.append(acc)
        acc = expr.ZERO
        for k in range(n):
            acc = expr.add(acc, expr.mul(eta.comps[k], phi.comps[k, i]))
        kernel.append(acc)
    axioms["reeb_kernel"] = kernel
    return axioms


def assemble_structure(chart, metric, phi, xi, eta, points=None, params=None,
                       tolerance=DEFAULT_TOLERANCE):
    """Validate the four almost-contact-metric axioms and bundle the fields.

    phi is an (n, n) matrix of expressions (column = input index), xi a
    vector, eta a one-form.  Raises StructureError naming the violated
    axiom and the worst sample point.
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

    axioms = {axiom: [simplify(c) for c in comps] for axiom, comps
              in _axiom_components(chart, metric, phi, xi, eta).items()}
    values = evaluate_fields(list(axioms.values()), chart.env_at(points, params),
                             len(points))
    residuals = {}
    for axiom, axiom_values in zip(axioms, values):
        sup = sup_norm(axiom_values)
        residuals[axiom] = sup
        if not math.isfinite(sup) or sup > tolerance:
            raise StructureError(axiom, sup, points[_worst_point(axiom_values)])
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
    n = structure.chart.dim
    g = structure.metric.comps
    phi = structure.phi.comps
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            total = expr.ZERO
            for k in range(n):
                total = expr.add(total, expr.mul(g[i, k], phi[k, j]))
            comps[i, j] = total
    return TensorField(structure.chart, "form2", comps)


def exterior_derivative_oneform(eta, convention="half"):
    """d eta on coordinate fields: scale * (d_i eta_j - d_j eta_i)."""
    if convention not in ("half", "plain"):
        raise ValueError(f"unknown exterior-derivative convention {convention!r}")
    scale = Num(0.5) if convention == "half" else expr.ONE
    chart = eta.chart
    n = chart.dim
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        comps[i, i] = expr.ZERO
        for j in range(i + 1, n):
            value = expr.mul(scale, expr.sub(partial(eta.comps[j], chart.names[i]),
                                             partial(eta.comps[i], chart.names[j])))
            comps[i, j] = value
            comps[j, i] = expr.neg(value)
    return TensorField(chart, "form2", comps)


def nijenhuis_torsion(structure):
    """[phi, phi]^k_ij on coordinate fields (whose own bracket vanishes):

        [phi, phi](X, Y) = phi^2 [X, Y] + [phi X, phi Y]
                           - phi [phi X, Y] - phi [X, phi Y]
    """
    chart = structure.chart
    n = chart.dim
    names = chart.names
    columns = [structure.phi_column(j) for j in range(n)]
    comps = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            comps[k, i, i] = expr.ZERO
    for i in range(n):
        for j in range(i + 1, n):
            bracket = lie_bracket(columns[i], columns[j])
            # [phi d_i, d_j] = -d_j(phi d_i);  [d_i, phi d_j] = d_i(phi d_j)
            left = vector_field(chart, [expr.neg(partial(columns[i].comps[k], names[j]))
                                        for k in range(n)])
            right = vector_field(chart, [partial(columns[j].comps[k], names[i])
                                         for k in range(n)])
            correction = structure.apply_phi(
                vector_field(chart, [expr.add(left.comps[k], right.comps[k])
                                     for k in range(n)]))
            for k in range(n):
                value = simplify(expr.sub(bracket.comps[k], correction.comps[k]))
                comps[k, i, j] = value
                comps[k, j, i] = expr.neg(value)
    return TensorField(structure.chart, "torsion", comps, presimplify=False)


def reeb_transport_residual(structure):
    """Components of nabla_{d_i} xi + phi d_i (zero iff K-contact holds)."""
    chart = structure.chart
    n = chart.dim
    names = chart.names
    gamma = christoffel(structure.metric).comps
    xi = structure.xi.comps
    phi = structure.phi.comps
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for k in range(n):
            total = partial(xi[k], names[i])
            for m in range(n):
                total = expr.add(total, expr.mul(gamma[k, i, m], xi[m]))
            comps[i, k] = simplify(expr.add(total, phi[k, i]))
    return comps


def covariant_phi_residual(structure):
    """(nabla_{d_i} phi) d_j - (g_ij xi - eta_j d_i), indexed [i][j][m]."""
    chart = structure.chart
    n = chart.dim
    names = chart.names
    gamma = christoffel(structure.metric).comps
    g = structure.metric.comps
    phi = structure.phi.comps
    xi = structure.xi.comps
    eta = structure.eta.comps
    comps = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                total = partial(phi[m, j], names[i])
                for k in range(n):
                    total = expr.add(total, expr.mul(gamma[m, i, k], phi[k, j]))
                    total = expr.sub(total, expr.mul(gamma[k, i, j], phi[m, k]))
                total = expr.sub(total, expr.mul(g[i, j], xi[m]))
                if m == i:
                    total = expr.add(total, eta[j])
                comps[i, j, m] = simplify(total)
    return comps


def eta_transport_residual(structure):
    """(nabla_{d_i} eta)(d_j) + g(phi d_i, d_j), indexed [i][j]."""
    chart = structure.chart
    n = chart.dim
    names = chart.names
    gamma = christoffel(structure.metric).comps
    g = structure.metric.comps
    phi = structure.phi.comps
    eta = structure.eta.comps
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            total = partial(eta[j], names[i])
            for k in range(n):
                total = expr.sub(total, expr.mul(gamma[k, i, j], eta[k]))
                total = expr.add(total, expr.mul(phi[k, i], g[k, j]))
            comps[i, j] = simplify(total)
    return comps


def curvature_reeb_residual(structure):
    """R(d_i, d_j) xi - (eta_j d_i - eta_i d_j), indexed [l][i][j]."""
    n = structure.chart.dim
    riem = riemann(structure.metric).comps
    xi = structure.xi.comps
    eta = structure.eta.comps
    comps = np.empty((n, n, n), dtype=object)
    for l in range(n):
        for i in range(n):
            for j in range(n):
                total = expr.ZERO
                for k in range(n):
                    total = expr.add(total, expr.mul(riem[l, i, j, k], xi[k]))
                if l == i:
                    total = expr.sub(total, eta[j])
                if l == j:
                    total = expr.add(total, eta[i])
                comps[l, i, j] = simplify(total)
    return comps


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
    n = structure.chart.dim
    ric = ricci(structure.metric).comps
    g = structure.metric.comps
    xi = structure.xi.comps
    comps = []
    for j in range(n):
        total = expr.ZERO
        for a in range(n):
            total = expr.add(total, expr.mul(ric[a, j], xi[a]))
            total = expr.sub(total, expr.mul(Num(2.0 * structure.n),
                                             expr.mul(g[a, j], xi[a])))
        comps.append(simplify(total))
    return comps


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
    n = structure.chart.dim
    d_eta = exterior_derivative_oneform(structure.eta, d_convention)
    phi_form = fundamental_form(structure)
    contact_comps = [expr.sub(d_eta.comps[i, j], phi_form.comps[i, j])
                     for i in range(n) for j in range(i + 1, n)]
    torsion = nijenhuis_torsion(structure)
    normal_comps = []
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                normal_comps.append(expr.add(
                    torsion.comps[k, i, j],
                    expr.mul(Num(2.0), expr.mul(d_eta.comps[i, j],
                                                structure.xi.comps[k]))))
    return [contact_comps, reeb_transport_residual(structure), normal_comps]


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
