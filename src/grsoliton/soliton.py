"""Residual checks for the generalised soliton equations.

Vector form:     L_X1 g  = -2 c1 X2b.X2b + 2 c2 Ric + 2 lam g
Gradient form:   Hess f1 = -c1 df2.df2 + c2 Ric + lam g, the vector form
                 of X1 = grad f1, X2 = grad f2, halved
Alignment:       grad f1 + c1 xi(xi(f2)) grad f2 - c1 xi(f2) nabla_xi grad f2
                 must be parallel to xi (equal to xi(f1) xi) on Sasakian
                 structures satisfying the gradient form.

Each check is a symbolic residual with the reference (left-hand side) it
is measured against.  A SolitonForm holds the terms of one form of the
soliton equation, which build_soliton_check and the fit (fit.py) read.
build_theorem_checks builds the alignment check, whose reference is zeta,
and the transport and supporting identities behind it, building the
terms they share once.  Both builders reject a constant that is not
finite.  run_checks evaluates any list of checks as one plan and reduces
each, chunk by chunk, to absolute and relative sup-norms.  The relative
norm is pointwise,
max_p |residual(p)| / max(1, |reference(p)|), with |.| the largest
component at p: a large reference near a chart boundary does not excuse
a residual elsewhere, and flat instances do not divide by zero.
A check with no reference (the almost-contact axioms, the Sasakian ladder
and identities of contact.py) has its absolute residual as its relative
one.  ResidualSup is the one reducer of every check, here and in
contact.py.  Sample points where evaluation leaves an expression's domain
(or where the potentials of a gradient-form or theorem row are undefined)
are skipped and counted; a check with no valid points raises DomainError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from grsoliton.chart import as_points, components_sup, reduce_fields
from grsoliton.expr import CHUNK_POINTS, ZERO, DomainError, Num, as_scalar, evaluate
from grsoliton.tensors import (
    TensorField,
    covariant_derivative,
    derivative,
    directional_derivative,
    from_upper,
    gradient,
    hessian,
    identity,
    lie_derivative_sym2,
    metric_tensor_field,
    musical_flat,
    pairing,
    ricci,
    sym_product,
    upper_pairs,
)

DEFAULT_TOLERANCE = 1e-8
# the soliton constants, in the order of build_soliton_check's c1, c2, lam
CONSTANT_ORDER = ("c1", "c2", "lambda")

CONSTANT_MATCH_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class SolitonForm:
    """One form of the generalised soliton equation,
    T + s c1 P.P - s c2 Ric - s lam g = 0: the name of its row, the target T
    and the square P.P (sym2 component matrices), the scale s, and the
    domain, the scalars that must be finite at a point for it to count."""

    name: str
    target: np.ndarray
    square: np.ndarray
    scale: float
    domain: list


def gradient_form(metric, f1, f2):
    """Hess f1 + c1 df2.df2 - c2 Ric - lam g = 0, the vector form of
    X1 = grad f1 and X2 = grad f2 halved (L_grad f g = 2 Hess f), defined
    where the potentials are."""
    f1, f2 = as_scalar(f1), as_scalar(f2)
    df2 = TensorField(metric.chart, "oneform", derivative(f2, metric.chart.names))
    return SolitonForm("soliton_gradient", hessian(metric, f1).comps,
                       sym_product(df2, df2).comps, 1.0, [f1, f2])


def vector_form(metric, X1, X2):
    """L_X1 g + 2 c1 X2b.X2b - 2 c2 Ric - 2 lam g = 0, for the vector fields
    X1 and X2 (TensorFields)."""
    flat2 = musical_flat(metric, X2)
    return SolitonForm("soliton_vector",
                       lie_derivative_sym2(metric_tensor_field(metric), X1).comps,
                       sym_product(flat2, flat2).comps, 2.0, [])


@dataclass
class ResidualReport:
    """Sup-norm summary of one residual check over the sample points, and
    one row of a run's report: n_points and n_skipped are None only on the
    row of a failed almost-contact axiom gate, and details holds a row's
    further keys."""

    name: str
    abs_sup: float
    rel_sup: float
    tolerance: float
    passed: bool
    n_points: int = None
    n_skipped: int = None
    details: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "name": self.name,
            "abs_residual": self.abs_sup,
            "rel_residual": self.rel_sup,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.n_points is not None:
            out["points_used"] = self.n_points
            out["points_skipped"] = self.n_skipped
        out.update(self.details)
        return out


@dataclass
class Check:
    """A named identity: residual components, the reference components
    whose size the residual is measured against (none, [], for an identity
    measured absolutely), and the domain: scalars that must be finite at a
    point for the point to count (the potentials, which differentiation or
    simplification may fold out of both).  An identity with no components
    (the contact condition on a 1-D chart) holds vacuously, and is
    evaluated as one zero component."""

    name: str
    residual: list
    reference: list
    domain: list = field(default_factory=list)

    @property
    def fields(self):
        """The fields to evaluate: residual, reference and, if any, domain."""
        fields = [self.residual if np.size(self.residual) else [ZERO], self.reference]
        if len(self.domain):
            fields.append(self.domain)
        return fields


def diagnose_domain(chart, comps, point, params):
    """Evaluate comps at one point with the scalar evaluator, which raises
    DomainError at the offending node; raise a generic DomainError on the
    first component if none does."""
    env = {name: float(v) for name, v in zip(chart.names, point)}
    for key, value in (params or {}).items():
        env.setdefault(key, float(value))
    comps = np.asarray(comps, dtype=object).reshape(-1)
    for comp in comps:
        evaluate(comp, env)   # raises DomainError at the offending node
    raise DomainError("non-finite evaluation", comps[0], env)


class ResidualSup:
    """Accumulator of a check's relative sup-norm residual.

    update(lo, residual, reference[, domain]) reads one chunk of the
    check's fields.  A point counts where the residual, the reference and
    the domain are all finite; the running maxima of |residual|, of
    |reference| and of |residual| / max(1, |reference|) are taken over
    those points, |.| being the largest component at a point.  With no
    reference the relative residual is the absolute one, and no reference
    sup is kept.  first_bad is the first point whose residual or domain is
    not finite, and worst the first point of the largest relative
    residual.  finish() returns the ResidualReport, or, with no valid
    point, has the scalar evaluator name the offending node at first_bad.
    scratch, a (3, width) array that the accumulators of one plan share,
    holds a chunk's pointwise sups.
    """

    def __init__(self, check, chart, points, params, tolerance, scratch):
        self.check = check
        self.chart = chart
        self.points = points
        self.params = params
        self.tolerance = tolerance
        self.scratch = scratch
        self.abs_sup = self.ref_sup = self.rel_sup = -np.inf
        self.n_valid = self.n_points = 0
        self.first_bad = self.worst = None

    def update(self, lo, residual, reference, domain=()):
        n = len(residual[0])
        work = self.scratch[:, :n]
        res = components_sup(residual, work[0], work[2])
        ref = components_sup(reference, work[1], work[2]) if len(reference) else None
        # a NaN or an inf wins max and argmax, so a finite largest value
        # proves every value finite
        worst = None
        if ref is None:
            worst = int(res.argmax())
            tops = (res[worst],)
        else:
            tops = (res.max(), ref.max())
        kept = None
        if not (all(map(math.isfinite, tops)) and all(np.isfinite(c).all() for c in domain)):
            defined = np.isfinite(res)
            for component in domain:
                defined &= np.isfinite(component)
            valid = defined if ref is None else defined & np.isfinite(ref)
            if self.first_bad is None and not defined.all():
                self.first_bad = lo + int(np.argmin(defined))
            kept = np.flatnonzero(valid)
            res, worst = res[kept], None
            if ref is not None:
                ref = ref[kept]
        if len(res):
            rel = res
            if ref is not None:
                top, high = tops if kept is None else (res.max(), ref.max())
                self.abs_sup = max(self.abs_sup, float(top))
                self.ref_sup = max(self.ref_sup, float(high))
                rel = np.divide(res, np.maximum(ref, 1.0, out=ref), out=ref)
            if worst is None:
                worst = int(rel.argmax())
            if rel[worst] > self.rel_sup:
                self.rel_sup = float(rel[worst])
                self.worst = lo + (worst if kept is None else int(kept[worst]))
            if ref is None:
                self.abs_sup = self.rel_sup
        self.n_valid += len(res)
        self.n_points += n

    def finish(self):
        check = self.check
        if not self.n_valid:
            bad = self.first_bad or 0
            comps = check.residual
            if len(check.domain):
                comps = [*np.asarray(comps, dtype=object).reshape(-1), *check.domain]
            diagnose_domain(self.chart, comps, self.points[bad], self.params)
        return ResidualReport(
            name=check.name,
            abs_sup=self.abs_sup,
            rel_sup=self.rel_sup,
            tolerance=self.tolerance,
            passed=self.rel_sup <= self.tolerance,
            n_points=self.n_valid,
            n_skipped=self.n_points - self.n_valid,
        )


def reduce_checks(chart, checks, points, params, tolerance, groups=()):
    """Evaluate the checks, and the fields of the further (fields,
    accumulator) groups (see chart.reduce_fields), as one plan at points,
    an (npoints, n) array or a chart.Sample; return each check's
    ResidualSup, fed but not finished.  The ResidualSups share one
    scratch buffer."""
    scratch = np.empty((3, min(len(points), CHUNK_POINTS)))
    accumulators = [ResidualSup(c, chart, points, params, tolerance, scratch) for c in checks]
    reduce_fields([*((c.fields, a) for c, a in zip(checks, accumulators)), *groups],
                  chart.env_at(points, params), len(points))
    return accumulators


def run_checks(chart, checks, points, params, tolerance):
    """Evaluate checks as one plan at points (see chart.as_points),
    reducing each chunk by chunk to a ResidualReport."""
    return [a.finish() for a in reduce_checks(chart, checks, as_points(points), params,
                                              tolerance)]


def _combine_sym2(terms):
    """Sum of (coefficient, sym2 comps) pairs into one component matrix."""
    n = len(terms[0][1])
    rows, cols = upper_pairs(n)
    upper = np.add.reduce([Num(c) * t[rows, cols] for c, t in terms if c != 0.0])
    return from_upper(upper, n)


def _require_finite(**constants):
    """Raise ValueError naming the first constant that is not finite."""
    for name, value in constants.items():
        if not np.isfinite(value):
            raise ValueError(f"constant {name} must be finite, got {value}")


def build_soliton_check(metric, form, c1, c2, lam):
    """The check of form at the constants, T + s c1 P.P - s c2 Ric - s lam g
    against T, where form's domain is defined."""
    _require_finite(c1=c1, c2=c2, lam=lam)
    s = form.scale
    residual = _combine_sym2([
        (1.0, form.target),
        (s * c1, form.square),
        (-s * c2, ricci(metric).comps),
        (-s * lam, metric.comps),
    ])
    return Check(form.name, residual, form.target, list(form.domain))


def _projected_coordinate_fields(structure):
    """Y_i = d_i - eta(d_i) xi, the coordinate fields pushed off the Reeb
    direction; expanded symbolically so higher derivatives stay exact."""
    eta, xi = structure.eta.comps, structure.xi.comps
    rows = identity(len(xi)) - np.multiply.outer(eta, xi)
    return [TensorField(structure.chart, "vector", row) for row in rows]


def potential_square_lie_sides(xi, f2):
    """Both sides of the Lie-derivative expansion of df2.df2 against (d_j, xi).

    Left:  (L_xi (df2.df2))(d_j, xi)
    Right: d_j(xi(f2)) xi(f2) + d_j(f2) xi(xi(f2))
    Metric-independent; holds for any field xi and any smooth f2.
    """
    names = xi.chart.names
    f2 = as_scalar(f2)
    df2 = TensorField(xi.chart, "oneform", derivative(f2, names))
    square = sym_product(df2, df2)
    lie = lie_derivative_sym2(square, xi)
    xi_f2 = directional_derivative(xi, f2)
    xi_xi_f2 = directional_derivative(xi, xi_f2)
    lhs = lie.comps @ xi.comps
    rhs = derivative(xi_f2, names) * xi_f2 + derivative(f2, names) * xi_xi_f2
    return lhs, rhs


def build_theorem_checks(structure, f1, f2, c1, c2, lam):
    """The checks of the paper's necessary condition for a Sasakian
    gradient-form soliton and of the identities behind it, in report order.

    theorem_alignment:    zeta - xi(f1) xi against zeta, for
                          zeta = grad f1 + c1 xi(xi(f2)) grad f2
                                 - c1 xi(f2) nabla_xi grad f2
    grad_transport:       nabla_xi grad f1 - (lam + 2 c2 n) xi
                          + c1 xi(f2) grad f2, against nabla_xi grad f1
    double_lie:           (L_xi (L_{grad f1} g))(Y, xi) expansion, for Y the
                          coordinate fields projected orthogonal to xi
    potential_square_lie: (L_xi (df2.df2))(Y, xi) expansion, unprojected Y
    scalar_reduction:     Y(f1) + c1 xi(xi(f2)) Y(f2)
                          - c1 xi(f2) g(nabla_xi grad f2, Y) = 0

    Each holds on Sasakian structures satisfying the gradient form; the
    hypothesis is not enforced here, so violations stay detectable.  The
    terms that several checks share are built once.
    """
    _require_finite(c1=c1, c2=c2, lam=lam)
    metric, xi, g = structure.metric, structure.xi, structure.metric.comps
    f1, f2 = as_scalar(f1), as_scalar(f2)
    domain = [f1, f2]
    projected = _projected_coordinate_fields(structure)
    grad1, grad2 = gradient(metric, f1), gradient(metric, f2)
    xi_f2 = directional_derivative(xi, f2)
    xi_xi_f2 = directional_derivative(xi, xi_f2)
    transport1 = covariant_derivative(metric, xi, grad1)
    transport2 = covariant_derivative(metric, xi, grad2)

    zeta = grad1.comps + Num(c1) * (xi_xi_f2 * grad2.comps) \
        - Num(c1) * (xi_f2 * transport2.comps)
    alignment = Check("theorem_alignment",
                      zeta - directional_derivative(xi, f1) * xi.comps, zeta, domain)

    transport = transport1.comps - Num(lam + 2.0 * c2 * structure.n) * xi.comps \
        + Num(c1) * (xi_f2 * grad2.comps)

    # transport1_twice reads derivatives that lie_outer builds, and a
    # derivative stays cached only while its node lives: build it last,
    # with lie_inner alive
    lie_inner = lie_derivative_sym2(metric_tensor_field(metric), grad1)
    lie_outer = lie_derivative_sym2(lie_inner, xi)
    transport1_twice = covariant_derivative(metric, xi, transport1)
    slope = pairing(g, transport1, xi)
    lhs_dl = np.array([pairing(lie_outer.comps, Y, xi) for Y in projected], dtype=object)
    rhs_dl = np.array([pairing(g, grad1, Y) + pairing(g, transport1_twice, Y)
                       + directional_derivative(Y, slope) for Y in projected], dtype=object)

    lhs_sq, rhs_sq = potential_square_lie_sides(xi, f2)

    reference = np.array([directional_derivative(Y, f1) for Y in projected], dtype=object)
    along_f2 = np.array([directional_derivative(Y, f2) for Y in projected], dtype=object)
    transported = np.array([pairing(g, transport2, Y) for Y in projected], dtype=object)
    reduction = reference + Num(c1) * (xi_xi_f2 * along_f2) - Num(c1) * (xi_f2 * transported)
    return [alignment,
            Check("grad_transport", transport, transport1.comps, domain),
            Check("double_lie", lhs_dl - rhs_dl, lhs_dl, domain),
            Check("potential_square_lie", lhs_sq - rhs_sq, lhs_sq, domain),
            Check("scalar_reduction", reduction, reference, domain)]


def _matches(value, target, tol=CONSTANT_MATCH_TOLERANCE):
    return abs(value - target) <= tol


def classify_constants(c1, c2, lam, n_dim):
    """Named special cases of the constants (exact up to 1e-12).

    killing:              c1 = c2 = lam = 0
    homothety:            c1 = c2 = 0
    ricci_soliton:        c1 = 0, c2 = -1
    einstein_weyl:        c1 = 1, c2 = -1/(n-2)      (n_dim >= 3)
    projective_skew_ricci c1 = 1, c2 = -1/(n-1), lam = 0   (n_dim >= 3)
    vacuum_near_horizon:  c1 = 1, c2 = 1/2
    """
    labels = set()
    if _matches(c1, 0.0) and _matches(c2, 0.0):
        labels.add("homothety")
        if _matches(lam, 0.0):
            labels.add("killing")
    if _matches(c1, 0.0) and _matches(c2, -1.0):
        labels.add("ricci_soliton")
    if n_dim >= 3:
        if _matches(c1, 1.0) and _matches(c2, -1.0 / (n_dim - 2)):
            labels.add("einstein_weyl")
        if _matches(c1, 1.0) and _matches(c2, -1.0 / (n_dim - 1)) and _matches(lam, 0.0):
            labels.add("projective_skew_ricci")
    if _matches(c1, 1.0) and _matches(c2, 0.5):
        labels.add("vacuum_near_horizon")
    return labels
