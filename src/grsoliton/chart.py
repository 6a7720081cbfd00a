"""Coordinate charts, bounded sampling, and metric fields.

A chart is a single open box in R^n with named coordinates.  Metrics are
n x n matrices of expressions over those coordinates (plus named
parameters); their symbolic inverse is computed once by adjugate over
determinant, which is exact and keeps everything downstream closed-form.
"""

import math

import numpy as np

from grsoliton import expr
from grsoliton.expr import (
    RESERVED_NAMES,
    Expression,
    Num,
    free_symbols,
    parse,
    simplify,
)

# Sampling policy: stay MARGIN away from finite ends, truncate unbounded
# directions to [-TRUNCATION, TRUNCATION] (or bound + TRUNCATION above a
# finite lower bound) so exp/cot stay well-conditioned near the paper-scale
# examples.
MARGIN = 1e-3
TRUNCATION = 2.0

_VALIDATION_POINTS = 100
_VALIDATION_SEED = 20260613


class ChartError(ValueError):
    """Bad chart definition (names or bounds)."""


class MetricError(ValueError):
    """Metric matrix fails symmetry, definiteness, or invertibility."""


class Chart:
    """Ordered coordinate names with per-coordinate open interval bounds."""

    __slots__ = ("names", "bounds")

    def __init__(self, names, bounds):
        self.names = tuple(names)
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)

    @property
    def dim(self):
        return len(self.names)

    def axis(self, name):
        return self.names.index(name)

    def env_at(self, points, params=None):
        """Evaluation environment mapping names to coordinate columns."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = {name: points[:, i] for i, name in enumerate(self.names)}
        if params:
            for key, value in params.items():
                if key not in env:
                    env[key] = float(value)
        return env

    def __repr__(self):
        spans = ", ".join(f"{n}:({lo}, {hi})" for n, (lo, hi)
                          in zip(self.names, self.bounds))
        return f"Chart({spans})"


def define_chart(names, bounds=None):
    """Build a chart; bounds maps a coordinate name to (lo, hi), where a
    missing entry or a None endpoint means unbounded in that direction."""
    names = tuple(names)
    if not names:
        raise ChartError("chart needs at least one coordinate")
    if len(set(names)) != len(names):
        raise ChartError(f"duplicate coordinate names in {names}")
    for name in names:
        if name in RESERVED_NAMES:
            raise ChartError(f"coordinate name {name!r} is reserved")
        if not name.isidentifier():
            raise ChartError(f"invalid coordinate name {name!r}")
    bounds = dict(bounds or {})
    unknown = set(bounds) - set(names)
    if unknown:
        raise ChartError(f"bounds given for unknown coordinates {sorted(unknown)}")
    resolved = []
    for name in names:
        lo, hi = bounds.get(name, (None, None))
        lo = -math.inf if lo is None else float(lo)
        hi = math.inf if hi is None else float(hi)
        if not lo < hi:
            raise ChartError(f"inverted bounds for {name!r}: ({lo}, {hi})")
        resolved.append((lo, hi))
    return Chart(names, resolved)


def _feasible_box(chart):
    box = []
    for name, (lo, hi) in zip(chart.names, chart.bounds):
        lo_eff = lo + MARGIN if math.isfinite(lo) else -TRUNCATION
        if math.isfinite(hi):
            hi_eff = hi - MARGIN
        elif math.isfinite(lo):
            hi_eff = lo + TRUNCATION
        else:
            hi_eff = TRUNCATION
        if not lo_eff < hi_eff:
            raise ChartError(f"empty feasible box for coordinate {name!r}")
        box.append((lo_eff, hi_eff))
    return box


def sample_points(chart, strategy="uniform", count=100, seed=0):
    """Deterministic point cloud inside the chart's feasible box.

    strategy "uniform" draws i.i.d. points from a seeded generator;
    "grid" lays down the smallest per-axis lattice covering count points
    and returns the first count of them in lexicographic order.
    """
    if count < 1:
        raise ChartError("count must be >= 1")
    box = _feasible_box(chart)
    n = chart.dim
    if strategy == "uniform":
        rng = np.random.default_rng(seed)
        unit = rng.random((count, n))
        pts = np.empty((count, n))
        for i, (lo, hi) in enumerate(box):
            pts[:, i] = lo + (hi - lo) * unit[:, i]
        return pts
    if strategy == "grid":
        per_axis = 1
        while per_axis ** n < count:
            per_axis += 1
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return pts[:count]
    raise ChartError(f"unknown sampling strategy {strategy!r}")


def evaluate_field(comps, env, size):
    """Evaluate an object array of expressions -> float array (size, *shape)."""
    return next(evaluate_fields([comps], env, size))


def evaluate_fields(fields, env, size):
    """Evaluate several object arrays of expressions as one plan.

    Returns an iterator over one float array of shape (size, *shape) per
    field, in order.  The plan writes each field's components, chunk by
    chunk, into its own component-major (k, size) block, and the array
    handed out is a transposed view of that block.
    """
    fields = [np.asarray(f, dtype=object) for f in fields]
    values = FieldValues([f.shape for f in fields], size)
    reduce_fields([(fields, values)], env, size)
    return iter(values.finish())


def reduce_fields(groups, env, size):
    """Evaluate the fields of every (fields, accumulator) group as one plan.

    After each chunk of points, every accumulator's update(lo, *fields)
    receives one sequence of component chunks per field of its group (see
    field_components); what it keeps is up to it, and its finish() gives
    the result.
    """
    roots, feeds = [], []
    for fields, accumulator in groups:
        spans = []
        for f in fields:
            f = np.asarray(f, dtype=object).reshape(-1)
            spans.append((len(roots), len(roots) + len(f)))
            roots.extend(f)
        feeds.append((accumulator.update, spans))

    def sink(lo, hi, values):
        for update, spans in feeds:
            update(lo, *[values[a:b] for a, b in spans])

    expr.evaluate_many_multi(roots, env, size, sink=sink)


def field_components(values):
    """The components of an evaluated (npoints, ...) field as a sequence of
    (npoints,) rows: the form in which an accumulator reads one field."""
    values = np.asarray(values)
    return values.reshape(len(values), math.prod(values.shape[1:])).T


class FieldValues:
    """Accumulator that keeps every value: each field's components go into
    one component-major (k, size) block, and finish() returns, per field,
    the (size, *shape) view of its block."""

    def __init__(self, shapes, size):
        self.shapes = [tuple(shape) for shape in shapes]
        self.blocks = [np.empty((math.prod(shape), size)) for shape in self.shapes]

    def update(self, lo, *fields):
        for block, components in zip(self.blocks, fields):
            block[:, lo:lo + len(components[0])] = components

    def finish(self):
        # splits only the last axis of the transposed block: a view
        return [block.T.reshape(block.shape[1:] + shape)
                for block, shape in zip(self.blocks, self.shapes)]


class SupNorms:
    """Accumulator of the unmasked sup of |value| of each of its fields.

    A non-finite value propagates: NaN wins over everything, inf over any
    number.  finish() returns one float per field, with the 0.0 that |v|
    gives for an all-zero field.
    """

    def __init__(self, nfields=1):
        self.sups = [-math.inf] * nfields

    def update(self, lo, *fields):
        for i, components in enumerate(fields):
            if len(components) == 1:
                # max(v_max, -v_min) is the largest |v| without a |v| temporary
                value = max(components[0].max(), -components[0].min())
            else:
                value = components_sup(components).max()
            sup = self.sups[i]
            if value > sup or value != value:
                self.sups[i] = value

    def finish(self):
        # adding 0.0 turns a -0.0 into the 0.0 that |v| gives
        return [float(sup) + 0.0 for sup in self.sups]


def components_sup(components):
    """max over components of |value| at each point, for components as
    field_components gives them; non-finite values propagate, so the
    result is finite exactly where every component is."""
    sup = np.abs(components[0])
    scratch = np.empty_like(sup)
    for component in components[1:]:
        np.maximum(sup, np.abs(component, out=scratch), out=sup)
    return sup


def pointwise_sup(values):
    """max over components of |value| at each point of an (npoints, ...)
    array, as an (npoints,) array (see components_sup)."""
    return components_sup(field_components(values))


def sup_norm(values):
    """Unmasked sup of |values|; non-finite entries propagate."""
    sups = SupNorms()
    sups.update(0, field_components(np.atleast_1d(values)))
    return sups.finish()[0]


def _as_expression(entry):
    if isinstance(entry, Expression):
        return entry
    if isinstance(entry, str):
        return parse(entry)
    if isinstance(entry, (int, float)):
        return Num(entry)
    raise TypeError(f"cannot interpret {entry!r} as an expression")


def symbolic_determinant(matrix):
    """Cofactor-expansion determinant of an object matrix of expressions."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = expr.ZERO
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        term = expr.mul(matrix[0][j], symbolic_determinant(minor))
        total = expr.sub(total, term) if j % 2 else expr.add(total, term)
    return total


def symbolic_inverse(matrix):
    """Adjugate-over-determinant inverse; exact for small n."""
    n = len(matrix)
    det = simplify(symbolic_determinant(matrix))
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = symbolic_determinant(minor) if n > 1 else expr.ONE
            if (i + j) % 2:
                cof = expr.neg(cof)
            inv[i][j] = simplify(expr.div(cof, det))
    return inv, det


class MetricField:
    """Symmetric positive-definite matrix of expressions on one chart."""

    def __init__(self, chart, comps, inverse, det):
        self.chart = chart
        self.comps = comps          # (n, n) object array, g_ij
        self.inverse = inverse      # (n, n) object array, g^ij
        self.det = det
        self.derived = {}           # memo for Christoffel/curvature tensors

    @property
    def dim(self):
        return self.chart.dim

    def evaluate_at(self, points, params=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = self.chart.env_at(points, params)
        return evaluate_field(self.comps, env, points.shape[0])

    def inverse_values_at(self, points, params=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = self.chart.env_at(points, params)
        return evaluate_field(self.inverse, env, points.shape[0])


def define_metric(chart, rows, params=None):
    """Validate and build a MetricField from an n x n matrix of expressions.

    Symmetry is checked symbolically where the rendered entries coincide
    and numerically (<= 1e-12) at sampled points; every sampled point must
    leave all leading principal minors positive.
    """
    n = chart.dim
    matrix = [[_as_expression(entry) for entry in row] for row in rows]
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise MetricError(f"metric must be {n}x{n} for chart {chart!r}")
    allowed = set(chart.names) | set(params or {})
    for row in matrix:
        for entry in row:
            stray = free_symbols(entry) - allowed
            if stray:
                raise MetricError(
                    f"metric entry {expr.render(entry)!r} uses unknown symbols "
                    f"{sorted(stray)}")
    matrix = [[simplify(entry) for entry in row] for row in matrix]

    pts = sample_points(chart, "uniform", _VALIDATION_POINTS, _VALIDATION_SEED)
    env = chart.env_at(pts, params)
    values = evaluate_field(np.array(matrix, dtype=object), env, len(pts))
    if not np.isfinite(values).all():
        raise MetricError("metric entries are not finite on the sample box")
    trivially_symmetric = all(
        matrix[i][j] is matrix[j][i] or expr.render(matrix[i][j]) == expr.render(matrix[j][i])
        for i in range(n) for j in range(i + 1, n))
    if not trivially_symmetric:
        gap = np.abs(values - np.transpose(values, (0, 2, 1))).max()
        if gap > 1e-12:
            raise MetricError(f"metric is asymmetric (max |g_ij - g_ji| = {gap:.3e})")
    for k in range(1, n + 1):
        minors = np.linalg.det(values[:, :k, :k])
        worst = minors.min()
        if worst <= 0.0:
            idx = int(np.argmin(minors))
            if k == n and abs(worst) < 1e-12:
                raise MetricError(f"metric is singular near {pts[idx]}")
            raise MetricError(
                f"metric is not positive definite at {pts[idx]} "
                f"(leading minor {k} = {worst:.3e})")

    inverse, det = symbolic_inverse(matrix)
    return MetricField(chart,
                       np.array(matrix, dtype=object),
                       np.array(inverse, dtype=object),
                       det)


def metric_inverse_at(metric, point, params=None):
    """Numeric inverse of the metric at one point; g . g^-1 = I to 1e-12."""
    g = metric.evaluate_at([point], params)[0]
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise MetricError(f"metric is singular at {point}") from None
    residual = np.abs(g @ inv - np.eye(metric.dim)).max()
    if not np.isfinite(inv).all() or residual > 1e-12:
        raise MetricError(f"metric is numerically singular at {point}")
    return inv
