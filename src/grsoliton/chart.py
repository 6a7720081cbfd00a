"""Coordinate charts, bounded sampling, and metric fields.

A chart is a single open box in R^n with named coordinates.  A metric is
a sym2 TensorField over those coordinates (plus named parameters); its
symbolic inverse and determinant are built once, by Gauss-Jordan
elimination, and keep everything downstream closed-form.
"""

import functools
import math
import operator

import numpy as np

from grsoliton import expr
from grsoliton.expr import RESERVED_NAMES, as_scalar, free_symbols, is_name, simplify
from grsoliton.tensors import TensorField

# Sampling policy: stay MARGIN away from finite ends, truncate unbounded
# directions to [-TRUNCATION, TRUNCATION] (or bound + TRUNCATION above a
# finite lower bound) so exp/cot stay well-conditioned near the paper-scale
# examples.
MARGIN = 1e-3
TRUNCATION = 2.0

_VALIDATION_POINTS = 100
_VALIDATION_SEED = 20260613

# SplitMix64 (Sample): the counter's increment, then the finaliser's
# (shift, multiplier) steps and its last shift
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)


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

    def env_at(self, points, params=None):
        """Evaluation environment mapping names to coordinate columns: the
        columns of an (npoints, n) array, or the column fills of a Sample
        (Sample.columns).  Raises ChartError on an array that is not
        (npoints, n) with npoints >= 1."""
        points = as_points(points)
        if isinstance(points, Sample):
            env = points.columns()
        else:
            if points.ndim != 2 or points.shape[1] != self.dim or not len(points):
                raise ChartError(f"points must be an (npoints, {self.dim}) array with "
                                 f"npoints >= 1, got shape {points.shape}")
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
    missing entry or a None endpoint means unbounded in that direction.
    Raises ChartError on a chart whose sampling box (MARGIN inside each
    finite end) is empty."""
    names = tuple(names)
    if not names:
        raise ChartError("chart needs at least one coordinate")
    if len(set(names)) != len(names):
        raise ChartError(f"duplicate coordinate names in {names}")
    for name in names:
        if name in RESERVED_NAMES:
            raise ChartError(f"coordinate name {name!r} is reserved")
        if not is_name(name):
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
    chart = Chart(names, resolved)
    _feasible_box(chart)
    return chart


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


class Sample:
    """The sample points of a chart, drawn coordinate by coordinate:
    fill(j, lo, hi, out) writes coordinate j of points lo..hi-1 into out,
    block(lo, hi) stacks the n fills as an (hi - lo, n) array, sample[i]
    is point i, and no array of points is held.  "uniform": coordinate j
    of point p is low_j + width_j * u_k of the feasible box, where u_k is
    draw k = p n + j of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) from
    seed, an integer in [0, 2^64): x = seed + (k + 1) 0x9E3779B97F4A7C15
    mod 2^64, put through the finaliser (x ^= x >> 30; x *= 0xBF58476D1CE4E5B9;
    x ^= x >> 27; x *= 0x94D049BB133111EB; x ^= x >> 31), and
    u_k = (x >> 11) 2^-53 in [0, 1).  The generator is counter-based, so
    a coordinate depends only on (seed, p, j), and fill computes its
    draws, a counter of stride n, in place.  "grid": the first count
    points, in lexicographic order, of the smallest per-axis lattice that
    has count points.
    """

    def __init__(self, chart, strategy="uniform", count=100, seed=0):
        if count < 1:
            raise ChartError("count must be >= 1")
        box = _feasible_box(chart)
        if strategy not in ("uniform", "grid"):
            raise ChartError(f"unknown sampling strategy {strategy!r}")
        self.names = chart.names
        self.strategy, self.count = strategy, count
        seed = operator.index(seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed!r}")
        self.seed = seed
        self.low = [lo for lo, _ in box]
        self.high = [hi for _, hi in box]
        self.width = [hi - lo for lo, hi in box]
        if strategy == "grid":
            # the smallest per_axis with per_axis^n >= count: the rounded
            # root, corrected to the integer
            n = len(box)
            self.per_axis = max(1, round(count ** (1 / n)))
            while self.per_axis ** n < count:
                self.per_axis += 1
            while (self.per_axis - 1) ** n >= count:
                self.per_axis -= 1

    def __len__(self):
        return self.count

    def __getitem__(self, index):
        return self.block(index, index + 1)[0]

    def block(self, lo, hi):
        """Points lo..hi-1 as an (hi - lo, n) array, one fill per column."""
        points = np.empty((hi - lo, len(self.names)))
        for axis in range(len(self.names)):
            self.fill(axis, lo, hi, points[:, axis])
        return points

    def fill(self, axis, lo, hi, out):
        """Write coordinate axis of points lo..hi-1 into out, a float64
        array of hi - lo entries."""
        if self.strategy == "grid":
            # lattice index i of each point along the axis, the last axis
            # fastest, and its coordinate as np.linspace(low, high, per_axis)
            # computes it: i step + low (i width + low at one point), the
            # last index high itself.  A box is at least about 1e-19 wide,
            # so the step never underflows to 0, linspace's other branch
            index = np.arange(lo, hi)
            index //= self.per_axis ** (len(self.names) - 1 - axis)
            index %= self.per_axis
            last = self.per_axis - 1
            out[...] = index
            out *= self.width[axis] / max(last, 1)
            out += self.low[axis]
            if last:
                out[index == last] = self.high[axis]
            return
        n = len(self.names)
        # x = seed + (k + 1) gamma = p (n gamma) + seed + (axis + 1) gamma
        # for draws k = p n + axis, mod 2^64 as uint64 arithmetic is, in the
        # memory of out
        x = out.view(np.uint64)
        scratch = np.arange(lo, hi, dtype=np.uint64)
        np.multiply(scratch, np.uint64(n * _GOLDEN_GAMMA % 2 ** 64), out=x)
        x += np.uint64((self.seed + (axis + 1) * _GOLDEN_GAMMA) % 2 ** 64)
        for shift, multiplier in _MIX:
            x ^= np.right_shift(x, shift, out=scratch)
            x *= multiplier
        x ^= np.right_shift(x, _LAST_SHIFT, out=scratch)
        np.right_shift(x, 11, out=scratch)
        np.multiply(scratch, 2.0 ** -53, out=out)
        out *= self.width[axis]             # lo + (hi - lo) u, in place
        out += self.low[axis]

    def columns(self):
        """{coordinate name: fill(lo, hi, out)}, Sample.fill of its axis,
        as expr.evaluate_many_multi reads a column: each coordinate is
        drawn straight into the plan's buffer, and nothing is kept between
        calls."""
        return {name: functools.partial(self.fill, axis) for axis, name in enumerate(self.names)}


def sample_points(chart, strategy="uniform", count=100, seed=0):
    """The points of Sample(chart, strategy, count, seed) as one
    (count, n) array; "uniform" row p, coordinate j, is SplitMix64 draw
    p n + j from seed, scaled into the feasible box."""
    return Sample(chart, strategy, count, seed).block(0, count)


def as_points(points):
    """points as an (npoints, n) float array, or the Sample it is."""
    if isinstance(points, Sample):
        return points
    return np.atleast_2d(np.asarray(points, dtype=float))


def reduce_fields(groups, env, size):
    """Evaluate the fields of every (fields, accumulator) group as one plan.

    In each chunk of points, as soon as the plan has computed every
    component of a group's fields, the accumulator's update(lo, *fields)
    receives, per field of its group, the sequence of its components'
    (hi - lo,) chunks, in the order of the field's flattened components;
    the plan then reuses their buffers, so what it keeps is up to it, and
    its finish() gives the result.  Each accumulator sees its chunks in
    order.  The accumulators are soliton.ResidualSup, the one reducer of
    every check, and fit.FitQR; expr.evaluate_many is the one collector of
    values that are kept.
    """
    roots, sinks = [], []
    for fields, accumulator in groups:
        spans, start = [], len(roots)
        for f in fields:
            f = np.asarray(f, dtype=object).reshape(-1)
            spans.append((len(roots) - start, len(roots) - start + len(f)))
            roots.extend(f)
        sinks.append((len(roots) - start, functools.partial(_feed, accumulator.update, spans)))
    expr.evaluate_many_multi(roots, env, size, sinks)


def _feed(update, spans, lo, hi, values):
    update(lo, *[values[a:b] for a, b in spans])


def components_sup(components, out, scratch):
    """max over components of |value| at each point, for the component
    chunks of one field as reduce_fields passes them; non-finite values
    propagate, so the result is finite exactly where every component is.
    Each distinct array is read once and the broadcast scalars are folded
    in as one, into out; out and scratch are chunk-long work arrays."""
    arrays, constant = {}, None
    for component in components:
        if component.strides == (0,):
            value = abs(component[0])
            constant = value if constant is None else np.maximum(constant, value)
        else:
            arrays[id(component)] = component
    if not arrays:
        out.fill(constant)
        return out
    first, *rest = arrays.values()
    np.abs(first, out=out)
    for array in rest:
        np.maximum(out, np.abs(array, out=scratch), out=out)
    if constant:        # 0 changes nothing; NaN and inf change every point
        np.maximum(out, constant, out=out)
    return out


def symbolic_inverse(matrix):
    """(inverse rows, det) of a square matrix of expressions, by
    Gauss-Jordan elimination on [g | I] without pivoting; det is the
    product of the pivots.  Step k updates only the columns right of the
    pivot: the pivot's and those left of it are the identity's by then.
    Each pivot is a ratio of consecutive leading principal minors, which
    define_metric has checked to be positive, so none is zero (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10)."""
    n = len(matrix)
    rows = [[*row, *(expr.ONE if i == j else expr.ZERO for j in range(n))]
            for i, row in enumerate(matrix)]
    det = expr.ONE
    for k in range(n):
        pivot = rows[k][k]
        det = expr.mul(det, pivot)
        right = rows[k][k + 1:] = [expr.div(e, pivot) for e in rows[k][k + 1:]]
        for row in rows[:k] + rows[k + 1:]:
            row[k + 1:] = [expr.sub(e, expr.mul(row[k], r))
                           for e, r in zip(row[k + 1:], right)]
    return [row[n:] for row in rows], det


class MetricField(TensorField):
    """Symmetric positive-definite sym2 TensorField, with its symbolic
    inverse and determinant and the tensors built from it alone."""

    __slots__ = ("inverse", "det", "derived")

    def __init__(self, chart, comps, inverse, det):
        super().__init__(chart, "sym2", comps)
        self.inverse = inverse      # (n, n) object array, g^ij
        self.det = det
        self.derived = {}           # memo for Christoffel/curvature tensors

    @property
    def dim(self):
        return self.chart.dim


def define_metric(chart, rows, params=None):
    """Validate and build a MetricField from an n x n matrix of expressions.

    Symmetry is checked numerically at sampled points, relative to the
    entries: |g_ij - g_ji| <= 1e-12 max(1, |g_ij|, |g_ji|); every sampled
    point must leave all leading principal minors positive.
    """
    n = chart.dim
    matrix = [[as_scalar(entry) for entry in row] for row in rows]
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
    values = expr.evaluate_many(matrix, env, len(pts))
    if not np.isfinite(values).all():
        raise MetricError("metric entries are not finite on the sample box")
    transposed = np.transpose(values, (0, 2, 1))
    scale = np.maximum(1.0, np.maximum(np.abs(values), np.abs(transposed)))
    gap = (np.abs(values - transposed) / scale).max()
    if gap > 1e-12:
        raise MetricError(f"metric is asymmetric (max |g_ij - g_ji| / max(1, |g|) = {gap:.3e})")
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
    """Numeric inverse of the metric at one point.  A MetricError where g
    is singular, or numerically so: its inverse is not finite or its
    2-norm condition number exceeds 1e12.  The residual |g g^-1 - I| of a
    backward-stable inverse is about n u cond(g) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 14.1), so it measures
    conditioning, not singularity, and is not tested."""
    g = metric.evaluate_at([point], params)[0]
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise MetricError(f"metric is singular at {point}") from None
    if not np.isfinite(inv).all() or np.linalg.cond(g) > 1e12:
        raise MetricError(f"metric is numerically singular at {point}")
    return inv
