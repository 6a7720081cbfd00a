"""Recover soliton constants from fixed potentials by linear least squares.

The gradient-form equation is linear in (c1, c2, lam):

    c1 (df2.df2) + c2 (-Ric) + lam (-g) = -Hess f1

Stacking every independent symmetric component at every sample point gives
an overdetermined system solved by normal equations.  Rank is decided on
the singular values of the small normal matrix (threshold 1e-10 relative),
and the null space is reported rather than collapsed: genuinely
under-determined instances (e.g. Einstein metrics, where Ric and g are
collinear) have a whole affine family of solutions.
"""

import math
from dataclasses import dataclass

import numpy as np

from grsoliton import expr
from grsoliton.chart import evaluate_fields, pointwise_sup, sup_norm
from grsoliton.soliton import SolitonSpec
from grsoliton.tensors import TensorField, as_scalar, hessian, partial, ricci, sym_product

RANK_THRESHOLD = 1e-10

CONSTANT_ORDER = ("c1", "c2", "lambda")


@dataclass
class FitResult:
    """Least-squares solution with rank and null-space diagnostics."""

    solution: np.ndarray          # minimum-norm particular solution
    rank: int
    null_space: np.ndarray        # orthonormal columns spanning the kernel
    residual_sup: float
    singular_values: np.ndarray
    free_names: tuple = CONSTANT_ORDER
    target_sup: float = 0.0      # sup |rhs|, for relative residuals
    n_points: int = 0             # sample points used
    n_skipped: int = 0            # sample points skipped, out of domain

    def coset_distance(self, constants):
        """Distance from a constants vector to the affine solution set."""
        delta = np.asarray(constants, dtype=float) - self.solution
        if self.null_space.size:
            delta = delta - self.null_space @ (self.null_space.T @ delta)
        return float(np.linalg.norm(delta))

    def as_dict(self):
        return {
            "solution": {name: float(v) for name, v in zip(self.free_names, self.solution)},
            "rank": self.rank,
            "null_space": [list(map(float, col)) for col in self.null_space.T],
            "residual_sup": self.residual_sup,
            "points_used": self.n_points,
            "points_skipped": self.n_skipped,
        }


class TooFewPointsError(ValueError):
    """Fewer than 3 sample points are left to fit; valid marks, per sample
    point, whether every design value there is finite."""

    def __init__(self, message, valid):
        super().__init__(message)
        self.valid = valid


def design_fields(metric, f1, f2):
    """The c1, c2 and lambda columns and the target -Hess f1, each the
    independent symmetric components of one sym2 field."""
    chart = metric.chart
    f1 = as_scalar(f1)
    f2 = as_scalar(f2)
    df2 = TensorField(chart, "oneform", [partial(f2, nm) for nm in chart.names])
    square = sym_product(df2, df2).comps
    ric = ricci(metric).comps
    hess = hessian(metric, f1).comps
    n = chart.dim
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    return [
        [square[i, j] for i, j in upper],
        [expr.neg(ric[i, j]) for i, j in upper],
        [expr.neg(metric.comps[i, j]) for i, j in upper],
        [expr.neg(hess[i, j]) for i, j in upper],
    ]


def fit_constants(metric, f1, f2, points, params=None, fixed=None):
    """Fit the soliton constants against -Hess f1 at the given points.

    fixed maps a subset of {"c1", "c2", "lambda"} to pinned values; the
    remaining constants are fitted.  Sample points where any entry leaves
    its domain are skipped.  Needs at least 3 points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = evaluate_fields(design_fields(metric, f1, f2),
                             metric.chart.env_at(points, params), len(points))
    return fit_design(list(values), fixed)


def fit_design(values, fixed=None):
    """Least-squares fit from the evaluated design_fields, each (npoints, k).

    fixed is as for fit_constants.  Raises TooFewPointsError when fewer
    than 3 points have every design value finite.
    """
    fixed = dict(fixed or {})
    unknown = set(fixed) - set(CONSTANT_ORDER)
    if unknown:
        raise ValueError(f"cannot fix unknown constants {sorted(unknown)}")
    free_names = tuple(n for n in CONSTANT_ORDER if n not in fixed)
    if not free_names:
        raise ValueError("all constants fixed, nothing to fit")

    npoints = len(values[0])
    flat = [v.reshape(npoints, math.prod(v.shape[1:])) for v in values]
    valid = np.logical_and.reduce([np.isfinite(pointwise_sup(f)) for f in flat])
    n_valid = int(np.count_nonzero(valid))
    if n_valid < 3:
        raise TooFewPointsError(
            f"need at least 3 sample points, got {npoints}" if npoints < 3
            else "fewer than 3 sample points survive domain masking", valid)
    if n_valid < npoints:
        flat = [f[valid] for f in flat]
    blocks = dict(zip(CONSTANT_ORDER, flat))

    # row p * k + c holds component c at valid point p, column j the free
    # constant j: the layout column_stack of the flattened blocks gives
    k = len(free_names)
    rows = np.empty((flat[-1].size, k))
    by_point = rows.reshape(n_valid, -1, k)
    for j, name in enumerate(free_names):
        by_point[:, :, j] = blocks[name]
    b = flat[-1].reshape(-1)
    for name, value in fixed.items():
        b = b - float(value) * blocks[name].reshape(-1)

    normal = rows.T @ rows
    rhs = rows.T @ b
    sigma, basis = np.linalg.eigh(normal)      # ascending, sigma >= 0
    sigma = np.clip(sigma, 0.0, None)
    cutoff = RANK_THRESHOLD * sigma.max() if sigma.max() > 0 else np.inf
    keep = sigma > cutoff
    rank = int(keep.sum())
    solution = np.zeros(k)
    for lam_val, vec in zip(sigma[keep], basis.T[keep]):
        solution += (vec @ rhs) / lam_val * vec
    null_space = basis[:, ~keep]
    target_sup = sup_norm(b) if b.size else 0.0
    residual_sup = sup_norm(rows @ solution - b) if rank else target_sup
    return FitResult(
        solution=solution,
        rank=rank,
        null_space=null_space,
        residual_sup=residual_sup,
        singular_values=sigma[::-1].copy(),
        free_names=free_names,
        target_sup=target_sup,
        n_points=n_valid,
        n_skipped=npoints - n_valid,
    )


def manufacture_instance(metric, f1_template, f2_template, constants,
                         points=None, params=None):
    """Round-trip generator: build a gradient-mode spec from templates and
    the given (c1, c2, lam), and fit the constants back from it.

    Returns (spec, fit); the generating constants must lie in the fitted
    affine solution set (fit.coset_distance of them is the certificate).
    """
    c1, c2, lam = constants
    spec = SolitonSpec(metric, "gradient", c1, c2, lam,
                       f1=as_scalar(f1_template), f2=as_scalar(f2_template),
                       params=params)
    if points is None:
        from grsoliton.chart import sample_points
        points = sample_points(metric.chart, "uniform", 200, 0)
    fit = fit_constants(metric, spec.f1, spec.f2, points, params=params)
    return spec, fit
