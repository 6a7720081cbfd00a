"""Recover soliton constants from fixed potentials by linear least squares.

The gradient-form equation is linear in (c1, c2, lam):

    c1 (df2.df2) + c2 (-Ric) + lam (-g) = -Hess f1

Each symmetric component at each sample point is a row of [A | b].  FitQR
reduces them chunk by chunk to the 4 x 4 R of [A | b] (TSQR: Demmel et
al., SIAM J. Sci. Comput. 34(1), 2012), not to normal equations, which
square the condition number (Golub & Van Loan, Matrix Computations, 4th
ed., 5.3).  Rank (1e-10 relative) and null space come from the SVD of R's
free columns scaled to unit norm; the null space is reported, not
collapsed (on Einstein metrics Ric and g are collinear).
"""

import math
from dataclasses import dataclass

import numpy as np

from grsoliton.chart import field_components, reduce_fields, sample_points
from grsoliton.soliton import ResidualSup, SolitonSpec, build_gradient_check
from grsoliton.tensors import (
    TensorField,
    as_scalar,
    derivative,
    hessian,
    ricci,
    sym_product,
    upper_pairs,
)

RANK_THRESHOLD = 1e-10
CONSTANT_ORDER = ("c1", "c2", "lambda")
# the signs with which design_fields enter c1 (df2.df2) + c2 (-Ric) + lam (-g) = -Hess f1
SIGNS = (1.0, -1.0, -1.0, -1.0)

# rows per block of the batched QR of [R; chunk]
BLOCK_ROWS = 1024


@dataclass
class FitResult:
    """Least-squares solution with rank and null-space diagnostics.

    solution is the particular solution of least norm in the unscaled
    constants, but the null space it is projected off is found in the
    column-scaled ones (see FitQR.finish).  On a rank-deficient design
    whose column norms spread far apart, it carries a relative error of
    about eps times that spread along the null space; the affine solution
    set (solution + span(null_space)) and the residual are unaffected.
    """

    solution: np.ndarray          # least-norm particular solution
    rank: int
    null_space: np.ndarray        # orthonormal columns spanning the kernel
    singular_values: np.ndarray   # of the column-scaled R, descending
    free_names: tuple = CONSTANT_ORDER
    n_points: int = 0             # sample points used
    n_skipped: int = 0            # sample points skipped, out of domain
    residual_sup: float = math.nan  # sup |gradient-form residual|, by fit_constants
    target_sup: float = math.nan    # sup |Hess f1|, by fit_constants

    def coset_distance(self, constants):
        """Distance from a constants vector to the affine solution set."""
        delta = np.asarray(constants, dtype=float) - self.solution
        if self.null_space.size:
            delta = delta - self.null_space @ (self.null_space.T @ delta)
        return float(np.linalg.norm(delta))


class TooFewPointsError(ValueError):
    """Fewer than 3 valid points to fit; first_bad is the first invalid one."""

    def __init__(self, message, n_valid, first_bad):
        super().__init__(message)
        self.n_valid, self.first_bad = n_valid, first_bad


def design_fields(metric, f1, f2):
    """df2.df2, Ric, g and Hess f1, each the independent symmetric components
    of one sym2 field, which enter [A | b] with SIGNS, and the domain
    [f1, f2]: a point counts only where the potentials are defined."""
    f1, f2 = as_scalar(f1), as_scalar(f2)
    df2 = TensorField(metric.chart, "oneform", derivative(f2, metric.chart.names))
    upper = upper_pairs(metric.dim)
    return [list(t[upper]) for t in (sym_product(df2, df2).comps, ricci(metric).comps,
                                      metric.comps, hessian(metric, f1).comps)] + [[f1, f2]]


class FitQR:
    """Accumulator of the R factor of [A | b], columns in CONSTANT_ORDER.

    update(lo, c1, c2, lam, target[, domain]) reads a chunk of the
    design_fields, takes each with its sign (SIGNS), drops the points where
    a value is not finite, writes the rest below R into one reused buffer
    and reduces [R; chunk] by one batched QR of its BLOCK_ROWS-row blocks
    and one of theirs.  finish(fixed) solves with fixed pinned, as often as asked."""

    def __init__(self):
        self.r = np.zeros((4, 4))
        self.buffer = np.empty((4, 0))
        self.n_valid = self.n_points = 0
        self.first_bad = None

    def update(self, lo, c1, c2, lam, target, domain=()):
        k, size = len(target), len(target[0])
        rows = 4 + k * size
        used = -(-rows // BLOCK_ROWS) * BLOCK_ROWS
        if self.buffer.shape[1] < used:
            self.buffer = np.empty((4, used))
        buffer = self.buffer      # [j, 4 + c * size + p]: column j, component c, point p
        buffer[:, :4] = self.r.T
        for j, field in enumerate((c1, c2, lam, target)):
            for c, component in enumerate(field):
                np.multiply(component, SIGNS[j], out=buffer[j, 4 + c * size:4 + (c + 1) * size])
        n_valid = size
        # a mask per point only for a chunk with a non-finite value
        if not (np.isfinite(buffer[:, 4:rows]).all() and np.isfinite(domain).all()):
            design = buffer[:, 4:rows].reshape(4, k, size)
            valid = np.isfinite(design).all(axis=(0, 1)) & np.isfinite(domain).all(axis=0)
            n_valid = int(np.count_nonzero(valid))
            if self.first_bad is None and n_valid < size:
                self.first_bad = lo + int(np.argmin(valid))
            rows = 4 + k * n_valid
            buffer[:, 4:rows] = design[:, :, valid].reshape(4, -1)
        used = -(-rows // BLOCK_ROWS) * BLOCK_ROWS
        buffer[:, rows:used] = 0.0
        blocks = buffer[:, :used].reshape(4, -1, BLOCK_ROWS).transpose(1, 2, 0)
        self.r = np.linalg.qr(np.linalg.qr(blocks, mode="r").reshape(-1, 4), mode="r")
        self.n_valid += n_valid
        self.n_points += size

    def finish(self, fixed=None):
        """The FitResult with the constants in fixed pinned; raises
        TooFewPointsError when fewer than 3 points were valid.

        Rank and null space come from the SVD of the free columns scaled to
        unit norm.  The reported solution is the least-norm one in the
        unscaled constants, projected off that null space, which is exact
        only to rounding in the scaled coordinates: on a rank-deficient
        design the solution carries a relative error of about eps times the
        spread of the column norms (largest over smallest) along the null
        space, against np.linalg.lstsq about 5e-11 at a spread of 1e6 and
        5e-5 at 1e12.  The affine solution set, which coset_distance
        measures, and the residual at the solution do not depend on which
        of its points is reported.
        """
        fixed = dict(fixed or {})
        unknown = sorted(set(fixed) - set(CONSTANT_ORDER))
        if unknown:
            raise ValueError(f"cannot fix unknown constants {unknown}")
        free = [j for j, name in enumerate(CONSTANT_ORDER) if name not in fixed]
        if not free:
            raise ValueError("all constants fixed, nothing to fit")
        if self.n_valid < 3:
            raise TooFewPointsError(f"need at least 3 valid sample points, got {self.n_valid} "
                                    f"of {self.n_points}", self.n_valid, self.first_bad)
        a = self.r[:, free]
        b = self.r[:, 3] - sum(float(v) * self.r[:, CONSTANT_ORDER.index(name)]
                               for name, v in fixed.items())
        norms = np.linalg.norm(a, axis=0)
        scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
        u, sigma, vt = np.linalg.svd(a * scale, full_matrices=False)
        rank = int(np.count_nonzero(sigma > RANK_THRESHOLD * sigma[0]))
        # minimum-norm in the scaled coordinates, then in the unscaled ones
        solution = scale * (vt[:rank].T @ ((u[:, :rank].T @ b) / sigma[:rank]))
        null_space = np.linalg.qr(scale[:, None] * vt[rank:].T).Q
        solution -= null_space @ (null_space.T @ solution)
        return FitResult(solution, rank, null_space, sigma,
                         tuple(CONSTANT_ORDER[j] for j in free),
                         self.n_valid, self.n_points - self.n_valid)


def fit_constants(metric, f1, f2, points, params=None, fixed=None):
    """Fit the constants not pinned by fixed (a dict over CONSTANT_ORDER)
    against -Hess f1 at the points where every entry is defined (at least
    3), then measure the gradient-form residual there in a second pass."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    env = metric.chart.env_at(points, params)
    design = FitQR()
    reduce_fields([(design_fields(metric, f1, f2), design)], env, len(points))
    fit = design.finish(fixed)
    constants = {**(fixed or {}), **dict(zip(fit.free_names, fit.solution))}
    check = build_gradient_check(SolitonSpec(
        metric, "gradient", *(constants[k] for k in CONSTANT_ORDER), f1=f1, f2=f2, params=params))
    residual = ResidualSup(check, metric.chart, points, params, math.inf)
    reduce_fields([(check.fields, residual)], env, len(points))
    fit.residual_sup, fit.target_sup = residual.finish().abs_sup, residual.ref_sup
    return fit


def fit_design(values, fixed=None):
    """fit_constants, without the residual, from evaluated design_fields."""
    design = FitQR()
    design.update(0, *map(field_components, values))
    return design.finish(fixed)


def manufacture_instance(metric, f1_template, f2_template, constants,
                         points=None, params=None):
    """(spec, fit): a gradient-mode spec from templates and (c1, c2, lam),
    and the constants fitted back from it, whose affine solution set must
    hold the given ones (fit.coset_distance of them is the certificate)."""
    spec = SolitonSpec(metric, "gradient", *constants, f1=f1_template, f2=f2_template,
                       params=params)
    if points is None:
        points = sample_points(metric.chart, "uniform", 200, 0)
    return spec, fit_constants(metric, spec.f1, spec.f2, points, params=params)
