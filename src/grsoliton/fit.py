"""Recover soliton constants from fixed data by linear least squares.

A form of the soliton equation (soliton.SolitonForm, scale s, target T,
square P.P) is linear in (c1, c2, lam):

    c1 (s P.P) + c2 (-s Ric) + lam (-s g) = -T

with T = Hess f1, P = df2 and s = 1 in the gradient form, and T = L_X1 g,
P = X2b and s = 2 in the vector form.

Each symmetric component at each sample point is a row of [A | b].  FitQR
reduces them chunk by chunk, and each chunk one QR batch of rows at a
time, to the 4 x 4 R of [A | b] (TSQR: Demmel et al., SIAM J. Sci.
Comput. 34(1), 2012), not to normal equations, which square the condition
number (Golub & Van Loan, Matrix Computations, 4th ed., 5.3).  Rank
(1e-10 relative) and null space come from the SVD of R's free columns
scaled to unit norm; the null space is reported, not collapsed (on
Einstein metrics Ric and g are collinear).
"""

import math
from dataclasses import dataclass

import numpy as np

from grsoliton.chart import as_points, reduce_fields
from grsoliton.soliton import CONSTANT_ORDER, build_soliton_check, reduce_checks
from grsoliton.tensors import ricci, upper_pairs

RANK_THRESHOLD = 1e-10

# rows per block of the blocked QR of [R; chunk], and blocks per QR call:
# a batch of 8,192 rows x 4 columns, 256 kB, is all of a chunk's design
# that an update holds at once
BLOCK_ROWS = 1024
QR_BATCH = 8


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
    residual_sup: float = math.nan  # sup |residual of the form|, by fit_constants
    target_sup: float = math.nan    # sup |T|, by fit_constants

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


def design_fields(metric, form):
    """P.P, Ric, g and T of form, each the independent symmetric components
    of one sym2 field, which enter [A | b] with the signs of FitQR(form),
    and the form's domain, if it has one: a point counts only where the
    domain is defined."""
    upper = upper_pairs(metric.dim)
    fields = [list(t[upper]) for t in (form.square, ricci(metric).comps, metric.comps,
                                       form.target)]
    return fields + [list(form.domain)] if form.domain else fields


class FitQR:
    """Accumulator of the R factor of [A | b] of one soliton form, columns
    in CONSTANT_ORDER.

    update(lo, c1, c2, lam, target[, domain]) reads a chunk of the form's
    design_fields, takes each with its sign, (s, -s, -s, -1) for the form's
    scale s, and reduces [R; rows], rows the component-major rows of the
    chunk's points, in BLOCK_ROWS-row blocks, zero-padded at the end: it
    writes QR_BATCH blocks at a time into one buffer, takes their R's by
    one batched QR, and ends with one QR of all the blocks' R's.  A chunk
    with a value that is not finite is reduced again from R without the
    points where a design or domain value is not finite.  Only R outlives
    the update.  finish(fixed) solves with fixed pinned, as often as
    asked."""

    def __init__(self, form):
        self.signs = (form.scale, -form.scale, -form.scale, -1.0)
        self.r = np.zeros((4, 4))
        self.n_valid = self.n_points = 0
        self.first_bad = None

    def update(self, lo, c1, c2, lam, target, domain=()):
        size = len(target[0])
        fields = list(zip((c1, c2, lam, target), self.signs))
        rs = self._batch_rs(fields, size) if all(np.isfinite(d).all() for d in domain) else None
        n_valid = size
        if rs is None:
            # a mask per point only for a chunk with a non-finite value
            valid = np.ones(size, dtype=bool)
            for field, sign in fields:
                for component in field:
                    valid &= np.isfinite(component * sign)   # as signed, which may overflow
            for component in domain:
                valid &= np.isfinite(component)
            points = np.flatnonzero(valid)
            n_valid = len(points)
            if self.first_bad is None and n_valid < size:
                self.first_bad = lo + int(np.argmin(valid))
            rs = self._batch_rs(fields, n_valid, points)
        self.r = np.linalg.qr(np.concatenate(rs).reshape(-1, 4), mode="r")
        self.n_valid += n_valid
        self.n_points += size

    def _batch_rs(self, fields, n, points=None):
        """The R factors of the blocks of [R; rows], one array per QR batch,
        rows the chunk's n points (points indexes them, if given) of each
        component in turn; None at a non-finite row when points is None."""
        k = len(fields[0][0])
        rows = 4 + k * n
        used = -(-rows // BLOCK_ROWS) * BLOCK_ROWS
        batch = np.empty((4, min(used, QR_BATCH * BLOCK_ROWS)))  # [column, row - start]
        rs = []
        for start in range(0, used, batch.shape[1]):
            out = batch[:, :min(used - start, batch.shape[1])]
            if start == 0:
                out[:, :4] = self.r.T
            for c in range(k):
                r0, r1 = max(start, 4 + c * n), min(start + out.shape[1], 4 + (c + 1) * n)
                if r0 >= r1:
                    continue
                p0, p1 = r0 - 4 - c * n, r1 - 4 - c * n
                for j, (field, sign) in enumerate(fields):
                    dest = out[j, r0 - start:r1 - start]
                    if points is None:
                        np.multiply(field[c][p0:p1], sign, out=dest)
                    else:
                        np.multiply(np.take(field[c], points[p0:p1], out=dest), sign, out=dest)
            out[:, max(rows - start, 0):] = 0.0
            if points is None and not np.isfinite(out).all():
                return None
            # np.linalg.qr copies its input; each block's R is the same
            # however the blocks are batched
            rs.append(np.linalg.qr(out.reshape(4, -1, BLOCK_ROWS).transpose(1, 2, 0), mode="r"))
        return rs

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


def fit_constants(metric, form, points, params=None, fixed=None):
    """Fit the constants of form (a soliton.SolitonForm) not pinned by fixed
    (a dict over CONSTANT_ORDER) against -T at the points where every entry
    is defined (at least 3), then measure the form's residual there in a
    second pass."""
    points = as_points(points)
    env = metric.chart.env_at(points, params)
    design = FitQR(form)
    reduce_fields([(design_fields(metric, form), design)], env, len(points))
    fit = design.finish(fixed)
    constants = {**(fixed or {}), **dict(zip(fit.free_names, fit.solution))}
    check = build_soliton_check(metric, form, *(constants[k] for k in CONSTANT_ORDER))
    [residual] = reduce_checks(metric.chart, [check], points, params, math.inf)
    fit.residual_sup, fit.target_sup = residual.finish().abs_sup, residual.ref_sup
    return fit
