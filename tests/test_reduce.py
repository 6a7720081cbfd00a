"""The reducers against the formulas they replaced.

The ResidualSup accumulator, with and without a reference, fed a whole
field as one chunk, reads evaluated fields without masked copies, and so
does the axiom gate's worst point.  Each is compared here, bit for bit,
with the plain masked-copy formula, kept below as the reference, on
fields that come out of expr.evaluate_many (so they have its
component-major layout and cross its chunk edges) and on C-ordered copies
of them.  ResidualSup is also fed the same fields in random chunkings, as
the evaluation plan feeds them, and must give the whole-array results.
The FitQR accumulator is compared, to rounding, with np.linalg.lstsq and
an SVD of the whole column-stacked design.
Every accumulator must keep nothing of the arrays a chunk hands it: the
plan writes the next chunk into the same buffers.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grsoliton import expr
from grsoliton.chart import (
    components_sup,
    define_chart,
    define_metric,
    reduce_fields,
    sample_points,
)
from grsoliton.contact import (
    StructureError,
    _axiom_components,
    assemble_structure,
    ladder_checks,
    ladder_rows,
    ricci_reeb_check,
)
from grsoliton.expr import CHUNK_POINTS, Num, Sym, as_scalar, evaluate_many
from grsoliton.fit import (
    BLOCK_ROWS,
    CONSTANT_ORDER,
    QR_BATCH,
    RANK_THRESHOLD,
    FitQR,
    TooFewPointsError,
    design_fields,
)
from grsoliton.manifest import resolve_manifest
from grsoliton.soliton import (
    Check,
    ResidualSup,
    build_soliton_check,
    gradient_form,
    reduce_checks,
    vector_form,
)
from grsoliton.tensors import TensorField, oneform_field, vector_field

from conftest import SASAKIAN_ETA, SASAKIAN_PHI, SASAKIAN_XI, field_components, poisoning

SHAPES = {1: [(1,), ()], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 6: [(6,), (2, 3)],
          8: [(8,), (2, 2, 2)], 9: [(9,), (3, 3)]}
SPECIALS = (np.nan, np.inf, -np.inf)

# of a form, FitQR reads only the scale s, which sets its column signs
# (s, -s, -s, -1); the synthetic designs below take the forms of a line
_LINE = define_metric(define_chart(["x"]), [["1"]])
GRADIENT = gradient_form(_LINE, "0", "0")
VECTOR = vector_form(_LINE, *[vector_field(_LINE.chart, ["0"])] * 2)


def reference_residual(res, ref, domain=None):
    """(abs_sup, rel_sup, n_points, n_skipped) as masked copies give them."""
    npoints = len(res)
    res_flat = res.reshape(npoints, -1)
    ref_flat = ref.reshape(npoints, -1)
    valid = np.isfinite(res_flat).all(axis=1) & np.isfinite(ref_flat).all(axis=1)
    if domain is not None:
        valid &= np.isfinite(domain.reshape(npoints, -1)).all(axis=1)
    res_sup = np.abs(res_flat[valid]).max(axis=1)
    ref_sup = np.abs(ref_flat[valid]).max(axis=1)
    rel_sup = float((res_sup / np.maximum(ref_sup, 1.0)).max())
    return float(res_sup.max()), rel_sup, int(valid.sum()), int((~valid).sum())


def reference_worst(res, ref, domain=None):
    """The first point of the largest |res| / max(1, |ref|) over the points
    where res, ref and the domain are finite."""
    npoints = len(res)
    res_flat, ref_flat = res.reshape(npoints, -1), ref.reshape(npoints, -1)
    valid = np.isfinite(res_flat).all(axis=1) & np.isfinite(ref_flat).all(axis=1)
    if domain is not None:
        valid &= np.isfinite(domain.reshape(npoints, -1)).all(axis=1)
    with np.errstate(invalid="ignore"):
        rel = np.abs(res_flat).max(axis=1) / np.maximum(np.abs(ref_flat).max(axis=1), 1.0)
    return int(np.flatnonzero(valid)[np.argmax(rel[valid])])


def reference_first_bad(res, domain=None):
    """The first point where the residual or the domain is non-finite."""
    defined = np.isfinite(res.reshape(len(res), -1)).all(axis=1)
    if domain is not None:
        defined &= np.isfinite(domain.reshape(len(domain), -1)).all(axis=1)
    return None if defined.all() else int(np.argmin(defined))


def reference_sup_norm(values):
    return float(np.abs(values).max())


def reference_worst_point(values):
    """The point the axiom gate names: the first non-finite one if there
    is one, else the first of the largest |value|."""
    flat = np.abs(values).reshape(len(values), -1).max(axis=1)
    bad = ~np.isfinite(flat)
    return int(np.argmax(bad if bad.any() else flat))


def reference_fit(values, fixed, scale=1.0):
    """The fit of the column-stacked design of the valid points, its
    columns and target the design fields with the signs of
    c1 (s P.P) + c2 (-s Ric) + lam (-s g) = -T, s the scale: rank and null
    space from an SVD of the whole column-scaled design, solution from
    np.linalg.lstsq on it with the same cutoff, made minimum-norm in the
    unscaled coordinates.  values may end with the domain field."""
    free_names = tuple(n for n in CONSTANT_ORDER if n not in fixed)
    flat = [v.reshape(len(v), -1) for v in values]
    valid = np.logical_and.reduce([np.isfinite(f).all(axis=1) for f in flat])
    signs = (scale, -scale, -scale, -1.0)
    blocks = dict(zip(CONSTANT_ORDER, (sign * f for sign, f in zip(signs, flat))))
    a = np.column_stack([blocks[name][valid].reshape(-1) for name in free_names])
    b = -flat[3][valid].reshape(-1)
    for name, value in fixed.items():
        b = b - float(value) * blocks[name][valid].reshape(-1)
    norms = np.linalg.norm(a, axis=0)
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    sigma = np.linalg.svd(a * scale, compute_uv=False)
    _, _, vt = np.linalg.svd(a * scale, full_matrices=False)
    rank = int(np.count_nonzero(sigma > RANK_THRESHOLD * sigma[0]))
    kappa = sigma[0] / sigma[rank - 1] if rank else 1.0
    null_space = np.linalg.qr(scale[:, None] * vt[rank:].T).Q if rank < len(free_names) \
        else np.zeros((len(free_names), 0))
    solution = scale * np.linalg.lstsq(a * scale, b, rcond=RANK_THRESHOLD)[0]
    solution -= null_space @ (null_space.T @ solution)
    return {"solution": solution, "rank": rank, "null_space": null_space,
            "free_names": free_names, "scale": scale, "b_norm": float(np.linalg.norm(b)),
            "kappa": float(kappa),
            "n_points": int(valid.sum()), "n_skipped": int((~valid).sum())}


def assert_same_fit(fit, want):
    """Rank, counts and names exactly; the null space up to sign; the
    solution on the affine solution set, in the column-scaled coordinates,
    to max(1e-10, 4 eps kappa^2) of the larger of its norm and the
    target's, and minimum-norm.  A least-squares solution's rounding error
    scales with its residual and is determined only to about eps kappa^2,
    kappa the condition number of the column-scaled design (Golub & Van
    Loan, Matrix Computations, 4th ed., 5.3); the factor 4 covers the
    modest constants of that bound.

    Along the null space the two minimum-norm solutions are compared only
    through that last property: a null space found in the column-scaled
    coordinates carries an error of eps times the spread of the column
    norms once unscaled, which the solutions then inherit."""
    for key in ("rank", "free_names", "n_points", "n_skipped"):
        assert getattr(fit, key) == want[key], key
    null, other = fit.null_space, want["null_space"]
    assert null.shape == other.shape
    assert np.allclose(null @ null.T, other @ other.T, rtol=0.0, atol=1e-8)
    if null.shape[1] == 1:
        assert min(np.abs(null - other).max(), np.abs(null + other).max()) <= 1e-8
    delta = fit.solution - want["solution"]
    delta = (delta - other @ (other.T @ delta)) / want["scale"]
    size = max(np.linalg.norm(want["solution"] / want["scale"]), want["b_norm"])
    bound = max(1e-10, 4.0 * np.finfo(float).eps * want["kappa"] ** 2)
    assert np.linalg.norm(delta) <= bound * size + 1e-300
    assert np.linalg.norm(null.T @ fit.solution) <= 1e-12 * np.linalg.norm(fit.solution) + 1e-300


def bits(value):
    """IEEE bits of every entry, with every NaN the same."""
    out = np.array(value, dtype=float).reshape(-1)
    return [b"nan" if np.isnan(v) else struct.pack("<d", v) for v in out]


@st.composite
def cases(draw, nfields):
    """(seed, npoints, shapes, validity) with 3-20k points and 1-10 components."""
    npoints = draw(st.sampled_from([3, 4, 17, CHUNK_POINTS - 1, CHUNK_POINTS + 1,
                                    2 * CHUNK_POINTS + 5])
                   | st.integers(3, 20_000))
    shapes = []
    for _ in range(nfields):
        k = draw(st.integers(1, 10))
        shapes.append(draw(st.sampled_from(SHAPES.get(k, [(k,)]))))
    validity = draw(st.sampled_from(["all", "some", "rare", "three"]))
    return draw(st.integers(0, 2 ** 32 - 1)), npoints, shapes, validity


def evaluated(seed, npoints, shapes, validity):
    """Fields of the given shapes, each evaluated through evaluate_many.

    Components are columns of random values with zeros and -0.0 mixed in;
    some repeat an earlier column or are a constant, so that the plan's
    shared and point-independent roots are read too.  Non-finite values
    are placed so that every point, some points, all but a rare few or
    exactly three points stay valid.
    """
    rng = np.random.default_rng(seed)
    fields, ncols = [], 0
    for shape in shapes:
        comps = []
        for i in range(int(np.prod(shape))):
            roll = rng.random()
            if i and roll < 0.1:
                comps.append(Num(float(rng.choice([-0.0, 0.0, 2.5]))))
            elif ncols and roll < 0.2:
                comps.append(Sym(f"c{rng.integers(ncols)}"))
            else:
                comps.append(Sym(f"c{ncols}"))
                ncols += 1
        fields.append(np.array(comps, dtype=object).reshape(shape))

    scale = 10.0 ** rng.integers(-3, 4, ncols)
    cols = rng.standard_normal((ncols, npoints)) * scale[:, None]
    cols[rng.random((ncols, npoints)) < 0.05] = -0.0
    cols[rng.random((ncols, npoints)) < 0.05] = 0.0
    if rng.random() < 0.2:
        cols[rng.integers(ncols)] = -0.0          # a column that is all -0.0
    if validity == "some":
        bad = rng.random(npoints) < rng.uniform(0.01, 0.9)
    elif validity == "rare":
        bad = np.zeros(npoints, dtype=bool)
        bad[rng.integers(npoints, size=rng.integers(1, 4))] = True
    else:
        bad = np.full(npoints, validity == "three")
    bad[rng.choice(npoints, 3, replace=False)] = False
    # one non-finite entry at each bad point, and a second at some of them
    for share in (1.0, 0.3):
        hit = np.flatnonzero(bad & (rng.random(npoints) < share))
        cols[rng.integers(ncols, size=len(hit)), hit] = \
            np.array(SPECIALS)[rng.integers(3, size=len(hit))]
    env = {f"c{i}": col for i, col in enumerate(cols)}
    return [evaluate_many(f, env, npoints) for f in fields]


def layouts(values):
    """The evaluate_many layout and a C-ordered copy of it."""
    yield values
    yield [np.ascontiguousarray(v) for v in values]


class TestResidualReport:
    @settings(max_examples=60, deadline=None)
    @given(case=cases(2))
    def test_matches_masked_copies(self, case):
        seed, npoints, shapes, validity = case
        for res, ref in layouts(evaluated(seed, npoints, shapes, validity)):
            report = one_chunk(ResidualSup(Check("t", [], []), None, np.zeros((npoints, 1)),
                                           None, 1e-8, scratch(npoints)), [res, ref]).finish()
            got = (report.abs_sup, report.rel_sup, report.n_points, report.n_skipped)
            want = reference_residual(res, ref)
            assert bits(got[:2]) == bits(want[:2])
            assert got[2:] == want[2:]
            if validity == "three":
                assert report.n_points == 3


def assert_sup_norm(acc, values):
    """acc, the ResidualSup of a check with no reference fed values (an
    (npoints, ...) field), against the whole-array formulas: the sup of
    |value| over the points where every component is finite, as its
    absolute and relative residual; its worst point, the first point of
    that sup; and the point the axiom gate names, its first non-finite
    point or else its worst."""
    npoints = len(values)
    flat = np.abs(values.reshape(npoints, -1)).max(axis=1)
    valid = np.isfinite(flat)
    assert (acc.n_valid, acc.n_points) == (int(valid.sum()), npoints)
    assert bits([acc.abs_sup, acc.rel_sup]) == bits([reference_sup_norm(values[valid])] * 2)
    assert acc.worst == int(np.flatnonzero(valid)[np.argmax(flat[valid])])
    gate = acc.worst if acc.first_bad is None else acc.first_bad
    assert gate == reference_worst_point(values)


class TestSupNorm:
    @settings(max_examples=60, deadline=None)
    @given(case=cases(1))
    def test_matches_abs_max(self, case):
        seed, npoints, shapes, validity = case
        for (values,) in layouts(evaluated(seed, npoints, shapes, validity)):
            assert_sup_norm(sup_norm(values), values)
            want = np.abs(values.reshape(npoints, -1)).max(axis=1)
            out = components_sup(field_components(values), np.empty(npoints),
                                 np.empty(npoints))
            assert bits(out) == bits(want)

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    def test_zero_is_positive(self, values):
        assert bits(sup_norm(np.array(values)).abs_sup) == bits(0.0)

    @pytest.mark.parametrize("special", SPECIALS)
    def test_non_finite_is_skipped(self, special):
        values = np.array([[1.0, -2.0], [special, 0.0], [3.0, -0.0]])
        acc = sup_norm(values)
        assert bits(acc.abs_sup) == bits(3.0)
        assert (acc.n_valid, acc.n_points, acc.first_bad, acc.worst) == (2, 3, 1, 2)
        acc = sup_norm(values.T)
        assert bits(acc.abs_sup) == bits(2.0)
        assert (acc.n_valid, acc.n_points, acc.first_bad, acc.worst) == (1, 2, 0, 1)


CHUNK_SIZES = (1, CHUNK_POINTS - 1, CHUNK_POINTS, CHUNK_POINTS + 1, 2 * CHUNK_POINTS + 3)


@st.composite
def chunkings(draw, npoints):
    """Chunk edges over npoints: one chunk, a fixed chunk size (1 only for
    small npoints), or random cuts."""
    kind = draw(st.sampled_from(["single", "fixed", "random"]))
    if kind == "single":
        return [0, npoints]
    if kind == "fixed":
        size = draw(st.sampled_from([c for c in CHUNK_SIZES if c > 1 or npoints <= 400]))
        return list(range(0, npoints, size)) + [npoints]
    cuts = draw(st.lists(st.integers(1, npoints - 1), max_size=12))
    return [0] + sorted(set(cuts)) + [npoints]


@st.composite
def chunked(draw, case_strategy):
    """(case, edges): a case and chunk edges over its points."""
    case = draw(case_strategy)
    return case, draw(chunkings(case[1]))


class TestFitDesign:
    @settings(max_examples=40, deadline=None)
    @given(chunked_case=chunked(cases(1)),
           fixed=st.sampled_from([{}, {"lambda": 1.5}, {"c1": -1.0, "c2": 0.5}, {"c2": 0.0}]))
    # a column-scaled design of condition number 9.0e4: FitQR and lstsq
    # differ by 3.15e-7, above 1e-10 times the solution's size (9.3e-8)
    @example(chunked_case=((33877, 3, [(2,)], "all"), [0, 3]), fixed={})
    def test_matches_column_stack(self, chunked_case, fixed):
        (seed, npoints, (shape,), validity), edges = chunked_case
        shapes = [(int(np.prod(shape)),)] * 4 + [(2,)]
        fields = evaluated(seed, npoints, shapes, validity)
        want = reference_fit(fields, fixed)
        for values in layouts(fields):
            assert_same_fit(one_chunk(FitQR(GRADIENT), values).finish(fixed), want)
            assert_same_fit(one_chunk(FitQR(GRADIENT), values[:4]).finish(fixed),
                            reference_fit(values[:4], fixed))
        assert_same_fit(feed(FitQR(GRADIENT), fields, edges).finish(fixed), want)
        if validity == "three":
            assert want["n_points"] == 3

    def test_chunks_may_grow(self):
        # the buffer sized by a small first chunk must grow for a larger one
        fields = evaluated(3, 8191, [(3,)] * 4 + [(2,)], "all")
        want = reference_fit(fields, {})
        assert_same_fit(feed(FitQR(GRADIENT), fields, [0, 1, 342, 8191]).finish(), want)

    @pytest.mark.parametrize("npoints, n_valid", [(200, 0), (200, 1), (200, 2), (2, 2)])
    def test_too_few_points_name_the_valid_ones(self, npoints, n_valid):
        values = [np.ones((npoints, 3)) for _ in range(4)]
        values[1][n_valid:, 2] = np.nan
        with pytest.raises(TooFewPointsError) as err:
            one_chunk(FitQR(GRADIENT), values).finish()
        assert err.value.n_valid == n_valid
        assert err.value.first_bad == (None if n_valid == npoints else n_valid)
        assert isinstance(err.value, ValueError)

    @staticmethod
    def design(columns, solution, noise=0.0, seed=0, scale=1.0):
        """Design fields of one component whose design, for a form of the
        given scale, has the given (npoints,) columns and the target
        columns @ solution plus noise."""
        rng = np.random.default_rng(seed)
        target = np.column_stack(columns) @ solution
        target = target + noise * rng.standard_normal(len(target))
        return [np.asarray(c, dtype=float)[:, None] / sign
                for sign, c in zip((scale, -scale, -scale, -1.0), (*columns, target))]

    @pytest.mark.parametrize("cond", [1e6, 1e7, 1e8])
    def test_ill_conditioned_full_rank(self, cond):
        # sigma_min / sigma_max = 1/cond after column scaling: full rank,
        # though its square, which normal equations see, is below 1e-10
        rng = np.random.default_rng(int(np.log10(cond)))
        u = np.linalg.qr(rng.standard_normal((3000, 3))).Q
        v = np.linalg.qr(rng.standard_normal((3, 3))).Q
        a = u @ np.diag([1.0, 1.0 / np.sqrt(cond), 1.0 / cond]) @ v.T
        x = np.array([1.0, -2.0, 0.5])
        fit = one_chunk(FitQR(GRADIENT), self.design(list(a.T), x)).finish()
        assert fit.rank == 3
        assert (fit.singular_values[-1] / fit.singular_values[0]) ** 2 < RANK_THRESHOLD
        # forward error of a backward-stable solve: about cond * eps
        assert np.linalg.norm(fit.solution - x) <= cond * 1e-14 * np.linalg.norm(x)

    def test_exactly_rank_deficient(self):
        rng = np.random.default_rng(5)
        c1, c3 = rng.standard_normal((2, 5000))
        columns = [c1, 2.0 * c1, c3]             # c2 = 2 c1 exactly
        values = self.design(columns, np.array([1.0, 0.0, 3.0]), noise=0.1)
        fit = one_chunk(FitQR(GRADIENT), values).finish()
        assert fit.rank == 2
        direction = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)
        assert min(np.abs(fit.null_space[:, 0] - direction).max(),
                   np.abs(fit.null_space[:, 0] + direction).max()) <= 1e-12
        a = np.column_stack(columns)
        x = np.linalg.lstsq(a, -values[3][:, 0], rcond=None)[0]    # minimum norm
        assert np.linalg.norm(fit.solution - x) <= 1e-10 * np.linalg.norm(x)
        assert_same_fit(fit, reference_fit(values, {}))

    def test_columns_three_orders_apart(self):
        rng = np.random.default_rng(6)
        columns = list(rng.standard_normal((3, 4000)) * np.array([[1e3], [1.0], [1e-3]]))
        x = np.array([0.25, -1.0, 4.0])
        fit = one_chunk(FitQR(GRADIENT), self.design(columns, x)).finish()
        assert fit.rank == 3
        assert np.abs(fit.solution - x).max() <= 1e-10 * np.abs(x).max()
        # with noise, against the whole design's least squares
        values = self.design(columns, x, noise=1e-2, seed=7)
        assert_same_fit(one_chunk(FitQR(GRADIENT), values).finish(), reference_fit(values, {}))

    @pytest.mark.parametrize("form", [GRADIENT, VECTOR], ids=["gradient", "vector"])
    def test_the_form_sets_the_column_signs(self, form):
        assert FitQR(form).signs == (form.scale, -form.scale, -form.scale, -1.0)
        rng = np.random.default_rng(8)
        columns = list(rng.standard_normal((3, 2000)))
        x = np.array([1.5, -0.5, 2.0])
        values = self.design(columns, x, scale=form.scale)
        fit = one_chunk(FitQR(form), values).finish()
        assert fit.rank == 3
        assert np.abs(fit.solution - x).max() <= 1e-12 * np.abs(x).max()
        assert_same_fit(fit, reference_fit(values, {}, form.scale))


class FullBufferQR(FitQR):
    """FitQR with the update it had while it wrote each chunk's whole
    [R; rows] into one buffer before the batched QR of its blocks: the
    reference for the batches built one at a time."""

    def update(self, lo, c1, c2, lam, target, domain=()):
        k, size = len(target), len(target[0])
        rows = 4 + k * size
        used = -(-rows // BLOCK_ROWS) * BLOCK_ROWS
        buffer = np.empty((4, used))
        buffer[:, :4] = self.r.T
        for j, (field, sign) in enumerate(zip((c1, c2, lam, target), self.signs)):
            for c, component in enumerate(field):
                np.multiply(component, sign, out=buffer[j, 4 + c * size:4 + (c + 1) * size])
        n_valid = size
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
        rs = [np.linalg.qr(blocks[b:b + QR_BATCH], mode="r")
              for b in range(0, len(blocks), QR_BATCH)]
        self.r = np.linalg.qr(np.concatenate(rs).reshape(-1, 4), mode="r")
        self.n_valid += n_valid
        self.n_points += size


def design_chunks(seed, sizes):
    """Chunks of design fields of 6 components and a domain of 2, of the
    given sizes: entries spread over twelve orders, and a point-independent
    component as the plan passes it (a stride-0 view)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for size in sizes:
        fields = [list(rng.standard_normal((6, size)) * 10.0 ** rng.integers(-6, 6, (6, 1)))
                  for _ in range(4)]
        fields[2][1] = np.broadcast_to(np.float64(0.25), (size,))
        chunks.append([*fields, list(rng.standard_normal((2, size)))])
    return chunks


@pytest.mark.parametrize("form", [GRADIENT, VECTOR], ids=["gradient", "vector"])
@pytest.mark.parametrize("sizes", [[CHUNK_POINTS] * 4, [CHUNK_POINTS, 200, 3001, 5]])
def test_the_batches_reduce_as_the_whole_buffer(form, sizes):
    # the same rows in the same blocks and batches: R, bit for bit, with a
    # NaN domain value in the second chunk and an infinite design value in
    # the third
    chunks = design_chunks(11, sizes)
    chunks[1][4][1][sizes[1] // 3] = np.nan
    chunks[2][1][4][sizes[2] // 5] = -np.inf
    fit, want, lo = FitQR(form), FullBufferQR(form), 0
    for chunk in chunks:
        fit.update(lo, *chunk)
        want.update(lo, *chunk)
        lo += len(chunk[0][0])
        assert bits(fit.r) == bits(want.r)
        assert (fit.n_valid, fit.n_points, fit.first_bad) == \
            (want.n_valid, want.n_points, want.first_bad)
    assert fit.first_bad == sizes[0] + sizes[1] // 3
    assert fit.n_valid == sum(sizes) - 2


def test_an_update_holds_one_batch_of_the_design():
    # 8,192 points of 6 components are 49,156 rows of [R; rows], 1.6 MB as
    # one buffer (1.9 MB traced while it was); one 8-block batch is 256 kB,
    # and np.linalg.qr copies it
    [chunk] = design_chunks(9, [CHUNK_POINTS])
    fit = FitQR(GRADIENT)
    fit.update(0, *chunk)               # warm any first-use caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit.update(CHUNK_POINTS, *chunk)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.8e6


def feed(accumulator, fields, edges):
    """Feed accumulator the fields chunk by chunk, as the plan does: one
    list of (hi - lo,) component chunks per field."""
    components = [field_components(f) for f in fields]
    for lo, hi in zip(edges, edges[1:]):
        accumulator.update(lo, *[[c[lo:hi] for c in comps] for comps in components])
    return accumulator


class Kept:
    """Accumulator that keeps a copy of every value: finish() gives, per
    field, the (npoints, k) array of its k components."""

    def __init__(self):
        self.chunks = []

    def update(self, lo, *fields):
        self.chunks.append([np.array(components).T for components in fields])

    def finish(self):
        return [np.concatenate(chunks) for chunks in zip(*self.chunks)]


def one_chunk(accumulator, fields):
    """accumulator fed every point of the (npoints, ...) fields as one chunk."""
    return feed(accumulator, fields, [0, len(fields[0])])


def scratch(npoints):
    """A ResidualSup's scratch, wide enough for a chunk of the plan or a
    chunk that holds all npoints points."""
    return np.empty((3, max(npoints, CHUNK_POINTS)))


def no_reference(npoints=0):
    """A ResidualSup of a check with no reference over npoints points."""
    return ResidualSup(Check("t", [], []), None, np.zeros((npoints, 1)), None, 1e-8,
                       scratch(npoints))


def sup_norm(values, edges=None):
    """no_reference() fed values, an (npoints, ...) field, and its empty
    reference, as one chunk or at edges."""
    values = np.atleast_1d(values)
    edges = edges or [0, len(values)]
    return feed(no_reference(len(values)), [values, np.empty((len(values), 0))], edges)


class TestChunkedAccumulators:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=cases(3), with_domain=st.booleans())
    def test_residual_matches_whole_arrays(self, data, case, with_domain):
        seed, npoints, shapes, validity = case
        res, ref, domain = evaluated(seed, npoints, shapes, validity)
        if not with_domain:
            domain = None
        edges = data.draw(chunkings(npoints))
        fields = [res, ref] + ([domain] if with_domain else [])
        acc = feed(ResidualSup(Check("t", [], []), None, np.zeros((npoints, 1)), None,
                               1e-8, scratch(npoints)), fields, edges)
        report = acc.finish()
        want = reference_residual(res, ref, domain)
        assert bits((report.abs_sup, report.rel_sup)) == bits(want[:2])
        assert (report.n_points, report.n_skipped) == want[2:]
        assert acc.first_bad == reference_first_bad(res, domain)
        assert acc.worst == reference_worst(res, ref, domain)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=cases(2))
    def test_sup_norms_match_whole_arrays(self, data, case):
        seed, npoints, shapes, validity = case
        fields = evaluated(seed, npoints, shapes, validity)
        edges = data.draw(chunkings(npoints))
        for values in fields:
            assert_sup_norm(sup_norm(values, edges), values)

    @pytest.mark.parametrize("npoints", CHUNK_SIZES[1:])
    def test_the_plan_feeds_every_chunk(self, npoints):
        # a root column, a point-independent root and a shared root, over
        # the plan's own chunk edges
        rng = np.random.default_rng(npoints)
        cols = rng.standard_normal((2, npoints))
        # every non-finite value after the first chunk, where there is one
        late = range(CHUNK_POINTS if npoints > CHUNK_POINTS else npoints // 2, npoints)
        cols[0, rng.choice(late, 1)] = np.nan
        cols[1, rng.choice(late, 1)] = -np.inf
        cols[1, 0] = 1e300
        env = {"a": cols[0], "b": cols[1]}
        res = [Sym("a"), Num(-0.0), Sym("b")]
        ref = [Sym("b"), Num(2.5)]
        check = ResidualSup(Check("t", res, ref), None, np.zeros((npoints, 1)), None, 1e-8,
                            scratch(npoints))
        sups = [no_reference(npoints), no_reference(npoints)]
        values = Kept()
        reduce_fields([([res, ref], check), ([res, []], sups[0]), ([ref, []], sups[1]),
                       ([res, ref], values)], env, npoints)
        whole_res, whole_ref = values.finish()
        assert bits(whole_res) == bits(np.stack([cols[0], np.full(npoints, -0.0), cols[1]], 1))
        report = check.finish()
        want = reference_residual(whole_res, whole_ref)
        assert bits((report.abs_sup, report.rel_sup)) == bits(want[:2])
        assert (report.n_points, report.n_skipped) == want[2:]
        assert check.first_bad == reference_first_bad(whole_res)
        assert check.worst == reference_worst(whole_res, whole_ref)
        for acc, whole in zip(sups, (whole_res, whole_ref)):
            assert_sup_norm(acc, whole)

    @pytest.mark.parametrize("domain", [[1e308, 1e308, 1.0], [np.inf, -np.inf, 1.0],
                                        [1.0, 2.0, np.nan]])
    def test_the_domain_is_checked_without_a_warning(self, domain):
        # no sum over the domain: 1e308 + 1e308 overflows, inf - inf is invalid
        acc = ResidualSup(Check("t", [], []), None, np.zeros((3, 1)), None, 1e-8, scratch(3))
        acc.update(0, [np.array([1.0, 2.0, 3.0])], [np.ones(3)], [np.array(domain)])
        valid = np.isfinite(domain)
        assert (acc.n_valid, acc.first_bad) == (
            int(valid.sum()), None if valid.all() else int(np.argmin(valid)))

    def test_non_finite_is_skipped_across_chunks(self):
        acc = no_reference()
        for lo, chunk in ((0, [1.0, np.nan]), (2, [np.inf, 5.0]), (4, [-0.0])):
            acc.update(lo, [np.array(chunk)], [])
        assert bits(acc.abs_sup) == bits(5.0)
        assert (acc.n_valid, acc.n_points, acc.first_bad, acc.worst) == (3, 5, 1, 3)
        acc = no_reference()
        acc.update(0, [np.array([-0.0, -0.0])], [])
        acc.update(2, [np.array([-0.0])], [])
        assert bits(acc.abs_sup) == bits(0.0)
        assert (acc.first_bad, acc.worst) == (None, 0)


def finished(npoints):
    """The finish() results, as IEEE bits and flags, of every kind of
    accumulator fed sasakian3's fields in one plan over npoints points."""
    manifest = resolve_manifest("sasakian3")
    chart, metric = manifest.chart, manifest.metric
    f1, f2 = manifest.scalars["f1"], manifest.scalars["f2"]
    points = sample_points(chart, "uniform", npoints, 5)
    block = manifest.structure
    structure = assemble_structure(chart, metric, block["phi"], block["xi"], block["eta"],
                                   points=points)
    form = gradient_form(metric, f1, f2)
    check = build_soliton_check(metric, form, -1.0, 0.0, 1.0)
    # bare coordinates, a constant and a duplicate as roots, next to the metric
    coordinates = np.array([Sym("x"), Num(2.5), Sym("z"), Sym("x")], dtype=object)
    values, design = Kept(), FitQR(form)
    checks = [*ladder_checks(structure), ricci_reeb_check(structure), check]
    sups = reduce_checks(chart, checks, points, None, 1e-8,
                         [([coordinates, metric.comps], values),
                          (design_fields(metric, form), design)])
    reports, fit = [s.finish() for s in sups], design.finish()
    ladder = ladder_rows(structure, reports[:3], 1e-8, "half", npoints)
    return ([bits(v) for v in values.finish()],
            bits(list(structure.axiom_residuals.values())),
            [row.passed for row in ladder], bits([row.abs_sup for row in ladder]),
            [(bits([r.abs_sup, r.rel_sup]), r.n_points, r.n_skipped, s.worst)
             for r, s in zip(reports, sups)],
            bits(fit.solution), bits(fit.singular_values), bits(fit.null_space),
            (fit.rank, fit.n_points, fit.n_skipped))


@pytest.mark.parametrize("npoints", [CHUNK_POINTS - 1, CHUNK_POINTS, CHUNK_POINTS + 1,
                                     2 * CHUNK_POINTS + 3])
def test_accumulators_keep_no_chunk_array(npoints, monkeypatch):
    want = finished(npoints)
    monkeypatch.setattr(expr, "_bind", poisoning(expr._bind))
    assert finished(npoints) == want


@pytest.mark.parametrize("failing", ["phi_square", "reeb_normalisation"])
def test_the_gate_names_the_whole_array_worst_point(sasakian_geometry, failing):
    # the transposed phi fails phi_square by a finite amount that varies
    # with the point; eta_z = sqrt(y + 1.999)^2 / (y + 1.999) is NaN below
    # y = -1.999, first at point 8,466 of these; seed 22 is the first seed
    # whose worst points, for both axioms, lie past the first chunk edge
    chart, g = sasakian_geometry
    phi, eta = SASAKIAN_PHI, list(SASAKIAN_ETA)
    if failing == "phi_square":
        phi = [list(row) for row in zip(*phi)]
    else:
        eta[2] = "sqrt(y + 1.999)^2 / (y + 1.999)"
    npoints = 2 * CHUNK_POINTS + 3
    points = sample_points(chart, "uniform", npoints, 22)
    with pytest.raises(StructureError) as err:
        assemble_structure(chart, g, phi, SASAKIAN_XI, eta, points=points)
    assert err.value.axiom == failing
    fields = (TensorField(chart, "endo", [[as_scalar(e) for e in row] for row in phi]),
              vector_field(chart, SASAKIAN_XI), oneform_field(chart, eta))
    values = evaluate_many(_axiom_components(chart, g, *fields)[failing],
                           chart.env_at(points), npoints)
    worst = reference_worst_point(values)
    assert worst >= CHUNK_POINTS    # a point past the first chunk edge
    assert list(err.value.point) == list(points[worst])
    assert np.isnan(err.value.residual) == (failing == "reeb_normalisation")
