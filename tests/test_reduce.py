"""The reducers against the formulas they replaced, bit for bit.

residual_report, sup_norm, the axiom gate's worst point and fit_design
read evaluated fields without masked copies.  Each is compared here with
the plain masked-copy formula, kept below as the reference, on fields
that come out of evaluate_fields (so they have its component-major
layout and cross its chunk edges) and on C-ordered copies of them.  The
accumulators behind them (ResidualSup, SupNorms, FieldValues) are also
fed the same fields in random chunkings, as the evaluation plan feeds
them, and must give the whole-array results.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsoliton.chart import (
    FieldValues,
    SupNorms,
    evaluate_fields,
    field_components,
    pointwise_sup,
    reduce_fields,
    sup_norm,
)
from grsoliton.contact import _worst_point
from grsoliton.expr import CHUNK_POINTS, Num, Sym
from grsoliton.fit import CONSTANT_ORDER, RANK_THRESHOLD, TooFewPointsError, fit_design
from grsoliton.soliton import Check, ResidualSup, residual_report

SHAPES = {1: [(1,), ()], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 6: [(6,), (2, 3)],
          8: [(8,), (2, 2, 2)], 9: [(9,), (3, 3)]}
SPECIALS = (np.nan, np.inf, -np.inf)


def reference_residual(res, ref, domain=None):
    """(abs_sup, rel_sup, n_points, n_skipped) as masked copies give them."""
    npoints = len(res)
    res_flat = res.reshape(npoints, -1)
    ref_flat = ref.reshape(npoints, -1)
    valid = np.isfinite(res_flat).all(axis=1) & np.isfinite(ref_flat).all(axis=1)
    if domain is not None:
        valid &= np.isfinite(domain.reshape(npoints, -1)).all(axis=1)
    abs_sup = float(np.abs(res_flat[valid]).max())
    scale = max(1.0, float(np.abs(ref_flat[valid]).max()))
    return abs_sup, abs_sup / scale, int(valid.sum()), int((~valid).sum())


def reference_first_bad(res, domain=None):
    """The first point where the residual or the domain is non-finite."""
    defined = np.isfinite(res.reshape(len(res), -1)).all(axis=1)
    if domain is not None:
        defined &= np.isfinite(domain.reshape(len(domain), -1)).all(axis=1)
    return None if defined.all() else int(np.argmin(defined))


def reference_sup_norm(values):
    return float(np.abs(values).max())


def reference_worst_point(values):
    flat = np.abs(values).reshape(len(values), -1).max(axis=1)
    bad = ~np.isfinite(flat)
    return int(np.argmax(bad if bad.any() else flat))


def reference_fit(values, fixed):
    """The fit from masked copies of every block and column_stack."""
    free_names = tuple(n for n in CONSTANT_ORDER if n not in fixed)
    flat = [v.reshape(len(v), -1) for v in values]
    valid = np.logical_and.reduce([np.isfinite(f).all(axis=1) for f in flat])
    blocks = dict(zip(CONSTANT_ORDER, flat))
    rows = np.column_stack([blocks[name][valid].reshape(-1) for name in free_names])
    b = flat[-1][valid].reshape(-1)
    for name, value in fixed.items():
        b = b - float(value) * blocks[name][valid].reshape(-1)
    normal = rows.T @ rows
    rhs = rows.T @ b
    sigma, basis = np.linalg.eigh(normal)
    sigma = np.clip(sigma, 0.0, None)
    cutoff = RANK_THRESHOLD * sigma.max() if sigma.max() > 0 else np.inf
    keep = sigma > cutoff
    rank = int(keep.sum())
    solution = np.zeros(len(free_names))
    for lam_val, vec in zip(sigma[keep], basis.T[keep]):
        solution += (vec @ rhs) / lam_val * vec
    residual_sup = float(np.abs(rows @ solution - b).max()) if rank else \
        float(np.abs(b).max())
    return {"solution": solution, "rank": rank, "null_space": basis[:, ~keep],
            "residual_sup": residual_sup, "singular_values": sigma[::-1].copy(),
            "free_names": free_names, "target_sup": float(np.abs(b).max()),
            "n_points": int(valid.sum()), "n_skipped": int((~valid).sum())}


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
    """Fields of the given shapes, evaluated through evaluate_fields.

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
    return list(evaluate_fields(fields, env, npoints))


def layouts(values):
    """The evaluate_fields layout and a C-ordered copy of it."""
    yield values
    yield [np.ascontiguousarray(v) for v in values]


class TestResidualReport:
    @settings(max_examples=60, deadline=None)
    @given(case=cases(2))
    def test_matches_masked_copies(self, case):
        seed, npoints, shapes, validity = case
        for res, ref in layouts(evaluated(seed, npoints, shapes, validity)):
            report = residual_report(Check("t", [], []), res, ref, None,
                                     np.zeros((npoints, 1)), None, 1e-8)
            got = (report.abs_sup, report.rel_sup, report.n_points, report.n_skipped)
            want = reference_residual(res, ref)
            assert bits(got[:2]) == bits(want[:2])
            assert got[2:] == want[2:]
            if validity == "three":
                assert report.n_points == 3


class TestSupNorm:
    @settings(max_examples=60, deadline=None)
    @given(case=cases(1))
    def test_matches_abs_max(self, case):
        seed, npoints, shapes, validity = case
        for (values,) in layouts(evaluated(seed, npoints, shapes, validity)):
            assert bits(sup_norm(values)) == bits(reference_sup_norm(values))
            assert _worst_point(values) == reference_worst_point(values)
            want = np.abs(values.reshape(npoints, -1)).max(axis=1)
            assert bits(pointwise_sup(values)) == bits(want)

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    def test_zero_is_positive(self, values):
        assert bits(sup_norm(np.array(values))) == bits(0.0)

    @pytest.mark.parametrize("special", SPECIALS)
    def test_non_finite_propagates(self, special):
        values = np.array([[1.0, -2.0], [special, 0.0], [3.0, -0.0]])
        assert bits(sup_norm(values)) == bits(reference_sup_norm(values))
        assert bits(sup_norm(values.T)) == bits(reference_sup_norm(values))


class TestFitDesign:
    @settings(max_examples=40, deadline=None)
    @given(case=cases(1), fixed=st.sampled_from([{}, {"lambda": 1.5},
                                                 {"c1": -1.0, "c2": 0.5}, {"c2": 0.0}]))
    def test_matches_column_stack(self, case, fixed):
        seed, npoints, (shape,), validity = case
        shapes = [(int(np.prod(shape)),)] * 4
        for values in layouts(evaluated(seed, npoints, shapes, validity)):
            fit = fit_design(values, fixed)
            want = reference_fit(values, fixed)
            for key, expected in want.items():
                got = getattr(fit, key)
                if isinstance(expected, (tuple, int)):
                    assert got == expected, key
                else:
                    assert bits(got) == bits(expected), key
            if validity == "three":
                assert fit.n_points == 3

    @pytest.mark.parametrize("npoints, n_valid", [(200, 0), (200, 1), (200, 2), (2, 2)])
    def test_too_few_points_name_the_valid_ones(self, npoints, n_valid):
        values = [np.ones((npoints, 3)) for _ in range(4)]
        values[1][n_valid:, 2] = np.nan
        with pytest.raises(TooFewPointsError) as err:
            fit_design(values)
        assert list(err.value.valid) == [True] * n_valid + [False] * (npoints - n_valid)
        assert isinstance(err.value, ValueError)


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


def feed(accumulator, fields, edges):
    """Feed accumulator the fields chunk by chunk, as the plan does: one
    list of (hi - lo,) component chunks per field."""
    components = [field_components(f) for f in fields]
    for lo, hi in zip(edges, edges[1:]):
        accumulator.update(lo, *[[c[lo:hi] for c in comps] for comps in components])
    return accumulator


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
                               1e-8), fields, edges)
        report = acc.finish()
        want = reference_residual(res, ref, domain)
        assert bits((report.abs_sup, report.rel_sup)) == bits(want[:2])
        assert (report.n_points, report.n_skipped) == want[2:]
        assert acc.first_bad == reference_first_bad(res, domain)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=cases(2))
    def test_sup_norms_match_whole_arrays(self, data, case):
        seed, npoints, shapes, validity = case
        fields = evaluated(seed, npoints, shapes, validity)
        edges = data.draw(chunkings(npoints))
        got = feed(SupNorms(len(fields)), fields, edges).finish()
        assert bits(got) == bits([reference_sup_norm(f) for f in fields])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), case=cases(2))
    def test_field_values_match_whole_arrays(self, data, case):
        seed, npoints, shapes, validity = case
        fields = evaluated(seed, npoints, shapes, validity)
        edges = data.draw(chunkings(npoints))
        got = feed(FieldValues([f.shape[1:] for f in fields], npoints), fields, edges)
        for mine, want in zip(got.finish(), fields):
            assert mine.shape == want.shape
            assert bits(mine) == bits(want)

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
        check = ResidualSup(Check("t", res, ref), None, np.zeros((npoints, 1)), None, 1e-8)
        sups = SupNorms(2)
        values = FieldValues([(3,), (2,)], npoints)
        reduce_fields([([res, ref], check), ([res, ref], sups), ([res, ref], values)],
                      env, npoints)
        whole_res, whole_ref = values.finish()
        assert bits(whole_res) == bits(np.stack([cols[0], np.full(npoints, -0.0), cols[1]], 1))
        report = check.finish()
        want = reference_residual(whole_res, whole_ref)
        assert bits((report.abs_sup, report.rel_sup)) == bits(want[:2])
        assert (report.n_points, report.n_skipped) == want[2:]
        assert check.first_bad == reference_first_bad(whole_res)
        assert bits(sups.finish()) == bits([np.nan, np.inf])

    def test_non_finite_sup_sticks_across_chunks(self):
        sups = SupNorms(1)
        for chunk in ([np.array([1.0, np.nan])], [np.array([np.inf, 5.0])],
                      [np.array([-0.0])]):
            sups.update(0, chunk)
        assert bits(sups.finish()) == bits([np.nan])
        sups = SupNorms(1)
        sups.update(0, [np.array([-0.0, -0.0])])
        sups.update(2, [np.array([-0.0])])
        assert bits(sups.finish()) == bits([0.0])
