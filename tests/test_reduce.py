"""The reducers against the formulas they replaced, bit for bit.

residual_report, sup_norm, the axiom gate's worst point and fit_design
read evaluated fields without masked copies.  Each is compared here with
the plain masked-copy formula, kept below as the reference, on fields
that come out of evaluate_fields (so they have its component-major
layout and cross its chunk edges) and on C-ordered copies of them.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsoliton.chart import evaluate_fields, pointwise_sup, sup_norm
from grsoliton.contact import _worst_point
from grsoliton.expr import CHUNK_POINTS, Num, Sym
from grsoliton.fit import CONSTANT_ORDER, RANK_THRESHOLD, TooFewPointsError, fit_design
from grsoliton.soliton import Check, residual_report

SHAPES = {1: [(1,), ()], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 6: [(6,), (2, 3)],
          8: [(8,), (2, 2, 2)], 9: [(9,), (3, 3)]}
SPECIALS = (np.nan, np.inf, -np.inf)


def reference_residual(res, ref):
    """(abs_sup, rel_sup, n_points, n_skipped) as masked copies give them."""
    npoints = len(res)
    res_flat = res.reshape(npoints, -1)
    ref_flat = ref.reshape(npoints, -1)
    valid = np.isfinite(res_flat).all(axis=1) & np.isfinite(ref_flat).all(axis=1)
    abs_sup = float(np.abs(res_flat[valid]).max())
    scale = max(1.0, float(np.abs(ref_flat[valid]).max()))
    return abs_sup, abs_sup / scale, int(valid.sum()), int((~valid).sum())


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
    validity = draw(st.sampled_from(["all", "some", "three"]))
    return draw(st.integers(0, 2 ** 32 - 1)), npoints, shapes, validity


def evaluated(seed, npoints, shapes, validity):
    """Fields of the given shapes, evaluated through evaluate_fields.

    Components are columns of random values with zeros and -0.0 mixed in;
    some repeat an earlier column or are a constant, so that the plan's
    shared and point-independent roots are read too.  Non-finite values
    are placed so that every point, some points or exactly three points
    stay valid.
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
