import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsoliton import expr
from grsoliton.cli import main
from grsoliton.expr import CHUNK_POINTS
from grsoliton.chart import (
    MARGIN,
    ChartError,
    MetricError,
    Sample,
    define_chart,
    define_metric,
    metric_inverse_at,
    sample_points,
    symbolic_inverse,
)
from grsoliton.contact import assemble_structure
from grsoliton.fit import fit_constants
from grsoliton.manifest import load_manifest
from grsoliton.soliton import Check, run_checks, vector_form
from grsoliton.tensors import TensorField, vector_field

from conftest import sasakian_family

P = "4*exp(y)/(16+exp(2*y))"
MINUS_Q = "exp(2*y)/(16+exp(2*y))"   # -q, also g_xz and eta_x
SASAKIAN_METRIC = [
    [f"({P})^2 + ({MINUS_Q})^2", "0", MINUS_Q],
    ["0", f"({P})^2", "0"],
    [MINUS_Q, "0", "1"],
]


@pytest.fixture
def hyperbolic():
    chart = define_chart(["x", "y"], {"y": (0, None)})
    return chart, define_metric(chart, [["1/y^2", "0"], ["0", "1/y^2"]])


@pytest.fixture
def cone():
    chart = define_chart(["x", "y", "z"], {"x": (0, None)})
    return chart, define_metric(chart, [["1", "0", "0"],
                                        ["0", "x^2", "0"],
                                        ["0", "0", "x^2"]])


@pytest.fixture
def sasakian():
    chart = define_chart(["x", "y", "z"], {"z": (0, math.pi)})
    return chart, define_metric(chart, SASAKIAN_METRIC)


class TestDefineChart:
    def test_hyperbolic_plane_chart(self):
        chart = define_chart(["x", "y"], {"y": (0, None)})
        assert chart.dim == 2
        assert chart.bounds[0] == (-math.inf, math.inf)
        assert chart.bounds[1] == (0.0, math.inf)

    def test_cone_chart(self):
        chart = define_chart(["x", "y", "z"], {"x": (0, None)})
        assert chart.dim == 3
        assert chart.bounds[0][0] == 0.0

    def test_band_chart(self):
        chart = define_chart(["x", "y", "z"], {"z": (0, math.pi)})
        assert chart.bounds[2] == (0.0, math.pi)

    def test_duplicate_name(self):
        with pytest.raises(ChartError):
            define_chart(["x", "x"])

    def test_inverted_bounds(self):
        with pytest.raises(ChartError):
            define_chart(["x"], {"x": (2, 1)})

    def test_reserved_names_rejected(self):
        with pytest.raises(ChartError):
            define_chart(["pi", "y"])
        with pytest.raises(ChartError):
            define_chart(["sin"])

    @pytest.mark.parametrize("name", ["é", "xé", "ｘ"])
    def test_a_name_the_parser_cannot_read_is_rejected(self, name):
        # str.isidentifier accepts these, but no expression could name them
        with pytest.raises(ChartError, match=re.escape(f"invalid coordinate name {name!r}")):
            define_chart([name, "y"])

    def test_empty(self):
        with pytest.raises(ChartError):
            define_chart([])

    def test_unknown_bound_name(self):
        with pytest.raises(ChartError):
            define_chart(["x"], {"w": (0, 1)})


class TestSamplePoints:
    def test_hyperbolic_uniform_box(self):
        chart = define_chart(["x", "y"], {"y": (0, None)})
        pts = sample_points(chart, "uniform", 10, seed=42)
        assert pts.shape == (10, 2)
        assert (pts[:, 0] >= -2).all() and (pts[:, 0] <= 2).all()
        assert (pts[:, 1] >= MARGIN).all() and (pts[:, 1] <= 2).all()

    def test_same_seed_identical(self):
        chart = define_chart(["x", "y"], {"y": (0, None)})
        a = sample_points(chart, "uniform", 25, seed=3)
        b = sample_points(chart, "uniform", 25, seed=3)
        assert np.array_equal(a, b)
        c = sample_points(chart, "uniform", 25, seed=4)
        assert not np.array_equal(a, c)

    def test_grid_27(self):
        chart = define_chart(["x", "y", "z"], {"z": (0, math.pi)})
        pts = sample_points(chart, "grid", 27)
        assert pts.shape == (27, 3)
        zs = np.unique(pts[:, 2])
        assert len(zs) == 3
        assert zs[0] >= MARGIN and zs[-1] <= math.pi - MARGIN

    def test_grid_non_cube_count(self):
        chart = define_chart(["x", "y"], {})
        pts = sample_points(chart, "grid", 10)
        assert pts.shape == (10, 2)

    def test_margin_respected_everywhere(self):
        chart = define_chart(["x", "y", "z"], {"x": (0, None), "z": (0, math.pi)})
        pts = sample_points(chart, "uniform", 500, seed=1)
        assert (pts[:, 0] >= MARGIN).all() and (pts[:, 0] <= 2).all()
        assert (pts[:, 2] >= MARGIN).all() and (pts[:, 2] <= math.pi - MARGIN).all()

    def test_empty_feasible_box(self):
        # the chart itself is rejected, before anything is sampled
        with pytest.raises(ChartError, match="empty feasible box for coordinate 'x'"):
            define_chart(["x"], {"x": (0, 1e-4)})

    def test_bad_count_and_strategy(self):
        chart = define_chart(["x"], {})
        with pytest.raises(ChartError):
            sample_points(chart, "uniform", 0)
        with pytest.raises(ChartError):
            sample_points(chart, "sobol", 5)


def splitmix64(seed, count):
    """The first count draws of SplitMix64 from seed, as floats in [0, 1):
    Python integers masked to 64 bits, independent of numpy."""
    mask, draws = 2 ** 64 - 1, []
    for k in range(count):
        x = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        x ^= x >> 31
        draws.append((x >> 11) * 2.0 ** -53)
    return draws


def whole_array_points(chart, strategy, count, seed):
    """The points as one (count, n) array, by the formulas that define
    them: lo + (hi - lo) * u for draw p n + j of SplitMix64, or the first
    count of the meshgrid lattice."""
    box = []
    for lo, hi in chart.bounds:
        lo_eff = lo + MARGIN if math.isfinite(lo) else -2.0
        hi_eff = hi - MARGIN if math.isfinite(hi) else (lo + 2.0 if math.isfinite(lo) else 2.0)
        box.append((lo_eff, hi_eff))
    n = chart.dim
    if strategy == "uniform":
        pts = np.array(splitmix64(seed, count * n)).reshape(count, n)
        pts *= [hi - lo for lo, hi in box]
        pts += [lo for lo, _ in box]
        return pts
    per_axis = 1
    while per_axis ** n < count:
        per_axis += 1
    mesh = np.meshgrid(*[np.linspace(lo, hi, per_axis) for lo, hi in box], indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)[:count]


class TestSample:
    CHART = define_chart(["x", "y", "z"], {"x": (0, None), "z": (0, math.pi)})

    @pytest.mark.parametrize("strategy", ["uniform", "grid"])
    @pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 16387])
    def test_blocks_and_points_match_the_whole_array(self, strategy, count):
        want = whole_array_points(self.CHART, strategy, count, 11)
        sample = Sample(self.CHART, strategy, count, 11)
        assert len(sample) == count
        whole = sample_points(self.CHART, strategy, count, 11)
        assert whole.shape == want.shape and whole.flags.c_contiguous
        assert whole.tobytes() == want.tobytes()
        # the plan's chunks, edges that split no chunk, and single points
        edges = sorted({*range(0, count, CHUNK_POINTS), count, count // 3, count // 2})
        blocks = [sample.block(lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        for index in {0, count // 2, count - 1, min(CHUNK_POINTS, count - 1)}:
            assert sample[index].tobytes() == want[index].tobytes()

    @pytest.mark.parametrize("strategy", ["uniform", "grid"])
    def test_columns_fill_each_coordinate_of_a_chunk(self, strategy):
        count = CHUNK_POINTS + 5
        sample = Sample(self.CHART, strategy, count, 3)
        want = whole_array_points(self.CHART, strategy, count, 3)
        columns = sample.columns()
        assert list(columns) == ["x", "y", "z"]
        for lo, hi in ((0, CHUNK_POINTS), (CHUNK_POINTS, count), (0, CHUNK_POINTS)):
            for axis in (2, 0, 1):
                out = np.empty(hi - lo)
                columns[self.CHART.names[axis]](lo, hi, out)
                assert out.tobytes() == want[lo:hi, axis].tobytes()

    @pytest.mark.parametrize("strategy", ["uniform", "grid"])
    @pytest.mark.parametrize("count", [1, 8191, 8192, 8193, 16387])
    def test_fill_writes_a_column_of_the_whole_array(self, strategy, count):
        want = whole_array_points(self.CHART, strategy, count, 11)
        sample = Sample(self.CHART, strategy, count, 11)
        for axis in (1, 2, 0):
            out = np.full(count, np.nan)
            sample.fill(axis, 0, count, out)
            assert out.tobytes() == want[:, axis].tobytes()

    @pytest.mark.parametrize("strategy", ["uniform", "grid"])
    def test_filling_a_chunk_holds_no_block(self, strategy):
        # each coordinate is drawn straight into its buffer, with at most a
        # chunk-long scratch and numpy's cast buffer beside it, and nothing
        # is kept between calls; a (chunk, 5) block with its two uint64
        # copies came to about 1 MB, and the block outlived the chunk
        chart = define_chart([f"x{i}" for i in range(5)])
        columns = Sample(chart, strategy, 3 * CHUNK_POINTS, 5).columns()
        outs = [np.empty(CHUNK_POINTS) for _ in columns]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for fill, out in zip(columns.values(), outs):
                fill(CHUNK_POINTS, 2 * CHUNK_POINTS, out)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 3 * 8 * CHUNK_POINTS
        assert after - before < 1024        # tracemalloc's own bookkeeping

    @pytest.mark.parametrize("n, count, per_axis", [
        (3, 26, 3), (3, 27, 3), (3, 28, 4),
        (1, 10 ** 6, 10 ** 6), (1, 10 ** 6 + 1, 10 ** 6 + 1),
        (2, 10 ** 6, 1000), (2, 10 ** 6 + 1, 1001),
        (3, 10 ** 6, 100), (3, 10 ** 6 + 1, 101),
        (6, 10 ** 6, 10), (6, 10 ** 6 + 1, 11)])
    def test_a_grid_takes_the_smallest_lattice(self, n, count, per_axis):
        chart = define_chart([f"x{i}" for i in range(n)])
        assert Sample(chart, "grid", count).per_axis == per_axis

    def test_a_grid_is_set_up_without_its_lattice(self):
        # per_axis comes from a root and fill computes each coordinate, so
        # a grid of 10^6 points holds no array; it held the 8 MB linspace
        # of its one axis
        chart = define_chart(["x"])
        tracemalloc.start()
        try:
            sample = Sample(chart, "grid", 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.per_axis == 10 ** 6
        assert peak < 64 * 1024

    @pytest.mark.parametrize("names, count", [(["x"], 2 * CHUNK_POINTS + 1),
                                              (["x", "z"], 91 ** 2)])
    def test_grid_blocks_are_the_linspace_lattice_at_the_chunk_edges(self, names, count):
        # the plan's chunks, ceil(count / 8192) of one width: the lattice's
        # last index, which linspace sets to hi itself, falls at their edges
        bounds = {"x": (0, None), "z": (0, math.pi)}
        chart = define_chart(names, {name: bounds[name] for name in names})
        want = whole_array_points(chart, "grid", count, 0)
        sample = Sample(chart, "grid", count)
        width = -(-count // -(-count // CHUNK_POINTS))
        edges = [*range(0, count, width), count]
        blocks = [sample.block(lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert np.concatenate(blocks).tobytes() == want.tobytes()
        assert list(sample[count - 1]) == [2.0, math.pi - MARGIN][:len(names)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.none() | st.floats(-1e6, 1e6), st.none() | st.floats(3e-3, 1e6)),
                    min_size=1, max_size=4),
           st.integers(1, 3000))
    def test_a_grid_is_the_linspace_lattice_of_any_box(self, spans, count):
        # each span is (lo, width), None for an unbounded side
        bounds = {f"x{i}": (lo, None if width is None else (lo or 0.0) + width)
                  for i, (lo, width) in enumerate(spans)}
        chart = define_chart(list(bounds), bounds)
        want = whole_array_points(chart, "grid", count, 0)
        assert sample_points(chart, "grid", count).tobytes() == want.tobytes()

    def test_splitmix64_reads_its_published_first_draw(self):
        # SplitMix64 from state 1234567 first outputs 6457827717110365317
        assert splitmix64(1234567, 1) == [(6457827717110365317 >> 11) * 2.0 ** -53]

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 64 - 1])
    def test_the_draws_are_uniform_on_each_axis(self, seed):
        # 5 sigma of the mean and of the variance of 10^5 uniform draws:
        # var(u) = 1/12 and var((u - 1/2)^2) = 1/80 - 1/144 = 1/180
        count = 10 ** 5
        u = (sample_points(define_chart(["x", "y", "z"]), "uniform", count, seed) + 2.0) / 4.0
        assert np.all(abs(u.mean(axis=0) - 1 / 2) <= 5 * math.sqrt(1 / 12 / count))
        assert np.all(abs(u.var(axis=0) - 1 / 12) <= 5 * math.sqrt(1 / 180 / count))

    def test_a_bad_seed_fails_where_the_points_are_asked_for(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                Sample(self.CHART, "uniform", 5, seed)


class TestPointArrays:
    """Points given as an array must be (npoints, n) with npoints >= 1,
    wherever they enter; one point may be given flat."""

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (0, 3)])
    def test_an_array_that_does_not_fit_the_chart_is_a_chart_error(self, euclidean_space,
                                                                    shape):
        chart, g = euclidean_space
        points = np.full(shape, 0.5)
        form = vector_form(g, vector_field(chart, ["x", "y", "z"]),
                           vector_field(chart, ["0", "0", "0"]))
        calls = [
            lambda: run_checks(chart, [Check("t", [expr.parse("x*z")], [])], points, None, 1e-8),
            lambda: fit_constants(g, form, points),
            lambda: assemble_structure(chart, g, [["0", "-1", "0"], ["1", "0", "0"],
                                                  ["0", "0", "0"]], ["0", "0", "1"],
                                       ["0", "0", "1"], points=points),
            lambda: g.evaluate_at(points),
        ]
        for call in calls:
            with pytest.raises(ChartError, match=re.escape(f"got shape {shape}")):
                call()

    def test_a_flat_array_is_one_point(self, euclidean_space):
        chart, g = euclidean_space
        [report] = run_checks(chart, [Check("t", [expr.parse("x*z")], [])], [0.1, 0.2, 0.3],
                              None, 1e-8)
        assert (report.n_points, report.abs_sup) == (1, 0.1 * 0.3)
        assert g.evaluate_at([0.1, 0.2, 0.3]).shape == (1, 3, 3)
        line = define_chart(["x"])
        metric = define_metric(line, [["1 + x^2"]])
        with pytest.raises(ChartError, match=re.escape("got shape (1, 3)")):
            metric.evaluate_at([0.1, 0.2, 0.3])
        assert metric.evaluate_at([[0.1], [0.2], [0.3]]).shape == (3, 1, 1)


class TestDefineMetric:
    def test_hyperbolic_accepted(self, hyperbolic):
        _, g = hyperbolic
        assert g.dim == 2

    def test_a_metric_is_a_sym2_tensor_field(self, sasakian):
        chart, g = sasakian
        assert isinstance(g, TensorField)
        assert (g.chart, g.valence, g.comps.shape) == (chart, "sym2", (3, 3))
        for i, j in np.ndindex(3, 3):
            assert g[i, j] is g.comps[i, j]

    def test_sasakian_accepted_with_quartic_determinant(self, sasakian):
        chart, g = sasakian
        # det = p^4, the product of the pivots p^2 + q^2, p^2 and
        # p^2 / (p^2 + q^2); at y = 0, p = 4/17
        at0 = expr.evaluate(g.det, {"x": 0.1, "y": 0.0, "z": 1.0})
        assert at0 == pytest.approx((4 / 17) ** 4, rel=1e-13)
        pts = sample_points(chart, "uniform", 50, seed=2)
        det_vals = [expr.evaluate(g.det, dict(zip(chart.names, map(float, pt))))
                    for pt in pts]
        p_vals = [expr.evaluate(expr.parse(P), {"y": float(pt[1])}) for pt in pts]
        assert np.allclose(det_vals, np.array(p_vals) ** 4, rtol=1e-12)

    def test_asymmetric_rejected(self):
        chart = define_chart(["x", "y"], {"y": (0, None)})
        with pytest.raises(MetricError, match="asymmetric"):
            define_metric(chart, [["1/y^2", "x"], ["0", "1/y^2"]])

    @pytest.mark.parametrize("rows", [
        [["4e6", "1e6"], ["1e6*(1 + 1e-6)", "4e6"]],    # 1e-6 relative to large entries
        [["2", "0.5"], ["0.5 + 1e-11", "2"]],            # 1e-11 absolute on O(1) ones
    ])
    def test_asymmetry_is_measured_against_the_entries(self, rows, capsys):
        doc = {"chart": {"coords": ["x", "y"]}, "metric": rows}
        assert main(["check-soliton", "--manifest", json.dumps(doc)]) == 2
        assert "asymmetric" in capsys.readouterr().err

    def test_wrong_shape(self):
        chart = define_chart(["x", "y"], {})
        with pytest.raises(MetricError):
            define_metric(chart, [["1", "0"]])

    def test_not_positive_definite(self):
        chart = define_chart(["x", "y"], {})
        with pytest.raises(MetricError, match="positive definite"):
            define_metric(chart, [["1", "0"], ["0", "-1"]])

    def test_singular_rejected(self):
        chart = define_chart(["x", "y"], {"y": (0, None)})
        with pytest.raises(MetricError):
            define_metric(chart, [["y", "y"], ["y", "y"]])

    def test_unknown_symbol_rejected(self):
        chart = define_chart(["x", "y"], {})
        with pytest.raises(MetricError, match="unknown symbols"):
            define_metric(chart, [["1", "0"], ["0", "w^2"]])
        # checked as the entry spells it: the folded entry is 0
        with pytest.raises(MetricError, match=r"unknown symbols \['w'\]"):
            define_metric(chart, [["1", "0*w"], ["0*w", "1"]])

    def test_parameters_allowed(self):
        chart = define_chart(["x", "y"], {})
        g = define_metric(chart, [["k", "0"], ["0", "k"]], params={"k": 2.0})
        assert g.evaluate_at([[0.0, 0.0]], {"k": 2.0})[0][0, 0] == 2.0


class TestMetricInverse:
    def test_hyperbolic_diagonal_reciprocal(self, hyperbolic):
        _, g = hyperbolic
        inv = metric_inverse_at(g, [0.3, 2.0])
        assert np.allclose(inv, np.diag([4.0, 4.0]), atol=1e-14)

    def test_cone_diagonal_reciprocal(self, cone):
        _, g = cone
        inv = metric_inverse_at(g, [2.0, 0.5, 0.5])
        assert np.allclose(inv, np.diag([1.0, 0.25, 0.25]), atol=1e-14)

    def test_sasakian_inverse_xx(self, sasakian):
        _, g = sasakian
        inv = metric_inverse_at(g, [0.2, 0.0, 1.0])
        assert inv[0, 0] == pytest.approx(289 / 16, rel=1e-12)

    @pytest.mark.parametrize("fixture", ["hyperbolic", "cone", "sasakian"])
    def test_symbolic_inverse_identity(self, fixture, request):
        chart, g = request.getfixturevalue(fixture)
        pts = sample_points(chart, "uniform", 100, seed=11)
        gv = g.evaluate_at(pts)
        iv = expr.evaluate_many(g.inverse, chart.env_at(pts), len(pts))
        eye = np.broadcast_to(np.eye(chart.dim), gv.shape)
        assert np.abs(gv @ iv - eye).max() <= 1e-12

    def test_numeric_matches_symbolic(self, sasakian):
        chart, g = sasakian
        pt = [0.4, -0.7, 2.0]
        assert np.allclose(metric_inverse_at(g, pt),
                           expr.evaluate_many(g.inverse, chart.env_at([pt]), 1)[0], atol=1e-13)

    @pytest.mark.parametrize("a", [1000, 1e4])
    def test_a_well_conditioned_deformation_inverts(self, a):
        # cond(g) is 1.2e3 to 7.5e4 at these points at a = 1000, ten times
        # that at 1e4, and |g g^-1 - I| grows with it: an absolute 1e-12
        # on it rejected 13 and 153 of them
        manifest = load_manifest(sasakian_family(2, a))
        for point in sample_points(manifest.chart, "uniform", 200, seed=3):
            g = manifest.metric.evaluate_at([point])[0]
            assert np.abs(g @ metric_inverse_at(manifest.metric, point) - np.eye(5)).max() < 1e-9

    @pytest.mark.parametrize("x", [0.0, 1e-9])
    def test_a_singular_or_ill_conditioned_metric_raises(self, x):
        # cond diag(x^2, 1) = 1e18 at x = 1e-9, whose inverse was returned
        chart = define_chart(["x", "y"], {})
        g = define_metric(chart, [["x^2", "0"], ["0", "1"]])
        with pytest.raises(MetricError, match="singular"):
            metric_inverse_at(g, [x, 0.0])

    def test_a_conditioned_diagonal_inverts(self):
        chart = define_chart(["x", "y"], {})
        g = define_metric(chart, [["x^2", "0"], ["0", "1"]])
        assert metric_inverse_at(g, [1e-3, 0.0]) == pytest.approx(np.diag([1e6, 1.0]),
                                                                   rel=1e-12)


def test_symbolic_determinant_small_cases():
    two = [[expr.parse("a"), expr.parse("b")], [expr.parse("c"), expr.parse("d")]]
    _, det = symbolic_inverse(two)
    env = {"a": 2.0, "b": 3.0, "c": 5.0, "d": 7.0}
    assert expr.evaluate(det, env) == 2 * 7 - 3 * 5
    one = [[expr.parse("a")]]
    assert expr.evaluate(symbolic_inverse(one)[1], env) == 2.0


@st.composite
def dense_metrics(draw):
    """(n, rows) of a dense polynomial metric on x0..x(n-1), n = 1..6:
    g_ii = 2 + x_i^2 + k x_(i-1)^2 / 16 and g_ij = c x_i x_j + e x_m + 1/8
    with 0 <= k <= 8 and |c|, |e| <= 1/16, so every entry is non-zero and
    g is diagonally dominant, hence positive definite, on [-1, 1]^n."""
    n = draw(st.integers(1, 6))
    x = [f"x{i}" for i in range(n)]
    sixteenths = st.integers(-1, 1).map(lambda k: f"({k}/16)")
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = f"2 + {x[i]}^2 + ({draw(st.integers(0, 8))}/16)*{x[i - 1]}^2"
        for j in range(i):
            m = draw(st.integers(0, n - 1))
            rows[i][j] = rows[j][i] = (f"{draw(sixteenths)}*{x[i]}*{x[j]}"
                                       f" + {draw(sixteenths)}*{x[m]} + 1/8")
    return n, rows


@settings(max_examples=60, deadline=None)
@given(dense_metrics(), st.integers(0, 2**32 - 1))
def test_symbolic_inverse_matches_numpy(metric, seed):
    # an oracle independent of how the inverse is built: numpy's LU at
    # each point, to within the rounding that cond(g) allows
    n, rows = metric
    matrix = [[expr.parse(entry) for entry in row] for row in rows]
    inverse, det = symbolic_inverse(matrix)
    points = np.random.default_rng(seed).uniform(-1, 1, (5, n))
    env = {f"x{i}": points[:, i] for i in range(n)}
    g = expr.evaluate_many(matrix, env, len(points))
    inv = expr.evaluate_many(inverse, env, len(points))
    dets = expr.evaluate_many([det], env, len(points))[:, 0]
    for k in range(len(points)):
        expected = np.linalg.inv(g[k])
        bound = 1e-12 * np.linalg.cond(g[k]) * np.abs(expected).max()
        assert np.abs(inv[k] - expected).max() <= bound
    expected = np.linalg.det(g)
    assert (np.abs(dets - expected) <= 1e-12 * np.abs(expected)).all()


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_the_family_inverts(m):
    # n = 3, 5, 9 and 13, one metric each: a build that grows
    # exponentially in n, as cofactor expansion did, takes about 0.8 s at 13
    manifest = load_manifest(sasakian_family(m))
    chart, g = manifest.chart, manifest.metric
    pts = sample_points(chart, "uniform", 100, seed=5)
    gv = g.evaluate_at(pts)
    iv = expr.evaluate_many(g.inverse, chart.env_at(pts), len(pts))
    eye = np.broadcast_to(np.eye(chart.dim), gv.shape)
    assert np.abs(gv @ iv - eye).max() <= 1e-12


def standard_sasakian_metric(m):
    """g = eta (x) eta + (1/4) sum(dx_i^2 + dy_i^2) with eta = (dz - sum y_i dx_i)/2,
    the standard Sasakian metric on R^(2m+1) (Blair, Riemannian Geometry of
    Contact and Symplectic Manifolds), in coordinates x_1..x_m, y_1..y_m, z."""
    names = [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(1, m + 1)] + ["z"]
    eta = [f"(-y{i}/2)" for i in range(1, m + 1)] + ["0"] * m + ["(1/2)"]
    rows = [[f"{a}*{b}" + (" + 1/4" if i == j and i < 2 * m else "")
             for j, b in enumerate(eta)] for i, a in enumerate(eta)]
    return define_chart(names), rows


def test_symbolic_inverse_grows_polynomially():
    # Gauss-Jordan elimination builds O(n^3) nodes at most: at n = 13 the
    # inverse and det of the family reach 727 distinct nodes, where cofactor
    # expansion, whose minors grow as 2^n, reached 4,787
    matrix = [list(row) for row in load_manifest(sasakian_family(6)).metric.comps]
    inverse, det = symbolic_inverse(matrix)
    nodes, stack = set(), [*(e for row in inverse for e in row), det]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes.add(id(node))
            stack += [getattr(node, a) for a in ("arg", "left", "right") if hasattr(node, a)]
    assert len(nodes) <= 1000


def test_symbolic_inverse_at_dimension_nine():
    chart, rows = standard_sasakian_metric(4)
    g = define_metric(chart, rows)
    pts = sample_points(chart, "uniform", 100, seed=12)
    gv = g.evaluate_at(pts)
    iv = expr.evaluate_many(g.inverse, chart.env_at(pts), len(pts))
    eye = np.broadcast_to(np.eye(chart.dim), gv.shape)
    assert np.abs(gv @ iv - eye).max() <= 1e-12
