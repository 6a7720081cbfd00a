"""The evaluation plan: structural deduplication, chunking, one plan per run."""

import gc
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import grsoliton
from grsoliton import expr, fit, runner
from grsoliton.chart import sample_points
from grsoliton.cli import main
from grsoliton.contact import assemble_structure
from grsoliton.expr import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Sym,
    evaluate_many_multi,
)
from grsoliton.fit import fit_constants
from grsoliton.manifest import BUNDLED_NAMES, load_manifest, resolve_manifest
from grsoliton.soliton import (
    build_soliton_check,
    build_theorem_checks,
    gradient_form,
)
from grsoliton.tensors import riemann

from conftest import (
    SASAKIAN_ETA,
    SASAKIAN_PHI,
    SASAKIAN_XI,
    poisoning,
    report_of,
    structural_classes,
)

_NUMPY_CALLS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos,
                "tan": np.tan, "sqrt": np.sqrt}
_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide,
           Pow: np.power}
NUMBERS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, -2.5)
KINDS = ("clone", "neg", "call") + tuple(_BINARY)


def reference_evaluate(root, env, size):
    """Whole-array evaluation of one root, sharing only identical objects."""
    memo = {}

    def ev(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, Num):
            out = node.value
        elif isinstance(node, Sym):
            out = env[node.name]
        elif isinstance(node, Neg):
            out = -ev(node.arg)
        elif isinstance(node, Call) and node.func == "cot":
            out = np.divide(np.cos(ev(node.arg)), np.sin(ev(node.arg)))
        elif isinstance(node, Call):
            out = _NUMPY_CALLS[node.func](ev(node.arg))
        else:
            out = _BINARY[type(node)](ev(node.left), ev(node.right))
        memo[id(node)] = out
        return out

    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(ev(root), dtype=float), (size,))


def clone(node):
    """The node rebuilt by new constructor calls (interned: the same object)."""
    if isinstance(node, Num):
        return Num(node.value)
    if isinstance(node, Sym):
        return Sym(node.name)
    if isinstance(node, Neg):
        return Neg(clone(node.arg))
    if isinstance(node, Call):
        return Call(node.func, clone(node.arg))
    return type(node)(clone(node.left), clone(node.right))


@st.composite
def dags(draw):
    """Roots over x, y (point columns) and a (a scalar parameter) that share
    subtrees and rebuild some of them as structural duplicates."""
    pool = [Sym("x"), Sym("y"), Sym("a")]
    pool += [Num(v) for v in draw(st.lists(st.sampled_from(NUMBERS), min_size=1,
                                           max_size=4))]
    for _ in range(draw(st.integers(1, 30))):
        def pick():
            return pool[draw(st.integers(0, len(pool) - 1))]
        kind = draw(st.sampled_from(KINDS))
        if kind == "clone":
            pool.append(clone(pick()))
        elif kind == "neg":
            pool.append(Neg(pick()))
        elif kind == "call":
            pool.append(Call(draw(st.sampled_from(FUNCTIONS)), pick()))
        else:
            pool.append(kind(pick(), pick()))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [pool[i] for i in picks]


def collected(roots, env, size):
    """Each root's values, one (size,) array per root, gathered chunk by
    chunk from the plan's sink."""
    out = np.empty((len(roots), size))

    def sink(lo, hi, values):
        out[:, lo:hi] = values

    evaluate_many_multi(roots, env, size, [(len(roots), sink)])
    return list(out)


def same_bits(a, b):
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (np.array_equal(nan_a, nan_b)
            and np.array_equal(a[~nan_a].view(np.uint64), b[~nan_b].view(np.uint64)))


def point_env(size, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-3.0, 3.0, (size, 2))
    points[::7, 0] = 0.0
    points[3::11, 1] = -0.0
    return {"x": points[:, 0], "y": points[:, 1], "a": 0.75}


X, Y, A = Sym("x"), Sym("y"), Sym("a")
SUM = Add(X, Y)


class TestPlan:
    @pytest.mark.parametrize("size", [1, 8191, 8192, 8193, 16387])
    @settings(max_examples=25, deadline=None)
    @given(roots=dags())
    # the buffer pool's aliasing: a step that writes over the argument it
    # is the last to read (twice over, and under cot), a bare coordinate,
    # duplicate roots, a root that a later step reads, and a root that
    # does not depend on the point
    @example(roots=[X, Y, Add(Mul(X, Y), Mul(SUM, SUM))])
    @example(roots=[Call("cot", SUM), Sub(Call("cot", X), X)])
    @example(roots=[X, Mul(X, Y)])
    @example(roots=[SUM, Call("sin", Y), SUM])
    @example(roots=[Call("sin", X), Mul(Call("sin", X), Y), Neg(Mul(Call("sin", X), Y))])
    @example(roots=[Add(A, Num(1.0)), Mul(X, Add(A, Num(1.0))), Num(-0.0)])
    def test_matches_reference_bit_for_bit(self, size, roots):
        env = point_env(size)
        got = collected(roots, env, size)
        assert len(got) == len(roots)
        for root, values in zip(roots, got):
            assert values.shape == (size,)
            assert same_bits(values, reference_evaluate(root, env, size)), expr.render(root)

    @pytest.mark.parametrize("size", [1, 8191, 8193, 16387])
    @settings(max_examples=15, deadline=None)
    @given(roots=dags(), cuts=st.lists(st.integers(0, 8), max_size=4))
    # a group of a bare coordinate, a group a later step reads from, the
    # same root in two groups, a group of constants
    @example(roots=[X, Mul(X, Y), SUM, Mul(SUM, Y), Num(2.0)], cuts=[1, 3, 4])
    @example(roots=[SUM, Call("sin", SUM), SUM], cuts=[1, 2])
    def test_groups_are_fed_early_and_match_the_reference(self, size, roots, cuts):
        bounds = sorted({0, len(roots), *(min(c, len(roots)) for c in cuts)})
        out = np.empty((len(roots), size))
        chunks = []

        def sink_of(start):
            def sink(lo, hi, values):
                chunks.append((start, lo))
                out[start:start + len(values), lo:hi] = values
            return sink

        env = point_env(size)
        with pytest.MonkeyPatch.context() as patch:
            # every buffer that the rest of the chunk does not read is NaN
            # once a group's sink returns
            patch.setattr(expr, "_segments", poisoning(expr._segments))
            evaluate_many_multi(roots, env, size, [(b - a, sink_of(a))
                                                   for a, b in zip(bounds, bounds[1:])])
        for start in bounds[:-1]:
            assert [lo for s, lo in chunks if s == start] == list(range(0, size, 8192))
        for root, values in zip(roots, out):
            assert same_bits(values, reference_evaluate(root, env, size)), expr.render(root)

    @pytest.mark.parametrize("size", [1, 16387])
    @settings(max_examples=25, deadline=None)
    @given(roots=dags(), cuts=st.lists(st.integers(0, 8), max_size=4))
    @example(roots=[X, Mul(X, Y), SUM, Mul(SUM, Y), Num(2.0)], cuts=[1, 3, 4])
    @example(roots=[Add(Mul(X, Y), Mul(SUM, SUM)), Call("cot", SUM)], cuts=[1])
    def test_the_pool_is_as_large_as_the_values_live_at_once(self, size, roots, cuts):
        # a buffer freed late, or never, grows the pool past this count;
        # the poisoning tests catch one freed early
        bounds = sorted({0, len(roots), *(min(c, len(roots)) for c in cuts)})
        bound = []
        original = expr._bind

        def keeping(*args):
            bound.append(original(*args))
            return bound[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expr, "_bind", keeping)
            evaluate_many_multi(roots, point_env(size), size,
                                [(b - a, lambda lo, hi, values: None)
                                 for a, b in zip(bounds, bounds[1:])])
        (pool, fills, segments), = bound
        # a value lives from the step that writes its buffer (-1: a column)
        # to its last reader, a step or a feed after a step (at + 0.5)
        spans, holding = [], {}      # [written, last read]; id(buffer) -> its span

        def write(buffer, at):
            holding[id(buffer)] = [at, at]
            spans.append(holding[id(buffer)])

        def read(arrays, at):
            for a in arrays:
                if id(a) in holding:
                    holding[id(a)][1] = at

        for _, buffer in fills:
            write(buffer, -1)
        at = -1
        for steps, feeds in segments:
            for _, arguments, out in steps:
                at += 1
                read(arguments, at)
                write(out, at)
            for _, values in feeds:
                read(values, at + 0.5)
        live = [sum(written <= i < last for written, last in spans) for i in range(at + 1)]
        assert len(pool) == max([len(fills), *live])

    @settings(max_examples=100, deadline=None)
    @given(roots=dags())
    def test_numbering_is_the_bottom_up_walk(self, roots):
        # the step order sets the schedule, and so the size of the pool
        numbers, steps = {}, []

        def number(node, kids, _):
            numbers[id(node)] = len(steps)
            steps.append((node, tuple(kids)))
            return numbers[id(node)]

        want = [expr._bottom_up(root, number, lambda node, _: numbers.get(id(node)))
                for root in roots]
        env = point_env(3)
        numbered, values, columns, program, _ = expr._compile(roots, env, 3)
        assert numbered == want
        assert len(values) == len(steps)
        # x and y are columns; every other value is folded or a program
        # step, with its arguments, in number order
        assert [number for number, _ in columns] == \
            [n for n, (node, _) in enumerate(steps) if node in (X, Y)]
        assert program == [(n, expr._operation(node), args)
                           for n, (node, args) in enumerate(steps)
                           if node._kids and values[n] is None]
        for n, (node, _) in enumerate(steps):
            if values[n] is not None:
                assert same_bits(np.array([values[n]], dtype=float),
                                 reference_evaluate(node, env, 1)), expr.render(node)

    def test_negative_zero_is_its_own_node(self):
        env = point_env(5)
        plus, minus, shifted = collected(
            [Div(Num(1.0), Num(0.0)), Div(Num(1.0), Num(-0.0)),
             Div(Add(Sym("a"), Num(1.0)), Num(-0.0))], env, 5)
        assert (plus == np.inf).all()
        assert (minus == -np.inf).all()
        assert (shifted == -np.inf).all()

    def test_unbound_symbol_raises(self):
        with pytest.raises(expr.UnboundSymbolError):
            collected([Add(Sym("x"), Sym("missing"))], point_env(3), 3)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_all_runs_at_most_three_plans(self, name, monkeypatch, capsys):
        # metric validation, the first pass (the almost-contact axiom gate
        # or the fit's design), the main plan; for every subcommand, one
        # that lacks a block of the manifest exits 2
        sizes = []
        original = expr.evaluate_many_multi

        def counting(exprs, env, size, sinks):
            sizes.append(size)
            return original(exprs, env, size, sinks)

        monkeypatch.setattr(expr, "evaluate_many_multi", counting)
        manifest = resolve_manifest(name)
        for subcommand in runner.SUBCOMMANDS:
            sizes.clear()
            complete = all(getattr(manifest, block) is not None
                           for block, _ in runner._NEEDS[subcommand])
            assert main([subcommand, "--manifest", name, "--format", "json"]) == \
                (0 if complete else 2), subcommand
            assert len(sizes) <= 3, subcommand


def test_structure_axioms_share_one_plan(sasakian_geometry, monkeypatch):
    chart, metric = sasakian_geometry
    calls = []
    original = expr.evaluate_many_multi
    monkeypatch.setattr(expr, "evaluate_many_multi",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    structure = assemble_structure(chart, metric, SASAKIAN_PHI, SASAKIAN_XI, SASAKIAN_ETA)
    assert len(calls) == 1
    assert set(structure.axiom_residuals) == {"reeb_normalisation", "phi_square",
                                              "metric_compatibility", "reeb_kernel"}


def test_fit_constant_is_fitted_once_per_run(monkeypatch):
    doc = json.loads(resources.files("grsoliton").joinpath("data/sasakian3.json")
                     .read_text())
    doc["constants"]["lambda"] = "fit"
    manifest = load_manifest(doc)
    designs = []

    class CountingFitQR(fit.FitQR):
        def __init__(self, form):
            super().__init__(form)
            self.updates = 0
            self.finishes = []
            designs.append(self)

        def update(self, lo, *fields):
            self.updates += 1
            return super().update(lo, *fields)

        def finish(self, fixed=None):
            self.finishes.append(fixed)
            return super().finish(fixed)

    monkeypatch.setattr(runner, "FitQR", CountingFitQR)
    report = runner.run_manifest(manifest, "all")
    # one R, fed by one pass over the 200 points (one chunk): the axiom
    # gate's.  The restricted fit resolves lambda for the soliton and
    # theorem rows; the fit row solves the same R with every constant free
    [design] = designs
    assert design.updates == 1
    assert design.finishes == [{"c1": -1.0, "c2": 0.0}, None]

    rows = {row.name: row for row in report.checks}
    assert [row.name for row in report.checks][:2] == ["structure_almost_contact",
                                                        "structure_contact"]
    assert report.overall_pass
    points = sample_points(manifest.chart, "uniform", 200, 7)
    f1, f2 = manifest.scalars["f1"], manifest.scalars["f2"]
    params = manifest.params
    form = gradient_form(manifest.metric, f1, f2)
    resolved = fit_constants(manifest.metric, form, points, params,
                             fixed={"c1": -1.0, "c2": 0.0})
    lam = float(resolved.solution[0])
    assert rows["fit_constants_restricted"].details["note"] == "resolved-for-check"
    assert rows["fit_constants_restricted"].details["solution"] == {"lambda": lam}

    soliton = report_of(manifest.chart, build_soliton_check(manifest.metric, form, -1.0, 0.0, lam),
                        points, params, manifest.tolerance)
    assert (rows["soliton_gradient"].abs_sup,
            rows["soliton_gradient"].rel_sup) == (soliton.abs_sup, soliton.rel_sup)
    assert rows["soliton_gradient"].details["constants"]["lambda"] == lam

    structure = assemble_structure(manifest.chart, manifest.metric,
                                   manifest.structure["phi"], manifest.structure["xi"],
                                   manifest.structure["eta"], points=points,
                                   params=params)
    transport = report_of(manifest.chart,
                          build_theorem_checks(structure, f1, f2, -1.0, 0.0, lam)[1],
                          points, params, manifest.tolerance)
    assert rows["grad_transport"].abs_sup == transport.abs_sup

    free = fit_constants(manifest.metric, form, points, params)
    assert rows["fit_constants"].abs_sup == free.residual_sup
    assert rows["fit_constants"].details["solution"] == {
        name: float(v) for name, v in zip(free.free_names, free.solution)}


@pytest.mark.parametrize("name", ["hyperbolic", "cone"])
@pytest.mark.parametrize("subcommand", ["check-soliton", "fit", "all"])
def test_a_run_without_a_gate_fits_in_a_pass_of_its_own(name, subcommand, monkeypatch):
    # no structure block, so no axiom gate: the design is fed once, at
    # every one of the 200 points, in a pass before the main plan
    doc = json.loads(resources.files("grsoliton").joinpath(f"data/{name}.json").read_text())
    doc["constants"]["lambda"] = "fit"
    manifest = load_manifest(doc)
    events, designs = [], []
    original = expr.evaluate_many_multi

    class CountingFitQR(fit.FitQR):
        def __init__(self, form):
            super().__init__(form)
            designs.append(self)

        def update(self, lo, *fields):
            events.append(("update", lo, len(fields[0][0])))
            return super().update(lo, *fields)

    def recording(exprs, env, size, sinks):
        events.append(("plan", size))
        return original(exprs, env, size, sinks)

    monkeypatch.setattr(runner, "FitQR", CountingFitQR)
    monkeypatch.setattr(expr, "evaluate_many_multi", recording)
    report = runner.run_manifest(manifest, subcommand)
    assert len(designs) == 1
    assert events == [("plan", 200), ("update", 0, 200), ("plan", 200)]
    assert report.overall_pass


# Run in a fresh interpreter, so that no node kept alive by another test
# (a session fixture, say) can hold a cache filled by the runs.  With the
# collector off only reference counting frees nodes: a node cycle, or a
# cache that outlives a run, would leave entries in the intern table.
_RETENTION_SCRIPT = """
import gc, json
from grsoliton import expr
from grsoliton.manifest import BUNDLED_NAMES, resolve_manifest
from grsoliton.runner import run_manifest
gc.disable()
for name in BUNDLED_NAMES:
    before = len(expr._INTERNED)
    report = run_manifest(resolve_manifest(name), "all")
    passed = report.overall_pass
    del report
    print(json.dumps([name, passed, before, len(expr._INTERNED)]))
"""


def test_a_run_leaves_no_node_behind():
    src = os.path.dirname(os.path.dirname(os.path.abspath(grsoliton.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _RETENTION_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert [name for name, *_ in runs] == list(BUNDLED_NAMES)
    for name, passed, before, after in runs:
        assert passed, name
        assert after == before, name


def test_riemann_nodes_are_its_structural_classes(sasakian_geometry):
    _, metric = sasakian_geometry
    classes = structural_classes(list(riemann(metric).comps.reshape(-1)))
    # one object per distinct structure (891 objects before interning)
    assert len(classes) == len(set(classes.values())) == 255


def _cyclic_garbage(manifest):
    """Objects the cyclic collector finds after one `all` run (gc off)."""
    gc.collect()
    gc.disable()
    try:
        try:
            runner.run_manifest(manifest, "all")
        except expr.DomainError:
            pass
        return gc.collect()
    finally:
        gc.enable()


def test_a_domain_error_leaves_no_more_garbage_than_a_pass():
    passing = resolve_manifest("sasakian3")
    doc = json.loads(resources.files("grsoliton").joinpath("data/sasakian3.json")
                     .read_text())
    doc["scalars"]["f2"] = "sqrt(-1 - y^2)"
    failing = load_manifest(doc)
    with pytest.raises(expr.DomainError):
        runner.run_manifest(failing, "all")
    _cyclic_garbage(passing)            # warm any first-use caches
    assert _cyclic_garbage(failing) <= _cyclic_garbage(passing)


def _traced_peak(manifest, npoints):
    tracemalloc.start()
    try:
        runner.run_manifest(manifest, "all", count=npoints)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_per_point():
    # the points are drawn chunk by chunk and every row, the fit's design
    # included, is reduced chunk by chunk, so what a run allocates does not
    # grow with N: not by the sample points (24 B per point for n = 3), nor
    # by N x component columns of any row
    manifest = resolve_manifest("sasakian3")
    runner.run_manifest(manifest, "all")
    small, large = 50_000, 400_000
    slope = (_traced_peak(manifest, large) - _traced_peak(manifest, small)) / (large - small)
    assert slope <= 2


def _report_bytes(report):
    out = report.as_dict()
    out.pop("elapsed_seconds")
    return json.dumps(out)


@pytest.mark.parametrize("name", BUNDLED_NAMES)
@pytest.mark.parametrize("subcommand", ["all", "check-theorem"])
def test_reports_do_not_read_freed_buffers(name, subcommand, monkeypatch):
    # two full chunks and a short one; every buffer the rest of a chunk
    # does not read is NaN once a group's sink returns
    manifest = resolve_manifest(name)
    if subcommand == "check-theorem" and manifest.structure is None:
        subcommand = "fit"
    want = _report_bytes(runner.run_manifest(manifest, subcommand, count=2 * 8192 + 3))
    monkeypatch.setattr(expr, "_segments", poisoning(expr._segments))
    assert _report_bytes(runner.run_manifest(manifest, subcommand, count=2 * 8192 + 3)) == want


def test_a_run_builds_only_the_trace_of_the_curvature():
    # no row reads R^l_ijk; Ricci is built from the trace R^a_a.. alone
    manifest = load_manifest(json.loads(resources.files("grsoliton")
                                        .joinpath("data/sasakian3.json").read_text()))
    assert runner.run_manifest(manifest, "all").overall_pass
    assert "ricci" in manifest.metric.derived
    assert "riemann" not in manifest.metric.derived
    assert manifest.metric.derived["ricci"].comps.tolist() == \
        np.add.reduce(riemann(manifest.metric).comps[np.arange(3), np.arange(3)]).T.tolist()


@pytest.mark.parametrize("name, pools", [("hyperbolic", [1, 15, 17]),
                                         ("cone", [1, 11, 15]),
                                         ("sasakian3", [3, 42, 52])])
def test_each_plan_keeps_its_buffer_pool(name, pools, monkeypatch, capsys):
    # buffers per plan (metric validation, axiom gate, main plan): the
    # same at 200 points as at 100k, where they are most of a run's memory
    sizes = []
    original = expr._bind

    def counting(*args):
        pool, sources, steps = original(*args)
        sizes.append(len(pool))
        return pool, sources, steps

    monkeypatch.setattr(expr, "_bind", counting)
    assert main(["all", "--manifest", name, "--format", "json"]) == 0
    assert sizes == pools


def _nodes_under(roots):
    """Every node reachable from roots, once, through the named child slots."""
    nodes, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack += [getattr(node, a) for a in ("arg", "left", "right") if hasattr(node, a)]
    return list(nodes.values())


def _resimplified(node):
    """simplify(node) by a fresh walk of simplify's rule, reading no cache."""
    return expr._bottom_up(node, expr._simplify_rule, expr._no_cache)


_FRESH = itertools.count()

# Count the rules' calls while ricci is built from each bundled metric, in a
# fresh interpreter, so that no node another test keeps alive holds a
# derivative that the build would otherwise compute.
_RICCI_RULES_SCRIPT = """
import json
from grsoliton import expr, tensors
from grsoliton.manifest import BUNDLED_NAMES, bundled_examples
calls = {"_simplify_rule": 0, "_derivative_rule": 0}
def counted(name, rule):
    def rule_call(*args):
        calls[name] += 1
        return rule(*args)
    return rule_call
metrics = [bundled_examples(name).metric for name in BUNDLED_NAMES]
for name in calls:
    setattr(expr, name, counted(name, getattr(expr, name)))
for metric in metrics:
    tensors.ricci(metric)
print(json.dumps(calls))
"""


class TestSimplifiedAtBirth:
    """A node the package builds from simplified nodes is marked as its own
    simplification when it is made, so simplify() of it is one lookup."""

    @settings(max_examples=100, deadline=None)
    @given(roots=dags())
    def test_marked_nodes_are_their_own_simplification(self, roots):
        simple = [expr.simplify(root) for root in roots]
        derived = [expr.differentiate(node, name) for node in simple for name in ("x", "a")]
        for node in simple + derived:
            assert node._simple is True, expr.render(node)
        # what the smart constructors make of simplified nodes, numbers too
        operands = simple + [Num(2.0), Num(-0.5), X]
        built = [op(a, b) for op in (expr.add, expr.sub, expr.mul, expr.div, expr.pow_)
                 for a in operands for b in operands]
        built += [expr.neg(a) for a in operands] + [expr.call("ln", a) for a in operands]
        for node in _nodes_under(roots + simple + derived + built):
            if node._simple is True:
                assert _resimplified(node) is node, expr.render(node)

    @settings(max_examples=100, deadline=None)
    @given(roots=dags())
    def test_parsed_nodes_are_unmarked_until_simplified(self, roots):
        texts = [expr.render(root, 2000) for root in roots]
        assume(not any(text.endswith("...") for text in texts))
        fresh = f"u{next(_FRESH)}"
        parsed = expr.parse(" + ".join(f"{fresh} * ({text})" for text in texts))
        # the nodes that hold the fresh symbol are new, and raw
        raw = [node for node in _nodes_under([parsed])
               if node._kids and fresh in expr.free_symbols(node)]
        assert raw
        assert all(node._simple is None for node in raw)
        expr.simplify(parsed)
        assert all(node._simple is not None for node in raw)

    def test_ricci_of_a_bundled_metric_simplifies_nothing(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(grsoliton.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _RICCI_RULES_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        calls = json.loads(done.stdout)
        assert calls["_derivative_rule"] > 0
        assert calls["_simplify_rule"] == 0
