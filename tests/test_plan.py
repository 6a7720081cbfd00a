"""The evaluation plan: structural deduplication, chunking, one plan per run."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grsoliton
from grsoliton import expr, runner
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
from grsoliton.soliton import SolitonSpec, grad_transport_check, residual_gradient_form
from grsoliton.tensors import riemann

from conftest import SASAKIAN_ETA, SASAKIAN_PHI, SASAKIAN_XI, structural_classes

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


class TestPlan:
    @pytest.mark.parametrize("size", [1, 8191, 8192, 8193, 16387])
    @settings(max_examples=25, deadline=None)
    @given(roots=dags())
    def test_matches_reference_bit_for_bit(self, size, roots):
        env = point_env(size)
        got = evaluate_many_multi(roots, env, size)
        assert len(got) == len(roots)
        for root, values in zip(roots, got):
            assert values.shape == (size,)
            assert same_bits(values, reference_evaluate(root, env, size)), expr.render(root)

    def test_negative_zero_is_its_own_node(self):
        env = point_env(5)
        plus, minus, shifted = evaluate_many_multi(
            [Div(Num(1.0), Num(0.0)), Div(Num(1.0), Num(-0.0)),
             Div(Add(Sym("a"), Num(1.0)), Num(-0.0))], env, 5)
        assert (plus == np.inf).all()
        assert (minus == -np.inf).all()
        assert (shifted == -np.inf).all()

    def test_unbound_symbol_raises(self):
        with pytest.raises(expr.UnboundSymbolError):
            evaluate_many_multi([Add(Sym("x"), Sym("missing"))], point_env(3), 3)

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_all_runs_at_most_three_plans(self, name, monkeypatch, capsys):
        # metric validation, the almost-contact axiom gate, the main plan
        sizes = []
        original = expr.evaluate_many_multi

        def counting(exprs, env, size, *args, **kwargs):
            sizes.append(size)
            return original(exprs, env, size, *args, **kwargs)

        monkeypatch.setattr(expr, "evaluate_many_multi", counting)
        assert main(["all", "--manifest", name, "--format", "json"]) == 0
        assert len(sizes) <= 3


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
    fits = []
    original = runner.fit_design

    def counting(values, fixed=None):
        fits.append(fixed)
        return original(values, fixed)

    monkeypatch.setattr(runner, "fit_design", counting)
    report = runner.run_manifest(manifest, "all")
    # one restricted fit resolves lambda for the soliton and theorem rows;
    # the fit row refits the same design values with every constant free
    assert fits == [{"c1": -1.0, "c2": 0.0}, None]

    rows = {row.name: row for row in report.checks}
    assert [row.name for row in report.checks][:2] == ["structure_almost_contact",
                                                        "structure_contact"]
    assert report.overall_pass
    points = sample_points(manifest.chart, "uniform", 200, 7)
    f1, f2 = manifest.scalars["f1"], manifest.scalars["f2"]
    params = manifest.params
    resolved = fit_constants(manifest.metric, f1, f2, points, params,
                             fixed={"c1": -1.0, "c2": 0.0})
    lam = float(resolved.solution[0])
    fitted_rows = [row for row in report.checks if row.name == "fit_constants"]
    assert fitted_rows[0].extra["note"] == "resolved-for-check"
    assert fitted_rows[0].extra["solution"] == {"lambda": lam}

    spec = SolitonSpec(manifest.metric, "gradient", -1.0, 0.0, lam, f1=f1, f2=f2,
                       params=params)
    soliton = residual_gradient_form(spec, points, manifest.tolerance)
    assert (rows["soliton_gradient"].abs_residual,
            rows["soliton_gradient"].rel_residual) == (soliton.abs_sup, soliton.rel_sup)
    assert rows["soliton_gradient"].extra["constants"]["lambda"] == lam

    structure = assemble_structure(manifest.chart, manifest.metric,
                                   manifest.structure["phi"], manifest.structure["xi"],
                                   manifest.structure["eta"], points=points,
                                   params=params)
    transport = grad_transport_check(structure, f1, f2, -1.0, 0.0, lam, points,
                                     manifest.tolerance, params)
    assert rows["grad_transport"].abs_residual == transport.abs_sup

    free = fit_constants(manifest.metric, f1, f2, points, params)
    assert fitted_rows[1].abs_residual == free.residual_sup
    assert fitted_rows[1].extra["solution"] == {
        name: float(v) for name, v in zip(free.free_names, free.solution)}


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


def test_peak_memory_per_point():
    # the plan reduces every row chunk by chunk, so what a run allocates
    # at once is the fit's design and its least-squares temporaries (about
    # 460 B per point), not N x component columns for every row
    manifest = resolve_manifest("sasakian3")
    runner.run_manifest(manifest, "all")
    npoints = 50_000
    tracemalloc.start()
    try:
        runner.run_manifest(manifest, "all", count=npoints)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / npoints <= 600
