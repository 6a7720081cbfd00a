"""Per-layer tracing of grsoliton from outside the package.

The tracer wraps public grsoliton functions by rebinding every name that
refers to them in the loaded grsoliton.* modules, so calls made inside the
package (module globals looked up at call time) go through the wrapper too.
Each wrapped call records one span (operation id, name, start, end, parent)
in memory; layer self time is a span's duration minus the durations of its
direct children.  Counting work done on behalf of the trace (walking
expression DAGs) is recorded as its own "trace.count" span, so it lands in
trace.bookkeeping_s rather than in the layer that triggered it.

Nothing in the package source is modified; uninstall() restores every
rebound name.
"""

import functools
import json
import sys
import time
from collections import Counter

# (module, function, layer metric that receives the span's self time)
TARGETS = (
    ("grsoliton.manifest", "load_manifest", "manifest.load_s"),
    ("grsoliton.chart", "define_metric", "chart.define_metric_s"),
    ("grsoliton.chart", "sample_points", "chart.sample_points_s"),
    ("grsoliton.expr", "parse", "expr.parse_s"),
    ("grsoliton.expr", "simplify", "expr.simplify_s"),
    ("grsoliton.expr", "differentiate", "expr.differentiate_s"),
    ("grsoliton.expr", "evaluate_many_multi", "expr.evaluate_s"),
    ("grsoliton.tensors", "christoffel", "tensors.christoffel_s"),
    ("grsoliton.tensors", "riemann", "tensors.riemann_s"),
    ("grsoliton.tensors", "ricci", "tensors.ricci_s"),
    ("grsoliton.tensors", "hessian", "tensors.hessian_s"),
    ("grsoliton.contact", "assemble_structure", "contact.assemble_s"),
    ("grsoliton.contact", "classify_structure", "contact.classify_s"),
    ("grsoliton.soliton", "residual_gradient_form", "soliton.gradient_s"),
    ("grsoliton.soliton", "alignment_condition", "soliton.theorem_s"),
    ("grsoliton.soliton", "grad_transport_check", "soliton.theorem_s"),
    ("grsoliton.soliton", "supporting_identities_check", "soliton.theorem_s"),
    # only the theorem rows call it, so it is booked with them
    ("grsoliton.contact", "ricci_reeb_residual", "soliton.theorem_s"),
    ("grsoliton.fit", "fit_constants", "fit.fit_s"),
    ("grsoliton.runner", "run_manifest", "runner.self_s"),
    ("grsoliton.report", "emit_report", "report.emit_s"),
)

ROOT = "cli.main"          # the operation span, opened by the benchmark
BOOKKEEPING = "trace.count"

LAYER_OF = {f"{module[len('grsoliton.'):]}.{func}": layer
            for module, func, layer in TARGETS}
LAYER_OF[ROOT] = "runner.self_s"
LAYER_OF[BOOKKEEPING] = "trace.bookkeeping_s"

TIME_METRICS = tuple(dict.fromkeys(LAYER_OF.values()))

# counters incremented per call of the named span
CALL_COUNTERS = {
    "expr.evaluate_many_multi": "expr.evaluate_calls",
    "expr.simplify": "expr.simplify_calls",
    "expr.differentiate": "expr.differentiate_calls",
    "fit.fit_constants": "fit.fit_calls",
}
COUNT_METRICS = ("expr.evaluate_calls", "expr.evaluated_nodes",
                 "expr.distinct_nodes", "expr.simplify_calls",
                 "expr.differentiate_calls", "fit.fit_calls",
                 "tensors.riemann_nodes", "tensors.ricci_max_tree")

_CHILD_ATTRS = ("arg", "left", "right")
_PAYLOAD_ATTRS = ("value", "name", "func")


@functools.cache
def _layout(kind):
    """(child attributes, payload attribute or None) of a node type."""
    slots = set()
    for klass in kind.__mro__:
        slots.update(getattr(klass, "__slots__", ()))
    payload = [a for a in _PAYLOAD_ATTRS if a in slots]
    return (tuple(a for a in _CHILD_ATTRS if a in slots),
            payload[0] if payload else None)


def _children(node):
    return [getattr(node, a) for a in _layout(type(node))[0]]


def _payload(node):
    attr = _layout(type(node))[1]
    return None if attr is None else getattr(node, attr)


def unique_nodes(roots):
    """Distinct node objects reachable from roots, children first."""
    seen = set()
    order = []
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(_children(node)))
    return order


def expanded_sizes(roots):
    """Tree size of each root with shared subtrees counted at every use."""
    size = {}
    for node in unique_nodes(roots):
        size[id(node)] = 1 + sum(size[id(c)] for c in _children(node))
    return [size[id(root)] for root in roots]


class _OpState:
    """Per-operation counters; keeps counted nodes alive so ids stay unique."""

    def __init__(self):
        self.counts = Counter()
        self.canon = {}        # id(node) -> structural class
        self.classes = {}      # (type, payload, child classes) -> class
        self.keep = []
        self.seen_results = {}

    def count_evaluation(self, roots):
        nodes = unique_nodes(list(roots))
        self.counts["expr.evaluated_nodes"] += len(nodes)
        for node in nodes:
            if id(node) in self.canon:
                continue
            key = (type(node).__name__, _payload(node),
                   tuple(self.canon[id(c)] for c in _children(node)))
            self.canon[id(node)] = self.classes.setdefault(key, len(self.classes))
            self.keep.append(node)
        self.counts["expr.distinct_nodes"] = len(self.classes)

    def first_sight(self, result):
        if id(result) in self.seen_results:
            return False
        self.seen_results[id(result)] = result
        return True


class Tracer:
    """Span recorder; install() rebinds the targets, uninstall() restores."""

    def __init__(self):
        self.spans = []        # [op, name, start, end, parent index]
        self.ops = {}          # op id -> _OpState
        self._stack = []
        self._op = None
        self._rebound = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        missing = []
        for module_name, func, _ in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, func, None) if module else None
            if original is None:
                missing.append(f"{module_name}.{func}")
                continue
            name = f"{module_name[len('grsoliton.'):]}.{func}"
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "grsoliton"
                                       or mod_name.startswith("grsoliton.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))
        return missing

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                if name == "expr.evaluate_many_multi":
                    args = (tuple(args[0]),) + args[1:]
                    tracer._bookkeep(lambda: tracer._state().count_evaluation(args[0]))
                result = fn(*args, **kwargs)
                if name == "tensors.riemann":
                    tracer._bookkeep(lambda: tracer._count_riemann(result))
                elif name == "tensors.ricci":
                    tracer._bookkeep(lambda: tracer._count_ricci(result))
                return result
            finally:
                tracer._close(index)

        return functools.wraps(fn)(traced)

    # -- spans --------------------------------------------------------------

    def _state(self):
        return self.ops[self._op]

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._op, name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        counter = CALL_COUNTERS.get(name)
        if counter and self._op is not None:
            self.ops[self._op].counts[counter] += 1
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _bookkeep(self, work):
        if self._op is None:
            return
        index = self._open(BOOKKEEPING)
        try:
            work()
        finally:
            self._close(index)

    def _count_riemann(self, field):
        state = self._state()
        if state.first_sight(field):
            comps = list(field.comps.reshape(-1))
            state.counts["tensors.riemann_nodes"] += len(unique_nodes(comps))

    def _count_ricci(self, field):
        state = self._state()
        if state.first_sight(field):
            largest = max(expanded_sizes(list(field.comps.reshape(-1))))
            state.counts["tensors.ricci_max_tree"] = max(
                state.counts["tensors.ricci_max_tree"], largest)

    def operation(self, op_id, call):
        """Run call() as operation op_id under a root span; returns its
        result and the span's duration in seconds."""
        if op_id in self.ops:
            raise ValueError(f"operation id {op_id!r} already traced")
        self.ops[op_id] = _OpState()
        self._op = op_id
        index = self._open(ROOT)
        try:
            result = call()
        finally:
            self._close(index)
            self._op = None
            self.ops[op_id].keep.clear()
            self.ops[op_id].canon.clear()
            self.ops[op_id].seen_results.clear()
        span = self.spans[index]
        return result, span[3] - span[2]

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """{op id: {layer metric: self seconds}} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for index, (op, name, start, end, parent) in enumerate(self.spans):
            layers = out.setdefault(op, Counter())
            layers[LAYER_OF[name]] += (end - start) - child[index]
        return out

    def counts(self, op_id):
        return {name: self.ops[op_id].counts[name] for name in COUNT_METRICS}

    def write(self, path):
        """Write the spans as JSON lines: op, name, start, duration, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps([op, name, round(start, 9),
                                     round(end - start, 9), parent]) + "\n")
