"""Manifest loading and validation.

A manifest is one JSON document holding a chart, a metric matrix of
expression strings, optional structure/scalars/vectors blocks, constants,
sampling policy, and a tolerance.  All mathematical content goes through
the expression parser, so a manifest is fully validated at load time.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from importlib import resources

from grsoliton.chart import ChartError, MetricError, define_chart, define_metric
from grsoliton.expr import RESERVED_NAMES, ParseError, free_symbols, parse
from grsoliton.soliton import CONSTANT_ORDER, DEFAULT_TOLERANCE

BUNDLED_NAMES = ("hyperbolic", "cone", "sasakian3")

_DEFAULT_SAMPLING = {"strategy": "uniform", "count": 200, "seed": 0}


class ManifestError(ValueError):
    """The manifest is structurally or syntactically invalid."""


@dataclass
class Manifest:
    """Validated manifest with the metric already constructed."""

    chart: object
    metric: object
    constants: dict                  # c1/c2/lambda -> float or "fit"
    params: dict                     # numeric bindings usable in expressions
    sampling: dict
    tolerance: float
    digest: str
    scalars: dict = None             # {"f1": Expression, "f2": Expression}
    vectors: dict = None             # {"X1": [Expression], "X2": [Expression]}
    structure: dict = None           # {"phi": [[...]], "xi": [...], "eta": [...]}
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def mode(self):
        if self.scalars is not None:
            return "gradient"
        if self.vectors is not None:
            return "vector"
        return None

    def fit_targets(self):
        return tuple(k for k in CONSTANT_ORDER if self.constants[k] == "fit")

    def numeric_constants(self):
        return {k: v for k, v in self.constants.items() if v != "fit"}


def _fail(message):
    raise ManifestError(message)


def _no_unknown_keys(block, known, where):
    unknown = set(block) - known
    if unknown:
        _fail(f"unknown {where} keys {sorted(unknown)}")


def _is_number(value, kind):
    """Whether value is of the numbers ABC kind; a bool is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_finite(value):
    try:
        return _is_number(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def run_settings(sampling, tolerance, count=None, seed=None, tol=None):
    """The sampling policy and tolerance of a run: sampling (strategy,
    count, seed) and tolerance, with the overrides count, seed and tol put
    in where they are not None, each value checked.  Raises ManifestError
    naming the first field that is invalid."""
    sampling = dict(sampling)
    for key, value in (("count", count), ("seed", seed)):
        if value is not None:
            sampling[key] = value
    tolerance = tolerance if tol is None else tol
    if sampling["strategy"] not in ("uniform", "grid"):
        _fail(f"unknown sampling strategy {sampling['strategy']!r}")
    if not _is_number(sampling["count"], numbers.Integral) or sampling["count"] < 1:
        _fail(f"sampling.count must be a positive integer, got {sampling['count']!r}")
    if not _is_number(sampling["seed"], numbers.Integral) or sampling["seed"] < 0:
        _fail(f"sampling.seed must be a non-negative integer, got {sampling['seed']!r}")
    if not _is_finite(tolerance) or tolerance <= 0:
        _fail(f"tolerance must be a positive finite number, got {tolerance!r}")
    sampling["count"], sampling["seed"] = int(sampling["count"]), int(sampling["seed"])
    return sampling, float(tolerance)


def _parse_expr(text, where, allowed):
    try:
        e = parse(text) if isinstance(text, str) else parse(str(text))
    except ParseError as ex:
        raise ManifestError(f"{where}: {ex}") from ex
    stray = free_symbols(e) - allowed
    if stray:
        _fail(f"{where}: unknown symbols {sorted(stray)}")
    return e


def load_manifest(source):
    """Load a manifest from a dict, JSON text, or file path."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as ex:
                raise ManifestError(f"cannot read manifest: {ex}") from ex
        try:
            data = json.loads(text)
        except json.JSONDecodeError as ex:
            raise ManifestError(f"manifest is not valid JSON: {ex}") from ex
    if not isinstance(data, dict):
        _fail("manifest must be a JSON object")
    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

    _no_unknown_keys(data, {"chart", "metric", "structure", "scalars", "vectors",
                            "constants", "sampling", "tolerance"}, "manifest")

    chart_block = data.get("chart")
    if not isinstance(chart_block, dict) or "coords" not in chart_block:
        _fail('manifest needs "chart": {"coords": [...], "bounds": {...}}')
    _no_unknown_keys(chart_block, {"coords", "bounds"}, "chart")
    coords = chart_block["coords"]
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        _fail(f"chart.coords must be a list of coordinate names, got {coords!r}")
    bounds_block = chart_block.get("bounds", {})
    if not isinstance(bounds_block, dict):
        _fail('"bounds" must map coordinate names to [lo, hi]')
    bounds = {}
    for name, pair in bounds_block.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(f"bounds for {name!r} must be a [lo, hi] pair (null = unbounded)")
        # a float bound may be infinite; an integer must fit a float
        if not all(v is None or isinstance(v, float) or _is_finite(v) for v in pair):
            _fail(f"bounds for {name!r} must be numbers or null, got {list(pair)!r}")
        bounds[name] = (pair[0], pair[1])
    try:
        chart = define_chart(coords, bounds)
    except ChartError as ex:
        raise ManifestError(f"bad chart: {ex}") from ex
    n = chart.dim

    constants_block = data.get("constants", {})
    if not isinstance(constants_block, dict):
        _fail('"constants" must be an object')
    constants = {}
    params = {}
    for key, value in constants_block.items():
        if key in CONSTANT_ORDER:
            if value == "fit":
                constants[key] = "fit"
            elif _is_finite(value):
                constants[key] = float(value)
                params[key] = float(value)
            else:
                _fail(f'constant {key!r} must be a finite number or "fit"')
        else:
            # a coordinate or a reserved name would win over this constant
            if key in chart.names or key in RESERVED_NAMES:
                kind = "a chart coordinate" if key in chart.names else "a reserved name"
                _fail(f"constant {key!r} is already {kind}")
            if not _is_finite(value):
                _fail(f"extra constant {key!r} must be a finite number")
            params[key] = float(value)
    for key in CONSTANT_ORDER:
        constants.setdefault(key, 0.0)
        if constants[key] != "fit":
            params.setdefault(key, float(constants[key]))

    allowed = set(chart.names) | set(params)

    metric_block = data.get("metric")
    if not isinstance(metric_block, list):
        _fail('manifest needs "metric": n x n matrix of expression strings')
    if len(metric_block) != n or any(not isinstance(r, list) or len(r) != n
                                     for r in metric_block):
        _fail(f"metric must be {n}x{n} to match the chart")
    metric_rows = [[_parse_expr(entry, f"metric[{i}][{j}]", allowed)
                    for j, entry in enumerate(row)]
                   for i, row in enumerate(metric_block)]
    try:
        metric = define_metric(chart, metric_rows, params)
    except MetricError as ex:
        raise ManifestError(f"bad metric: {ex}") from ex

    scalars = None
    if "scalars" in data:
        block = data["scalars"]
        if not isinstance(block, dict) or set(block) != {"f1", "f2"}:
            _fail('"scalars" must be {"f1": expr, "f2": expr}')
        scalars = {k: _parse_expr(block[k], f"scalars.{k}", allowed)
                   for k in ("f1", "f2")}

    vectors = None
    if "vectors" in data:
        block = data["vectors"]
        if not isinstance(block, dict) or set(block) != {"X1", "X2"}:
            _fail('"vectors" must be {"X1": [exprs], "X2": [exprs]}')
        vectors = {}
        for key in ("X1", "X2"):
            comps = block[key]
            if not isinstance(comps, list) or len(comps) != n:
                _fail(f"vectors.{key} must have {n} components")
            vectors[key] = [_parse_expr(c, f"vectors.{key}[{i}]", allowed)
                            for i, c in enumerate(comps)]

    if scalars is not None and vectors is not None:
        _fail("at most one of scalars/vectors may be given")
    if "fit" in constants.values() and scalars is None:
        _fail('"fit" constants need gradient mode (a scalars block)')
    # note: a scalar referencing a constant marked "fit" is caught by the
    # unknown-symbol validation above, since fit targets carry no value

    structure = None
    if "structure" in data:
        block = data["structure"]
        if not isinstance(block, dict) or set(block) != {"phi", "xi", "eta"}:
            _fail('"structure" must be {"phi": [[...]], "xi": [...], "eta": [...]}')
        if n % 2 == 0:
            _fail("structure blocks need an odd-dimensional chart")
        phi = block["phi"]
        if not isinstance(phi, list) or len(phi) != n or \
                any(not isinstance(r, list) or len(r) != n for r in phi):
            _fail(f"structure.phi must be {n}x{n}")
        structure = {
            "phi": [[_parse_expr(entry, f"structure.phi[{i}][{j}]", allowed)
                     for j, entry in enumerate(row)] for i, row in enumerate(phi)],
            "xi": [_parse_expr(c, f"structure.xi[{i}]", allowed)
                   for i, c in enumerate(_vector(block["xi"], n, "structure.xi"))],
            "eta": [_parse_expr(c, f"structure.eta[{i}]", allowed)
                    for i, c in enumerate(_vector(block["eta"], n, "structure.eta"))],
        }

    sampling = dict(_DEFAULT_SAMPLING)
    if "sampling" in data:
        block = data["sampling"]
        if not isinstance(block, dict):
            _fail('"sampling" must be an object')
        _no_unknown_keys(block, set(_DEFAULT_SAMPLING), "sampling")
        sampling.update(block)
    sampling, tolerance = run_settings(sampling, data.get("tolerance", DEFAULT_TOLERANCE))

    return Manifest(
        chart=chart,
        metric=metric,
        constants=constants,
        params=params,
        sampling=sampling,
        tolerance=tolerance,
        digest=digest,
        scalars=scalars,
        vectors=vectors,
        structure=structure,
        raw=data,
    )


def _vector(block, n, where):
    if not isinstance(block, list) or len(block) != n:
        _fail(f"{where} must have {n} components")
    return block


def bundled_examples(name):
    """Load one of the built-in manifests: hyperbolic, cone, sasakian3."""
    if name not in BUNDLED_NAMES:
        raise ManifestError(
            f"unknown bundled manifest {name!r}; choose from {BUNDLED_NAMES}")
    text = resources.files("grsoliton").joinpath(f"data/{name}.json").read_text()
    return load_manifest(text)


def resolve_manifest(ref):
    """Interpret a CLI --manifest value: bundled name, path, or JSON text."""
    if isinstance(ref, str) and ref in BUNDLED_NAMES:
        return bundled_examples(ref)
    return load_manifest(ref)
