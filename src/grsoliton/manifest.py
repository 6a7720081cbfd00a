"""Manifest loading and validation.

A manifest is one JSON document holding a chart, a metric matrix of
expression strings, optional structure/scalars/vectors blocks, constants,
sampling policy, and a tolerance.  All mathematical content goes through
the expression parser, so a manifest is fully validated at load time.
"""

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

from grsoliton.chart import ChartError, MetricError, define_chart, define_metric
from grsoliton.expr import RESERVED_NAMES, ParseError, free_symbols, is_name, parse
from grsoliton.soliton import CONSTANT_ORDER, DEFAULT_TOLERANCE

# as CPython's random.py: hashlib loads OpenSSL, so try the lean builtin
# module first (_sha2 from Python 3.12, _sha256 before)
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

BUNDLED_NAMES = ("hyperbolic", "cone", "sasakian3", "sasakian5")

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
    if sampling["seed"] >= 2 ** 64:
        _fail(f"sampling.seed must be below 2^64, got {sampling['seed']!r}")
    if not _is_finite(tolerance) or tolerance <= 0:
        _fail(f"tolerance must be a positive finite number, got {tolerance!r}")
    sampling["count"], sampling["seed"] = int(sampling["count"]), int(sampling["seed"])
    return sampling, float(tolerance)


def _parse_expr(value, where, allowed):
    # str() of a JSON true, false, null or 1e400 would parse as a symbol
    if not (isinstance(value, str) or _is_finite(value)):
        _fail(f"{where} must be an expression string or a finite number")
    try:
        e = parse(str(value))
    except ParseError as ex:
        raise ManifestError(f"{where}: {ex}") from ex
    stray = free_symbols(e) - allowed
    if stray:
        _fail(f"{where}: unknown symbols {sorted(stray)}")
    return e


def _parse_block(block, shape, where, allowed, mismatch=""):
    """The expressions of block, a list of shape (n,) or an n x n matrix of
    shape (n, n), with entry i parsed as where[i] and entry i, j as
    where[i][j].  The whole shape is checked before any entry is parsed;
    mismatch ends the message of a matrix of the wrong shape."""
    n, matrix = shape[0], len(shape) == 2
    if not isinstance(block, list) or len(block) != n or (matrix and any(
            not isinstance(row, list) or len(row) != n for row in block)):
        _fail(f"{where} must be {n}x{n}{mismatch}" if matrix
              else f"{where} must have {n} components")
    if matrix:
        return [_parse_block(row, shape[1:], f"{where}[{i}]", allowed)
                for i, row in enumerate(block)]
    return [_parse_expr(entry, f"{where}[{i}]", allowed) for i, entry in enumerate(block)]


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
            except (OSError, UnicodeDecodeError) as ex:
                raise ManifestError(f"cannot read manifest: {ex}") from ex
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as ex:
            raise ManifestError(f"manifest is not valid JSON: {ex}") from ex
    if not isinstance(data, dict):
        _fail("manifest must be a JSON object")
    try:
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError, RecursionError) as ex:
        raise ManifestError(f"manifest is not JSON data: {ex}") from ex
    digest = sha256(canonical.encode()).hexdigest()

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
            # the parser reads no other key as one symbol, and a coordinate
            # or a reserved name would win over this constant
            if not is_name(key):
                _fail(f"constant {key!r} is not a name")
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
    metric_rows = _parse_block(metric_block, (n, n), "metric", allowed, " to match the chart")
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
        vectors = {key: _parse_block(block[key], (n,), f"vectors.{key}", allowed)
                   for key in ("X1", "X2")}

    if scalars is not None and vectors is not None:
        _fail("at most one of scalars/vectors may be given")
    if "fit" in constants.values() and scalars is None and vectors is None:
        _fail('"fit" constants need a scalars or vectors block')
    # note: a scalar referencing a constant marked "fit" is caught by the
    # unknown-symbol validation above, since fit targets carry no value

    structure = None
    if "structure" in data:
        block = data["structure"]
        if not isinstance(block, dict) or set(block) != {"phi", "xi", "eta"}:
            _fail('"structure" must be {"phi": [[...]], "xi": [...], "eta": [...]}')
        if n % 2 == 0:
            _fail("structure blocks need an odd-dimensional chart")
        structure = {key: _parse_block(block[key], shape, f"structure.{key}", allowed)
                     for key, shape in (("phi", (n, n)), ("xi", (n,)), ("eta", (n,)))}

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
    )


def bundled_examples(name):
    """Load one of the built-in manifests: hyperbolic, cone, sasakian3, sasakian5."""
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
