"""Run a fixed matrix of CLI cases and compare two runs of it.

    PYTHONPATH=src python tools/report_matrix.py run OUT.json
    python tools/report_matrix.py diff BEFORE.json AFTER.json

`run` calls grsoliton.cli.main in-process on every case of the matrix and
writes {case: [exit code, report, stderr]} as JSON, where report is the
parsed JSON report without elapsed_seconds (--format json), the csv text
(--format csv) or the table text with its elapsed time blanked (--format
table), and "" when the run printed nothing.  A case that raises records
the exception's type name in place of the exit code and its message in
place of stderr, and the run goes on.  Point PYTHONPATH at another
checkout's src to record that checkout.

`diff` prints every case whose entry differs, by row and key for JSON
reports and by line for tables, then a count, then how many cases change
exit code or the `passed` of some JSON row, and the largest change of
`abs_residual` and of `rel_residual` among JSON rows that pass on both
sides (a change that only rounds reads 0 cases and small moves); it exits
1 when any case differs.  A case that raises on one side only changes
exit code.

The matrix: the four bundled manifests as they are, with lambda + 1 and
with lambda = "fit"; a NaN eta, an infinite eta, a transposed phi,
f2 = sqrt(x - 1.97), an overflowing f1 and f2 = sin(1e400*z), whose
literal is too large for a float (a manifest error); the vector form on
Euclidean R^3 with X1 the position field (L_X1 g = 2g, so lambda = 1),
with lambda + 1 and with lambda = "fit"; sasakian3 with a 2-component xi
(short-xi), hyperbolic with the coordinate x named "é" (unicode-coordinate),
hyperbolic with JSON false off-diagonal metric entries and an extra
constant "False": 0 (literal-entries), and sasakian5 deformed
D-homothetically at a = 64 (sasakian5-a64), still a soliton with the same
constants, whose entries reach about a^2; sasakian3 with every entry
and potential spelled so that it folds back to the bundled one
(sasakian3-foldable: -(-(e))*(1+1)/2, 0*x, exp((1+1)*y), 2^1*ln(...) and
+ 0*x); hyperbolic and sasakian3 sampled on a grid (hyperbolic-grid,
sasakian3-grid), whose points the seed does not move; x the five
subcommands x N = 2, 200, 3,000, 8,193 and 20,000 x seeds 7, 8 and 11 x
both d-conventions x json, csv and table (12,600 cases).  The evaluation plan runs N points as
ceil(N / 8,192) chunks of one width: 8,193 points, one more than a chunk
holds, run as 4,097 + 4,096 and 20,000 as 6,667 + 6,667 + 6,666, so chunk
edges, a shorter last chunk, and worst points and first bad points past
the first chunk are covered.  2 points are too few to fit: the fit row
fails, and a "fit" constant is an error.
"""

import contextlib
import copy
import io
import itertools
import json
import re
import sys
import warnings
from importlib import resources

SUBCOMMANDS = ("check-soliton", "check-structure", "check-theorem", "fit", "all")
POINTS = (2, 200, 3000, 8193, 20000)
SEEDS = (7, 8, 11)
CONVENTIONS = ("half", "plain")
FORMATS = ("json", "csv", "table")

# eta_z = sqrt(x)^2/x is 1 for x > 0 and NaN for x < 0
_FLAT = {
    "chart": {"coords": ["x", "y", "z"], "bounds": {"x": [-1, 1]}},
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "structure": {"phi": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
                  "xi": ["0", "0", "1"], "eta": ["0", "0", "sqrt(x)^2/x"]},
}

# L_X1 g = 2g for the position field X1 on Euclidean R^3
_DILATION = {
    "chart": {"coords": ["x", "y", "z"]},
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "vectors": {"X1": ["x", "y", "z"], "X2": ["0", "0", "0"]},
    "constants": {"c1": 0, "c2": 0, "lambda": 1},
}


def _bundled(name):
    return json.loads(resources.files("grsoliton").joinpath(f"data/{name}.json").read_text())


def manifests():
    """{label: --manifest value}, a bundled name or JSON text."""
    out = {}
    for name in ("hyperbolic", "cone", "sasakian3", "sasakian5"):
        out[name] = name
        shifted = _bundled(name)
        shifted["constants"]["lambda"] += 1
        out[f"{name}+lambda1"] = json.dumps(shifted)
        fitted = _bundled(name)
        fitted["constants"]["lambda"] = "fit"
        out[f"{name}+lambdafit"] = json.dumps(fitted)
    out["nan-eta"] = json.dumps(_FLAT)
    inf_eta = copy.deepcopy(_FLAT)
    # exp(1000 x) is infinite for x above about 0.71, finite elsewhere
    inf_eta["structure"]["eta"] = ["0", "0", "1 + exp(1000*x)"]
    out["inf-eta"] = json.dumps(inf_eta)
    failing_phi = _bundled("sasakian3")
    failing_phi["structure"]["phi"] = [list(r) for r in zip(*failing_phi["structure"]["phi"])]
    out["failing-phi"] = json.dumps(failing_phi)
    sqrt_f2 = _bundled("sasakian3")
    sqrt_f2["scalars"]["f2"] = "sqrt(x - 1.97)"
    out["sqrt-f2"] = json.dumps(sqrt_f2)
    overflow = _bundled("sasakian3")
    overflow["scalars"]["f1"] += " + (1e200*z)*(1e200*z)"
    out["overflow"] = json.dumps(overflow)
    inf_literal = _bundled("sasakian3")
    inf_literal["scalars"]["f2"] = "sin(1e400*z)"
    out["inf-literal"] = json.dumps(inf_literal)
    out["dilation"] = json.dumps(_DILATION)
    shifted = copy.deepcopy(_DILATION)
    shifted["constants"]["lambda"] += 1
    out["dilation+lambda1"] = json.dumps(shifted)
    fitted = copy.deepcopy(_DILATION)
    fitted["constants"]["lambda"] = "fit"
    out["dilation+lambdafit"] = json.dumps(fitted)
    short_xi = _bundled("sasakian3")
    short_xi["structure"]["xi"] = ["0", "1"]
    out["short-xi"] = json.dumps(short_xi)
    unicode_coordinate = _bundled("hyperbolic")
    unicode_coordinate["chart"]["coords"] = ["é", "y"]
    out["unicode-coordinate"] = json.dumps(unicode_coordinate)
    literal_entries = _bundled("hyperbolic")
    literal_entries["metric"] = [["1/y^2", False], [False, "1/y^2"]]
    literal_entries["constants"]["False"] = 0
    out["literal-entries"] = json.dumps(literal_entries)
    out["sasakian5-a64"] = json.dumps(_deformed(_bundled("sasakian5"), 64))
    out["sasakian3-foldable"] = json.dumps(_foldable(_bundled("sasakian3")))
    for name in ("hyperbolic", "sasakian3"):
        grid = _bundled(name)
        grid["sampling"]["strategy"] = "grid"
        out[f"{name}-grid"] = json.dumps(grid)
    return out


def _foldable(doc):
    """doc with every entry spelled so that constant folding and the
    identity rules give back the entry: a zero metric, phi, xi or eta entry
    as 0*x or 0*z in turn, any other entry e as -(-(e))*(1+1)/2, and each
    potential with exp((1+1)*y) and 2^1*ln(...), ending in + 0*x."""
    zeros = itertools.cycle(("0*x", "0*z"))

    def spelled(e):
        return next(zeros) if e == "0" else f"-(-({e}))*(1+1)/2"

    structure = doc["structure"]
    doc["metric"] = [[spelled(e) for e in row] for row in doc["metric"]]
    structure["phi"] = [[spelled(e) for e in row] for row in structure["phi"]]
    for key in ("xi", "eta"):
        structure[key] = [spelled(e) for e in structure[key]]
    for key, f in doc["scalars"].items():
        f = f.replace("exp(2*y)", "exp((1+1)*y)").replace("2*ln(", "2^1*ln(")
        doc["scalars"][key] = f + " + 0*x"
    return doc


def _deformed(doc, a):
    """doc's Sasakian structure D-homothetically deformed by a (Tanno,
    Tohoku Math. J. 21, 1968): g -> a g + (a^2 - a) eta.eta, eta -> a eta,
    and xi, X1 and X2 divided by a; the soliton's constants are unchanged."""
    structure, vectors = doc["structure"], doc["vectors"]
    eta = structure["eta"]
    doc["metric"] = [[f"{a}*({g}) + {a * a - a}*({eta[i]})*({eta[j]})"
                      for j, g in enumerate(row)] for i, row in enumerate(doc["metric"])]
    structure["eta"] = [f"{a}*({e})" for e in eta]
    for block, key in ((structure, "xi"), (vectors, "X1"), (vectors, "X2")):
        block[key] = [f"({v})/{a}" for v in block[key]]
    return doc


def _run_case(main, manifest, argv, fmt):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        # every case shows its own warnings, not only the first in the process
        warnings.simplefilter("always")
        try:
            code = main([argv[0], "--manifest", manifest, *argv[1:]])
        except Exception as ex:  # recorded as an outcome, not the end of the run
            return [type(ex).__name__, stdout.getvalue(), str(ex)]
    out = stdout.getvalue()
    if out and fmt == "json":
        out = json.loads(out)
        out.pop("elapsed_seconds", None)
    elif out:
        out = re.sub(r"elapsed: \S+", "elapsed: -", out)
    return [code, out, stderr.getvalue()]


def run(path):
    from grsoliton.cli import main

    results = {}
    for (label, manifest), sub, n, seed, conv, fmt in itertools.product(
            manifests().items(), SUBCOMMANDS, POINTS, SEEDS, CONVENTIONS, FORMATS):
        argv = [sub, "--points", str(n), "--seed", str(seed), "--d-convention", conv,
                "--format", fmt]
        results[f"{label} {sub} N={n} seed={seed} d={conv} {fmt}"] = \
            _run_case(main, manifest, argv, fmt)
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"{len(results)} cases written to {path}")


RESIDUALS = ("abs_residual", "rel_residual")


def _rows(report):
    """{name: row} of a JSON report's checks, {} for any other output."""
    return {r["name"]: r for r in report.get("checks", [])} if isinstance(report, dict) else {}


def _row_diffs(before, after):
    """Lines naming every differing top-level key and every differing
    key of each check row (rows matched by name)."""
    lines = []
    for key in sorted(set(before) | set(after)):
        if key != "checks" and before.get(key) != after.get(key):
            lines.append(f"  {key}: {before.get(key)!r} -> {after.get(key)!r}")
    rows_a, rows_b = _rows(before), _rows(after)
    if list(rows_a) != list(rows_b):
        lines.append(f"  row order: {list(rows_a)} -> {list(rows_b)}")
    for name in [*rows_a, *(n for n in rows_b if n not in rows_a)]:
        a, b = rows_a.get(name, {}), rows_b.get(name, {})
        for key in [*a, *(k for k in b if k not in a)]:
            if a.get(key, "<absent>") != b.get(key, "<absent>"):
                lines.append(f"  row {name} {key}: {a.get(key, '<absent>')!r} -> "
                             f"{b.get(key, '<absent>')!r}")
    return lines


def diff(path_a, path_b):
    with open(path_a) as f:
        before = json.load(f)
    with open(path_b) as f:
        after = json.load(f)
    differing, verdicts = 0, 0
    moves = dict.fromkeys(RESIDUALS, 0.0)
    for case in sorted(set(before) | set(after)):
        a, b = before.get(case), after.get(case)
        if a == b:
            continue
        differing += 1
        print(case)
        if a is None or b is None:
            print(f"  only in {path_a if b is None else path_b}")
            continue
        (code_a, out_a, err_a), (code_b, out_b, err_b) = a, b
        rows_a, rows_b = _rows(out_a), _rows(out_b)
        verdicts += code_a != code_b or any(
            rows_a.get(name, {}).get("passed") != rows_b.get(name, {}).get("passed")
            for name in {*rows_a, *rows_b})
        for name in rows_a.keys() & rows_b.keys():
            if rows_a[name]["passed"] and rows_b[name]["passed"]:
                for key in RESIDUALS:
                    moves[key] = max(moves[key], abs(rows_b[name][key] - rows_a[name][key]))
        if code_a != code_b:
            print(f"  exit code: {code_a} -> {code_b}")
        if err_a != err_b:
            print(f"  stderr: {err_a!r} -> {err_b!r}")
        if isinstance(out_a, dict) and isinstance(out_b, dict):
            for line in _row_diffs(out_a, out_b):
                print(line)
        elif out_a != out_b:
            lines_a, lines_b = str(out_a).splitlines(), str(out_b).splitlines()
            for line_a, line_b in itertools.zip_longest(lines_a, lines_b, fillvalue=""):
                if line_a != line_b:
                    print(f"  - {line_a}\n  + {line_b}")
    print(f"{differing} of {len(set(before) | set(after))} cases differ")
    print(f"{verdicts} change exit code or a row's passed; largest change on rows passing "
          "on both sides: " + ", ".join(f"{key} {moves[key]:.3g}" for key in RESIDUALS))
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
