"""Manifest pipelines behind the CLI subcommands.

Each subcommand maps the manifest blocks onto the corresponding checks and
collects one CheckRow per named check.  "all" runs every check the
manifest has data for.  The symbolic components of every row are built
first and evaluated as one plan; each row then reduces its own columns, in
report order.  Failures are rows with passed=False; structural problems
with the manifest raise ManifestError, and evaluation leaving an
expression's domain at every sample point raises DomainError.
"""

import functools
import math
import time

import numpy as np

from grsoliton.chart import evaluate_fields, sample_points
from grsoliton.contact import (
    StructureError,
    assemble_structure,
    ladder_fields,
    ladder_report,
    ricci_reeb_comps,
    sup_norm,
)
from grsoliton.fit import TooFewPointsError, design_fields, fit_design
from grsoliton.manifest import CONSTANT_KEYS, ManifestError
from grsoliton.report import CheckRow, Report
from grsoliton.soliton import (
    SolitonSpec,
    build_alignment_check,
    build_gradient_check,
    build_supporting_checks,
    build_transport_check,
    build_vector_check,
    diagnose_domain,
    residual_report,
)
from grsoliton.tensors import TensorField

SUBCOMMANDS = ("check-soliton", "check-structure", "check-theorem", "fit", "all")


def _row_from_report(report, **extra):
    payload = {"points_used": report.n_points, "points_skipped": report.n_skipped}
    payload.update(extra)
    return CheckRow(report.name, report.abs_sup, report.rel_sup,
                    report.tolerance, report.passed, payload)


def run_manifest(manifest, subcommand, points=None, count=None, seed=None,
                 tolerance=None, d_convention="half"):
    """Run one subcommand against a loaded manifest and build the Report."""
    if subcommand not in SUBCOMMANDS:
        raise ManifestError(f"unknown subcommand {subcommand!r}; "
                            f"choose from {SUBCOMMANDS}")
    started = time.perf_counter()
    tol = manifest.tolerance if tolerance is None else float(tolerance)
    sampling = dict(manifest.sampling)
    if count is not None:
        sampling["count"] = int(count)
    if seed is not None:
        sampling["seed"] = int(seed)
    if points is None:
        points = sample_points(manifest.chart, sampling["strategy"],
                               sampling["count"], sampling["seed"])

    run = _Run(manifest, points, tol)
    structure = None
    if subcommand in ("check-structure", "check-theorem", "all"):
        wants_structure = subcommand != "all" or manifest.structure is not None
        if manifest.structure is None and subcommand != "all":
            raise ManifestError(f"{subcommand} needs a structure block")
        if wants_structure:
            structure = _assemble(run, d_convention,
                                  classify=subcommand != "check-theorem")

    if subcommand in ("check-soliton", "all"):
        if manifest.mode is None and subcommand != "all":
            raise ManifestError("check-soliton needs a scalars or vectors block")
        if manifest.mode is not None:
            _soliton_rows(run)

    if subcommand in ("check-theorem", "all"):
        if subcommand == "check-theorem" and manifest.scalars is None:
            raise ManifestError("check-theorem needs a scalars block")
        if structure is not None and manifest.scalars is not None:
            _theorem_rows(run, structure)

    if subcommand in ("fit", "all"):
        if manifest.scalars is None and subcommand != "all":
            raise ManifestError("fit needs a scalars block")
        if manifest.scalars is not None:
            _fit_row(run, explicit=subcommand == "fit")

    if not run.groups:
        raise ManifestError(f"manifest has no content for subcommand {subcommand!r}")
    rows = run.rows()
    return Report(
        manifest_digest=manifest.digest,
        subcommand=subcommand,
        conventions={
            "d_convention": d_convention,
            "sym_product": "half",
            "phi_matrix": "column-input",
        },
        checks=rows,
        overall_pass=all(r.passed for r in rows),
        elapsed_seconds=time.perf_counter() - started,
    )


class _Run:
    """The rows of one run, as (fields, reduce) groups in report order.

    reduce receives the evaluated fields, each (npoints, *shape), and
    returns the group's rows.  Every group's fields are evaluated together
    by rows(), and any "fit" constants are fitted once, on first use.
    """

    def __init__(self, manifest, points, tol):
        self.manifest = manifest
        self.points = points
        self.tol = tol
        self.groups = []

    def add(self, fields, reduce):
        self.groups.append((fields, reduce))

    def add_check(self, check, **extra):
        def reduce(res, ref):
            report = residual_report(check, res, ref, self.manifest.chart, self.points,
                                     self.manifest.params, self.tol)
            return [_row_from_report(report, **extra)]
        self.add([check.residual, check.reference], reduce)

    def rows(self):
        values = evaluate_fields([f for fields, _ in self.groups for f in fields],
                                 self.manifest.chart.env_at(self.points,
                                                            self.manifest.params),
                                 len(self.points))
        rows = []
        for fields, reduce in self.groups:
            rows.extend(reduce(*[next(values) for _ in fields]))
        # the reducers close over this run, so dropping them breaks the
        # cycle that would keep the run's points and nodes for the next GC
        self.groups = []
        return rows

    @functools.cached_property
    def resolved(self):
        """(constants, fit, design values): the numeric constants, fitting
        any marked "fit" with the rest pinned; fit and design values are
        None when nothing is fitted."""
        manifest = self.manifest
        resolved = dict(manifest.numeric_constants())
        if not manifest.fit_targets():
            return resolved, None, None
        fields = _design_fields(manifest)
        design = list(evaluate_fields(
            fields, manifest.chart.env_at(self.points, manifest.params), len(self.points)))
        try:
            fit = fit_design(design, {k: v for k, v in resolved.items()
                                      if k in CONSTANT_KEYS})
        except TooFewPointsError as ex:
            # no row that uses the constants can be built without them
            if ex.valid.all():
                raise ManifestError(
                    f"fitting {', '.join(manifest.fit_targets())} needs at least 3 "
                    f"sample points, got {len(self.points)}") from None
            self.diagnose(fields, int(np.argmin(ex.valid)))
        for name, value in zip(fit.free_names, fit.solution):
            resolved[name] = float(value)
        return resolved, fit, design

    def diagnose(self, fields, index):
        """Raise the DomainError of fields at sample point index."""
        diagnose_domain(self.manifest.chart, [c for f in fields for c in f],
                        self.points[index], self.manifest.params)


def _assemble(run, d_convention, classify=True):
    manifest, tol = run.manifest, run.tol
    block = manifest.structure
    try:
        structure = assemble_structure(manifest.chart, manifest.metric,
                                       block["phi"], block["xi"], block["eta"],
                                       points=run.points, params=manifest.params,
                                       tolerance=max(tol, 1e-8))
    except StructureError as ex:
        row = CheckRow("structure_axioms", ex.residual, ex.residual, tol, False,
                       {"axiom": ex.axiom, "worst_point": list(map(float, ex.point))})
        run.add([], lambda: [row])
        return None
    if classify:
        def reduce(*values):
            report = ladder_report(structure, values, tol, d_convention)
            res = report.residuals
            almost = max(res[k] for k in ("reeb_normalisation", "phi_square",
                                          "metric_compatibility", "reeb_kernel"))
            ladder = [
                ("structure_almost_contact", almost, report.almost_contact_metric),
                ("structure_contact", res["contact_condition"], report.contact_metric),
                ("structure_k_contact", res["reeb_transport"], report.k_contact),
                ("structure_normal", res["normality"], report.normal),
                ("structure_sasakian", max(res["contact_condition"], res["normality"]),
                 report.sasakian),
            ]
            rows = [CheckRow(name, value, value, tol, flag)
                    for name, value, flag in ladder]
            rows[-1].extra["d_convention"] = d_convention
            return rows
        run.add(ladder_fields(structure, d_convention), reduce)
    return structure


def _soliton_rows(run):
    manifest = run.manifest
    if manifest.mode == "gradient":
        constants, fit, _ = run.resolved
        if fit is not None:
            row = _fit_check_row(manifest, fit, run.tol, note="resolved-for-check")
            run.add([], lambda: [row])
        spec = SolitonSpec(manifest.metric, "gradient",
                           constants["c1"], constants["c2"], constants["lambda"],
                           f1=manifest.scalars["f1"], f2=manifest.scalars["f2"],
                           params=manifest.params)
        check = build_gradient_check(spec)
    else:
        constants = manifest.numeric_constants()
        X1 = TensorField(manifest.chart, "vector", manifest.vectors["X1"])
        X2 = TensorField(manifest.chart, "vector", manifest.vectors["X2"])
        spec = SolitonSpec(manifest.metric, "vector",
                           constants["c1"], constants["c2"], constants["lambda"],
                           X1=X1, X2=X2, params=manifest.params)
        check = build_vector_check(spec)
    run.add_check(check, constants={k: constants[k] for k in CONSTANT_KEYS})


def _theorem_rows(run, structure):
    constants, _, _ = run.resolved
    f1 = run.manifest.scalars["f1"]
    f2 = run.manifest.scalars["f2"]
    c1, c2, lam = (constants[k] for k in CONSTANT_KEYS)
    _, alignment = build_alignment_check(structure, f1, f2, c1)
    run.add_check(alignment)
    run.add_check(build_transport_check(structure, f1, f2, c1, c2, lam))

    def reeb_row(values):
        reeb = sup_norm(values)
        return [CheckRow("ricci_reeb", reeb, reeb, run.tol, reeb <= run.tol)]
    run.add([ricci_reeb_comps(structure)], reeb_row)
    for check in build_supporting_checks(structure, f1, f2, c1):
        run.add_check(check)


def _design_fields(manifest):
    return design_fields(manifest.metric, manifest.scalars["f1"], manifest.scalars["f2"])


def _fit_check_row(manifest, fit, tol, note=None):
    rel = fit.residual_sup / max(1.0, fit.target_sup)
    passed = rel <= tol
    extra = {
        "points_used": fit.n_points,
        "points_skipped": fit.n_skipped,
        "solution": {name: float(v) for name, v in zip(fit.free_names, fit.solution)},
        "rank": fit.rank,
        "null_space": [[float(v) for v in col] for col in fit.null_space.T],
    }
    declared = manifest.numeric_constants()
    if all(k in declared for k in fit.free_names):
        distance = fit.coset_distance([declared[k] for k in fit.free_names])
        extra["declared_distance"] = distance
        passed = passed and distance <= max(tol, 1e-8)
    if note:
        extra["note"] = note
    return CheckRow("fit_constants", fit.residual_sup, rel, tol, passed, extra)


def _fit_row(run, explicit):
    """The fit row: with "fit" targets, `fit` reports the run's restricted
    fit and `all` refits its design values with every constant free;
    otherwise the design joins the run's plan and is fitted unrestricted."""
    manifest = run.manifest
    _, fit, design = run.resolved
    if fit is None:
        fields = _design_fields(manifest)
        run.add(fields, lambda *values: [_unrestricted_fit_row(run, fields, values)])
    elif explicit:
        run.add([], lambda: [_fit_check_row(manifest, fit, run.tol)])
    else:
        run.add([], lambda: [_fit_check_row(manifest, fit_design(design), run.tol)])


def _unrestricted_fit_row(run, fields, values):
    """The fit row of a design fitted with every constant free; with fewer
    than 3 valid points it fails, and with none it is a DomainError."""
    try:
        fit = fit_design(values)
    except TooFewPointsError as ex:
        n_valid = int(np.count_nonzero(ex.valid))
        if not n_valid:
            run.diagnose(fields, 0)
        return CheckRow("fit_constants", math.nan, math.nan, run.tol, False,
                        {"points_used": n_valid, "points_skipped": len(ex.valid) - n_valid,
                         "note": "fewer than 3 valid sample points"})
    return _fit_check_row(run.manifest, fit, run.tol)
