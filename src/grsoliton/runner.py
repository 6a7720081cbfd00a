"""Manifest pipelines behind the CLI subcommands.

Each subcommand maps the manifest blocks onto the corresponding checks and
collects one CheckRow per named check.  "all" runs every check the
manifest has data for.  The symbolic components of every row are built
first and evaluated as one plan, which every row reduces chunk by chunk
as the chunks are computed; the rows are then finished in report order.
Failures are rows with passed=False; structural problems with the
manifest raise ManifestError, and evaluation leaving an expression's
domain at every sample point raises DomainError.
"""

import functools
import math
import time

import numpy as np

from grsoliton.chart import (
    FieldValues,
    SupNorms,
    evaluate_fields,
    reduce_fields,
    sample_points,
)
from grsoliton.contact import (
    LadderSups,
    StructureError,
    assemble_structure,
    ladder_fields,
    ricci_reeb_comps,
)
from grsoliton.fit import TooFewPointsError, design_fields, fit_design
from grsoliton.manifest import CONSTANT_KEYS, ManifestError
from grsoliton.report import CheckRow, Report
from grsoliton.soliton import (
    ResidualSup,
    SolitonSpec,
    build_alignment_check,
    build_gradient_check,
    build_supporting_checks,
    build_transport_check,
    build_vector_check,
    diagnose_domain,
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
    """The rows of one run, as (fields, accumulator, rows_of) groups in
    report order.

    rows() evaluates every group's fields as one plan and feeds each
    chunk's values to the group's accumulator (see chart.reduce_fields);
    rows_of(run, accumulator.finish()) then gives the group's rows.  A
    group without fields has no accumulator, and rows_of receives None.
    Accumulators and rows_of hold no reference to the run, so a run is
    never part of a reference cycle.  Any "fit" constants are fitted once,
    on first use.
    """

    def __init__(self, manifest, points, tol):
        self.manifest = manifest
        self.points = points
        self.tol = tol
        self.groups = []

    def add(self, fields, accumulator, rows_of):
        self.groups.append((fields, accumulator, rows_of))

    def add_rows(self, *rows):
        self.add([], None, lambda run, result: list(rows))

    def add_check(self, check, **extra):
        manifest = self.manifest
        self.add(check.fields,
                 ResidualSup(check, manifest.chart, self.points, manifest.params, self.tol),
                 functools.partial(_check_rows, extra=extra))

    def rows(self):
        try:
            reduce_fields([(fields, acc) for fields, acc, _ in self.groups
                           if acc is not None],
                          self.manifest.chart.env_at(self.points, self.manifest.params),
                          len(self.points))
            rows = []
            for _, acc, rows_of in self.groups:
                rows.extend(rows_of(self, None if acc is None else acc.finish()))
            return rows
        finally:
            # on every exit, a DomainError's included, so that a run never
            # keeps its accumulators and their values
            self.groups = []

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
        run.add_rows(row)
        return None
    if classify:
        run.add(ladder_fields(structure, d_convention),
                LadderSups(structure, tol, d_convention), _ladder_rows)
    return structure


def _ladder_rows(run, report):
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
    rows = [CheckRow(name, value, value, report.tolerance, flag)
            for name, value, flag in ladder]
    rows[-1].extra["d_convention"] = report.d_convention
    return rows


def _check_rows(run, report, extra):
    return [_row_from_report(report, **extra)]


def _soliton_rows(run):
    manifest = run.manifest
    if manifest.mode == "gradient":
        constants, fit, _ = run.resolved
        if fit is not None:
            run.add_rows(_fit_check_row(manifest, fit, run.tol, note="resolved-for-check"))
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
    run.add([ricci_reeb_comps(structure)], SupNorms(), _reeb_rows)
    for check in build_supporting_checks(structure, f1, f2, c1):
        run.add_check(check)


def _reeb_rows(run, sups):
    reeb = sups[0]
    return [CheckRow("ricci_reeb", reeb, reeb, run.tol, reeb <= run.tol)]


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
        run.add(fields, FieldValues([(len(f),) for f in fields], len(run.points)),
                functools.partial(_unrestricted_fit_rows, fields=fields))
    elif explicit:
        run.add_rows(_fit_check_row(manifest, fit, run.tol))
    else:
        run.add([], None,
                lambda run, _: [_fit_check_row(run.manifest, fit_design(design), run.tol)])


def _unrestricted_fit_rows(run, values, fields):
    """The fit row of a design fitted with every constant free; with fewer
    than 3 valid points it fails, and with none it is a DomainError."""
    try:
        fit = fit_design(values)
    except TooFewPointsError as ex:
        n_valid = int(np.count_nonzero(ex.valid))
        if not n_valid:
            run.diagnose(fields, 0)
        return [CheckRow("fit_constants", math.nan, math.nan, run.tol, False,
                         {"points_used": n_valid, "points_skipped": len(ex.valid) - n_valid,
                          "note": "fewer than 3 valid sample points"})]
    return [_fit_check_row(run.manifest, fit, run.tol)]
