"""Manifest pipelines behind the CLI subcommands.

Each subcommand maps the manifest blocks onto the corresponding checks and
reports one row per named check: a soliton.ResidualReport, the one a
check's reducer gives or one made from it, with the row's further keys in
its details.  "all" runs every check the manifest has data for.  The
theorem rows are the checks of soliton.build_theorem_checks, with the
Ricci-Reeb check of contact.py after grad_transport.  A run
that fits the constants first reduces the fit's design to a small R
factor, in the pass that runs before the main plan anyway (the
almost-contact axiom gate) or else in one of its own; either runs before
any row is built.  The symbolic components of every row, the fit row's
residual at the fitted constants included, are then built and evaluated
as one plan, which every row reduces chunk by chunk as the chunks are
computed; the rows are then finished in report order.  Failures are rows with
passed=False; structural problems with the manifest raise ManifestError,
and evaluation leaving an expression's domain at every sample point
raises DomainError.
"""

import dataclasses
import functools
import math
import time

from grsoliton.chart import Sample, reduce_fields
from grsoliton.contact import (
    StructureError,
    assemble_structure,
    ladder_checks,
    ladder_rows,
    ricci_reeb_check,
)
from grsoliton.fit import FitQR, TooFewPointsError, design_fields
from grsoliton.manifest import ManifestError, run_settings
from grsoliton.report import Report
from grsoliton.soliton import (
    CONSTANT_ORDER,
    ResidualReport,
    build_soliton_check,
    build_theorem_checks,
    diagnose_domain,
    gradient_form,
    run_checks,
    vector_form,
)
from grsoliton.tensors import vector_field

# the blocks each subcommand needs, as (Manifest attribute, block name) in
# the order they are checked; "all" runs whatever the manifest has
_NEEDS = {
    "check-soliton": (("mode", "scalars or vectors"),),
    "check-structure": (("structure", "structure"),),
    "check-theorem": (("structure", "structure"), ("scalars", "scalars")),
    "fit": (("mode", "scalars or vectors"),),
    "all": (),
}
SUBCOMMANDS = tuple(_NEEDS)


def run_manifest(manifest, subcommand, count=None, seed=None, tolerance=None,
                 d_convention="half"):
    """Run one subcommand against a loaded manifest and build the Report."""
    if subcommand not in _NEEDS:
        raise ManifestError(f"unknown subcommand {subcommand!r}; "
                            f"choose from {SUBCOMMANDS}")
    started = time.perf_counter()
    for attribute, block in _NEEDS[subcommand]:
        if getattr(manifest, attribute) is None:
            raise ManifestError(f"{subcommand} needs a {block} block")
    sampling, tol = run_settings(manifest.sampling, manifest.tolerance, count, seed, tolerance)
    points = Sample(manifest.chart, sampling["strategy"], sampling["count"], sampling["seed"])

    # the fit row, or "fit" constants for the soliton or theorem rows
    fits = manifest.mode is not None and (
        subcommand in ("fit", "all")
        or (bool(manifest.fit_targets()) and subcommand != "check-structure"))
    run = _Run(manifest, points, tol, fits)
    # the first pass: the fit's design, in the axiom gate's pass or its own
    first = [(design_fields(manifest.metric, run.form), run.design)] if fits else []
    structure = None
    if subcommand in ("check-structure", "check-theorem", "all") \
            and manifest.structure is not None:
        structure = _assemble(run, d_convention, first,
                              classify=subcommand != "check-theorem")
    elif first:
        reduce_fields(first, manifest.chart.env_at(points, manifest.params), len(points))
    if subcommand in ("check-soliton", "all") and manifest.mode is not None:
        _soliton_rows(run)
    if subcommand in ("check-theorem", "all") and structure is not None \
            and manifest.scalars is not None:
        _theorem_rows(run, structure)
    if subcommand in ("fit", "all") and manifest.mode is not None:
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
    """The rows of one run, as (checks, rows_of) groups in report order.

    rows() evaluates every group's checks as one plan (soliton.run_checks);
    rows_of(run, reports) then gives the group's rows from the
    ResidualReports of its checks, and without a rows_of the rows are
    those reports.  rows_of holds no reference to the run, so a run is
    never part of a reference cycle.

    form is the manifest's soliton form, built once when first read.
    design is the FitQR of a run that fits, else None; run_manifest feeds
    it in the run's first pass, before any row is built, and every fit of
    the run, restricted to "fit" constants or not, is solved from its one R.
    """

    def __init__(self, manifest, points, tol, fits):
        self.manifest = manifest
        self.points = points
        self.tol = tol
        self.groups = []
        self.design = FitQR(self.form) if fits else None

    def add(self, checks, rows_of=None):
        self.groups.append((checks, rows_of))

    def rows(self):
        manifest = self.manifest
        checks = [check for group, _ in self.groups for check in group]
        try:
            reports = iter(run_checks(manifest.chart, checks, self.points, manifest.params,
                                      self.tol))
            rows = []
            for checks, rows_of in self.groups:
                group = [next(reports) for _ in checks]
                rows.extend(group if rows_of is None else rows_of(self, group))
            return rows
        finally:
            # on every exit, a DomainError's included, so that a run never
            # keeps its checks and the fits its rows hold
            self.groups = []

    @functools.cached_property
    def form(self):
        """The SolitonForm of the manifest's scalars or vectors block."""
        manifest = self.manifest
        if manifest.mode == "gradient":
            return gradient_form(manifest.metric, manifest.scalars["f1"], manifest.scalars["f2"])
        X1, X2 = (vector_field(manifest.chart, manifest.vectors[k]) for k in ("X1", "X2"))
        return vector_form(manifest.metric, X1, X2)

    @functools.cached_property
    def resolved(self):
        """(constants, fit): the numeric constants, fitting any marked
        "fit" with the rest pinned; fit is None when nothing is fitted."""
        manifest = self.manifest
        resolved = dict(manifest.numeric_constants())
        if not manifest.fit_targets():
            return resolved, None
        try:
            fit = self.design.finish({k: v for k, v in resolved.items()
                                      if k in CONSTANT_ORDER})
        except TooFewPointsError as ex:
            # no row that uses the constants can be built without them
            if ex.first_bad is None:
                raise ManifestError(
                    f"fitting {', '.join(manifest.fit_targets())} needs at least 3 "
                    f"sample points, got {len(self.points)}") from None
            self.diagnose(ex.first_bad)
        for name, value in zip(fit.free_names, fit.solution):
            resolved[name] = float(value)
        return resolved, fit

    def diagnose(self, index):
        """Raise the DomainError of the fit's design at sample point index."""
        manifest = self.manifest
        fields = design_fields(manifest.metric, self.form)
        diagnose_domain(manifest.chart, [c for f in fields for c in f], self.points[index],
                        manifest.params)


def _assemble(run, d_convention, first, classify=True):
    manifest, tol = run.manifest, run.tol
    block = manifest.structure
    try:
        structure = assemble_structure(manifest.chart, manifest.metric,
                                       block["phi"], block["xi"], block["eta"],
                                       points=run.points, params=manifest.params,
                                       tolerance=max(tol, 1e-8), groups=first)
    except StructureError as ex:
        row = ResidualReport("structure_axioms", ex.residual, ex.residual, tol, False,
                             details={"axiom": ex.axiom,
                                      "worst_point": list(map(float, ex.point))})
        run.add([], lambda run, reports: [row])
        return None
    if classify:
        run.add(ladder_checks(structure, d_convention),
                lambda run, reports: ladder_rows(structure, reports, run.tol, d_convention,
                                                 len(run.points)))
    return structure


def _soliton_rows(run):
    constants, fit = run.resolved
    constants = {k: constants[k] for k in CONSTANT_ORDER}
    check = build_soliton_check(run.manifest.metric, run.form, *constants.values())
    if fit is None:
        run.add([check], functools.partial(_soliton_row, constants=constants))
    else:
        # the restricted fit is measured at the constants it resolved, so
        # its row and the soliton row read one report
        run.add([check], functools.partial(_fit_rows, fit=fit, restricted=True,
                                           constants=constants))


def _soliton_row(run, reports, constants):
    """The soliton row: its check's report, with the constants it used."""
    [report] = reports
    report.details["constants"] = constants
    return [report]


def _theorem_rows(run, structure):
    constants, _ = run.resolved
    f1 = run.manifest.scalars["f1"]
    f2 = run.manifest.scalars["f2"]
    # built first: the theorem checks reuse the Christoffel derivatives
    # that its Ricci tensor holds; its row follows grad_transport
    ricci_reeb = ricci_reeb_check(structure)
    checks = build_theorem_checks(structure, f1, f2, *(constants[k] for k in CONSTANT_ORDER))
    run.add([*checks[:2], ricci_reeb, *checks[2:]])


def _fit_rows(run, reports, fit, restricted=False, constants=None):
    """The fit row of fit, whose residual is the report of the manifest's
    form at its constants, named fit_constants_restricted for the fit that
    resolves "fit" constants for the other rows; then, if constants are
    given, the soliton row of the same report."""
    manifest, tol = run.manifest, run.tol
    [report] = reports
    passed = report.passed
    details = {
        "solution": {name: float(v) for name, v in zip(fit.free_names, fit.solution)},
        "rank": fit.rank,
        "null_space": [[float(v) for v in col] for col in fit.null_space.T],
    }
    declared = manifest.numeric_constants()
    if all(k in declared for k in fit.free_names):
        distance = fit.coset_distance([declared[k] for k in fit.free_names])
        details["declared_distance"] = distance
        passed = passed and distance <= max(tol, 1e-8)
    name = "fit_constants"
    if restricted:
        name += "_restricted"
        details["note"] = "resolved-for-check"
    rows = [dataclasses.replace(report, name=name, passed=passed, n_points=fit.n_points,
                                n_skipped=fit.n_skipped, details=details)]
    if constants is not None:
        rows += _soliton_row(run, reports, constants)
    return rows


def _fit_row(run, explicit):
    """The fit row: with "fit" targets, `fit` reports the run's restricted
    fit; otherwise the run's design is fitted with every constant free.
    Either is measured by the manifest's form at its constants in the main
    plan."""
    constants, fit = run.resolved
    if fit is None or not explicit:
        try:
            fit = run.design.finish()
        except TooFewPointsError as ex:
            run.add([], functools.partial(_too_few_points_rows, n_valid=ex.n_valid,
                                          first_bad=ex.first_bad))
            return
        constants = dict(zip(fit.free_names, fit.solution))
    check = build_soliton_check(run.manifest.metric, run.form,
                                *(constants[k] for k in CONSTANT_ORDER))
    run.add([check], functools.partial(_fit_rows, fit=fit))


def _too_few_points_rows(run, _, n_valid, first_bad):
    """The fit row of a design with fewer than 3 valid points: it fails,
    and with none it is a DomainError."""
    if not n_valid:
        run.diagnose(first_bad)
    return [ResidualReport("fit_constants", math.nan, math.nan, run.tol, False, n_valid,
                           len(run.points) - n_valid,
                           {"note": "fewer than 3 valid sample points"})]
