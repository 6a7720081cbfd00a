"""Verification toolkit for generalised Ricci soliton equations on charts.

Layers, bottom up: expression trees (parse/differentiate/evaluate), charts
and metric fields, symbolic tensor calculus, almost-contact structure
classification, soliton residual checks with constant fitting, and a
manifest-driven CLI.
"""

from grsoliton.chart import (
    Chart,
    ChartError,
    MetricError,
    MetricField,
    define_chart,
    define_metric,
    metric_inverse_at,
    sample_points,
)
from grsoliton.contact import (
    AlmostContactStructure,
    StructureError,
    assemble_structure,
    exterior_derivative_oneform,
    fundamental_form,
    ladder_checks,
    ladder_rows,
    nijenhuis_torsion,
    ricci_reeb_check,
    sasakian_identity_checks,
)
from grsoliton.expr import (
    DomainError,
    Expression,
    ParseError,
    UnboundSymbolError,
    UnknownFunctionError,
    differentiate,
    evaluate,
    free_symbols,
    parse,
    render,
)
from grsoliton.fit import FitResult, fit_constants
from grsoliton.manifest import (
    BUNDLED_NAMES,
    Manifest,
    ManifestError,
    bundled_examples,
    load_manifest,
    resolve_manifest,
)
from grsoliton.report import Report, emit_report
from grsoliton.runner import run_manifest
from grsoliton.soliton import (
    ResidualReport,
    SolitonForm,
    build_soliton_check,
    build_theorem_checks,
    classify_constants,
    gradient_form,
    run_checks,
    vector_form,
)
from grsoliton.tensors import (
    TensorField,
    christoffel,
    covariant_derivative,
    gradient,
    hessian,
    lie_bracket,
    lie_derivative_sym2,
    musical_flat,
    musical_sharp,
    ricci,
    riemann,
    riemann_lowered,
    sym_product,
)

__version__ = "0.1.0"
