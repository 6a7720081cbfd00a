"""Command-line front end.

    grsoliton <subcommand> --manifest PATH [--points N] [--seed S]
              [--tol T] [--format json|csv|table] [--d-convention half|plain]

Subcommands: check-soliton, check-structure, check-theorem, fit, all.
--manifest also accepts a bundled name: hyperbolic, cone, sasakian3,
sasakian5.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad manifest or
arguments, 3 expression domain error at the sample points.
"""

import argparse
import functools
import sys

from grsoliton.expr import DomainError
from grsoliton.manifest import BUNDLED_NAMES, ManifestError, resolve_manifest
from grsoliton.report import emit_report
from grsoliton.runner import SUBCOMMANDS, run_manifest

_EXPRESSION_NOTES = """\
expression grammar notes:
  '^' is right-associative (2^3^2 = 2^(3^2) = 512) and binds tighter than
  unary minus, so -x^2 means -(x^2).  Functions: exp, ln, sin, cos, tan,
  cot, sqrt.  'pi' and 'e' are constants.  Anything else is a chart
  coordinate or a named constant from the manifest.

exit codes: 0 pass, 1 check failure, 2 bad manifest, 3 domain error.
bundled manifests: """ + ", ".join(BUNDLED_NAMES)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="grsoliton",
        description="Verify generalised Ricci soliton equations and Sasakian "
                    "structure ladders on coordinate-chart manifests.",
        epilog=_EXPRESSION_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "check-soliton": "residual of the soliton equation (gradient or vector form)",
        "check-structure": "almost-contact axioms and the Sasakian ladder",
        "check-theorem": "the alignment condition and its supporting identities",
        "fit": "least-squares recovery of the constants (c1, c2, lambda)",
        "all": "every check the manifest has data for",
    }
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--manifest", required=True,
                       help="manifest path or bundled name "
                            f"({', '.join(BUNDLED_NAMES)})")
        p.add_argument("--points", type=int, default=None, metavar="N",
                       help="override the manifest's sample count")
        p.add_argument("--seed", type=int, default=None, metavar="S",
                       help="override the manifest's sampling seed")
        p.add_argument("--tol", type=float, default=None, metavar="T",
                       help="override the manifest's tolerance")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table", help="report format (default: table)")
        p.add_argument("--d-convention", choices=("half", "plain"),
                       default="half", dest="d_convention",
                       help="exterior-derivative factor convention")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        manifest = resolve_manifest(args.manifest)
        report = run_manifest(
            manifest, args.subcommand,
            count=args.points, seed=args.seed, tolerance=args.tol,
            d_convention=args.d_convention,
        )
    except ManifestError as ex:
        print(f"manifest error: {ex}", file=sys.stderr)
        return 2
    except DomainError as ex:
        print(f"domain error: {ex}", file=sys.stderr)
        return 3
    print(emit_report(report, args.format))
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
