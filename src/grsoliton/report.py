"""Check-report assembly and emission (json, csv, table)."""

import json
import math
from dataclasses import dataclass


@dataclass
class Report:
    """Full run summary; checks are soliton.ResidualReport rows, and key
    order in the JSON form is construction order."""

    manifest_digest: str
    subcommand: str
    conventions: dict
    checks: list
    overall_pass: bool
    elapsed_seconds: float

    def as_dict(self):
        return {
            "manifest_digest": self.manifest_digest,
            "subcommand": self.subcommand,
            "conventions": dict(self.conventions),
            "checks": [row.as_dict() for row in self.checks],
            "overall_pass": self.overall_pass,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _strict(value):
    """JSON-ready copy of value with every non-finite float made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def emit_report(report, fmt="table"):
    """Render a report; json is strict, with null for non-finite numbers."""
    if fmt == "json":
        return json.dumps(_strict(report.as_dict()), indent=2, allow_nan=False)
    if fmt == "csv":
        lines = ["name,abs_residual,rel_residual,passed"]
        for row in report.checks:
            lines.append(f"{row.name},{row.abs_sup!r},{row.rel_sup!r},"
                         f"{'true' if row.passed else 'false'}")
        return "\n".join(lines)
    if fmt == "table":
        return _table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _table(report):
    headers = ("check", "abs residual", "rel residual", "tolerance", "status")
    rows = [(row.name, f"{row.abs_sup:.3e}", f"{row.rel_sup:.3e}",
             f"{row.tolerance:.1e}", "pass" if row.passed else "FAIL")
            for row in report.checks]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*r) for r in rows]
    conv = ", ".join(f"{k}={v}" for k, v in report.conventions.items())
    lines.append("")
    lines.append(f"conventions: {conv}")
    lines.append(f"manifest: {report.manifest_digest[:16]}  "
                 f"elapsed: {report.elapsed_seconds:.2f}s  "
                 f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return "\n".join(lines)
