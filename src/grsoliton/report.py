"""Check-report assembly and emission (json, csv, table)."""

import json
import math
from dataclasses import dataclass, field


@dataclass
class CheckRow:
    """One named check with its residual statistics."""

    name: str
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def as_dict(self):
        out = {
            "name": self.name,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        out.update(self.extra)
        return out


@dataclass
class Report:
    """Full run summary; key order in the JSON form is construction order."""

    manifest_digest: str
    subcommand: str
    conventions: dict
    checks: list
    overall_pass: bool
    elapsed_seconds: float

    def as_dict(self, include_timing=True):
        out = {
            "manifest_digest": self.manifest_digest,
            "subcommand": self.subcommand,
            "conventions": dict(self.conventions),
            "checks": [row.as_dict() for row in self.checks],
            "overall_pass": self.overall_pass,
        }
        if include_timing:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


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
            lines.append(f"{row.name},{row.abs_residual!r},{row.rel_residual!r},"
                         f"{'true' if row.passed else 'false'}")
        return "\n".join(lines)
    if fmt == "table":
        return _table(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _table(report):
    headers = ("check", "abs residual", "rel residual", "tolerance", "status")
    rows = [(row.name, f"{row.abs_residual:.3e}", f"{row.rel_residual:.3e}",
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
