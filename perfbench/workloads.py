"""Workloads, their operation sequences and the known answer for each.

An operation is one `grsoliton all` call made in-process through
grsoliton.cli.main.  Operation i of a workload runs kind i mod len(kinds)
with a fresh seed derived from the run seed; every fourth operation
(i mod 4 == 1) is a negative control whose declared lambda is shifted by
+1 while the potentials stay fixed.
"""

import json
import random
from dataclasses import dataclass
from importlib import resources

NEGATIVE_PERIOD = 4
NEGATIVE_PHASE = 1
LAMBDA_SHIFT = 1.0

SOLITON_ROWS = ("soliton_gradient", "fit_constants")
SASAKIAN_ROWS = (
    "structure_almost_contact", "structure_contact", "structure_k_contact",
    "structure_normal", "structure_sasakian", "soliton_gradient",
    "theorem_alignment", "grad_transport", "ricci_reeb", "double_lie",
    "potential_square_lie", "scalar_reduction", "fit_constants",
)
# lambda enters only the gradient-form residual, the grad-transport identity
# nabla_xi grad f1 = (lam + 2 c2 n) xi - ..., and the distance of the
# declared constants from the fitted ones; every other row ignores it
LAMBDA_ROWS = frozenset(("soliton_gradient", "grad_transport", "fit_constants"))


@dataclass(frozen=True)
class Kind:
    """One bundled manifest of a workload, with its negative control."""

    name: str                # bundled name, passed as --manifest as is
    negative_manifest: str   # JSON text with lambda shifted
    rows: tuple              # rows `all` must report for this manifest


@dataclass(frozen=True)
class Operation:
    index: int
    kind: str
    manifest: str
    points: int
    seed: int
    negative: bool
    rows: tuple

    def argv(self):
        return ["all", "--manifest", self.manifest, "--points", str(self.points),
                "--seed", str(self.seed), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    points: int
    kinds: tuple
    seed: int

    def _op_seed(self, tag):
        return random.Random(f"{self.name}:{self.seed}:{tag}").randrange(1, 2 ** 31)

    def operation(self, index):
        kind = self.kinds[index % len(self.kinds)]
        negative = index % NEGATIVE_PERIOD == NEGATIVE_PHASE
        return Operation(index, kind.name,
                         kind.negative_manifest if negative else kind.name,
                         self.points, self._op_seed(index), negative, kind.rows)

    def warmup(self):
        """One positive operation per kind, with seeds no timed op uses."""
        return [Operation(-1 - k, kind.name, kind.name, self.points,
                          self._op_seed(f"warm{k}"), False, kind.rows)
                for k, kind in enumerate(self.kinds)]

    def trace_round(self):
        """The shortest prefix of the sequence covering every kind and one
        negative control."""
        return [self.operation(i)
                for i in range(max(len(self.kinds), NEGATIVE_PHASE + 1))]


def _bundled_kind(name):
    data = json.loads(resources.files("grsoliton").joinpath(f"data/{name}.json")
                      .read_text(encoding="utf-8"))
    data["constants"]["lambda"] += LAMBDA_SHIFT
    rows = SASAKIAN_ROWS if "structure" in data else SOLITON_ROWS
    return Kind(name, json.dumps(data), rows)


NAMES = ("cold-small", "eval-large")


def build(name, seed):
    """The workload's inputs, generated from the seed."""
    if name == "cold-small":
        return Workload(name, 200, tuple(_bundled_kind(m) for m in
                                         ("hyperbolic", "cone", "sasakian3")), seed)
    if name == "eval-large":
        return Workload(name, 100_000, (_bundled_kind("sasakian3"),), seed)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def check(op, code, out):
    """None when the output matches the known answer, else the reason."""
    expected = 1 if op.negative else 0
    if code != expected:
        return f"exit code {code}, expected {expected}"
    try:
        report = json.loads(out, parse_constant=_reject_constant)
        rows = {row["name"]: row["passed"] for row in report["checks"]}
        overall = report["overall_pass"]
    except (ValueError, KeyError, TypeError) as ex:
        return f"report is not strict JSON of the expected shape: {ex}"
    missing = [name for name in op.rows if name not in rows]
    if missing:
        return f"rows missing: {missing}"
    for name, passed in rows.items():
        must_pass = not (op.negative and name in LAMBDA_ROWS)
        if passed is not must_pass:
            return f"row {name} passed={passed!r}, expected {must_pass}"
    if overall is not (not op.negative):
        return f"overall_pass={overall!r}, expected {not op.negative}"
    return None
