import math
import struct

import numpy as np
import pytest

from grsoliton.chart import define_chart, define_metric
from grsoliton.expr import Num
from grsoliton.soliton import DEFAULT_TOLERANCE, run_checks

P = "4*exp(y)/(16+exp(2*y))"
MINUS_Q = "exp(2*y)/(16+exp(2*y))"

SASAKIAN_METRIC = [
    [f"({P})^2 + ({MINUS_Q})^2", "0", MINUS_Q],
    ["0", f"({P})^2", "0"],
    [MINUS_Q, "0", "1"],
]
SASAKIAN_PHI = [["0", "-1", "0"], ["1", "0", "0"], ["0", MINUS_Q, "0"]]
SASAKIAN_XI = ["0", "0", "1"]
SASAKIAN_ETA = [MINUS_Q, "0", "1"]
SASAKIAN_F1 = "(ln(16+exp(2*y)) - 2*ln(sin(z)))/2"
SASAKIAN_F2 = "(ln(16+exp(2*y)) - 2*ln(sin(z)))/2"


def sasakian_family(m, a=1):
    """The standard Sasakian structure on R^(2m+1) (Blair, Riemannian
    Geometry of Contact and Symplectic Manifolds, 2nd ed.), D-homothetically
    deformed by a > 0 (Tanno, Tohoku Math. J. 21, 1968), with its
    vector-form soliton, as a manifest dict.

    With coordinates x1..xm, y1..ym, z: eta = (dz - sum y_i dx_i)/2,
    xi = 2 d_z, g = eta.eta + sum(dx_i^2 + dy_i^2)/4, phi(d_yi) = d_xi +
    y_i d_z, phi(d_xi) = -d_yi, phi(d_z) = 0 (column input); deformed,
    g_a = a^2 eta.eta + (a/4) sum(dx_i^2 + dy_i^2), eta_a = a eta,
    xi_a = xi/a.  Ric_a = -2 g_a + (2m + 2) eta_a.eta_a with xi_a Killing
    (Boyer, Galicki & Matzeu, Comm. Math. Phys. 262, 2006), so
    X1 = X2 = xi_a solve the vector form with c1 = 2m + 2, c2 = 1, lambda = 2.
    """
    n = 2 * m + 1
    ys = [f"y{i}" for i in range(1, m + 1)]
    eta = [f"-{y}/2" for y in ys] + ["0"] * m + ["1/2"]

    def entry(i, j):
        terms = []
        if eta[i] != "0" and eta[j] != "0":
            terms.append(f"{a}^2*({eta[i]})*({eta[j]})")
        if i == j < n - 1:
            terms.append(f"{a}/4")
        return " + ".join(terms) or "0"

    phi = [["0"] * n for _ in range(n)]
    for i, y in enumerate(ys):
        phi[m + i][i] = "-1"                       # phi(d_xi) = -d_yi
        phi[i][m + i], phi[n - 1][m + i] = "1", y  # phi(d_yi) = d_xi + y_i d_z
    xi = ["0"] * (n - 1) + [f"2/{a}"]
    return {
        "chart": {"coords": [f"x{i}" for i in range(1, m + 1)] + ys + ["z"]},
        "metric": [[entry(i, j) for j in range(n)] for i in range(n)],
        "structure": {"phi": phi, "xi": xi, "eta": [f"{a}*({e})" for e in eta]},
        "vectors": {"X1": xi, "X2": xi},
        "constants": {"c1": 2 * m + 2, "c2": 1, "lambda": 2},
    }


def report_of(chart, check, points, params=None, tolerance=DEFAULT_TOLERANCE):
    """The ResidualReport of one check at points."""
    [report] = run_checks(chart, [check], points, params, tolerance)
    return report


@pytest.fixture(scope="session")
def hyperbolic_geometry():
    chart = define_chart(["x", "y"], {"y": (0, None)})
    metric = define_metric(chart, [["1/y^2", "0"], ["0", "1/y^2"]])
    return chart, metric


@pytest.fixture(scope="session")
def cone_geometry():
    chart = define_chart(["x", "y", "z"], {"x": (0, None)})
    metric = define_metric(chart, [["1", "0", "0"],
                                   ["0", "x^2", "0"],
                                   ["0", "0", "x^2"]])
    return chart, metric


@pytest.fixture(scope="session")
def sasakian_geometry():
    chart = define_chart(["x", "y", "z"], {"z": (0, math.pi)})
    metric = define_metric(chart, SASAKIAN_METRIC)
    return chart, metric


@pytest.fixture(scope="session")
def euclidean_plane():
    chart = define_chart(["x", "y"], {})
    metric = define_metric(chart, [["1", "0"], ["0", "1"]])
    return chart, metric


@pytest.fixture(scope="session")
def euclidean_space():
    chart = define_chart(["x", "y", "z"], {})
    metric = define_metric(chart, [["1", "0", "0"],
                                   ["0", "1", "0"],
                                   ["0", "0", "1"]])
    return chart, metric


def structural_classes(roots):
    """{id(node): class} over every node reachable from roots, where the
    class depends on structure alone: node type, payload (a Num by its IEEE
    bits) and the classes of the children, never on object identity."""
    numbers, classes = {}, {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in numbers:
            stack.pop()
            continue
        kids = [getattr(node, a) for a in ("arg", "left", "right") if hasattr(node, a)]
        todo = [k for k in kids if id(k) not in numbers]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if isinstance(node, Num):
            payload = struct.pack("<d", node.value)
        else:
            payload = getattr(node, "name", None) or getattr(node, "func", None)
        key = (type(node), payload, tuple(numbers[id(k)] for k in kids))
        numbers[id(node)] = classes.setdefault(key, len(classes))
    return numbers


def field_components(values):
    """The components of an evaluated (npoints, ...) field as a sequence of
    (npoints,) rows: the form in which an accumulator reads one field."""
    values = np.asarray(values)
    return values.reshape(len(values), math.prod(values.shape[1:])).T


def poisoning(bind):
    """expr._bind whose sinks, once they return, fill with NaN
    every plan buffer that the rest of the chunk does not read before a
    step writes it: the roots a group's sink was handed, once nothing
    later reads them, and every free buffer.  A point-independent root, a
    broadcast view of its scalar, is no plan buffer.  What a report reads
    from a buffer after the plan has let it go then reads NaN."""
    def poisoned(*args):
        pool, fills, parts = bind(*args)
        events, marks = [], []       # (is_write, array) in chunk order; a mark per feed
        for steps, feeds in parts:
            for _, arguments, out in steps:
                events += [(False, a) for a in arguments if isinstance(a, np.ndarray)]
                events.append((True, out))
            for _, roots in feeds:
                events += [(False, a) for a in roots if a.strides != (0,)]
                marks.append(len(events))
        arrays = {id(a): a for _, a in events}
        marks = iter(marks)
        out = []
        for steps, feeds in parts:
            wrapped = []
            for sink, roots in feeds:
                first = {}           # id -> whether its next event is a write
                for is_write, a in events[next(marks):]:
                    first.setdefault(id(a), is_write)
                dead = [a for key, a in arrays.items() if first.get(key, True)]
                wrapped.append((_poisoned_sink(sink, dead), roots))
            out.append((steps, wrapped))
        return pool, fills, out
    return poisoned


def _poisoned_sink(sink, dead):
    def poisoned(lo, hi, values):
        sink(lo, hi, values)
        for array in dead:
            array.fill(np.nan)
    return poisoned
