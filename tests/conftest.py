import math
import struct

import numpy as np
import pytest

from grsoliton.chart import define_chart, define_metric
from grsoliton.expr import Num

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
