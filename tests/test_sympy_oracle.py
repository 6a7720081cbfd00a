"""christoffel, ricci, hessian, lie_derivative_sym2 and lie_bracket
against sympy, an independent oracle.

sympy differentiates the metric and the potential exactly, and the
vector fields, drawn as monomials, are differentiated by the power rule.
The textbook formulas are then contracted in numpy at each sample point,
with g inverted numerically there (the package inverts g symbolically):

    G^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2,
    d_a g^kl = -g^kp (d_a g_pq) g^ql,
    Ric_jk = d_a G^a_jk - d_k G^a_aj + G^a_am G^m_jk - G^a_km G^m_aj,
    Hess f_ij = d_i d_j f - G^k_ij d_k f,
    (L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k,
    [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k,

summed over every a (the package drops the a = k terms, which cancel).
The metrics are polynomials, positive definite on [-1, 1]^n since each
diagonal entry is at least 3 and each off-diagonal one at most 1/4; the
vector fields are cubic polynomials.  sympy is optional: without it this
file is skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsoliton.chart import define_chart, define_metric
from grsoliton.tensors import (christoffel, hessian, lie_bracket, lie_derivative_sym2, ricci,
                               vector_field)

sp = pytest.importorskip("sympy")

RTOL = 1e-12


def sixteenths(limit):
    return st.integers(-limit, limit).map(lambda k: f"({k}/16)")


@st.composite
def metrics(draw, n):
    """(metric rows, potential) as expression strings on x0..x(n-1):
    g_ii = 3 + x_i^2 + a sum of x_k^2 / 4, g_ij = c x_i x_j + e x_m with
    |c|, |e| <= 1/8, and f a cubic."""
    x = [f"x{i}" for i in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        weights = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        rows[i][i] = f"3 + {x[i]}^2" + "".join(
            f" + {x[k]}^2/4" for k in range(n) if weights[k] and k != i)
        for j in range(i):
            m = draw(st.integers(0, n - 1))
            rows[i][j] = rows[j][i] = (f"{draw(sixteenths(2))}*{x[i]}*{x[j]}"
                                       f" + {draw(sixteenths(2))}*{x[m]}")
    f = " + ".join(f"{draw(sixteenths(8))}*{x[k]}^3 + {draw(sixteenths(8))}*{x[k]}*{x[k - 1]}"
                   f" + {draw(sixteenths(8))}*{x[k]}" for k in range(n))
    return rows, f


@st.composite
def vectors(draw, n):
    """A vector field on x0..x(n-1) as its components' monomials, each
    (coefficients, exponents) of a + b x_k + c x_i x_j + d x_m^3, with a,
    b, c and d sixteenths in [-1, 1]."""
    comps = []
    for k in range(n):
        exponents = np.zeros((4, n), dtype=int)
        exponents[1, k] += 1
        exponents[2, draw(st.integers(0, n - 1))] += 1
        exponents[2, draw(st.integers(0, n - 1))] += 1
        exponents[3, draw(st.integers(0, n - 1))] += 3
        comps.append(([draw(st.integers(-16, 16)) / 16 for _ in range(4)], exponents))
    return comps


def render(field):
    """A monomial vector field's components as expression strings."""
    return [" + ".join(f"({c})" + "".join(f"*x{a}^{e}" for a, e in enumerate(p) if e)
                       for c, p in zip(coefficients, exponents))
            for coefficients, exponents in field]


def field_at(field, point):
    """(V^k, d_a V^k as [a, k]) of a monomial vector field at a point, by
    the power rule d_a x^p = p_a x^(p - e_a)."""
    n = len(point)
    values, derivatives = np.empty(n), np.empty((n, n))
    for k, (coefficients, exponents) in enumerate(field):
        values[k] = coefficients @ np.prod(point ** exponents, axis=1)
        for a in range(n):
            lowered = np.maximum(exponents - np.eye(n, dtype=int)[a], 0)
            derivatives[a, k] = (coefficients * exponents[:, a]) @ np.prod(point ** lowered, axis=1)
    return values, derivatives


def oracle(rows, f, X, Y, points):
    """(G, Ric, Hess f, L_X g, [X, Y]) at each point, shapes (p, n, n, n),
    (p, n, n), (p, n, n), (p, n, n) and (p, n)."""
    n = len(rows)
    x = sp.symbols(f"x0:{n}")
    g = sp.Matrix(rows).applyfunc(sp.sympify)   # sympify reads ^ as a power
    f = sp.sympify(f)
    dg = [g.diff(x[a]) for a in range(n)]
    df = [f.diff(x[a]) for a in range(n)]
    derived = sp.lambdify([x], [g.tolist(),
                                [d.tolist() for d in dg],
                                [[d.diff(x[b]).tolist() for b in range(n)] for d in dg],
                                df,
                                [[d.diff(x[b]) for b in range(n)] for d in df]],
                          modules="math")
    out = []
    for point in points:
        g_p, dg, ddg, df, ddf = map(np.array, derived(point))    # dg[a, i, j] = d_a g_ij
        (X_p, dX), (Y_p, dY) = field_at(X, point), field_at(Y, point)
        inv = np.linalg.inv(g_p)
        first = (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg) / 2      # [l, i, j]
        gamma = np.einsum("kl,lij->kij", inv, first)
        dfirst = (ddg.transpose(0, 3, 1, 2) + ddg.transpose(0, 3, 2, 1) - ddg) / 2  # [a, l, i, j]
        dinv = -np.einsum("kp,apq,ql->akl", inv, dg, inv)
        dgamma = (np.einsum("akl,lij->akij", dinv, first)
                  + np.einsum("kl,alij->akij", inv, dfirst))             # [a, k, i, j]
        ric = (np.einsum("aajk->jk", dgamma) - np.einsum("kaaj->jk", dgamma)
               + np.einsum("aam,mjk->jk", gamma, gamma) - np.einsum("akm,maj->jk", gamma, gamma))
        lie = (np.einsum("k,kij->ij", X_p, dg) + np.einsum("kj,ik->ij", g_p, dX)
               + np.einsum("ik,jk->ij", g_p, dX))
        out.append((gamma, ric, ddf - np.einsum("kij,k->ij", gamma, df), lie,
                    X_p @ dY - Y_p @ dX))
    return [np.array(t) for t in zip(*out)]


def assert_agrees(rows, f, X, Y, points):
    n = len(rows)
    chart = define_chart([f"x{i}" for i in range(n)], {f"x{i}": (-1, 1) for i in range(n)})
    metric = define_metric(chart, rows)
    X_field, Y_field = vector_field(chart, render(X)), vector_field(chart, render(Y))
    package = {"christoffel": christoffel(metric), "ricci": ricci(metric),
               "hessian": hessian(metric, f),
               "lie_derivative_sym2": lie_derivative_sym2(metric, X_field),
               "lie_bracket": lie_bracket(X_field, Y_field)}
    for (name, field), expected in zip(package.items(), oracle(rows, f, X, Y, points)):
        got = field.evaluate_at(points)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() <= RTOL * scale, name


def sample(n):
    return st.lists(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n),
                    min_size=3, max_size=3).map(np.array)


@pytest.mark.parametrize("n, examples", [(2, 25), (3, 12), (4, 4)])
def test_the_tensors_agree_with_sympy(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(metrics(n), vectors(n), vectors(n), sample(n))
    def check(case, X, Y, points):
        assert_agrees(*case, X, Y, points)

    check()
