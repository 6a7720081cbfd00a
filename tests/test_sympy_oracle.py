"""christoffel, ricci and hessian against sympy, an independent oracle.

sympy differentiates the metric and the potential exactly.  The textbook
formulas are then contracted in numpy at each sample point, with g
inverted numerically there (the package inverts g symbolically):

    G^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2,
    d_a g^kl = -g^kp (d_a g_pq) g^ql,
    Ric_jk = d_a G^a_jk - d_k G^a_aj + G^a_am G^m_jk - G^a_km G^m_aj,
    Hess f_ij = d_i d_j f - G^k_ij d_k f,

summed over every a (the package drops the a = k terms, which cancel).
The metrics are polynomials, positive definite on [-1, 1]^n since each
diagonal entry is at least 3 and each off-diagonal one at most 1/4.
sympy is optional: without it this file is skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grsoliton.chart import define_chart, define_metric
from grsoliton.tensors import christoffel, hessian, ricci

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


def oracle(rows, f, points):
    """(G, Ric, Hess f) at each point, shapes (p, n, n, n), (p, n, n), (p, n, n)."""
    n = len(rows)
    x = sp.symbols(f"x0:{n}")
    g = sp.Matrix(rows).applyfunc(sp.sympify)   # sympify reads ^ as a power
    f = sp.sympify(f)
    derived = sp.lambdify([x], [g.tolist(),
                                [g.diff(x[a]).tolist() for a in range(n)],
                                [[g.diff(x[a], x[b]).tolist() for b in range(n)] for a in range(n)],
                                [f.diff(x[a]) for a in range(n)],
                                [[f.diff(x[a], x[b]) for b in range(n)] for a in range(n)]],
                          modules="math")
    out = []
    for point in points:
        g_p, dg, ddg, df, ddf = map(np.array, derived(point))    # dg[a, i, j] = d_a g_ij
        inv = np.linalg.inv(g_p)
        first = (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg) / 2      # [l, i, j]
        gamma = np.einsum("kl,lij->kij", inv, first)
        dfirst = (ddg.transpose(0, 3, 1, 2) + ddg.transpose(0, 3, 2, 1) - ddg) / 2  # [a, l, i, j]
        dinv = -np.einsum("kp,apq,ql->akl", inv, dg, inv)
        dgamma = (np.einsum("akl,lij->akij", dinv, first)
                  + np.einsum("kl,alij->akij", inv, dfirst))             # [a, k, i, j]
        ric = (np.einsum("aajk->jk", dgamma) - np.einsum("kaaj->jk", dgamma)
               + np.einsum("aam,mjk->jk", gamma, gamma) - np.einsum("akm,maj->jk", gamma, gamma))
        out.append((gamma, ric, ddf - np.einsum("kij,k->ij", gamma, df)))
    return [np.array(t) for t in zip(*out)]


def assert_agrees(rows, f, points):
    n = len(rows)
    chart = define_chart([f"x{i}" for i in range(n)], {f"x{i}": (-1, 1) for i in range(n)})
    metric = define_metric(chart, rows)
    package = [christoffel(metric), ricci(metric), hessian(metric, f)]
    for name, field, expected in zip(("christoffel", "ricci", "hessian"), package,
                                     oracle(rows, f, points)):
        got = field.evaluate_at(points)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() <= RTOL * scale, name


def sample(n):
    return st.lists(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n),
                    min_size=3, max_size=3).map(np.array)


@pytest.mark.parametrize("n, examples", [(2, 25), (3, 12), (4, 4)])
def test_the_tensors_agree_with_sympy(n, examples):
    @settings(max_examples=examples, deadline=None)
    @given(metrics(n), sample(n))
    def check(case, points):
        assert_agrees(*case, points)

    check()
