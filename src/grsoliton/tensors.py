"""Connection, curvature, and differential operators from a metric.

Everything here is symbolic: components are expression trees, evaluated
in bulk at sample points (TensorField.evaluate_at).  A metric is a sym2
TensorField (chart.MetricField) that memoises the tensors of the metric
alone; the rest are built on each call.
Index conventions, each with its einsum subscripts; a derivative array
puts the differentiating index first, dY[i, k] = d_i Y^k (derivative()):

    Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2    'kl,ijl->kij'
        stored christoffel[k, i, j], symmetric in (i, j)
    R(d_i, d_j) d_k = R^l_ijk, stored riemann[l, i, j, k]
        = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
                                                 'lim,mjk->lijk' - 'ljm,mik->lijk'
    lowered R_lijk = g_lm R^m_ijk                              'lm,mijk->lijk'
        (pair symmetry R_lijk = R_jkli)
    Ric_jk = R^a_akj = d_a G^a_jk - d_k G^a_aj + G^a_am G^m_jk - G^a_km G^m_aj
             'aajk->jk' - 'kaaj->jk' + 'aam,mjk->jk' - 'akm,maj->jk'
        summed over a != k only, since the a = k terms cancel
    Hess f_ij = d_i d_j f - Gamma^k_ij d_k f                   'kij,k->ij'
    (grad f)^i = g^ij d_j f;  (X^flat)_i = g_ij X^j            'ij,j->i'
    (nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j           'i,ik->k' + 'kij,i,j->k'
    [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k                       'i,ik->k' - 'i,ik->k'
    (L_X T)_ij = X^k d_k T_ij + T_kj d_i X^k + T_ik d_j X^k
                                         'k,kij->ij' + 'kj,ik->ij' + 'ik,jk->ij'
    (a . b)_ij = (a_i b_j + a_j b_i) / 2                       'i,j->ij' + 'j,i->ij'
    X(f) = X^i d_i f;  T(X, Y) = T_ab (X^a Y^b)                'i,i->';  'ab,a,b->'

The sums are numpy arithmetic on object arrays of interned nodes: @ and
np.add.reduce fold a sum left to right in index order (over a, then b),
and the node operators are expr.add/sub/mul, which prune zeros as they
build, so each component is the tree that a loop over the indices builds.
A fold that interleaves + and - (riemann's, the bracket's) or starts from
a derivative is written with fold().  A product of three factors is
formed as a * (b * c), inner product first.  Symmetric tensors are built
on the pairs i <= j of their upper triangle and mirrored (from_upper()),
because a + b and b + a are different nodes.
"""

import functools
import operator

import numpy as np

from grsoliton import expr
from grsoliton.expr import Num, as_scalar, differentiate, evaluate_many

VALENCE_RANK = {
    "scalar": 0,
    "vector": 1,
    "oneform": 1,
    "sym2": 2,
    "form2": 2,
    "endo": 2,
    "connection": 3,
    "torsion": 3,
    "curv": 4,
}


class TensorField:
    """Component array of expressions with a valence tag on one chart.

    The components are taken as given; vector_field and oneform_field
    read input from outside the package."""

    __slots__ = ("chart", "valence", "comps")

    def __init__(self, chart, valence, comps):
        if valence not in VALENCE_RANK:
            raise ValueError(f"unknown valence {valence!r}")
        comps = np.asarray(comps, dtype=object)
        expected = (chart.dim,) * VALENCE_RANK[valence]
        if comps.shape != expected:
            raise ValueError(
                f"valence {valence!r} needs shape {expected}, got {comps.shape}")
        self.chart = chart
        self.valence = valence
        self.comps = comps

    def evaluate_at(self, points, params=None):
        """Numeric components at (npoints, n) points, shape (npoints, n, ..., n)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = self.chart.env_at(points, params)
        return evaluate_many(self.comps, env, len(points))

    def __getitem__(self, idx):
        return self.comps[idx]

    def __repr__(self):
        return f"TensorField({self.valence}, dim={self.chart.dim})"


def vector_field(chart, comps):
    """A vector field from outside input: expressions, strings or numbers."""
    return TensorField(chart, "vector", [as_scalar(c) for c in comps])


def oneform_field(chart, comps):
    """A one-form from outside input: expressions, strings or numbers."""
    return TensorField(chart, "oneform", [as_scalar(c) for c in comps])


def identity(n):
    """The n x n identity as an object array of ONE and ZERO nodes."""
    return np.where(np.eye(n, dtype=bool), expr.ONE, expr.ZERO)


def derivative(comps, names):
    """d[a, ...] = differentiate(comps[...], names[a]), for an expression or
    an object array of them."""
    comps = np.asarray(comps, dtype=object)
    axis = np.array(names, dtype=object).reshape((-1,) + (1,) * comps.ndim)
    # the loop runs Python float arithmetic (the smart constructors fold
    # constants, and 1e200 * 1e200 folds to inf), whose overflow flag numpy
    # then reports as its own, as a RuntimeWarning; an overflow is
    # diagnosed where a value is evaluated, not here
    with np.errstate(all="ignore"):
        return np.frompyfunc(differentiate, 2, 1)(comps[None], axis)


@functools.cache
def upper_pairs(n, strict=False):
    """(rows, cols) of the pairs i <= j (i < j if strict), row by row;
    read-only, since every caller shares them."""
    pairs = np.triu_indices(n, 1 if strict else 0)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def from_upper(values, n, antisymmetric=False):
    """The (..., n, n) array holding values[..., p] at the p-th pair (i, j)
    of upper_pairs(n, antisymmetric) and at (j, i): the same node, or, when
    antisymmetric, its negation, with a zero diagonal."""
    rows, cols = upper_pairs(n, antisymmetric)
    comps = np.full(values.shape[:-1] + (n, n), expr.ZERO, dtype=object)
    comps[..., cols, rows] = -values if antisymmetric else values
    comps[..., rows, cols] = values
    return comps


def fold(total, *steps):
    """total op a[0] op' a'[0] ... op a[1] op' a'[1] ...: a left fold over
    the leading axis of each (op, a) step, taking the steps in turn at each
    index (op is operator.add or operator.sub, applied per element)."""
    for m in range(len(steps[0][1])):  # mixes + and - or starts from a total: no einsum builds it
        for op, terms in steps:
            total = op(total, terms[m])
    return total


def _derived(build):
    """build(metric), a tensor of the metric alone, kept in metric.derived;
    its component array is read-only, since every caller shares it."""
    @functools.wraps(build)
    def memo(metric):
        if build.__name__ not in metric.derived:
            metric.derived[build.__name__] = build(metric)
            metric.derived[build.__name__].comps.setflags(write=False)
        return metric.derived[build.__name__]
    return memo


@_derived
def christoffel(metric):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    n = metric.dim
    rows, cols = upper_pairs(n)
    # dg[l, i, j] = d_l g_ij, from the upper triangle of g
    dg = from_upper(derivative(metric.comps[rows, cols], metric.chart.names), n)
    bracket = dg[rows, cols] + dg[cols, rows] - dg[:, rows, cols].T  # [pair, l]
    comps = Num(0.5) * (metric.inverse @ bracket.T)
    return TensorField(metric.chart, "connection", from_upper(comps, n))


@_derived
def riemann(metric):
    """R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    n, names = metric.dim, metric.chart.names
    gamma = christoffel(metric).comps
    # dgamma[l, a, j, k] = d_a G^l_jk, from the upper triangle in (j, k)
    rows, cols = upper_pairs(n)
    dgamma = from_upper(derivative(gamma[:, rows, cols], names).swapaxes(0, 1), n)
    # built on the pairs (i, j), i != j, since R^l_iik = 0, as [l, pair, k]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    # products[m, l, pair, k] = G^l_im G^m_jk, swapped the same with i, j exchanged
    products = gamma[:, i].transpose(2, 0, 1)[..., None] * gamma[:, j][:, None]
    swapped = gamma[:, j].transpose(2, 0, 1)[..., None] * gamma[:, i][:, None]
    comps = np.full((n,) * 4, expr.ZERO, dtype=object)
    comps[:, i, j] = fold(dgamma[:, i, j] - dgamma[:, j, i], (operator.add, products),
                          (operator.sub, swapped))
    return TensorField(metric.chart, "curv", comps)


@_derived
def riemann_lowered(metric):
    """R_lijk = g_lm R^m_ijk, i.e. g(d_l, R(d_i, d_j) d_k)."""
    riem = riemann(metric).comps
    comps = metric.comps @ riem.reshape(metric.dim, -1)
    return TensorField(metric.chart, "curv", comps.reshape(riem.shape))


@_derived
def ricci(metric):
    """Ric_jk = R^a_akj, the sum over a != k (the a = k terms cancel) of
    d_a G^a_jk - d_k G^a_aj + G^a_am G^m_jk - G^a_km G^m_aj, built on the
    pairs j <= k from the partial traces s^k_j = sum over a != k of G^a_aj,
    with the third term s^k_m G^m_jk."""
    n, names = metric.dim, metric.chart.names
    gamma = christoffel(metric).comps
    rows, cols = upper_pairs(n)
    others = np.arange(n)[:, None] != cols                       # [a, pair]: a != k
    traces = np.add.reduce(np.where(~np.eye(n, dtype=bool)[..., None],  # [k, j]: s^k_j
                                    gamma[np.arange(n), np.arange(n)], expr.ZERO), axis=1)
    upper = np.where(others, gamma[:, rows, cols], expr.ZERO)     # [a, pair]
    divergence = np.add.reduce([derivative(upper[a], names[a])[0] for a in range(n)])
    slope = np.array([differentiate(traces[k, j], names[k]) for j, k in zip(rows, cols)], dtype=object)
    # quadratic[a, m, pair] = G^a_km G^m_aj, zero at a = k
    quadratic = np.where(others[:, None], gamma[:, cols].transpose(0, 2, 1), expr.ZERO) \
        * gamma[:, :, rows].transpose(1, 0, 2)
    comps = (divergence - slope + np.add.reduce(traces[cols].T * gamma[:, rows, cols])
             - np.add.reduce(quadratic.reshape(n * n, -1)))
    return TensorField(metric.chart, "sym2", from_upper(comps, n))


def musical_sharp(metric, alpha):
    """(alpha^sharp)^i = g^ij alpha_j, inverse of musical_flat."""
    return TensorField(metric.chart, "vector", metric.inverse @ alpha.comps)


def musical_flat(metric, X):
    """(X^flat)_i = g_ij X^j."""
    return TensorField(metric.chart, "oneform", metric.comps @ X.comps)


def gradient(metric, f):
    """(grad f)^i = g^ij d_j f."""
    df = derivative(as_scalar(f), metric.chart.names)
    return musical_sharp(metric, TensorField(metric.chart, "oneform", df))


def hessian(metric, f):
    """Hess f_ij = d_i d_j f - Gamma^k_ij d_k f."""
    names = metric.chart.names
    rows, cols = upper_pairs(metric.dim)
    df = derivative(as_scalar(f), names)
    second = np.array([differentiate(df[i], names[j]) for i, j in zip(rows, cols)], dtype=object)
    comps = fold(second, (operator.sub, christoffel(metric).comps[:, rows, cols] * df[:, None]))
    return TensorField(metric.chart, "sym2", from_upper(comps, metric.dim))


def covariant_derivative(metric, X, Y):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    n = metric.dim
    gamma = christoffel(metric).comps
    X, Y = X.comps, Y.comps
    # terms[i, s, k]: X^i d_i Y^k at s = 0, then Gamma^k_ij (X^i Y^j) at s = 1 + j
    transport = X[:, None] * derivative(Y, metric.chart.names)
    connection = gamma.transpose(1, 2, 0) * np.multiply.outer(X, Y)[:, :, None]
    terms = np.concatenate([transport[:, None], connection], axis=1)
    return TensorField(metric.chart, "vector", np.add.reduce(terms.reshape(-1, n)))


def lie_bracket(X, Y):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    return TensorField(X.chart, "vector", lie_bracket_comps(X.comps, Y.comps, X.chart.names))


def lie_bracket_comps(X, Y, names):
    """[X, Y] of component arrays indexed [k, ...], the trailing axes
    holding as many brackets, one per entry."""
    return fold(expr.ZERO, (operator.add, X[:, None] * derivative(Y, names)),
                (operator.sub, Y[:, None] * derivative(X, names)))


def lie_derivative_sym2(T, X):
    """(L_X T)_ij = X^k d_k T_ij + T_kj d_i X^k + T_ik d_j X^k."""
    n = T.chart.dim
    rows, cols = upper_pairs(n)
    T, dX = T.comps, derivative(X.comps, X.chart.names).T  # dX[k, i] = d_i X^k
    terms = np.stack([X.comps[:, None] * derivative(T[rows, cols], X.chart.names),
                      T[:, cols] * dX[:, rows],
                      T[rows].T * dX[:, cols]], axis=1)  # [k, s, pair]
    comps = np.add.reduce(terms.reshape(3 * n, -1))
    return TensorField(X.chart, "sym2", from_upper(comps, n))


def sym_product(alpha, beta):
    """(alpha . beta)_ij = (alpha_i beta_j + alpha_j beta_i) / 2."""
    a, b = alpha.comps, beta.comps
    rows, cols = upper_pairs(len(a))
    comps = Num(0.5) * (a[rows] * b[cols] + a[cols] * b[rows])
    return TensorField(alpha.chart, "sym2", from_upper(comps, len(a)))


def directional_derivative(X, f):
    """X(f) = X^i d_i f as a scalar expression."""
    return X.comps @ derivative(as_scalar(f), X.chart.names)


def pairing(T, X, Y):
    """T(X, Y) = T_ab (X^a Y^b), summed over a, then b, as a scalar expression."""
    return np.add.reduce((T * np.multiply.outer(X.comps, Y.comps)).reshape(-1))
