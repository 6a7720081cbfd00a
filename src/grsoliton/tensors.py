"""Connection, curvature, and differential operators from a metric.

Everything here is symbolic: components are expression trees derived once
per metric (memoised on the MetricField) and evaluated in bulk at sample
points.  Index conventions, each with its einsum subscripts; a derivative
array puts the differentiating index first, dY[i, k] = d_i Y^k
(derivative()):

    Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2    'kl,ijl->kij'
        stored christoffel[k, i, j], symmetric in (i, j)
    R(d_i, d_j) d_k = R^l_ijk, stored riemann[l, i, j, k]
        = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
                                                 'lim,mjk->lijk' - 'ljm,mik->lijk'
    lowered R_lijk = g_lm R^m_ijk                              'lm,mijk->lijk'
        (pair symmetry R_lijk = R_jkli)
    Ric_jk = R^a_akj  (the curvature-operator trace)           'aakj->jk'
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
from grsoliton.chart import evaluate_field
from grsoliton.expr import Expression, Num, parse, simplify

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
    """Component array of expressions with a valence tag on one chart."""

    __slots__ = ("chart", "valence", "comps")

    def __init__(self, chart, valence, comps, presimplify=True):
        if valence not in VALENCE_RANK:
            raise ValueError(f"unknown valence {valence!r}")
        comps = np.asarray(comps, dtype=object)
        expected = (chart.dim,) * VALENCE_RANK[valence]
        if comps.shape != expected:
            raise ValueError(
                f"valence {valence!r} needs shape {expected}, got {comps.shape}")
        if presimplify:
            comps = simplified(comps) if comps.ndim else \
                np.asarray(simplify(comps[()]), dtype=object)
        self.chart = chart
        self.valence = valence
        self.comps = comps

    def evaluate_at(self, points, params=None):
        """Numeric components, shape (npoints, n, ..., n)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = self.chart.env_at(points, params)
        return evaluate_field(self.comps, env, points.shape[0])

    def __getitem__(self, idx):
        return self.comps[idx]

    def __repr__(self):
        return f"TensorField({self.valence}, dim={self.chart.dim})"


def as_scalar(f):
    if isinstance(f, Expression):
        return f
    if isinstance(f, str):
        return parse(f)
    if isinstance(f, (int, float)):
        return Num(f)
    raise TypeError(f"cannot interpret {f!r} as a scalar expression")


def vector_field(chart, comps):
    return TensorField(chart, "vector", [as_scalar(c) for c in comps])


def oneform_field(chart, comps):
    return TensorField(chart, "oneform", [as_scalar(c) for c in comps])


def coordinate_vector(chart, axis):
    comps = [expr.ZERO] * chart.dim
    comps[axis] = expr.ONE
    return TensorField(chart, "vector", comps, presimplify=False)


def partial(e, name):
    return simplify(expr.differentiate(e, name))


def identity(n):
    """The n x n identity as an object array of ONE and ZERO nodes."""
    return np.where(np.eye(n, dtype=bool), expr.ONE, expr.ZERO)


def simplified(comps):
    """simplify applied to every component of an object array."""
    return np.frompyfunc(simplify, 1, 1)(comps)


def derivative(comps, names):
    """d[a, ...] = partial(comps[...], names[a]), for an expression or an
    object array of them."""
    comps = np.asarray(comps, dtype=object)
    axis = np.array(names, dtype=object).reshape((-1,) + (1,) * comps.ndim)
    return np.frompyfunc(partial, 2, 1)(comps[None], axis)


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


def _derived(metric, key, builder):
    try:
        return metric.derived[key]
    except KeyError:
        metric.derived[key] = builder()
        return metric.derived[key]


def christoffel(metric):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    def build():
        n = metric.dim
        rows, cols = upper_pairs(n)
        # dg[l, i, j] = d_l g_ij, from the upper triangle of g
        dg = from_upper(derivative(metric.comps[rows, cols], metric.chart.names), n)
        bracket = dg[rows, cols] + dg[cols, rows] - dg[:, rows, cols].T  # [pair, l]
        comps = Num(0.5) * (metric.inverse @ bracket.T)
        return TensorField(metric.chart, "connection", from_upper(comps, n))
    return _derived(metric, "christoffel", build)


def riemann(metric):
    """R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    def build():
        n = metric.dim
        gamma = christoffel(metric).comps
        # dgamma[a, l, j, k] = d_a G^l_jk, from the upper triangle in (j, k)
        rows, cols = upper_pairs(n)
        dgamma = from_upper(derivative(gamma[:, rows, cols], metric.chart.names), n)
        # built on the pairs (i, j), i != j, since R^l_iik = 0: terms[pair, l, k],
        # products[m, pair, l, k] = G^l_im G^m_jk, swapped the same with i, j exchanged
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        products = gamma[:, i].transpose(2, 1, 0)[..., None] * gamma[:, j, None]
        swapped = gamma[:, j].transpose(2, 1, 0)[..., None] * gamma[:, i, None]
        terms = fold(dgamma[i, :, j] - dgamma[j, :, i],
                     (operator.add, products), (operator.sub, swapped))
        comps = np.full((n,) * 4, expr.ZERO, dtype=object)
        comps[:, i, j] = terms.transpose(1, 0, 2)
        return TensorField(metric.chart, "curv", comps)
    return _derived(metric, "riemann", build)


def riemann_lowered(metric):
    """R_lijk = g_lm R^m_ijk, i.e. g(d_l, R(d_i, d_j) d_k)."""
    def build():
        riem = riemann(metric).comps
        comps = metric.comps @ riem.reshape(metric.dim, -1)
        return TensorField(metric.chart, "curv", comps.reshape(riem.shape))
    return _derived(metric, "riemann_lowered", build)


def ricci(metric):
    """Ricci tensor of the curvature operator, Ric_jk = R^a_akj."""
    def build():
        diagonal = np.arange(metric.dim)
        comps = np.add.reduce(riemann(metric).comps[diagonal, diagonal])  # [k, j]
        return TensorField(metric.chart, "sym2", comps.T)
    return _derived(metric, "ricci", build)


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
    second = np.array([partial(df[i], names[j]) for i, j in zip(rows, cols)], dtype=object)
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
    return simplify(X.comps @ derivative(as_scalar(f), X.chart.names))


def pairing(T, X, Y):
    """T(X, Y) = T_ab (X^a Y^b), summed over a, then b, as a scalar expression."""
    return np.add.reduce((T * np.multiply.outer(X.comps, Y.comps)).reshape(-1))


def metric_tensor_field(metric):
    """The metric itself as a sym2 TensorField (shares component objects)."""
    return TensorField(metric.chart, "sym2", metric.comps, presimplify=False)
