"""Connection, curvature, and differential operators from a metric.

Everything here is symbolic: components are expression trees derived once
per metric (memoised on the MetricField) and evaluated in bulk at sample
points.  Index conventions:

    Gamma^k_ij                stored christoffel[k][i][j], symmetric in (i, j)
    R(d_i, d_j) d_k = R^l_ijk stored riemann[l][i][j][k]
    lowered R_lijk = g_lm R^m_ijk   (pair symmetry R_lijk = R_jkli)
    Ric_jk = R^a_akj          (the curvature-operator trace against g)
    Hess f_ij = d_i d_j f - Gamma^k_ij d_k f
    (L_X T)_ij = X^k d_k T_ij + T_kj d_i X^k + T_ik d_j X^k
    (a . b)_ij = (a_i b_j + a_j b_i) / 2
"""

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
            comps = np.frompyfunc(simplify, 1, 1)(comps) if comps.ndim else \
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


def _derived(metric, key, builder):
    try:
        return metric.derived[key]
    except KeyError:
        metric.derived[key] = builder()
        return metric.derived[key]


def _metric_partials(metric):
    def build():
        n = metric.dim
        names = metric.chart.names
        dg = np.empty((n, n, n), dtype=object)  # dg[l][i][j] = d_l g_ij
        for l in range(n):
            for i in range(n):
                for j in range(i, n):
                    dg[l, i, j] = dg[l, j, i] = partial(metric.comps[i, j], names[l])
        return dg
    return _derived(metric, "metric_partials", build)


class ChristoffelSymbols:
    """Levi-Civita connection coefficients; symmetric in the lower pair."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart, comps):
        self.chart = chart
        self.comps = comps  # (n, n, n) object array, comps[k][i][j]

    def evaluate_at(self, points, params=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        env = self.chart.env_at(points, params)
        return evaluate_field(self.comps, env, points.shape[0])

    def __getitem__(self, idx):
        return self.comps[idx]


def christoffel(metric):
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    def build():
        n = metric.dim
        dg = _metric_partials(metric)
        ginv = metric.inverse
        comps = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    total = expr.ZERO
                    for l in range(n):
                        bracket = expr.sub(expr.add(dg[i, j, l], dg[j, i, l]),
                                           dg[l, i, j])
                        total = expr.add(total, expr.mul(ginv[k, l], bracket))
                    comps[k, i, j] = comps[k, j, i] = simplify(
                        expr.mul(Num(0.5), total))
        return ChristoffelSymbols(metric.chart, comps)
    return _derived(metric, "christoffel", build)


def riemann(metric):
    """R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    def build():
        n = metric.dim
        names = metric.chart.names
        gamma = christoffel(metric).comps
        dgamma = np.empty((n, n, n, n), dtype=object)  # dgamma[a][k][i][j] = d_a G^k_ij
        for a in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(i, n):
                        dgamma[a, k, i, j] = dgamma[a, k, j, i] = \
                            partial(gamma[k, i, j], names[a])
        comps = np.empty((n, n, n, n), dtype=object)
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if i == j:
                            comps[l, i, j, k] = expr.ZERO
                            continue
                        term = expr.sub(dgamma[i, l, j, k], dgamma[j, l, i, k])
                        for m in range(n):
                            term = expr.add(term, expr.mul(gamma[l, i, m], gamma[m, j, k]))
                            term = expr.sub(term, expr.mul(gamma[l, j, m], gamma[m, i, k]))
                        comps[l, i, j, k] = term
        return TensorField(metric.chart, "curv", comps)
    return _derived(metric, "riemann", build)


def riemann_lowered(metric):
    """R_lijk = g_lm R^m_ijk, i.e. g(d_l, R(d_i, d_j) d_k)."""
    def build():
        n = metric.dim
        riem = riemann(metric).comps
        comps = np.empty((n, n, n, n), dtype=object)
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        total = expr.ZERO
                        for m in range(n):
                            total = expr.add(total, expr.mul(metric.comps[l, m],
                                                             riem[m, i, j, k]))
                        comps[l, i, j, k] = total
        return TensorField(metric.chart, "curv", comps)
    return _derived(metric, "riemann_lowered", build)


def ricci(metric):
    """Ricci tensor of the curvature operator, Ric_jk = R^a_akj."""
    def build():
        n = metric.dim
        riem = riemann(metric).comps
        comps = np.empty((n, n), dtype=object)
        for j in range(n):
            for k in range(n):
                total = expr.ZERO
                for a in range(n):
                    total = expr.add(total, riem[a, a, k, j])
                comps[j, k] = total
        return TensorField(metric.chart, "sym2", comps)
    return _derived(metric, "ricci", build)


def gradient(metric, f):
    """(grad f)^i = g^ij d_j f."""
    f = as_scalar(f)
    names = metric.chart.names
    df = [partial(f, name) for name in names]
    comps = []
    for i in range(metric.dim):
        total = expr.ZERO
        for j in range(metric.dim):
            total = expr.add(total, expr.mul(metric.inverse[i, j], df[j]))
        comps.append(total)
    return TensorField(metric.chart, "vector", comps)


def hessian(metric, f):
    """Hess f_ij = d_i d_j f - Gamma^k_ij d_k f."""
    f = as_scalar(f)
    n = metric.dim
    names = metric.chart.names
    gamma = christoffel(metric).comps
    df = [partial(f, name) for name in names]
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            total = partial(df[i], names[j])
            for k in range(n):
                total = expr.sub(total, expr.mul(gamma[k, i, j], df[k]))
            comps[i, j] = comps[j, i] = total
    return TensorField(metric.chart, "sym2", comps)


def musical_flat(metric, X):
    """(X^flat)_i = g_ij X^j."""
    n = metric.dim
    comps = []
    for i in range(n):
        total = expr.ZERO
        for j in range(n):
            total = expr.add(total, expr.mul(metric.comps[i, j], X.comps[j]))
        comps.append(total)
    return TensorField(metric.chart, "oneform", comps)


def musical_sharp(metric, alpha):
    """(alpha^sharp)^i = g^ij alpha_j, inverse of musical_flat."""
    n = metric.dim
    comps = []
    for i in range(n):
        total = expr.ZERO
        for j in range(n):
            total = expr.add(total, expr.mul(metric.inverse[i, j], alpha.comps[j]))
        comps.append(total)
    return TensorField(metric.chart, "vector", comps)


def covariant_derivative(metric, X, Y):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j."""
    n = metric.dim
    names = metric.chart.names
    gamma = christoffel(metric).comps
    comps = []
    for k in range(n):
        total = expr.ZERO
        for i in range(n):
            total = expr.add(total, expr.mul(X.comps[i], partial(Y.comps[k], names[i])))
            for j in range(n):
                total = expr.add(total, expr.mul(gamma[k, i, j],
                                                 expr.mul(X.comps[i], Y.comps[j])))
        comps.append(total)
    return TensorField(metric.chart, "vector", comps)


def lie_bracket(X, Y):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    chart = X.chart
    names = chart.names
    comps = []
    for k in range(chart.dim):
        total = expr.ZERO
        for i in range(chart.dim):
            total = expr.add(total, expr.mul(X.comps[i], partial(Y.comps[k], names[i])))
            total = expr.sub(total, expr.mul(Y.comps[i], partial(X.comps[k], names[i])))
        comps.append(total)
    return TensorField(chart, "vector", comps)


def lie_derivative_sym2(T, X):
    """(L_X T)_ij = X^k d_k T_ij + T_kj d_i X^k + T_ik d_j X^k."""
    chart = T.chart
    n = chart.dim
    names = chart.names
    dX = [[partial(X.comps[k], names[i]) for k in range(n)] for i in range(n)]
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            total = expr.ZERO
            for k in range(n):
                total = expr.add(total, expr.mul(X.comps[k], partial(T.comps[i, j], names[k])))
                total = expr.add(total, expr.mul(T.comps[k, j], dX[i][k]))
                total = expr.add(total, expr.mul(T.comps[i, k], dX[j][k]))
            comps[i, j] = comps[j, i] = total
    return TensorField(chart, "sym2", comps)


def sym_product(alpha, beta):
    """(alpha . beta)_ij = (alpha_i beta_j + alpha_j beta_i) / 2."""
    chart = alpha.chart
    n = chart.dim
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            cross = expr.add(expr.mul(alpha.comps[i], beta.comps[j]),
                             expr.mul(alpha.comps[j], beta.comps[i]))
            comps[i, j] = comps[j, i] = expr.mul(Num(0.5), cross)
    return TensorField(chart, "sym2", comps)


def directional_derivative(X, f):
    """X(f) = X^i d_i f as a scalar expression."""
    f = as_scalar(f)
    names = X.chart.names
    total = expr.ZERO
    for i in range(X.chart.dim):
        total = expr.add(total, expr.mul(X.comps[i], partial(f, names[i])))
    return simplify(total)


def metric_tensor_field(metric):
    """The metric itself as a sym2 TensorField (shares component objects)."""
    return TensorField(metric.chart, "sym2", metric.comps, presimplify=False)
