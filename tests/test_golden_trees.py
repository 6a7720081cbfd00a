"""Golden digests of the symbolic component trees.

Every tensor builder, the Sasakian identities, and every plan that the
check subcommands evaluate, is pinned by the sha256 of the expr.render text of its components.  render
reparses to an evaluation-identical tree, so a digest pins the structure
of each tree (operand order and association included), not only its
values: a rewrite of how a tensor is contracted must leave these
unchanged.

The cases are the three bundled manifests and dense 4-D and 5-D metrics
(every metric entry non-zero, so no contraction with g or its inverse is
pruned to a shorter fold), the 5-D one with a dense almost-contact
structure whose axioms are not checked (its tolerance admits any finite
residual), so that the ladder and theorem rows are built from dense phi,
xi and eta, and a manifest whose strings hold input that simplify folds.
The fit row of `all` is left out: its constants are fitted numbers, not
structure.

Input is simplified where it enters (the metric, phi, xi and eta, and
every derivative), and the smart constructors that build the tensors
from it are simplify's own rules, so every pinned component is its own
simplification.  Only the potentials, which the rows carry as parsed for
their domain, are not.
"""

import hashlib
import math

import pytest

from grsoliton import expr
from grsoliton.expr import simplify
from grsoliton.contact import (
    assemble_structure,
    covariant_phi_residual,
    curvature_reeb_residual,
    eta_transport_residual,
    reeb_transport_residual,
)
from grsoliton.fit import design_fields
from grsoliton.manifest import bundled_examples, load_manifest
from grsoliton.runner import run_manifest
from grsoliton.soliton import gradient_form
from grsoliton.tensors import christoffel, gradient, hessian, ricci, riemann, riemann_lowered


def _dense_metric(n, symbolic):
    """g_ii = 2 + x_i^2 for i < symbolic, else a constant; g_ij = (i + j + 2) / 20:
    diagonally dominant on the sampling box, so positive definite."""
    return [[(f"2 + x{i}^2" if i < symbolic else f"{2 + i / 10}") if i == j
             else f"{(i + j + 2) / 20}" for j in range(n)] for i in range(n)]


DENSE4 = {
    "chart": {"coords": ["x0", "x1", "x2", "x3"]},
    "metric": _dense_metric(4, 4),
    "scalars": {"f1": "x0^2/2 + x1*x2/3", "f2": "x3^2/4 - x1/5"},
    "constants": {"c1": 0.5, "c2": -1.5, "lambda": 0.25},
}
DENSE4_VECTORS = {
    "chart": {"coords": ["x0", "x1", "x2", "x3"]},
    "metric": _dense_metric(4, 4),
    "vectors": {"X1": ["x1", "0.5 - x0", "x3/3", "1 + x2^2"],
                "X2": ["0.25", "x2*x3", "-x0", "x1/7"]},
    "constants": {"c1": 0.5, "c2": -1.5, "lambda": 0.25},
}
DENSE5 = {
    "chart": {"coords": ["x0", "x1", "x2", "x3", "x4"]},
    "metric": _dense_metric(5, 1),
    "structure": {
        "phi": [[f"{(i - j) / 7}" if (i, j) != (0, 1) else "x2/5 - 1"
                 for j in range(5)] for i in range(5)],
        "xi": ["1", "x0/9", "0.25", "-0.5", "x4/7"],
        "eta": ["0.5", "x1/8", "1", "0.2", "-x3/6"],
    },
    "scalars": {"f1": "x0^2/2 + x1*x2/3", "f2": "x3^2/4 - x4/5"},
    "constants": {"c1": 0.5, "c2": -1.5, "lambda": 0.25},
    "tolerance": 1e300,
}
# y^-2, 0*x, -(-x), 2^3 and (1+1)*x in the metric, the potentials and the
# structure, whose axioms are not checked
FOLDABLE = {
    "chart": {"coords": ["x", "y", "z"], "bounds": {"y": [0, None]}},
    "metric": [["y^-2", "0*x", "0"], ["0*x", "(1+1)*y^-2", "0"],
               ["0", "0", "-(-(2^3/8 + x^2))"]],
    "structure": {
        "phi": [["0", "-(-1)", "0*z"], ["-1", "0", "0"], ["0", "2^3*0", "0"]],
        "xi": ["0", "0", "(1+1)/2"],
        "eta": ["0*x", "0", "2^3/8"],
    },
    "scalars": {"f1": "(1+1)*x + y^-2 + 0*z", "f2": "-(-x)*2^3 + ln(y)"},
    "constants": {"c1": 0.5, "c2": -1.5, "lambda": 0.25},
    "tolerance": 1e300,
}
MANIFESTS = {
    "hyperbolic": lambda: bundled_examples("hyperbolic"),
    "cone": lambda: bundled_examples("cone"),
    "sasakian3": lambda: bundled_examples("sasakian3"),
    "dense4": lambda: load_manifest(DENSE4),
    "dense4-vectors": lambda: load_manifest(DENSE4_VECTORS),
    "dense5": lambda: load_manifest(DENSE5),
    "foldable": lambda: load_manifest(FOLDABLE),
}

# recorded with the hand-written contraction loops, before einsum, except
# for "foldable"; "ricci", "design_fields" and the plans that hold Ricci
# were re-recorded when Ricci became the direct contraction of the
# Christoffel symbols instead of the trace of the curvature fold
EXPECTED = {
    "hyperbolic": {
        "christoffel":
            "6061573db01cecb811df6e90acbbecae8a352511962d4bdfe4aa71c079af6829",
        "riemann":
            "9c485e1e7cd9596e3e5a98c62630684e2a5ec73594c0e9f6aa00b86689304804",
        "riemann_lowered":
            "80fe2acf51cefdc658d306f824f889f596cd172336e49dd48557699658d0ee79",
        "ricci":
            "6abfb73b1da540d8f97d9454ff9b1df0e25fd7a4b98c3fa15b70533f9bd1fb57",
        "hessian":
            "6145cc64e7511afb667d122d75eb1513746e4e529b875e176db7379cf7b22b62",
        "gradient":
            "bbb6841c2a78c47e3c72b72087e153ed746f0b233df3204cd527554145cdc106",
        "design_fields":
            "9238a70382477024961ebe98dedf5152c55af2b06c1aef2e37d06c6377a1672a",
        "check-soliton/plan0":
            "f3de75593ac0d37443f84be37dadefb062663bc3a03e82257c1971059618ce90",
    },
    "cone": {
        "christoffel":
            "e233272bbed8155f0b262d31e04ffa7155cb4393f62a863400a0072072c7eebb",
        "riemann":
            "b6070f9bec3611114c20c4d5f2a596d1853e8eeca9c5ba3011aaf52462d5bd5e",
        "riemann_lowered":
            "4eb08906c42570a113e8250c31ab33fd88b345b751df76ebcac81de78fc21c93",
        "ricci":
            "d4396be6f9542794446fa97d5db34130be3ff4307626ab54d78005ffb1fabc2f",
        "hessian":
            "821d2c6bac0f14c7d6b67d057035fa7a408769977f0da9ea3adcd3cc93b77bc5",
        "gradient":
            "2cc6b74bcda2b441509be122cab3a278fab30cc1d4cd374f4bc8de3d36fe4cf0",
        "design_fields":
            "f935bc3bee082f96b76d3803e4d78421ae01340b9cb27e76d6f08a2ac8f4cff2",
        "check-soliton/plan0":
            "e9a92e876c7f779d3c5f6a528635ae72f394af1cee1b37e4ef49097c4fd48675",
    },
    "sasakian3": {
        "christoffel":
            "97f748b40dee4e4cd7c3cd24604af8a9b829ed18687fd0d1970220e95074ade9",
        "riemann":
            "043894f38cf11e9481ed0aa48c73a08446e6db4d2d0ca6a003490d99bdde3176",
        "riemann_lowered":
            "33dd4bb9ebe99b2326bd0bacfe74452542de917146285a9c666e4662073df878",
        "ricci":
            "6690b82774401215be43d825c2193c7963fbcb5b8677715c1bcf254c8384d965",
        "hessian":
            "ec454ffd5307c99c40d2ceb90bf0c67b97ad2eb95d7bcb2e2ca47e01d5a5d632",
        "gradient":
            "0cba1b22d5cf6a17737a4b9e0efc421cd024c0523486e6b4cd0ac3be27ed3367",
        "design_fields":
            "aa3852748f0a3807e72ed253ca96eb0dec5d68e19d4278b4852855445baab8fc",
        "sasakian_identities":
            "e7dac19d0d66187618eab8b39bd5e5f3571b2a02ab5a2f8175c062dc7ede9d40",
        "check-soliton/plan0":
            "0a628adcfb1a09673be4fc0bac71599525bc5b4de918e450e8478179e615d7ce",
        "check-structure/plan0":
            "d9e2ffb3af7b8051325d288d020d79ad0eea2a019678c827cf6316d4b8d6c1a0",
        "check-structure/plan1":
            "f6c7fe0fae1231f00d0239908d5fb8e8dfad02c9b956a87d1e1fcdc2cc5240d8",
        "check-theorem/plan0":
            "d9e2ffb3af7b8051325d288d020d79ad0eea2a019678c827cf6316d4b8d6c1a0",
        "check-theorem/plan1":
            "010797ac10603d909735aff4cb93e6629d051b7550e1f5c0ce008b5f25a390c8",
    },
    "dense4": {
        "christoffel":
            "3216121e4087dfb21ec561cf63f43b41a100b03174d57a92d96b419625d7f4a9",
        "riemann":
            "f9d214a4d4f8aaa6c9ef2d3fa96e360ad36ba69157c3f86ccade4039fd138715",
        "riemann_lowered":
            "c7923c3017578463ef4ef22e3c1ef185a35feb56268188a58c7a305557669c46",
        "ricci":
            "67a153d2a3cdc77b7b7627c5924225e54f19bfc13e5c0548f9c9269d64d405aa",
        "hessian":
            "deedd8e1bad8b3f2fa318c15b9fc20b8b568f385bb55a3c241d4ec1cd9115182",
        "gradient":
            "cfa7322a0b933d4bb7f7f64fcdb478ba9607e9b3dde3cf1a991cf5d56c46344f",
        "design_fields":
            "dad2cb3ab66105c33389880b0dfaf097c5e1b52f88db7a734d0732a445ab68fb",
        "check-soliton/plan0":
            "bd721fd821783f02121c15bad5dd8da32a72a2e6f2aa8cd0efe96cdcfaf6aeed",
    },
    "dense4-vectors": {
        "christoffel":
            "3216121e4087dfb21ec561cf63f43b41a100b03174d57a92d96b419625d7f4a9",
        "riemann":
            "f9d214a4d4f8aaa6c9ef2d3fa96e360ad36ba69157c3f86ccade4039fd138715",
        "riemann_lowered":
            "c7923c3017578463ef4ef22e3c1ef185a35feb56268188a58c7a305557669c46",
        "ricci":
            "67a153d2a3cdc77b7b7627c5924225e54f19bfc13e5c0548f9c9269d64d405aa",
        "check-soliton/plan0":
            "f4c7d3125e85f876d1ce285f9e111b6cc5f39b59fa2027806388c45d9a94ce57",
    },
    "dense5": {
        "christoffel":
            "eab94cfbc52383c568a985d07462c02f83a4da4bf7b01bfd0b72d21a3fd694ff",
        "riemann":
            "eff675738700126dd7699b5b2dc0a68e4f197de481a8fb41f92dae9be4050a86",
        "riemann_lowered":
            "eff675738700126dd7699b5b2dc0a68e4f197de481a8fb41f92dae9be4050a86",
        "ricci":
            "ea638c34b5ebcbd77e1693f79f6d2079d2a374b4c3554201d4d42234527665c5",
        "hessian":
            "e49eab8e49d02473d879ef5f55158aab5bf94a1b014a01f197a30b78782917bb",
        "gradient":
            "26de5f22d5352737d8f3ae4a2428268efb0dd36419d3cc3e3f052e8de2fd94e7",
        "design_fields":
            "15be85085abd2a2a6836e76b509960ae0410548a2e905cefc5b934dc26f799dc",
        "sasakian_identities":
            "0db8e03a9b35a8b6743f9ef55b4dbfb3b448a7416f3172cc156ed145c7413a03",
        "check-soliton/plan0":
            "dcfac74047df634f745462563913fa25186fb2b887f3cfce144b07431e27317f",
        "check-structure/plan0":
            "89e16410429a8a117a7903a1301f66dfb52369c5359cc06704583f152a6cff09",
        "check-structure/plan1":
            "d2c8fe9fc6710162fe247e7661ff27c94ea4249c6781f3ecc684cc71468e1806",
        "check-theorem/plan0":
            "89e16410429a8a117a7903a1301f66dfb52369c5359cc06704583f152a6cff09",
        "check-theorem/plan1":
            "f523e7353b57e85e7d863b4097d2ebcdcf594b79bf90c7489020b04f449e61eb",
    },
    # recorded while every builder still simplified its components
    "foldable": {
        "christoffel":
            "32b66b65cbe23d386cf43e01a009fd4d777b5cb0d1909d03c5fc3a1d39a9b7a0",
        "riemann":
            "517d02f211f3b65ecc14516cffb5ce8ac102dd4f46008f37bb1f097f28576b4c",
        "riemann_lowered":
            "52c0970daa4abc008554fe3f88090f5ed28ba1d79395372c2c2246b425db8295",
        "ricci":
            "eef74f22b7543ac3b571cbde8ee18e3e1eaffca26814b3db54927c48d43689ba",
        "hessian":
            "3ff854c69643421223e14db701e54516e5dfde1b47374be46dea5368ac84655b",
        "gradient":
            "30ed4b41e2a70e3b992d250948e4f15ca930765c58b457d2d6864c2fe434522f",
        "design_fields":
            "902de4da7a43ebacf7db9ba76218c5e757eedc8244bd4a464171b669ed103958",
        "sasakian_identities":
            "75c04f59a44cfdda999c54d74c3363b66ba710bf5ce3934570a65bd92ee9aefe",
        "check-soliton/plan0":
            "95ff372cd6bf6f23b20cd52e626aa108e168ce62c9d52e4768f87be412d0c0b0",
        "check-structure/plan0":
            "7e34eefbff4c95d89628c0012a4ab2cb71bfce7bff7b42a77ab810b0f9e013c6",
        "check-structure/plan1":
            "2df696b0859a3fd9dd75a35e0013d82759dbe3abab9a843ed21ebf9cbf1cb2b6",
        "check-theorem/plan0":
            "7e34eefbff4c95d89628c0012a4ab2cb71bfce7bff7b42a77ab810b0f9e013c6",
        "check-theorem/plan1":
            "a5e075344e7bed411a750f061732175d1129c51c612bc1bd21d436ce263fabf4",
    },
}


def text_digest(comps):
    text = "\n".join(expr.render(c) for c in comps)
    return hashlib.sha256(text.encode()).hexdigest()


def flat(field):
    return list(getattr(field, "comps", field).reshape(-1))


def tree_digests(name, monkeypatch):
    """{label: digest} of every pinned tree of one manifest, asserting that
    each component but the parsed potentials is its own simplification."""
    manifest = MANIFESTS[name]()
    metric = manifest.metric
    potentials = set(map(id, (manifest.scalars or {}).values()))

    def digest(comps):
        for c in comps:
            assert id(c) in potentials or simplify(c) is c, expr.render(c)
        return text_digest(comps)

    out = {}
    tensors = {"christoffel": christoffel, "riemann": riemann,
               "riemann_lowered": riemann_lowered, "ricci": ricci}
    for label, build in tensors.items():
        out[label] = digest(flat(build(metric)))
    if manifest.scalars is not None:
        f1, f2 = manifest.scalars["f1"], manifest.scalars["f2"]
        out["hessian"] = digest(flat(hessian(metric, f1)))
        out["gradient"] = digest(flat(gradient(metric, f1)))
        form = gradient_form(metric, f1, f2)
        out["design_fields"] = digest([c for f in design_fields(metric, form) for c in f])
    if manifest.structure is not None:
        block = manifest.structure
        structure = assemble_structure(manifest.chart, metric, block["phi"], block["xi"],
                                       block["eta"], params=manifest.params,
                                       tolerance=math.inf)
        identities = (covariant_phi_residual, reeb_transport_residual,
                      eta_transport_residual, curvature_reeb_residual)
        out["sasakian_identities"] = digest(
            [c for build in identities for c in flat(build(structure))])

    plans = []
    evaluate = expr.evaluate_many_multi

    def recording(exprs, env, size, sink=None):
        plans.append(list(exprs))
        return evaluate(exprs, env, size, sink)

    monkeypatch.setattr(expr, "evaluate_many_multi", recording)
    subcommands = ["check-soliton"]
    if manifest.structure is not None:
        subcommands += ["check-structure", "check-theorem"]
    for sub in subcommands:
        plans.clear()
        run_manifest(manifest, sub, count=3)
        for k, roots in enumerate(plans):
            out[f"{sub}/plan{k}"] = digest(roots)
    return out


@pytest.mark.parametrize("name", MANIFESTS)
def test_component_trees_are_pinned(name, monkeypatch):
    assert tree_digests(name, monkeypatch) == EXPECTED[name]
