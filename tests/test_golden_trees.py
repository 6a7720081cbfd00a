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
# Christoffel symbols instead of the trace of the curvature fold, and again
# when that contraction dropped its a = k terms, which cancel
EXPECTED = {
    "hyperbolic": {
        "christoffel":
            "6061573db01cecb811df6e90acbbecae8a352511962d4bdfe4aa71c079af6829",
        "riemann":
            "9c485e1e7cd9596e3e5a98c62630684e2a5ec73594c0e9f6aa00b86689304804",
        "riemann_lowered":
            "80fe2acf51cefdc658d306f824f889f596cd172336e49dd48557699658d0ee79",
        "ricci":
            "5ceb5ae99f2e3d1e1d1b152cd6c9c422bdebeed80b4556389c4501b811e8f2af",
        "hessian":
            "6145cc64e7511afb667d122d75eb1513746e4e529b875e176db7379cf7b22b62",
        "gradient":
            "bbb6841c2a78c47e3c72b72087e153ed746f0b233df3204cd527554145cdc106",
        "design_fields":
            "e286e83a907067112e6ac4f404a71da84711470db41e1fcbb7492f337830d2e9",
        "check-soliton/plan0":
            "b5e6d66c687463f268f0690926031bfdc2630234cc1538a281d73312360efd5b",
    },
    "cone": {
        "christoffel":
            "e233272bbed8155f0b262d31e04ffa7155cb4393f62a863400a0072072c7eebb",
        "riemann":
            "b6070f9bec3611114c20c4d5f2a596d1853e8eeca9c5ba3011aaf52462d5bd5e",
        "riemann_lowered":
            "4eb08906c42570a113e8250c31ab33fd88b345b751df76ebcac81de78fc21c93",
        "ricci":
            "82e98723483592a57056a275eb6b553c7aff3d33bf6b8ea93abf6bad7f0fa0a1",
        "hessian":
            "821d2c6bac0f14c7d6b67d057035fa7a408769977f0da9ea3adcd3cc93b77bc5",
        "gradient":
            "2cc6b74bcda2b441509be122cab3a278fab30cc1d4cd374f4bc8de3d36fe4cf0",
        "design_fields":
            "696cfe655de05140e6ae79e1af5f2ffab0910df54ec708392f89c7b738fa0e7a",
        "check-soliton/plan0":
            "db4887e7c41f472a8fb50289b77b8803c87de098fc5c0434b9feb9c789ee79bb",
    },
    "sasakian3": {
        "christoffel":
            "97f748b40dee4e4cd7c3cd24604af8a9b829ed18687fd0d1970220e95074ade9",
        "riemann":
            "043894f38cf11e9481ed0aa48c73a08446e6db4d2d0ca6a003490d99bdde3176",
        "riemann_lowered":
            "33dd4bb9ebe99b2326bd0bacfe74452542de917146285a9c666e4662073df878",
        "ricci":
            "f06c98d5233a6007290c8cb419812b00c23816591ca8d0884091aa870fa20ce4",
        "hessian":
            "ec454ffd5307c99c40d2ceb90bf0c67b97ad2eb95d7bcb2e2ca47e01d5a5d632",
        "gradient":
            "0cba1b22d5cf6a17737a4b9e0efc421cd024c0523486e6b4cd0ac3be27ed3367",
        "design_fields":
            "a3672b77716b849b6af6421d50a8ec94186cad268c510f0a544b3895a46e8d18",
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
            "8085518acd0098672d05432d4a002d66c9b54d906cebd1c46fcdfe6588c5f2d4",
    },
    "dense4": {
        "christoffel":
            "3216121e4087dfb21ec561cf63f43b41a100b03174d57a92d96b419625d7f4a9",
        "riemann":
            "f9d214a4d4f8aaa6c9ef2d3fa96e360ad36ba69157c3f86ccade4039fd138715",
        "riemann_lowered":
            "c7923c3017578463ef4ef22e3c1ef185a35feb56268188a58c7a305557669c46",
        "ricci":
            "44e9d58584708a4d3a6986a831e05a22d093c81b3a296512037f43ad4df72665",
        "hessian":
            "deedd8e1bad8b3f2fa318c15b9fc20b8b568f385bb55a3c241d4ec1cd9115182",
        "gradient":
            "cfa7322a0b933d4bb7f7f64fcdb478ba9607e9b3dde3cf1a991cf5d56c46344f",
        "design_fields":
            "a7911a81e2b9974d46758494b1d0443f8325ed2d6a13b20609a3738cc1dd09c0",
        "check-soliton/plan0":
            "7642b0ffa6c0352b9aa4cc75240b78799ccb70f96b5ebf8917fbe4f17bcc3727",
    },
    "dense4-vectors": {
        "christoffel":
            "3216121e4087dfb21ec561cf63f43b41a100b03174d57a92d96b419625d7f4a9",
        "riemann":
            "f9d214a4d4f8aaa6c9ef2d3fa96e360ad36ba69157c3f86ccade4039fd138715",
        "riemann_lowered":
            "c7923c3017578463ef4ef22e3c1ef185a35feb56268188a58c7a305557669c46",
        "ricci":
            "44e9d58584708a4d3a6986a831e05a22d093c81b3a296512037f43ad4df72665",
        "check-soliton/plan0":
            "22cb221396855ea4d856aa081cd681b3fea26a332e46c50d7b736a558a742c53",
    },
    "dense5": {
        "christoffel":
            "eab94cfbc52383c568a985d07462c02f83a4da4bf7b01bfd0b72d21a3fd694ff",
        "riemann":
            "eff675738700126dd7699b5b2dc0a68e4f197de481a8fb41f92dae9be4050a86",
        "riemann_lowered":
            "eff675738700126dd7699b5b2dc0a68e4f197de481a8fb41f92dae9be4050a86",
        "ricci":
            "67d8e35e65a0aceb58e34af6eed0f5bfef93222057b32f708ed11c77dbc54dd1",
        "hessian":
            "e49eab8e49d02473d879ef5f55158aab5bf94a1b014a01f197a30b78782917bb",
        "gradient":
            "26de5f22d5352737d8f3ae4a2428268efb0dd36419d3cc3e3f052e8de2fd94e7",
        "design_fields":
            "0eb16cbedbcbe47da4e187b6105f252099a29218f63005f4ae942a60ba69f054",
        "sasakian_identities":
            "0db8e03a9b35a8b6743f9ef55b4dbfb3b448a7416f3172cc156ed145c7413a03",
        "check-soliton/plan0":
            "5f0a5843a2175509fe9bd873ae0e83eb4761af3c67166bec2a9cdd90dec4bf2d",
        "check-structure/plan0":
            "89e16410429a8a117a7903a1301f66dfb52369c5359cc06704583f152a6cff09",
        "check-structure/plan1":
            "d2c8fe9fc6710162fe247e7661ff27c94ea4249c6781f3ecc684cc71468e1806",
        "check-theorem/plan0":
            "89e16410429a8a117a7903a1301f66dfb52369c5359cc06704583f152a6cff09",
        "check-theorem/plan1":
            "16e90ded005ddcbcbcf5b870f976bccd2a89a9629e10483851423c82eb488756",
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
            "c3243c7ed78e655e34298239d44ff7abd9d088cde68d8d0f7f7dadaf5f6dbaf3",
        "hessian":
            "3ff854c69643421223e14db701e54516e5dfde1b47374be46dea5368ac84655b",
        "gradient":
            "30ed4b41e2a70e3b992d250948e4f15ca930765c58b457d2d6864c2fe434522f",
        "design_fields":
            "b5a1b839dc34cbbe04cea13a6f12e643b85170f78942b28b37442de7e0f9c926",
        "sasakian_identities":
            "75c04f59a44cfdda999c54d74c3363b66ba710bf5ce3934570a65bd92ee9aefe",
        "check-soliton/plan0":
            "26763735aa2add64de15e2de9fde684a894f495c75849e138bbd6714c49c2d8c",
        "check-structure/plan0":
            "7e34eefbff4c95d89628c0012a4ab2cb71bfce7bff7b42a77ab810b0f9e013c6",
        "check-structure/plan1":
            "2df696b0859a3fd9dd75a35e0013d82759dbe3abab9a843ed21ebf9cbf1cb2b6",
        "check-theorem/plan0":
            "7e34eefbff4c95d89628c0012a4ab2cb71bfce7bff7b42a77ab810b0f9e013c6",
        "check-theorem/plan1":
            "e7532d60c92e13f63772e7310905ace93f9f50f79798ca2d51271a6229a66b12",
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
