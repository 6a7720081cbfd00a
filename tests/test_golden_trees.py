"""Golden digests of the symbolic component trees.

Every tensor builder, the Sasakian identities, and every plan that the
check subcommands evaluate, is pinned by the sha256 of the expr.render text of its components.  render
reparses to an evaluation-identical tree, so a digest pins the structure
of each tree (operand order and association included), not only its
values: a rewrite of how a tensor is contracted must leave these
unchanged.  Every tree that holds g^-1 or det g also follows the
algorithm of chart.symbolic_inverse (Gauss-Jordan elimination), so a
change of that algorithm changes these digests, though not the values.

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
# when that contraction dropped its a = k terms, which cancel; every digest
# that holds g^-1 was re-recorded when the inverse became Gauss-Jordan
# elimination in place of cofactor expansion
EXPECTED = {
    "hyperbolic": {
        "christoffel":
            "92c010ee0d73212e094dbcbbe21be779534f9c53c9335cf5fb1adee7463834ef",
        "riemann":
            "ea02ec7edd8b5bce538d6a2b549704697907bb2775dfd015b00f2eca52407b0a",
        "riemann_lowered":
            "129440dc2de268042883ea92aa9f58be6072db0f228bf90e411ee3b981fdf1d6",
        "ricci":
            "4f8c9feb35d7510f48fa0c324a8205c8dece1fffada96ab542a72aebd3a132d6",
        "hessian":
            "4901d9dc37a2540b39258ddf874192dc86d8db6d1643737b7e1c1bede88176ed",
        "gradient":
            "8f16cd9b2f7312d3cd356008efb1caea8aca2029c2deb9bc96d0ac65fa842d07",
        "design_fields":
            "269af348949aee5dd3b713d0d8b7a3c0e4631581575ea345826c4ac8a9a9c85f",
        "check-soliton/plan0":
            "a04ee8f82b1f72dd66afb51d4dbc9290f5e1762ce850b8373e54cc9616c0ec6e",
    },
    "cone": {
        "christoffel":
            "e0adf09d6a2b99dead7daf4898266649e6548ec4c1c6ceebe98b27531b9c8273",
        "riemann":
            "078a9ead664197933c53832f8372e4c4e59838c6f1cd0c0fe6e1603726acef4b",
        "riemann_lowered":
            "0351fe62f3bbe8066fedab5c9408cf82e82932787702d8de34233f125183caaa",
        "ricci":
            "867480af159de56dd19378c095eff27dc1a5115b0b5334a5e6d6484c704952aa",
        "hessian":
            "f5dd6abd6ab32ea6a6da073628f919245b4483963b5bc3533b681cec9fdd209b",
        "gradient":
            "b9283b69ef1d198a618605d4fca6c3b14e1d739be6c1739c8b3f6f527509f5a0",
        "design_fields":
            "2a94132868e3466fafcb4edc803c66d271ca27d2672c7d382a991f38043267c7",
        "check-soliton/plan0":
            "d0ba0320f89984b7bf771339fd8a7edaa4ae7f4504a61633d03f44711ceb6420",
    },
    "sasakian3": {
        "christoffel":
            "707ab2a0a1f920d22c7793648d55553db722bb32b46109c80125e8138bf51b48",
        "riemann":
            "73f2673cf01473d51eca8d0f2e26635b62db1cb25fcf6411976d5775793ba78b",
        "riemann_lowered":
            "b7c76cecea97e7e14690c7d895a8b0e766c17ee7f976a8a653a20f79a7d3f938",
        "ricci":
            "12666a0dda7cb15d63c8e87060070f5f55cb33a9bc517f06b23f8156c2d7f3ef",
        "hessian":
            "4e1c022f9de1413bf2ecc0783ca1df4183a78e3900700731793e8cad861f8d9f",
        "gradient":
            "eb21e2dde6e910c5f85039130864949d7c002e4c20c3cd3e71e46117f7a72b87",
        "design_fields":
            "5b9b37c383807326d8f5c9300293ad2918ef075fc6dcb498ffe61b4bf6ef2063",
        "sasakian_identities":
            "f5ff9fd2be1a41271fe4d3368c6d0e8d02cc51f2505d7b6a282a0366611aa12d",
        "check-soliton/plan0":
            "d33271e13c0fbd310d90bed34f916b1deadf0a89f761c20e893ccbf2e88d9b81",
        "check-structure/plan0":
            "d9e2ffb3af7b8051325d288d020d79ad0eea2a019678c827cf6316d4b8d6c1a0",
        "check-structure/plan1":
            "9731850c7dd06afffa5a10c077cdc2f807dc3bcd7a6d358196feec20a994cd21",
        "check-theorem/plan0":
            "d9e2ffb3af7b8051325d288d020d79ad0eea2a019678c827cf6316d4b8d6c1a0",
        "check-theorem/plan1":
            "6fd4044b8fd1470ce58978b2433df5dfe9e212d4c0f7622e72b4ca0736502ac9",
    },
    "dense4": {
        "christoffel":
            "c5988ef5760b38d09279a0af92213897e342503fcb5071f2f451922bfb00b9e5",
        "riemann":
            "bed1cdff8a2df57c833f5404d4050a8310e470f2c0a6480ced73516fa2e42790",
        "riemann_lowered":
            "5f06699fd3c2f546a0ef9c815a140b03f477f3770ec23fefba22b5d3b5fe81e1",
        "ricci":
            "7c47c6d7b1cefd52afb0648a53cd6ab2624a333c667a33923797ea11a3d3287c",
        "hessian":
            "ca3334b1d299beaadacbba5873f5e5bed99d1306fabae9dfc71ffd6f3f1bbec6",
        "gradient":
            "a1e0f38990a58abee551e9c7bcb8419667107a90aa824acb6c117ed18378f511",
        "design_fields":
            "c9aa5649ad7c8cb7143923b25502bc7ca5dbc705b77911121e2cee3331d5e5b7",
        "check-soliton/plan0":
            "70fdb05acb56539e5127668982419c0ea76b5f35ab94c27baf438b4f167fdfb7",
    },
    "dense4-vectors": {
        "christoffel":
            "c5988ef5760b38d09279a0af92213897e342503fcb5071f2f451922bfb00b9e5",
        "riemann":
            "bed1cdff8a2df57c833f5404d4050a8310e470f2c0a6480ced73516fa2e42790",
        "riemann_lowered":
            "5f06699fd3c2f546a0ef9c815a140b03f477f3770ec23fefba22b5d3b5fe81e1",
        "ricci":
            "7c47c6d7b1cefd52afb0648a53cd6ab2624a333c667a33923797ea11a3d3287c",
        "check-soliton/plan0":
            "4debee0ab982a49265bc1fa0f484af25fa657e66775ea9381bf07f4be163bd20",
    },
    "dense5": {
        "christoffel":
            "bac505fdcf04a44cf761dc2a9dfc4b21d36bcca0eb1837e599639006420e5f2d",
        "riemann":
            "eff675738700126dd7699b5b2dc0a68e4f197de481a8fb41f92dae9be4050a86",
        "riemann_lowered":
            "eff675738700126dd7699b5b2dc0a68e4f197de481a8fb41f92dae9be4050a86",
        "ricci":
            "67d8e35e65a0aceb58e34af6eed0f5bfef93222057b32f708ed11c77dbc54dd1",
        "hessian":
            "f7d04a7e6823a90e267d414152f20743969c5e7737a3006e9a55717a6669ec86",
        "gradient":
            "b73b5e42bdca9ae2c839e1db539577005b6a9b8459aec9e33f811d832e1aacc7",
        "design_fields":
            "89b176c34b71fe9d62d067b3b17fe5ff88680384f558393fd46869aa090d03df",
        "sasakian_identities":
            "4d4b7f6451ef627145e67d6c908ef9d3817c7beff7eaf6f510217eeedbbf95f9",
        "check-soliton/plan0":
            "9c3b0852ad0ca62f921a49bd5ead904e9b11285348849e91936de52bcf59cd17",
        "check-structure/plan0":
            "89e16410429a8a117a7903a1301f66dfb52369c5359cc06704583f152a6cff09",
        "check-structure/plan1":
            "00f3ca52fb185b313561e1d62f7aac256e24936682b42dcd267763dda4a59cc2",
        "check-theorem/plan0":
            "89e16410429a8a117a7903a1301f66dfb52369c5359cc06704583f152a6cff09",
        "check-theorem/plan1":
            "3fb9d905efb5c4798aa352916950eb4c6d9cddaac5b5819bbb95495d09024714",
    },
    # recorded while every builder still simplified its components
    "foldable": {
        "christoffel":
            "59f694f76aefb994c6fd06a0fbe0dd0a8e2605998f4d56817e37058a969e23ca",
        "riemann":
            "a0c52b54679e75eef624843c45ff5c84158f8dcb82e07eefb7cbe06ac8e8fc46",
        "riemann_lowered":
            "c14cde95ef6323ff06e962f50a269ce12937a0b550de2b6fb5447f4789a3e49a",
        "ricci":
            "fa34ba4e0f670a1fddede8f3aeaf9f514371bcb285e57b90bc28126ddf24ed2c",
        "hessian":
            "7009cfe211a140a864dac1ed1f317f24d1b1edec24abc0dcf9c1b6da312275ec",
        "gradient":
            "3333dcc245e8db08621ea0d9f267fb30c23b64a126f45d6d0c53febf6daa36ed",
        "design_fields":
            "d630b1dc6c855973b18be6a50455f50c2cc1bd7d1cf7642b8435f85c0bd1096c",
        "sasakian_identities":
            "59b3484a603744e6c24c662c744ecfbaa04a544aeb347f55f9ba6199dfed393a",
        "check-soliton/plan0":
            "4eeb274a501e1c73414b48214a34eaf87222f0e8d61e05cc74e9222b0bd985f0",
        "check-structure/plan0":
            "7e34eefbff4c95d89628c0012a4ab2cb71bfce7bff7b42a77ab810b0f9e013c6",
        "check-structure/plan1":
            "999f98f859f619ef9cd94b1a9413845812f05ba487f771205d9c8d9b6f6249ca",
        "check-theorem/plan0":
            "7e34eefbff4c95d89628c0012a4ab2cb71bfce7bff7b42a77ab810b0f9e013c6",
        "check-theorem/plan1":
            "8c23ccbc122ddabb55d56080508203e8f0be9545fcd1593591f99f6f400f0e89",
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
