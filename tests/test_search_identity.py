"""Identity gate for the exact cover search and the campaigns.

Pins, on fixed instances, the exact number of search nodes
`dichromatic_number` visits on the pair digraph and the sha256 of the
canonical `order_dimension` output. A change to the solver that keeps the
search keeps both; one that changes the visit order, the node count or
the chosen cover fails here and has to say why. The canonical lines of
every certificate campaign are pinned the same way.
"""

from __future__ import annotations

import hashlib

import pytest

from orderdim import (
    LimitExceeded,
    boolean_order,
    crown_order,
    dichromatic_number,
    order_dimension,
    pair_digraph,
    random_order,
)
from orderdim.campaigns import CAMPAIGNS, run_campaign
from orderdim.serialize import dumps, family_payload

# (label, poset, search nodes, sha256 of the canonical dimension output)
PINNED = [
    (
        "crown_order(5)",
        lambda: crown_order(5),
        104,
        "6f8545093fa5d1bc6bbcb7e1e1bfc1f2f35c684c59c3ce193540ec4e2d0e20ab",
    ),
    (
        "boolean_order(4)",
        lambda: boolean_order(4),
        237,
        "11e28b2a8fa2a96081efa6dec8a88acdb210902a3c324cc694a412cf077f92f2",
    ),
    (
        "random_order(14, 0.2, 0)",
        lambda: random_order(14, 0.2, 0),
        540,
        "eff005c9dc941c145b20f3ebe8063efc88ad2abdbe5d4cc8cb1026d59a0d2d9a",
    ),
    (
        "random_order(16, 0.3, 2)",
        lambda: random_order(16, 0.3, 2),
        17_595,
        "96bbf07436f5806324d66f0f9d6e2d917fd01028ca800b0a3827b75aee93cf74",
    ),
    (
        "random_order(20, 0.45, 2)",
        lambda: random_order(20, 0.45, 2),
        13_884,
        "eb5f674303c71be3701cf93f12cadb5297a28a4b48d52e02ce3f8ebb1280bcc0",
    ),
]


@pytest.mark.parametrize(
    "make, nodes, digest", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED]
)
def test_search_nodes_and_output_bytes_are_pinned(make, nodes, digest):
    q = make()
    ap, _ = pair_digraph(q)
    # the node count is the budget boundary: enough at N, exceeded at N-1
    res = dichromatic_number(ap, budget=nodes)
    with pytest.raises(LimitExceeded):
        dichromatic_number(ap, budget=nodes - 1)
    r = order_dimension(q)
    assert r.d == res.k
    text = dumps({"d": r.d, "family": family_payload(r.witness)})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of every campaign's canonical certificate lines (the stdout of
# `orderdim verify NAME`) at default size and seed 0
CAMPAIGN_DIGESTS = {
    "odim-eq-dicr": "95544a2ed8977dba8f1b765f1075f0c28e6d2260a7de7bfd4fa759544bde1041",
    "dim-agreement": "2ff18407ae03f4e845bdea2be9f76df481ab45aa06e81cce0cd3221c6e4a86d3",
    "dim-landmarks": "feb0f83d34889667526aa9157bf8068d1075b909edad9f9a2d139e3071845a1e",
    "dicr-landmarks": "3b34f5cce08687947c43fcd1eeb72b49ae47b0e70e453506728d21d482828e7a",
    "graph-collapse": "a81194cd76bca39c705f970a9a36d5db29056265842a71c5745c028cb8774d0c",
    "h1plus": "f38a64e19adeaed9c9a3848f3c1fde1e0343430d3aeb499d22cb1a4daedfc4af",
    "cyclefree-extends": "001a2902b82e91b980f805f33b8753e4670ecd0535f3f64c873a9a6d13f8c827",
    "roundtrip": "63bca30de70b83717bf4c8a598de57a324e1b758368124ca043611959d52c644",
    "g0": "e0bc5bcbc2c765e895090b5bc5df753ac0f6fd818038746a780670dda0fd8ac0",
    "xinapg": "ab9ab3fea2bf97275b3146aad980a3d843673d4e55910aa5f1873f0e2e7365ac",
    "hom-transfer": "8f29d7724a12bcd8d09c18edc5953a4b37075c6cafcebf085746bd260293f763",
    "separators": "a352be3d58b7cc3b3dce6a30a5b754dd797a6b97b5826a94fccdd9d90d26bc35",
    "minimal-hom": "6a01b7bdc4e1cbd67b4981e7b3480604d5fc3cc8934d950074503db6dbb689c0",
}


def test_every_campaign_is_pinned():
    assert set(CAMPAIGN_DIGESTS) == set(CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(CAMPAIGN_DIGESTS))
def test_campaign_output_bytes_are_pinned(name):
    h = hashlib.sha256()
    for cert in run_campaign(name, seed=0):
        h.update(dumps(cert.to_payload()).encode())
    assert h.hexdigest() == CAMPAIGN_DIGESTS[name]
