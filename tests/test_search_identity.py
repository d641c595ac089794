"""Identity gate for the exact cover search.

Pins, on fixed instances, the exact number of search nodes
`dichromatic_number` visits on the pair digraph and the sha256 of the
canonical `order_dimension` output. A change to the solver that keeps the
search keeps both; one that changes the visit order, the node count or
the chosen cover fails here and has to say why.
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
