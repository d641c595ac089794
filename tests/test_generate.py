"""Instance generators and the exhaustive poset census."""

from __future__ import annotations

import hashlib

import pytest

from orderdim import (
    TooLarge,
    antichain_order,
    bidirected_clique,
    boolean_order,
    chain_order,
    crown_order,
    directed_cycle,
    enumerate_posets,
    quotient,
    random_digraph,
    random_order,
    random_quasi,
    random_symmetric,
)
from orderdim.serialize import digraph_payload, dumps, order_payload

from .oracles import (
    brute_force_poset_count,
    relation_is_reflexive,
    relation_is_transitive,
)


def test_fixed_shapes():
    assert chain_order(3).leq(0, 2)
    assert not antichain_order(3).leq(0, 1)
    crown = crown_order(2)
    assert crown.leq(0, 3) and not crown.leq(0, 2)
    cube = boolean_order(3)
    assert cube.n == 8
    assert cube.leq(0b001, 0b011) and not cube.leq(0b011, 0b001)
    assert directed_cycle(4).adj(3, 0)
    k3 = bidirected_clique(3)
    assert k3.adj(0, 1) and k3.adj(1, 0)


def test_boolean_order_guard():
    with pytest.raises(TooLarge):
        boolean_order(7)


def test_random_generators_are_deterministic_per_seed():
    assert random_order(6, 0.3, 42).rows == random_order(6, 0.3, 42).rows
    assert random_quasi(6, 0.3, 42).rows == random_quasi(6, 0.3, 42).rows
    assert random_digraph(6, 0.3, 42).rows == random_digraph(6, 0.3, 42).rows
    assert (
        random_symmetric(6, 0.3, 42).rows == random_symmetric(6, 0.3, 42).rows
    )
    assert random_order(6, 0.3, 42).rows != random_order(6, 0.3, 43).rows


def _digest(payloads) -> str:
    h = hashlib.sha256()
    for doc in payloads:
        h.update(dumps(doc).encode())
    return h.hexdigest()


# Digests of the canonical output of each generator over sizes 0..24 and
# 200, chances 0, 0.2, 0.45 and 1 and three seeds, recorded before the
# generators drew through SplitMix64.hits and built their rows directly.
SEEDED_DIGESTS = {
    random_order: (
        order_payload,
        "eaaae82d18ccf1790c9da377113ca1f4701ffeaff0cc67f008a19e02627664ef",
    ),
    random_quasi: (
        order_payload,
        "5ef9faac70d2aca4f5324bf783249785b70a6c37d15a1a9ada07b0994b0b2814",
    ),
    random_digraph: (
        digraph_payload,
        "40f60e550151cbb773b9842590e21ce326308ce67433c51cd43e0a734d68ac19",
    ),
    random_symmetric: (
        digraph_payload,
        "390903657690fe72e7bc6ec36dc2d9a0fb19f04f9c5cc9d16eafcbc63a14ddff",
    ),
}


@pytest.mark.parametrize(
    "make", list(SEEDED_DIGESTS), ids=lambda make: make.__name__
)
def test_seeded_generators_keep_their_bytes(make):
    payload, digest = SEEDED_DIGESTS[make]
    assert _digest(
        payload(make(n, p, seed))
        for n in (*range(25), 200)
        for p in (0.0, 0.2, 0.45, 1.0)
        for seed in (0, 7, 0xDEADBEEFCAFEF00D)
    ) == digest


def test_fixed_shapes_keep_their_bytes():
    assert _digest(order_payload(crown_order(n)) for n in range(1, 9)) == (
        "e65eac4303c3e24b905319c18142874c548e5620b5c22fb18d78dc6c2a983f3b"
    )
    assert _digest(order_payload(boolean_order(a)) for a in range(5)) == (
        "62613beecb747030137a2a55b962d8d9e83ffed166f344b823144b4c7f40b52a"
    )


def test_random_order_is_a_partial_order():
    for seed in range(25):
        q = random_order(6, 0.35, seed)
        assert relation_is_reflexive(q.rows)
        assert relation_is_transitive(q.rows)
        qt = quotient(q)
        assert all(len(c) == 1 for c in qt.classes)


def test_random_symmetric_is_symmetric():
    for seed in range(10):
        assert random_symmetric(7, 0.4, seed).is_symmetric()


def test_enumerate_posets_counts_regenerated_from_brute_force():
    for n in range(5):
        enumerated = sum(1 for _ in enumerate_posets(n))
        assert enumerated == brute_force_poset_count(n)


def test_enumerate_posets_yields_distinct_valid_posets():
    seen = set()
    for q in enumerate_posets(3):
        assert relation_is_reflexive(q.rows)
        assert relation_is_transitive(q.rows)
        assert all(len(c) == 1 for c in quotient(q).classes)
        seen.add(q.rows)
    assert len(seen) == 19


def test_enumerate_posets_guard():
    with pytest.raises(TooLarge):
        next(enumerate_posets(7))
    with pytest.raises(TooLarge):
        brute_force_poset_count(6)
