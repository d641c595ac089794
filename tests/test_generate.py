"""Instance generators and the exhaustive poset census."""

from __future__ import annotations

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
