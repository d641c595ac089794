"""Quasi orders, quotients, extensions, linearization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderdim import (
    NotQuasiOrder,
    QuasiOrder,
    SizeMismatch,
    chain_order,
    crown_order,
    down_set_sizes,
    extends,
    linear_extension,
    quasi_order,
    quotient,
    random_quasi,
)
from orderdim.errors import IndexOutOfRange

from .oracles import (
    loop_linear_extension,
    loop_quotient,
    relation_is_reflexive,
    relation_is_transitive,
)


def pair_sets(max_n: int = 6):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, max(n - 1, 0)),
                    st.integers(0, max(n - 1, 0)),
                ),
                max_size=n * n,
            ),
        )
        if n
        else st.just((0, []))
    )


def test_factory_builds_reflexive_transitive_closure():
    q = quasi_order(4, [(0, 1), (1, 2)], close=True)
    assert q.leq(0, 2)
    assert q.leq(3, 3)
    assert not q.leq(2, 0)


def test_factory_rejects_nonclosed_pairs_without_close_flag():
    with pytest.raises(NotQuasiOrder) as err:
        quasi_order(3, [(0, 1), (1, 2)], close=False)
    assert err.value.witness == (0, 1, 2)


def test_factory_rejects_out_of_range_pairs():
    with pytest.raises(IndexOutOfRange):
        quasi_order(2, [(0, 5)], close=True)


def test_direct_construction_validates_shape():
    with pytest.raises(NotQuasiOrder):
        QuasiOrder(2, (0b01, 0b01))
    with pytest.raises(SizeMismatch):
        QuasiOrder(2, (0b01,))


@given(pair_sets())
@settings(max_examples=120)
def test_closure_is_reflexive_transitive_and_idempotent(data):
    n, pairs = data
    q = quasi_order(n, pairs, close=True)
    assert relation_is_reflexive(q.rows)
    assert relation_is_transitive(q.rows)
    again = quasi_order(n, q.related_pairs(), close=True)
    assert again.rows == q.rows


def test_equivalence_and_quotient_grouping():
    q = quasi_order(4, [(0, 1), (1, 0), (1, 2), (2, 3)], close=True)
    assert q.equivalent(0, 1)
    assert not q.equivalent(1, 2)
    qt = quotient(q)
    assert qt.classes == ((0, 1), (2,), (3,))
    assert qt.class_of == (0, 0, 1, 2)
    assert qt.lt(0, 2) and not qt.lt(2, 0)


@given(pair_sets())
@settings(max_examples=100)
def test_quotient_classes_partition_the_universe(data):
    n, pairs = data
    qt = quotient(quasi_order(n, pairs, close=True))
    flat = sorted(x for cls in qt.classes for x in cls)
    assert flat == list(range(n))
    for cls in qt.classes:
        assert cls == tuple(sorted(cls))


def test_extends_requires_containment_and_same_equivalences():
    base = quasi_order(3, [], close=True)
    bigger = quasi_order(3, [(0, 1)], close=True)
    assert extends(base, bigger)
    assert not extends(bigger, base)
    merged = quasi_order(3, [(0, 1), (1, 0)], close=True)
    assert not extends(base, merged)


def test_extends_rejects_size_mismatch():
    with pytest.raises(SizeMismatch):
        extends(chain_order(2), chain_order(3))


@given(pair_sets())
@settings(max_examples=100)
def test_linear_extension_is_total_and_extends(data):
    n, pairs = data
    q = quasi_order(n, pairs, close=True)
    lin = linear_extension(q)
    assert lin.is_total()
    assert extends(q, lin)


def test_linear_extension_breaks_ties_by_least_member():
    q = quasi_order(3, [], close=True)
    lin = linear_extension(q)
    assert lin.leq(0, 1) and lin.leq(1, 2)
    assert not lin.leq(1, 0)


@given(
    st.integers(0, 20),
    st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150)
def test_bitmask_quotient_and_linear_extension_match_loop_versions(n, p, seed):
    q = random_quasi(n, p, seed)
    assert quotient(q) == loop_quotient(q)
    assert linear_extension(q) == loop_linear_extension(q)


def test_down_set_sizes_counts_predecessors():
    assert down_set_sizes(chain_order(3)) == (1, 2, 3)
    assert down_set_sizes(crown_order(3)) == (1, 1, 1, 3, 3, 3)


def test_random_quasi_is_always_valid():
    for seed in range(20):
        q = random_quasi(5, 0.4, seed)
        assert relation_is_reflexive(q.rows)
        assert relation_is_transitive(q.rows)
