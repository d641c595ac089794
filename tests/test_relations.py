"""Quasi orders, quotients, extensions, linearization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderdim import (
    NotQuasiOrder,
    NotStrictOrder,
    QuasiOrder,
    StrictOrder,
    SizeMismatch,
    chain_order,
    crown_order,
    down_set_sizes,
    extends,
    linear_extension,
    quasi_order,
    quotient,
    random_order,
    random_quasi,
)
from orderdim.errors import IndexOutOfRange
from orderdim.relations import (
    _transpose_tiled,
    bits_of,
    close_rows,
    transpose_rows,
)
from orderdim.rng import SplitMix64

from .oracles import (
    columns,
    loop_linear_extension,
    loop_quotient,
    members,
    relation_is_reflexive,
    relation_is_transitive,
    walk_quasi_order,
    walk_strict_order,
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


def _outcome(build, n, rows):
    try:
        build(n, rows)
    except (NotQuasiOrder, NotStrictOrder) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


def _kernel_matches_walk(n, rows) -> tuple[bool, bool]:
    """Both orders accept rows or raise exactly what the walk raises;
    returns whether each accepted."""
    rows = tuple(rows)
    quasi = _outcome(QuasiOrder, n, rows)
    strict = _outcome(StrictOrder, n, rows)
    assert quasi == _outcome(walk_quasi_order, n, rows), rows
    assert strict == _outcome(walk_strict_order, n, rows), rows
    return quasi is None, strict is None


def _flip(rows, rng, flips):
    rows = list(rows)
    for _ in range(flips):
        if rows:
            rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(len(rows))
    return rows


def test_transitivity_kernel_matches_the_walk_on_every_small_relation():
    accepted = [0, 0]
    for n in range(4):
        full = (1 << n) - 1
        for code in range(1 << (n * n)):
            rows = [(code >> (i * n)) & full for i in range(n)]
            for variant in (
                rows,
                [r | 1 << i for i, r in enumerate(rows)],
                [r & ~(1 << i) for i, r in enumerate(rows)],
            ):
                quasi, strict = _kernel_matches_walk(n, variant)
                accepted[0] += quasi and variant is rows
                accepted[1] += strict and variant is rows
    # labelled quasi orders and posets on 0..3 points: 1+1+4+29, 1+1+3+19
    assert accepted == [35, 24]


def test_transitivity_kernel_matches_the_walk_on_seeded_relations():
    rng = random.Random(15)
    seen = {"raw": [0, 0], "closed": [0, 0], "strict": [0, 0], "merged": [0, 0]}
    ties = 0
    for _ in range(400):
        n = rng.randint(0, 14)
        p = rng.choice([0.05, 0.15, 0.3, 0.6])
        full = (1 << n) - 1
        raw = [
            sum(1 << j for j in range(n) if rng.random() < p) for _ in range(n)
        ]
        closed = close_rows([r | 1 << i for i, r in enumerate(raw)], n)
        strict = [
            r & ~(1 << i)
            for i, r in enumerate(random_order(n, p, rng.randrange(1 << 30)).rows)
        ]
        merged = random_quasi(n, p / 2, rng.randrange(1 << 30)).rows
        ties += len(set(merged)) < n
        for name, rows in (
            ("raw", raw),
            ("raw", [r | 1 << i for i, r in enumerate(raw)]),
            ("closed", closed),
            ("closed", _flip(closed, rng, rng.randint(1, 3))),
            ("strict", strict),
            ("strict", _flip(strict, rng, rng.randint(1, 3))),
            ("merged", merged),
            ("merged", _flip(merged, rng, rng.randint(1, 3))),
        ):
            assert all(r & ~full == 0 for r in rows)
            quasi, strict_ok = _kernel_matches_walk(n, rows)
            seen[name][quasi or strict_ok] += 1
    # every family gives both accepted and rejected relations
    assert all(min(counts) >= 40 for counts in seen.values()), seen
    assert ties >= 40


def test_transitivity_kernel_matches_the_walk_on_chains():
    rng = random.Random(16)
    for n in range(16):
        ascending = chain_order(n).rows  # row i is the suffix i..n-1
        descending = tuple((2 << i) - 1 for i in range(n))  # the prefix 0..i
        for rows in (ascending, descending):
            strict = [r & ~(1 << i) for i, r in enumerate(rows)]
            assert _kernel_matches_walk(n, rows) == (True, n == 0)
            assert _kernel_matches_walk(n, strict) == (n == 0, True)
            for _ in range(6):
                _kernel_matches_walk(n, _flip(rows, rng, 1))
                _kernel_matches_walk(n, _flip(strict, rng, 1))


def test_transitivity_kernel_matches_the_walk_on_crowns():
    # the maxima's rows hold only themselves (quasi) or nothing (strict),
    # so the kernel settles them in every later row at once
    rng = random.Random(17)
    for k in range(1, 9):
        rows = crown_order(k).rows
        strict = [r & ~(1 << i) for i, r in enumerate(rows)]
        assert _kernel_matches_walk(2 * k, rows) == (True, False)
        assert _kernel_matches_walk(2 * k, strict) == (False, True)
        for _ in range(12):
            _kernel_matches_walk(2 * k, _flip(rows, rng, rng.randint(1, 2)))
            _kernel_matches_walk(2 * k, _flip(strict, rng, rng.randint(1, 2)))


def test_transitivity_kernel_names_the_least_witness():
    # rows 0 and 3 fail; row 3 is the smaller int and is visited first
    with pytest.raises(NotQuasiOrder) as err:
        QuasiOrder(4, (0b1101, 0b0010, 0b0110, 0b1100))
    assert err.value.witness == (0, 2, 1)
    assert str(err.value) == "transitivity fails at (0, 2, 1)"
    with pytest.raises(NotStrictOrder, match=r"^not transitive through \(0, 2\)$"):
        StrictOrder(4, (0b1100, 0b0000, 0b0010, 0b0100))


# the sizes on either side of each change of transpose_rows' method or
# block width
BLOCK_EDGES = (5, 6, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 256, 257)


def _rows(n, p, seed):
    """n rows of n bits, each set with probability p."""
    bits = SplitMix64(seed).hits(n * n, p)
    full = (1 << n) - 1
    return [bits >> (i * n) & full for i in range(n)]


def test_transpose_rows_matches_columns_at_every_size():
    rng = random.Random(21)
    for n in range(301):
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert transpose_rows(rows, n) == columns(rows, n), n
    for n in BLOCK_EDGES:
        for p in (0.0, 0.5, 1.0):
            rows = tuple(_rows(n, p, n))
            assert transpose_rows(rows, n) == columns(rows, n), (n, p)


@given(
    st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(0, 300)),
    st.floats(0, 1),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_transpose_rows_matches_columns_at_any_density(n, p, seed):
    rows = _rows(n, p, seed)
    assert transpose_rows(rows, n) == columns(rows, n)


@pytest.mark.parametrize("n", [257, 300, 1000])
def test_tiled_transpose_matches_columns_dense_and_sparse(n):
    # sparse matrices fall back to the bit walk, so the tiles are also
    # checked on them directly; a chain leaves its lower tiles empty
    chain = [((1 << n) - 1) >> i << i for i in range(n)]
    for rows in [_rows(n, p, n) for p in (0.0005, 0.01, 0.5, 1.0)] + [chain]:
        want = columns(rows, n)
        assert transpose_rows(rows, n) == want
        assert _transpose_tiled(rows, n) == want


def _around(edge):
    return st.integers(max(0, edge - 2**12), edge + 2**12)


def _under_top(top):
    """Masks whose highest set bit is top - 1, the rest drawn dense or
    sparse below it."""
    high = 1 << (top - 1)
    return st.one_of(
        st.integers(0, high - 1),
        st.lists(st.integers(0, top - 1), max_size=4).map(
            lambda bits: sum({1 << j for j in bits})
        ),
    ).map(lambda low: high | low)


@given(
    st.one_of(
        st.sampled_from([0, 1, 2**24 - 1, 2**24]),
        _around(2**8),
        _around(2**16),
        _around(2**24),
        st.integers(0, 2**300),
        # sparse wide masks: the top bit far above the others
        st.builds(lambda k: 1 << k | 1, st.integers(0, 4096)),
        st.builds(
            lambda k, j: 1 << k | 1 << j,
            st.integers(0, 4096),
            st.integers(0, 4096),
        ),
        # the top bit at each table edge, and far past the last table
        st.sampled_from([8, 16, 24, 32, 56, 64, 65])
        .flatmap(lambda edge: st.integers(edge - 2, edge + 2))
        .flatmap(_under_top),
        st.integers(66, 5000).flatmap(_under_top),
    )
)
@settings(max_examples=500)
def test_bits_of_lists_the_set_bits_in_order(mask):
    bits = bits_of(mask)
    assert list(bits) == members(mask)
    assert all(a < b for a, b in zip(bits, bits[1:]))
    assert list(bits) == members(mask)  # read a second time


def test_bits_of_reads_every_byte_of_each_table():
    for b in range(256):
        for shift in range(0, 64, 8):
            for rest in (0, 0x800001, 1 << 63 | 1, 1 << 64 | 1):
                mask = b << shift | rest & ~(0xFF << shift)
                assert list(bits_of(mask)) == members(mask), mask
