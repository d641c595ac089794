"""Digraphs, cycles, acyclicity, SCCs, homomorphisms."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderdim import (
    Cycle,
    Digraph,
    HomWitness,
    IndexOutOfRange,
    AcyclicCover,
    InvalidCover,
    LimitExceeded,
    NotADigraph,
    SizeMismatch,
    bidirected_clique,
    check_cover,
    digraph,
    directed_cycle,
    find_homomorphism,
    is_acyclic,
    is_minimal_cycle,
    minimal_cycles,
    pair_digraph,
    random_digraph,
    random_order,
    scc_decompose,
    verify_cycle,
    verify_homomorphism,
)

from orderdim.digraphs import _cycle_in, _strong_components
from orderdim.relations import bits_of, transpose_rows
from orderdim.rng import SplitMix64

from .oracles import (
    brute_minimal_cycle_sets,
    brute_scc,
    colour_dfs_is_acyclic,
    dfs_cycle_in,
    subset_is_acyclic,
    tuple_strong_components,
)


def digraphs(max_n: int = 6):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda rows: Digraph(
                n, tuple(r & ~(1 << i) & ((1 << n) - 1) for i, r in enumerate(rows))
            ),
            st.lists(
                st.integers(0, max((1 << n) - 1, 0)), min_size=n, max_size=n
            ),
        )
    )


def test_factory_and_validation():
    d = digraph(3, [(0, 1), (1, 2)])
    assert d.adj(0, 1) and not d.adj(1, 0)
    assert list(d.edges()) == [(0, 1), (1, 2)]
    assert d.edge_count() == 2
    with pytest.raises(NotADigraph):
        digraph(2, [(0, 0)])
    with pytest.raises(NotADigraph):
        Digraph(2, (0b01, 0b00))


def test_cycle_validation():
    c3 = directed_cycle(3)
    assert verify_cycle(c3, Cycle((0, 1, 2)))
    assert not verify_cycle(c3, Cycle((0, 2, 1)))
    assert Cycle((0, 1, 2)).length == 2
    with pytest.raises(SizeMismatch):
        Cycle((0,))


def test_is_acyclic_returns_witness_cycle():
    d = digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    w = is_acyclic(d)
    assert w is not True
    assert verify_cycle(d, w)
    assert is_acyclic(d, [0, 1, 3]) is True


def test_is_acyclic_returns_the_colour_dfs_witness():
    rng = SplitMix64(14)
    cyclic = acyclic = 0
    for n in range(31):
        for p in (0.03, 0.08, 0.15, 0.3):
            d = random_digraph(n, p, rng.next_u64())
            subsets = [None] + [
                [v for v in range(n) if rng.below(3)] for _ in range(3)
            ]
            for subset in subsets:
                got = is_acyclic(d, subset)
                want = colour_dfs_is_acyclic(d, subset)
                assert got == want
                if got is True:
                    acyclic += 1
                else:
                    cyclic += 1
                    assert verify_cycle(d, got)
        if n:
            for bad in ([0, n], [-1]):
                with pytest.raises(IndexOutOfRange):
                    is_acyclic(d, bad)
    assert cyclic >= 100 and acyclic >= 100


def test_sink_peel_keeps_every_dfs_verdict_and_witness_up_to_four():
    # every digraph on at most 4 vertices, every vertex mask
    seen = {True: 0, False: 0}
    for n in range(5):
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        for edges in range(1 << len(slots)):
            rows = [0] * n
            for k, (i, j) in enumerate(slots):
                if edges >> k & 1:
                    rows[i] |= 1 << j
            for mask in range(1 << n):
                got = _cycle_in(rows, mask)
                assert got == dfs_cycle_in(rows, mask), (rows, mask)
                seen[got is None] += 1
    assert seen[True] > 10_000 and seen[False] > 10_000


@given(digraphs(12), st.data())
@settings(max_examples=300)
def test_sink_peel_keeps_every_dfs_verdict_and_witness(d, data):
    full = (1 << d.n) - 1
    for mask in (full, data.draw(st.integers(0, full))):
        assert _cycle_in(d.rows, mask) == dfs_cycle_in(d.rows, mask)


def _small_classes(n, data):
    """The vertices in drawn order, cut into classes of 0 to 3 vertices
    by drawn sizes; the vertices left over form singletons."""
    order = data.draw(st.permutations(range(n)))
    classes, start = [], 0
    for size in data.draw(st.lists(st.integers(0, 3), max_size=n + 1)):
        classes.append(tuple(order[start : start + size]))
        start += size
    return classes + [(v,) for v in order[start:]]


@given(digraphs(), st.data())
@settings(max_examples=200)
def test_small_classes_get_the_colour_dfs_verdict_and_witness(d, data):
    classes = _small_classes(d.n, data)
    for cls in classes:
        assert is_acyclic(d, cls) == colour_dfs_is_acyclic(d, cls)
    cover = AcyclicCover(classes)
    verdicts = [(cls, colour_dfs_is_acyclic(d, cls)) for cls in cover.classes]
    cyclic = [(cls, cycle) for cls, cycle in verdicts if cycle is not True]
    if not cyclic:
        check_cover(d, cover)
        return
    with pytest.raises(InvalidCover) as exc:
        check_cover(d, cover)
    cls, cycle = cyclic[0]
    assert str(exc.value) == f"class {cls} holds cycle {cycle.verts}"


@given(digraphs())
@settings(max_examples=120)
def test_is_acyclic_agrees_with_peeling_oracle(d):
    got = is_acyclic(d)
    want = subset_is_acyclic(d, tuple(range(d.n)))
    assert (got is True) == want
    if got is not True:
        assert verify_cycle(d, got)


@given(digraphs())
@settings(max_examples=100)
def test_minimal_cycles_match_subset_oracle(d):
    got = {c.verts for c in minimal_cycles(d)}
    assert got == brute_minimal_cycle_sets(d)
    for c in minimal_cycles(d):
        assert is_minimal_cycle(d, c.verts)


def test_minimal_cycles_exclude_chorded_cycles():
    d = digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    got = {c.verts for c in minimal_cycles(d)}
    assert got == {(0, 2)}


def test_minimal_cycles_budget_is_enforced():
    d = bidirected_clique(5)
    with pytest.raises(LimitExceeded):
        minimal_cycles(d, budget=3)


def test_scc_components_in_topological_order():
    d = digraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)])
    comps = scc_decompose(d)
    assert comps == ((0, 1), (2, 3), (4,))


def _assert_scc_matches_oracle(d):
    comps = scc_decompose(d)
    flat = sorted(v for c in comps for v in c)
    assert flat == list(range(d.n))
    assert all(list(c) == sorted(c) for c in comps)
    assert set(comps) == brute_scc(d)
    where = {}
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i
    for u, v in d.edges():
        assert where[u] <= where[v]


def sparse_digraphs(max_n: int = 12):
    """Few edges, so that many components and DAG edges between them arise."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        ).map(lambda edges: digraph(n, edges))
    )


@given(st.one_of(digraphs(max_n=12), sparse_digraphs(12)))
@settings(max_examples=200)
def test_scc_partition_and_edge_direction(d):
    _assert_scc_matches_oracle(d)


@st.composite
def component_digraphs(draw):
    """Up to 100 vertices in shuffled blocks: one block of any size, the
    rest of 1 to 4 vertices, each block closed by a cycle through it.
    Edges within blocks and forward between them are drawn at one
    density, a few backward ones at another, which may merge blocks."""
    n = draw(st.integers(0, 100))
    big = draw(st.integers(0, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    forward = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    backward = draw(st.sampled_from([0.0, 0.001, 0.01]))
    order = list(range(n))
    rng.shuffle(order)
    blocks = [order[:big]] if big else []
    start = big
    while start < n:
        size = rng.randint(1, 4)
        blocks.append(order[start : start + size])
        start += size
    rows = [0] * n
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i
        if len(block) > 1:
            for a, b in zip(block, block[1:] + block[:1]):
                rows[a] |= 1 << b
    for u in range(n):
        for v in range(n):
            chance = forward if block_of[u] <= block_of[v] else backward
            if u != v and rng.random() < chance:
                rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


@given(component_digraphs())
@settings(max_examples=150, deadline=None)
def test_scc_masks_match_the_tuple_kosaraju(d):
    # same components in the same order, members sorted, on masks that
    # run past 2^24 and 2^64
    cols = transpose_rows(d.rows, d.n)
    want = tuple_strong_components(d.rows, cols)
    assert scc_decompose(d) == want
    assert all(list(c) == sorted(c) for c in want)
    masks = _strong_components(d.rows, cols)
    assert tuple(tuple(bits_of(m)) for m in masks) == want


def test_long_paths_get_the_dfs_witness_quickly():
    # each ascending peel pass takes only the top vertex of i -> i+1,
    # which made the peel quadratic (about 31 s at this size)
    n = 16_000
    up = [1 << (i + 1) for i in range(n - 1)] + [0]
    down = [0] + [1 << (i - 1) for i in range(1, n)]
    full = (1 << n) - 1
    for rows in (up, down, up[:-1] + [1], [1 << (n - 1)] + down[1:]):
        d = Digraph(n, tuple(rows))
        start = time.perf_counter()
        got = is_acyclic(d)
        assert time.perf_counter() - start < 5
        want = dfs_cycle_in(rows, full)
        assert got == (True if want is None else want)
    assert len(is_acyclic(Digraph(n, tuple(up[:-1] + [1]))).verts) == n


def test_scc_on_pair_digraph_matches_oracle():
    ap, _ = pair_digraph(random_order(12, 0.4, 15))
    assert ap.n == 90
    _assert_scc_matches_oracle(ap)


def test_verify_homomorphism_plain_and_minimal():
    g, h = directed_cycle(6), directed_cycle(3)
    wrap = HomWitness((0, 1, 2, 0, 1, 2), False)
    assert verify_homomorphism(g, h, wrap).ok
    res = verify_homomorphism(g, h, HomWitness(wrap.mapping, True))
    assert not res.ok
    assert res.pair is not None and res.cycle is not None
    u, v = res.pair
    assert not g.adj(u, v) and h.adj(wrap.mapping[u], wrap.mapping[v])


def test_verify_homomorphism_rejects_broken_edges():
    g, h = directed_cycle(3), directed_cycle(3)
    res = verify_homomorphism(g, h, HomWitness((0, 0, 1), False))
    assert not res.ok and res.pair == (0, 1)


def test_find_homomorphism_identity_and_absence():
    c3 = directed_cycle(3)
    w = find_homomorphism(c3, c3, minimal=True)
    assert w is not None and verify_homomorphism(c3, c3, w).ok
    assert find_homomorphism(c3, directed_cycle(4)) is None
    assert find_homomorphism(directed_cycle(6), directed_cycle(3),
                             minimal=True) is None


def test_find_homomorphism_budget():
    g, h = bidirected_clique(4), bidirected_clique(5)
    with pytest.raises(LimitExceeded):
        find_homomorphism(g, h, budget=2)


@given(digraphs(4), digraphs(4))
@settings(max_examples=60, deadline=None)
def test_find_homomorphism_agrees_with_exhaustive_scan(g, h):
    for minimal in (False, True):
        found = find_homomorphism(g, h, minimal=minimal)
        exists = any(
            verify_homomorphism(g, h, HomWitness(m, minimal)).ok
            for m in itertools.product(range(h.n), repeat=g.n)
        ) if (h.n or not g.n) else False
        if g.n == 0:
            exists = True
        assert (found is not None) == exists
        if found is not None:
            assert verify_homomorphism(g, h, HomWitness(found.mapping,
                                                        minimal)).ok
