"""Pair digraphs, witness conversions, two-level orders, separators."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderdim import (
    AcyclicCover,
    BadPair,
    CycleInX,
    Digraph,
    ExtensionFamily,
    IncompleteFamily,
    IndexOutOfRange,
    InvalidCover,
    NotExtension,
    SizeMismatch,
    TooLarge,
    antichain_order,
    bidirected_clique,
    boolean_order,
    chain_order,
    check_cover,
    cover_to_extensions,
    critical_pair_digraph,
    crown_order,
    dichromatic_number,
    directed_cycle,
    enumerate_posets,
    extend_by_pairs,
    extend_by_separator,
    extends,
    extension_pairs,
    extensions_to_cover,
    family_from_separators,
    is_acyclic,
    pair_digraph,
    prefix_separators,
    quasi_order,
    random_digraph,
    random_order,
    order_dimension,
    random_quasi,
    two_level_order,
    undecided_pair,
)
from orderdim import reduction
from orderdim.reduction import _pair_cycle
from orderdim.serialize import MAX_INPUT_N
from orderdim.relations import StrictOrder
from orderdim.rng import SplitMix64

from .oracles import (
    critical_pairs,
    dfs_cycle_in,
    loop_undecided_pair,
    pair_edge_rows,
)


def test_pair_digraph_of_three_chain():
    ap, pairs = pair_digraph(chain_order(3))
    assert pairs == ((0, 1), (0, 2), (1, 2))
    assert list(ap.edges()) == [(0, 2)]
    assert is_acyclic(ap) is True


def test_pair_digraph_incomparable_restriction():
    base = crown_order(2)
    ap, a_pairs = pair_digraph(base)
    bp, b_pairs = pair_digraph(base, incomparable_only=True)
    assert set(b_pairs) <= set(a_pairs)
    for x, y in b_pairs:
        assert not base.leq(x, y) and not base.leq(y, x)
    for i, p in enumerate(b_pairs):
        for j, r in enumerate(b_pairs):
            assert bp.adj(i, j) == ap.adj(a_pairs.index(p), a_pairs.index(r))


def _pair_digraph_orders():
    """Every labelled poset on at most 4 points, seeded quasi orders with
    merged classes, crowns and the Boolean lattice on 3 atoms."""
    for n in range(5):
        yield from enumerate_posets(n)
    merged = 0
    for seed in range(200):
        q = random_quasi(2 + seed % 7, 0.3, seed)
        if len(set(q.rows)) < q.n:
            merged += 1
            yield q
    assert merged >= 50
    for k in (3, 4, 5):
        yield crown_order(k)
    yield boolean_order(3)


def test_pair_digraph_matches_its_definition():
    for q in _pair_digraph_orders():
        for only in (False, True):
            ap, pairs = pair_digraph(q, incomparable_only=only)
            assert list(pairs) == [
                (x, y)
                for x in range(q.n)
                for y in range(q.n)
                if not q.leq(y, x) and not (only and q.leq(x, y))
            ]
            for u, (_, y0) in enumerate(pairs):
                for v, (x1, _) in enumerate(pairs):
                    assert ap.adj(u, v) == q.leq(y0, x1)


@st.composite
def merged_quasi_orders(draw, max_n: int = 7):
    """The closure of a drawn relation in which the elements that draw
    one class label are made mutual, so most orders merge classes."""
    n = draw(st.integers(1, max_n))
    label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    pairs = [
        (x, y) for x in range(n) for y in range(n) if label[x] == label[y]
    ]
    for x in range(n):
        for y in draw(st.sets(st.integers(0, n - 1), max_size=1)):
            pairs.append((x, y))
    return quasi_order(n, pairs, close=True)


@given(merged_quasi_orders(), st.data())
@settings(max_examples=200)
def test_pair_digraph_rows_match_the_definition(q, data):
    for only in (False, True):
        ap, pairs = pair_digraph(q, incomparable_only=only)
        assert list(pairs) == [
            (x, y)
            for x in range(q.n)
            for y in range(q.n)
            if not q.leq(y, x) and not (only and q.leq(x, y))
        ]
        assert list(ap.rows) == pair_edge_rows(q, pairs)
    cp, pairs = critical_pair_digraph(q)
    assert list(pairs) == sorted((b, a) for a, b in critical_pairs(q))
    assert list(cp.rows) == pair_edge_rows(q, pairs)
    # offered pairs whose closure merges classes: the cycle the DFS finds
    # in their pair digraph, built from the definition
    vertices = pair_digraph(q)[1]
    if not vertices:
        return
    offered = data.draw(st.sets(st.sampled_from(vertices), max_size=6))
    if data.draw(st.booleans()):
        # an incomparable pair and its reversal make a 2-cycle
        offered |= {(y, x) for x, y in offered if (y, x) in vertices}
    offered = sorted(offered)
    pair_rows = [0] * q.n
    for a, b in offered:
        pair_rows[a] |= 1 << b
    want = dfs_cycle_in(pair_edge_rows(q, offered), (1 << len(offered)) - 1)
    if want is None:
        extend_by_pairs(q, offered)
        return
    got = _pair_cycle(q, pair_rows)
    assert got.pairs == tuple(offered[v] for v in want.verts)


def test_critical_pairs_of_a_crown_are_its_matched_pairs():
    cp, pairs = critical_pair_digraph(crown_order(3))
    assert pairs == ((3, 0), (4, 1), (5, 2))
    assert sorted(cp.edges()) == [
        (i, j) for i in range(3) for j in range(3) if i != j
    ]
    cp, pairs = critical_pair_digraph(chain_order(3))
    assert cp.n == 0 and pairs == ()


@given(
    st.integers(0, 16),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150)
def test_critical_pair_digraph_is_induced_on_critical_pairs(n, p, seed):
    q = random_quasi(n, p, seed)
    cp, pairs = critical_pair_digraph(q)
    assert list(pairs) == sorted((b, a) for a, b in critical_pairs(q))
    ap, a_pairs = pair_digraph(q)
    ids = [a_pairs.index(v) for v in pairs]
    assert cp.n == len(pairs)
    for i, u in enumerate(ids):
        for j, v in enumerate(ids):
            assert cp.adj(i, j) == ap.adj(u, v)


@given(
    st.one_of(
        merged_quasi_orders(max_n=16),
        st.builds(
            random_order,
            st.integers(0, 16),
            st.sampled_from([0.1, 0.2, 0.3, 0.5]),
            st.integers(0, 2**32 - 1),
        ),
    )
)
@settings(max_examples=200)
def test_critical_pairs_join_incomparable_class_leaders(q):
    # the lift reads each critical pair with no range or direction check
    leaders = {
        min(y for y in range(q.n) if q.leq(x, y) and q.leq(y, x))
        for x in range(q.n)
    }
    for x, y in critical_pair_digraph(q)[1]:
        assert 0 <= x < q.n and 0 <= y < q.n
        assert x in leaders and y in leaders
        assert not q.leq(x, y) and not q.leq(y, x)


def test_comparable_pairs_induce_acyclic_subgraph():
    for base in (chain_order(4), crown_order(3), random_order(6, 0.3, 5)):
        ap, a_pairs = pair_digraph(base)
        bset = set(pair_digraph(base, incomparable_only=True)[1])
        comparable = [v for v in range(ap.n) if a_pairs[v] not in bset]
        assert is_acyclic(ap, comparable) is True


def test_extension_pairs_lists_newly_decided_pairs():
    base = antichain_order(2)
    ext = quasi_order(2, [(0, 1)], close=True)
    assert extension_pairs(base, ext) == ((0, 1),)
    with pytest.raises(NotExtension):
        extension_pairs(ext, base)


def test_extend_by_pairs_closes_and_validates():
    base = antichain_order(3)
    ext = extend_by_pairs(base, [(0, 1), (1, 2)])
    assert ext.leq(0, 2)
    assert extends(base, ext)


def test_extend_by_pairs_rejects_base_comparable_reversals():
    base = chain_order(2)
    with pytest.raises(BadPair):
        extend_by_pairs(base, [(1, 0)])


def test_cycle_detection_incomparable_case():
    base = antichain_order(2)
    with pytest.raises(CycleInX) as err:
        extend_by_pairs(base, [(0, 1), (1, 0)])
    cyc = err.value.pairs
    assert set(cyc) == {(0, 1), (1, 0)}
    for (x0, y0), (x1, y1) in zip(cyc, cyc[1:] + cyc[:1]):
        assert base.leq(y0, x1)


def test_cycle_detection_base_comparable_case():
    # 0 < 1 in the base; offering (1, 0) is illegal, but a merge can
    # still arise through intermediaries on one side only.
    base = quasi_order(4, [(0, 1)], close=True)
    with pytest.raises(CycleInX) as err:
        extend_by_pairs(base, [(1, 2), (2, 0)])
    cyc = err.value.pairs
    assert set(cyc) <= {(1, 2), (2, 0)}
    for (x0, y0), (x1, y1) in zip(cyc, cyc[1:] + cyc[:1]):
        assert base.leq(y0, x1)


def quasi_with_pairs(max_n: int = 6):
    seeds = st.integers(0, 2**32 - 1)

    def build(seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(max_n)
        base = random_quasi(n, 0.1 + 0.08 * rng.below(5), rng.next_u64())
        ap, pairs = pair_digraph(base)
        ids = [v for v in range(ap.n) if rng.chance(0.35)]
        return base, [pairs[v] for v in ids]

    return seeds.map(build)


@given(quasi_with_pairs())
@settings(max_examples=150)
def test_extend_by_pairs_totality(case):
    base, offered = case
    try:
        ext = extend_by_pairs(base, offered)
    except CycleInX as err:
        offered_set = set(offered)
        cyc = err.pairs
        assert len(cyc) >= 1
        assert len(set(cyc)) == len(cyc)
        for x, y in cyc:
            assert (x, y) in offered_set
        for (x0, y0), (x1, y1) in zip(cyc, cyc[1:] + cyc[:1]):
            assert base.leq(y0, x1)
        return
    assert extends(base, ext)
    for x, y in offered:
        assert ext.leq(x, y)


def test_check_cover_validation():
    ap, _ = pair_digraph(crown_order(2))
    with pytest.raises(InvalidCover):
        check_cover(ap, AcyclicCover(((0,),)))
    full = AcyclicCover((tuple(range(ap.n)),))
    if is_acyclic(ap) is True:
        check_cover(ap, full)
    else:
        with pytest.raises(InvalidCover):
            check_cover(ap, full)


def test_check_cover_names_the_first_vertex_out_of_range():
    # classes are checked in turn, each for its range and then its cycles
    d = directed_cycle(4)
    for classes, error, message in (
        (((0, 4),), IndexOutOfRange, "vertex 4 outside 0..3"),
        (((-1, 0, 5),), IndexOutOfRange, "vertex -1 outside 0..3"),
        (((1, 2), (3, 6, 7)), IndexOutOfRange, "vertex 6 outside 0..3"),
        (
            ((0, 1, 2, 3), (9,)),
            InvalidCover,
            "class (0, 1, 2, 3) holds cycle (0, 1, 2, 3)",
        ),
        (((0, 1), (2,)), InvalidCover, "vertices [3] uncovered"),
        (((0, 1), (2, 3), ()), None, None),
    ):
        cover = AcyclicCover(classes)
        if error is None:
            check_cover(d, cover)
            continue
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check_cover(d, cover)
    with pytest.raises(IndexOutOfRange, match=r"^vertex 0 outside 0\.\.-1$"):
        check_cover(Digraph(0, ()), AcyclicCover(((0,),)))


def test_cover_extension_round_trip_on_crown():
    base = crown_order(3)
    ap, pairs = pair_digraph(base)
    cover = dichromatic_number(ap).witness
    fam = cover_to_extensions(base, cover)
    assert isinstance(fam, ExtensionFamily)
    assert fam.size == len(cover.classes)
    back = extensions_to_cover(fam)
    assert len(back.classes) == fam.size
    for cls, ext in zip(cover.classes, fam.exts):
        xs = {pairs.index(p) for p in extension_pairs(base, ext)}
        assert set(cls) <= xs
        assert extend_by_pairs(base, extension_pairs(base, ext)).rows == ext.rows


def test_family_completeness_is_enforced():
    base = antichain_order(2)
    one = quasi_order(2, [(0, 1)], close=True)
    with pytest.raises(IncompleteFamily) as err:
        ExtensionFamily(base, (one,))
    assert err.value.pair in {(0, 1), (1, 0)}
    # (0, 1) is undecided: no extension places 1 below 0
    assert undecided_pair(base, (one,)) == (0, 1)
    other = quasi_order(2, [(1, 0)], close=True)
    fam = ExtensionFamily(base, (one, other))
    assert fam.size == 2


def test_undecided_pair_rejects_members_of_another_size():
    base = antichain_order(3)
    bigger = chain_order(4)
    smaller = quasi_order(2, [(0, 1)], close=True)
    with pytest.raises(SizeMismatch):
        undecided_pair(base, (chain_order(3), bigger))
    with pytest.raises(SizeMismatch):
        undecided_pair(base, (smaller,))


def test_two_level_order_embedding_is_edge_faithful():
    rng = SplitMix64(11)
    for _ in range(25):
        n = 1 + rng.below(6)
        g = random_digraph(n, 0.1 + 0.06 * rng.below(6), rng.next_u64())
        q, emb = two_level_order(g)
        assert q.n == 2 * n
        ap, _ = pair_digraph(q)
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert g.adj(x, y) == ap.adj(emb[x], emb[y])


def test_two_level_embedding_indexes_the_pair_digraph():
    # the embedding is counted, not looked up: it must name the vertex
    # that pair_digraph gives the pair (top x, bottom x)
    rng = SplitMix64(23)
    graphs = [random_digraph(n, 0.05 * p, rng.next_u64())
              for n in range(9) for p in range(21)]
    graphs += [bidirected_clique(n) for n in range(1, 7)]
    graphs += [directed_cycle(n) for n in range(2, 7)]
    for g in graphs:
        q, emb = two_level_order(g)
        _, pairs = pair_digraph(q)
        assert emb == tuple(pairs.index((g.n + x, x)) for x in range(g.n))


def test_separator_extension_is_transitive_and_preserves_classes():
    base = crown_order(2)
    for b_set in prefix_separators(base.n):
        mask = sum(1 << v for v in b_set)
        lift = StrictOrder(
            base.n,
            tuple(0 if (mask >> x) & 1 else mask for x in range(base.n)),
        )
        bigger = extend_by_separator(base, lift)
        assert extends(base, bigger)


def test_prefix_separator_counts():
    assert len(prefix_separators(1)) == 1
    assert len(prefix_separators(2)) == 3
    assert len(prefix_separators(3)) == 7
    assert len(prefix_separators(4)) == 7
    for n in range(1, 6):
        for s in prefix_separators(n):
            for i in range(n):
                assert {i} in [set(b) & {i} for b in prefix_separators(n)]


def test_prefix_separators_separate_singletons():
    for n in range(1, 7):
        seps = [set(b) for b in prefix_separators(n)]
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert any(x in b and y not in b for b in seps)


def test_family_from_separators_on_small_posets():
    for base in (chain_order(3), antichain_order(3), crown_order(2)):
        fam = family_from_separators(base, prefix_separators(base.n))
        assert fam.size == len(prefix_separators(base.n))


def test_family_from_separators_reports_missing_pairs():
    base = antichain_order(2)
    with pytest.raises(IncompleteFamily) as err:
        family_from_separators(base, ((0, 1),))
    assert err.value.pair in {(0, 1), (1, 0)}


@given(
    st.integers(0, 8),
    st.sampled_from([0.1, 0.3, 0.5]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_bitmask_undecided_pair_matches_loop_version(n, p, seed):
    base = random_quasi(n, p, seed)
    realizer = order_dimension(base).witness.exts
    _, pairs = pair_digraph(base, incomparable_only=True)
    singles = [extend_by_pairs(base, [pair]) for pair in pairs]
    for fam in (
        realizer,
        realizer[1:],
        realizer[:-1],
        singles,
        singles[::2],
        singles[1::3],
        (),
    ):
        assert undecided_pair(base, fam) == loop_undecided_pair(base, fam)
    # complete families: a realizer, and one extension per incomparable
    # pair (every strict base pair is settled by any single extension)
    assert undecided_pair(base, realizer) is None
    if singles:
        assert undecided_pair(base, singles) is None


def test_pair_vertex_guard_fires_before_edges_are_built(monkeypatch):
    # an antichain has m(m - 1) pair vertices, every one of them critical
    def no_edges(*args):
        raise AssertionError("pair digraph edges built past the guard")

    monkeypatch.setattr(reduction, "_pair_out_rows", no_edges)
    big = antichain_order(MAX_INPUT_N)
    for build in (
        pair_digraph,
        lambda q: pair_digraph(q, incomparable_only=True),
        critical_pair_digraph,
    ):
        with pytest.raises(TooLarge, match="pair vertex guard"):
            build(big)


def test_pair_vertex_guard_admits_its_own_size(monkeypatch):
    monkeypatch.setattr(reduction, "MAX_PAIR_VERTICES", 12)
    for build in (pair_digraph, critical_pair_digraph):
        assert build(antichain_order(4))[0].n == 12
        with pytest.raises(TooLarge):
            build(antichain_order(5))
