"""Sequence enumeration, dense selector, branching digraphs."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderdim.selectors
from orderdim import (
    TooLarge,
    canonical_cycles,
    dense_selector,
    density_report,
    dichromatic_number,
    is_minimal_cycle,
    level_edge_count,
    minimal_cycles,
    monotone_counterexample,
    nth_sequence,
    prefix_monotone,
    selector_digraph,
    sequence_index,
)
from orderdim.selectors import (
    MAX_LEVEL_VERTICES,
    MAX_MONOTONE_LENGTH,
    sequence_stream,
)

FIRST_SEQUENCES = [
    (),
    (0,),
    (1,),
    (2,),
    (0, 0),
    (3,),
    (0, 1),
    (1, 0),
    (4,),
    (0, 2),
    (1, 1),
    (2, 0),
    (0, 0, 0),
]


def test_enumeration_prefix_table():
    got = [nth_sequence(l) for l in range(len(FIRST_SEQUENCES))]
    assert got == FIRST_SEQUENCES


def test_enumeration_round_trips_with_index():
    # the counted index against the stream itself, well past the table
    for l, s in enumerate(itertools.islice(sequence_stream(), 5000)):
        assert sequence_index(s) == l


@given(st.integers(0, 150))
@settings(max_examples=60, deadline=None)
def test_enumeration_is_weight_then_shortlex_ordered(l):
    a, b = nth_sequence(l), nth_sequence(l + 1)

    def weight(s):
        return 2 * len(s) + sum(s)

    assert (weight(a), len(a), a) < (weight(b), len(b), b)
    assert len(a) <= l


def test_dense_selector_fixed_values():
    assert dense_selector(()) == ()
    assert dense_selector((2,)) == (0,)
    assert dense_selector((3,)) == (0,)
    assert dense_selector((2, 2)) == (1, 0)
    assert dense_selector((3, 2)) == (1, 0)


def test_dense_selector_always_lands_in_the_level():
    for length in range(4):
        for sigma in itertools.product(range(2, 5), repeat=length):
            val = dense_selector(sigma)
            assert len(val) == length
            assert all(val[k] < sigma[k] for k in range(length))


def test_selector_rejects_invalid_sigma():
    with pytest.raises(ValueError):
        dense_selector((1,))


def test_k_digraph_small_fixtures():
    two, _ = selector_digraph((2,))
    assert two.n == 2
    assert two.adj(0, 1) and two.adj(1, 0)

    three, _ = selector_digraph((3,))
    assert three.n == 3
    assert list(three.edges()) == [(0, 1), (1, 2), (2, 0)]

    grid, verts = selector_digraph((2, 2))
    assert verts == ((0, 0), (0, 1), (1, 0), (1, 1))
    vid = verts.index
    expected = {
        # level 0: increment the first slot, one orbit per tail
        (vid((0, 0)), vid((1, 0))),
        (vid((1, 0)), vid((0, 0))),
        (vid((0, 1)), vid((1, 1))),
        (vid((1, 1)), vid((0, 1))),
        # level 1: below the selected prefix (0,)
        (vid((0, 0)), vid((0, 1))),
        (vid((0, 1)), vid((0, 0))),
    }
    assert set(grid.edges()) == expected


def test_level_edge_counts_match_direct_enumeration():
    for sigma in [(2,), (3,), (2, 2), (2, 3), (3, 2), (4, 2, 3)]:
        g, _ = selector_digraph(sigma)
        per = [level_edge_count(sigma, k) for k in range(len(sigma))]
        assert g.edge_count() == sum(per)
        for k in range(len(sigma)):
            tail = 1
            for v in sigma[k + 1:]:
                tail *= v
            assert per[k] == sigma[k] * tail


def test_canonical_cycle_counts_and_minimality():
    assert len(canonical_cycles((3,))) == 1
    assert len(canonical_cycles((2, 2))) == 3
    assert len(canonical_cycles((2, 3))) == 4
    for sigma in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]:
        g, _ = selector_digraph(sigma)
        for c in canonical_cycles(sigma):
            assert is_minimal_cycle(g, c.verts)
            assert c.length == sigma[_cycle_level(sigma, c)] - 1


def _cycle_level(sigma, cycle):
    first, second = cycle.verts[0], cycle.verts[1]
    _, verts = selector_digraph(sigma)
    a, b = verts[first], verts[second]
    return next(k for k in range(len(sigma)) if a[k] != b[k])


def test_symmetry_facts():
    assert selector_digraph((2, 2, 2))[0].is_symmetric()
    g, _ = selector_digraph((3, 4))
    for u, v in g.edges():
        assert not g.adj(v, u)


def test_branch_guard(monkeypatch):
    asked = []

    def sel(sigma):
        asked.append(sigma)
        return dense_selector(sigma)

    monkeypatch.setattr(orderdim.selectors, "dense_selector", sel)
    for build in (selector_digraph, canonical_cycles):
        with pytest.raises(TooLarge):
            build((4,) * 7)
    # the guard fires before the walk asks the selector anything
    assert asked == []
    selector_digraph((2, 2))
    assert asked


def test_dicr_of_branching_digraph_is_at_least_two():
    for sigma in [(2,), (3,), (2, 2), (4, 3)]:
        assert dichromatic_number(selector_digraph(sigma)[0]).k >= 2


def test_noncanonical_minimal_cycles_are_reported_not_asserted():
    # Whether every minimal cycle is canonical is left open; this records
    # the observed counts for two small branching digraphs.
    for sigma in [(2, 2), (2, 3)]:
        g, _ = selector_digraph(sigma)
        canon = {c.verts for c in canonical_cycles(sigma)}
        minimal = {c.verts for c in minimal_cycles(g)}
        assert canon <= minimal
        extra = minimal - canon
        # informational; no assertion on emptiness by design
        assert isinstance(extra, set)


def test_density_report_fixtures():
    witnessed = dict(density_report((2, 2), 2)[0])
    assert witnessed[(0,)] == 1
    assert witnessed[(1,)] == 2
    witnessed1, unresolved1 = density_report((2,), 1)
    assert {s for s, _ in witnessed1} == {(), (0,)}
    assert {s for s, _ in unresolved1} == {(1,)}
    witnessed0, _ = density_report((2, 2), 0)
    assert {s for s, _ in witnessed0} == {()}
    with pytest.raises(ValueError):
        density_report((2,), 5)


def test_dense_selector_extends_every_witnessed_tuple():
    reports = 0
    for k in range(4):
        for sigma in itertools.product(range(2, 6), repeat=k):
            for depth in range(k + 1):
                witnessed, unresolved = density_report(sigma, depth)
                reports += 1
                tree = [
                    s
                    for length in range(depth + 1)
                    for s in itertools.product(*map(range, sigma[:length]))
                ]
                pairs = witnessed + unresolved
                assert sorted(s for s, _ in pairs) == sorted(tree)
                for s, l in witnessed:
                    assert l <= depth
                    assert dense_selector(sigma[:l])[: len(s)] == s
                assert all(l > depth for _, l in unresolved)
    assert reports == 313


def test_density_guard_fires_before_any_tuple_is_listed(monkeypatch):
    asked = []

    def index(s):
        asked.append(s)
        return sequence_index(s)

    monkeypatch.setattr(orderdim.selectors, "sequence_index", index)
    # a tree of depth 1 under (v,) has 1 + v tuples
    with pytest.raises(TooLarge):
        density_report((MAX_LEVEL_VERTICES,), 1)
    with pytest.raises(TooLarge):
        density_report((64, 64), 2)
    assert asked == []
    witnessed, unresolved = density_report((MAX_LEVEL_VERTICES - 1,), 1)
    assert len(witnessed) + len(unresolved) == MAX_LEVEL_VERTICES


def test_monotone_outcomes():
    assert prefix_monotone((2, 2, 2))
    assert prefix_monotone((4, 4))
    assert prefix_monotone((2, 3))
    assert not prefix_monotone((3, 2))
    assert monotone_counterexample((2, 3)) is None
    assert monotone_counterexample((3, 2)) == (0, 1)
    assert monotone_counterexample((4, 2, 3)) == (0, 1)


def test_monotone_guard_fires_before_any_selector(monkeypatch):
    asked = []

    def sel(sigma):
        asked.append(sigma)
        return dense_selector(sigma)

    monkeypatch.setattr(orderdim.selectors, "dense_selector", sel)
    with pytest.raises(TooLarge):
        monotone_counterexample((2,) * (MAX_MONOTONE_LENGTH + 1))
    with pytest.raises(TooLarge):
        prefix_monotone((2,) * (MAX_MONOTONE_LENGTH + 1))
    assert asked == []
    assert monotone_counterexample((2,) * 16) is None
    assert len(asked) == 16
