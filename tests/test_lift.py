"""The mask lift, the leader peel and the transpose-free family checks
against the closure, per-member peel and transpose versions they
replaced."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orderdim import (
    BadPair,
    CycleInX,
    SizeMismatch,
    chain_order,
    critical_pair_digraph,
    dichromatic_number,
    extend_by_pairs,
    extends,
    order_dimension,
    pair_digraph,
    quasi_order,
    quotient,
    random_quasi,
    undecided_pair,
)
from orderdim.reduction import _lift_masks
from orderdim.relations import _peel, _peel_frame
from orderdim.rng import SplitMix64

from .oracles import (
    loop_extends,
    loop_lift,
    loop_undecided_pair,
    member_peel,
    members,
)

SEEDS = st.integers(0, 2**32 - 1)


def classed_quasi(n, p, seed):
    """random_quasi with at least one class of two or more elements that
    is not the whole ground set, so the per-class steps are exercised."""
    q = random_quasi(n, p, seed)
    assume(1 < quotient(q).size < n)
    return q


def lift_pair_sets(base, pair_sets):
    # the sets, listed one after another, go in as one pair tuple with
    # one mask per set over its block, so all of them share one frame
    pairs, masks = [], []
    for offered in pair_sets:
        masks.append(((1 << len(offered)) - 1) << len(pairs))
        pairs += offered
    return _lift_masks(base, _peel_frame(base), tuple(pairs), masks)


def lift_pairs(base, pairs):
    return lift_pair_sets(base, [pairs])[0]


def lift_or_cycle(lift, base, pairs):
    try:
        return lift(base, pairs)
    except CycleInX as err:
        return ("cycle", err.pairs)


@given(st.integers(3, 9), st.sampled_from([0.15, 0.2, 0.25, 0.3]), SEEDS)
@settings(max_examples=200, deadline=None)
def test_witness_members_match_closure_then_peel(n, p, seed):
    q = classed_quasi(n, p, seed)
    cp, pairs = critical_pair_digraph(q)
    exts = order_dimension(q).witness.exts
    if cp.n == 0:
        assert len(exts) <= 1
        return
    classes = dichromatic_number(cp).witness.classes
    assert exts == tuple(
        loop_lift(q, [pairs[v] for v in cls]) for cls in classes
    )


@given(st.integers(3, 9), st.sampled_from([0.15, 0.2, 0.25, 0.3]), SEEDS)
@settings(max_examples=200, deadline=None)
def test_lift_of_any_pair_set_matches_closure_then_peel(n, p, seed):
    # random pair-digraph classes, cyclic ones included: the same
    # extension, or the same CycleInX witness
    q = classed_quasi(n, p, seed)
    _, pairs = pair_digraph(q)
    rng = SplitMix64(seed)
    for density in (0.1, 0.3, 0.6):
        offered = [pair for pair in pairs if rng.chance(density)]
        assert lift_or_cycle(lift_pairs, q, offered) == lift_or_cycle(
            loop_lift, q, offered
        )


@given(st.integers(3, 9), st.sampled_from([0.15, 0.2, 0.25, 0.3]), SEEDS)
@settings(max_examples=100, deadline=None)
def test_pair_sets_sharing_one_base_lift_like_separate_lifts(n, p, seed):
    # one peel's pairs must not leak into the next over the same base:
    # the sets are lifted in turn, and the first again at the end
    q = classed_quasi(n, p, seed)
    _, pairs = pair_digraph(q)
    rng = SplitMix64(seed)
    sets = [
        [pair for pair in pairs if rng.chance(density)]
        for density in (0.05, 0.2, 0.4)
    ]
    sets.append(sets[0])
    want = [lift_or_cycle(loop_lift, q, pairs) for pairs in sets]
    ok = 0
    while ok < len(want) and not isinstance(want[ok], tuple):
        ok += 1
    assert lift_pair_sets(q, sets[:ok]) == tuple(want[:ok])
    if ok < len(want):
        assert lift_or_cycle(lift_pair_sets, q, sets) == want[ok]


@given(st.integers(3, 9), st.sampled_from([0.15, 0.2, 0.25, 0.3]), SEEDS)
@settings(max_examples=200, deadline=None)
def test_leader_peel_matches_per_member_peel(n, p, seed):
    # random pair sets, cyclic ones included, each pair placed only at
    # the leader of its upper end's class: the same extension, or both
    # stall
    q = classed_quasi(n, p, seed)
    frame = same, down, _, _ = _peel_frame(q)
    _, pairs = pair_digraph(q)
    rng = SplitMix64(seed)
    for density in (0.1, 0.3, 0.6):
        pair_rows = [0] * n
        below = list(down)
        for a, b in pairs:
            if rng.chance(density):
                pair_rows[a] |= 1 << b
                below[members(same[b])[0]] |= 1 << a
        assert _peel(q, frame, below) == member_peel(q, pair_rows)


def test_cyclic_pair_set_through_a_class_raises_cycle():
    # {1, 2} is one class; 0 below 1 and 2 below 0 close a cycle that
    # enters the class at 1 and leaves it at 2
    base = quasi_order(3, [(1, 2), (2, 1)], close=True)
    offered = [(0, 1), (2, 0)]
    with pytest.raises(CycleInX) as err:
        lift_pairs(base, offered)
    with pytest.raises(CycleInX) as old:
        extend_by_pairs(base, offered)
    assert err.value.pairs == old.value.pairs
    # either pair alone lifts, and lands on the other side of the class
    assert lift_pairs(base, offered[:1]) == quasi_order(
        3, [(0, 1), (1, 2), (2, 1)], close=True
    )
    assert lift_pairs(base, offered[1:]) == quasi_order(
        3, [(1, 2), (2, 1), (2, 0)], close=True
    )


def test_lift_rejects_base_comparable_reversals():
    # each offer holds a pair whose upper end is already below-or-equal
    # its lower end; the lift names the first such pair, as
    # extend_by_pairs does
    pair_class = quasi_order(2, [(0, 1), (1, 0)], close=True)
    cases = [
        (chain_order(2), [(1, 0)], (1, 0)),
        (pair_class, [(0, 1)], (0, 1)),
        (pair_class, [(1, 0)], (1, 0)),
        (chain_order(4), [(3, 1)], (3, 1)),
        (chain_order(4), [(0, 3), (2, 1), (3, 0)], (2, 1)),
        (quasi_order(3, [(0, 1)]), [(0, 2), (1, 0)], (1, 0)),
    ]
    for base, offered, (a, b) in cases:
        message = f"({a}, {b}) is already decided downward"
        with pytest.raises(BadPair) as err:
            lift_pairs(base, offered)
        assert str(err.value) == message, offered
        with pytest.raises(BadPair) as old:
            extend_by_pairs(base, offered)
        assert str(old.value) == message, offered


@given(st.integers(2, 9), st.sampled_from([0.15, 0.2, 0.25, 0.3]), SEEDS)
@settings(max_examples=150, deadline=None)
def test_extends_matches_two_transpose_version(n, p, seed):
    base = classed_quasi(n, p, seed)
    strict = [
        (i, j) for i, j in base.related_pairs() if not base.leq(j, i)
    ]
    candidates = [base, random_quasi(n, p, seed ^ 1), chain_order(n)]
    candidates += order_dimension(base).witness.exts
    # reversing a strict pair merges the classes of its ends
    for i, j in strict[:3]:
        candidates.append(
            quasi_order(n, base.related_pairs() + [(j, i)], close=True)
        )
    seen = set()
    for ext in candidates:
        got = extends(base, ext)
        assert got == loop_extends(base, ext)
        seen.add(got)
        assert extends(ext, base) == loop_extends(ext, base)
    assert seen == {True, False}
    for check in (extends, loop_extends):
        with pytest.raises(SizeMismatch):
            check(base, chain_order(n + 1))


@given(st.integers(2, 9), st.sampled_from([0.15, 0.2, 0.25, 0.3]), SEEDS)
@settings(max_examples=150, deadline=None)
def test_undecided_pair_matches_loop_version_on_several_members(n, p, seed):
    base = classed_quasi(n, p, seed)
    _, pairs = pair_digraph(base, incomparable_only=True)
    # linear and non-linear members, in families of two to five
    members = list(order_dimension(base).witness.exts)
    members += [extend_by_pairs(base, [pair]) for pair in pairs[:4]]
    members += [lift_pairs(base, [pair]) for pair in pairs[-4:]]
    rng = SplitMix64(seed)
    for _ in range(6):
        fam = [members[rng.below(len(members))] for _ in range(2 + rng.below(4))]
        assert undecided_pair(base, fam) == loop_undecided_pair(base, fam)
