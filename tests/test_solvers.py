"""Dichromatic number, chromatic number, order dimension."""

from __future__ import annotations

import inspect
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orderdim import (
    CycleInX,
    Digraph,
    ExtensionFamily,
    HomWitness,
    IncompleteFamily,
    InvalidCover,
    LimitExceeded,
    NotAGraph,
    TooLarge,
    antichain_order,
    bidirected_clique,
    chain_order,
    check_cover,
    chromatic_number,
    critical_pair_digraph,
    crown_order,
    dichromatic_number,
    digraph,
    directed_cycle,
    enumerate_posets,
    find_homomorphism,
    linear_extension,
    minimal_cycles,
    order_dimension,
    pair_digraph,
    quasi_order,
    quotient,
    random_digraph,
    random_order,
    random_quasi,
    random_symmetric,
    realizer_oracle,
    verify_homomorphism,
)
from orderdim import solvers
from orderdim.digraphs import scc_decompose
from orderdim.relations import transpose_rows
from orderdim.rng import SplitMix64
from orderdim.solvers import (
    DEFAULT_SEARCH_BUDGET,
    DimResult,
    _greedy_mutual_clique,
    _has_odd_mutual_cycle,
)

from .oracles import (
    brute_chrom,
    brute_dicr,
    dict_greedy_mutual_clique,
    dict_has_odd_mutual_cycle,
    dict_mutual_rows,
    loop_extends,
    loop_undecided_pair,
    members,
    subset_is_acyclic,
)


def digraphs(max_n: int = 5):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda rows: Digraph(
                n,
                tuple(
                    r & ~(1 << i) & ((1 << n) - 1) for i, r in enumerate(rows)
                ),
            ),
            st.lists(
                st.integers(0, max((1 << n) - 1, 0)), min_size=n, max_size=n
            ),
        )
    )


def test_dicr_known_values():
    assert dichromatic_number(directed_cycle(5)).k == 2
    assert dichromatic_number(bidirected_clique(4)).k == 4
    dag = Digraph(3, (0b110, 0b100, 0b000))
    assert dichromatic_number(dag).k == 1
    assert dichromatic_number(Digraph(0, ())).k == 0


@given(digraphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_dicr_matches_brute_force_and_witness_validates(d):
    res = dichromatic_number(d)
    assert res.k == brute_dicr(d)
    check_cover(d, res.witness)
    for cls in res.witness.classes:
        assert subset_is_acyclic(d, cls)
    if d.n:
        assert len(res.witness.classes) == max(res.k, 1)


def test_dicr_backtracks_and_replaces_on_chained_cycles():
    # directed cycles 5->1->3->0->2->5, 0->4->1->5->2->0 and 4->3->6->4,
    # each sharing vertices with the others
    cycles = [(5, 1, 3, 0, 2), (0, 4, 1, 5, 2), (4, 3, 6)]
    d = digraph(
        7,
        {(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))},
    )
    res = dichromatic_number(d)
    assert res.k == brute_dicr(d) == 2
    assert res.witness.classes == ((0, 3, 5, 6), (1, 2, 4))
    for cls in res.witness.classes:
        assert subset_is_acyclic(d, cls)
    # one strong component, searched at k = 2 only: without backtracking
    # at most 7 * 2 = 14 nodes. It takes exactly 24, so placements are
    # undone and vertices placed again, and a stale class member left
    # behind by an undo changes this count.
    assert dichromatic_number(d, budget=24) == res
    with pytest.raises(LimitExceeded):
        dichromatic_number(d, budget=23)


def long_cycle_digraphs():
    """Unions of 2-5 directed cycles of length 4..n on 8-10 vertices.

    Overlapping long cycles make a placement close a cycle only through
    several hops inside one class, so a forward search that stops early
    or skips a hop shows up as a wrong k."""
    return st.integers(8, 10).flatmap(
        lambda n: st.lists(
            st.tuples(st.permutations(range(n)), st.integers(4, n)),
            min_size=2,
            max_size=5,
        ).map(
            lambda cycles: digraph(
                n,
                {
                    (perm[i], perm[(i + 1) % length])
                    for perm, length in cycles
                    for i in range(length)
                },
            )
        )
    )


@given(long_cycle_digraphs())
@settings(max_examples=80, deadline=None)
def test_dicr_matches_brute_force_on_overlapping_long_cycles(d):
    res = dichromatic_number(d)
    assert res.k == brute_dicr(d)
    for cls in res.witness.classes:
        assert subset_is_acyclic(d, cls)


def mutual_lists(d: Digraph) -> list[int]:
    """Each vertex's 2-cycle neighbours, as _least_cover builds them."""
    cols = transpose_rows(d.rows, d.n)
    return [r & c for r, c in zip(d.rows, cols)]


def odd_mutual_cycle(d: Digraph) -> bool:
    return _has_odd_mutual_cycle(mutual_lists(d), (1 << d.n) - 1)


@st.composite
def block_digraphs(draw, max_blocks: int = 4, max_size: int = 5):
    """Random blocks joined only by edges from a block to a later one, so
    each block's strong components are the digraph's and most draws
    have several."""
    sizes = draw(
        st.lists(st.integers(1, max_size), min_size=1, max_size=max_blocks)
    )
    n = sum(sizes)
    rows = []
    start = 0
    for size in sizes:
        end = start + size
        later = ((1 << n) - 1) ^ ((1 << end) - 1)
        for v in range(start, end):
            inside = draw(st.integers(0, (1 << size) - 1)) << start
            forward = draw(st.integers(0, (1 << n) - 1)) & later
            rows.append((inside | forward) & ~(1 << v))
        start = end
    return Digraph(n, tuple(rows))


@given(block_digraphs())
@settings(max_examples=200, deadline=None)
def test_mutual_bounds_on_a_component_mask_match_the_component_dicts(d):
    # one list for the whole digraph, cut by each component's mask, gives
    # the clique and the odd-cycle verdict of that component's own dict
    cols = transpose_rows(d.rows, d.n)
    mutual = mutual_lists(d)
    for comp in scc_decompose(d):
        mask = sum(1 << v for v in comp)
        mut = dict_mutual_rows(d.rows, cols, comp)
        assert _greedy_mutual_clique(mutual, mask) == (
            dict_greedy_mutual_clique(mut)
        )
        assert _has_odd_mutual_cycle(mutual, mask) == (
            dict_has_odd_mutual_cycle(mut)
        )


@given(digraphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_odd_mutual_cycle_is_exact_and_rules_out_two_classes(d):
    mutual = Digraph(
        d.n,
        tuple(
            sum(1 << j for j in range(d.n) if d.adj(i, j) and d.adj(j, i))
            for i in range(d.n)
        ),
    )
    odd = odd_mutual_cycle(d)
    assert odd == (brute_chrom(mutual) >= 3)
    if odd:
        assert brute_dicr(d) >= 3


def test_odd_mutual_cycle_skips_the_two_class_search():
    def bidirected_cycle(n):
        edges = {(i, (i + 1) % n) for i in range(n)}
        return digraph(n, edges | {(j, i) for i, j in edges})

    # the bidirected 5-cycle has no mutual triangle, so the clique bound
    # is 2; the odd cycle starts the search at k = 3, which takes 9 nodes
    # (refuting k = 2 first took 9 more)
    c5 = bidirected_cycle(5)
    assert odd_mutual_cycle(c5)
    assert dichromatic_number(c5, budget=9).k == 3 == brute_dicr(c5)
    with pytest.raises(LimitExceeded):
        dichromatic_number(c5, budget=8)
    # the chromatic number is read off the same search
    assert chromatic_number(c5, budget=9)[0] == 3
    with pytest.raises(LimitExceeded):
        chromatic_number(c5, budget=8)
    c4 = bidirected_cycle(4)
    assert not odd_mutual_cycle(c4)
    assert dichromatic_number(c4).k == 2 == brute_dicr(c4)


@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_odd_alternating_two_cycle_iff_dimension_at_least_three(n, seed):
    base = random_quasi(n, 0.3, seed)
    cp, _ = critical_pair_digraph(base)
    assert odd_mutual_cycle(cp) == (realizer_oracle(base, 4) >= 3)


def test_dicr_budget_raises():
    with pytest.raises(LimitExceeded):
        dichromatic_number(bidirected_clique(6), budget=3)


def test_chrom_known_values_and_guard():
    assert chromatic_number(bidirected_clique(4))[0] == 4
    sym5 = random_symmetric(5, 0.5, 3)
    k, colors = chromatic_number(sym5)
    assert len(colors) == 5
    for u, v in sym5.edges():
        assert colors[u] != colors[v]
    with pytest.raises(NotAGraph):
        chromatic_number(directed_cycle(3))


@given(digraphs(5))
@settings(max_examples=60, deadline=None)
def test_chrom_matches_brute_force_on_symmetrized(d):
    rows = tuple(d.rows[i] | sum(
        1 << j for j in range(d.n) if d.adj(j, i)
    ) for i in range(d.n))
    g = Digraph(d.n, rows)
    assert chromatic_number(g)[0] == brute_chrom(g)


def test_symmetric_collapse_chrom_equals_dicr():
    for seed in range(30):
        g = random_symmetric(7, 0.3, seed)
        assert chromatic_number(g)[0] == dichromatic_number(g).k


def test_dimension_convention_small_quotients():
    for base in (
        quasi_order(0, [], close=True),
        quasi_order(1, [], close=True),
        quasi_order(2, [(0, 1), (1, 0)], close=True),
        quasi_order(3, [(0, 1), (1, 2), (2, 0)], close=True),
        antichain_order(0),
        antichain_order(1),
    ):
        res = order_dimension(base)
        assert res.d == 0
        assert res.witness.size == 0
        assert res == DimResult(0, ExtensionFamily(base, ()))
    # chains of two or more classes have no critical pair: the answer is
    # the plain linear extension alone
    for base in (
        chain_order(2),
        chain_order(5),
        quasi_order(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], close=True),
        quasi_order(3, [(2, 0), (0, 1), (1, 0)], close=True),
    ):
        one = ExtensionFamily(base, (linear_extension(base),))
        assert order_dimension(base) == DimResult(1, one)


def test_dimension_known_values():
    for base, want in (
        (chain_order(4), 1),
        (antichain_order(3), 2),
        (crown_order(3), 3),
    ):
        assert order_dimension(base).d == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dimension_agreement_with_pair_digraph_route(seed):
    base = random_quasi(1 + seed % 5, 0.3, seed)
    via = order_dimension(base)
    if quotient(base).size > 1:
        ap, _ = pair_digraph(base)
        assert via.d == dichromatic_number(ap).k
    brute = realizer_oracle(base, 4)
    if brute is not None:
        assert via.d == brute


@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_dimension_matches_brute_force_with_nontrivial_classes(n, seed):
    base = random_quasi(n, 0.3, seed)
    assume(1 < quotient(base).size < n)
    res = order_dimension(base)
    assert res.d == realizer_oracle(base, 4)
    assert all(ext.is_total() for ext in res.witness.exts)


def test_search_masks_are_checked_before_they_leave(monkeypatch):
    # dichromatic_number checks the search's class masks as a cover;
    # order_dimension lifts them with no cover record between, so a class
    # that holds a cycle is caught by the lift's peel, which names it
    def one_class(rows, cols, mask, degree, mutual, budget, spent):
        return 1, [mask], spent

    monkeypatch.setattr(solvers, "_cover_scc", one_class)
    with pytest.raises(InvalidCover, match=r"^class \(0, 1, 2\) holds cycle"):
        dichromatic_number(directed_cycle(3))
    crown = crown_order(3)
    with pytest.raises(CycleInX, match="closes a cycle") as err:
        order_dimension(crown)
    _, critical = critical_pair_digraph(crown)
    cycle = err.value.pairs
    assert len(cycle) >= 2 and set(cycle) <= set(critical)
    # consecutive pairs (x0, y0), (x1, y1) are pair-digraph edges: y0 <= x1
    for (_, y0), (x1, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert crown.leq(y0, x1)


def _corrupt(masks, how, rng):
    """The masks with one vertex dropped, one vertex moved to another
    class, or two classes merged; as given when a move or merge has no
    second class to use."""
    masks = list(masks)
    i = rng.below(len(masks))
    if how == "drop":
        low = masks[i] & -masks[i]
        masks[i] ^= low
    elif len(masks) > 1:
        j = (i + 1 + rng.below(len(masks) - 1)) % len(masks)
        if how == "move":
            low = masks[i] & -masks[i]
            masks[i] ^= low
            masks[j] |= low
        else:
            i, j = sorted((i, j))
            masks[i] |= masks.pop(j)
    return masks


@given(
    st.integers(2, 12),
    st.sampled_from([0.15, 0.3, 0.5]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["drop", "move", "merge"]),
)
@settings(max_examples=200, deadline=None)
def test_corrupted_search_masks_never_leave_as_a_realizer(
    n, p, seed, quasi, how
):
    # order_dimension does not check the search's masks as a cover: the
    # lift's peel and ExtensionFamily must catch every corruption that
    # does not still lift to a realizer of the same size
    q = random_quasi(n, p, seed) if quasi else random_order(n, p, seed)
    d = order_dimension(q).d
    rng = SplitMix64(seed)
    true_cover_scc = solvers._cover_scc

    def corrupted(*args):
        k, masks, spent = true_cover_scc(*args)
        return k, _corrupt(masks, how, rng), spent

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_cover_scc", corrupted)
        try:
            res = order_dimension(q)
        except (CycleInX, IncompleteFamily):
            return
    exts = res.witness.exts
    assert res.d == len(exts) == d
    assert all(loop_extends(q, e) for e in exts)
    assert loop_undecided_pair(q, exts) is None


@pytest.mark.parametrize("seed", range(12))
def test_dimension_is_the_critical_pair_dichromatic_number(seed):
    for q in (
        random_order(8 + seed % 7, 0.3, seed),
        random_quasi(6 + seed % 5, 0.15, seed),
    ):
        cp, _ = critical_pair_digraph(q)
        assert order_dimension(q).d == dichromatic_number(cp).k


def _critical_pair_digraphs():
    return st.builds(
        lambda make, n, p, seed: critical_pair_digraph(make(n, p, seed))[0],
        st.sampled_from([random_order, random_quasi]),
        st.integers(0, 14),
        st.sampled_from([0.15, 0.3, 0.5]),
        st.integers(0, 2**32 - 1),
    )


def _sparse_digraphs():
    return st.builds(
        random_digraph,
        st.integers(0, 14),
        st.sampled_from([0.1, 0.2, 0.3]),
        st.integers(0, 2**32 - 1),
    )


def _assert_exact_partition(masks, whole):
    seen = 0
    for mask in masks:
        assert mask, "an empty class"
        assert not mask & seen, "two classes share a vertex"
        seen |= mask
    assert seen == whole


@given(
    st.one_of(digraphs(max_n=9), _sparse_digraphs(), _critical_pair_digraphs())
)
@settings(max_examples=200, deadline=None)
def test_search_classes_are_nonempty_disjoint_and_cover(d):
    # the search hands back exactly k classes, none empty, partitioning
    # each strong component and the whole vertex set
    budget = DEFAULT_SEARCH_BUDGET
    k, masks = solvers._least_cover(d, budget)
    assert len(masks) == k
    _assert_exact_partition(masks, (1 << d.n) - 1)
    cols = transpose_rows(d.rows, d.n)
    degree = [r.bit_count() + c.bit_count() for r, c in zip(d.rows, cols)]
    mutual = [r & c for r, c in zip(d.rows, cols)]
    spent = 0
    for comp in scc_decompose(d):
        if len(comp) > 1:
            mask = sum(1 << v for v in comp)
            k_c, comp_masks, after = solvers._cover_scc(
                d.rows, cols, mask, degree, mutual, budget, spent
            )
            assert len(comp_masks) == k_c <= k and after > spent
            _assert_exact_partition(comp_masks, mask)
            spent = after


_C3 = directed_cycle(3)
_SEARCHES = {
    "dichromatic_number": lambda b: dichromatic_number(_C3, b),
    "chromatic_number": lambda b: chromatic_number(bidirected_clique(2), b),
    "order_dimension": lambda b: order_dimension(crown_order(2), b),
    "find_homomorphism": lambda b: find_homomorphism(_C3, _C3, budget=b),
    "minimal_cycles": lambda b: minimal_cycles(_C3, b),
    "verify_homomorphism": lambda b: verify_homomorphism(
        _C3, _C3, HomWitness((0, 1, 2)), b
    ),
}


@pytest.mark.parametrize("name", _SEARCHES)
@pytest.mark.parametrize(
    "bad", [True, 2.5, "5", "via_dicr", 10.0, None], ids=repr
)
def test_every_exact_search_refuses_a_budget_that_is_not_an_int(name, bad):
    with pytest.raises(TypeError, match=r"^budget must be an int, got"):
        _SEARCHES[name](bad)


@pytest.mark.parametrize(
    "search",
    [
        dichromatic_number,
        chromatic_number,
        order_dimension,
        find_homomorphism,
        minimal_cycles,
        verify_homomorphism,
    ],
    ids=lambda f: f.__name__,
)
def test_every_exact_search_defaults_to_one_budget(search):
    budget = inspect.signature(search).parameters["budget"]
    assert budget.default == DEFAULT_SEARCH_BUDGET


def test_realizer_oracle_matches_and_guards():
    assert realizer_oracle(chain_order(3), 2) == 1
    assert realizer_oracle(crown_order(2), 3) == 2
    assert realizer_oracle(crown_order(2), 1) is None
    assert realizer_oracle(quasi_order(1, [], close=True), 1) == 0
    with pytest.raises(TooLarge):
        realizer_oracle(antichain_order(11), 2)


def _least_realizer_by_permutations(q, max_d):
    """The definition, scanned outright: the least count of class
    permutations, each containing the strict quotient order, whose pair sets
    intersect to it; None when max_d is not enough."""
    qt = quotient(q)
    m = qt.size
    if m <= 1:
        return 0
    lt = {(a, b) for a in range(m) for b in members(qt.lt_rows[a])}
    linears = []
    for perm in itertools.permutations(range(m)):
        pairs = frozenset(itertools.combinations(perm, 2))
        if lt <= pairs:
            linears.append(pairs)
    for d in range(1, max_d + 1):
        for combo in itertools.combinations(linears, d):
            if frozenset.intersection(*combo) == lt:
                return d
    return None


def test_realizer_oracle_matches_its_definition():
    rng = SplitMix64(13)
    five = [q for q in enumerate_posets(5) if rng.below(20) == 0]
    merged = [
        q
        for n in (6, 7, 8)
        for p in (0.1, 0.15, 0.25)
        for s in range(20)
        for q in [random_quasi(n, p, s)]
        if quotient(q).size < n and quotient(q).size <= 7
    ]
    assert len(five) > 150 and len(merged) > 80
    small = [q for n in range(5) for q in enumerate_posets(n)]
    for q in small + five + merged + [crown_order(3)]:
        d = _least_realizer_by_permutations(q, 4)
        assert realizer_oracle(q, 4) == d
        assert realizer_oracle(q, d) == d
        if d >= 1:
            assert realizer_oracle(q, d - 1) is None


def test_dimension_witness_family_is_valid():
    for base in (crown_order(2), antichain_order(4)):
        res = order_dimension(base)
        assert res.witness.size == res.d
        for ext in res.witness.exts:
            assert ext.n == base.n
