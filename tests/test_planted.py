"""Planted orders: the intersection of k random linear orders has
dimension at most k, and exactly k wherever a cheap bound says so."""

from __future__ import annotations

import pytest

from orderdim import LimitExceeded, critical_pair_digraph, order_dimension

from .oracles import (
    columns,
    dict_greedy_mutual_clique,
    dict_mutual_rows,
    loop_extends,
    loop_undecided_pair,
    planted_order,
)

PLANTED = [
    (n, k, seed) for n in (8, 12, 16, 20) for k in (2, 3, 4) for seed in (0, 1)
] + [(n, 2, seed) for n in (40, 60, 100, 150) for seed in (0, 1)]

# every one of these draws stops under the budget today; a search that
# solves one turns its strict xfail into a failure, to be unmarked
HARD = [(n, k, seed) for n in (40, 60) for k in (3, 4) for seed in (0, 1)]
HARD_BUDGET = 20_000


def _is_chain(q) -> bool:
    return all(
        q.leq(x, y) or q.leq(y, x) for x in range(q.n) for y in range(x)
    )


@pytest.mark.parametrize("n, k, seed", PLANTED)
def test_planted_order_dimension_is_at_most_k(n, k, seed):
    q, lines = planted_order(n, k, seed)
    # the k planted orders are linear extensions that realize q
    assert len(lines) == k
    assert all(line.is_total() and loop_extends(q, line) for line in lines)
    assert loop_undecided_pair(q, lines) is None
    res = order_dimension(q)
    assert res.d == res.witness.size <= k
    assert loop_undecided_pair(q, res.witness.exts) is None
    cp, _ = critical_pair_digraph(q)
    mutual = dict_mutual_rows(cp.rows, columns(cp.rows, cp.n), range(cp.n))
    if len(dict_greedy_mutual_clique(mutual)) >= k:
        assert res.d == k
    if k == 2 and not _is_chain(q):
        assert res.d == 2


@pytest.mark.xfail(raises=LimitExceeded, strict=True)
@pytest.mark.parametrize("n, k, seed", HARD)
def test_hard_planted_orders_solve_within_a_small_budget(n, k, seed):
    q, _ = planted_order(n, k, seed)
    assert order_dimension(q, HARD_BUDGET).d <= k
