"""Values the package builds itself skip re-validation; they must still
be exactly what the validating constructors would make.

`records.trusted` fills a record without running `__init__`. Each site
that uses it is swept here over seeded orders, quasi orders, crowns and
digraphs: a trusted value must equal the constructor's value for the
same fields. The last test pins which functions may use the helper, so
that no payload reader or public constructor starts skipping checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import orderdim
from orderdim import (
    AcyclicCover,
    CycleInX,
    Digraph,
    QuasiOrder,
    critical_pair_digraph,
    crown_order,
    dichromatic_number,
    extend_by_pairs,
    linear_extension,
    order_dimension,
    pair_digraph,
    random_digraph,
    random_order,
    random_quasi,
    random_symmetric,
    two_level_order,
)
from orderdim.records import trusted
from orderdim.rng import SplitMix64

SEEDS = range(12)


def orders():
    """Seeded random orders and quasi orders, crowns, and two-level
    orders of random digraphs."""
    for seed in SEEDS:
        for n, p in ((5, 0.3), (8, 0.25), (11, 0.2)):
            yield random_order(n, p, seed)
            yield random_quasi(n, p, seed)
        yield two_level_order(random_digraph(5, 0.3, seed))[0]
    for n in range(3, 8):
        yield crown_order(n)


def digraphs():
    for seed in SEEDS:
        for n, p in ((4, 0.4), (7, 0.3), (10, 0.2)):
            yield random_digraph(n, p, seed)
        yield random_symmetric(7, 0.4, seed)
    # 24 vertices or more: the cover classes come from the bit walk
    # rather than the byte tables
    for seed in range(3):
        yield random_digraph(30, 0.04, seed)


def assert_valid_order(e):
    assert type(e.rows) is tuple
    assert QuasiOrder(e.n, e.rows) == e


def assert_valid_digraph(d):
    assert type(d.rows) is tuple
    assert Digraph(d.n, d.rows) == d


def assert_normal_cover(c):
    assert type(c.classes) is tuple
    assert AcyclicCover(c.classes) == c


def test_trusted_fills_fields_without_running_init():
    q = trusted(QuasiOrder, 2, (0b11, 0b10))
    checked = QuasiOrder(2, (0b11, 0b10))
    assert q == checked and hash(q) == hash(checked)
    # no check runs: the caller alone vouches for the fields
    assert trusted(Digraph, 1, (0b1,)).rows == (0b1,)
    with pytest.raises(AttributeError):
        q.n = 3


def test_pair_digraphs_equal_validated_ones():
    for q in orders():
        for d in (
            pair_digraph(q)[0],
            pair_digraph(q, incomparable_only=True)[0],
            critical_pair_digraph(q)[0],
        ):
            assert_valid_digraph(d)


def test_peeled_and_extended_orders_equal_validated_ones():
    checked = 0
    for q in orders():
        assert_valid_order(linear_extension(q))
        for e in order_dimension(q).witness.exts:
            assert_valid_order(e)
        _, vertices = pair_digraph(q)
        rng = SplitMix64(q.n * 1000 + len(vertices))
        for _ in range(4):
            pairs = [p for p in vertices if rng.chance(0.3)]
            try:
                e = extend_by_pairs(q, pairs)
            except CycleInX:
                continue
            assert_valid_order(e)
            checked += 1
    assert checked > 100


def test_solver_covers_are_in_normal_form():
    for d in digraphs():
        assert_normal_cover(dichromatic_number(d).witness)
    for q in orders():
        cp, _ = critical_pair_digraph(q)
        assert_normal_cover(dichromatic_number(cp).witness)


TRUSTED_SITES = {
    ("reduction", "pair_digraph"),
    ("reduction", "_critical_pair_frame"),
    ("reduction", "extend_by_pairs"),
    ("relations", "_peel"),
    ("solvers", "dichromatic_number"),
}


def test_only_the_listed_builders_use_trusted():
    found = set()
    for path in Path(orderdim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "trusted"
                    ):
                        found.add((path.stem, node.name))
    assert found == TRUSTED_SITES
