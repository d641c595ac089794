"""Separating families give a cheap upper bound on order dimension.

A family of vertex sets separates the order when, for every strict pair
x < y, some set contains y but not x. Each set induces a strict order
(members of the set above non-members), and extending the base order by
each of these in turn yields an extension family — so the dimension is
at most the number of sets. Binary prefix classes give such a family
with fewer than 4n sets for any order on n points.

Run: python demos/06_separators.py
"""

from orderdim import (
    IncompleteFamily,
    boolean_order,
    crown_order,
    family_from_separators,
    order_dimension,
    prefix_separators,
)


def main() -> None:
    for n in range(1, 5):
        sets = prefix_separators(n)
        print(f"n={n}: {len(sets)} prefix separators -> {sorted(map(sorted, sets))}")

    for name, q in [("crown-3", crown_order(3)), ("boolean-3", boolean_order(3))]:
        fam = family_from_separators(q, prefix_separators(q.n))
        exact = order_dimension(q).d
        print(f"{name}: exact dimension {exact} <= separator bound {fam.size}")
        assert exact <= fam.size

    # A family that cannot tell two points apart is reported, not guessed.
    q = crown_order(2)
    try:
        family_from_separators(q, (frozenset({0}),))
    except IncompleteFamily as err:
        print("one singleton set on crown-2 is incomplete: undecided pair", err.pair)
    else:
        raise AssertionError("a single singleton set cannot separate crown-2")


if __name__ == "__main__":
    main()
