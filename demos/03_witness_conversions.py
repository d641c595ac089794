"""Converting between acyclic covers and extension families, with receipts.

Both witness shapes certify the same number. The conversions are
constructive in both directions, and offering a pair set that cannot
extend the order produces a concrete cycle instead of a failure flag.

Run: python demos/03_witness_conversions.py
"""

from orderdim import (
    CycleInX,
    antichain_order,
    cover_to_extensions,
    crown_order,
    dichromatic_number,
    extend_by_pairs,
    extension_pairs,
    extensions_to_cover,
    pair_digraph,
)


def main() -> None:
    base = crown_order(2)
    ap, _ = pair_digraph(base)
    print(f"pair digraph: {ap.n} vertices, {ap.edge_count()} edges")

    cover = dichromatic_number(ap).witness
    print("optimal cover class sizes:", [len(c) for c in cover.classes])

    fam = cover_to_extensions(base, cover)
    print("extension family size:", fam.size)

    back = extensions_to_cover(fam)
    print("back-converted class sizes:", [len(c) for c in back.classes])
    assert len(back.classes) == len(cover.classes)

    # Closing the base over exactly the pairs an extension added returns
    # that extension: nothing is lost in either direction.
    for ext in fam.exts:
        pairs = extension_pairs(base, ext)
        assert extend_by_pairs(base, pairs).rows == ext.rows
    print("closure round trip: identical extensions recovered")

    # An impossible request names its own obstruction.
    try:
        extend_by_pairs(antichain_order(2), [(0, 1), (1, 0)])
    except CycleInX as err:
        print("cycle certificate for contradictory pairs:", err.pairs)


if __name__ == "__main__":
    main()
