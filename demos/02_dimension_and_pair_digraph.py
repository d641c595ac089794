"""Order dimension equals the dichromatic number of the pair digraph.

The pair digraph has one vertex per ordered pair (x, y) that the order
does not already settle as y below x, and an edge whenever settling the
first pair forces a step toward the second. Partitioning its vertices
into acyclic classes is exactly choosing extensions that decide every
pair, so the two optimum values coincide. order_dimension searches a
smaller digraph: the pair digraph induced on the reversals of the
critical pairs, which every realizer must reverse (Trotter).

Run: python demos/02_dimension_and_pair_digraph.py
"""

from orderdim import (
    critical_pair_digraph,
    crown_order,
    dichromatic_number,
    order_dimension,
    pair_digraph,
    realizer_oracle,
)


def main() -> None:
    # The 2n-element crown is the classic high-dimension witness:
    # n bottom points, n top points, each top above all bottoms but one.
    for n in (2, 3):
        crown = crown_order(n)
        via = order_dimension(crown)
        ap, _ = pair_digraph(crown)
        cp, _ = critical_pair_digraph(crown)
        k = dichromatic_number(ap).k
        oracle = realizer_oracle(crown, n)
        print(
            f"crown n={n}: dimension {via.d} (reduction) = {k} "
            f"(pair digraph) = {oracle} (oracle); searched "
            f"{cp.n} critical of {ap.n} pair vertices"
        )
        assert via.d == k == oracle == n

    # The witness family really is a family of extensions deciding
    # every pair; its size is the dimension.
    fam = order_dimension(crown_order(3)).witness
    print("witness family size:", fam.size)
    for i, ext in enumerate(fam.exts):
        print(f"  extension {i}: {len(ext.related_pairs())} related pairs")


if __name__ == "__main__":
    main()
