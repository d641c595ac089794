"""Branching-tree digraphs: dense selector, increment edges, canonical cycles.

Vertices are the leaves of a finite branching tree with factors sigma.
At level k, edges increment coordinate k modulo sigma(k), but only below
the node the dense selector picked for that level. The increment orbits
are induced cycles, and their lengths read off the branching factors.

Run: python demos/04_branching_digraphs.py
"""

from orderdim import (
    canonical_cycles,
    dense_selector,
    density_report,
    dichromatic_number,
    level_edge_count,
    nth_sequence,
    prefix_monotone,
    selector_digraph,
)


def main() -> None:
    print("sequence enumeration by weight, then shortlex:")
    print("  ", [nth_sequence(l) for l in range(8)])

    for sigma in [(2,), (3,), (2, 2), (2, 3)]:
        g, _ = selector_digraph(sigma)
        cycles = canonical_cycles(sigma)
        per_level = [level_edge_count(sigma, k) for k in range(len(sigma))]
        print(
            f"sigma={sigma}: selector {dense_selector(sigma)}, "
            f"{g.n} vertices, edges/level {per_level}, "
            f"{len(cycles)} canonical cycles, "
            f"needs {dichromatic_number(g).k} acyclic classes"
        )

    # The selector is dense: within the checked depth every tree node is
    # an initial segment of the value it selects at some level.
    sigma = (2, 2)
    witnessed, unresolved = density_report(sigma, 2)
    print(
        f"density at depth 2 over {sigma}: {len(witnessed)} witnessed, "
        f"{len(unresolved)} unresolved"
    )
    for s, l in witnessed:
        assert dense_selector(sigma[:l])[: len(s)] == s

    # Monotonicity of branching factors along selected prefixes depends
    # on the order they appear in.
    print("monotone (2, 3):", prefix_monotone((2, 3)))
    print("monotone (3, 2):", prefix_monotone((3, 2)))


if __name__ == "__main__":
    main()
