"""Seeded instance generators and exhaustive enumeration of small posets."""

from __future__ import annotations

from .digraphs import Digraph, digraph
from .errors import IndexOutOfRange, TooLarge
from .relations import (
    QuasiOrder,
    bits_of,
    close_rows,
    quasi_order,
    transpose_rows,
)
from .rng import SplitMix64

# The instances of all kinds but antichain, cycle and boolean (which
# guards itself) grow with n squared: at n = 2000 one takes seconds and
# a few hundred MB, so gen and the random kinds refuse n above this.
MAX_GEN_N = 1000


def _hits(n: int, count: int, p: float, seed: int) -> int:
    """SplitMix64(seed).hits(count, p) for an instance on n points,
    refused above MAX_GEN_N before any of its byte-a-draw chances."""
    if n > MAX_GEN_N:
        raise TooLarge(f"random instances are guarded to n <= {MAX_GEN_N}, got {n}")
    return SplitMix64(seed).hits(count, p)


def random_order(n: int, p: float, seed: int) -> QuasiOrder:
    """Reflexive-transitive closure of a random DAG with edge chance p."""
    up = _upper_rows(n, _hits(n, n * (n - 1) // 2, p, seed))
    # edges only climb, so the rows above i are closed by the time i is
    for i in reversed(range(n)):
        row = 1 << i
        todo = up[i]
        while todo:
            low = todo & -todo
            row |= up[low.bit_length() - 1]
            todo &= ~row
        up[i] = row
    return QuasiOrder(n, tuple(up))


def random_quasi(n: int, p: float, seed: int) -> QuasiOrder:
    """Closure of an arbitrary random relation; classes can be nontrivial."""
    rows = _off_diagonal_rows(n, _hits(n, n * (n - 1), p, seed))
    for i in range(n):
        rows[i] |= 1 << i
    return QuasiOrder(n, tuple(close_rows(rows, n)))


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    rows = _off_diagonal_rows(n, _hits(n, n * (n - 1), p, seed))
    return Digraph(n, tuple(rows))


def random_symmetric(n: int, p: float, seed: int) -> Digraph:
    up = _upper_rows(n, _hits(n, n * (n - 1) // 2, p, seed))
    down = transpose_rows(up, n)
    return Digraph(n, tuple(u | d for u, d in zip(up, down)))


def _upper_rows(n: int, hits: int) -> list[int]:
    """Draw bits in the order (0, 1), (0, 2), ..., (n - 2, n - 1) as rows."""
    rows = []
    for i in range(n):
        width = n - 1 - i
        rows.append((hits & ((1 << width) - 1)) << (i + 1))
        hits >>= width
    return rows


def _off_diagonal_rows(n: int, hits: int) -> list[int]:
    """Draw bits in row-major order over (i, j), i != j, as rows."""
    rows = []
    for i in range(n):
        draws = hits & ((1 << (n - 1)) - 1)
        hits >>= n - 1
        before = draws & ((1 << i) - 1)
        rows.append(before | (draws ^ before) << 1)
    return rows


def crown_order(n: int) -> QuasiOrder:
    """n minima below n maxima, each pair related except at equal index."""
    if n < 1:
        raise IndexOutOfRange(f"crown needs at least 1 minimum, got {n}")
    maxima = ((1 << n) - 1) << n
    rows = [(1 << i) | maxima & ~(1 << (n + i)) for i in range(n)]
    rows += [1 << (n + j) for j in range(n)]
    return QuasiOrder(2 * n, tuple(rows))


def chain_order(n: int) -> QuasiOrder:
    """0 < 1 < ... < n-1: row i is the suffix i..n-1, built directly."""
    return QuasiOrder(n, tuple((1 << n) - (1 << i) for i in range(n)))


def antichain_order(n: int) -> QuasiOrder:
    return quasi_order(n, [], close=False)


def boolean_order(atoms: int) -> QuasiOrder:
    """Subsets of a set of atoms ordered by inclusion; ids are bit masks."""
    if atoms < 0 or atoms > 6:
        raise TooLarge(f"{atoms} atoms outside the supported 0..6")
    n = 1 << atoms
    # row i holds every j that contains i
    rows = [sum(1 << j for j in range(n) if i & ~j == 0) for i in range(n)]
    return QuasiOrder(n, tuple(rows))


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise IndexOutOfRange(f"a directed cycle needs 2 vertices, got {n}")
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


def bidirected_clique(n: int) -> Digraph:
    return digraph(
        n, [(i, j) for i in range(n) for j in range(n) if i != j]
    )


# the census of labeled posets is 130,023 on 6 points and 6,129,859 on 7
MAX_ENUMERATE_N = 6


def guard_enumeration(n: int) -> None:
    """Refuse n as enumerate_posets does, before any poset is made."""
    if n < 0:
        raise IndexOutOfRange(f"negative ground set size {n}")
    if n > MAX_ENUMERATE_N:
        raise TooLarge(
            f"poset enumeration guarded to n <= {MAX_ENUMERATE_N}, got {n}"
        )


def enumerate_posets(n: int):
    """Every labeled poset on 0..n-1 exactly once, deterministically.

    Vertices join one at a time; each step picks a down-set closed under
    predecessors, an up-set closed under successors, disjoint, and with
    every chosen lower element already under every chosen upper one.
    Guarded to n <= MAX_ENUMERATE_N.
    """
    guard_enumeration(n)
    for up_rows in _strict_rows(n):
        rows = tuple((1 << i) | up_rows[i] for i in range(n))
        yield QuasiOrder(n, rows)


def _strict_rows(m: int):
    if m == 0:
        yield []
        return
    v = m - 1
    for up in _strict_rows(v):
        down = transpose_rows(up, v)
        all_masks = range(1 << v)
        down_closed = [
            dmask
            for dmask in all_masks
            if all(down[u] & ~dmask == 0 for u in bits_of(dmask))
        ]
        up_closed = [
            umask
            for umask in all_masks
            if all(up[u] & ~umask == 0 for u in bits_of(umask))
        ]
        for dmask in down_closed:
            for umask in up_closed:
                if dmask & umask:
                    continue
                if any(umask & ~up[u] for u in bits_of(dmask)):
                    continue
                rows = [
                    up[i] | (1 << v if (dmask >> i) & 1 else 0)
                    for i in range(v)
                ]
                rows.append(umask)
                yield rows
