"""Finite branching trees, the dense selector, and their increment digraphs.

A branching sequence sigma lists branching factors, each at least 2. The
tuples s with s[k] < sigma[k] of full length form one tree level; the
dense selector picks one such tuple per sequence. The increment digraph
on the full level connects s to t when both extend the selected tuple of
some shorter prefix, agree beyond that coordinate, and t bumps that
coordinate by one modulo its branching factor.
"""

from __future__ import annotations

import itertools
from math import comb

from .digraphs import Cycle, Digraph
from .errors import TooLarge

MAX_LEVEL_VERTICES = 4096
# g0 monotone compares the selected prefixes of every pair of lengths, at
# a cost that grows about cubically with the length of sigma
MAX_MONOTONE_LENGTH = 512


def check_sigma(sigma) -> tuple[int, ...]:
    out = tuple(int(v) for v in sigma)
    for v in out:
        if v < 2:
            raise ValueError(f"branching factor {v} below 2")
    return out


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sequence_stream():
    """Every finite tuple over the naturals, by weight then shortlex.

    The weight of s is 2*len(s) + sum(s), so a tuple of length k never
    appears before index k: all shorter all-zero tuples precede it.
    """
    w = 0
    while True:
        for k in range(w // 2 + 1):
            yield from _compositions(w - 2 * k, k)
        w += 1


def nth_sequence(l: int) -> tuple[int, ...]:
    if l < 0:
        raise ValueError(f"negative enumeration index {l}")
    return next(itertools.islice(sequence_stream(), l, None))


def _fibonacci(n: int) -> int:
    """F(n), with F(0) = 0 and F(1) = 1, by fast doubling."""
    a, b = 0, 1  # F(m), F(m + 1) for m the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a


def sequence_index(s) -> int:
    """Position of s in sequence_stream(), counted rather than scanned:
    the lighter tuples, then the shorter tuples of the same weight, then
    the rank of s among the compositions of its sum into len(s) parts."""
    s = tuple(s)
    k, rest = len(s), sum(s)
    w = 2 * k + rest
    # a tuple of weight w >= 2 is one of weight w - 1 with its last entry
    # raised, or one of weight w - 2 with a 0 appended; so, from weights 0
    # and 1, the counts per weight run 1, 0, 1, 1, 2, ... and those below
    # w sum to the Fibonacci number F(w)
    index = _fibonacci(w)
    # j-tuples of weight w, 0 < j < k, are compositions of w - 2j > 0
    index += sum(comb(w - j - 1, j - 1) for j in range(1, k))
    for i, v in enumerate(s):
        parts = k - 1 - i
        # compositions agreeing with s before i, smaller at i: their tails
        # sum to more than rest - v and at most rest
        index += comb(rest + parts, parts) - comb(rest - v + parts, parts)
        rest -= v
    return index


def in_level(sigma, s) -> bool:
    """Membership in the tree under sigma: short enough, entries in range."""
    return len(s) <= len(sigma) and all(
        0 <= s[k] < sigma[k] for k in range(len(s))
    )


def dense_selector(sigma) -> tuple[int, ...]:
    """The tuple selected at the level under sigma; every tree tuple is
    selected at the index where it is enumerated.

    For a branching sequence of length l: take the l-th enumerated tuple;
    if it fits the tree, pad it with zeros to full length, else answer all
    zeros.
    """
    sigma = check_sigma(sigma)
    l = len(sigma)
    s = nth_sequence(l)
    if not in_level(sigma, s):
        s = ()
    return s + (0,) * (l - len(s))


def _strides(sigma: tuple[int, ...]) -> list[int]:
    strides = [1] * len(sigma)
    for k in range(len(sigma) - 2, -1, -1):
        strides[k] = strides[k + 1] * sigma[k + 1]
    return strides


def _orbits(sigma):
    """Each increment orbit of the level under sigma, as its vertex ids.

    Checks sigma and the level size first. One orbit per coordinate k and
    tail: it steps the k-th coordinate through all sigma[k] values over
    the selected prefix, so consecutive ids and the wrap are its edges.
    """
    sigma = check_sigma(sigma)
    total = 1
    for v in sigma:
        total *= v
    if total > MAX_LEVEL_VERTICES:
        raise TooLarge(
            f"{total} vertices exceed the bound {MAX_LEVEL_VERTICES}"
        )
    strides = _strides(sigma)
    for k in range(len(sigma)):
        e = dense_selector(sigma[:k])
        base = sum(e[j] * strides[j] for j in range(k))
        for tail in itertools.product(*(range(v) for v in sigma[k + 1:])):
            off = base + sum(
                tail[j] * strides[k + 1 + j] for j in range(len(tail))
            )
            yield tuple(off + i * strides[k] for i in range(sigma[k]))


def selector_digraph(sigma) -> tuple[Digraph, tuple[tuple[int, ...], ...]]:
    """The increment digraph on the full tree level under sigma, with the
    level's tuples in vertex id order (mixed radix, last slot fastest)."""
    # drain the orbits first: the size guard fires before any allocation
    orbits = list(_orbits(sigma))
    sigma = check_sigma(sigma)
    verts = tuple(itertools.product(*(range(v) for v in sigma)))
    rows = [0] * len(verts)
    for orbit in orbits:
        for s_id, t_id in zip(orbit, orbit[1:] + orbit[:1]):
            rows[s_id] |= 1 << t_id
    return Digraph(len(verts), tuple(rows)), verts


def canonical_cycles(sigma) -> tuple[Cycle, ...]:
    """One increment orbit per level and tail: the built-in minimal cycles.

    The orbit at level k steps the k-th coordinate through all sigma[k]
    values over the selected prefix; as a cycle its length is sigma[k]-1.
    """
    return tuple(Cycle(orbit) for orbit in _orbits(sigma))


def level_edge_count(sigma, k: int) -> int:
    """Edges witnessed at level k: sigma[k] times the tail combinations."""
    sigma = check_sigma(sigma)
    count = sigma[k]
    for v in sigma[k + 1:]:
        count *= v
    return count


def density_report(f, depth: int) -> tuple[tuple, tuple]:
    """Which tree tuples the dense selector hits within a prefix depth.

    Every tuple of the tree under f[:depth], shorter ones first, as a pair
    (s, l) with l its enumeration index, split into (witnessed,
    unresolved). A witnessed tuple has l within the depth, so the value at
    prefix length l extends s; an unresolved one has l beyond the depth,
    so no conclusion is drawn. TooLarge, before any tuple is listed, above
    MAX_LEVEL_VERTICES tuples.
    """
    f = check_sigma(f)
    if depth < 0 or depth > len(f):
        raise ValueError(f"depth {depth} outside 0..{len(f)}")
    prefix = f[:depth]
    count = size = 1
    for v in prefix:
        size *= v
        count += size
        if count > MAX_LEVEL_VERTICES:
            raise TooLarge(
                f"over {MAX_LEVEL_VERTICES} tuples at depth {depth} exceed "
                "the tree guard"
            )
    witnessed, unresolved = [], []
    for length in range(depth + 1):
        for s in itertools.product(*(range(v) for v in prefix[:length])):
            l = sequence_index(s)
            if l > depth:
                unresolved.append((s, l))
            else:
                witnessed.append((s, l))
    return tuple(witnessed), tuple(unresolved)


def monotone_counterexample(f) -> tuple[int, int] | None:
    """First pair of prefix lengths (m, n) breaking prefix monotonicity.

    Whenever the value at prefix length m is an initial segment of the
    value at length n, the branching factor at position m must not exceed
    the one at n. Quantified over prefix lengths with defined factors,
    scanned in (m, n) order; None when no pair breaks the rule.
    TooLarge, before any selector is computed, when f is longer than
    MAX_MONOTONE_LENGTH.
    """
    f = check_sigma(f)
    if len(f) > MAX_MONOTONE_LENGTH:
        raise TooLarge(
            f"length {len(f)} exceeds the monotone guard of "
            f"{MAX_MONOTONE_LENGTH}"
        )
    vals = [dense_selector(f[:m]) for m in range(len(f))]
    for m in range(len(f)):
        for n in range(m, len(f)):
            if vals[n][:m] == vals[m] and f[m] > f[n]:
                return m, n
    return None


def prefix_monotone(f) -> bool:
    """Branching factors never drop along selected-prefix containment."""
    return monotone_counterexample(f) is None
