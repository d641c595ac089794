"""Reductions between quasi orders, pair digraphs, covers and extensions.

The pair digraph of a base order has one vertex per ordered pair (x, y)
that some extension could still decide upward, i.e. with y not below x.
An edge (x0, y0) -> (x1, y1) means y0 is below-or-equal x1, so deciding
the first pair forces progress on the second. Acyclic vertex classes of
this digraph correspond exactly to single extensions of the base, and a
full cover corresponds to a family of extensions that decides everything.
"""

from __future__ import annotations

from operator import and_, inv, or_

from .digraphs import Digraph, _cycle_in
from .errors import (
    BadPair,
    CycleInX,
    IncompleteFamily,
    IndexOutOfRange,
    InvalidCover,
    NotExtension,
    SizeMismatch,
    TooLarge,
)
from .records import Record, set_slot, trusted
from .relations import (
    QuasiOrder,
    StrictOrder,
    _extends,
    _peel,
    _peel_frame,
    bits_of,
    close_rows,
    extends,
    transpose_rows,
)


# the most vertices a pair digraph may have: its bit rows take up to a
# vertex count squared bits, so a larger one is refused before it is built
MAX_PAIR_VERTICES = 1 << 14

# the most edges `reduce ap` and `reduce bp` list as JSON pairs: a million
# take about 1.5 s and 150 MB, and a pair digraph under the vertex guard
# can have tens of millions
MAX_PAIR_EDGES = 1 << 20


def _pair_ends(q: QuasiOrder) -> list[int]:
    """ends[x] holds each y with (x, y) a pair vertex: y not below x."""
    full = (1 << q.n) - 1
    return [full & ~below for below in transpose_rows(q.rows, q.n)]


def _guard_pair_vertices(ends) -> None:
    """TooLarge when ends holds over MAX_PAIR_VERTICES pair vertices."""
    count = sum(ys.bit_count() for ys in ends)
    if count > MAX_PAIR_VERTICES:
        raise TooLarge(
            f"{count} pair vertices exceed the pair vertex guard of "
            f"{MAX_PAIR_VERTICES}"
        )


def _pair_vertices(ends, rows) -> tuple[int, ...]:
    """Indices, in pair_digraph's lexicographic order, of the pair vertices
    (x, y) with y in rows[x], where ends is _pair_ends of the order; the
    pairs before each are counted by prefix popcounts, not listed."""
    out = []
    start = 0
    for ys, row in zip(ends, rows):
        for y in bits_of(row & ys):
            out.append(start + (ys & ((1 << y) - 1)).bit_count())
        start += ys.bit_count()
    return tuple(out)


def pair_digraph(
    q: QuasiOrder, incomparable_only: bool = False
) -> tuple[Digraph, tuple[tuple[int, int], ...]]:
    """Digraph on undominated pairs of q, optionally only incomparable ones,
    and its vertices as pairs in lexicographic order.

    TooLarge, before any pair is listed, above MAX_PAIR_VERTICES vertices.
    """
    ends = _pair_ends(q)
    if incomparable_only:
        ends = [ys & ~row for ys, row in zip(ends, q.rows)]
    _guard_pair_vertices(ends)
    pairs, rows = _pair_out_rows(ends, q.rows)
    return trusted(Digraph, len(pairs), tuple(rows)), tuple(pairs)


def _pair_out_rows(seconds, reach) -> tuple[list, list[int]]:
    """The pairs (x, y) with y in seconds[x], in lexicographic order, and
    the out-rows of their pair digraph: (x0, y0) -> (x1, y1) iff x1 lies
    in reach[y0], which says y0 <= x1 when reach is the base's rows.

    The pairs with first coordinate x take one block of consecutive
    indices, so an out-row is the OR of the blocks of reach[y0]. It
    depends only on y0 and is built once per distinct y0. Each row lies
    inside the pairs' range and holds its own pair (x0, y0) only when x0
    is in reach[y0], which a pair vertex rules out (y0 is not below x0):
    pair-vertex rows make a valid Digraph as they stand.
    """
    blocks = [0] * len(reach)
    firsts = start = 0
    for x, ys in enumerate(seconds):
        if ys:
            width = ys.bit_count()
            blocks[x] = ((1 << width) - 1) << start
            start += width
            firsts |= 1 << x
    memo = [-1] * len(reach)
    pairs = []
    rows = []
    for x in bits_of(firsts):
        for y in bits_of(seconds[x]):
            m = memo[y]
            if m < 0:
                m = 0
                for x1 in bits_of(reach[y] & firsts):
                    m |= blocks[x1]
                memo[y] = m
            pairs.append((x, y))
            rows.append(m)
    return pairs, rows


def critical_pair_digraph(
    q: QuasiOrder,
) -> tuple[Digraph, tuple[tuple[int, int], ...]]:
    """Pair digraph induced on the reversals of the critical pairs of q.

    On the quotient, with each class named by its least member, (a, b) is
    critical when a and b are incomparable, everything strictly below a
    is below b and everything strictly above b is above a. Its vertex is
    (b, a), the pair an extension must add to reverse it; vertices come
    in lexicographic order, edges follow pair_digraph. A family of linear
    extensions realizes q iff it reverses every critical pair (Trotter),
    so the dichromatic number of this digraph is the dimension whenever q
    has an incomparable pair.
    """
    return _critical_pair_frame(q)[:2]


def _critical_pair_frame(q: QuasiOrder):
    """critical_pair_digraph(q) and _peel_frame(q), which it reads.
    Every pair (b, a) joins two class leaders that q leaves incomparable.
    TooLarge as soon as the pairs counted pass MAX_PAIR_VERTICES, before
    any is listed."""
    frame = same, down, up, lead = _peel_frame(q)
    # below- and above-sets are unions of classes, so comparing them as
    # element masks compares the quotient's strict order
    leaders = 0
    for x in lead:
        leaders |= 1 << x
    seconds = [0] * q.n
    count = 0
    for b in lead:
        db, ub = down[b], up[b]
        ys = 0
        for a in bits_of(leaders & ~(db | ub | same[b])):
            if down[a] & ~db == 0 and ub & ~up[a] == 0:
                ys |= 1 << a
        seconds[b] = ys
        count += ys.bit_count()
        if count > MAX_PAIR_VERTICES:
            raise TooLarge(
                f"over {MAX_PAIR_VERTICES} critical pairs exceed the pair "
                "vertex guard"
            )
    pairs, rows = _pair_out_rows(seconds, q.rows)
    return trusted(Digraph, len(pairs), tuple(rows)), tuple(pairs), frame


def extension_pairs(
    base: QuasiOrder, ext: QuasiOrder
) -> tuple[tuple[int, int], ...]:
    """Pair vertices realized by ext: pairs newly related by it, lex order."""
    if not extends(base, ext):
        raise NotExtension("second order does not extend the first")
    return tuple(
        (x, y)
        for x in range(base.n)
        for y in bits_of(ext.rows[x])
        if not base.leq(y, x)
    )


def _pair_rows(base: QuasiOrder, pairs) -> list[int]:
    n, leq = base.n, base.rows
    rows = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRange(f"pair ({a}, {b}) outside 0..{n - 1}")
        if (leq[b] >> a) & 1:
            raise BadPair(f"({a}, {b}) is already decided downward")
        rows[a] |= 1 << b
    return rows


def extend_by_pairs(base: QuasiOrder, pairs) -> QuasiOrder:
    """Close base over the offered pairs; the closure must stay an extension.

    Every offered pair must be undecided downward (BadPair otherwise). If
    the closure would merge two classes that the base keeps apart, the
    offending pairs form a pair-digraph cycle, raised as CycleInX.
    """
    pair_rows = _pair_rows(base, pairs)
    # the closure of in-range reflexive rows is a quasi order as built
    rows = close_rows(
        [base.rows[i] | pair_rows[i] for i in range(base.n)], base.n
    )
    # a closure of the base merges classes iff it has fewer distinct rows
    if len(set(rows)) == len(set(base.rows)):
        return trusted(QuasiOrder, base.n, tuple(rows))
    raise _pair_cycle(base, pair_rows)


def _pair_cycle(base: QuasiOrder, pair_rows) -> CycleInX:
    """CycleInX of the pairs offered in pair_rows (bit b of row a offers
    (a, b)) when their closure merges classes: a cycle of their pair
    digraph, found by the DFS that every cover check runs."""
    pairs, rows = _pair_out_rows(pair_rows, base.rows)
    cycle = _cycle_in(rows, (1 << len(pairs)) - 1)
    return CycleInX(pairs[v] for v in cycle.verts)


def _lift_masks(base: QuasiOrder, frame, pairs, masks):
    """linear_extension(extend_by_pairs(base, [pairs[v] for v in
    bits_of(mask)])) of each mask, one _peel each off frame,
    _peel_frame(base). pairs are vertices of the base's pair digraph or
    critical-pair digraph, so in range. Each pair (a, b) of a mask puts a
    into the below-set of the leader of b's class (critical pairs join
    leaders already). A reversed comparable pair stalls the peel as a
    cycle does, and the stall raises what extend_by_pairs would: BadPair
    for the first such pair, else CycleInX."""
    same, down, _, _ = frame
    exts = []
    for mask in masks:
        below = list(down)
        for v in bits_of(mask):
            a, b = pairs[v]
            s = same[b]
            below[(s & -s).bit_length() - 1] |= 1 << a
        ext = _peel(base, frame, below)
        if ext is None:
            offered = [pairs[v] for v in bits_of(mask)]
            raise _pair_cycle(base, _pair_rows(base, offered))
        exts.append(ext)
    return tuple(exts)


class AcyclicCover(Record):
    """Vertex classes meant to cover a digraph, each without a cycle.

    Public construction brings each class to its normal form, an
    ascending tuple without repeats; check_cover judges the cover. The
    package skips the normalizing only for covers it has just built in
    that form (records.trusted)."""

    __slots__ = _fields = ("classes",)

    def __init__(self, classes: tuple[tuple[int, ...], ...]):
        set_slot(
            self, "classes", tuple(tuple(sorted(set(c))) for c in classes)
        )


def check_cover(d: Digraph, cover: AcyclicCover) -> None:
    """Raise InvalidCover unless classes cover d and are each acyclic."""
    _check_class_masks(d, _class_masks(d.n, cover.classes))


def _class_masks(n: int, classes):
    """The member mask of each class, in turn; IndexOutOfRange for a
    vertex outside 0..n-1, raised as its class is reached."""
    for c in classes:
        mask = 0
        for v in c:
            if not (0 <= v < n):
                raise IndexOutOfRange(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        yield mask


def _check_class_masks(d: Digraph, masks) -> None:
    """check_cover on the classes' member masks: InvalidCover at the
    first mask that holds a cycle of d, then for the vertices none
    holds. masks is iterated once, so a generator that validates each
    class as it yields it does so before that class's cycle test."""
    seen = 0
    for mask in masks:
        seen |= mask
        witness = _cycle_in(d.rows, mask)
        if witness is not None:
            raise InvalidCover(
                f"class {tuple(bits_of(mask))} holds cycle {witness.verts}"
            )
    missing = ((1 << d.n) - 1) & ~seen
    if missing:
        raise InvalidCover(f"vertices {list(bits_of(missing))} uncovered")


def undecided_pair(base: QuasiOrder, exts) -> tuple[int, int] | None:
    """First ordered pair no extension settles: neither base(x,y) nor any
    ext placing y below x. None when the family decides everything.

    The members' rows are OR-ed, and the complement of that union is
    transposed once: unplaced[x] holds each y that no member places below
    x. For a complete family that is only the base's strict pairs, fewer
    than the union holds."""
    n = base.n
    union = [0] * n
    for e in exts:
        if e.n != n:
            raise SizeMismatch(f"ground sets differ: {n} vs {e.n}")
        union = list(map(or_, union, e.rows))
    full = (1 << n) - 1
    unplaced = transpose_rows(list(map(full.__xor__, union)), n)
    # a complete family leaves no open pair: a C-level pass says so
    # before the scan for the first one
    if not any(map(and_, unplaced, map(inv, base.rows))):
        return None
    for x, (row, free) in enumerate(zip(base.rows, unplaced)):
        open_bits = free & ~row
        if open_bits:
            return (x, (open_bits & -open_bits).bit_length() - 1)
    return None


class ExtensionFamily(Record):
    """Extensions of one base that jointly decide every ordered pair."""

    __slots__ = _fields = ("base", "exts")

    def __init__(self, base: QuasiOrder, exts: tuple[QuasiOrder, ...]):
        exts = tuple(exts)
        classes = len(set(base.rows))
        for e in exts:
            if not _extends(base, e, classes):
                raise NotExtension("family member does not extend the base")
        missing = undecided_pair(base, exts)
        if missing is not None:
            raise IncompleteFamily(missing)
        set_slot(self, "base", base)
        set_slot(self, "exts", exts)

    @property
    def size(self) -> int:
        return len(self.exts)


def cover_to_extensions(base: QuasiOrder, cover: AcyclicCover) -> ExtensionFamily:
    """One extension per cover class of the base's pair digraph."""
    ap, pairs = pair_digraph(base)
    check_cover(ap, cover)
    exts = tuple(
        extend_by_pairs(base, [pairs[v] for v in cls])
        for cls in cover.classes
    )
    return ExtensionFamily(base, exts)


def extensions_to_cover(fam: ExtensionFamily) -> AcyclicCover:
    """One pair-digraph class per extension, the pair vertices (x, y) with y
    in its row of x: acyclic, as a cycle would merge two base classes in
    the extension, and covering, as the family is complete."""
    ends = _pair_ends(fam.base)
    _guard_pair_vertices(ends)
    return AcyclicCover(tuple(_pair_vertices(ends, e.rows) for e in fam.exts))


def two_level_order(d: Digraph) -> tuple[QuasiOrder, tuple[int, ...]]:
    """Order with a bottom and top copy of the vertices, related along edges.

    Bottom copy of x is id x, top copy is id n+x; bottom x sits below top y
    exactly when (x, y) is an edge. Returns the order and the map sending
    source vertex x to the pair-digraph vertex (top x, bottom x); that map
    preserves and reflects edges.
    """
    n = d.n
    rows = [0] * (2 * n)
    for x in range(n):
        rows[x] = (1 << x) | (d.rows[x] << n)
        rows[n + x] = 1 << (n + x)
    q = QuasiOrder(2 * n, tuple(rows))
    # index each (n + x, x) rather than build the digraph
    tops = [0] * n + [1 << x for x in range(n)]
    return q, _pair_vertices(_pair_ends(q), tops)


def extend_by_separator(base: QuasiOrder, s: StrictOrder) -> QuasiOrder:
    """Extend base by all pairs a step of s vouches for.

    (a, b) enters when some u below-or-equal b has s(v, u) for every v
    below-or-equal a. Taking u = b shows: if s lifts everything under a
    over b, then a lands below b. The result never merges classes and is
    transitive, so it is a genuine extension. The u that vouch for a
    make up the AND of s's rows over the v below-or-equal a.
    """
    if base.n != s.n:
        raise SizeMismatch(f"ground sets differ: {base.n} vs {s.n}")
    rows = list(base.rows)
    for a, da in enumerate(transpose_rows(base.rows, base.n)):
        vouch = -1
        for v in bits_of(da):
            vouch &= s.rows[v]
        for u in bits_of(vouch):
            rows[a] |= base.rows[u]
    return QuasiOrder(base.n, tuple(rows))


def prefix_separators(n: int) -> tuple[frozenset[int], ...]:
    """Binary prefix classes of 0..n-1, all lengths up to the bit width.

    Singleton prefixes guarantee that any point can be split off any set
    avoiding it, which is exactly what family_from_separators needs.
    """
    if n < 0:
        raise IndexOutOfRange(f"negative ground set size {n}")
    bits = (n - 1).bit_length() if n >= 1 else 0
    out = []
    for length in range(bits + 1):
        for val in range(1 << length):
            out.append(
                frozenset(
                    i for i in range(n) if (i >> (bits - length)) == val
                )
            )
    return tuple(out)


def family_from_separators(base: QuasiOrder, sets) -> ExtensionFamily:
    """One separator-driven extension per set; IncompleteFamily, naming an
    undecided pair, when they fall short."""
    exts = []
    for b_set in sets:
        mask = 0
        for v in b_set:
            if not (0 <= v < base.n):
                raise IndexOutOfRange(f"separator holds {v} outside range")
            mask |= 1 << v
        rows = tuple(0 if (mask >> x) & 1 else mask for x in range(base.n))
        exts.append(extend_by_separator(base, StrictOrder(base.n, rows)))
    return ExtensionFamily(base, tuple(exts))
