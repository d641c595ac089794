"""Quasi orders on small ground sets: quotients, extensions, linearization.

A relation on ids 0..n-1 is stored as one int per row: bit j of rows[i]
set means i is related to j. All values are immutable and pure to share.
"""

from __future__ import annotations

from operator import and_, inv, xor

from .errors import (
    IndexOutOfRange,
    NotQuasiOrder,
    NotStrictOrder,
    SizeMismatch,
)
from .records import Record, set_slot, trusted


def close_rows(rows: list[int], n: int) -> list[int]:
    """Transitive closure of bit rows in place (Warshall over words)."""
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def transpose_rows(rows: tuple[int, ...] | list[int], n: int) -> list[int]:
    """Columns of the n×n bit matrix with these n rows: bit i of cols[j]
    is bit j of rows[i].

    From 6 rows a packed block transpose costs less than stepping through
    the set bits, up to the 256-wide blocks it is made for; above that,
    the 256×256 tiles of the matrix are transposed as such blocks unless
    the matrix holds so few bits that stepping through them is cheaper.
    """
    if 5 < n <= 256:
        return _transpose_block(rows, n)
    if n > 256:
        tiles = (-(-n // 256)) ** 2
        if sum(map(int.bit_count, rows)) > _TILE_BITS * tiles:
            return _transpose_tiled(rows, n)
    cols = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits_of(row):
            cols[j] |= bit
    return cols


def _tile(unit: int, width: int, total: int) -> int:
    """unit (width bits) repeated up to total bits, by doubling."""
    while width < total:
        unit |= unit << width
        width <<= 1
    return unit


def _swaps(w: int) -> list[tuple[int, int]]:
    """(shift, mask) delta swaps transposing a w×w bit matrix, w a power
    of two, held as one int with row r in bits r*w .. r*w + w - 1.

    Step j swaps the upper right and lower left j×j blocks of each 2j×2j
    diagonal block: entry (r, c) with bit j clear in r and set in c
    trades places with (r + j, c - j), j*(w - 1) bits higher. Its mask
    tiles j zeros and j ones along a row, that row over j rows, and those
    rows every 2j rows, so a width costs O(log² w) big-int steps.
    """
    steps = []
    j = w >> 1
    while j:
        row = _tile(((1 << j) - 1) << j, 2 * j, w)
        mask = _tile(_tile(row, w, j * w), 2 * j * w, w * w)
        steps.append((j * (w - 1), mask))
        j >>= 1
    return steps


# n -> (the struct of n little-endian w-bit words, None when w > 64, the
# bytes of a word, the swaps of width w) for the block width w of n;
# built on first use, with the swaps shared per width
_BLOCKS: dict[int, tuple] = {}
_SWAPS: dict[int, list[tuple[int, int]]] = {}


def _block(n: int) -> tuple:
    from struct import Struct

    w = 8
    while w < n:
        w <<= 1
    swaps = _SWAPS.get(w)
    if swaps is None:
        swaps = _SWAPS[w] = _swaps(w)
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}.get(w)
    words = Struct(f"<{n}{code}") if code else None
    block = _BLOCKS[n] = (words, w >> 3, swaps)
    return block


def _transpose_block(rows, n: int) -> list[int]:
    """The rows as the first n rows of a w×w bit matrix in one int, w the
    least power of two from 8 up that holds n, transposed by log2 w delta
    swaps and unpacked."""
    words, size, swaps = _BLOCKS.get(n) or _block(n)
    if words:
        x = int.from_bytes(words.pack(*rows), "little")
    else:
        packed = b"".join([row.to_bytes(size, "little") for row in rows])
        x = int.from_bytes(packed, "little")
    for shift, mask in swaps:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    buf = x.to_bytes(n * size, "little")
    if words:
        return list(words.unpack(buf))
    return [
        int.from_bytes(buf[i : i + size], "little")
        for i in range(0, n * size, size)
    ]


# the set bits per 256×256 tile below which stepping through the bits of
# a matrix of more than 256 rows costs less than transposing its tiles
_TILE_BITS = 512


def _transpose_tiled(rows, n: int) -> list[int]:
    """transpose_rows for n > 256: rows as little-endian bytes, cut into
    256×256 tiles of 32 bytes a row; each tile holding a bit is packed,
    transposed by the 256-wide delta swaps and kept as bytes, and column
    j joins the 32-byte pieces of its tiles down the matrix."""
    _, size, swaps = _BLOCKS.get(256) or _block(256)
    spans = -(-n // 256)
    width = spans * size
    data = [row.to_bytes(width, "little") for row in rows]
    data += [bytes(width)] * (spans * 256 - n)
    empty = bytes(256 * size)
    # tiles[j][i] holds the transposed tile of row span i, column span j
    tiles: list[list[bytes]] = [[] for _ in range(spans)]
    for i in range(0, spans * 256, 256):
        band = data[i : i + 256]
        for j in range(spans):
            lo = j * size
            x = int.from_bytes(
                b"".join([r[lo : lo + size] for r in band]), "little"
            )
            if not x:
                tiles[j].append(empty)
                continue
            for shift, mask in swaps:
                t = (x ^ (x >> shift)) & mask
                x ^= t ^ (t << shift)
            tiles[j].append(x.to_bytes(256 * size, "little"))
    cols = []
    for j, column in enumerate(tiles):
        for c in range(0, min(256, n - 256 * j) * size, size):
            cols.append(
                int.from_bytes(
                    b"".join([t[c : c + size] for t in column]), "little"
                )
            )
    return cols


def _byte_bits() -> list[tuple[int, ...]]:
    """Entry b lists the set bits of byte b, ascending."""
    table: list[tuple[int, ...]] = [()]
    for j in range(8):
        table += [bits + (j,) for bits in table]
    return table


_BITS0 = _byte_bits()


class _LazyByteBits(dict):
    """Entry b lists the set bits of byte b plus offset, ascending; filled
    in as bytes are first asked for."""

    __slots__ = ("offset",)

    def __init__(self, offset: int):
        self.offset = offset

    def __missing__(self, b: int) -> tuple[int, ...]:
        bits = self[b] = tuple(j + self.offset for j in _BITS0[b])
        return bits


_BITS1 = _LazyByteBits(8)
_BITS2 = _LazyByteBits(16)
_BITS3 = _LazyByteBits(24)
_BITS4 = _LazyByteBits(32)
_BITS5 = _LazyByteBits(40)
_BITS6 = _LazyByteBits(48)
_BITS7 = _LazyByteBits(56)


def bits_of(mask: int):
    """Set bit positions of mask >= 0 in ascending order, as a tuple or a
    list. Every full walk over the set bits of a mask goes through here.

    Masks below 2^64 join the tuples of their bytes from per-byte tables,
    one table per byte position; below 2^24 the bytes are cut by shifts,
    above it by one to_bytes of 4 or 8 bytes. From 2^64 up, masks are
    walked highest bit first into a list, reversed at the end: bit_length
    finds the top bit without touching the other words, so a bit costs
    two big-int steps, not the three of taking the lowest, and a wide
    sparse mask is never read byte by byte.
    """
    if mask < 0x100:
        return _BITS0[mask]
    if mask < 0x10000:
        return _BITS0[mask & 0xFF] + _BITS1[mask >> 8]
    if mask < 0x1000000:
        return (
            _BITS0[mask & 0xFF] + _BITS1[mask >> 8 & 0xFF] + _BITS2[mask >> 16]
        )
    if mask < 0x100000000:
        b0, b1, b2, b3 = mask.to_bytes(4, "little")
        return _BITS0[b0] + _BITS1[b1] + _BITS2[b2] + _BITS3[b3]
    if mask < 0x10000000000000000:
        b0, b1, b2, b3, b4, b5, b6, b7 = mask.to_bytes(8, "little")
        return (
            _BITS0[b0] + _BITS1[b1] + _BITS2[b2] + _BITS3[b3]
            + _BITS4[b4] + _BITS5[b5] + _BITS6[b6] + _BITS7[b7]
        )
    return _walk_bits(mask)


def _walk_bits(mask: int) -> list[int]:
    bits = []
    while mask:
        j = mask.bit_length() - 1
        bits.append(j)
        mask ^= 1 << j
    bits.reverse()
    return bits


def _check_rows_shape(n: int, rows: tuple[int, ...]) -> None:
    if n < 0:
        raise IndexOutOfRange(f"negative ground set size {n}")
    if len(rows) != n:
        raise SizeMismatch(f"{len(rows)} rows for ground set of {n}")
    full = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~full:
            raise IndexOutOfRange(f"row {i} relates ids outside 0..{n - 1}")


def _intransitive(rows) -> tuple[int, int, int] | None:
    """None when every j in rows[i] has rows[j] inside rows[i]; else the
    least failing (i, j), with the least k of rows[j] outside rows[i].

    Whether a row passes depends only on its value, so each distinct
    value is checked once, in increasing order as ints. A row strictly
    inside row is a smaller int, so it has already passed, and all it
    holds is settled for row in one step. So is all the previous value
    holds when it lies inside row, which leaves one step per row of a
    chain. An element whose own row holds only itself (a single-bit
    value, which sorts before every other row holding the bit) or
    nothing (a maximum of a strict order) lies inside every row that
    holds it, so once met it is settled everywhere, which leaves one
    step per row of a crown. Only a failure walks every related pair, to
    name the least witness.
    """
    last = loose = 0
    for row in sorted(rows):
        if row == last:
            continue
        todo = row & ~loose if last & ~row else row & ~last
        while todo:
            low = todo & -todo
            rj = rows[low.bit_length() - 1]
            if rj & ~row:
                return _least_intransitive(rows)
            if rj == row:
                # a row equal to row has not passed yet: it settles only
                # itself, and everywhere when it holds nothing else
                todo ^= low
                if row == low:
                    loose |= low
            else:
                todo &= ~(rj | low)
                if not rj:
                    loose |= low
        last = row
    return None


def _least_intransitive(rows) -> tuple[int, int, int]:
    for i, row in enumerate(rows):
        for j in bits_of(row):
            missing = rows[j] & ~row
            if missing:
                return i, j, (missing & -missing).bit_length() - 1
    raise AssertionError("rows are transitive")


class QuasiOrder(Record):
    """A reflexive transitive relation.

    Public construction validates the rows. The package skips that only
    for orders it has just built in a form that is reflexive and
    transitive by construction (records.trusted)."""

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        _check_rows_shape(n, rows)
        for i, row in enumerate(rows):
            if not (row >> i) & 1:
                raise NotQuasiOrder((i, i, i), f"not reflexive at {i}")
        witness = _intransitive(rows)
        if witness is not None:
            raise NotQuasiOrder(witness)
        set_slot(self, "n", n)
        set_slot(self, "rows", rows)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def equivalent(self, i: int, j: int) -> bool:
        return self.leq(i, j) and self.leq(j, i)

    def is_total(self) -> bool:
        return all(
            self.leq(i, j) or self.leq(j, i)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def related_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) with i related to j and i != j, in lexicographic order."""
        return [
            (i, j) for i in range(self.n) for j in bits_of(self.rows[i]) if i != j
        ]


def quasi_order(n: int, pairs, close: bool = False) -> QuasiOrder:
    """Build a quasi order from pairs; the diagonal is always implied.

    With close=True the reflexive-transitive closure of the pairs is taken,
    so any relation is accepted. With close=False the pairs plus diagonal
    must already be transitive, else NotQuasiOrder carries a witness triple.
    """
    rows = [1 << i for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"pair ({i}, {j}) outside 0..{n - 1}")
        rows[i] |= 1 << j
    if close:
        close_rows(rows, n)
    return QuasiOrder(n, tuple(rows))


class StrictOrder(Record):
    """An irreflexive transitive relation, same row encoding."""

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        _check_rows_shape(n, rows)
        for i, row in enumerate(rows):
            if (row >> i) & 1:
                raise NotStrictOrder(f"not irreflexive at {i}")
        witness = _intransitive(rows)
        if witness is not None:
            i, j, _ = witness
            raise NotStrictOrder(f"not transitive through ({i}, {j})")
        set_slot(self, "n", n)
        set_slot(self, "rows", rows)

    def lt(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)


class QuotientPoset(Record):
    """Mutual-relation classes of a quasi order with the induced strict order.

    Classes are listed by least member; class_of maps element to class id.
    """

    __slots__ = _fields = ("classes", "class_of", "lt_rows")

    def __init__(
        self,
        classes: tuple[tuple[int, ...], ...],
        class_of: tuple[int, ...],
        lt_rows: tuple[int, ...],
    ):
        n = len(class_of)
        seen = [False] * n
        for ci, cls in enumerate(classes):
            for x in cls:
                if not (0 <= x < n) or seen[x] or class_of[x] != ci:
                    raise SizeMismatch("classes do not partition the ground set")
                seen[x] = True
        if not all(seen):
            raise SizeMismatch("classes do not partition the ground set")
        StrictOrder(len(classes), lt_rows)
        set_slot(self, "classes", classes)
        set_slot(self, "class_of", class_of)
        set_slot(self, "lt_rows", lt_rows)

    @property
    def size(self) -> int:
        return len(self.classes)

    def lt(self, a: int, b: int) -> bool:
        return bool((self.lt_rows[a] >> b) & 1)


def quotient(q: QuasiOrder) -> QuotientPoset:
    """Collapse mutual pairs of q into classes; order classes strictly."""
    cols = transpose_rows(q.rows, q.n)
    class_of = [-1] * q.n
    classes: list[tuple[int, ...]] = []
    left = (1 << q.n) - 1
    while left:
        i = (left & -left).bit_length() - 1
        members = q.rows[i] & cols[i]
        for j in bits_of(members):
            class_of[j] = len(classes)
        classes.append(tuple(bits_of(members)))
        left &= ~members
    reps = 0
    for cls in classes:
        reps |= 1 << cls[0]
    lt_rows = []
    for cls in classes:
        r = cls[0]
        row = 0
        for j in bits_of(q.rows[r] & ~cols[r] & reps):
            row |= 1 << class_of[j]
        lt_rows.append(row)
    return QuotientPoset(tuple(classes), tuple(class_of), tuple(lt_rows))


def extends(base: QuasiOrder, ext: QuasiOrder) -> bool:
    """True iff ext contains base and relates exactly the same mutual pairs.

    In a quasi order i and j are mutual iff rows[i] == rows[j], so the
    distinct rows count the classes. Once ext contains base its classes
    are unions of base classes, equal to them iff the counts agree.
    """
    return _extends(base, ext, len(set(base.rows)))


def _extends(base: QuasiOrder, ext: QuasiOrder, classes: int) -> bool:
    """extends(base, ext) given the class count of base, so a check of
    several members counts the base once."""
    if base.n != ext.n:
        raise SizeMismatch(f"ground sets differ: {base.n} vs {ext.n}")
    if any(map(and_, base.rows, map(inv, ext.rows))):
        return False
    return classes == len(set(ext.rows))


def _peel_frame(
    q: QuasiOrder,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Each element's q-class, the elements strictly below and strictly
    above it in q, from one transpose, and the class leaders (each
    class's least member) in ascending order. A peel reads the class,
    the below-sets and the leaders, so peels over one base share them."""
    rows = q.rows
    cols = transpose_rows(rows, q.n)
    same = list(map(and_, rows, cols))
    # the class r & c lies in both, so c ^ same is c & ~r, r ^ same r & ~c
    return (
        same,
        list(map(xor, cols, same)),
        list(map(xor, rows, same)),
        [x for x, s in enumerate(same) if s & -s == 1 << x],
    )


def _peel(q: QuasiOrder, frame, below) -> QuasiOrder | None:
    """The deterministic linear extension of q closed over extra pairs.

    frame is _peel_frame(q). A class is ready once no element of
    below[leader] is left, where leader is the class's least member and
    below[leader] holds the elements strictly below the class in q and
    the lower end of every extra pair into it; frame's own below-sets
    give linear_extension(q). Only the leaders' rows are read, and the
    closure is never built. Kahn peel on the leaders: a scan of the
    pending leaders, ascending, finds the ready class with the least
    member, the tie-break, and drops it from the list. A class lies
    below itself and every class peeled after it, so each member's row
    is the mask of the elements left when its class is peeled: nested
    suffix masks, reflexive and transitive as built. A one-element class
    writes its leader's row, a larger one every member of same[leader].
    None when the peel stalls, which happens exactly when the pairs
    close a cycle of q-classes.
    """
    same, _, _, leaders = frame
    rows = [0] * q.n
    pending = list(leaders)
    remaining = (1 << q.n) - 1
    while pending:
        i = 0
        for x in pending:
            if not below[x] & remaining:
                break
            i += 1
        else:
            return None
        del pending[i]
        members = same[x]
        if members == 1 << x:
            rows[x] = remaining
        else:
            for y in bits_of(members):
                rows[y] = remaining
        remaining ^= members
    return trusted(QuasiOrder, q.n, tuple(rows))


def linear_extension(q: QuasiOrder) -> QuasiOrder:
    """One deterministic total extension of q.

    Topological order of the mutual-relation classes, ties broken by
    least member id, lifted back to the ground set.
    """
    frame = _peel_frame(q)
    return _peel(q, frame, frame[1])


def down_set_sizes(q: QuasiOrder) -> tuple[int, ...]:
    """Entry i counts the elements related down to i (including i)."""
    cols = transpose_rows(q.rows, q.n)
    return tuple(c.bit_count() for c in cols)
