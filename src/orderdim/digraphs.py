"""Finite digraphs without self-loops: cycles, components, homomorphisms.

Same bit-row encoding as relations: bit j of rows[i] set means an edge
i -> j. A cycle of length k is a vertex sequence of k+1 vertices whose
consecutive pairs are edges, wrapping around; a mutual edge pair is a
cycle of length 1. Vertices may repeat in a general cycle but not in a
minimal one.
"""

from __future__ import annotations

from .errors import (
    IndexOutOfRange,
    LimitExceeded,
    NotADigraph,
    SizeMismatch,
)
from .records import Record, set_slot
from .relations import bits_of, transpose_rows


class Digraph(Record):
    """Bit rows of a digraph without self-loops.

    Public construction validates the rows. The package skips that only
    for digraphs it has just built with in-range, loop-free rows
    (records.trusted)."""

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if n < 0 or len(rows) != n:
            raise NotADigraph(f"{len(rows)} rows for {n} vertices")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise IndexOutOfRange(f"row {i} points outside 0..{n - 1}")
            if (row >> i) & 1:
                raise NotADigraph(f"self-loop at {i}")
        set_slot(self, "n", n)
        set_slot(self, "rows", rows)

    def adj(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits_of(self.rows[i])]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def is_symmetric(self) -> bool:
        cols = transpose_rows(self.rows, self.n)
        return all(r == c for r, c in zip(self.rows, cols))


def digraph(n: int, edges) -> Digraph:
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside 0..{n - 1}")
        if i == j:
            raise NotADigraph(f"self-loop at {i}")
        rows[i] |= 1 << j
    return Digraph(n, tuple(rows))


class Cycle(Record):
    """Closed walk given by its vertices; the wrap edge is implied."""

    __slots__ = _fields = ("verts",)

    def __init__(self, verts: tuple[int, ...]):
        if len(verts) < 2:
            raise SizeMismatch("a cycle needs at least two vertices")
        set_slot(self, "verts", verts)

    @property
    def length(self) -> int:
        return len(self.verts) - 1


def verify_cycle(d: Digraph, c: Cycle) -> bool:
    vs = c.verts
    return all(d.adj(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def is_acyclic(d: Digraph, subset=None):
    """True if no cycle runs inside subset, else a witness Cycle in it.

    subset defaults to all vertices. Deterministic: vertices and neighbors
    are explored in ascending order, so the witness is reproducible.
    """
    if subset is None:
        mask = (1 << d.n) - 1
    else:
        mask = 0
        for v in sorted(set(subset)):
            if not (0 <= v < d.n):
                raise IndexOutOfRange(f"vertex {v} outside 0..{d.n - 1}")
            mask |= 1 << v
    cycle = _cycle_in(d.rows, mask)
    return True if cycle is None else cycle


def _cycle_in(rows, mask: int) -> Cycle | None:
    """Depth-first search inside mask, starts and neighbours ascending.

    grey holds the vertices on the current path and done those finished.
    Each path vertex keeps a mask of the neighbours it has not stepped to
    yet; its next step is the least of them that is not done. A grey one
    closes the returned cycle, any other is stepped to.

    With no self-loops, at most two vertices a < b hold a cycle only when
    both edges join them, and then the search returns (a, b). On more,
    sinks are peeled off first: a vertex with no edge to the rest lies on
    no cycle, so a peel that empties the mask settles it with no search.
    Each pass walks what is left in ascending order, and the peel stops
    after a pass that removes less than a sixteenth of it, so all passes
    together walk at most 16 times as many vertices as the mask holds (a
    path i -> i+1 loses only its top vertex a pass); a class of at most
    16 vertices stops only when a pass removes nothing. Otherwise
    the search runs over the whole mask, so the witness does not depend
    on the peel.
    """
    rest = mask & (mask - 1)
    if not rest & (rest - 1):
        if not rest:
            return None
        a = (mask ^ rest).bit_length() - 1
        b = rest.bit_length() - 1
        if rows[a] & rest and rows[b] >> a & 1:
            return Cycle((a, b))
        return None
    rest = mask
    size = rest.bit_count()
    while True:
        left = rest
        for v in bits_of(rest):
            if not rows[v] & left:
                left ^= 1 << v
        if not left:
            return None
        kept = left.bit_count()
        if 16 * (size - kept) < size:
            break
        rest = left
        size = kept
    done = 0
    left = mask
    while left:
        start = (left & -left).bit_length() - 1
        grey = 1 << start
        path = [start]
        pending = [rows[start] & mask]
        while pending:
            nxt = pending[-1] & ~done
            if nxt:
                low = nxt & -nxt
                w = low.bit_length() - 1
                if grey & low:
                    return Cycle(tuple(path[path.index(w):]))
                pending[-1] = nxt ^ low
                grey |= low
                path.append(w)
                pending.append(rows[w] & mask)
            else:
                pending.pop()
                low = 1 << path.pop()
                grey ^= low
                done |= low
        left &= ~done
    return None


def is_minimal_cycle(d: Digraph, verts) -> bool:
    """Distinct vertices inducing exactly the consecutive edges, wrapped."""
    vs = tuple(verts)
    if len(vs) < 2 or len(set(vs)) != len(vs):
        return False
    members = sum(1 << v for v in vs)
    rows = d.rows
    return all(rows[v] & members == 1 << w for v, w in zip(vs, vs[1:] + vs[:1]))


# default node budget of minimal_cycles and the homomorphism search and check
DEFAULT_NODE_BUDGET = 10**6


def minimal_cycles(
    d: Digraph, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Cycle, ...]:
    """All minimal cycles, least vertex first.

    A minimal cycle visits distinct vertices and induces no edges besides
    the consecutive ones, so it is an induced copy of a directed cycle.
    Enumeration grows induced paths from each least vertex; a path dies as
    soon as a chord in either direction appears, and closing back to the
    start forbids any longer continuation. Raises LimitExceeded after
    `budget` extension attempts.
    """
    rows = d.rows
    cols = transpose_rows(rows, d.n)
    out: list[Cycle] = []
    nodes = 0
    for v0 in range(d.n):
        # only cycles whose least vertex is v0: ids up to v0 count as seen
        stack = [([v0], (2 << v0) - 1, 0)]
        while stack:
            path, seen, inner = stack.pop()
            last = path[-1]
            cand = rows[last] & ~seen
            nodes += cand.bit_count()
            if nodes > budget:
                raise LimitExceeded(budget, "minimal cycle enumeration")
            if len(path) > 1:
                # no chord back to last, from v0, or to or from an inner vertex
                cand &= ~(cols[last] | rows[v0] | inner)
                inner |= rows[last] | cols[last]
            for w in bits_of(cand):
                if (cols[v0] >> w) & 1:
                    out.append(Cycle(tuple(path) + (w,)))
                else:
                    stack.append((path + [w], seen | (1 << w), inner))
    out.sort(key=lambda c: (len(c.verts), c.verts))
    return tuple(out)


def scc_decompose(d: Digraph) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components in topological order, members sorted.

    Kosaraju on bitsets. The forward DFS keeps an unvisited mask and always
    steps to the lowest unvisited out-neighbour (rows[u] & unvisited), from
    the lowest unvisited root; the backward sweep takes vertices in reverse
    finish order and collects each component in layers through the
    cols[u] of the last layer's members, ANDed with left, the vertices not
    yet in a component.
    """
    return tuple(
        tuple(bits_of(comp))
        for comp in _strong_components(d.rows, transpose_rows(d.rows, d.n))
    )


def _strong_components(rows, cols) -> list[int]:
    """The components of scc_decompose as member masks, in the same
    order, from rows and their transpose cols, which callers that hold
    cols already pass in instead of transposing again."""
    n = len(rows)
    unvisited = (1 << n) - 1
    finish: list[int] = []
    while unvisited:
        s = (unvisited & -unvisited).bit_length() - 1
        unvisited ^= 1 << s
        path = [s]
        top = rows[s]
        while True:
            nxt = top & unvisited
            if nxt:
                low = nxt & -nxt
                unvisited ^= low
                w = low.bit_length() - 1
                path.append(w)
                top = rows[w]
            else:
                finish.append(path.pop())
                if not path:
                    break
                top = rows[path[-1]]
    left = (1 << n) - 1
    comps: list[int] = []
    for v in reversed(finish):
        members = 1 << v
        if not left & members:
            continue
        front = cols[v] & left
        left ^= members | front
        while front:
            members |= front
            step = 0
            for u in bits_of(front):
                step |= cols[u]
            front = step & left
            left ^= front
        comps.append(members)
    return comps


class HomWitness(Record):
    """A vertex map claimed edge-preserving; minimal adds the cycle rule."""

    __slots__ = _fields = ("mapping", "minimal")

    def __init__(self, mapping: tuple[int, ...], minimal: bool = False):
        set_slot(self, "mapping", mapping)
        set_slot(self, "minimal", minimal)


class HomCheck(Record):
    """Verification outcome; on failure names the pair (and cycle) at fault."""

    __slots__ = _fields = ("ok", "reason", "pair", "cycle")

    def __init__(
        self,
        ok: bool,
        reason: str | None = None,
        pair: tuple[int, int] | None = None,
        cycle: tuple[int, ...] | None = None,
    ):
        set_slot(self, "ok", ok)
        set_slot(self, "reason", reason)
        set_slot(self, "pair", pair)
        set_slot(self, "cycle", cycle)

    def __bool__(self) -> bool:
        return self.ok


def _cycle_non_edges(g: Digraph, budget: int):
    """Each ordered non-edge pair inside a minimal cycle of g, with the
    cycle: cycles in minimal_cycles order, pairs by position in it."""
    for c in minimal_cycles(g, budget):
        vs = c.verts
        m = len(vs)
        for i in range(m):
            for j in range(m):
                if i != j and j != (i + 1) % m:
                    yield (vs[i], vs[j]), vs


def verify_homomorphism(
    g: Digraph, h: Digraph, w: HomWitness, budget: int = DEFAULT_NODE_BUDGET
) -> HomCheck:
    """Recheck a witness from scratch; independent of any search state.

    A minimal witness enumerates the minimal cycles of g, which raises
    LimitExceeded past `budget` extension attempts.
    """
    if len(w.mapping) != g.n:
        raise SizeMismatch(f"mapping covers {len(w.mapping)} of {g.n} vertices")
    for t in w.mapping:
        if not (0 <= t < h.n):
            raise IndexOutOfRange(f"image {t} outside 0..{h.n - 1}")
    m = w.mapping
    for u in range(g.n):
        for v in bits_of(g.rows[u]):
            if not h.adj(m[u], m[v]):
                return HomCheck(False, "edge not preserved", (u, v))
    if w.minimal:
        for (a, b), cycle in _cycle_non_edges(g, budget):
            if h.adj(m[a], m[b]):
                return HomCheck(
                    False, "cycle non-edge mapped to an edge", (a, b), cycle
                )
    return HomCheck(True)


def find_homomorphism(
    g: Digraph,
    h: Digraph,
    minimal: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> HomWitness | None:
    """First witness in canonical search order, or None when none exists.

    Vertices are assigned in decreasing degree order (ties by id), values
    tried in ascending order, so the witness is deterministic. Raises
    LimitExceeded when the node budget runs out before the search settles;
    None is only returned after the full space is exhausted.
    """
    if g.n == 0:
        return HomWitness((), minimal)
    # out-degree plus in-degree, the in-degrees read off one transpose
    degree = [
        row.bit_count() + col.bit_count()
        for row, col in zip(g.rows, transpose_rows(g.rows, g.n))
    ]
    order = sorted(range(g.n), key=lambda v: (-degree[v], v))
    pos = {v: i for i, v in enumerate(order)}
    h_cols = transpose_rows(h.rows, h.n)
    # constraints checkable once a vertex is placed: (partner, lines,
    # edge_required), partner always earlier in the assignment order and
    # lines[image[partner]] the values that make the edge present
    cons: list[list[tuple[int, list[int], bool]]] = [[] for _ in range(g.n)]
    checks = [(u, v, True) for u, v in g.edges()]
    if minimal:
        checks += [(a, b, False) for (a, b), _ in _cycle_non_edges(g, budget)]
    for a, b, required in checks:
        if pos[a] > pos[b]:
            cons[a].append((b, h_cols, required))
        else:
            cons[b].append((a, h.rows, required))
    full = (1 << h.n) - 1
    image = [0] * g.n
    # allowed[d]: the images of order[d] that meet its constraints, set on
    # entering depth d; lo is the least value not yet tried there
    allowed = [full] * g.n
    nodes = 0
    depth = 0
    lo = 0
    while True:
        rest = allowed[depth] >> lo
        t = lo + (rest & -rest).bit_length() - 1 if rest else h.n
        # every value from lo up to t (all of them if none fits) counts
        nodes += min(t + 1, h.n) - lo
        if nodes > budget:
            raise LimitExceeded(budget, "homomorphism search")
        if t == h.n:
            depth -= 1
            if depth < 0:
                return None
            lo = image[order[depth]] + 1
            continue
        image[order[depth]] = t
        if depth == g.n - 1:
            return HomWitness(tuple(image), minimal)
        depth += 1
        lo = 0
        fits = full
        for partner, lines, required in cons[order[depth]]:
            ends = lines[image[partner]]
            fits &= ends if required else ~ends
        allowed[depth] = fits
