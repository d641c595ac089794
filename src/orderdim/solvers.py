"""Exact solvers: dichromatic number, chromatic number, order dimension.

One deterministic search finds least acyclic covers as the member masks
of their classes, each search call returning its classes with the nodes
it spent. Each answer is checked once before it leaves, by the check
that fits it: the dichromatic number runs check_cover's per-class test
on the masks and wraps them in an AcyclicCover, which the chromatic
number reads for the symmetric digraph (every edge is a 2-cycle, so an
acyclic class is an independent set). The dimension covers the
critical-pair digraph and lifts each class mask straight to a linear
extension: the lift's peel stalls (CycleInX) on a class that closes a
cycle, and ExtensionFamily checks that every member extends the base
and that the family decides every pair. Budgets bound search nodes;
hitting one raises LimitExceeded rather than guessing.
"""

from __future__ import annotations

from operator import add, and_

from .digraphs import DEFAULT_SEARCH_BUDGET, Digraph, _check_budget
from .digraphs import _strong_components
from .errors import LimitExceeded, NotAGraph
from .records import Record, set_slot, trusted
from .reduction import (
    AcyclicCover,
    ExtensionFamily,
    _check_class_masks,
    _critical_pair_frame,
    _lift_masks,
)
from .relations import QuasiOrder, bits_of, transpose_rows


class DicrResult(Record):
    __slots__ = _fields = ("k", "witness")

    def __init__(self, k: int, witness: AcyclicCover):
        set_slot(self, "k", k)
        set_slot(self, "witness", witness)


class DimResult(Record):
    __slots__ = _fields = ("d", "witness")

    def __init__(self, d: int, witness: ExtensionFamily):
        set_slot(self, "d", d)
        set_slot(self, "witness", witness)


def _greedy_mutual_clique(mutual, mask: int) -> list[int]:
    """A clique of pairwise mutual edges inside mask; its size
    lower-bounds the answer. mutual[v] holds v's 2-cycle neighbours.

    Greedy: repeatedly take the candidate with the most mutual neighbours
    among the remaining candidates (ties to the least id).
    """
    clique: list[int] = []
    cand = mask
    while cand:
        v = -1
        best = -1
        for u in bits_of(cand):
            count = (mutual[u] & cand).bit_count()
            if count > best:
                v, best = u, count
        clique.append(v)
        cand &= mutual[v]
    return clique


def _has_odd_mutual_cycle(mutual, mask: int) -> bool:
    """True when the mutual edges inside mask hold an odd cycle, so 2
    classes fail there. mutual[v] holds v's 2-cycle neighbours.

    The two ends of a 2-cycle need different acyclic classes, so two
    classes would 2-colour the mutual-edge graph. Breadth-first layers
    from the least unseen vertex: the graph is bipartite iff no mutual
    edge joins two vertices of one layer.
    """
    left = mask
    while left:
        layer = left & -left
        left ^= layer
        while layer:
            nxt = 0
            for v in bits_of(layer):
                if mutual[v] & layer:
                    return True
                nxt |= mutual[v]
            layer = nxt & left
            left ^= layer
    return False


def _cover_scc(
    rows,
    cols,
    mask: int,
    degree,
    mutual,
    budget: int,
    spent: int,
) -> tuple[int, list[int], int]:
    """Exact minimum acyclic vertex cover of the strong component with
    member mask mask: k, the member masks of its k classes, and spent plus
    the nodes visited. degree[v] and mutual[v] are v's in- plus out-degree
    and 2-cycle neighbours in the whole digraph, built once for all.

    Tries k upward from a lower bound: the greedy mutual clique, at least
    2 (a strong component with two vertices holds a cycle), and 3 when
    the mutual edges hold an odd cycle. A 2-cycle never leaves a strong
    component, so the component's mask only seeds the bound's search.
    Each of the k classes is used: fewer would have succeeded at a lower k.
    """
    # descending degree, ties by id: the sort keeps the ascending order
    # of equal keys even when reversed
    order = sorted(bits_of(mask), key=degree.__getitem__, reverse=True)
    m = len(order)
    lower = max(2, len(_greedy_mutual_clique(mutual, mask)))
    if lower == 2 and _has_odd_mutual_cycle(mutual, mask):
        lower = 3
    for k in range(lower, m + 1):
        masks, spent = _assign_classes(rows, cols, order, k, budget, spent)
        if masks is not None:
            return k, masks, spent
    raise AssertionError("singleton classes are always feasible")


def _assign_classes(
    rows, cols, order: list[int], k: int, budget: int, spent: int
) -> tuple[list[int] | None, int]:
    """Backtracking k-class assignment keeping every class acyclic: the
    k classes' member masks, or None if k cannot do, and spent plus nodes.

    Classes open in index order (the first vertex placed in a fresh class
    is the earliest unassigned one), which breaks class symmetry, so depth
    i may try classes 0..limit[i] with limit[i] = min(classes used, k-1).
    An inner loop tries one depth's classes in turn, each try one node,
    with the vertex's in-row, out-row and limit held in locals; it places
    the vertex in the first class that stays acyclic, or backtracks to the
    class after the one the previous depth's vertex holds.

    Each class c keeps only its member mask M_c. Placing v in c closes a
    cycle iff some member v points to reaches, by a path inside the class,
    some member pointing to v. A bit-parallel forward search tests that:
    the front starts at out(v)∩M_c and steps through the members' out-rows
    to the members not reached yet until it meets in(v)∩M_c or runs dry;
    with in(v)∩M_c empty there is nothing to test. Backtracking clears
    v's bit from its class.
    """
    m = len(order)
    assign = [-1] * m
    limit = [0] * m
    masks = [0] * k
    # depth-indexed out-rows, in-rows and bits of the vertices, and each
    # vertex's out-row under its bit for the forward steps
    outs = [rows[v] for v in order]
    ins = [cols[v] for v in order]
    vbits = [1 << v for v in order]
    out_of = {1 << v: rows[v] for v in order}
    nodes = spent
    depth = 0
    c = 0
    while True:
        in_row = ins[depth]
        out_row = outs[depth]
        lim = limit[depth]
        while c <= lim:
            nodes += 1
            if nodes > budget:
                raise LimitExceeded(budget, "acyclic cover search")
            members = masks[c]
            into = in_row & members
            if not into:
                break
            seen = front = out_row & members
            while front and not front & into:
                step = 0
                while front:
                    low = front & -front
                    step |= out_of[low]
                    front ^= low
                front = step & members & ~seen
                seen |= front
            if not front:
                break
            c += 1
        else:
            depth -= 1
            if depth < 0:
                return None, nodes
            c = assign[depth]
            masks[c] ^= vbits[depth]
            c += 1
            continue
        assign[depth] = c
        masks[c] = members | vbits[depth]
        if depth == m - 1:
            return masks, nodes
        # a fresh class opens at the next depth unless all k are open
        depth += 1
        limit[depth] = lim + 1 if c == lim < k - 1 else lim
        c = 0


def _least_cover(d: Digraph, budget: int) -> tuple[int, list[int]]:
    """The least number of acyclic classes covering d and the member
    masks of such classes, unchecked. dichromatic_number checks them with
    check_cover's test; order_dimension leaves them to the lift's peel (a
    class that closes a cycle stalls it) and to ExtensionFamily, since a
    cover that missed a vertex yet lifts to a complete family of k members
    is still a realizer of size k.

    Strong components, as member masks, are solved separately (a cycle
    never leaves one) and the per-component optima are overlaid; singleton
    components carry no cycle and join the first class.
    """
    if d.n == 0:
        return 0, []
    rows = d.rows
    cols = transpose_rows(rows, d.n)
    # the bound and branching order read these for every component, so
    # they are built once per digraph, not once per component
    degree = list(
        map(add, map(int.bit_count, rows), map(int.bit_count, cols))
    )
    mutual = list(map(and_, rows, cols))
    spent = 0
    merged = [0]
    for comp in _strong_components(rows, cols):
        if not comp & (comp - 1):
            merged[0] |= comp
            continue
        _, masks, spent = _cover_scc(
            rows, cols, comp, degree, mutual, budget, spent
        )
        merged += [0] * (len(masks) - len(merged))
        for j, mask in enumerate(masks):
            merged[j] |= mask
    return len(merged), merged


def dichromatic_number(
    d: Digraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> DicrResult:
    """Least number of acyclic classes covering d, with a witness cover."""
    _check_budget(budget)
    k, masks = _least_cover(d, budget)
    _check_class_masks(d, masks)
    # the classes are ascending bit walks of disjoint masks, so already in
    # AcyclicCover's normal form; bits_of returns a tuple or a list, whose
    # length tuple() reads to size the result at once
    cover = trusted(AcyclicCover, tuple([tuple(bits_of(m)) for m in masks]))
    return DicrResult(k, cover)


def chromatic_number(
    g: Digraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact proper coloring of a symmetric digraph: (count, colors).

    Each vertex takes the index of its class in the least acyclic cover.
    """
    _check_budget(budget)
    if not g.is_symmetric():
        raise NotAGraph("chromatic number needs a symmetric edge relation")
    res = dichromatic_number(g, budget)
    colors = [0] * g.n
    for c, cls in enumerate(res.witness.classes):
        for v in cls:
            colors[v] = c
    return res.k, tuple(colors)


def order_dimension(
    q: QuasiOrder, budget: int = DEFAULT_SEARCH_BUDGET
) -> DimResult:
    """Least size of an extension family deciding every ordered pair.

    Covers the critical-pair subdigraph of the pair digraph with the
    fewest acyclic classes and lifts each class mask, read as its pairs,
    to a linear extension that reverses them. With no critical pair the
    cover is empty and lifts to the empty family, unless q is a chain of
    two or more classes: one empty class lifts to its linear extension.
    """
    _check_budget(budget)
    cp, pairs, frame = _critical_pair_frame(q)
    k, masks = _least_cover(cp, budget)
    if not k and len(frame[3]) > 1:  # frame[3] holds one leader a class
        k, masks = 1, [0]
    exts = _lift_masks(q, frame, pairs, masks)
    return DimResult(k, ExtensionFamily(q, exts))
