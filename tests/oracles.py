"""Brute-force reference implementations used only by the tests.

Everything here recomputes answers from first principles with plain
itertools scans, subset tables and matrix closures, deliberately sharing
no search code with the library.
"""

from __future__ import annotations

import itertools

from orderdim import (
    Cycle,
    Digraph,
    IndexOutOfRange,
    NotQuasiOrder,
    NotStrictOrder,
    QuasiOrder,
    QuotientPoset,
    SizeMismatch,
    TooLarge,
    extend_by_pairs,
    linear_extension,
)


def members(mask: int) -> list[int]:
    """Set bit positions of mask, ascending, read off its binary digits."""
    return [j for j, digit in enumerate(reversed(format(mask, "b"))) if digit == "1"]


def columns(rows, n: int) -> list[int]:
    """Column masks of the n×n bit matrix with these rows: the rows are
    written out as binary digits, lowest first, and read back by column."""
    digits = [format(row, f"0{n}b")[::-1] for row in rows]
    return [int("".join(col)[::-1], 2) for col in zip(*digits)]


def subset_is_acyclic(d: Digraph, members: tuple[int, ...]) -> bool:
    """Kahn-style peel of the induced subgraph, no shared code."""
    members = list(members)
    alive = set(members)
    changed = True
    while changed and alive:
        changed = False
        for v in list(alive):
            if not any(d.adj(u, v) for u in alive if u != v):
                alive.discard(v)
                changed = True
    return not alive


def colour_dfs_is_acyclic(d: Digraph, subset=None):
    """The colour-dict depth-first search the bitmask is_acyclic replaced.

    Same contract: True, or the Cycle closed by the first grey vertex met,
    with starts and neighbours taken in ascending order.
    """
    if subset is None:
        verts = list(range(d.n))
        mask = (1 << d.n) - 1
    else:
        verts = sorted(set(subset))
        for v in verts:
            if not (0 <= v < d.n):
                raise IndexOutOfRange(f"vertex {v} outside 0..{d.n - 1}")
        mask = sum(1 << v for v in verts)
    color: dict[int, int] = {}
    for start in verts:
        if start in color:
            continue
        color[start] = 1
        path = [start]
        stack = [iter(members(d.rows[start] & mask))]
        while stack:
            advanced = False
            for w in stack[-1]:
                cw = color.get(w)
                if cw == 1:
                    return Cycle(tuple(path[path.index(w):]))
                if cw is None:
                    color[w] = 1
                    path.append(w)
                    stack.append(iter(members(d.rows[w] & mask)))
                    advanced = True
                    break
            if not advanced:
                color[path.pop()] = 2
                stack.pop()
    return True


def brute_dicr(d: Digraph) -> int:
    """Fewest acyclic sets covering the vertices, by dynamic programming.

    best[S] is the least number of acyclic sets partitioning S; the set
    holding the least vertex of S is tried over every acyclic subset of S,
    each tested by the peeling oracle above.
    """
    n = d.n
    full = (1 << n) - 1
    acyclic = [
        subset_is_acyclic(d, tuple(v for v in range(n) if mask >> v & 1))
        for mask in range(full + 1)
    ]
    best = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        options = []
        while sub:
            if sub & low and acyclic[sub]:
                options.append(best[mask ^ sub])
            sub = (sub - 1) & mask
        best[mask] = 1 + min(options)
    return best[full]


def brute_chrom(d: Digraph) -> int:
    if d.n == 0:
        return 0
    edges = d.edges()
    for k in range(1, d.n + 1):
        for assign in itertools.product(range(k), repeat=d.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("n colors always suffice")


def brute_scc(d: Digraph) -> set[tuple[int, ...]]:
    """Strong components as classes of mutual reachability.

    Reachability is the reflexive transitive closure, computed by
    Warshall's triple loop over a boolean matrix.
    """
    n = d.n
    reach = [[u == v or d.adj(u, v) for v in range(n)] for u in range(n)]
    for w in range(n):
        for u in range(n):
            if reach[u][w]:
                for v in range(n):
                    if reach[w][v]:
                        reach[u][v] = True
    return {
        tuple(v for v in range(n) if reach[u][v] and reach[v][u])
        for u in range(n)
    }


def tuple_strong_components(rows, cols) -> tuple[tuple[int, ...], ...]:
    """The Kosaraju that digraphs._strong_components ran when it returned
    sorted member tuples: forward DFS from the lowest unvisited root to
    the lowest unvisited out-neighbour, then a stack-driven backward
    sweep in reverse finish order, one vertex of the stack at a time."""
    n = len(rows)
    unvisited = (1 << n) - 1
    finish: list[int] = []
    while unvisited:
        s = (unvisited & -unvisited).bit_length() - 1
        unvisited ^= 1 << s
        path = [s]
        while path:
            nxt = rows[path[-1]] & unvisited
            if nxt:
                low = nxt & -nxt
                unvisited ^= low
                path.append(low.bit_length() - 1)
            else:
                finish.append(path.pop())
    left = (1 << n) - 1
    comps: list[tuple[int, ...]] = []
    for v in reversed(finish):
        bit = 1 << v
        if not left & bit:
            continue
        left ^= bit
        found = bit
        todo = [v]
        while todo:
            new = cols[todo.pop()] & left
            if new:
                left ^= new
                found |= new
                todo.extend(members(new))
        comps.append(tuple(members(found)))
    return tuple(comps)


def brute_minimal_cycle_sets(d: Digraph) -> set[tuple[int, ...]]:
    """Vertex sets of induced directed cycles, canonically rotated."""
    out = set()
    for size in range(2, d.n + 1):
        for sub in itertools.combinations(range(d.n), size):
            inner = [
                (u, v) for u in sub for v in sub if u != v and d.adj(u, v)
            ]
            if size == 2:
                if len(inner) == 2:
                    out.add(sub)
                continue
            if len(inner) != size:
                continue
            succ = {}
            ok = True
            for u, v in inner:
                if u in succ:
                    ok = False
                    break
                succ[u] = v
            if not ok or set(succ) != set(sub):
                continue
            walk = [min(sub)]
            while len(walk) < size:
                nxt = succ[walk[-1]]
                if nxt in walk:
                    break
                walk.append(nxt)
            if len(walk) == size and succ[walk[-1]] == walk[0]:
                out.add(tuple(walk))
    return out


def _classes(q: QuasiOrder) -> list[list[int]]:
    seen: list[list[int]] = []
    for x in range(q.n):
        for grp in seen:
            if q.leq(x, grp[0]) and q.leq(grp[0], x):
                grp.append(x)
                break
        else:
            seen.append([x])
    return seen


def critical_pairs(q: QuasiOrder) -> list[tuple[int, int]]:
    """Critical pairs (a, b) of the quotient, on least class members.

    a and b are incomparable, everything strictly below a is below b and
    everything strictly above b is above a. Straight from the definition.
    """
    reps = [grp[0] for grp in _classes(q)]

    def lt(x, y):
        return q.leq(x, y) and not q.leq(y, x)

    return [
        (a, b)
        for a in reps
        for b in reps
        if a != b
        and not q.leq(a, b)
        and not q.leq(b, a)
        and all(lt(c, b) for c in reps if lt(c, a))
        and all(lt(a, c) for c in reps if lt(b, c))
    ]


def loop_quotient(q: QuasiOrder) -> QuotientPoset:
    """The element-by-element quotient the bitmask version replaced."""
    class_of = [-1] * q.n
    classes: list[tuple[int, ...]] = []
    for i in range(q.n):
        if class_of[i] >= 0:
            continue
        members = [j for j in range(q.n) if q.leq(i, j) and q.leq(j, i)]
        ci = len(classes)
        for j in members:
            class_of[j] = ci
        classes.append(tuple(members))
    m = len(classes)
    lt_rows = [0] * m
    for a in range(m):
        ra = classes[a][0]
        for b in range(m):
            if a == b:
                continue
            rb = classes[b][0]
            if q.leq(ra, rb) and not q.leq(rb, ra):
                lt_rows[a] |= 1 << b
    return QuotientPoset(tuple(classes), tuple(class_of), tuple(lt_rows))


def loop_linear_extension(q: QuasiOrder) -> QuasiOrder:
    """The set-scan linear extension the bitmask version replaced."""
    qt = loop_quotient(q)
    m = qt.size
    placed = 0
    rank = [-1] * m
    remaining = set(range(m))
    while remaining:
        ready = [
            c
            for c in remaining
            if all(not qt.lt(d, c) for d in remaining if d != c)
        ]
        pick = min(ready, key=lambda c: qt.classes[c][0])
        rank[pick] = placed
        placed += 1
        remaining.remove(pick)
    rows = [0] * q.n
    for x in range(q.n):
        for y in range(q.n):
            if rank[qt.class_of[x]] <= rank[qt.class_of[y]]:
                rows[x] |= 1 << y
    return QuasiOrder(q.n, tuple(rows))


def loop_undecided_pair(base: QuasiOrder, exts) -> tuple[int, int] | None:
    """The pair-by-pair scan the bitmask undecided_pair replaced."""
    for x in range(base.n):
        for y in range(base.n):
            if base.leq(x, y):
                continue
            if not any(e.leq(y, x) for e in exts):
                return (x, y)
    return None


def loop_lift(base: QuasiOrder, pairs) -> QuasiOrder:
    """The closure-then-peel lift that lift_pairs replaced."""
    return linear_extension(extend_by_pairs(base, pairs))


def member_peel(q: QuasiOrder, pair_rows) -> QuasiOrder | None:
    """The per-member Kahn peel the leader peel replaced: bit b of
    pair_rows[a] puts a below every member of b's class, and the lowest
    ready element is taken with its whole class, each member's row the
    mask of the elements left. None when the peel stalls."""
    cols = columns(q.rows, q.n)
    same = [r & c for r, c in zip(q.rows, cols)]
    below = [c & ~r for r, c in zip(q.rows, cols)]
    for a, row in enumerate(pair_rows):
        for b in members(row):
            for x in members(same[b]):
                below[x] |= 1 << a
    rows = [0] * q.n
    pending = list(range(q.n))
    remaining = (1 << q.n) - 1
    while pending:
        for x in pending:
            if not below[x] & remaining:
                break
        else:
            return None
        for y in members(same[x]):
            rows[y] = remaining
            pending.remove(y)
        remaining ^= same[x]
    return QuasiOrder(q.n, tuple(rows))


def loop_extends(base: QuasiOrder, ext: QuasiOrder) -> bool:
    """The two-transpose extends that the class count replaced."""
    if base.n != ext.n:
        raise SizeMismatch(f"ground sets differ: {base.n} vs {ext.n}")
    for rb, re in zip(base.rows, ext.rows):
        if rb & ~re:
            return False
    bcols = columns(base.rows, base.n)
    ecols = columns(ext.rows, ext.n)
    for i in range(base.n):
        if (base.rows[i] & bcols[i]) != (ext.rows[i] & ecols[i]):
            return False
    return True


def dict_mutual_rows(rows, cols, verts) -> dict[int, int]:
    """The per-component dict of mutual (2-cycle) neighbours inside verts
    that the solver's clique and odd-cycle bounds read before they took
    one per-digraph list and the component's mask."""
    comp_mask = sum(1 << v for v in verts)
    return {v: rows[v] & cols[v] & comp_mask for v in verts}


def dict_greedy_mutual_clique(mut: dict[int, int]) -> list[int]:
    """The greedy mutual clique on a dict_mutual_rows dict: the candidate
    with the most mutual neighbours among the candidates left, ties to
    the least id."""
    clique: list[int] = []
    cand = sum(1 << v for v in mut)
    while cand:
        v = -1
        best = -1
        for u in members(cand):
            count = (mut[u] & cand).bit_count()
            if count > best:
                v, best = u, count
        clique.append(v)
        cand &= mut[v]
    return clique


def dict_has_odd_mutual_cycle(mut: dict[int, int]) -> bool:
    """The breadth-first odd-cycle test on a dict_mutual_rows dict: the
    mutual edges are bipartite iff none joins two vertices of a layer."""
    left = sum(1 << v for v in mut)
    while left:
        layer = left & -left
        left ^= layer
        while layer:
            nxt = 0
            for v in members(layer):
                if mut[v] & layer:
                    return True
                nxt |= mut[v]
            layer = nxt & left
            left ^= layer
    return False


def dfs_cycle_in(rows, mask: int) -> Cycle | None:
    """The depth-first search that digraphs._cycle_in ran on every mask
    before it peeled sinks: starts and neighbours ascending, the first
    grey vertex met closes the returned cycle, and two vertices hold one
    only when both edges join them."""
    rest = mask & (mask - 1)
    if not rest & (rest - 1):
        if not rest:
            return None
        a = (mask ^ rest).bit_length() - 1
        b = rest.bit_length() - 1
        if rows[a] & rest and rows[b] >> a & 1:
            return Cycle((a, b))
        return None
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


def pair_edge_rows(q: QuasiOrder, pairs) -> list[int]:
    """Out-rows of the pair digraph on pairs, straight from the
    definition: (x0, y0) -> (x1, y1) iff y0 is below-or-equal x1."""
    return [
        sum(1 << v for v, (x1, _) in enumerate(pairs) if q.leq(y0, x1))
        for _, y0 in pairs
    ]


def relation_is_reflexive(rows: tuple[int, ...]) -> bool:
    return all(rows[i] >> i & 1 for i in range(len(rows)))


def relation_is_transitive(rows: tuple[int, ...]) -> bool:
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                if rows[i] | rows[j] != rows[i]:
                    return False
    return True


def walk_quasi_order(n: int, rows: tuple[int, ...]) -> None:
    """The pair-by-pair check QuasiOrder made before its sorted-row kernel.

    Raises what QuasiOrder raises on well-shaped rows: reflexivity is
    checked first, then every related pair in row order.
    """
    for i, row in enumerate(rows):
        if not (row >> i) & 1:
            raise NotQuasiOrder((i, i, i), f"not reflexive at {i}")
    for i, row in enumerate(rows):
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            missing = rows[j] & ~row
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise NotQuasiOrder((i, j, k))
            r &= r - 1


def walk_strict_order(n: int, rows: tuple[int, ...]) -> None:
    """The pair-by-pair check StrictOrder made before its sorted-row kernel."""
    for i, row in enumerate(rows):
        if (row >> i) & 1:
            raise NotStrictOrder(f"not irreflexive at {i}")
    for i, row in enumerate(rows):
        for j in members(row):
            if rows[j] & ~row:
                raise NotStrictOrder(f"not transitive through ({i}, {j})")


def brute_force_poset_count(n: int) -> int:
    """Labeled poset census by scanning every irreflexive relation.

    Vectorized filter over all 2^(n(n-1)) candidate strict relations,
    keeping the antisymmetric transitive ones. Independent of
    enumerate_posets by construction; guarded to n <= 5. numpy is
    imported past the guards, so the other oracles load without it.
    """
    if n < 0:
        raise IndexOutOfRange(f"negative ground set size {n}")
    if n > 5:
        raise TooLarge(f"brute census guarded to n <= 5, got {n}")
    if n == 0:
        return 1
    import numpy as np

    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(off)
    total = 0
    chunk = 1 << 18
    for start in range(0, 1 << m, chunk):
        count = min(chunk, (1 << m) - start)
        ids = np.arange(start, start + count, dtype=np.int64)
        mats = np.zeros((count, n, n), dtype=bool)
        for b, (i, j) in enumerate(off):
            mats[:, i, j] = (ids >> b) & 1
        anti = ~(mats & mats.transpose(0, 2, 1)).any(axis=(1, 2))
        prod = (
            np.matmul(mats.astype(np.uint8), mats.astype(np.uint8)) > 0
        )
        trans = ~(prod & ~mats).any(axis=(1, 2))
        total += int((anti & trans).sum())
    return total
