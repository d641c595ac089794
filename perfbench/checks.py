"""Independent checks of orderdim outputs, read as plain JSON.

Nothing here imports orderdim: every relation, pair digraph, cover and
family is rebuilt from the raw pair and edge lists with this module's own
code. A check either confirms a claim (returns True), cannot confirm it
(returns False, which the benchmark counts as a failed operation), or
proves it wrong (raises Refuted, which makes the run incorrect).

Relations use one int per row: bit j of rows[i] means i is related to j.
"""

from __future__ import annotations

from collections import deque

BRUTE_GUARD = 8


class Refuted(Exception):
    """An output contradicts what the check computed on its own."""


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows: list[int], n: int) -> list[int]:
    cols = [0] * n
    for i, row in enumerate(rows):
        for j in bits(row):
            cols[j] |= 1 << i
    return cols


def _pairs(raw, n: int, what: str) -> list[tuple[int, int]]:
    out = []
    for item in raw:
        if len(item) != 2 or not all(0 <= v < n for v in item):
            raise Refuted(f"{what} entry {item!r} is not a pair in 0..{n - 1}")
        out.append((item[0], item[1]))
    return out


# ----------------------------------------------------------------- orders


def _is_transitive(rows: list[int]) -> bool:
    return all(rows[j] & ~row == 0 for row in rows for j in bits(row))


def order_rows(doc: dict) -> tuple[int, list[int]]:
    """Reflexive relation rows of an order payload; closed if it says so."""
    n = doc["n"]
    rows = [1 << i for i in range(n)]
    for i, j in _pairs(doc["pairs"], n, "order"):
        rows[i] |= 1 << j
    if doc.get("closure"):
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
    elif not _is_transitive(rows):
        raise Refuted("order payload is not transitive")
    return n, rows


def quotient(n: int, rows: list[int]) -> tuple[int, list[int]]:
    """Mutual classes and the strict order between them."""
    cols = transpose(rows, n)
    cls = [-1] * n
    reps: list[int] = []
    for i in range(n):
        if cls[i] < 0:
            for j in bits(rows[i] & cols[i]):
                cls[j] = len(reps)
            reps.append(i)
    m = len(reps)
    lt = [0] * m
    for a, x in enumerate(reps):
        for b, y in enumerate(reps):
            if a != b and rows[x] >> y & 1:
                lt[a] |= 1 << b
    return m, lt


def _is_chain(m: int, lt: list[int]) -> bool:
    full = (1 << m) - 1
    cols = transpose(lt, m)
    return all((lt[a] | cols[a] | 1 << a) == full for a in range(m))


def two_colourable(m: int, lt: list[int]) -> bool:
    """The dim <= 2 test: 2-colour critical pairs joined by alternating 2-cycles.

    (a, b) is critical when a and b are incomparable, everything below a
    is below b and everything above b is above a. Two critical pairs form
    an alternating 2-cycle when a1 <= b2 and a2 <= b1; no single linear
    extension can reverse both.
    """
    le = [lt[a] | 1 << a for a in range(m)]
    down = transpose(lt, m)
    crit = [
        (a, b)
        for a in range(m)
        for b in range(m)
        if not le[a] >> b & 1
        and not le[b] >> a & 1
        and down[a] & ~down[b] == 0
        and lt[b] & ~lt[a] == 0
    ]
    colour = [-1] * len(crit)
    for start in range(len(crit)):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            a1, b1 = crit[u]
            for v, (a2, b2) in enumerate(crit):
                if le[a1] >> b2 & 1 and le[a2] >> b1 & 1:
                    if colour[v] < 0:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


def dimension_bounds(n: int, rows: list[int]) -> tuple[int, bool]:
    """(value, exact): exact for dimension at most 2, else the lower bound 3."""
    m, lt = quotient(n, rows)
    if m <= 1:
        return 0, True
    if _is_chain(m, lt):
        return 1, True
    if two_colourable(m, lt):
        return 2, True
    return 3, False


def check_family(n: int, base: list[int], extensions) -> None:
    """Each member is reflexive, transitive, contains the base and merges no
    classes; together they reverse every pair the base leaves open."""
    full = (1 << n) - 1
    bcols = transpose(base, n)
    reversed_by = [0] * n
    for raw in extensions:
        ext = [1 << i for i in range(n)]
        for i, j in _pairs(raw, n, "extension"):
            ext[i] |= 1 << j
        if not _is_transitive(ext):
            raise Refuted("family member is not transitive")
        ecols = transpose(ext, n)
        for i in range(n):
            if base[i] & ~ext[i]:
                raise Refuted("family member drops a base relation")
            if ext[i] & ecols[i] != base[i] & bcols[i]:
                raise Refuted("family member merges classes")
            reversed_by[i] |= ecols[i]
    for x in range(n):
        if full & ~base[x] & ~reversed_by[x]:
            raise Refuted(f"family leaves a pair at {x} undecided")


def confirm_dimension(order: dict, d: int, extensions, known=None) -> bool:
    """Check a claimed dimension d with its family of d extensions."""
    n, rows = order_rows(order)
    check_family(n, rows, extensions)
    if len(extensions) != d:
        raise Refuted(f"family has {len(extensions)} members, claim is {d}")
    value, exact = dimension_bounds(n, rows)
    if known is not None:
        if known < value or exact and known != value:
            raise ValueError(f"theory value {known} contradicts the dim <= 2 test")
        value, exact = known, True
    if d < value or exact and d != value:
        raise Refuted(f"claimed dimension {d}, proven {value}")
    # A family of d members bounds from above, so d = value closes the gap.
    return d == value


# --------------------------------------------------------------- digraphs


def digraph_rows(doc: dict) -> tuple[int, list[int]]:
    n = doc["n"]
    rows = [0] * n
    for i, j in _pairs(doc["edges"], n, "edge"):
        if i == j:
            raise Refuted(f"self-loop at {i}")
        rows[i] |= 1 << j
    return n, rows


def acyclic(rows: list[int], verts) -> bool:
    """Kahn peel of the subdigraph induced on verts."""
    mask = 0
    for v in verts:
        mask |= 1 << v
    indeg = {v: 0 for v in bits(mask)}
    for v in indeg:
        for w in bits(rows[v] & mask):
            indeg[w] += 1
    ready = [v for v, k in indeg.items() if k == 0]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for w in bits(rows[v] & mask):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return peeled == len(indeg)


def check_cover(n: int, rows: list[int], classes) -> None:
    seen = 0
    for cls in classes:
        if not all(isinstance(v, int) and 0 <= v < n for v in cls):
            raise Refuted(f"cover class {cls} leaves 0..{n - 1}")
        if not acyclic(rows, cls):
            raise Refuted(f"cover class {cls} holds a cycle")
        for v in cls:
            seen |= 1 << v
    if seen != (1 << n) - 1:
        raise Refuted("cover misses a vertex")


def no_cover_with(n: int, rows: list[int], k: int) -> bool:
    """True when no partition into k acyclic classes exists (full scan)."""
    if k <= 0:
        return n > 0
    if n > BRUTE_GUARD:
        raise ValueError(f"brute scan guarded to {BRUTE_GUARD} vertices")
    members = [0] * k

    def place(v: int, opened: int) -> bool:
        if v == n:
            return True
        for c in range(min(opened + 1, k)):
            members[c] |= 1 << v
            if acyclic(rows, bits(members[c])) and place(v + 1, max(opened, c + 1)):
                return True
            members[c] &= ~(1 << v)
        return False

    return not place(0, 0)


def confirm_dichromatic(n, rows, k, classes, lower=0, known=None) -> bool:
    """Check a claimed dichromatic number k with its cover of k classes."""
    check_cover(n, rows, classes)
    if len(classes) != k and not (n == 0 and k == 0 and not classes):
        raise Refuted(f"cover has {len(classes)} classes, claim is {k}")
    lb = lower
    if n:
        lb = max(lb, 1)
        if not acyclic(rows, range(n)):
            lb = max(lb, 2)
        if k - 1 >= 2 and n <= BRUTE_GUARD and no_cover_with(n, rows, k - 1):
            lb = max(lb, k)
    if known is not None:
        if k != known or lb > known:
            raise Refuted(f"claimed {k}, theory says {known}")
        return True
    if k < lb:
        raise Refuted(f"claimed {k}, proven at least {lb}")
    return k == lb


def pair_digraph(n: int, rows: list[int], incomparable_only=False):
    """Pairs (x, y) with y not below x, lexicographic; (x0,y0) -> (x1,y1)
    when y0 is below or equal to x1."""
    pairs = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if not rows[y] >> x & 1 and not (incomparable_only and rows[x] >> y & 1)
    ]
    first = [0] * n
    for v, (x, _) in enumerate(pairs):
        first[x] |= 1 << v
    out = []
    for v, (_, y) in enumerate(pairs):
        row = 0
        for x1 in bits(rows[y]):
            row |= first[x1]
        out.append(row & ~(1 << v))
    return pairs, out


def first_fit_cover(n: int, rows: list[int]) -> list[list[int]]:
    """A deterministic acyclic cover: each vertex joins the first class it
    keeps acyclic."""
    classes: list[list[int]] = []
    for v in range(n):
        for cls in classes:
            if acyclic(rows, cls + [v]):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def two_level(n: int, rows: list[int]) -> tuple[int, list[int]]:
    """Bottom copy x below top copy n+y exactly along the edges (x, y)."""
    out = [0] * (2 * n)
    for x in range(n):
        out[x] = 1 << x | rows[x] << n
        out[n + x] = 1 << (n + x)
    return 2 * n, out


def is_homomorphism(g: dict, h: dict, mapping) -> bool:
    gn, grows = digraph_rows(g)
    hn, hrows = digraph_rows(h)
    if len(mapping) != gn or not all(0 <= v < hn for v in mapping):
        return False
    return all(
        hrows[mapping[u]] >> mapping[v] & 1
        for u in range(gn)
        for v in bits(grows[u])
    )


# ---------------------------------------------------- command-line outputs


def check_dim_output(order: dict, out: dict, known=None) -> bool:
    return confirm_dimension(order, out["d"], out["family"]["extensions"], known)


def check_dicr_output(graph: dict, out: dict, known=None) -> bool:
    n, rows = digraph_rows(graph)
    return confirm_dichromatic(n, rows, out["k"], out["cover"]["classes"], known=known)


def check_reduce_ap(order: dict, out: dict) -> bool:
    n, rows = order_rows(order)
    pairs, ap = pair_digraph(n, rows)
    if [tuple(p) for p in out["pairs"]] != pairs:
        raise Refuted("pair digraph vertices differ from the definition")
    dn, drows = digraph_rows(out["digraph"])
    if dn != len(pairs) or drows != ap:
        raise Refuted("pair digraph edges differ from the definition")
    return True


def check_cover_to_ext(order: dict, cover: list[list[int]], out: dict) -> bool:
    n, rows = order_rows(order)
    exts = out["extensions"]
    check_family(n, rows, exts)
    if len(exts) != len(cover):
        raise Refuted(f"{len(cover)} classes gave {len(exts)} extensions")
    pairs, _ = pair_digraph(n, rows)
    for cls, raw in zip(cover, exts):
        have = {tuple(p) for p in raw}
        if any(pairs[v] not in have for v in cls):
            raise Refuted("an extension misses a pair of its class")
    return True


# ----------------------------------------------------------- certificates

DIM_THEORY = {"chain": lambda k: 1 if k > 1 else 0,
              "antichain": lambda k: 2 if k > 1 else 0,
              "crown": lambda k: k, "boolean": lambda k: k}
DICR_THEORY = {"cycle": lambda k: 2, "biclique": lambda k: k, "dag": lambda k: 1}


def _theory(table, name: str):
    kind, _, size = name.rpartition("-")
    return table[kind](int(size)) if kind in table else None


def _order_parts(order: dict):
    n, rows = order_rows(order)
    pairs, ap = pair_digraph(n, rows)
    return n, rows, len(pairs), ap


def _cert_odim_eq_dicr(inst, wit):
    d = wit["d_via_dicr"]
    if wit["d_realizer"] != d or wit["k_pair_digraph"] != d:
        raise Refuted("the three routes disagree")
    n, rows, v, ap = _order_parts(inst["order"])
    lower = dimension_bounds(n, rows)[0]
    return confirm_dimension(
        inst["order"], d, wit["family"]["extensions"]
    ) and confirm_dichromatic(v, ap, d, wit["cover"]["classes"], lower)


def _cert_dim_agreement(inst, wit):
    d = wit["d_via_dicr"]
    if wit["d_realizer"] != d or wit["d_oracle"] != d:
        raise Refuted("the dimension routes disagree")
    return confirm_dimension(inst["order"], d, wit["family"]["extensions"])


def _cert_dim_landmark(inst, wit):
    known = _theory(DIM_THEORY, wit["name"])
    if known is None or wit["expected"] != known:
        return False
    return confirm_dimension(inst["order"], wit["d"], wit["family"]["extensions"], known)


def _cert_dicr_landmark(inst, wit):
    known = _theory(DICR_THEORY, wit["name"])
    if known is None or wit["expected"] != known:
        return False
    return check_dicr_output(inst["digraph"], wit, known)


def _cert_graph_collapse(inst, wit):
    n, rows = digraph_rows(inst["digraph"])
    if rows != transpose(rows, n):
        raise Refuted("graph-collapse instance is not symmetric")
    colours = wit["coloring"]
    if len(colours) != n or any(colours[u] == colours[v] for u in range(n) for v in bits(rows[u])):
        raise Refuted("colouring is not proper")
    k = wit["dichromatic"]
    if wit["chromatic"] != k or len(set(colours)) > k:
        raise Refuted("chromatic and dichromatic numbers differ")
    return confirm_dichromatic(n, rows, k, wit["cover"]["classes"])


def _cert_h1plus(inst, wit):
    n, rows, v, ap = _order_parts(inst["order"])
    bpairs, bp = pair_digraph(n, rows, incomparable_only=True)
    lower = dimension_bounds(n, rows)[0]
    k_a, k_b = wit["k_pair_digraph"], wit["k_incomparable"]
    if k_a > 1 + k_b:
        raise Refuted("k_pair_digraph exceeds k_incomparable + 1")
    return confirm_dichromatic(
        v, ap, k_a, wit["a_cover"]["classes"], lower
    ) and confirm_dichromatic(len(bpairs), bp, k_b, wit["b_cover"]["classes"])


def _cert_cyclefree_extends(inst, wit):
    n, base = order_rows(inst["order"])
    offered = _pairs(inst["pairs"], n, "offered")
    rows = list(base)
    for a, b in offered:
        rows[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    bcols, cols = transpose(base, n), transpose(rows, n)
    merges = any(rows[i] & cols[i] != base[i] & bcols[i] for i in range(n))
    if wit["outcome"] == "extension":
        if merges:
            raise Refuted("an extension was claimed where the closure merges classes")
        got = sorted(tuple(p) for p in wit["extension"])
        want = [(i, j) for i in range(n) for j in bits(rows[i]) if i != j]
        if got != want:
            raise Refuted("claimed extension is not the closure")
        return True
    cycle = _pairs(wit["cycle"], n, "cycle")
    if not merges or not cycle:
        raise Refuted("a cycle was claimed where the closure is an extension")
    if not set(cycle) <= set(offered):
        raise Refuted("cycle uses a pair that was not offered")
    for (x0, y0), (x1, _) in zip(cycle, cycle[1:] + cycle[:1]):
        if base[y0] >> x0 & 1 or not base[y0] >> x1 & 1:
            raise Refuted("cycle steps are not base relations")
    return True


def _cert_roundtrip(inst, wit):
    n, rows, v, ap = _order_parts(inst["order"])
    exts = wit["family"]["extensions"]
    check_family(n, rows, exts)
    cover, back = wit["cover"]["classes"], wit["back_cover"]["classes"]
    check_cover(v, ap, cover)
    check_cover(v, ap, back)
    if not len(cover) == len(back) == len(exts):
        raise Refuted("round trip changed the number of classes")
    return True


def _cert_two_level(inst, wit):
    n, rows = digraph_rows(inst["digraph"])
    qn, q = two_level(n, rows)
    pairs, ap = pair_digraph(qn, q)
    index = {p: i for i, p in enumerate(pairs)}
    emb = [index[(n + x, x)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and (rows[x] >> y & 1) != (ap[emb[x]] >> emb[y] & 1):
                raise Refuted("two-level embedding does not preserve edges")
    k_g = wit["k_source"]
    ok = confirm_dichromatic(n, rows, k_g, wit["source_cover"]["classes"])
    lower = max(k_g, dimension_bounds(qn, q)[0])
    return ok and confirm_dichromatic(
        len(pairs), ap, wit["k_pair_digraph"], wit["pair_cover"]["classes"], lower
    )


def _cert_hom_transfer(inst, wit):
    if not is_homomorphism(inst["g"], inst["h"], wit["map"]):
        raise Refuted("map is not a homomorphism")
    if wit["k_g"] > wit["k_h"]:
        raise Refuted("k_g exceeds k_h")
    gn, grows = digraph_rows(inst["g"])
    hn, hrows = digraph_rows(inst["h"])
    return confirm_dichromatic(
        gn, grows, wit["k_g"], wit["g_cover"]["classes"]
    ) and confirm_dichromatic(hn, hrows, wit["k_h"], wit["h_cover"]["classes"])


def _cert_separators(inst, wit):
    n, rows = order_rows(inst["order"])
    exts = wit["family"]["extensions"]
    check_family(n, rows, exts)
    d, bound = wit["d"], wit["bound"]
    if bound != len(exts) or bound < d:
        raise Refuted("separator bound does not match its family")
    value, exact = dimension_bounds(n, rows)
    if exact and d != value or d < value:
        raise Refuted(f"claimed dimension {d}, proven {value}")
    return exact


def _cert_wrap_pair(inst, wit):
    if not is_homomorphism(inst["g"], inst["h"], wit["map"]):
        raise Refuted("wrap map is not a homomorphism")
    return wit["violating_pair"] is not None and not wit["minimal_exists"]


def _cert_minimal_chain(inst, wit):
    gh, hk = wit["map_gh"], wit["map_hk"]
    if not (
        is_homomorphism(inst["g"], inst["h"], gh)
        and is_homomorphism(inst["h"], inst["k"], hk)
        and is_homomorphism(inst["g"], inst["k"], [hk[v] for v in gh])
    ):
        raise Refuted("a map in the chain is not a homomorphism")
    return True


def _cert_g0(inst, wit):
    # No independent oracle for branching-tree counts; the program's own
    # recheck and verified flag are all that back these.
    return True


CERT_CHECKS = {
    "odim_eq_dicr": _cert_odim_eq_dicr,
    "dim_agreement": _cert_dim_agreement,
    "dim_landmark": _cert_dim_landmark,
    "dicr_landmark": _cert_dicr_landmark,
    "graph_collapse": _cert_graph_collapse,
    "h1plus": _cert_h1plus,
    "cyclefree_extends": _cert_cyclefree_extends,
    "roundtrip": _cert_roundtrip,
    "g0_objects": _cert_g0,
    "two_level_embedding": _cert_two_level,
    "hom_transfer": _cert_hom_transfer,
    "separators": _cert_separators,
    "wrap_pair": _cert_wrap_pair,
    "minimal_chain": _cert_minimal_chain,
}

# Certificate counts that follow from theory: labelled posets on at most
# four points number 1 + 1 + 3 + 19 + 219 (OEIS A001035).
THEORY_COUNTS = {"odim-eq-dicr": 243}


def check_certificate(payload: dict, rechecked: bool) -> bool:
    if payload.get("verified") is not True or not rechecked:
        raise Refuted(f"certificate {payload.get('index')} fails its own check")
    check = CERT_CHECKS.get(payload["claim"])
    return check is not None and check(payload["instance"], payload["witness"])
