"""Checkers: each claim's verdict on a certificate, read from its
serialized instance and witness alone.

Nothing here imports `solvers` or `campaigns`, so no solver grades its
own answer; the dimension a certificate states is recomputed by
`realizer_oracle`, a scan over the linear extensions of the quotient.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .digraphs import (
    Digraph,
    HomWitness,
    is_acyclic,
    is_minimal_cycle,
    minimal_cycles,
    verify_homomorphism,
)
from .errors import IndexOutOfRange, InvalidCover, OrderdimError, TooLarge
from .generate import (
    antichain_order,
    bidirected_clique,
    boolean_order,
    chain_order,
    crown_order,
    directed_cycle,
)
from .reduction import (
    AcyclicCover,
    check_cover,
    extension_pairs,
    pair_digraph,
    two_level_order,
)
from .relations import (
    QuasiOrder,
    bits_of,
    close_rows,
    extends,
    quotient,
    transpose_rows,
)
from .selectors import (
    canonical_cycles,
    level_edge_count,
    prefix_monotone,
    selector_digraph,
)
from .serialize import (
    cover_from_payload,
    digraph_from_payload,
    family_from_payload,
    order_from_payload,
)


def realizer_oracle(q: QuasiOrder, max_d: int) -> int | None:
    """Least count of linear extensions of the quotient order whose
    intersection is that order.

    Independent of the solvers: lists every linear extension of the class
    order outright, each as a pair mask with bit a*m+b set when it puts
    class a before class b, and tests each d-subset by AND-ing masks. None
    when max_d is not enough. Guarded to ten classes; meant for landmarks
    and cross-checks, not production.
    """
    qt = quotient(q)
    m = qt.size
    if m > 10:
        raise TooLarge(f"{m} classes exceeds the oracle guard of 10")
    if m <= 1:
        return 0
    lt = 0
    for a, row in enumerate(qt.lt_rows):
        lt |= row << (a * m)
    linears = []
    _place(transpose_rows(qt.lt_rows, m), m, (1 << m) - 1, 0, linears)
    for dd in range(1, max_d + 1):
        for combo in itertools.combinations(linears, dd):
            if functools.reduce(operator.and_, combo) == lt:
                return dd
    return None


def _place(below, m: int, left: int, pairs: int, linears: list) -> None:
    """Append the pair mask of every linear extension that places the
    classes of left, each before every class still left, after pairs.
    Not a closure: a recursive closure is a reference cycle."""
    if not left:
        linears.append(pairs)
        return
    for x in bits_of(left):
        if not below[x] & left:
            rest = left & ~(1 << x)
            _place(below, m, rest, pairs | rest << (x * m), linears)


def _closure_rows(base: QuasiOrder, pairs) -> tuple[int, ...]:
    rows = list(base.rows)
    for a, b in pairs:
        rows[a] |= 1 << b
    return tuple(close_rows(rows, base.n))


def _cover_of(d: Digraph, doc, k: int) -> AcyclicCover:
    """The cover `doc` of d, checked acyclic, with exactly k classes."""
    cover = cover_from_payload(doc)
    check_cover(d, cover)
    if len(cover.classes) != k:
        raise InvalidCover(f"{len(cover.classes)} classes, claimed {k}")
    return cover


def _dimension_holds(base: QuasiOrder, doc, d: int) -> bool:
    """`doc` is a realizer of d extensions and no fewer realize base."""
    fam = family_from_payload(doc, base)
    return fam.size == d and realizer_oracle(base, max(d, 1)) == d


def _pulls_back(g: Digraph, mapping, cover: AcyclicCover) -> None:
    """Raise InvalidCover unless cover, pulled back along mapping (a vertex
    map from g), is an acyclic cover of g."""
    pulled = [
        tuple(x for x in range(g.n) if mapping[x] in ids)
        for ids in map(set, cover.classes)
    ]
    check_cover(g, AcyclicCover(tuple(pulled)))


def check_odim_eq_dicr(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    d = witness["d_via_dicr"]
    if witness["d_realizer"] != d or witness["k_pair_digraph"] != d:
        return False
    ap, _ = pair_digraph(base)
    _cover_of(ap, witness["cover"], d)
    return _dimension_holds(base, witness["family"], d)


def check_dim_agreement(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    d = witness["d_via_dicr"]
    if witness["d_realizer"] != d or witness["d_oracle"] != d:
        return False
    return _dimension_holds(base, witness["family"], d)


def check_dim_landmark(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    d = witness["d"]
    landmark = (base, witness["expected"])
    if DIM_LANDMARKS[witness["name"]] != landmark or witness["expected"] != d:
        return False
    return _dimension_holds(base, witness["family"], d)


def _brute_cover_infeasible(d: Digraph, k: int) -> bool:
    """No partition into k acyclic classes exists (complete scan)."""
    if k <= 0:
        return d.n > 0
    if d.n > 7:
        raise OrderdimError("brute infeasibility scan guarded to 7 vertices")
    for assign in itertools.product(range(k), repeat=d.n):
        ok = True
        for c in range(k):
            members = [v for v in range(d.n) if assign[v] == c]
            if is_acyclic(d, members) is not True:
                ok = False
                break
        if ok:
            return False
    return True


def check_dicr_landmark(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["digraph"])
    k = witness["k"]
    # names outside the table are the seeded DAGs, of dichromatic number 1
    fixture = DICR_LANDMARKS.get(witness["name"], (g, 1))
    if fixture != (g, witness["expected"]) or witness["expected"] != k:
        return False
    _cover_of(g, witness["cover"], k)
    return _brute_cover_infeasible(g, k - 1)


def check_graph_collapse(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["digraph"])
    if not g.is_symmetric():
        return False
    colors = witness["coloring"]
    if len(colors) != g.n:
        return False
    for u, v in g.edges():
        if colors[u] == colors[v]:
            return False
    if len(set(colors)) > witness["chromatic"]:
        return False
    _cover_of(g, witness["cover"], witness["dichromatic"])
    return witness["chromatic"] == witness["dichromatic"]


def check_h1plus(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    ap, a_pairs = pair_digraph(base)
    bp, b_pairs = pair_digraph(base, incomparable_only=True)
    index = {p: i for i, p in enumerate(a_pairs)}
    bp_ids = {index[p] for p in b_pairs}
    comparable = [v for v in range(ap.n) if v not in bp_ids]
    if is_acyclic(ap, comparable) is not True:
        return False
    bcover = _cover_of(bp, witness["b_cover"], witness["k_incomparable"])
    lifted = [tuple(comparable)] + [
        tuple(index[b_pairs[v]] for v in cls) for cls in bcover.classes
    ]
    check_cover(ap, AcyclicCover(tuple(lifted)))
    _cover_of(ap, witness["a_cover"], witness["k_pair_digraph"])
    return witness["k_pair_digraph"] <= 1 + witness["k_incomparable"]


def check_cyclefree_extends(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    offered = [tuple(p) for p in instance["pairs"]]
    for a, b in offered:
        if not (0 <= a < base.n and 0 <= b < base.n):
            raise IndexOutOfRange(f"pair ({a}, {b}) outside 0..{base.n - 1}")
    if witness["outcome"] == "extension":
        ext_pairs = [tuple(p) for p in witness["extension"]]
        ext = QuasiOrder(base.n, _closure_rows(base, offered))
        if sorted(ext.related_pairs()) != sorted(ext_pairs):
            return False
        return extends(base, ext)
    cyc = [tuple(p) for p in witness["cycle"]]
    if not cyc:
        return False
    offered_set = set(offered)
    for x, y in cyc:
        if (x, y) not in offered_set or base.leq(y, x):
            return False
    for (x0, y0), (x1, y1) in zip(cyc, cyc[1:] + cyc[:1]):
        if not base.leq(y0, x1):
            return False
    return True


def check_roundtrip(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    fam = family_from_payload(witness["family"], base)
    ap, pairs = pair_digraph(base)
    index = {p: i for i, p in enumerate(pairs)}
    cover = _cover_of(ap, witness["cover"], fam.size)
    back = _cover_of(ap, witness["back_cover"], fam.size)
    for cls, back_cls, ext in zip(cover.classes, back.classes, fam.exts):
        xs = extension_pairs(base, ext)
        ids = {index[p] for p in xs}
        if not set(cls) <= ids or back_cls != tuple(sorted(ids)):
            return False
        if _closure_rows(base, xs) != ext.rows:
            return False
        if _closure_rows(base, [pairs[v] for v in cls]) != ext.rows:
            return False
    return True


def check_g0_objects(instance: dict, witness: dict) -> bool:
    sigma = tuple(instance["sigma"])
    g, _ = selector_digraph(sigma)
    per_level = [level_edge_count(sigma, k) for k in range(len(sigma))]
    if witness["level_edges"] != per_level:
        return False
    if g.edge_count() != sum(per_level):
        return False
    cycles = canonical_cycles(sigma)
    if witness["canonical_cycles"] != len(cycles):
        return False
    lengths = sorted(c.length for c in cycles)
    want = sorted(
        sigma[k] - 1
        for k in range(len(sigma))
        for _ in range(per_level[k] // sigma[k])
    )
    if lengths != want:
        return False
    for c in cycles:
        if not is_minimal_cycle(g, c.verts):
            return False
    if all(v == 2 for v in sigma) and not g.is_symmetric():
        return False
    if all(v > 2 for v in sigma):
        for u, v in g.edges():
            if g.adj(v, u):
                return False
    return witness["monotone"] == prefix_monotone(sigma)


def check_two_level(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["digraph"])
    q, emb = two_level_order(g)
    ap, _ = pair_digraph(q)
    for x in range(g.n):
        for y in range(g.n):
            if x != y and g.adj(x, y) != ap.adj(emb[x], emb[y]):
                return False
    k_g, k_ap = witness["k_source"], witness["k_pair_digraph"]
    acover = _cover_of(ap, witness["pair_cover"], k_ap)
    _cover_of(g, witness["source_cover"], k_g)
    _pulls_back(g, emb, acover)
    return k_g <= k_ap


def check_hom_transfer(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["g"])
    h = digraph_from_payload(instance["h"])
    mapping = tuple(witness["map"])
    if not verify_homomorphism(g, h, HomWitness(mapping, False)):
        return False
    hcover = _cover_of(h, witness["h_cover"], witness["k_h"])
    _pulls_back(g, mapping, hcover)
    _cover_of(g, witness["g_cover"], witness["k_g"])
    return witness["k_g"] <= witness["k_h"]


def check_separators(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    fam = family_from_payload(witness["family"], base)
    return (
        fam.size == witness["bound"]
        and witness["bound"] >= witness["d"]
        and realizer_oracle(base, max(witness["bound"], 1)) == witness["d"]
    )


# check_wrap_pair tries every vertex map, a few microseconds each
MAX_WRAP_MAPS = 10**6


def check_wrap_pair(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["g"])
    h = digraph_from_payload(instance["h"])
    if h.n**g.n > MAX_WRAP_MAPS:
        raise TooLarge(
            f"{h.n}**{g.n} maps exceed the scan guard of {MAX_WRAP_MAPS}"
        )
    wrap = tuple(witness["map"])
    if not verify_homomorphism(g, h, HomWitness(wrap, False)):
        return False
    res = verify_homomorphism(g, h, HomWitness(wrap, True))
    if res.ok or res.pair != tuple(witness["violating_pair"]):
        return False
    if witness["minimal_exists"]:
        return False
    for cand in itertools.product(range(h.n), repeat=g.n):
        if verify_homomorphism(g, h, HomWitness(cand, True)).ok:
            return False
    return True


def check_minimal_chain(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["g"])
    h = digraph_from_payload(instance["h"])
    k = digraph_from_payload(instance["k"])
    w1 = HomWitness(tuple(witness["map_gh"]), True)
    w2 = HomWitness(tuple(witness["map_hk"]), True)
    if not verify_homomorphism(g, h, w1):
        return False
    if not verify_homomorphism(h, k, w2):
        return False
    comp = HomWitness(
        tuple(w2.mapping[v] for v in w1.mapping), True
    )
    if not verify_homomorphism(g, k, comp):
        return False
    for c in minimal_cycles(g):
        image = tuple(w1.mapping[v] for v in c.verts)
        if not is_minimal_cycle(h, image):
            return False
    return True


CHECKERS = {
    "odim_eq_dicr": check_odim_eq_dicr,
    "dim_agreement": check_dim_agreement,
    "dim_landmark": check_dim_landmark,
    "dicr_landmark": check_dicr_landmark,
    "graph_collapse": check_graph_collapse,
    "h1plus": check_h1plus,
    "cyclefree_extends": check_cyclefree_extends,
    "roundtrip": check_roundtrip,
    "g0_objects": check_g0_objects,
    "two_level_embedding": check_two_level,
    "hom_transfer": check_hom_transfer,
    "separators": check_separators,
    "wrap_pair": check_wrap_pair,
    "minimal_chain": check_minimal_chain,
}


# A checker says whether the witness proves the claim about the instance;
# what it raises on a witness it cannot read counts as a failed certificate.
_REJECTED = (OrderdimError, KeyError, TypeError, ValueError)


def _verdict(claim, instance, witness) -> bool:
    checker = CHECKERS.get(claim)
    if checker is None:
        raise OrderdimError(f"unknown claim {claim!r}")
    try:
        return checker(instance, witness)
    except _REJECTED:
        return False


def recheck_certificate(payload: dict) -> bool:
    """The checker's verdict on a stored certificate. False on a malformed
    instance or witness; raises OrderdimError only on an unknown claim."""
    return _verdict(
        payload.get("claim"), payload.get("instance"), payload.get("witness")
    )



# name -> (order, its dimension)
DIM_LANDMARKS = {
    "chain-4": (chain_order(4), 1),
    "antichain-2": (antichain_order(2), 2),
    "crown-2": (crown_order(2), 2),
    "crown-3": (crown_order(3), 3),
    "boolean-3": (boolean_order(3), 3),
}


# name -> (digraph, its dichromatic number); the campaign adds seeded DAGs
DICR_LANDMARKS = {f"cycle-{s}": (directed_cycle(s), 2) for s in range(2, 8)}
DICR_LANDMARKS.update(
    (f"biclique-{s}", (bidirected_clique(s), s)) for s in range(2, 6)
)
