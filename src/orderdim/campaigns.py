"""Verification campaigns emitting one certificate per checked instance.

A certificate records claim, instance, witness, and a verified flag. The
flag is always recomputed by the matching checker from the serialized
instance and witness alone, so `recheck` on a stored certificate line
reproduces it; solvers never get to grade their own answers.
"""

from __future__ import annotations

import itertools

from .digraphs import (
    Digraph,
    HomWitness,
    digraph,
    find_homomorphism,
    is_acyclic,
    is_minimal_cycle,
    minimal_cycles,
    verify_homomorphism,
)
from .errors import CycleInX, IndexOutOfRange, InvalidCover, OrderdimError
from .generate import (
    antichain_order,
    bidirected_clique,
    boolean_order,
    chain_order,
    crown_order,
    directed_cycle,
    enumerate_posets,
    random_digraph,
    random_order,
    random_quasi,
    random_symmetric,
)
from .reduction import (
    AcyclicCover,
    Incomplete,
    check_cover,
    closure_path,
    cover_to_extensions,
    extend_by_pairs,
    extension_pairs,
    extensions_to_cover,
    family_from_separators,
    pair_digraph,
    prefix_separators,
    two_level_order,
)
from .records import Record, set_slot
from .relations import QuasiOrder, bits_of, close_rows, extends
from .rng import SplitMix64
from .selectors import (
    DenseSelector,
    canonical_cycles,
    level_edge_count,
    prefix_monotone,
    selector_digraph,
)
from .serialize import (
    cover_from_payload,
    cover_payload,
    digraph_from_payload,
    digraph_payload,
    family_from_payload,
    family_payload,
    order_from_payload,
    order_payload,
)
from .solvers import (
    DEFAULT_SEARCH_BUDGET,
    chromatic_number,
    dichromatic_number,
    order_dimension,
    realizer_oracle,
)


class Certificate(Record):
    __slots__ = _fields = (
        "claim", "index", "instance", "witness", "verified", "seed", "config"
    )

    def __init__(
        self,
        claim: str,
        index: int,
        instance: dict,
        witness: dict,
        verified: bool,
        seed: int | None = None,
        config: dict | None = None,
    ):
        set_slot(self, "claim", claim)
        set_slot(self, "index", index)
        set_slot(self, "instance", instance)
        set_slot(self, "witness", witness)
        set_slot(self, "verified", verified)
        set_slot(self, "seed", seed)
        set_slot(self, "config", {} if config is None else config)

    def to_payload(self) -> dict:
        return {
            "claim": self.claim,
            "index": self.index,
            "instance": self.instance,
            "witness": self.witness,
            "verified": self.verified,
            "seed": self.seed,
            "config": self.config,
        }


# ---------------------------------------------------------------- checkers


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
    ap, apm = pair_digraph(base)
    bp, bpm = pair_digraph(base, incomparable_only=True)
    bp_ids = {apm.index(p) for p in bpm.pairs}
    comparable = [v for v in range(ap.n) if v not in bp_ids]
    if is_acyclic(ap, comparable) is not True:
        return False
    bcover = _cover_of(bp, witness["b_cover"], witness["k_incomparable"])
    lifted = [tuple(comparable)] + [
        tuple(apm.index(bpm.pairs[v]) for v in cls)
        for cls in bcover.classes
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
        rows = _closure_rows(base, offered)
        ext = QuasiOrder(base.n, rows)
        if sorted(ext.related_pairs()) != sorted(ext_pairs):
            return False
        if not extends(base, ext):
            return False
        checked = 0
        for p in range(base.n):
            for r in bits_of(rows[p]):
                if base.leq(p, r) or checked >= 5:
                    continue
                path = closure_path(base, offered, p, r)
                if not _path_postconditions(base, offered, p, r, path):
                    return False
                checked += 1
        return True
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


def _path_postconditions(base, offered, p, r, path) -> bool:
    if not path:
        return False
    offered_set = {tuple(q) for q in offered}
    if any(tuple(q) not in offered_set for q in path):
        return False
    if not base.leq(p, path[0][0]) or not base.leq(path[-1][1], r):
        return False
    return all(
        base.leq(y0, x1) for (_, y0), (x1, _) in zip(path, path[1:])
    )


def check_roundtrip(instance: dict, witness: dict) -> bool:
    base = order_from_payload(instance["order"])
    fam = family_from_payload(witness["family"], base)
    ap, apm = pair_digraph(base)
    cover = _cover_of(ap, witness["cover"], fam.size)
    back = _cover_of(ap, witness["back_cover"], fam.size)
    for cls, back_cls, ext in zip(cover.classes, back.classes, fam.exts):
        xs = extension_pairs(base, ext)
        ids = {apm.index(p) for p in xs}
        if not set(cls) <= ids or back_cls != tuple(sorted(ids)):
            return False
        if _closure_rows(base, xs) != ext.rows:
            return False
        if _closure_rows(base, [apm.pairs[v] for v in cls]) != ext.rows:
            return False
    return True


def check_g0_objects(instance: dict, witness: dict) -> bool:
    sigma = tuple(instance["sigma"])
    sel = DenseSelector()
    kd = selector_digraph(sel, sigma)
    per_level = [level_edge_count(sigma, k) for k in range(len(sigma))]
    if witness["level_edges"] != per_level:
        return False
    if kd.graph.edge_count() != sum(per_level):
        return False
    cycles = canonical_cycles(sel, sigma)
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
        if not is_minimal_cycle(kd.graph, c.verts):
            return False
    if all(v == 2 for v in sigma) and not kd.graph.is_symmetric():
        return False
    if all(v > 2 for v in sigma):
        for u, v in kd.graph.edges():
            if kd.graph.adj(v, u):
                return False
    return witness["monotone"] == prefix_monotone(sel, sigma)


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


def check_wrap_pair(instance: dict, witness: dict) -> bool:
    g = digraph_from_payload(instance["g"])
    h = digraph_from_payload(instance["h"])
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


def _cert(claim, index, instance, witness, seed, config) -> Certificate:
    return Certificate(
        claim,
        index,
        instance,
        witness,
        _verdict(claim, instance, witness),
        seed,
        config,
    )


# --------------------------------------------------------------- campaigns
# A runner gets the size bound n, seed and budget resolved by `run_campaign`.


def _posets(n):
    """Every labelled poset on at most n points, numbered from 0."""
    return enumerate(
        base for size in range(n + 1) for base in enumerate_posets(size)
    )


def run_odim_eq_dicr(n, seed, budget):
    config = {"n": n, "exhaustive": True}
    for idx, base in _posets(n):
        via = order_dimension(base, budget)
        oracle = realizer_oracle(base, max(via.d, 1))
        ap, _ = pair_digraph(base)
        res = dichromatic_number(ap, budget)
        witness = {
            "d_via_dicr": via.d,
            "d_realizer": oracle if oracle is not None else -1,
            "k_pair_digraph": res.k,
            "family": family_payload(via.witness),
            "cover": cover_payload(res.witness),
        }
        yield _cert(
            "odim_eq_dicr",
            idx,
            {"order": order_payload(base)},
            witness,
            None,
            config,
        )


def run_dim_agreement(n, seed, budget):
    config = {"n": n, "count": 30}
    rng = SplitMix64(seed)
    for idx in range(30):
        size = 1 + rng.below(n)
        p = 0.15 + 0.1 * rng.below(6)
        base = random_quasi(size, p, rng.next_u64())
        via = order_dimension(base, budget)
        oracle = realizer_oracle(base, max(via.d, 1))
        d_oracle = oracle if oracle is not None else -1
        witness = {
            "d_via_dicr": via.d,
            "d_realizer": d_oracle,
            "d_oracle": d_oracle,
            "family": family_payload(via.witness),
        }
        yield _cert(
            "dim_agreement",
            idx,
            {"order": order_payload(base)},
            witness,
            seed,
            config,
        )


# name -> (order, its dimension)
DIM_LANDMARKS = {
    "chain-4": (chain_order(4), 1),
    "antichain-2": (antichain_order(2), 2),
    "crown-2": (crown_order(2), 2),
    "crown-3": (crown_order(3), 3),
    "boolean-3": (boolean_order(3), 3),
}


def run_dim_landmarks(n, seed, budget):
    for idx, (name, (base, expected)) in enumerate(DIM_LANDMARKS.items()):
        res = order_dimension(base, budget)
        witness = {
            "name": name,
            "expected": expected,
            "d": res.d,
            "family": family_payload(res.witness),
        }
        yield _cert(
            "dim_landmark",
            idx,
            {"order": order_payload(base)},
            witness,
            None,
            {},
        )


# name -> (digraph, its dichromatic number); the campaign adds seeded DAGs
DICR_LANDMARKS = {f"cycle-{s}": (directed_cycle(s), 2) for s in range(2, 8)}
DICR_LANDMARKS.update(
    (f"biclique-{s}", (bidirected_clique(s), s)) for s in range(2, 6)
)


def run_dicr_landmarks(n, seed, budget):
    fixtures = [(name, g, k) for name, (g, k) in DICR_LANDMARKS.items()]
    rng = SplitMix64(seed)
    for i in range(5):
        size = 3 + rng.below(5)
        dag_edges = [
            (a, b)
            for a in range(size)
            for b in range(a + 1, size)
            if rng.chance(0.4)
        ]
        fixtures.append((f"dag-{i}", digraph(size, dag_edges), 1))
    for idx, (name, g, expected) in enumerate(fixtures):
        res = dichromatic_number(g, budget)
        witness = {
            "name": name,
            "expected": expected,
            "k": res.k,
            "cover": cover_payload(res.witness),
        }
        yield _cert(
            "dicr_landmark",
            idx,
            {"digraph": digraph_payload(g)},
            witness,
            seed,
            {},
        )


def run_graph_collapse(n, seed, budget):
    config = {"n": n, "count": 100}
    rng = SplitMix64(seed)
    for idx in range(100):
        size = 1 + rng.below(n)
        p = 0.1 + 0.08 * rng.below(8)
        g = random_symmetric(size, p, rng.next_u64())
        k_chrom, colors = chromatic_number(g, budget)
        res = dichromatic_number(g, budget)
        witness = {
            "chromatic": k_chrom,
            "coloring": list(colors),
            "dichromatic": res.k,
            "cover": cover_payload(res.witness),
        }
        yield _cert(
            "graph_collapse",
            idx,
            {"digraph": digraph_payload(g)},
            witness,
            seed,
            config,
        )


def run_h1plus(n, seed, budget):
    config = {"n": n, "exhaustive": True}
    for idx, base in _posets(n):
        ap, _ = pair_digraph(base)
        bp, _ = pair_digraph(base, incomparable_only=True)
        res_a = dichromatic_number(ap, budget)
        res_b = dichromatic_number(bp, budget)
        witness = {
            "k_pair_digraph": res_a.k,
            "k_incomparable": res_b.k,
            "a_cover": cover_payload(res_a.witness),
            "b_cover": cover_payload(res_b.witness),
        }
        yield _cert(
            "h1plus",
            idx,
            {"order": order_payload(base)},
            witness,
            None,
            config,
        )


def _acyclic_subset(ap, ids):
    ids = sorted(set(ids))
    while True:
        w = is_acyclic(ap, ids)
        if w is True:
            return ids
        ids = [v for v in ids if v != w.verts[0]]


def run_cyclefree_extends(n, seed, budget):
    config = {"n": n, "count": 500}
    rng = SplitMix64(seed)
    for idx in range(500):
        size = 2 + rng.below(max(n - 1, 1))
        p = 0.1 + 0.08 * rng.below(6)
        base = (
            random_quasi(size, p, rng.next_u64())
            if idx % 3 == 0
            else random_order(size, p, rng.next_u64())
        )
        ap, apm = pair_digraph(base)
        if ap.n == 0:
            ids = []
        else:
            ids = [v for v in range(ap.n) if rng.chance(0.4)]
        if idx % 2 == 1:
            ids = _acyclic_subset(ap, ids)
        offered = [list(apm.pairs[v]) for v in ids]
        instance = {
            "order": order_payload(base),
            "pairs": offered,
            "prefiltered": idx % 2 == 1,
        }
        try:
            ext = extend_by_pairs(base, [tuple(p) for p in offered])
            witness = {
                "outcome": "extension",
                "extension": [list(p) for p in ext.related_pairs()],
            }
        except CycleInX as exc:
            witness = {
                "outcome": "cycle",
                "cycle": [list(p) for p in exc.pairs],
            }
        yield _cert("cyclefree_extends", idx, instance, witness, seed, config)


def run_roundtrip(n, seed, budget):
    config = {"n": n, "exhaustive": True}
    for idx, base in _posets(n):
        ap, _ = pair_digraph(base)
        cover = dichromatic_number(ap, budget).witness
        fam = cover_to_extensions(base, cover)
        back = extensions_to_cover(fam)
        witness = {
            "family": family_payload(fam),
            "cover": cover_payload(cover),
            "back_cover": cover_payload(back),
        }
        yield _cert(
            "roundtrip",
            idx,
            {"order": order_payload(base)},
            witness,
            None,
            config,
        )


def run_g0_objects(n, seed, budget):
    max_len = min(n, 3)
    config = {"max_len": max_len, "max_branch": 4}
    sel = DenseSelector()
    sigmas = [
        sigma
        for length in range(max_len + 1)
        for sigma in itertools.product(range(2, 5), repeat=length)
    ]
    for idx, sigma in enumerate(sigmas):
        witness = {
            "level_edges": [
                level_edge_count(sigma, k) for k in range(len(sigma))
            ],
            "canonical_cycles": len(canonical_cycles(sel, sigma)),
            "monotone": prefix_monotone(sel, sigma),
        }
        yield _cert(
            "g0_objects",
            idx,
            {"sigma": list(sigma)},
            witness,
            None,
            config,
        )


def run_xinapg(n, seed, budget):
    config = {"n": n, "count": 100}
    rng = SplitMix64(seed)
    for idx in range(100):
        size = 1 + rng.below(n)
        p = 0.1 + 0.06 * rng.below(6)
        g = random_digraph(size, p, rng.next_u64())
        q, _ = two_level_order(g)
        ap, _ = pair_digraph(q)
        res_g = dichromatic_number(g, budget)
        res_ap = dichromatic_number(ap, budget)
        witness = {
            "k_source": res_g.k,
            "k_pair_digraph": res_ap.k,
            "source_cover": cover_payload(res_g.witness),
            "pair_cover": cover_payload(res_ap.witness),
        }
        yield _cert(
            "two_level_embedding",
            idx,
            {"digraph": digraph_payload(g)},
            witness,
            seed,
            config,
        )


def run_hom_transfer(n, seed, budget):
    config = {"n": n, "count": 30}
    rng = SplitMix64(seed)
    made = 0
    idx = 0
    while made < 30:
        idx += 1
        size_h = 2 + rng.below(max(n - 1, 1))
        p = 0.2 + 0.08 * rng.below(5)
        h = random_digraph(size_h, p, rng.next_u64())
        if idx % 2 == 0:
            keep = [v for v in range(size_h) if rng.chance(0.7)] or [0]
            g = _induced(h, keep)
        else:
            g = random_digraph(max(2, size_h - rng.below(2)), p, rng.next_u64())
        w = find_homomorphism(g, h, minimal=False, budget=budget)
        if w is None:
            continue
        res_g = dichromatic_number(g, budget)
        res_h = dichromatic_number(h, budget)
        witness = {
            "map": list(w.mapping),
            "k_g": res_g.k,
            "k_h": res_h.k,
            "g_cover": cover_payload(res_g.witness),
            "h_cover": cover_payload(res_h.witness),
        }
        yield _cert(
            "hom_transfer",
            made,
            {"g": digraph_payload(g), "h": digraph_payload(h)},
            witness,
            seed,
            config,
        )
        made += 1


def _induced(d: Digraph, keep) -> Digraph:
    keep = sorted(set(keep))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [
        (pos[v], pos[w]) for v in keep for w in bits_of(d.rows[v]) if w in pos
    ]
    return digraph(len(keep), edges)


def run_separators(n, seed, budget):
    config = {"n": n, "exhaustive": True}
    for idx, base in _posets(n):
        fam = family_from_separators(base, prefix_separators(base.n))
        if isinstance(fam, Incomplete):
            # no family to check: the checker rejects this witness
            witness = {"incomplete_pair": list(fam.pair)}
        else:
            witness = {
                "family": family_payload(fam),
                "bound": fam.size,
                "d": order_dimension(base, budget).d,
            }
        yield _cert(
            "separators",
            idx,
            {"order": order_payload(base)},
            witness,
            None,
            config,
        )


def run_minimal_hom(n, seed, budget):
    g = directed_cycle(6)
    h = directed_cycle(3)
    wrap = find_homomorphism(g, h, minimal=False, budget=budget)
    strict = find_homomorphism(g, h, minimal=True, budget=budget)
    reject = verify_homomorphism(g, h, HomWitness(wrap.mapping, True))
    witness = {
        "map": list(wrap.mapping),
        "minimal_exists": strict is not None,
        "violating_pair": list(reject.pair) if reject.pair else None,
    }
    yield _cert(
        "wrap_pair",
        0,
        {"g": digraph_payload(g), "h": digraph_payload(h)},
        witness,
        None,
        {},
    )
    rng = SplitMix64(seed)
    made = 0
    while made < 50:
        size = 3 + rng.below(3)
        p = 0.25 + 0.08 * rng.below(5)
        big = random_digraph(size + 2, p, rng.next_u64())
        mid_keep = [v for v in range(big.n) if rng.chance(0.8)] or [0]
        mid = _induced(big, mid_keep)
        small_keep = [v for v in range(mid.n) if rng.chance(0.8)] or [0]
        small = _induced(mid, small_keep)
        w1 = find_homomorphism(small, mid, minimal=True, budget=budget)
        w2 = find_homomorphism(mid, big, minimal=True, budget=budget)
        if w1 is None or w2 is None:
            continue
        witness = {"map_gh": list(w1.mapping), "map_hk": list(w2.mapping)}
        yield _cert(
            "minimal_chain",
            made + 1,
            {
                "g": digraph_payload(small),
                "h": digraph_payload(mid),
                "k": digraph_payload(big),
            },
            witness,
            seed,
            {"count": 50},
        )
        made += 1


# name -> (runner, default size bound n or None where the campaign has
# none, least n: 1 where the runner draws instance sizes from 1..n)
CAMPAIGNS = {
    "odim-eq-dicr": (run_odim_eq_dicr, 4, 0),
    "dim-agreement": (run_dim_agreement, 6, 1),
    "dim-landmarks": (run_dim_landmarks, None, 0),
    "dicr-landmarks": (run_dicr_landmarks, None, 0),
    "graph-collapse": (run_graph_collapse, 8, 1),
    "h1plus": (run_h1plus, 4, 0),
    "cyclefree-extends": (run_cyclefree_extends, 7, 0),
    "roundtrip": (run_roundtrip, 4, 0),
    "g0": (run_g0_objects, 3, 0),
    "xinapg": (run_xinapg, 6, 1),
    "hom-transfer": (run_hom_transfer, 6, 0),
    "separators": (run_separators, 4, 0),
    "minimal-hom": (run_minimal_hom, None, 0),
}


def run_campaign(name, n=None, seed=0, budget=None):
    """The campaign's certificates, streamed lazily. The name and n are
    checked here, before the first certificate is made."""
    try:
        runner, default_n, least_n = CAMPAIGNS[name]
    except KeyError:
        raise OrderdimError(
            f"unknown campaign {name!r}; choose from "
            + ", ".join(sorted(CAMPAIGNS))
        ) from None
    if n is None:
        n = default_n
    elif n < least_n:
        raise OrderdimError(f"campaign {name} needs n >= {least_n}, got {n}")
    return runner(
        n, seed, DEFAULT_SEARCH_BUDGET if budget is None else budget
    )
