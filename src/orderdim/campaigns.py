"""Verification campaigns emitting one certificate per checked instance.

A certificate records claim, instance, witness, and a verified flag. The
flag is always recomputed by the matching checker in `check.py` from the
serialized instance and witness alone, so `recheck` on a stored
certificate line reproduces it; solvers never get to grade their own
answers. Each runner builds its claim, seed and config into one stamp,
which numbers the certificates 0, 1, ... in the order they are made.

`run_campaign` checks the name and n at the call. A campaign refuses
(TooLarge) a size above its generator's guard when it comes to it,
before making the instance: n above the enumeration guard for those
that enumerate every poset on up to n points, and an instance size above
`generate.MAX_GEN_N` for the random ones.
"""

from __future__ import annotations

import itertools

from .check import (  # recheck_certificate is re-exported
    DICR_LANDMARKS,
    DIM_LANDMARKS,
    _verdict,
    realizer_oracle,
    recheck_certificate,
)
from .digraphs import (
    Digraph,
    HomWitness,
    digraph,
    find_homomorphism,
    is_acyclic,
    verify_homomorphism,
)
from .errors import CycleInX, IncompleteFamily, OrderdimError
from .generate import (
    directed_cycle,
    enumerate_posets,
    guard_enumeration,
    random_digraph,
    random_order,
    random_quasi,
    random_symmetric,
)
from .reduction import (
    AcyclicCover,
    cover_to_extensions,
    extend_by_pairs,
    extensions_to_cover,
    family_from_separators,
    pair_digraph,
    prefix_separators,
    two_level_order,
)
from .records import Record, set_slot
from .relations import bits_of
from .rng import SplitMix64
from .selectors import canonical_cycles, level_edge_count, prefix_monotone
from .serialize import (
    _off_diagonal_pairs,
    cover_payload,
    digraph_payload,
    family_payload,
    order_payload,
)
from .solvers import (
    DEFAULT_SEARCH_BUDGET,
    chromatic_number,
    dichromatic_number,
    order_dimension,
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
        return dict(zip(self._fields, self._key(self)))


def _stamp(claim, seed, config, first=0):
    """The certificate maker of one campaign run: cert(instance, witness)
    numbers from `first` in the order made, and the claim's checker
    grades each certificate."""
    index = itertools.count(first)

    def cert(instance, witness) -> Certificate:
        verdict = _verdict(claim, instance, witness)
        return Certificate(
            claim, next(index), instance, witness, verdict, seed, config
        )

    return cert


# --------------------------------------------------------------- campaigns
# A runner gets the size bound n, seed and budget resolved by `run_campaign`.


def _posets(n):
    """Every labelled poset on at most n points; n past the enumeration
    guard is refused before any poset is made."""
    guard_enumeration(n)
    for size in range(n + 1):
        yield from enumerate_posets(size)


def run_odim_eq_dicr(n, seed, budget):
    cert = _stamp("odim_eq_dicr", None, {"n": n, "exhaustive": True})
    for base in _posets(n):
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
        yield cert({"order": order_payload(base)}, witness)


def run_dim_agreement(n, seed, budget):
    cert = _stamp("dim_agreement", seed, {"n": n, "count": 30})
    rng = SplitMix64(seed)
    for _ in range(30):
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
        yield cert({"order": order_payload(base)}, witness)


def run_dim_landmarks(n, seed, budget):
    cert = _stamp("dim_landmark", None, {})
    for name, (base, expected) in DIM_LANDMARKS.items():
        res = order_dimension(base, budget)
        witness = {
            "name": name,
            "expected": expected,
            "d": res.d,
            "family": family_payload(res.witness),
        }
        yield cert({"order": order_payload(base)}, witness)


def run_dicr_landmarks(n, seed, budget):
    cert = _stamp("dicr_landmark", seed, {})
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
    for name, g, expected in fixtures:
        res = dichromatic_number(g, budget)
        witness = {
            "name": name,
            "expected": expected,
            "k": res.k,
            "cover": cover_payload(res.witness),
        }
        yield cert({"digraph": digraph_payload(g)}, witness)


def run_graph_collapse(n, seed, budget):
    cert = _stamp("graph_collapse", seed, {"n": n, "count": 100})
    rng = SplitMix64(seed)
    for _ in range(100):
        size = 1 + rng.below(n)
        p = 0.1 + 0.08 * rng.below(8)
        g = random_symmetric(size, p, rng.next_u64())
        # the colouring is the least acyclic cover, one class per colour
        k, colors = chromatic_number(g, budget)
        classes = [[] for _ in range(k)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        witness = {
            "chromatic": k,
            "coloring": list(colors),
            "dichromatic": k,
            "cover": cover_payload(AcyclicCover(classes)),
        }
        yield cert({"digraph": digraph_payload(g)}, witness)


def run_h1plus(n, seed, budget):
    cert = _stamp("h1plus", None, {"n": n, "exhaustive": True})
    for base in _posets(n):
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
        yield cert({"order": order_payload(base)}, witness)


def _acyclic_subset(ap, ids):
    ids = sorted(set(ids))
    while True:
        w = is_acyclic(ap, ids)
        if w is True:
            return ids
        ids = [v for v in ids if v != w.verts[0]]


def run_cyclefree_extends(n, seed, budget):
    cert = _stamp("cyclefree_extends", seed, {"n": n, "count": 500})
    rng = SplitMix64(seed)
    for idx in range(500):
        size = 2 + rng.below(max(n - 1, 1))
        p = 0.1 + 0.08 * rng.below(6)
        base = (
            random_quasi(size, p, rng.next_u64())
            if idx % 3 == 0
            else random_order(size, p, rng.next_u64())
        )
        ap, pairs = pair_digraph(base)
        ids = [v for v in range(ap.n) if rng.chance(0.4)]
        if idx % 2 == 1:
            ids = _acyclic_subset(ap, ids)
        offered = [list(pairs[v]) for v in ids]
        instance = {
            "order": order_payload(base),
            "pairs": offered,
            "prefiltered": idx % 2 == 1,
        }
        try:
            ext = extend_by_pairs(base, [tuple(p) for p in offered])
            witness = {
                "outcome": "extension",
                "extension": _off_diagonal_pairs(ext.rows),
            }
        except CycleInX as exc:
            witness = {
                "outcome": "cycle",
                "cycle": [list(p) for p in exc.pairs],
            }
        yield cert(instance, witness)


def run_roundtrip(n, seed, budget):
    cert = _stamp("roundtrip", None, {"n": n, "exhaustive": True})
    for base in _posets(n):
        ap, _ = pair_digraph(base)
        cover = dichromatic_number(ap, budget).witness
        fam = cover_to_extensions(base, cover)
        back = extensions_to_cover(fam)
        witness = {
            "family": family_payload(fam),
            "cover": cover_payload(cover),
            "back_cover": cover_payload(back),
        }
        yield cert({"order": order_payload(base)}, witness)


def run_g0_objects(n, seed, budget):
    max_len = min(n, 3)
    cert = _stamp("g0_objects", None, {"max_len": max_len, "max_branch": 4})
    for length in range(max_len + 1):
        for sigma in itertools.product(range(2, 5), repeat=length):
            witness = {
                "level_edges": [
                    level_edge_count(sigma, k) for k in range(length)
                ],
                "canonical_cycles": len(canonical_cycles(sigma)),
                "monotone": prefix_monotone(sigma),
            }
            yield cert({"sigma": list(sigma)}, witness)


def run_xinapg(n, seed, budget):
    cert = _stamp("two_level_embedding", seed, {"n": n, "count": 100})
    rng = SplitMix64(seed)
    for _ in range(100):
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
        yield cert({"digraph": digraph_payload(g)}, witness)


def run_hom_transfer(n, seed, budget):
    cert = _stamp("hom_transfer", seed, {"n": n, "count": 30})
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
        instance = {"g": digraph_payload(g), "h": digraph_payload(h)}
        yield cert(instance, witness)
        made += 1


def _induced(d: Digraph, keep) -> Digraph:
    keep = sorted(set(keep))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [
        (pos[v], pos[w]) for v in keep for w in bits_of(d.rows[v]) if w in pos
    ]
    return digraph(len(keep), edges)


def run_separators(n, seed, budget):
    cert = _stamp("separators", None, {"n": n, "exhaustive": True})
    for base in _posets(n):
        try:
            fam = family_from_separators(base, prefix_separators(base.n))
        except IncompleteFamily as err:
            # no family to check: the checker rejects this witness
            witness = {"incomplete_pair": list(err.pair)}
        else:
            witness = {
                "family": family_payload(fam),
                "bound": fam.size,
                "d": order_dimension(base, budget).d,
            }
        yield cert({"order": order_payload(base)}, witness)


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
    yield _stamp("wrap_pair", None, {})(
        {"g": digraph_payload(g), "h": digraph_payload(h)}, witness
    )
    chain = _stamp("minimal_chain", seed, {"count": 50}, first=1)
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
        instance = {
            "g": digraph_payload(small),
            "h": digraph_payload(mid),
            "k": digraph_payload(big),
        }
        witness = {"map_gh": list(w1.mapping), "map_hk": list(w2.mapping)}
        yield chain(instance, witness)
        made += 1


# name -> (runner, default size bound n or None where the campaign takes
# no n, least n: 1 where the runner draws instance sizes from 1..n)
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
    checked here, at the call; the size guards of the module docstring
    fire as the certificates are asked for."""
    try:
        runner, default_n, least_n = CAMPAIGNS[name]
    except KeyError:
        raise OrderdimError(
            f"unknown campaign {name!r}; choose from "
            + ", ".join(sorted(CAMPAIGNS))
        ) from None
    if n is None:
        n = default_n
    elif default_n is None:
        raise OrderdimError(f"campaign {name} takes no n")
    elif n < least_n:
        raise OrderdimError(f"campaign {name} needs n >= {least_n}, got {n}")
    return runner(
        n, seed, DEFAULT_SEARCH_BUDGET if budget is None else budget
    )
