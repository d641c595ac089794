"""Workload inputs, made from the seed with orderdim's own generators.

Inputs leave here as plain JSON payloads (what a user would hand the CLI)
plus, for in-process workloads, the parsed program objects. Independent
checks read only the payloads.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field

from orderdim.generate import (
    boolean_order,
    crown_order,
    random_digraph,
    random_order,
)
from orderdim.serialize import digraph_payload, order_from_payload, order_payload

import checks

# Node budget of the wall slice. It is also the admission line of the
# random draws: a draw whose unrelabelled solve needs more nodes than this
# is listed in WALL_MOVED and attempted only under this budget.
WALL_BUDGET = 10_000

DRAW_GRID = [
    (n, p, s) for n in (14, 16, 18, 20) for p in (0.2, 0.3, 0.45) for s in range(8)
]
WALL_MOVED = [
    (14, 0.3, 6),
    (16, 0.2, 0),
    (16, 0.2, 4),
    (16, 0.3, 0),
    (16, 0.3, 2),
    (16, 0.3, 4),
    (16, 0.3, 6),
    (18, 0.2, 4),
    (18, 0.2, 7),
    (18, 0.3, 2),
    (18, 0.3, 4),
    (18, 0.3, 6),
    (18, 0.45, 7),
    (20, 0.2, 1),
    (20, 0.2, 3),
    (20, 0.2, 5),
    (20, 0.2, 6),
    (20, 0.2, 7),
    (20, 0.3, 1),
    (20, 0.3, 2),
    (20, 0.3, 4),
    (20, 0.45, 0),
    (20, 0.45, 2),
]
WALL_NAMED = [(12, 0.4, 15), (24, 0.2, 0), (24, 0.2, 1), (24, 0.2, 2)]
STANDARD = [("crown", k) for k in range(3, 7)] + [("boolean", 4)]

# Fixed names, so that renaming or dropping a campaign shows as a failure.
CAMPAIGN_NAMES = [
    "odim-eq-dicr",
    "dim-agreement",
    "dim-landmarks",
    "dicr-landmarks",
    "graph-collapse",
    "h1plus",
    "cyclefree-extends",
    "roundtrip",
    "g0",
    "xinapg",
    "hom-transfer",
    "separators",
    "minimal-hom",
]


@dataclass
class DimCase:
    label: str
    payload: dict
    known: int | None = None
    budget: int | None = None  # None: the program's default
    order: object = field(default=None, repr=False)


def _relabel(doc: dict, rng: random.Random) -> dict:
    perm = list(range(doc["n"]))
    rng.shuffle(perm)
    pairs = sorted([perm[i], perm[j]] for i, j in doc["pairs"])
    return {**doc, "pairs": pairs}


def dim_corpus(seed: int, smoke: bool = False, span=None) -> list[DimCase]:
    """Admitted draws and standard examples, relabelled by the seed, then
    the wall slice, which does not depend on the seed."""
    span = span or (lambda name: nullcontext())
    moved = set(WALL_MOVED)
    admitted = [d for d in DRAW_GRID if d not in moved]
    standard = STANDARD
    wall = WALL_NAMED + WALL_MOVED
    if smoke:
        admitted, standard, wall = admitted[:3], standard[:1], [(24, 0.2, 0)]
    cases = []
    for n, p, s in admitted:
        with span("generate.corpus"):
            q = random_order(n, p, s)
        rng = random.Random(f"{seed}/poset-{n}-{p}-{s}")
        cases.append(DimCase(f"poset-{n}-{p}-{s}", _relabel(order_payload(q), rng)))
    for kind, k in standard:
        with span("generate.corpus"):
            q = crown_order(k) if kind == "crown" else boolean_order(k)
        rng = random.Random(f"{seed}/{kind}-{k}")
        cases.append(DimCase(f"{kind}-{k}", _relabel(order_payload(q), rng), known=k))
    for n, p, s in wall:
        with span("generate.corpus"):
            q = random_order(n, p, s)
        cases.append(
            DimCase(f"wall-{n}-{p}-{s}", order_payload(q), budget=WALL_BUDGET)
        )
    for case in cases:
        case.order = order_from_payload(case.payload)
    return cases


@dataclass
class CliRequest:
    label: str
    argv: list[str]
    files: dict[str, dict]
    cover: list | None = None
    known: int | None = None


def cli_requests(seed: int, smoke: bool = False) -> list[CliRequest]:
    """One round of cold CLI calls on small inputs drawn from the seed."""
    rng = random.Random(f"{seed}/cli")
    reqs = []
    for k in (2, 3, 4):
        reqs.append(
            CliRequest(f"dim-crown-{k}", ["dim", "order.json"],
                       {"order.json": order_payload(crown_order(k))}, known=k)
        )
    reqs.append(
        CliRequest("dim-boolean-3", ["dim", "order.json"],
                   {"order.json": order_payload(boolean_order(3))}, known=3)
    )
    for n in (5, 6, 7):
        q = random_order(n, 0.3, rng.getrandbits(32))
        reqs.append(
            CliRequest(f"dim-poset-{n}", ["dim", "order.json"],
                       {"order.json": order_payload(q)})
        )
    for n in (6, 7, 8):
        g = random_digraph(n, 0.3, rng.getrandbits(32))
        reqs.append(
            CliRequest(f"dicr-digraph-{n}", ["dicr", "graph.json"],
                       {"graph.json": digraph_payload(g)})
        )
    for n in (6, 7):
        q = random_order(n, 0.3, rng.getrandbits(32))
        reqs.append(
            CliRequest(f"reduce-ap-{n}", ["reduce", "ap", "order.json"],
                       {"order.json": order_payload(q)})
        )
    for n in (6, 7):
        doc = order_payload(random_order(n, 0.3, rng.getrandbits(32)))
        v, rows = checks.order_rows(doc)
        pairs, ap = checks.pair_digraph(v, rows)
        cover = checks.first_fit_cover(len(pairs), ap)
        reqs.append(
            CliRequest(f"convert-{n}", ["convert", "cover-to-ext", "order.json", "cover.json"],
                       {"order.json": doc, "cover.json": {"classes": cover}}, cover=cover)
        )
    if smoke:
        reqs = [reqs[1], reqs[7], reqs[-1]]
    return reqs
