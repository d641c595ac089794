"""Identity gate for the exact cover search and the campaigns.

Pins, on fixed instances, the exact number of search nodes
`dichromatic_number` visits on the full pair digraph and on its
critical-pair subdigraph (the one `order_dimension` searches), and the
sha256 of the canonical `order_dimension` output. A change to the
solver that keeps the search keeps both; one that changes the visit
order, the node count or the chosen cover fails here and has to say why.
The canonical lines of every certificate campaign, the canonical
`chromatic_number` output over a sweep of graphs, `orderdim g0 k` over
fixed branching sequences and the homomorphism search and recheck over
seeded digraph pairs are pinned the same way, and so are the total search
nodes and the covers over sweeps of random digraphs and critical-pair
digraphs under a fixed budget, and the budgets at which the homomorphism
search and the minimal cycle enumeration stop running out.
"""

from __future__ import annotations

import hashlib

import pytest

from orderdim import (
    HomWitness,
    LimitExceeded,
    boolean_order,
    chromatic_number,
    critical_pair_digraph,
    crown_order,
    dichromatic_number,
    find_homomorphism,
    minimal_cycles,
    order_dimension,
    pair_digraph,
    random_digraph,
    random_order,
    random_symmetric,
    verify_homomorphism,
)
from orderdim.campaigns import CAMPAIGNS, run_campaign
from orderdim.cli import run
from orderdim.digraphs import _strong_components
from orderdim.relations import transpose_rows
from orderdim.serialize import dumps, family_payload
from orderdim.solvers import _cover_scc

# (label, poset, search nodes on the full pair digraph, search nodes on the
# critical-pair digraph, sha256 of the canonical dimension output)
PINNED = [
    (
        "crown_order(5)",
        lambda: crown_order(5),
        104,
        15,
        "fae16a6f1c9e87d6de1bcd27d54326ae1e09795af65ed87dc204003921a2da44",
    ),
    (
        "boolean_order(4)",
        lambda: boolean_order(4),
        237,
        10,
        "0621a8faa8f47aac6b9e1c72260086a8eeef9cfb1584516aa0fb729d2b16c301",
    ),
    (
        "random_order(14, 0.2, 0)",
        lambda: random_order(14, 0.2, 0),
        213,
        38,
        "749f887a3f435d2b354609b034d78631a97afe1076797c6a0a7ea21692f54a6c",
    ),
    (
        "random_order(16, 0.3, 2)",
        lambda: random_order(16, 0.3, 2),
        17_370,
        42,
        "70546ed4c06aaf62b5fbd3386d5853d46b5d8db92eb9c35c111c264b1fbfedd5",
    ),
    (
        "random_order(20, 0.45, 2)",
        lambda: random_order(20, 0.45, 2),
        277,
        29,
        "61ad1cf2eb6837cf702bbdb2b6c3ad0aa2a38f864e4464f70db0d08618686e7c",
    ),
]


@pytest.mark.parametrize(
    "make, nodes, cp_nodes, digest",
    [p[1:] for p in PINNED],
    ids=[p[0] for p in PINNED],
)
def test_search_nodes_and_output_bytes_are_pinned(make, nodes, cp_nodes, digest):
    q = make()
    # each node count is a budget boundary: enough at N, exceeded at N-1
    ap, _ = pair_digraph(q)
    res = dichromatic_number(ap, budget=nodes)
    with pytest.raises(LimitExceeded):
        dichromatic_number(ap, budget=nodes - 1)
    cp, _ = critical_pair_digraph(q)
    assert dichromatic_number(cp, budget=cp_nodes).k == res.k
    with pytest.raises(LimitExceeded):
        dichromatic_number(cp, budget=cp_nodes - 1)
    r = order_dimension(q, budget=cp_nodes)
    assert r.d == res.k
    text = dumps({"d": r.d, "family": family_payload(r.witness)})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of every campaign's canonical certificate lines (the stdout of
# `orderdim verify NAME`) at default size and seed 0
CAMPAIGN_DIGESTS = {
    "odim-eq-dicr": "49081066d49adcf821014ee6e13f6aa77b6b586bb2421d9cd451a7e6d9d5bb2f",
    "dim-agreement": "e0ce9145f269ced1d52521ec2c3ea13f976b51eec688b08aa518e5ef40645386",
    "dim-landmarks": "2b73d6507148f7756bb1fe927ac0621f05d012a26d954d66df9accbd707fa90d",
    "dicr-landmarks": "3b34f5cce08687947c43fcd1eeb72b49ae47b0e70e453506728d21d482828e7a",
    "graph-collapse": "a81194cd76bca39c705f970a9a36d5db29056265842a71c5745c028cb8774d0c",
    "h1plus": "f38a64e19adeaed9c9a3848f3c1fde1e0343430d3aeb499d22cb1a4daedfc4af",
    "cyclefree-extends": "e89fddd16e79439695993bbdb00ccbc7b4af297c60afa9734f936a09f7a6ccc4",
    "roundtrip": "63bca30de70b83717bf4c8a598de57a324e1b758368124ca043611959d52c644",
    "g0": "e0bc5bcbc2c765e895090b5bc5df753ac0f6fd818038746a780670dda0fd8ac0",
    "xinapg": "ab9ab3fea2bf97275b3146aad980a3d843673d4e55910aa5f1873f0e2e7365ac",
    "hom-transfer": "8f29d7724a12bcd8d09c18edc5953a4b37075c6cafcebf085746bd260293f763",
    "separators": "a352be3d58b7cc3b3dce6a30a5b754dd797a6b97b5826a94fccdd9d90d26bc35",
    "minimal-hom": "6a01b7bdc4e1cbd67b4981e7b3480604d5fc3cc8934d950074503db6dbb689c0",
}


def test_every_campaign_is_pinned():
    assert set(CAMPAIGN_DIGESTS) == set(CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(CAMPAIGN_DIGESTS))
def test_campaign_output_bytes_are_pinned(name):
    h = hashlib.sha256()
    for cert in run_campaign(name, seed=0):
        h.update(dumps(cert.to_payload()).encode())
    assert h.hexdigest() == CAMPAIGN_DIGESTS[name]


# sha256 of the stdout of `orderdim g0 k --sigma S`
G0_K_DIGESTS = {
    "": "377e7bd5dc5a0c24c37cad317cfe4031c3369558dc20be3f664d53fb90933239",
    "2": "c0943953587d55ec8c8ead4c6933e41ecf329a88d8a9e8ca629e1158d499351c",
    "3": "ed592a419bdce07057442777e7bbf22f846f61700218251fd6bd631360960b64",
    "2,2": "fe9175da1a06b653b74657da632c571656c54ac7f99d8ecca0ff8a388ef64bfc",
    "3,2": "d43ef393042730948b536c8f99198b6efae01a01549dc3c7b42e1aaf217b068c",
    "2,3,4": "3196339e0ee25798cb92bb28744cc0fbb4359dc57dfb0425fcbc5f906f687ba0",
    "4,4,4": "5cfdf8efc354828924c4939200cf2e3dd685453741160a0bb3970c0fa9fef47b",
    "2,2,2,2": "3dd2c9206c62f2eaaf83a7aeab9859f197b7f0fd00d15ab6d74cb80bc010ef77",
    "5,3,2": "aaeaed2a209eced90739d3c5aa5efd45b9bedc97176130b69e6b6b41436f833a",
}


def test_g0_k_output_bytes_are_pinned(capsys):
    for sigma, digest in G0_K_DIGESTS.items():
        assert run(["g0", "k", "--sigma", sigma]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, sigma


# sha256 of the stdout of `orderdim g0 selector --sigma S`, over the same keys
G0_SELECTOR_DIGESTS = {
    "": "33db2d1333779ccddc4a53aca1c2a5f1de983cb7cfa2c1529e32b1f5fa29bed0",
    "2": "41600584a2a2904dd74eb8009fb6ce2b2274ee9a01cf47820146c4b24bb3b41f",
    "3": "6c62f89bbff875464d77150f8922daa17d5069977d07970940f2c5bd5cbed252",
    "2,2": "49529d0b9920363b83e31493d05f47f811f0b71febed3275f57701ecdddc9487",
    "3,2": "2a17b7a97345a5829133d29925d39ee33608ac81c7a14c09b5e04994efb44379",
    "2,3,4": "e74e79407daf52c7f0fbfcc53b375d2edbfaf074402955304a19dd3adb259c52",
    "4,4,4": "378cdd8f01431bdf3922b42844173cf1dba2cf51fbf3994cd7b494cc5056d00f",
    "2,2,2,2": "1d20d8985cf2566fd58d406f32d73c0f50c3bb9644d9e75cdbea72d51653e865",
    "5,3,2": "a58103021a83714f445462d5180d1b076b26f1e85786eaa8739745ca31717edd",
}

# sha256 of the stdout of `orderdim g0 density --sigma S --depth D` for
# D = 0, 1, ..., len S in turn, each exiting 0
G0_DENSITY_DIGESTS = {
    "": "e1f15aa4161c84f791f62e7007ad81bfe67ff7945ad2f538a82254e3fab854a7",
    "2": "796c10e4969a8e32d00c569d416ad55398be5f43c5d4674c690cff3078eab26a",
    "3": "1c64e84a4789ac08ec7751cb8f4a972992eec3f34f991fe00461127f82f6b22b",
    "2,2": "5424ad4378ade234dc29fc5a9b9f275973333f749ed163b7720c44be5af42a18",
    "3,2": "3db9640b0c5c5c6691a2c3118cb4a394e4528055ec8d6f91be30c49c71466819",
    "2,3,4": "95b57c1c051ed372a09ccdab5fa0759c7b21c11bcdf7b6609027f8469be22dc6",
    "4,4,4": "6f24e4eb2f5f89d7e35555ff9c5a9f9b5b8f923abc383a157b27aa659b0a3e34",
    "2,2,2,2": "d7fae8b90299382a327ba0bf14e4d3d6d995caccdde40562baaef94969f89477",
    "5,3,2": "95fe722d65ef07ffe8082d119a3cd0bdde5246942f792ab1fa42273d05c346e5",
}

# (exit code, sha256 of the stdout) of `orderdim g0 monotone --sigma S`
G0_MONOTONE_DIGESTS = {
    "": (0, "1d5940cef333fbe55cc9ce92c452eeb9deb39dade960be348ae08f7e60c3edfa"),
    "2": (0, "99b8df6f31cc43aa0cfa65af49bf8316c7d3194aad85c2cd5705c0c2a1e5f992"),
    "3": (0, "09067a253e8bfbaf1a92d554ac9a747d5ef088e52763716c0c822ec662fc10f7"),
    "2,2": (0, "8253f4d303f89b4ddbacb86419e9ba720a8b9edd494091ccfaa2b480981afb63"),
    "3,2": (1, "fecdde31e755ea2cf428c7415b040fbba8360bfaaa243be35243c925c374b34d"),
    "2,3,4": (0, "cb8f78a982b148145f076a769310bdb850a9b3668854ea8f771cd846f3280d4a"),
    "4,4,4": (0, "1bf55a789d7e482465615424dbb387e243dd26625f0055393c25b3adc9b5b53e"),
    "2,2,2,2": (0, "d5ee31ec54d7cffe9d92cd4bd641bd8166da7dd2ea3824d4afd9fe1d4120aad2"),
    "5,3,2": (1, "dcc36f2e2d98653d92c1d0ecc68a43d9d5d5549f2699d904fae251e74115fa20"),
}


def test_g0_subcommand_output_bytes_are_pinned(capsys):
    keys = set(G0_K_DIGESTS)
    assert set(G0_SELECTOR_DIGESTS) == set(G0_DENSITY_DIGESTS) == keys
    assert set(G0_MONOTONE_DIGESTS) == keys

    def digest() -> str:
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    for sigma in sorted(keys):
        assert run(["g0", "selector", "--sigma", sigma]) == 0
        assert digest() == G0_SELECTOR_DIGESTS[sigma], sigma
        levels = len(sigma.split(",")) if sigma else 0
        for depth in range(levels + 1):
            argv = ["g0", "density", "--sigma", sigma, "--depth", str(depth)]
            assert run(argv) == 0, (sigma, depth)
        assert digest() == G0_DENSITY_DIGESTS[sigma], sigma
        code = run(["g0", "monotone", "--sigma", sigma])
        assert (code, digest()) == G0_MONOTONE_DIGESTS[sigma], sigma


# Seeded digraph pairs (G, H) with H one vertex smaller and denser: the
# plain and minimal find_homomorphism witnesses, and the minimal recheck
# (ok, reason, pair, cycle) of the plain map and of v -> v mod |H|
HOM_SWEEP = [
    (n, p, seed)
    for n in range(2, 7)
    for p in (0.2, 0.35, 0.5, 0.65)
    for seed in range(25)
]
HOM_DIGEST = "a59635e057adeaa41c7d97f8b86df7b0238da0e3c666974aaf1f7145225aa868"


def test_homomorphism_outputs_are_pinned():
    h = hashlib.sha256()
    cycle_faults = 0
    for n, p, seed in HOM_SWEEP:
        g = random_digraph(n, p, seed)
        k = random_digraph(n - 1, min(p + 0.3, 0.95), seed + 1)
        plain = find_homomorphism(g, k)
        strict = find_homomorphism(g, k, minimal=True)
        maps = [plain.mapping] if plain else []
        maps.append(tuple(v % k.n for v in range(g.n)))
        checks = []
        for m in maps:
            c = verify_homomorphism(g, k, HomWitness(m, True))
            cycle_faults += c.reason == "cycle non-edge mapped to an edge"
            checks.append([
                c.ok, c.reason, c.pair and list(c.pair), c.cycle and list(c.cycle)
            ])
        h.update(dumps({
            "plain": plain and list(plain.mapping),
            "minimal": strict and list(strict.mapping),
            "checks": checks,
        }).encode())
    assert cycle_faults == 34
    assert h.hexdigest() == HOM_DIGEST


def assert_budget_boundary(search, nodes):
    """search(budget) settles at budget nodes and runs out at nodes - 1."""
    search(nodes)
    with pytest.raises(LimitExceeded):
        search(nodes - 1)


# Seeded digraph pairs (G, H) = (random_digraph(n, p, seed),
# random_digraph(n - 2, p + 0.25, seed + 1)): the least budget with which
# find_homomorphism, plain and minimal, settles without LimitExceeded
HOM_STOPS = {
    (6, 0.25, 0): (65, 65),
    (6, 0.25, 1): (28, 28),
    (6, 0.25, 2): (9, 9),
    (6, 0.4, 0): (27, 72),
    (6, 0.4, 1): (68, 68),
    (6, 0.4, 2): (36, 36),
    (6, 0.55, 0): (60, 56),
    (6, 0.55, 1): (260, 260),
    (6, 0.55, 2): (76, 68),
    (8, 0.25, 0): (480, 402),
    (8, 0.25, 1): (620, 620),
    (8, 0.25, 2): (84, 84),
    (8, 0.4, 0): (540, 540),
    (8, 0.4, 1): (376, 174),
    (8, 0.4, 2): (108, 108),
    (8, 0.55, 0): (499, 499),
    (8, 0.55, 1): (50, 258),
    (8, 0.55, 2): (391, 391),
    (10, 0.25, 0): (512, 256),
    (10, 0.25, 1): (123, 496),
    (10, 0.25, 2): (313, 288),
    (10, 0.4, 0): (760, 328),
    (10, 0.4, 1): (281, 368),
    (10, 0.4, 2): (2968, 296),
    (10, 0.55, 0): (4576, 520),
    (10, 0.55, 1): (255, 2088),
    (10, 0.55, 2): (6816, 1408),
}


def test_homomorphism_budget_stops_are_pinned():
    for (n, p, seed), (plain, strict) in HOM_STOPS.items():
        g = random_digraph(n, p, seed)
        h = random_digraph(n - 2, min(p + 0.25, 0.95), seed + 1)
        assert_budget_boundary(lambda b: find_homomorphism(g, h, budget=b), plain)
        assert_budget_boundary(
            lambda b: find_homomorphism(g, h, minimal=True, budget=b), strict
        )


# the least budget with which minimal_cycles(random_digraph(n, p, 0)) settles
CYCLE_STOPS = {
    (10, 0.2): 31,
    (10, 0.35): 42,
    (10, 0.5): 53,
    (14, 0.2): 74,
    (14, 0.35): 163,
    (14, 0.5): 156,
    (18, 0.2): 228,
    (18, 0.35): 349,
    (18, 0.5): 409,
    (22, 0.2): 295,
    (22, 0.35): 642,
    (22, 0.5): 853,
    (26, 0.2): 1020,
    (26, 0.35): 1828,
    (26, 0.5): 1710,
}


def test_minimal_cycle_budget_stops_are_pinned():
    for (n, p), nodes in CYCLE_STOPS.items():
        d = random_digraph(n, p, 0)
        assert_budget_boundary(lambda b: minimal_cycles(d, budget=b), nodes)


# sha256 of the canonical `orderdim chrom` output over a sweep of graphs
# up to 25 vertices, well past graph-collapse's 8
CHROM_SWEEP = [
    (n, p, seed)
    for n in range(26)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9)
    for seed in range(4)
]
CHROM_DIGEST = "4dacfb0c808992b1260a5ed8780ddb8512171b8ff54e95cef554f6e43a12709e"


def test_chromatic_output_bytes_are_pinned():
    h = hashlib.sha256()
    for n, p, seed in CHROM_SWEEP:
        k, colors = chromatic_number(random_symmetric(n, p, seed))
        h.update(dumps({"k": k, "coloring": list(colors)}).encode())
    assert h.hexdigest() == CHROM_DIGEST


# Random digraphs up to 30 vertices at four densities and critical-pair
# digraphs of random orders, each searched under SWEEP_BUDGET. A few of
# them stop at the budget; they count budget + 1 nodes and hash as
# "k": null.
SWEEP_BUDGET = 20_000
DIGRAPH_SWEEP = [
    (n, p, seed)
    for n in range(4, 31, 2)
    for p in (0.1, 0.2, 0.35, 0.5)
    for seed in range(3)
]
ORDER_SWEEP = [
    (n, p, seed)
    for n in (14, 18, 22)
    for p in (0.2, 0.3, 0.45)
    for seed in range(3)
]
# (total search nodes, budget stops, sha256 of the canonical covers)
DIGRAPH_SWEEP_PIN = (
    172_956,
    3,
    "ecf819dc07c9873d18ad3f601c38d4d4a09ce94a582d16294b721751d9a767b5",
)
ORDER_SWEEP_PIN = (
    61_765,
    2,
    "05b372c133b501f9e49f7e7233ffe59a20d6b14199ce3b5ba3fd1a8d084803e3",
)


def search_nodes(d, budget):
    """Nodes dichromatic_number(d, budget) visits; budget + 1 if it stops.

    Runs the per-component search the way dichromatic_number does, each
    strong component counting on from the nodes spent before it."""
    cols = transpose_rows(d.rows, d.n)
    degree = [r.bit_count() + c.bit_count() for r, c in zip(d.rows, cols)]
    mutual = [r & c for r, c in zip(d.rows, cols)]
    spent = 0
    try:
        for comp in _strong_components(d.rows, cols):
            if comp & (comp - 1):
                _, _, spent = _cover_scc(
                    d.rows, cols, comp, degree, mutual, budget, spent
                )
    except LimitExceeded:
        return budget + 1
    return spent


def sweep_pin(graphs):
    h = hashlib.sha256()
    nodes = stops = 0
    for d in graphs:
        nodes += search_nodes(d, SWEEP_BUDGET)
        try:
            res = dichromatic_number(d, SWEEP_BUDGET)
        except LimitExceeded:
            stops += 1
            h.update(dumps({"k": None}).encode())
            continue
        classes = [list(c) for c in res.witness.classes]
        h.update(dumps({"k": res.k, "classes": classes}).encode())
    return nodes, stops, h.hexdigest()


def test_random_digraph_sweep_nodes_and_covers_are_pinned():
    graphs = [random_digraph(*args) for args in DIGRAPH_SWEEP]
    assert sweep_pin(graphs) == DIGRAPH_SWEEP_PIN


def test_critical_pair_sweep_nodes_and_covers_are_pinned():
    graphs = [critical_pair_digraph(random_order(*a))[0] for a in ORDER_SWEEP]
    assert sweep_pin(graphs) == ORDER_SWEEP_PIN


@pytest.mark.parametrize(
    "make, nodes",
    [
        (lambda: random_digraph(28, 0.5, 1), 19_405),
        (lambda: critical_pair_digraph(random_order(22, 0.2, 0))[0], 19_941),
    ],
    ids=["random_digraph(28, 0.5, 1)", "critical_pair(22, 0.2, 0)"],
)
def test_sweep_node_counts_are_budget_boundaries(make, nodes):
    d = make()
    assert search_nodes(d, SWEEP_BUDGET) == nodes
    dichromatic_number(d, budget=nodes)
    with pytest.raises(LimitExceeded):
        dichromatic_number(d, budget=nodes - 1)
