"""Certificate campaigns and their independent checkers."""

from __future__ import annotations

import ast
import copy
import gc
import json
import time
from pathlib import Path

import pytest

import orderdim.check
from orderdim import (
    HomWitness,
    OrderdimError,
    TooLarge,
    antichain_order,
    directed_cycle,
    verify_homomorphism,
)
from orderdim.campaigns import CAMPAIGNS, run_campaign
from orderdim.check import CHECKERS, recheck_certificate
from orderdim.serialize import digraph_payload, dumps, order_payload

SMALL = {
    "odim-eq-dicr": {"n": 3},
    "dim-agreement": {"n": 4},
    "dim-landmarks": {},
    "dicr-landmarks": {},
    "graph-collapse": {"n": 5},
    "h1plus": {"n": 3},
    "cyclefree-extends": {"n": 5},
    "roundtrip": {"n": 3},
    "g0": {"n": 2},
    "xinapg": {"n": 4},
    "hom-transfer": {"n": 4},
    "separators": {"n": 3},
    "minimal-hom": {},
}


def first_cert(name, **kw):
    return next(iter(run_campaign(name, **kw)))


def test_every_campaign_produces_verified_certificates():
    for name, kw in SMALL.items():
        certs = list(run_campaign(name, seed=3, **kw))
        assert certs, name
        assert all(c.verified for c in certs), name


def test_certificates_recheck_from_serialized_payload():
    for name, kw in SMALL.items():
        cert = first_cert(name, seed=3, **kw)
        payload = json.loads(dumps(cert.to_payload()))
        assert recheck_certificate(payload) is True


def test_certificates_are_numbered_in_the_order_made():
    for name, kw in SMALL.items():
        indices = [c.index for c in run_campaign(name, seed=3, **kw)]
        assert indices == list(range(len(indices))), name
    claims = [c.claim for c in run_campaign("minimal-hom", seed=3)]
    assert claims[0] == "wrap_pair"
    assert set(claims[1:]) == {"minimal_chain"}


@pytest.mark.parametrize(
    "name", ["h1plus", "odim-eq-dicr", "roundtrip", "separators"]
)
def test_enumeration_guard_fires_at_the_first_certificate(name):
    # the call only checks the name and n; the guard fires on the first
    # request, before any poset of a smaller size is made
    certs = run_campaign(name, n=7)
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        next(iter(certs))
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "name",
    ["dim-agreement", "graph-collapse", "cyclefree-extends", "xinapg",
     "hom-transfer"],
)
def test_random_campaigns_refuse_wide_sizes_before_drawing(name):
    # a size drawn from 1..100000 passes the instance guard; drawing its
    # n² chances first would take minutes and gigabytes
    certs = run_campaign(name, n=100000)
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        next(iter(certs))
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize(
    "name", ["dim-landmarks", "dicr-landmarks", "minimal-hom"]
)
def test_unsized_campaigns_reject_n(name):
    assert CAMPAIGNS[name][1] is None
    with pytest.raises(OrderdimError, match="takes no n"):
        run_campaign(name, n=3)


def test_campaigns_leave_no_reference_cycles():
    # the CLI runs every command with the collector paused, so a cycle
    # made per certificate would pile up over a long campaign
    gc.collect()
    gc.disable()
    try:
        for name, kwargs in SMALL.items():
            for cert in run_campaign(name, **kwargs):
                cert.to_payload()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_registry_and_unknown_names():
    assert set(CAMPAIGNS) == set(SMALL)
    with pytest.raises(OrderdimError):
        run_campaign("no-such-campaign")
    with pytest.raises(OrderdimError):
        recheck_certificate({"claim": "bogus", "instance": {}, "witness": {}})


def corrupt(payload, edits):
    """A copy of payload with each edit made: edits maps a key path from
    the payload's root to the entry's new value, or to a function of its
    old value."""
    doc = copy.deepcopy(payload)
    for path, value in edits.items():
        target = doc
        for key in path[:-1]:
            target = target[key]
        old = target[path[-1]]
        target[path[-1]] = value(old) if callable(value) else value
    return doc


# hom instances: the 6-cycle and, on 0..5 and 6..8, a 6-cycle and a 3-cycle
C6 = {"kind": "digraph", "n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}
C6_C3 = {
    "kind": "digraph",
    "n": 9,
    "edges": C6["edges"] + [[6, 7], [7, 8], [8, 6]],
}


def test_checkers_reject_corrupted_witnesses():
    # (campaign, size, values the edited certificate's claim and witness
    # hold, edits); each edit, to the instance, the witness or both, is
    # made to the first such certificate and reaches one rejection
    cases = [
        ("odim-eq-dicr", {"n": 3}, {}, [{("witness", "d_via_dicr"): 9}]),
        (
            "dim-landmarks",
            {},
            {},
            [{("witness", "d"): 7}, {("witness", "expected"): 7}],
        ),
        ("dicr-landmarks", {}, {}, [{("witness", "k"): 0}]),
        (
            "graph-collapse",
            {"n": 5},
            {"chromatic": 2},
            [
                {("witness", "chromatic"): 99},
                {("witness", "chromatic"): 1},
                {("witness", "coloring"): lambda c: c[1:]},
                {("witness", "coloring"): lambda c: [0] * len(c)},
                # drop one direction of an edge
                {("instance", "digraph", "edges"): lambda e: e[1:]},
            ],
        ),
        ("h1plus", {"n": 3}, {}, [{("witness", "k_pair_digraph"): 50}]),
        ("separators", {"n": 3}, {}, [{("witness", "bound"): -1}]),
        # a one-class cover does not witness k = 0
        (
            "h1plus",
            {"n": 3},
            {"k_pair_digraph": 1},
            [{("witness", "k_pair_digraph"): 0}],
        ),
        ("xinapg", {"n": 4}, {"k_source": 1}, [{("witness", "k_source"): 0}]),
        # a landmark's expected value is the one its name stands for
        ("dim-landmarks", {}, {}, [{("witness", "name"): "crown-3"}]),
        ("dicr-landmarks", {}, {}, [{("witness", "name"): "biclique-3"}]),
        # the round trip's way back is checked too
        (
            "roundtrip",
            {"n": 3},
            {},
            [{("witness", "back_cover"): {"classes": [[0]]}}],
        ),
        (
            "roundtrip",
            {"n": 3},
            {"cover": {"classes": [[0], [1]]}},
            [{("witness", "cover", "classes"): lambda c: c[::-1]}],
        ),
        # the antichain of 3: each pair-digraph class of a realizer split
        # in two, so one class, (0, 2), closes to less than its extension
        (
            "roundtrip",
            {"n": 3},
            {"cover": {"classes": [[0, 1, 3], [2, 4, 5]]}},
            [
                {
                    ("witness", "family", "extensions"): lambda e: [
                        e[0], e[0], e[1]
                    ],
                    ("witness", "cover", "classes"): [[0, 3], [1], [2, 4, 5]],
                    ("witness", "back_cover", "classes"): lambda c: [
                        c[0], c[0], c[1]
                    ],
                }
            ],
        ),
        ("dim-agreement", {"n": 4}, {}, [{("witness", "d_oracle"): 9}]),
        (
            "cyclefree-extends",
            {"n": 5},
            {"outcome": "extension"},
            [
                {("witness", "extension"): lambda pairs: pairs[1:]},
                # offered pairs that merge 0 and 1, their closure stated
                {
                    ("instance", "order"): order_payload(antichain_order(2)),
                    ("instance", "pairs"): [[0, 1], [1, 0]],
                    ("witness", "extension"): [[0, 1], [1, 0]],
                },
            ],
        ),
        (
            "cyclefree-extends",
            {"n": 5},
            {"outcome": "cycle"},
            [
                {("witness", "cycle"): []},
                {("witness", "cycle"): [[0, 0]]},
                {("witness", "cycle"): lambda c: c[:1]},
            ],
        ),
        (
            "g0",
            {"n": 2},
            {},
            [
                {("witness", "canonical_cycles"): lambda c: c + 1},
                {("witness", "level_edges"): lambda e: e + [1]},
            ],
        ),
        (
            "minimal-hom",
            {},
            {"claim": "wrap_pair"},
            [
                {("witness", "minimal_exists"): True},
                {("witness", "map"): [0] * 6},
                {("witness", "violating_pair"): [9, 9]},
                # h gains a 6-cycle, which takes C6 by a minimal map
                {
                    ("instance", "g"): C6,
                    ("instance", "h"): C6_C3,
                    ("witness", "map"): [6, 7, 8, 6, 7, 8],
                },
            ],
        ),
        (
            "minimal-hom",
            {},
            {"claim": "minimal_chain"},
            [
                {("witness", "map_gh"): lambda m: m[1:] + m[:1]},
                {("witness", "map_hk"): lambda m: [0] * len(m)},
            ],
        ),
    ]
    for name, kw, holds, edits in cases:
        base = next(
            doc
            for doc in (
                json.loads(dumps(c.to_payload()))
                for c in run_campaign(name, seed=3, **kw)
            )
            if holds.items()
            <= {**doc["witness"], "claim": doc["claim"]}.items()
        )
        assert recheck_certificate(base) is True, name
        for edit in edits:
            assert recheck_certificate(corrupt(base, edit)) is False, (
                name,
                sorted(edit),
            )


def test_checker_rejects_tampered_mapping():
    for cert in run_campaign("hom-transfer", n=4, seed=3):
        payload = json.loads(dumps(cert.to_payload()))
        if payload["witness"]["map"]:
            h_n = payload["instance"]["h"]["n"]
            if h_n < 2:
                continue
            shifted = [(v + 1) % h_n for v in payload["witness"]["map"]]
            broken = corrupt(payload, {("witness", "map"): shifted})
            if broken["witness"]["map"] != payload["witness"]["map"]:
                got = recheck_certificate(broken)
                if got is False:
                    return
    raise AssertionError("no tampered mapping was rejected")


def test_checker_rejects_dropped_cover_class():
    cert = first_cert("odim-eq-dicr", n=3, seed=3)
    payload = json.loads(dumps(cert.to_payload()))
    classes = payload["witness"]["cover"]["classes"]
    if not classes:
        for cert in run_campaign("odim-eq-dicr", n=3):
            payload = json.loads(dumps(cert.to_payload()))
            classes = payload["witness"]["cover"]["classes"]
            if classes:
                break
    broken = copy.deepcopy(payload)
    broken["witness"]["cover"]["classes"] = classes[:-1]
    assert recheck_certificate(broken) is False


def test_checker_recomputes_the_stated_dimension():
    # antichain_order(3) has dimension 2. Claim 3 with every stored value
    # agreeing: pad the family with a repeated extension and split a
    # cover class, which keeps it acyclic. Only recomputing the optimum
    # can tell.
    order = order_payload(antichain_order(3))
    cert = next(
        c
        for c in run_campaign("odim-eq-dicr", n=3)
        if c.instance["order"] == order
    )
    payload = json.loads(dumps(cert.to_payload()))
    assert payload["witness"]["d_via_dicr"] == 2
    forged = copy.deepcopy(payload)
    witness = forged["witness"]
    for key in ("d_via_dicr", "d_realizer", "k_pair_digraph"):
        witness[key] = 3
    exts = witness["family"]["extensions"]
    exts.append(exts[0])
    first, second = witness["cover"]["classes"]
    witness["cover"]["classes"] = [first[:1], first[1:], second]
    assert recheck_certificate(payload) is True
    assert recheck_certificate(forged) is False


def test_checker_ties_hom_transfer_counts_to_the_covers():
    # k_g = 0 <= k_h = 99 holds whatever the digraphs are; only the
    # covers' sizes can show that neither number is what they witness
    cert = first_cert("hom-transfer", n=4, seed=3)
    payload = json.loads(dumps(cert.to_payload()))
    forged = corrupt(payload, {("witness", "k_g"): 0, ("witness", "k_h"): 99})
    assert recheck_certificate(payload) is True
    assert recheck_certificate(forged) is False


def test_checker_recomputes_the_separator_dimension():
    # d = 0 lies below every bound, so only a recomputed dimension
    # shows that the two-element antichain has dimension 2, not 0
    cert = next(
        c for c in run_campaign("separators", n=2) if c.witness.get("d") == 2
    )
    payload = json.loads(dumps(cert.to_payload()))
    assert recheck_certificate(payload) is True
    forged = corrupt(payload, {("witness", "d"): 0})
    assert recheck_certificate(forged) is False


def test_wrap_pair_checker_refuses_a_scan_past_its_guard():
    # C10 -> C5 is a valid wrap certificate, but rechecking it would try
    # all 5**10 maps; the guard rejects it before the scan
    g, h = directed_cycle(10), directed_cycle(5)
    wrap = tuple(i % 5 for i in range(10))
    pair = verify_homomorphism(g, h, HomWitness(wrap, True)).pair
    instance = {"g": digraph_payload(g), "h": digraph_payload(h)}
    witness = {
        "map": list(wrap),
        "minimal_exists": False,
        "violating_pair": list(pair),
    }
    assert 5**10 > orderdim.check.MAX_WRAP_MAPS
    with pytest.raises(TooLarge):
        CHECKERS["wrap_pair"](instance, witness)
    t0 = time.perf_counter()
    payload = {"claim": "wrap_pair", "instance": instance, "witness": witness}
    assert recheck_certificate(payload) is False
    assert time.perf_counter() - t0 < 1


def test_cyclefree_checker_rejects_offered_pairs_out_of_range():
    cert = next(
        c
        for c in run_campaign("cyclefree-extends", n=5, seed=3)
        if c.witness["outcome"] == "extension" and c.instance["pairs"]
    )
    payload = json.loads(dumps(cert.to_payload()))
    assert recheck_certificate(payload) is True
    for bad in ([0, -1], [99, 0]):
        forged = copy.deepcopy(payload)
        forged["instance"]["pairs"].append(bad)
        assert recheck_certificate(forged) is False, bad


@pytest.fixture(scope="module")
def honest():
    """The first verified certificate of each claim, as a payload."""
    found = {}
    for name, kw in SMALL.items():
        for cert in run_campaign(name, seed=3, **kw):
            if cert.verified and cert.claim not in found:
                found[cert.claim] = json.loads(dumps(cert.to_payload()))
    return found


@pytest.mark.parametrize("claim", sorted(CHECKERS))
def test_recheck_rejects_witnesses_missing_keys(honest, claim):
    payload = honest[claim]
    witness = payload["witness"]
    assert recheck_certificate(payload) is True
    shortened = [{}] + [
        {k: v for k, v in witness.items() if k != key} for key in witness
    ]
    for short in shortened:
        got = recheck_certificate({**payload, "witness": short})
        assert got is False, (claim, sorted(short))


def test_cyclefree_prefiltered_instances_never_report_cycles():
    for cert in run_campaign("cyclefree-extends", n=5, seed=3):
        if cert.instance["prefiltered"]:
            assert cert.witness["outcome"] == "extension"


def test_cyclefree_campaign_exercises_both_outcomes():
    outcomes = {
        c.witness["outcome"]
        for c in run_campaign("cyclefree-extends", n=5, seed=3)
    }
    assert outcomes == {"extension", "cycle"}


def test_checkers_cover_every_claim():
    claims = set()
    for name, kw in SMALL.items():
        for cert in run_campaign(name, seed=3, **kw):
            claims.add(cert.claim)
    assert claims == set(CHECKERS)


def test_checker_module_imports_no_search_code():
    # a checker that shared the solvers' search could pass their bugs
    tree = ast.parse(Path(orderdim.check.__file__).read_text("utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").rpartition(".")[2])
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name.rpartition(".")[2] for a in node.names)
    search = {
        "solvers",
        "campaigns",
        "find_homomorphism",
        "scc_decompose",
        "_strong_components",
    }
    assert not (modules | names) & search
