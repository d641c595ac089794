"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. Every
numeric target is regenerated here from in-repo brute-force oracles; none
is trusted from a constant alone.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from orderdim import (
    dichromatic_number,
    enumerate_posets,
    order_dimension,
    pair_digraph,
    quotient,
    realizer_oracle,
)
from orderdim.campaigns import run_campaign

from .oracles import brute_force_poset_count


def report(tag: str, budget_s: float, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
    except BaseException:
        print(f"{tag} FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"{tag} PASS ({detail}; {elapsed:.1f}s)")
    assert elapsed < budget_s, f"{tag} exceeded its {budget_s}s time budget"


@pytest.fixture(scope="module")
def posets_by_size():
    return {n: list(enumerate_posets(n)) for n in range(6)}


def test_ac01_dimension_equals_pair_digraph_dicr(posets_by_size):
    def body():
        swept = 0
        for n, posets in posets_by_size.items():
            assert len(posets) == brute_force_poset_count(n), (
                "census mismatch against the independent filter"
            )
            for q in posets:
                via = order_dimension(q)
                assert all(e.is_total() for e in via.witness.exts)
                brute = realizer_oracle(q, 4)
                ap, _ = pair_digraph(q)
                k = dichromatic_number(ap).k
                if quotient(q).size >= 2:
                    assert via.d == brute == k, (n, q.rows, via.d, brute, k)
                else:
                    assert via.d == brute == 0
                swept += 1
        return f"{swept} posets, census regenerated for n<=5"

    report("AC1", 600, body)


def test_ac02_dimension_landmarks():
    def body():
        certs = list(run_campaign("dim-landmarks"))
        assert all(c.verified for c in certs)
        table = {c.witness["name"]: c.witness["d"] for c in certs}
        assert table == {
            "chain-4": 1,
            "antichain-2": 2,
            "crown-2": 2,
            "crown-3": 3,
            "boolean-3": 3,
        }
        return "5 landmarks, each oracle-confirmed"

    report("AC2", 60, body)


def test_ac03_dicr_landmarks():
    def body():
        certs = list(run_campaign("dicr-landmarks"))
        assert all(c.verified for c in certs)
        got = {c.witness["name"]: c.witness["k"] for c in certs}
        for n in range(2, 8):
            assert got[f"cycle-{n}"] == 2
        for n in range(2, 6):
            assert got[f"biclique-{n}"] == n
        dags = [k for k in got if k.startswith("dag-")]
        assert dags and all(got[k] == 1 for k in dags)
        return f"{len(certs)} digraphs, k-1 infeasibility brute-checked"

    report("AC3", 60, body)


def test_ac04_symmetric_collapse():
    def body():
        certs = list(run_campaign("graph-collapse", n=8))
        assert len(certs) == 100
        assert all(c.verified for c in certs)
        assert all(
            c.witness["chromatic"] == c.witness["dichromatic"] for c in certs
        )
        return "100 seeded symmetric digraphs, chrom == dicr"

    report("AC4", 120, body)


def test_ac05_comparable_class_bound():
    def body():
        certs = list(run_campaign("h1plus", n=5))
        assert len(certs) == 4474
        assert all(c.verified for c in certs)
        assert all(
            c.witness["k_pair_digraph"] <= 1 + c.witness["k_incomparable"]
            for c in certs
        )
        return "4474 posets, comparable part acyclic, k_A <= 1 + k_B"

    report("AC5", 300, body)


def test_ac06_closure_extension_outcomes():
    def body():
        certs = list(run_campaign("cyclefree-extends", n=7))
        assert len(certs) == 500
        assert all(c.verified for c in certs)
        outcomes = Counter(c.witness["outcome"] for c in certs)
        assert set(outcomes) == {"extension", "cycle"}
        for c in certs:
            if c.instance["prefiltered"]:
                assert c.witness["outcome"] == "extension"
        return (
            f"500 instances: {outcomes['extension']} extensions, "
            f"{outcomes['cycle']} certified cycles, prefiltered never error"
        )

    report("AC6", 120, body)


def test_ac07_witness_round_trips():
    def body():
        certs = list(run_campaign("roundtrip", n=5))
        assert len(certs) == 4474
        assert all(c.verified for c in certs)
        return "4474 posets, cover<->family round trips are identities"

    report("AC7", 300, body)


def test_ac08_branching_digraph_properties():
    def body():
        certs = list(run_campaign("g0", n=3))
        assert len(certs) == 1 + 3 + 9 + 27
        assert all(c.verified for c in certs)
        by_sigma = {tuple(c.instance["sigma"]): c.witness for c in certs}
        assert by_sigma[(2, 3)]["monotone"] is True
        assert by_sigma[(3, 2)]["monotone"] is False
        for v in (2, 3, 4):
            for length in (1, 2, 3):
                assert by_sigma[(v,) * length]["monotone"] is True
        return "40 sigma values, edge counts + cycles + symmetry + monotone"

    report("AC8", 60, body)


def test_ac09_two_level_embedding_and_hom_transfer():
    def body():
        emb = list(run_campaign("xinapg", n=6))
        assert len(emb) == 100
        assert all(c.verified for c in emb)
        assert all(
            c.witness["k_source"] <= c.witness["k_pair_digraph"] for c in emb
        )
        hom = list(run_campaign("hom-transfer", n=6))
        assert len(hom) == 30
        assert all(c.verified for c in hom)
        return "100 embeddings edge-faithful, 30 hom transfers bounded"

    report("AC9", 300, body)


def test_ac10_separator_families():
    def body():
        certs = list(run_campaign("separators", n=5))
        assert len(certs) == 4474
        assert all(c.verified for c in certs)
        assert all(c.witness["bound"] >= c.witness["d"] for c in certs)
        return "4474 posets, prefix separators always complete, bound >= d"

    report("AC10", 300, body)


def test_ac11_minimal_homomorphism_pair():
    def body():
        certs = list(run_campaign("minimal-hom"))
        wrap = certs[0]
        assert wrap.claim == "wrap_pair" and wrap.verified
        assert wrap.witness["map"] == [0, 1, 2, 0, 1, 2]
        assert wrap.witness["minimal_exists"] is False
        chains = [c for c in certs if c.claim == "minimal_chain"]
        assert len(chains) == 50
        assert all(c.verified for c in chains)
        return "C6->C3 pair reproduced (729-map scan), 50 composition checks"

    report("AC11", 120, body)
