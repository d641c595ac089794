"""Canonical JSON payloads for every transferable object."""

from __future__ import annotations

import json

import pytest

from orderdim import AcyclicCover, HomWitness, crown_order, directed_cycle
from orderdim.reduction import ExtensionFamily, pair_digraph
from orderdim.selectors import MAX_LEVEL_VERTICES
from orderdim.serialize import (
    MAX_INPUT_N,
    FormatError,
    cover_from_payload,
    cover_payload,
    digraph_from_payload,
    digraph_payload,
    dumps,
    family_from_payload,
    family_payload,
    homwitness_from_payload,
    homwitness_payload,
    order_from_payload,
    order_payload,
    parse_json,
)
from orderdim.solvers import order_dimension


def test_order_round_trip():
    base = crown_order(3)
    doc = order_payload(base)
    assert doc["kind"] == "quasi"
    again = order_from_payload(json.loads(dumps(doc)))
    assert again.rows == base.rows


def test_digraph_round_trip_and_self_loop_rejection():
    d = directed_cycle(4)
    assert digraph_from_payload(digraph_payload(d)).rows == d.rows
    with pytest.raises(FormatError):
        digraph_from_payload({"kind": "digraph", "n": 2, "edges": [[1, 1]]})


def test_cover_and_family_round_trips():
    base = crown_order(2)
    ap, _ = pair_digraph(base)
    cover = AcyclicCover(((0, 1), (2, 3)))
    assert cover_from_payload(cover_payload(cover)).classes == cover.classes
    fam = order_dimension(base).witness
    doc = family_payload(fam)
    again = family_from_payload(doc, base)
    assert isinstance(again, ExtensionFamily)
    assert tuple(e.rows for e in again.exts) == tuple(
        e.rows for e in fam.exts
    )


def test_homwitness_round_trips():
    w = HomWitness((0, 1, 2), True)
    again = homwitness_from_payload(homwitness_payload(w))
    assert again.mapping == w.mapping and again.minimal


def test_parse_and_format_errors():
    with pytest.raises(FormatError):
        parse_json("{not json")
    with pytest.raises(FormatError):
        order_from_payload({"kind": "poset", "n": 1, "pairs": []})
    with pytest.raises(FormatError):
        order_from_payload({"kind": "quasi", "n": 2, "pairs": [["a", 0]]})


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [2, 3]})
    b = dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert " " not in a.strip()


def test_declared_size_is_refused_before_allocation():
    huge = 10**12
    for kind, key, read in (
        ("quasi", "pairs", order_from_payload),
        ("digraph", "edges", digraph_from_payload),
    ):
        # a malformed list is refused too, so a guard that fired late
        # would fail here on the message without sizing anything by n
        with pytest.raises(FormatError, match="input limit"):
            read({"kind": kind, "n": huge, key: None})
        with pytest.raises(FormatError, match="input limit"):
            read({"kind": kind, "n": huge, key: []})


def test_size_limit_admits_every_written_payload():
    # g0 digraphs reach MAX_LEVEL_VERTICES and `reduce pg` doubles them
    assert MAX_INPUT_N >= 2 * MAX_LEVEL_VERTICES
    doc = {"kind": "digraph", "n": MAX_INPUT_N, "edges": [[0, 1]]}
    assert digraph_from_payload(doc).n == MAX_INPUT_N
    with pytest.raises(FormatError, match="input limit"):
        digraph_from_payload({**doc, "n": MAX_INPUT_N + 1})


@pytest.mark.parametrize("flag", [True, False])
def test_json_booleans_are_not_ids(flag):
    # bool is a subclass of int, so an isinstance test let these through
    base = crown_order(2)
    with pytest.raises(FormatError, match="not an int pair"):
        order_from_payload({"kind": "quasi", "n": 2, "pairs": [[flag, 0]]})
    with pytest.raises(FormatError, match="not an int pair"):
        order_from_payload({"kind": "quasi", "n": 2, "pairs": [[0, flag]]})
    with pytest.raises(FormatError, match="not an int pair"):
        digraph_from_payload({"kind": "digraph", "n": 2, "edges": [[flag, 1]]})
    with pytest.raises(FormatError, match="not an int pair"):
        family_from_payload({"extensions": [[[flag, 2]]]}, base)
    with pytest.raises(FormatError, match="lists of ints"):
        cover_from_payload({"classes": [[0, flag]]})
    with pytest.raises(FormatError, match="list of ints"):
        homwitness_from_payload({"kind": "homwitness", "map": [0, flag]})

