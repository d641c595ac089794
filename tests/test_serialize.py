"""Canonical JSON payloads for every transferable object."""

from __future__ import annotations

import json
from functools import partial

import pytest

from orderdim import AcyclicCover, HomWitness, crown_order, directed_cycle
from orderdim.generate import antichain_order
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


def test_parse_json_refuses_nesting_past_the_recursion_limit():
    with pytest.raises(FormatError, match="^not valid JSON"):
        parse_json("[" * 100_000 + "]" * 100_000)


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


# Items of the mixed-defect payloads below: a good pair, two malformed
# items, a self-loop, two pairs out of range for n = 3 and a self-loop
# out of range.
_ITEMS = {
    "G": [0, 1],
    "M": ["a", 0],
    "N": [1, 2, 0],
    "S": [2, 2],
    "R": [0, 3],
    "L": [-1, 0],
    "X": [3, 3],
}
_CODES = ["", "M", "S", "R", "X"] + [
    a + b for a in "MSRX" for b in "MSRX" if a != b
] + ["RSM", "SRM", "XRM", "RXS", "MXR", "NL", "LN", "SL", "LS", "MN", "NM"]


def _items(code: str) -> list:
    """The defects of code, in its order, between good pairs."""
    return [_ITEMS[c] for c in "G" + "G".join(code) + "G"]


def _mixed_payload_cases():
    """(key, call) for order, digraph and family payloads on 3 points
    whose items mix the defects of a code in its order; the order ones
    with "closure" left out and with a bad one."""
    base = antichain_order(3)
    for code in _CODES:
        pairs = _items(code)
        for closure in ("", ":yes"):
            doc = {"kind": "quasi", "n": 3, "pairs": pairs}
            if closure:
                doc["closure"] = "yes"
            yield f"order:{code}" + closure, partial(order_from_payload, doc)
        doc = {"kind": "digraph", "n": 3, "edges": pairs}
        yield f"digraph:{code}", partial(digraph_from_payload, doc)
        doc = {"extensions": [pairs]}
        yield f"family:{code}", partial(family_from_payload, doc, base)
    # one extension after another, T intransitive
    exts = {"M": [_ITEMS["M"]], "R": [_ITEMS["R"]], "T": [[0, 1], [1, 2]]}
    for a in "MRT":
        for b in "MRT":
            if a != b:
                doc = {"extensions": [exts[a], exts[b]]}
                read = partial(family_from_payload, doc, base)
                yield f"family:{a}|{b}", read
    for code in ("MT", "TM", "RT", "TR"):
        bad = [_ITEMS[code.replace("T", "")]]
        pairs = exts["T"] + bad if code[0] == "T" else bad + exts["T"]
        doc = {"extensions": [pairs]}
        yield f"family:{code}", partial(family_from_payload, doc, base)
    doc = {"kind": "quasi", "n": 3, "pairs": None, "closure": "yes"}
    yield "order:None:yes", partial(order_from_payload, doc)
    doc = {"kind": "digraph", "n": 3, "edges": {"a": 1}}
    yield "digraph:dict", partial(digraph_from_payload, doc)
    yield "family:5", partial(family_from_payload, {"extensions": [5]}, base)


def _outcome(call) -> str:
    try:
        call()
    except Exception as exc:  # the type and message are what is pinned
        return f"{type(exc).__name__}: {exc}"
    return "ok"


# Recorded before the readers listed and checked their items in one pass:
# a malformed item anywhere in a list comes first, then a bad "closure"
# or the first self-loop, then the first pair out of range; a family
# reads its extensions one after another.
PARSE_OUTCOMES = {
    'order:': 'ok',
    'order::yes': 'FormatError: "closure" must be a bool',
    'digraph:': 'ok',
    'family:': 'IncompleteFamily: pair (0, 1) undecided by the family',
    'order:M': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:M:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:M': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:M': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:S': 'ok',
    'order:S:yes': 'FormatError: "closure" must be a bool',
    'digraph:S': 'FormatError: self-loop at 2 is not allowed',
    'family:S': 'IncompleteFamily: pair (0, 1) undecided by the family',
    'order:R': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:R:yes': 'FormatError: "closure" must be a bool',
    'digraph:R': 'IndexOutOfRange: edge (0, 3) outside 0..2',
    'family:R': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:X': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:X:yes': 'FormatError: "closure" must be a bool',
    'digraph:X': 'FormatError: self-loop at 3 is not allowed',
    'family:X': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:MS': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:MS:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:MS': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:MS': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:MR': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:MR:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:MR': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:MR': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:MX': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:MX:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:MX': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:MX': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:SM': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:SM:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:SM': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:SM': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:SR': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:SR:yes': 'FormatError: "closure" must be a bool',
    'digraph:SR': 'FormatError: self-loop at 2 is not allowed',
    'family:SR': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:SX': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:SX:yes': 'FormatError: "closure" must be a bool',
    'digraph:SX': 'FormatError: self-loop at 2 is not allowed',
    'family:SX': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:RM': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:RM:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:RM': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:RM': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:RS': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:RS:yes': 'FormatError: "closure" must be a bool',
    'digraph:RS': 'FormatError: self-loop at 2 is not allowed',
    'family:RS': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:RX': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:RX:yes': 'FormatError: "closure" must be a bool',
    'digraph:RX': 'FormatError: self-loop at 3 is not allowed',
    'family:RX': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:XM': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:XM:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:XM': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:XM': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:XS': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:XS:yes': 'FormatError: "closure" must be a bool',
    'digraph:XS': 'FormatError: self-loop at 3 is not allowed',
    'family:XS': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:XR': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:XR:yes': 'FormatError: "closure" must be a bool',
    'digraph:XR': 'FormatError: self-loop at 3 is not allowed',
    'family:XR': 'IndexOutOfRange: pair (3, 3) outside 0..2',
    'order:RSM': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:RSM:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:RSM': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:RSM': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:SRM': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:SRM:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:SRM': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:SRM': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:XRM': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:XRM:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:XRM': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:XRM': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:RXS': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:RXS:yes': 'FormatError: "closure" must be a bool',
    'digraph:RXS': 'FormatError: self-loop at 3 is not allowed',
    'family:RXS': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:MXR': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:MXR:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:MXR': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:MXR': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:NL': 'FormatError: pairs entry [1, 2, 0] is not an int pair',
    'order:NL:yes': 'FormatError: pairs entry [1, 2, 0] is not an int pair',
    'digraph:NL': 'FormatError: edges entry [1, 2, 0] is not an int pair',
    'family:NL': 'FormatError: extension entry [1, 2, 0] is not an int pair',
    'order:LN': 'FormatError: pairs entry [1, 2, 0] is not an int pair',
    'order:LN:yes': 'FormatError: pairs entry [1, 2, 0] is not an int pair',
    'digraph:LN': 'FormatError: edges entry [1, 2, 0] is not an int pair',
    'family:LN': 'FormatError: extension entry [1, 2, 0] is not an int pair',
    'order:SL': 'IndexOutOfRange: pair (-1, 0) outside 0..2',
    'order:SL:yes': 'FormatError: "closure" must be a bool',
    'digraph:SL': 'FormatError: self-loop at 2 is not allowed',
    'family:SL': 'IndexOutOfRange: pair (-1, 0) outside 0..2',
    'order:LS': 'IndexOutOfRange: pair (-1, 0) outside 0..2',
    'order:LS:yes': 'FormatError: "closure" must be a bool',
    'digraph:LS': 'FormatError: self-loop at 2 is not allowed',
    'family:LS': 'IndexOutOfRange: pair (-1, 0) outside 0..2',
    'order:MN': "FormatError: pairs entry ['a', 0] is not an int pair",
    'order:MN:yes': "FormatError: pairs entry ['a', 0] is not an int pair",
    'digraph:MN': "FormatError: edges entry ['a', 0] is not an int pair",
    'family:MN': "FormatError: extension entry ['a', 0] is not an int pair",
    'order:NM': 'FormatError: pairs entry [1, 2, 0] is not an int pair',
    'order:NM:yes': 'FormatError: pairs entry [1, 2, 0] is not an int pair',
    'digraph:NM': 'FormatError: edges entry [1, 2, 0] is not an int pair',
    'family:NM': 'FormatError: extension entry [1, 2, 0] is not an int pair',
    'family:M|R': "FormatError: extension entry ['a', 0] is not an int pair",
    'family:M|T': "FormatError: extension entry ['a', 0] is not an int pair",
    'family:R|M': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'family:R|T': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'family:T|M': 'NotQuasiOrder: transitivity fails at (0, 1, 2)',
    'family:T|R': 'NotQuasiOrder: transitivity fails at (0, 1, 2)',
    'family:MT': "FormatError: extension entry ['a', 0] is not an int pair",
    'family:TM': "FormatError: extension entry ['a', 0] is not an int pair",
    'family:RT': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'family:TR': 'IndexOutOfRange: pair (0, 3) outside 0..2',
    'order:None:yes': 'FormatError: pairs must be a list of pairs',
    'digraph:dict': 'FormatError: edges must be a list of pairs',
    'family:5': 'FormatError: extension must be a list of pairs',
}


def test_mixed_defect_payloads_keep_their_errors():
    got = {key: _outcome(call) for key, call in _mixed_payload_cases()}
    assert got == PARSE_OUTCOMES
