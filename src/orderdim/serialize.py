"""Canonical JSON forms for every instance kind the tool reads or writes.

Orders travel as {"kind":"quasi","n":N,"pairs":[[i,j],...],"closure":bool}
with the diagonal implied; digraphs as {"kind":"digraph","n":N,"edges":...}
and self-loops are a hard error. Covers are {"classes":[[...],...]},
extension families {"extensions":[pairs-list,...]} against a base given
separately, homomorphism witnesses
{"kind":"homwitness","map":[...],"minimal":bool}. Serialization is
canonical (sorted keys, no spaces), so fixed seeds give fixed bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .digraphs import Digraph, HomWitness
from .errors import IndexOutOfRange, OrderdimError
from .reduction import AcyclicCover, ExtensionFamily
from .relations import QuasiOrder, bits_of, close_rows


# Largest element or vertex count an instance may declare. It admits
# every payload the package writes (g0 digraphs reach 4,096 vertices and
# `reduce pg` refuses a digraph whose doubling would pass it) and is
# checked before anything is sized by n.
MAX_INPUT_N = 1 << 14


class FormatError(OrderdimError):
    """Instance text does not parse or misses required fields."""


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _off_diagonal_pairs(rows) -> list[list[int]]:
    """[i, j] for each bit j != i of each rows[i], in lexicographic order."""
    return [
        [i, j] for i, row in enumerate(rows) for j in bits_of(row & ~(1 << i))
    ]


def order_payload(q: QuasiOrder) -> dict:
    return {
        "kind": "quasi",
        "n": q.n,
        "pairs": _off_diagonal_pairs(q.rows),
        "closure": False,
    }


def digraph_payload(d: Digraph) -> dict:
    # a digraph row never holds its own bit, so none is dropped
    return {"kind": "digraph", "n": d.n, "edges": _off_diagonal_pairs(d.rows)}


def cover_payload(c: AcyclicCover) -> dict:
    return {"classes": [list(cls) for cls in c.classes]}


def family_payload(f: ExtensionFamily) -> dict:
    return {"extensions": [_off_diagonal_pairs(e.rows) for e in f.exts]}


def homwitness_payload(w: HomWitness) -> dict:
    return {"kind": "homwitness", "map": list(w.mapping), "minimal": w.minimal}


def parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None


def _read_pairs(raw, what: str, rows: list[int]):
    """OR each [i, j] item of raw into rows[i] as bit j, in one pass.

    A malformed item anywhere raises FormatError at once, naming the
    first one. Self-loops and pairs outside 0..len(rows) - 1 are left to
    the caller, which raises in its own order: returns the first
    self-loop item and the first out-of-range one, each None if none.
    """
    if not isinstance(raw, list):
        raise FormatError(f"{what} must be a list of pairs")
    n = len(rows)
    loop = outside = None
    for item in raw:
        if isinstance(item, list) and len(item) == 2:
            i, j = item
            # type() and not isinstance(): JSON true and false are bools
            if type(i) is int and type(j) is int:
                if 0 <= i < n and 0 <= j < n:
                    rows[i] |= 1 << j
                elif outside is None:
                    outside = item
                if i == j and loop is None:
                    loop = item
                continue
        raise FormatError(f"{what} entry {item!r} is not an int pair")
    return loop, outside


def _outside(what: str, item, n: int) -> IndexOutOfRange:
    return IndexOutOfRange(f"{what} ({item[0]}, {item[1]}) outside 0..{n - 1}")


def _declared_n(doc: dict) -> int:
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise FormatError('"n" must be a non-negative int')
    if n > MAX_INPUT_N:
        raise FormatError(
            f'"n" is {n}, above the input limit of {MAX_INPUT_N}'
        )
    return n


def order_from_payload(doc: Any) -> QuasiOrder:
    if not isinstance(doc, dict) or doc.get("kind") != "quasi":
        raise FormatError('expected an object with "kind": "quasi"')
    n = _declared_n(doc)
    rows = [1 << i for i in range(n)]
    _, outside = _read_pairs(doc.get("pairs", []), "pairs", rows)
    closure = doc.get("closure", False)
    if not isinstance(closure, bool):
        raise FormatError('"closure" must be a bool')
    if outside is not None:
        raise _outside("pair", outside, n)
    if closure:
        close_rows(rows, n)
    return QuasiOrder(n, tuple(rows))


def digraph_from_payload(doc: Any) -> Digraph:
    if not isinstance(doc, dict) or doc.get("kind") != "digraph":
        raise FormatError('expected an object with "kind": "digraph"')
    n = _declared_n(doc)
    rows = [0] * n
    loop, outside = _read_pairs(doc.get("edges", []), "edges", rows)
    if loop is not None:
        raise FormatError(f"self-loop at {loop[0]} is not allowed")
    if outside is not None:
        raise _outside("edge", outside, n)
    return Digraph(n, tuple(rows))


def cover_from_payload(doc: Any) -> AcyclicCover:
    if not isinstance(doc, dict) or "classes" not in doc:
        raise FormatError('expected an object with "classes"')
    classes = doc["classes"]
    if not isinstance(classes, list) or not all(
        isinstance(c, list) and all(type(v) is int for v in c)
        for c in classes
    ):
        raise FormatError('"classes" must be lists of ints')
    return AcyclicCover(tuple(tuple(c) for c in classes))


def family_from_payload(doc: Any, base: QuasiOrder) -> ExtensionFamily:
    if not isinstance(doc, dict) or "extensions" not in doc:
        raise FormatError('expected an object with "extensions"')
    if not isinstance(doc["extensions"], list):
        raise FormatError('"extensions" must be a list')
    n = base.n
    exts = []
    for raw in doc["extensions"]:
        rows = [1 << i for i in range(n)]
        _, outside = _read_pairs(raw, "extension", rows)
        if outside is not None:
            raise _outside("pair", outside, n)
        exts.append(QuasiOrder(n, tuple(rows)))
    return ExtensionFamily(base, tuple(exts))


def homwitness_from_payload(doc: Any) -> HomWitness:
    if not isinstance(doc, dict) or doc.get("kind") != "homwitness":
        raise FormatError('expected an object with "kind": "homwitness"')
    raw = doc.get("map")
    if not isinstance(raw, list) or not all(type(v) is int for v in raw):
        raise FormatError('"map" must be a list of ints')
    minimal = doc.get("minimal", False)
    if not isinstance(minimal, bool):
        raise FormatError('"minimal" must be a bool')
    return HomWitness(tuple(raw), minimal)
