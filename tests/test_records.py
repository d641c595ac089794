"""Result types: equality, hash, repr, immutability, defaults, validation.

Every value the library hands out is an immutable record: equal fields
give equal objects with equal hashes, objects of different classes never
compare equal, the repr names each field, and construction validates.
"""

from __future__ import annotations

import pickle

import pytest

from orderdim import (
    AcyclicCover,
    Cycle,
    DicrResult,
    Digraph,
    DimResult,
    ExtensionFamily,
    HomCheck,
    HomWitness,
    IncompleteFamily,
    IndexOutOfRange,
    NotADigraph,
    NotExtension,
    NotQuasiOrder,
    NotStrictOrder,
    QuasiOrder,
    QuotientPoset,
    SizeMismatch,
    StrictOrder,
    antichain_order,
    quotient,
)
from orderdim.campaigns import Certificate


def _family():
    return ExtensionFamily(
        antichain_order(2), [QuasiOrder(2, (3, 2)), QuasiOrder(2, (1, 3))]
    )


# (build, field names, exact repr)
RECORDS = {
    "QuasiOrder": (
        lambda: QuasiOrder(2, (3, 2)),
        ("n", "rows"),
        "QuasiOrder(n=2, rows=(3, 2))",
    ),
    "StrictOrder": (
        lambda: StrictOrder(2, (2, 0)),
        ("n", "rows"),
        "StrictOrder(n=2, rows=(2, 0))",
    ),
    "QuotientPoset": (
        lambda: quotient(QuasiOrder(2, (3, 2))),
        ("classes", "class_of", "lt_rows"),
        "QuotientPoset(classes=((0,), (1,)), class_of=(0, 1), lt_rows=(2, 0))",
    ),
    "Digraph": (
        lambda: Digraph(2, (2, 1)),
        ("n", "rows"),
        "Digraph(n=2, rows=(2, 1))",
    ),
    "Cycle": (
        lambda: Cycle((0, 1)),
        ("verts",),
        "Cycle(verts=(0, 1))",
    ),
    "HomWitness": (
        lambda: HomWitness((0, 1), True),
        ("mapping", "minimal"),
        "HomWitness(mapping=(0, 1), minimal=True)",
    ),
    "HomCheck": (
        lambda: HomCheck(False, "x", (0, 1), (0, 1, 2)),
        ("ok", "reason", "pair", "cycle"),
        "HomCheck(ok=False, reason='x', pair=(0, 1), cycle=(0, 1, 2))",
    ),
    "AcyclicCover": (
        lambda: AcyclicCover(((2, 1, 1), (0,))),
        ("classes",),
        "AcyclicCover(classes=((1, 2), (0,)))",
    ),
    "ExtensionFamily": (
        _family,
        ("base", "exts"),
        "ExtensionFamily(base=QuasiOrder(n=2, rows=(1, 2)), "
        "exts=(QuasiOrder(n=2, rows=(3, 2)), QuasiOrder(n=2, rows=(1, 3))))",
    ),
    "DicrResult": (
        lambda: DicrResult(1, AcyclicCover(((0,),))),
        ("k", "witness"),
        "DicrResult(k=1, witness=AcyclicCover(classes=((0,),)))",
    ),
    "DimResult": (
        lambda: DimResult(1, ExtensionFamily(QuasiOrder(1, (1,)), ())),
        ("d", "witness"),
        "DimResult(d=1, witness=ExtensionFamily("
        "base=QuasiOrder(n=1, rows=(1,)), exts=()))",
    ),
    "Certificate": (
        lambda: Certificate("c", 0, {"a": 1}, {}, False, 3, {"n": 2}),
        ("claim", "index", "instance", "witness", "verified", "seed",
         "config"),
        "Certificate(claim='c', index=0, instance={'a': 1}, witness={}, "
        "verified=False, seed=3, config={'n': 2})",
    ),
}

# Certificate holds dicts, so like every record with an unhashable field
# it cannot be hashed
UNHASHABLE = {"Certificate"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_objects_and_hashes(name):
    build, fields, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b and type(a).__name__ == name
    assert a == b and not (a != b)
    values = tuple(getattr(a, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    assert a != values and a != object()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_compared_field(name):
    build, _, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    build, fields, text = RECORDS[name]
    a = build()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert not hasattr(a, "__dict__")
    assert repr(a) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_unknown_attributes_are_refused(name):
    a = RECORDS[name][0]()
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.extra


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_keyword_construction_and_pickle_round_trip(name):
    build, fields, _ = RECORDS[name]
    a = build()
    kwargs = {f: getattr(a, f) for f in fields}
    assert type(a)(**kwargs) == a
    assert type(a)(*kwargs.values()) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_same_fields_in_different_classes_are_not_equal():
    assert QuasiOrder(0, ()) != Digraph(0, ())
    assert Digraph(0, ()) != QuasiOrder(0, ())
    assert StrictOrder(2, (2, 0)) != Digraph(2, (2, 0))
    cover = AcyclicCover(((0,),))
    assert DicrResult(1, cover) != DimResult(1, cover)


def test_each_compared_field_counts():
    assert HomWitness((0, 1)) != HomWitness((0, 1), True)
    assert HomCheck(False, "x") != HomCheck(False, "y")
    assert HomCheck(False, pair=(0, 1)) != HomCheck(False, pair=(1, 0))
    assert HomCheck(False, cycle=(0, 1)) != HomCheck(False, cycle=(1, 0))
    assert QuasiOrder(1, (1,)) != QuasiOrder(2, (1, 2))
    assert Certificate("c", 0, {}, {}, True) != Certificate(
        "c", 0, {}, {}, True, config={"n": 1}
    )


def test_defaults():
    assert HomWitness(mapping=(0,)) == HomWitness((0,), False)
    assert HomWitness((0,)).minimal is False
    check = HomCheck(ok=True)
    assert check.ok and bool(check)
    assert check.reason is None and check.pair is None and check.cycle is None
    assert not HomCheck(False)
    a = Certificate("c", 0, {}, {}, True)
    b = Certificate(claim="c", index=0, instance={}, witness={}, verified=True)
    assert a == b and a.seed is None and a.config == {}
    assert a.config is not b.config


def test_normalisations():
    assert AcyclicCover([[3, 1, 3], []]).classes == ((1, 3), ())
    fam = _family()
    assert isinstance(fam.exts, tuple) and fam.size == 2


INVALID = [
    (QuasiOrder, (2, (3,)), SizeMismatch),
    (QuasiOrder, (-1, ()), IndexOutOfRange),
    (QuasiOrder, (1, (3,)), IndexOutOfRange),
    (QuasiOrder, (2, (1, 1)), NotQuasiOrder),
    (QuasiOrder, (3, (0b011, 0b110, 0b100)), NotQuasiOrder),
    (StrictOrder, (2, (0,)), SizeMismatch),
    (StrictOrder, (1, (1,)), NotStrictOrder),
    (StrictOrder, (3, (0b010, 0b100, 0)), NotStrictOrder),
    (QuotientPoset, (((0,),), (0, 0), (0,)), SizeMismatch),
    (QuotientPoset, (((0,), (0,)), (0, 1), (0, 0)), SizeMismatch),
    (QuotientPoset, (((0,), (1,)), (0, 1), (2, 1)), NotStrictOrder),
    (Digraph, (2, (0,)), NotADigraph),
    (Digraph, (-1, ()), NotADigraph),
    (Digraph, (1, (1,)), NotADigraph),
    (Digraph, (1, (2,)), IndexOutOfRange),
    (Cycle, ((0,),), SizeMismatch),
    (ExtensionFamily, (antichain_order(2), (QuasiOrder(2, (3, 3)),)),
     NotExtension),
    (ExtensionFamily, (QuasiOrder(2, (3, 2)), (QuasiOrder(2, (1, 3)),)),
     NotExtension),
    (ExtensionFamily, (antichain_order(2), (QuasiOrder(2, (3, 2)),)),
     IncompleteFamily),
    # members are checked in turn, size first
    (ExtensionFamily, (antichain_order(2), (QuasiOrder(1, (1,)),)),
     SizeMismatch),
    (ExtensionFamily,
     (antichain_order(2), (QuasiOrder(2, (3, 3)), QuasiOrder(1, (1,)))),
     NotExtension),
    (ExtensionFamily,
     (antichain_order(2), (QuasiOrder(1, (1,)), QuasiOrder(2, (3, 3)))),
     SizeMismatch),
]


@pytest.mark.parametrize("cls, args, error", INVALID)
def test_construction_validates(cls, args, error):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error


def test_validation_errors_carry_their_witness():
    with pytest.raises(NotQuasiOrder) as info:
        QuasiOrder(3, (0b011, 0b110, 0b100))
    assert info.value.witness == (0, 1, 2)
    with pytest.raises(NotQuasiOrder) as info:
        QuasiOrder(2, (1, 1))
    assert info.value.witness == (1, 1, 1) and "not reflexive at 1" in str(
        info.value
    )
    with pytest.raises(IncompleteFamily) as info:
        ExtensionFamily(antichain_order(2), [QuasiOrder(2, (3, 2))])
    assert info.value.pair == (0, 1)
