"""The result records' public behaviour, pinned by value.

Nine records carry the library's results: `ClassDesc`, `LUPair`,
`DeleteRow`, `Eliminate`, `NevilleTrace`, `TnnReport`, `MinorTerm`,
`TermIdentity` and `EchelonReport`.  Each is held here to its exact repr,
to construction by position and by keyword with its defaults, to
immutability, to equal hashes for equal records, and to a pickle round
trip under every protocol from 2 (protocols 0 and 1 cannot pickle the
`Mat` in an `LUPair`, whose class has `__slots__`).  `ClassDesc` coerces
its leader sets to `IndexSet` and `MinorTerm` checks its minors' shapes,
each with its exact error text.
"""

import pickle
from fractions import Fraction

import pytest

from conftest import EchelonReport
from tnnlu import (
    ClassDesc,
    DeleteRow,
    Eliminate,
    IndexSet,
    LUPair,
    Mat,
    MinorTerm,
    NevilleTrace,
    TermIdentity,
    TnnReport,
)

DESC = ClassDesc(IndexSet((1,)), IndexSet((1,)))
TERM = MinorTerm(Fraction(-1), ((1,), (2,)), ((2,), (1,)))

# (record, its fields by name, its exact repr)
RECORDS = [
    (
        ClassDesc([1, 2], [1, 3]),
        {"r": IndexSet((1, 2)), "c": IndexSet((1, 3))},
        "ClassDesc(r=IndexSet((1, 2)), c=IndexSet((1, 3)))",
    ),
    (
        LUPair(Mat.identity(1), Mat.from_rows([[2]]), DESC),
        {"L": Mat.identity(1), "U": Mat.from_rows([[2]]), "desc": DESC},
        "LUPair(L=Mat(1x1: 1), U=Mat(1x1: 2), desc=ClassDesc(r=IndexSet((1,)), c=IndexSet((1,))))",
    ),
    (DeleteRow(2), {"i": 2}, "DeleteRow(i=2)"),
    (
        Eliminate(1, 2, Fraction(1, 3)),
        {"s": 1, "t": 2, "multiplier": Fraction(1, 3)},
        "Eliminate(s=1, t=2, multiplier=Fraction(1, 3))",
    ),
    (
        NevilleTrace((DeleteRow(2),)),
        {"moves": (DeleteRow(2),), "stages": None},
        "NevilleTrace(moves=(DeleteRow(i=2),), stages=None)",
    ),
    (TnnReport(True), {"is_tnn": True, "witness": None}, "TnnReport(is_tnn=True, witness=None)"),
    (
        TnnReport(False, (IndexSet((1,)), IndexSet((2,)), Fraction(-1, 2))),
        {"is_tnn": False, "witness": (IndexSet((1,)), IndexSet((2,)), Fraction(-1, 2))},
        "TnnReport(is_tnn=False, witness=(IndexSet((1,)), IndexSet((2,)), Fraction(-1, 2)))",
    ),
    (
        TERM,
        {"coefficient": Fraction(-1), "first": ((1,), (2,)), "second": ((2,), (1,))},
        "MinorTerm(coefficient=Fraction(-1, 1), first=((1,), (2,)), second=((2,), (1,)))",
    ),
    (
        TermIdentity((TERM,)),
        {"terms": (TERM,)},
        "TermIdentity(terms=(MinorTerm(coefficient=Fraction(-1, 1), first=((1,), (2,)), second=((2,), (1,))),))",
    ),
    (
        EchelonReport(True, False, IndexSet((1,))),
        {"is_echelon": True, "is_strict": False, "pivots": IndexSet((1,))},
        "EchelonReport(is_echelon=True, is_strict=False, pivots=IndexSet((1,)))",
    ),
]
IDS = [text.split("(")[0] + str(k) for k, (_, _, text) in enumerate(RECORDS)]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr_fields_and_construction(record, fields, text):
    assert repr(record) == text
    assert {name: getattr(record, name) for name in fields} == fields
    cls = type(record)
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for other in (by_keyword, by_position):
        assert type(other) is cls and other == record and hash(other) == hash(record)
        assert repr(other) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, fields, text):
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_pickle_round_trip(record, fields, text):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record and hash(back) == hash(record)
        assert repr(back) == text


def test_defaults():
    assert TnnReport(True).witness is None
    assert TnnReport(is_tnn=False).witness is None
    assert NevilleTrace(moves=()).stages is None
    assert NevilleTrace(()) == NevilleTrace((), None)


def test_class_desc_coerces_its_leader_sets():
    desc = ClassDesc([1, 2], (1, 3))
    assert type(desc.r) is IndexSet and type(desc.c) is IndexSet
    assert desc == ClassDesc(r=IndexSet((1, 2)), c=IndexSet((1, 3)))
    assert hash(desc) == hash(ClassDesc(IndexSet((1, 2)), IndexSet((1, 3))))
    kept = IndexSet((2,))
    assert ClassDesc(kept, [1]).r is kept
    empty = ClassDesc([], [])
    assert empty.r == IndexSet() and type(empty.c) is IndexSet


@pytest.mark.parametrize(
    "r, c, message",
    [
        ([1], [1, 2], "leader sets must have equal cardinality: IndexSet((1,)), IndexSet((1, 2))"),
        ((1, 3), (), "leader sets must have equal cardinality: IndexSet((1, 3)), IndexSet(())"),
        ([2, 1], [1, 2], "indices must be strictly ascending, got (2, 1)"),
        ([1], [0], "indices must be positive integers, got 0"),
    ],
)
def test_class_desc_error_texts(r, c, message):
    with pytest.raises(ValueError) as caught:
        ClassDesc(r, c)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        ClassDesc(r=r, c=c)
    assert str(caught.value) == message


def test_minor_term_error_texts():
    with pytest.raises(ValueError) as caught:
        MinorTerm(1, ((1,), (1, 2)), ((), ()))
    assert str(caught.value) == "minor needs equal-cardinality index sets: (1,), (1, 2)"
    with pytest.raises(ValueError) as caught:
        MinorTerm(coefficient=1, first=((1,), (2,)), second=([1, 2], [3]))
    assert str(caught.value) == "minor needs equal-cardinality index sets: [1, 2], [3]"
