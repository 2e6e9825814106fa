"""The package's records (``scalars.record``): the dataclass contract they
keep with their slots, and the memory a fact costs in a long chain."""

import dataclasses
import functools
import gc
import inspect
import tracemalloc
from fractions import Fraction

import pytest

from rigidity_forge import cli, cm, codec, engine, gadgets, models, poly, real, scalars, suite
from rigidity_forge.cm import Point, Vec2, rational_point
from rigidity_forge.engine import Distinct, Justification, NonzeroDist, SqDistKnown, Verdict, replay
from rigidity_forge.gadgets import KEMPE_IDENTITIES, AffineComb, CertEntry, DotZero, VecEq, VecScale, build_rhombus_chain
from rigidity_forge.models import Embedding, ModelMap, PairCheck, PreservationReport, StructureReport
from rigidity_forge.scalars import QQ, adjoin_sqrt

F = Fraction

_P, _Q = Point(F(0), F(1)), Point(F(2), F(3))

# one instance of each record, and one of its fields with another value
RECORDS = [
    (_P, "y", F(5)),
    (Vec2(F(1), F(-1)), "x", F(0)),
    (SqDistKnown("A", "B", F(2)), "v", F(3)),
    (Distinct("A", "B"), "q", "C"),
    (NonzeroDist("A", "B"), "p", "C"),
    (AffineComb("C", "A", "B", F(1, 3)), "t", F(2, 3)),
    (VecEq("A", "B", "C", "D"), "d", "E"),
    (VecScale("A", "B", "C", "D", F(2)), "r", F(-2)),
    (DotZero("A", "B", "C", "D"), "a", "E"),
    (Justification("span", (0, 2)), "premises", ()),
    (CertEntry("A", "B", F(1)), "d2", F(4)),
    (PairCheck((_P, _Q), True), "ok", False),
    (Verdict(False, 3, 2, Distinct("A", "B")), "violated_index", 1),
    (PreservationReport(True, (PairCheck((_P, _Q), True),)), "checks", ()),
    (StructureReport(True, True, False, (F(2),)), "homomorphism_ok", True),
    (ModelMap(Embedding("identity")), "embedding", Embedding("function_field")),
    (KEMPE_IDENTITIES[0], "constant", KEMPE_IDENTITIES[0].constant + 1),
    (adjoin_sqrt(QQ, 2), "absorbed", True),
]


def has_no_instance_dict(obj) -> bool:
    return not hasattr(obj, "__dict__")


def test_the_records_are_the_frozen_dataclasses_that_compute_no_field():
    """Every frozen dataclass of the package that computes no field after
    ``__init__`` and caches no property is a record, and each is listed
    above."""
    frozen = set()
    for module in (real, scalars, poly, cm, gadgets, engine, models, codec, suite, cli):
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
                computes = hasattr(cls, "__post_init__") or any(isinstance(v, functools.cached_property) for v in vars(cls).values())
                frozen.add((cls.__name__, not computes))
    records = {type(obj).__name__ for obj, _, _ in RECORDS}
    assert {name for name, is_record in frozen if is_record} == records and len(records) == 18
    assert {name for name, is_record in frozen if not is_record} == {"TowerDesc", "Embedding", "OrthoAffine"}


@pytest.mark.parametrize("obj, name, other", RECORDS, ids=[type(obj).__name__ for obj, _, _ in RECORDS])
def test_a_record_keeps_the_dataclass_contract_on_its_slots(obj, name, other):
    """No instance ``__dict__``; assigning a field raises
    ``FrozenInstanceError``; a copy by position or by keyword compares and
    hashes equal; ``dataclasses.replace`` with no change gives an equal
    record, and with one field changed a record that differs in it alone."""
    cls, names = type(obj), [f.name for f in dataclasses.fields(obj)]
    values = [getattr(obj, n) for n in names]
    assert has_no_instance_dict(obj)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, other)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    assert by_position == by_keyword == obj and hash(by_position) == hash(by_keyword) == hash(obj)
    assert repr(by_keyword) == repr(obj) and by_keyword is not obj
    assert dataclasses.replace(obj) == obj
    changed = dataclasses.replace(obj, **{name: other})
    assert changed != obj and getattr(changed, name) == other
    assert [getattr(changed, n) for n in names if n != name] == [v for n, v in zip(names, values) if n != name]
    assert list(inspect.signature(cls).parameters) == names


def test_defaults_and_missing_arguments_follow_the_fields():
    assert Justification("given").premises == () and Justification("given") == Justification(rule="given", premises=())
    assert Verdict(True, 4) == Verdict(ok=True, checked=4, violated_index=None, violated_fact=None)
    assert ModelMap(Embedding("identity")).frame is None
    with pytest.raises(TypeError):
        SqDistKnown("A", "B")
    with pytest.raises(TypeError):
        Justification("given", (), "extra")
    with pytest.raises(TypeError):
        Justification(rule="given", note="extra")


def test_the_no_dict_check_catches_a_plain_frozen_dataclass():
    @dataclasses.dataclass(frozen=True)
    class Plain:
        p: str

    assert not has_no_instance_dict(Plain("A"))
    assert has_no_instance_dict(Distinct("A", "B"))


def _retained(build):
    """``build()`` and the bytes it leaves allocated, by ``tracemalloc``,
    after a full collection, which also empties the interpreter's free
    lists of the temporaries it freed."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_fact_of_a_long_chain_retains_a_bounded_number_of_bytes():
    """Per fact of the span-640 side-1 chain (3,842 facts), the derivation
    that ``replay`` returns retains at most 200 bytes, and the one
    ``codec.decode_document`` reads from its file, with its gadget, at most
    700: a record per fact and per justification, slotted, with no instance
    dict.  Plain frozen dataclasses read 246 and 746 on Python 3.11 (371 and
    923 on 3.10), slotted records 162 and 632 (170 and 639).  Run alone in
    CI: caches that earlier tests fill hold no bytes counted here."""
    a, b, c, d = rational_point(0, 0), rational_point(640, 0), rational_point(0, 1), rational_point(640, 1)
    gadget = build_rhombus_chain(a, b, c, d)
    derivation, replayed = _retained(lambda: replay(gadget))
    facts = len(derivation.facts)
    text = codec.dumps(codec.encode_derivation(derivation))
    decoded, read = _retained(lambda: codec.decode_document(text))
    assert facts == len(decoded.facts) == 3842
    assert replayed / facts <= 200, replayed / facts
    assert read / facts <= 700, read / facts
