"""Bit-exact serialization round-trips and schema enforcement."""

import hashlib
import json
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidity_forge import codec, suite
from rigidity_forge.cm import Point, rational_point, sqdist
from rigidity_forge.engine import recheck_derivation, replay
from rigidity_forge.gadgets import (
    CertEntry,
    build_division,
    build_kempe,
    build_perp_transfer,
    build_rhombus_chain,
    build_translation_bridge,
)
from rigidity_forge.models import ModelMap, conjugation_model, eps_rotation_model, identity_model, make_pythagorean_rotation
from rigidity_forge.scalars import QQ, FunElem, TowerElem, adjoin_sqrt

from conftest import DERANDOMIZED
from harness import DELETE, edit, node_paths

F = Fraction


def gadget_corpus():
    root2 = adjoin_sqrt(QQ, 2)
    return [
        build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2)),
        build_division(rational_point(0, 0), rational_point(2, 0), F(7, 9)),
        build_rhombus_chain(rational_point(0, 0), rational_point(5, 0), rational_point(0, 1), rational_point(5, 1)),
        build_translation_bridge(
            rational_point(0, 0),
            rational_point(1, 0),
            Point(root2.root, root2.root + 1),
            Point(root2.root + 1, root2.root + 1),
        ),
        build_kempe(F(1)),
        build_kempe(F(3, 4)),
        build_perp_transfer(rational_point(0, 0), rational_point(0, F(12, 5)), rational_point(0, 0), rational_point(4, 0)),
    ]


@pytest.mark.parametrize("gadget", gadget_corpus(), ids=lambda g: g.layout["kind"])
def test_gadget_round_trip_is_structural_identity(gadget):
    text = codec.dumps(codec.encode_gadget(gadget))
    decoded = codec.decode_gadget(codec.load_document(text))
    assert decoded == gadget
    # encoding again yields byte-identical text
    assert codec.dumps(codec.encode_gadget(decoded)) == text


def test_record_fields_are_read_off_their_declared_types():
    """The codec's per-record field table, read off each field's declared
    type (a string under postponed annotations), is the table that
    ``typing.get_type_hints`` gives, for every fact kind and the
    certificate entry, with at least one rational field among them."""
    table = codec._FIELDS
    assert set(table) == {*codec.FACT_KINDS.values(), CertEntry}
    for cls, columns in table.items():
        hints = get_type_hints(cls)
        assert columns == tuple((f.name, hints[f.name] is Fraction) for f in fields(cls)), cls
    assert any(rational for columns in table.values() for _, rational in columns)


def test_rational_strings_survive_exactly():
    for value in (F(1, 3), F(-22, 7), F(5), F(0), F(-1, 999983)):
        assert codec.decode_rational(codec.encode_rational(value)) == value


def test_rational_rejects_decimals_and_garbage():
    for bad in ("0.5", "1e3", "", "1/0", "1/-2", "--1", "½", "1/4\n", "١٢"):
        with pytest.raises(codec.SchemaViolation):
            codec.decode_rational(bad)


def test_rational_parser_agrees_with_fraction_of_text():

    @settings(DERANDOMIZED, max_examples=100)
    @given(
        st.builds(
            lambda sign, num, den: sign + num + ("" if den is None else f"/{den}"),
            st.sampled_from(["", "-"]),
            st.text("0123456789", min_size=1, max_size=40),
            st.none() | st.integers(min_value=1, max_value=10**40),
        )
    )
    @example("6/4")
    @example("-0")
    @example("007")
    @example("-12/8")
    @example("0/5")
    def run(text):
        value = codec.decode_rational(text)
        assert type(value) is Fraction
        assert value == Fraction(text)

    run()


def fraction_decode_coords(tower, coords):
    """The coordinate decoder through ``Fraction`` and ``TowerElem.__init__``:
    the reference for ``codec._decode_coords``."""
    return TowerElem(tower, tuple(Fraction(c) for c in coords))


def fraction_encode_coords(x):
    """The coordinate encoder through ``TowerElem.coords``: the reference for
    ``codec._encode_coords``."""
    return [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in x.coords]


def test_coordinates_decode_to_the_fraction_path_canonical_form():

    tower = adjoin_sqrt(adjoin_sqrt(QQ, 2).tower, 3).tower
    text = st.builds(
        lambda sign, num, den: sign + num + ("" if den is None else f"/{den}"),
        st.sampled_from(["", "-"]),
        st.text("0123456789", min_size=1, max_size=12),
        st.none() | st.integers(min_value=1, max_value=10**12),
    )

    @settings(DERANDOMIZED, max_examples=150)
    @given(st.lists(text, min_size=4, max_size=4))
    @example(["6/4", "-0", "0/5", "007"])
    @example(["-12/8", "1/3", "5/6", "-7/10"])
    @example(["0", "-0", "0/5", "0/1"])
    @example(["4/2", "9/3", "-8/4", "10/5"])
    @example(["7" * 4000, "1/" + "7" * 4000, f"-{'3' * 4000}/{'9' * 4000}", "2/" + "3" * 3999])
    def run(coords):
        oracle = fraction_decode_coords(tower, coords)
        for value in (codec._decode_coords(tower, coords, "c", {}), codec.decode_tower_elem({"gens": [["2"], ["3", "0"]], "coords": coords})):
            assert (value._n, value._d) == (oracle._n, oracle._d)
            assert hash(value) == hash(oracle) and value == oracle
            assert codec._encode_coords(value) == fraction_encode_coords(oracle)

    run()
    for text in ("6/4", "-0", "0/5", "007", "-12/8"):
        value, oracle = codec._decode_coords(QQ, [text], "c", {}), fraction_decode_coords(QQ, [text])
        assert (value._n, value._d) == (oracle._n, oracle._d)
        assert hash(value) == hash(oracle) == hash(Fraction(text))


def test_coordinate_codec_builds_no_fraction_on_the_corpus(count_fractions_within):
    corpus = suite.replay_corpus()
    documents = [codec.dumps(codec.encode_derivation(entry.derivation)) for entry in corpus]
    this = sys.modules[__name__]
    counts = count_fractions_within([(codec, "_encode_coords"), (codec, "_decode_coords"), (this, "fraction_decode_coords")])
    assert [codec.dumps(codec.encode_derivation(codec.decode_derivation(codec.load_document(text)))) for text in documents] == documents
    points = sum(len(entry.gadget.points) for entry in corpus)
    assert counts["_decode_coords"]["calls"] >= 2 * points
    assert counts["_encode_coords"]["calls"] >= 2 * points
    assert counts["_decode_coords"]["fractions"] == counts["_encode_coords"]["fractions"] == 0
    # the counter does see the Fractions of the oracle
    this.fraction_decode_coords(QQ, ["1/2"])
    assert counts["fraction_decode_coords"]["fractions"] > 0


def test_rational_digit_limit_boundary():
    at_limit, past_limit = "7" * 4000, "7" * 4001
    for text in (at_limit, "-" + at_limit, "1/" + at_limit, f"-{at_limit}/{at_limit}"):
        assert codec.decode_rational(text) == Fraction(text)
    for text in (past_limit, "-" + past_limit, "1/" + past_limit):
        with pytest.raises(codec.SchemaViolation, match="more than 4000 digits"):
            codec.decode_rational(text)


def test_dumps_is_json_dumps_with_indent_2():
    """The emitter against its oracle on arbitrary JSON trees."""

    text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é\u2028€😀') | st.characters(), max_size=8)
    scalars = st.none() | st.booleans() | st.integers(min_value=-(10**80), max_value=10**80) | text
    trees = st.recursive(
        scalars, lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4), max_leaves=25
    )

    @settings(DERANDOMIZED, max_examples=120)
    @given(trees)
    @example([])
    @example({})
    @example({"": [], "a": {}, "b": [[], {}, [[{}]]]})
    @example(["\ud800", "\udfff\ud800", {"\x00\"\\": "\x1f\u2028"}])
    @example([True, False, None, 0, -1, 10**3999, -(10**3999)])
    @example([3, True, -7, False, [], 0, {}, [1, -(10**40), [False, 2]], {"k": [5, True, [], -1]}, -2])
    @example("top-level string")
    def run(tree):
        assert codec.dumps(tree) == json.dumps(tree, indent=2)

    run()


def test_dumps_never_runs_json_pure_python_encoder(monkeypatch):
    """json encodes with an indent in pure Python; the emitter never calls it."""
    chain = build_rhombus_chain(rational_point(0, 0), rational_point(80, 0), rational_point(0, 1), rational_point(80, 1))
    derivations = [entry.derivation for entry in suite.replay_corpus()] + [replay(chain)]
    documents = [codec.encode_derivation(d) for d in derivations]
    expected = [json.dumps(doc, indent=2) for doc in documents]

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({"a": [1]}, indent=2)
    assert [codec.dumps(doc) for doc in documents] == expected


def test_dumps_writes_literals_itself(monkeypatch):
    """Empty containers at several depths, null, true and false are written
    without ``json.dumps``: a replayed span-10 chain, whose axiom steps all
    cite ``"premises": []``, takes no call at all."""
    pt = rational_point
    document = codec.encode_derivation(replay(build_rhombus_chain(pt(0, 0), pt(10, 0), pt(0, 1), pt(10, 1))))
    assert sum(step["premises"] == [] for step in document["facts"]) > 40
    trees = [
        document,
        None,
        True,
        False,
        [],
        {},
        [None, True, False, [], {}],
        {"a": {"b": {"c": [[], {}, None, False, True]}}, "e": [[[[]]], {}], "f": {"": {}}, "g": 0},
    ]
    expected = [json.dumps(tree, indent=2) for tree in trees]
    calls, real = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    assert [codec.dumps(tree) for tree in trees] == expected
    assert calls == []
    # the counter does see the fallback, for what no encoder produces
    assert codec.dumps([0.5]) == "[\n  0.5\n]" and len(calls) == 1


_SWEEP_VALUES = (None, True, False, 0, "x", "1/0", [], {}, DELETE)


def test_decode_messages_are_pinned():
    """Every single-node edit (a value of ``_SWEEP_VALUES`` or a deletion) of
    the first corpus derivation (a division over Q(sqrt(3/4))) and of a span-5
    chain gadget, decoded: each outcome, ``ok`` or the exception's type and
    message, in order.  The digest is that of the decoder that formatted
    every location on the success path too, so each message, bool premises
    included, is the one it gave."""
    pt = rational_point
    texts = [
        codec.dumps(codec.encode_derivation(suite.replay_corpus()[0].derivation)),
        codec.dumps(codec.encode_gadget(build_rhombus_chain(pt(0, 0), pt(5, 0), pt(0, 1), pt(5, 1)))),
    ]
    outcomes = [outcome for text in texts for outcome in _sweep_outcomes(text, _SWEEP_VALUES)]
    assert (len(outcomes), sum(o != "ok" for o in outcomes), len(set(outcomes))) == (4392, 4296, 1999)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == "3caf6788db6cf674b5d560db3253be00153cf1806d9792fa6c300ec185e8e5c2"
    for line in (
        "SchemaViolation: facts[4].premises: expected a list of fact indices",
        "SchemaViolation: facts[3].fact.v: expected an exact rational string, got list",
        "SchemaViolation: facts[12].fact.a: unknown point False",
        "SchemaViolation: certificate[10].d2: not an exact rational (p or p/q): '1/0'",
        "SchemaViolation: certificate[0]: missing field 'd2'",
        "SchemaViolation: points.A.x: expected 2 coordinates",
        "SchemaViolation: points.A2.y[1]: not an exact rational (p or p/q): 'x'",
        "SchemaViolation: field.gens[0][0]: not an exact rational (p or p/q): 'x'",
        "EngineError: derivation is not acyclic",
    ):
        assert line in outcomes, line


def _sweep_outcomes(text, values):
    """Each single-node edit of the document ``text`` (a value of ``values``
    or a deletion), decoded: ``ok`` or the exception's type and message."""
    outcomes = []
    for path in node_paths(json.loads(text)):
        for value in values:
            try:
                codec.decode_document(json.dumps(edit(json.loads(text), path, value)))
                outcomes.append("ok")
            except Exception as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def test_chain_derivation_decode_messages_are_pinned():
    """The sweep of ``test_decode_messages_are_pinned`` over a replayed span-2
    chain derivation, whose facts are SqDistKnown, VecEq, NonzeroDist and
    Distinct records and whose every rational field holds ``"1"``: with two
    more values, a rational string that occurs elsewhere in the document and
    a point name, each put where the other belongs.  The digest is that of
    the decoder that parsed every rational field on its own."""
    pt = rational_point
    text = codec.dumps(codec.encode_derivation(replay(build_rhombus_chain(pt(0, 0), pt(2, 0), pt(0, 1), pt(2, 1)))))
    outcomes = _sweep_outcomes(text, _SWEEP_VALUES + ("1", "A0"))
    assert (len(outcomes), sum(o != "ok" for o in outcomes), len(set(outcomes))) == (2464, 2320, 1029)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == "19c4255c334d008c9352db5b7cb2debed99420ea5c6a6e76b7c8bc6b5c938d3d"
    for line in (
        "SchemaViolation: facts[0].fact.v: not an exact rational (p or p/q): 'A0'",
        "SchemaViolation: facts[7].fact.q: unknown point '1'",
        "SchemaViolation: facts[8].fact: kind 'A0' is not one of SqDistKnown, Distinct, NonzeroDist, VecEq, VecScale, AffineComb, DotZero",
        "SchemaViolation: facts[12].fact.a: unknown point '1'",
        "SchemaViolation: certificate[3].d2: not an exact rational (p or p/q): 'A0'",
        "SchemaViolation: certificate[0].p: unknown point 'A0'",
    ):
        assert line in outcomes, line


def test_a_float_deep_in_a_layout_names_its_location():
    """Locations are formatted only for a failure's message: a float at
    ``layout.sub[0].side_sq`` of a bridge, handed to ``decode_gadget`` as a
    dict (no JSON text, so the document-level float check does not run),
    still fails naming the whole path."""
    pt = rational_point
    doc = json.loads(codec.dumps(codec.encode_gadget(build_translation_bridge(pt(0, 0), pt(3, 0), pt(1, 1), pt(4, 1)))))
    assert doc["layout"]["kind"] == "bridge" and "side_sq" in doc["layout"]["sub"][0]
    doc["layout"]["sub"][0]["side_sq"] = 0.5
    with pytest.raises(codec.SchemaViolation) as err:
        codec.decode_gadget(doc)
    assert str(err.value) == "layout.sub[0].side_sq: binary floats are forbidden; use exact rational strings"


def test_nested_model_scalars_name_their_location():
    """The frame entries and a K(eps) entry's tower take their location as
    a function, formatted only on failure: a bad radicand in the tower of
    ``frame.matrix[1][0]`` and a float in ``frame.translation[1]`` of model
    dicts still name the whole path."""
    doc = json.loads(codec.dumps(codec.encode_model(eps_rotation_model())))
    assert codec.decode_model(json.loads(json.dumps(doc))) == eps_rotation_model()
    doc["frame"]["matrix"][1][0]["$fun"]["tower"] = {"gens": [["-3"]]}
    with pytest.raises(codec.SchemaViolation) as err:
        codec.decode_model(doc)
    assert str(err.value) == "frame.matrix[1][0].tower.gens[0]: radicand is not strictly positive"
    doc = json.loads(codec.dumps(codec.encode_model(ModelMap(identity_model().embedding, make_pythagorean_rotation(Fraction(1, 2), translation=(Fraction(1), Fraction(2)))))))
    doc["frame"]["translation"][1] = {"$rat": 0.5}
    with pytest.raises(codec.SchemaViolation) as err:
        codec.decode_model(doc)
    assert str(err.value).startswith("frame.translation[1]: expected an exact rational string")


def test_document_rejects_binary_floats():
    with pytest.raises(codec.SchemaViolation, match="float"):
        codec.load_document('{"schema": "rigidity-forge/1", "x": 0.5}')


def test_gadget_schema_violations_carry_location():
    gadget = gadget_corpus()[0]
    doc = codec.encode_gadget(gadget)
    doc_bad = json.loads(codec.dumps(doc))
    doc_bad["points"]["A"][0] = ["1", "2", "3"]  # wrong arity for the tower
    with pytest.raises(codec.SchemaViolation, match="points.A"):
        codec.decode_gadget(doc_bad)
    doc_bad2 = json.loads(codec.dumps(doc))
    doc_bad2["schema"] = "rigidity-forge/0"
    with pytest.raises(codec.SchemaViolation, match="schema"):
        codec.decode_gadget(doc_bad2)
    doc_bad3 = json.loads(codec.dumps(doc))
    doc_bad3["certificate"][0]["p"] = "NOPE"
    with pytest.raises(codec.SchemaViolation, match="certificate"):
        codec.decode_gadget(doc_bad3)


def test_tower_decoding_enforces_invariants():
    with pytest.raises(codec.SchemaViolation, match="positive"):
        codec.decode_tower({"gens": [["-2"]]})
    with pytest.raises(codec.SchemaViolation, match="square"):
        codec.decode_tower({"gens": [["4"]]})
    with pytest.raises(codec.SchemaViolation, match="square"):
        codec.decode_tower({"gens": [["2"], ["8", "0"]]})  # 8 = (2*sqrt2)^2


def test_derivation_round_trip():
    gadget = build_division(rational_point(0, 0), rational_point(1, 0), F(2, 5))
    derivation = replay(gadget)
    text = codec.dumps(codec.encode_derivation(derivation))
    decoded = codec.decode_derivation(codec.load_document(text))
    assert decoded.facts == derivation.facts
    assert decoded.justifications == derivation.justifications
    assert decoded.gadget == derivation.gadget


def test_derivation_round_trip_for_composite():
    gadget = build_perp_transfer(rational_point(0, 0), rational_point(0, F(24, 5)), rational_point(0, 0), rational_point(8, 0))
    derivation = replay(gadget)
    text = codec.dumps(codec.encode_derivation(derivation))
    decoded = codec.decode_derivation(codec.load_document(text))
    assert decoded.facts == derivation.facts


def test_model_round_trips():
    tower = adjoin_sqrt(QQ, 2).tower
    models = [
        identity_model(),
        conjugation_model(tower, 0),
        eps_rotation_model(),
        eps_rotation_model(reflection=True),
        ModelMap(conjugation_model(tower, 0).embedding, make_pythagorean_rotation(F(1, 2), translation=(F(3), F(-1, 2)))),
    ]
    for model in models:
        text = codec.dumps(codec.encode_model(model))
        assert codec.decode_model(codec.load_document(text)) == model


def test_random_tower_elements_round_trip():

    t2 = adjoin_sqrt(QQ, 2)
    t23 = adjoin_sqrt(t2.tower, 3)
    nested = adjoin_sqrt(t2.tower, t2.tower.one() + t2.root)
    towers = [QQ, t2.tower, t23.tower, nested.tower]
    coords = st.fractions(min_value=-99, max_value=99, max_denominator=30)

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=3), st.lists(coords, min_size=8, max_size=8))
    def run(tower_index, values):
        tower = towers[tower_index]
        element = TowerElem(tower, tuple(values[: tower.dim]))
        encoded = codec.encode_tower_elem(element)
        decoded = codec.decode_tower_elem(json.loads(codec.dumps(encoded)))
        assert decoded.tower == element.tower
        assert decoded.coords == element.coords

    run()


def test_random_function_field_elements_round_trip():

    tower = adjoin_sqrt(QQ, 2).tower
    coords = st.fractions(min_value=-20, max_value=20, max_denominator=9)

    @settings(max_examples=40)
    @given(st.lists(coords, min_size=2, max_size=6), st.lists(coords, min_size=2, max_size=6))
    def run(num_vals, den_vals):
        num = [tower.rational(v) + tower.generator(0) * w for v, w in zip(num_vals[::2], num_vals[1::2])]
        den = [tower.rational(v) for v in den_vals]
        if all(c.is_zero() for c in den):
            den = [tower.one()]
        element = FunElem(tower, num, den)
        encoded = codec.encode_fun_elem(element)
        decoded = codec.decode_fun_elem(json.loads(codec.dumps(encoded)))
        assert decoded == element

    run()


def test_scalar_decoding_rejects_non_object_function_element():
    with pytest.raises(codec.SchemaViolation, match="frame.matrix"):
        codec.decode_scalar({"$fun": []}, "frame.matrix[0][0]")


def test_document_dispatch():
    gadget = gadget_corpus()[0]
    assert codec.decode_document(codec.dumps(codec.encode_gadget(gadget))) == gadget
    model = identity_model()
    assert codec.decode_document(codec.dumps(codec.encode_model(model))) == model
    with pytest.raises(codec.SchemaViolation, match="kind"):
        codec.decode_document('{"schema": "rigidity-forge/1", "kind": "mystery"}')


# sha256 of the 16 corpus derivations' encodings, concatenated in corpus order
CORPUS_ENCODING_SHA256 = "a7875ffee76af4a222301e711eb5c51589764e6c1b64bb52aa1ad8530795ebdf"


def test_corpus_encoding_is_pinned():
    """The derivation file format, byte for byte, over every fact kind."""
    corpus = suite.replay_corpus()
    assert len(corpus) == 16
    kinds = {type(fact).__name__ for entry in corpus for fact in entry.derivation.facts}
    assert kinds == {"SqDistKnown", "Distinct", "NonzeroDist", "VecEq", "VecScale", "AffineComb", "DotZero"}
    text = "".join(codec.dumps(codec.encode_derivation(entry.derivation)) for entry in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_ENCODING_SHA256


# sha256 of the gadget encoding followed by the derivation encoding of builds
# that join towers neither of which is a prefix of the other: the
# chain-scale bridges (the span-3 one is also the bridge with irrational |AC|
# that radical-build and the CLI round trip build), the depth-4 perp over Q,
# and the perp and the bridge over Q(sqrt 2) of radical-build
MERGING_BUILD_SHA256 = {
    "bridge span=3 C=(1,1)": "3de4cdf4203296140c64a1c699a593cf853593ece2a1bfb65723c49dbb366ae2",
    "bridge span=5 C=(1,2)": "65da40984b95dc7a36f0dfbccb424bed644f852da6df5f89227d65da4c5a9ec8",
    "bridge span=10 C=(2,3)": "b6090a758b3248da2f6b009965a22d81c9208768bbc0d01a3751be25301c44f5",
    "bridge span=4 C=(1,3)": "5d43c1d6982ac1e7856145980b0c6ad22fc4c4b5f6d5ae819c70bf6ed684b50d",
    "bridge span=6 C=(1,4)": "cacae7838ef1ff04c3e21964672eb0d817fe28e31d7acbc773cc6b7ca412333e",
    "bridge span=8 C=(3,1)": "0abebeaa08547089fae165f08e168e9878d1b768eecd07fe30a06937cb8d80ce",
    "bridge span=7 C=(2,5)": "8a2ce69b5f94637b0eb6c4c2e49a0ffff8c2b87dc9a8d7c842298e2d20e35e5e",
    "perp over Q, depth 4": "c86ad465f14b84e5050c235274b0f650e36de2a031b0d02fd91f332cd43e8b35",
    "perp over Q(sqrt 2)": "1573db347f5cee21092c3f728c7cbcb5ef94d74daa85de2e6ecb5bdafb61bba9",
    "bridge over Q(sqrt 2)": "d20c052ec4cd86fd9bed5502c975c0a5199072b001efe15b58d786b8d269f24e",
}


def merging_builds():
    pt = rational_point
    r2 = adjoin_sqrt(QQ, 2)
    t = r2.tower
    builds = {
        f"bridge span={s} C=({x},{y})": lambda s=s, x=x, y=y: build_translation_bridge(pt(0, 0), pt(s, 0), pt(x, y), pt(x + s, y))
        for s, (x, y) in ((3, (1, 1)), (5, (1, 2)), (10, (2, 3)), (4, (1, 3)), (6, (1, 4)), (8, (3, 1)), (7, (2, 5)))
    }
    builds["perp over Q, depth 4"] = lambda: build_perp_transfer(pt(1, 1), pt(1, 4), pt(0, 0), pt(3, 0))
    builds["perp over Q(sqrt 2)"] = lambda: build_perp_transfer(
        Point(t.zero(), t.zero()), Point(t.zero(), r2.root), Point(t.zero(), t.zero()), Point(t.rational(4), t.zero())
    )
    builds["bridge over Q(sqrt 2)"] = lambda: build_translation_bridge(
        Point(t.zero(), t.zero()), Point(r2.root, t.zero()), Point(t.one(), t.rational(2)), Point(t.one() + r2.root, t.rational(2))
    )
    return builds


def chain_scale_builds():
    """The shapes of chain-scale's file pipeline, from the public builders:
    rhombus chains of side 1 and the seven translation bridges above."""
    pt = rational_point
    builds = {
        f"chain span={s}": lambda s=s: build_rhombus_chain(pt(0, 0), pt(s, 0), pt(0, 1), pt(s, 1)) for s in (5, 10, 20, 40, 80)
    }
    builds.update((label, build) for label, build in merging_builds().items() if label.startswith("bridge span="))
    return builds


@pytest.mark.parametrize("label", list(chain_scale_builds()))
def test_chain_scale_documents_round_trip(label):
    """The emitter writes what json writes, decode -> encode gives the text
    back byte for byte, and the decoded derivation rechecks."""
    document = codec.encode_derivation(replay(chain_scale_builds()[label]()))
    text = codec.dumps(document)
    assert text == json.dumps(document, indent=2)
    decoded = codec.decode_document(text)
    assert codec.dumps(codec.encode_derivation(decoded)) == text
    recheck_derivation(decoded)


def test_dumps_peak_memory_is_within_four_times_its_text():
    """The emitter joins each list member's pieces once, so the tracemalloc
    peak of ``dumps`` on the span-80 chain derivation (136 KB of text) stays
    at most 4x the text: a string per node read 3.0x, and one list of
    pieces for the whole document 9.6x."""

    pt = rational_point
    document = codec.encode_derivation(replay(build_rhombus_chain(pt(0, 0), pt(80, 0), pt(0, 1), pt(80, 1))))
    tracemalloc.start()
    try:
        text = codec.dumps(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 130_000
    assert peak <= 4 * len(text), (peak, len(text))


def test_decode_parses_each_distinct_rational_once(count_fractions_within):
    """Decoding the span-40 chain derivation, whose 242 rational record
    fields all hold "1", parses each distinct string once per memo (the
    coordinates' and the record fields') and builds one Fraction per
    distinct record-field string.  The one parse and the one Fraction
    outside both memos are the layout's ``side_sq``."""
    pt = rational_point
    text = codec.dumps(codec.encode_derivation(replay(build_rhombus_chain(pt(0, 0), pt(40, 0), pt(0, 1), pt(40, 1)))))
    doc = codec.load_document(text)
    points = doc["gadget"]["points"]
    records = doc["gadget"]["certificate"] + [step["fact"] for step in doc["facts"]]
    fields = [value for record in records for key, value in record.items() if key != "kind" and value not in points]
    coords = {c for xy in points.values() for axis in xy for c in axis}
    assert (len(fields), set(fields), len(coords), doc["gadget"]["layout"]["side_sq"]) == (242, {"1"}, 41, {"$rat": "1"})
    counts = count_fractions_within([(codec, "decode_derivation"), (codec, "_rational_parts")])
    decoded = codec.decode_derivation(doc)
    assert codec.dumps(codec.encode_derivation(decoded)) == text
    assert counts["_rational_parts"]["calls"] <= len(coords) + len(set(fields)) + 1
    assert counts["decode_derivation"]["fractions"] <= len(set(fields)) + 1


# the same text form for the construction branches the pins above leave out:
# the scale through a mirror point (r < 0) with division radius 1/4, the
# scale by r = 1, Kempe linkages over towers, and an explicit division radius
CONSTRUCTION_BRANCH_SHA256 = {
    "perp mirror scale": "8303af92cc6a2b3e8b9ea9eb6ca00a0fccdaec7b6304a13c5e87edb7c3371390",
    "perp r=1 scale": "1dc2cca43eeb75880742351796d5860f565b48284b6cc149d8afd97c06d2ec0f",
    "kempe 1+sqrt 2": "8b06d159b38e4fff059529ac405e1d97a36a9e126cf3652736a7f2fd518a0d1f",
    "kempe sqrt 2+sqrt 3": "a6b3a234db944a6df0d0ceacc60b281bf3c4697c61567725f9623b42b3137430",
    "division r=3": "8d7c7613d0cd2f79db8102b29a2ef8553665645e6c287d68d24f5e36eada2b32",
}


def construction_branch_builds():
    pt = rational_point
    r2 = adjoin_sqrt(QQ, 2)
    r3 = adjoin_sqrt(r2.tower, 3)
    return {
        "perp mirror scale": lambda: build_perp_transfer(pt(0, 0), pt(1, 0), pt(0, 0), pt(0, 1)),
        "perp r=1 scale": lambda: build_perp_transfer(pt(0, 0), pt(0, Fraction(12, 5)), pt(0, 0), pt(4, 0)),
        "kempe 1+sqrt 2": lambda: build_kempe(1 + r2.root),
        "kempe sqrt 2+sqrt 3": lambda: build_kempe(r2.root.lift(r3.tower) + r3.root),
        "division r=3": lambda: build_division(pt(0, 0), pt(1, 0), Fraction(1, 2), r=Fraction(3)),
    }


@pytest.mark.parametrize("label", list(CONSTRUCTION_BRANCH_SHA256))
def test_construction_branches_are_pinned(label):
    gadget = construction_branch_builds()[label]()
    gadget.validate()
    text = codec.dumps(codec.encode_gadget(gadget)) + codec.dumps(codec.encode_derivation(replay(gadget)))
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCTION_BRANCH_SHA256[label]


@pytest.mark.parametrize("label", list(MERGING_BUILD_SHA256))
def test_builds_over_merged_towers_are_pinned(label):
    gadget = merging_builds()[label]()
    text = codec.dumps(codec.encode_gadget(gadget)) + codec.dumps(codec.encode_derivation(replay(gadget)))
    assert hashlib.sha256(text.encode()).hexdigest() == MERGING_BUILD_SHA256[label]


# sha256 of the model files of every ``suite.model_family`` model of the 16
# corpus gadgets, concatenated in corpus and family order
MODEL_FAMILY_ENCODING_SHA256 = "f1c904f183f3de59eae49e6390e3def8864e729fa247c665588b9c8584337d75"


def test_model_family_encoding_is_pinned():
    """The model file format, byte for byte: the K(eps) frames' entries and
    the rational and conjugation frames, as ``model-check --model @file``
    reads them."""
    families = [suite.model_family(entry.gadget) for entry in suite.replay_corpus()]
    text = "".join(codec.dumps(codec.encode_model(model)) for family in families for _, model in family)
    assert sum(map(len, families)) == 96
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_FAMILY_ENCODING_SHA256


# sha256 of the printed value and the encoding of every image coordinate and
# every image-pair squared distance of the 16 corpus gadgets under the two
# K(eps) models, in corpus, model and point order
KFIELD_FACE_SHA256 = "32bc0d6c3aaeba52a2ac9ef6fc0008275c9160d66e8f5af27ef762598e29804d"


def test_kfield_public_face_is_pinned():
    """The reduced form of K(eps) values, as printed and encoded, byte for byte."""
    digest = hashlib.sha256()
    count = 0
    for entry in suite.replay_corpus():
        for name, model in suite.model_family(entry.gadget):
            if not name.startswith("eps-"):
                continue
            images = [model.apply(p) for p in entry.gadget.points.values()]
            values = [c for image in images for c in (image.x, image.y)]
            values += [sqdist(p, q) for p, q in combinations(images, 2)]
            for v in values:
                digest.update(f"{v}\n{codec.dumps(codec.encode_scalar(v))}\n".encode())
            count += len(values)
    assert count == 1080
    assert digest.hexdigest() == KFIELD_FACE_SHA256
