"""Exact text serialization: gadgets, derivations, and model descriptors.

All numbers travel as exact strings ("p" or "p/q"); binary floats are a
schema violation anywhere.  Decoding re-validates structural invariants, so
round-trips are bit-exact and tampering is detectable downstream.  ``dumps``
writes text byte-identical to ``json.dumps(obj, indent=2)``, whose encoder
runs in pure Python whenever an indent is set, and writes null, true, false
and empty containers itself too.  Its cost is one copy of each byte per list
member that holds it (a fact step, a certificate entry, a coordinate list)
and one into the text: each member's pieces are joined once.  A location is
formatted only for a failure's message: decoders pass on a function for it.

Decoding a gadget or a derivation costs a dict lookup per record field and
per coordinate, plus one parse per distinct rational string in each of the
two memos that one decode call keeps: string -> Fraction for record fields,
and string -> integers p, q for coordinates (which build no Fraction).  A
memo takes a string only after it parses, and nothing outlives the call.
Validating a tower descriptor costs more: see ``MAX_TOWER_DEPTH``.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from typing import Any, Callable, Mapping, get_args

from .cm import Point
from .engine import Derivation, Fact, Justification, fact_key
from .gadgets import CertEntry, Gadget, Goal, layout_goal
from .models import Embedding, ModelMap, NonOrthogonalFrame, OrthoAffine
from .scalars import QQ, BadGeneratorIndex, FunElem, TowerDesc, TowerElem, _canon, _elem, sqrt_in_tower

SCHEMA = "rigidity-forge/1"

# the whole string, ASCII digits only: (numerator, its digits, denominator)
_RATIONAL_RE = re.compile(r"(-?([0-9]+))(?:/([1-9][0-9]*))?")

# digits per integer, below the interpreter's default int-string limit (4300)
MAX_DIGITS = 4000

# generators per tower; validating a descriptor (its "already a square"
# check) costs 5.6-6.6x per level: 43.8 s for one depth-8 descriptor with
# 1,000-digit coordinates (2-core x86-64 VM, CPython 3.11)
MAX_TOWER_DEPTH = 8


class SchemaViolation(ValueError):
    """Input does not conform to the file schema; the message carries a location."""


def _fail(location: str, message: str):
    raise SchemaViolation(f"{location}: {message}")


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def encode_rational(q: Fraction) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rational_parts(text: Any) -> tuple[int, int] | str:
    """The integers p, q (q > 0, not reduced) of an exact "p" or "p/q", or
    the message saying why ``text`` is not one; the caller names the
    location only when it fails."""
    if not isinstance(text, str):
        return f"expected an exact rational string, got {type(text).__name__}"
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        return f"not an exact rational (p or p/q): {text!r}"
    num, digits, den = match.groups()
    if len(digits) > MAX_DIGITS or (den is not None and len(den) > MAX_DIGITS):
        return f"an integer has more than {MAX_DIGITS} digits"
    return int(num), 1 if den is None else int(den)


def _fraction(p: int, q: int) -> Fraction:
    return Fraction(p) if q == 1 else Fraction(p, q)


def decode_rational(text: Any, location: str = "rational") -> Fraction:
    return _rational(text, lambda: location)


def _rational(text: Any, where: Callable[[], str]) -> Fraction:
    parts = _rational_parts(text)
    if type(parts) is str:
        _fail(where(), parts)
    return _fraction(*parts)


def _encode_coords(x: TowerElem) -> list[str]:
    """Each coordinate of the integer form n/d, reduced by one gcd."""
    d = x._d
    if d == 1:
        return list(map(str, x._n))
    out = []
    for c in x._n:
        g = gcd(c, d)
        out.append(str(c // g) if g == d else f"{c // g}/{d // g}")
    return out


def _decode_coords(tower: TowerDesc, coords: Any, where: Callable[[], str], memo: dict) -> TowerElem:
    """A list of ``tower.dim`` exact rationals at the location ``where()``
    names on failure, read straight into the canonical integer form over the
    lcm of the denominators; ``memo`` is the call's string -> (p, q) memo."""
    if not isinstance(coords, list) or len(coords) != tower.dim:
        _fail(where(), f"expected {tower.dim} coordinates")
    pairs = []
    for i, text in enumerate(coords):
        parts = memo.get(text) if type(text) is str else None
        if parts is None:
            parts = _rational_parts(text)
            if type(parts) is str:
                _fail(f"{where()}[{i}]", parts)
            memo[text] = parts
        pairs.append(parts)
    d = lcm(*[q for _, q in pairs])
    return _elem(tower, *_canon(tuple([p * (d // q) for p, q in pairs]), d))


def encode_tower(tower: TowerDesc) -> dict:
    return {"gens": [_encode_coords(g) for g in tower.gens]}


def decode_tower(obj: Any, location: str = "field") -> TowerDesc:
    return _decode_tower(obj, lambda: location, {})


def _decode_tower(obj: Any, where: Callable[[], str], memo: dict) -> TowerDesc:
    if not isinstance(obj, dict) or not isinstance(obj.get("gens"), list):
        _fail(where(), "expected an object with a 'gens' list")
    if len(obj["gens"]) > MAX_TOWER_DEPTH:
        _fail(f"{where()}.gens", f"{len(obj['gens'])} generators exceed the tower depth limit {MAX_TOWER_DEPTH}")
    tower = QQ
    for i, coords in enumerate(obj["gens"]):
        rad = _decode_coords(tower, coords, lambda: f"{where()}.gens[{i}]", memo)
        if rad.sign() <= 0:
            _fail(f"{where()}.gens[{i}]", "radicand is not strictly positive")
        if sqrt_in_tower(rad) is not None:
            _fail(f"{where()}.gens[{i}]", "radicand is already a square in the tower below")
        tower = TowerDesc(tower.gens + (rad,))
    return tower


def encode_tower_elem(x: TowerElem) -> dict:
    return {"gens": encode_tower(x.tower)["gens"], "coords": _encode_coords(x)}


def decode_tower_elem(obj: Any, location: str = "scalar") -> TowerElem:
    return _decode_tower_elem(obj, lambda: location)


def _decode_tower_elem(obj: Any, where: Callable[[], str]) -> TowerElem:
    memo: dict = {}
    tower = _decode_tower(obj, where, memo)
    return _decode_coords(tower, obj.get("coords"), lambda: f"{where()}.coords", memo)


def encode_fun_elem(x: FunElem) -> dict:
    return {
        "tower": encode_tower(x.tower),
        "num": [_encode_coords(coeff) for coeff in x.num],
        "den": [_encode_coords(coeff) for coeff in x.den],
    }


def decode_fun_elem(obj: Any, location: str = "scalar") -> FunElem:
    return _decode_fun_elem(obj, lambda: location)


def _decode_fun_elem(obj: Any, where: Callable[[], str]) -> FunElem:
    if not isinstance(obj, dict):
        _fail(where(), "expected a function-field element object")
    memo: dict = {}
    tower = _decode_tower(obj.get("tower", {"gens": []}), lambda: f"{where()}.tower", memo)

    def poly(key: str):
        coeffs = obj.get(key)
        if not isinstance(coeffs, list):
            _fail(f"{where()}.{key}", "expected a coefficient list")
        return tuple(_decode_coords(tower, coords, lambda: f"{where()}.{key}[{i}]", memo) for i, coords in enumerate(coeffs))

    num, den = poly("num"), poly("den")
    if all(c.is_zero() for c in den):
        _fail(f"{where()}.den", "zero denominator")
    return FunElem(tower, num, den)


def encode_scalar(value: Any) -> Any:
    """Tagged encoding for mixed-carrier positions (layouts, model frames)."""
    if isinstance(value, (int, Fraction)):
        return {"$rat": encode_rational(Fraction(value))}
    if isinstance(value, TowerElem):
        return {"$tower": encode_tower_elem(value)}
    if isinstance(value, FunElem):
        return {"$fun": encode_fun_elem(value)}
    raise SchemaViolation(f"not an encodable scalar: {value!r}")


def decode_scalar(obj: Any, location: str = "scalar") -> Any:
    return _decode_scalar(obj, lambda: location)


def _decode_scalar(obj: Any, where: Callable[[], str]) -> Any:
    """A tagged scalar at the location ``where()`` names on failure."""
    if not isinstance(obj, dict):
        _fail(where(), "expected a tagged scalar object")
    if "$rat" in obj:
        return _rational(obj["$rat"], where)
    if "$tower" in obj:
        return _decode_tower_elem(obj["$tower"], where)
    if "$fun" in obj:
        return _decode_fun_elem(obj["$fun"], where)
    _fail(where(), f"unknown scalar tag in {sorted(obj)}")


# ---------------------------------------------------------------------------
# Layouts (JSON-able recipes with embedded exact scalars)
# ---------------------------------------------------------------------------


def encode_layout(value: Any) -> Any:
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, (Fraction, TowerElem, FunElem)):
        return encode_scalar(value)
    if isinstance(value, (list, tuple)):
        return [encode_layout(v) for v in value]
    if isinstance(value, Mapping):
        return {k: encode_layout(v) for k, v in value.items()}
    raise SchemaViolation(f"layout value not encodable: {value!r}")


def decode_layout(value: Any, location: str = "layout") -> Any:
    return _decode_layout(value, lambda: location)


def _decode_layout(value: Any, where: Callable[[], str]) -> Any:
    """A layout value at the location ``where()`` names on failure."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        _fail(where(), "binary floats are forbidden; use exact rational strings")
    if isinstance(value, list):
        return [_decode_layout(v, lambda i=i: f"{where()}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        if "$rat" in value or "$tower" in value or "$fun" in value:
            return _decode_scalar(value, where)
        return {k: _decode_layout(v, lambda k=k: f"{where()}.{k}") for k, v in value.items()}
    _fail(where(), f"unsupported layout value {value!r}")


# ---------------------------------------------------------------------------
# Facts and certificate entries: each dataclass field in declaration order
# ---------------------------------------------------------------------------

FACT_KINDS: dict[str, type] = {cls.__name__: cls for cls in get_args(Fact)}
GOAL_KINDS: dict[str, type] = {cls.__name__: cls for cls in get_args(Goal)}

# per record class, each field's name and whether it holds an exact rational
# (every other field is a point name)
_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {
    cls: tuple((f.name, f.type in (Fraction, "Fraction")) for f in fields(cls)) for cls in (*FACT_KINDS.values(), CertEntry)
}


def _is_point(name: Any, points: Mapping[str, Point]) -> bool:
    return isinstance(name, str) and name in points


def _encode_record(record: Any, out: dict) -> dict:
    for name, rational in _FIELDS[type(record)]:
        value = getattr(record, name)
        out[name] = encode_rational(value) if rational else value
    return out


def _decode_record(cls: type, obj: Mapping, points: Mapping[str, Point], where: Callable[[], str], memo: dict) -> Any:
    """A ``cls`` record at the location ``where()`` names on failure;
    ``memo`` is the call's string -> Fraction memo."""
    values = []
    for name, rational in _FIELDS[cls]:
        if name not in obj:
            _fail(where(), f"missing field {name!r}")
        value = obj[name]
        if rational:
            fraction = memo.get(value) if type(value) is str else None
            if fraction is None:
                fraction = memo[value] = _rational(value, lambda: f"{where()}.{name}")
            value = fraction
        elif not (type(value) is str and value in points):
            _fail(f"{where()}.{name}", f"unknown point {value!r}")
        values.append(value)
    return cls(*values)


def encode_fact(fact: Fact) -> dict:
    return _encode_record(fact, {"kind": type(fact).__name__})


def _decode_fact(obj: Any, points: Mapping[str, Point], kinds: Mapping[str, type], where: Callable[[], str], memo: dict) -> Fact:
    """A fact of one of ``kinds`` whose name fields all name ``points``."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if type(kind) is not str:
        _fail(where(), "expected an object tagged with its kind")
    cls = kinds.get(kind)
    if cls is None:
        _fail(where(), f"kind {kind!r} is not one of {', '.join(kinds)}")
    return _decode_record(cls, obj, points, where, memo)


def _list(obj: Mapping, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        _fail(key, "expected a list")
    return value


# ---------------------------------------------------------------------------
# Gadgets
# ---------------------------------------------------------------------------


def encode_gadget(gadget: Gadget) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "gadget",
        "field": encode_tower(gadget.tower),
        "points": {name: [_encode_coords(p.x), _encode_coords(p.y)] for name, p in gadget.points.items()},
        "certificate": [_encode_record(e, {}) for e in gadget.certificate],
        "side_conditions": [list(pair) for pair in gadget.side_conditions],
        "goal": encode_fact(gadget.goal),
        "layout": encode_layout(gadget.layout),
    }


def _check_header(obj: Any, kind: str) -> None:
    """``obj`` is a JSON object with this schema and document kind."""
    if not isinstance(obj, dict):
        _fail(kind, "expected a JSON object")
    if obj.get("schema") != SCHEMA:
        _fail("schema", f"expected {SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.get("kind") != kind:
        _fail("kind", f"expected {kind!r}, got {obj.get('kind')!r}")


def decode_gadget(obj: Any) -> Gadget:
    return _decode_gadget(obj, {})


def _decode_gadget(obj: Any, memo: dict) -> Gadget:
    """The gadget ``obj``; ``memo`` is the call's string -> Fraction memo."""
    _check_header(obj, "gadget")
    coords_memo: dict = {}
    tower = _decode_tower(obj.get("field", {}), lambda: "field", coords_memo)
    points_obj = obj.get("points")
    if not isinstance(points_obj, dict):
        _fail("points", "expected an object of name -> [x, y]")
    points: dict[str, Point] = {}
    for name, pair in points_obj.items():
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"points.{name}", "expected [x_coords, y_coords]")
        x, y = pair
        points[name] = Point(
            _decode_coords(tower, x, lambda: f"points.{name}.x", coords_memo),
            _decode_coords(tower, y, lambda: f"points.{name}.y", coords_memo),
        )
    certificate = []
    for i, entry in enumerate(_list(obj, "certificate")):
        if not isinstance(entry, dict):
            _fail(f"certificate[{i}]", "expected {p, q, d2}")
        certificate.append(_decode_record(CertEntry, entry, points, lambda: f"certificate[{i}]", memo))
    sides = []
    for i, pair in enumerate(_list(obj, "side_conditions")):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"side_conditions[{i}]", "expected a name pair")
        if not all(_is_point(name, points) for name in pair):
            _fail(f"side_conditions[{i}]", f"unknown point in {pair}")
        sides.append((pair[0], pair[1]))
    goal = _decode_fact(obj.get("goal"), points, GOAL_KINDS, lambda: "goal", memo)
    layout = _decode_layout(obj.get("layout", {}), lambda: "layout")
    _check_layout(layout, points, lambda: "layout")
    if fact_key(goal) != fact_key(layout_goal(layout)):
        _fail("goal", f"{goal} is not the conclusion of the {layout['kind']} layout")
    return Gadget(
        tower=tower,
        points=points,
        certificate=tuple(certificate),
        side_conditions=tuple(sides),
        goal=goal,
        layout=layout,
    )


def _check_layout(layout: Any, points: Mapping[str, Point], where: Callable[[], str], kind: str | None = None) -> None:
    """Check that a layout at the location ``where()`` is of a known kind
    and carries every field its replay script and ``layout_goal`` read, and
    that each other field it carries has its type; ``kind``, when given, is
    the kind its parent needs."""
    if not isinstance(layout, dict):
        _fail(where(), "expected a layout object")
    if kind is not None and layout.get("kind") != kind:
        _fail(f"{where()}.kind", f"expected {kind!r}")
    kind = layout.get("kind")

    def need(key: str, ok, what: str) -> Any:
        if key not in layout or not ok(layout[key]):
            _fail(f"{where()}.{key}", f"expected {what}")
        return layout[key]

    def names(count: int | None = None):
        return lambda v: (
            isinstance(v, list)
            and len(v) > 0
            and count in (None, len(v))
            and all(_is_point(n, points) for n in v)
        )

    def rational(v) -> bool:
        return isinstance(v, (int, Fraction)) and not isinstance(v, bool)

    def roles(v) -> bool:
        return isinstance(v, dict) and all(_is_point(v.get(r), points) for r in "ABCDEF")

    if kind == "division":
        need("roles", roles, "roles A-F naming gadget points")
        need("t", rational, "an exact rational")
        need("r", rational, "an exact rational")
    elif kind == "kempe":
        need("roles", roles, "roles A-F naming gadget points")
        need("t", lambda v: rational(v) or isinstance(v, TowerElem), "an exact rational or tower scalar")
    elif kind == "chain":
        track1 = need("track1", names(), "a list of gadget point names")
        need("track2", names(len(track1)), f"{len(track1)} gadget point names")
        need("side_sq", lambda v: v is None or rational(v), "an exact rational or null")
    elif kind == "bridge":
        subs = need("sub", lambda v: isinstance(v, list) and v, "a non-empty list of chain layouts")
        for i, sub in enumerate(subs):
            _check_layout(sub, points, lambda i=i: f"{where()}.sub[{i}]", "chain")
    elif kind == "scale":
        need("src", names(2), "two gadget point names")
        need("dst", names(2), "two gadget point names")
        need("r", rational, "an exact rational")
        for key in ("translated", "mirror"):
            if key in layout:
                need(key, lambda v: _is_point(v, points), "a gadget point name")
        for i, sub in enumerate(need("sub", lambda v: isinstance(v, list), "a list of layouts")):
            _check_layout(sub, points, lambda i=i: f"{where()}.sub[{i}]")
    elif kind == "perp":
        for key, sub_kind in (("kempe", "kempe"), ("scale_pq", "scale"), ("scale_xy", "scale")):
            _check_layout(layout.get(key), points, lambda key=key: f"{where()}.{key}", sub_kind)
        need("r", rational, "an exact rational")
        need("s", rational, "an exact rational")
    else:
        _fail(f"{where()}.kind", f"unknown layout kind {kind!r}")


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


def encode_derivation(derivation: Derivation) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "derivation",
        "gadget": encode_gadget(derivation.gadget),
        "facts": [
            {"fact": encode_fact(f), "rule": j.rule, "premises": list(j.premises)}
            for f, j in zip(derivation.facts, derivation.justifications)
        ],
    }


def decode_derivation(obj: Any) -> Derivation:
    _check_header(obj, "derivation")
    memo: dict = {}
    gadget = _decode_gadget(obj.get("gadget"), memo)
    points = gadget.points
    facts = []
    justs = []
    for i, step in enumerate(_list(obj, "facts")):
        if not isinstance(step, dict) or not ("fact" in step and "rule" in step and "premises" in step):
            _fail(f"facts[{i}]", "expected {fact, rule, premises}")
        facts.append(_decode_fact(step["fact"], points, FACT_KINDS, lambda: f"facts[{i}].fact", memo))
        premises = step["premises"]
        if not isinstance(premises, list) or [p for p in premises if type(p) is not int]:
            _fail(f"facts[{i}].premises", "expected a list of fact indices")
        justs.append(Justification(step["rule"], tuple(premises)))
    if not facts:
        _fail("facts", "a derivation needs at least one fact")
    derivation = Derivation(gadget, facts, justs)
    derivation.check_wellformed()
    return derivation


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def encode_model(model: ModelMap) -> dict:
    emb = {"kind": model.embedding.kind}
    if model.embedding.kind == "conjugation":
        emb["domain"] = encode_tower(model.embedding.domain)
        emb["generator"] = model.embedding.generator
    frame = None
    if model.frame is not None:
        frame = {
            "matrix": [[encode_scalar(entry) for entry in row] for row in model.frame.matrix],
            "translation": None
            if model.frame.translation is None
            else [encode_scalar(entry) for entry in model.frame.translation],
        }
    return {"schema": SCHEMA, "kind": "model", "embedding": emb, "frame": frame}


def decode_model(obj: Any) -> ModelMap:
    _check_header(obj, "model")
    emb_obj = obj.get("embedding")
    if not isinstance(emb_obj, dict) or "kind" not in emb_obj:
        _fail("embedding", "expected a tagged embedding object")
    kind = emb_obj["kind"]
    if kind == "conjugation":
        generator = emb_obj.get("generator")
        if not isinstance(generator, int) or isinstance(generator, bool):
            _fail("embedding.generator", f"expected a generator index, got {generator!r}")
        domain = decode_tower(emb_obj.get("domain", {}), "embedding.domain")
        try:
            embedding = Embedding("conjugation", domain=domain, generator=generator)
        except BadGeneratorIndex as exc:
            _fail("embedding.generator", str(exc))
    elif kind in ("identity", "function_field"):
        embedding = Embedding(kind)
    else:
        _fail("embedding.kind", f"unknown embedding kind {kind!r}")
    frame_obj = obj.get("frame")
    frame = None
    if frame_obj is not None:
        if not isinstance(frame_obj, dict):
            _fail("frame", "expected an object or null")
        matrix = frame_obj.get("matrix")
        if not isinstance(matrix, list) or len(matrix) != 2 or any(not isinstance(row, list) or len(row) != 2 for row in matrix):
            _fail("frame.matrix", "expected a 2x2 matrix")
        rows = tuple(
            tuple(_decode_scalar(entry, lambda i=i, j=j: f"frame.matrix[{i}][{j}]") for j, entry in enumerate(row))
            for i, row in enumerate(matrix)
        )
        translation = frame_obj.get("translation")
        trans = None
        if translation is not None:
            if not isinstance(translation, list) or len(translation) != 2:
                _fail("frame.translation", "expected two scalars")
            trans = tuple(_decode_scalar(entry, lambda i=i: f"frame.translation[{i}]") for i, entry in enumerate(translation))
        try:
            frame = OrthoAffine(matrix=rows, translation=trans)
        except NonOrthogonalFrame as exc:
            _fail("frame.matrix", str(exc))
    return ModelMap(embedding=embedding, frame=frame)


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def dumps(obj: Any) -> str:
    """``obj`` as text, byte-identical to ``json.dumps(obj, indent=2)``.

    ``obj`` is what the ``encode_*`` functions produce: dicts with string
    keys, lists, strings, ints, booleans and None.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the pieces of ``value``'s text to ``out``, at the indentation
    that ``newline`` (a line break and the current indentation) carries;
    each list member is one piece, joined once (a string is quoted and an
    int written in place)."""
    kind = type(value)
    if kind is dict and value:
        inner = newline + "  "
        sep = "{" + inner
        for k, v in value.items():
            if type(v) is str:
                out += (sep, _quote(k), ": ", _quote(v))
            else:
                out += (sep, _quote(k), ": ")
                _write(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list and value:
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            member = type(v)
            if member is str:
                out += (sep, _quote(v))
            elif member is int:
                out += (sep, int.__repr__(v))
            else:
                pieces = [sep]
                _write(v, inner, pieces)
                out.append("".join(pieces))
            sep = "," + inner
        out.append(newline + "]")
    elif kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or kind is list:
        out.append("{}" if kind is dict else "[]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value))  # what no encoder produces, as json writes it


def load_document(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_reject_float, parse_int=int, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaViolation("document: nesting too deep") from exc


def _reject_float(text: str):
    raise SchemaViolation(f"binary float {text!r} is forbidden; numbers must be exact strings")


def decode_document(text: str):
    """Dispatch on the document kind: gadget, derivation, or model."""
    obj = load_document(text)
    if not isinstance(obj, dict):
        _fail("document", "expected a JSON object")
    kind = obj.get("kind")
    decoders = {"gadget": decode_gadget, "derivation": decode_derivation, "model": decode_model}
    if not isinstance(kind, str) or kind not in decoders:
        _fail("kind", f"unknown document kind {kind!r}")
    try:
        return decoders[kind](obj)
    except RecursionError as exc:  # layouts nested within the JSON parser's limit
        raise SchemaViolation("document: nesting too deep") from exc
