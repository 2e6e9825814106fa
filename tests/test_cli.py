"""Command-line behaviour: subcommands, files, exit codes."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rigidity_forge import cli, codec, gadgets, suite
from rigidity_forge.cli import main
from rigidity_forge.cm import Point
from rigidity_forge.codec import MAX_TOWER_DEPTH
from rigidity_forge.gadgets import build_division
from rigidity_forge.models import conjugation_model, eps_rotation_model
from rigidity_forge.scalars import QQ, adjoin_sqrt

from conftest import DERANDOMIZED
from harness import DELETE, edit, node_paths


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def division_file(tmp_path, capsys, t="1/2"):
    """The division gadget file that ``gadget division --t t`` writes."""
    path = tmp_path / "div.json"
    run(["gadget", "division", "--t", t, "-o", str(path)], capsys)
    return path


def written(path, doc) -> str:
    """``doc`` written to ``path``, text as it is and a document as JSON;
    the path, as an argument."""
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def test_gadget_then_replay_roundtrip(tmp_path, capsys):
    gadget_file = tmp_path / "kempe.json"
    code, _, _ = run(["gadget", "kempe", "--t", "1", "-o", str(gadget_file)], capsys)
    assert code == 0
    code, out, _ = run(["replay", str(gadget_file)], capsys)
    assert code == 0
    assert "DotZero" in out


def test_division_gadget_with_radius_override(tmp_path, capsys):
    gadget_file = tmp_path / "div.json"
    code, _, _ = run(["gadget", "division", "--t", "1/2", "--r", "3", "-o", str(gadget_file)], capsys)
    assert code == 0
    doc = json.loads(gadget_file.read_text())
    assert doc["layout"]["r"] == {"$rat": "3"}


def test_verify_accepts_clean_and_rejects_tampered(tmp_path, capsys):
    gadget_file = tmp_path / "div.json"
    run(["gadget", "division", "--t", "1/3", "--b", "2,0", "-o", str(gadget_file)], capsys)
    code, out, _ = run(["verify", str(gadget_file)], capsys)
    assert code == 0 and "verified" in out
    doc = json.loads(gadget_file.read_text())
    doc["certificate"][0]["d2"] = "99"
    tampered = written(tmp_path / "tampered.json", doc)
    code, _, err = run(["verify", str(tampered)], capsys)
    assert code == 1
    assert "mismatch" in err


def test_verify_rejects_floats(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    raw = gadget_file.read_text().replace('"d2": "1/4"', '"d2": 0.25', 1)
    bad = written(tmp_path / "float.json", raw)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert "float" in err


@pytest.mark.parametrize("number", ["1.5", "NaN", "Infinity", "-Infinity"])
def test_verify_rejects_floats_where_the_schema_reads_nothing(tmp_path, capsys, number):
    gadget_file = division_file(tmp_path, capsys)
    bad = written(tmp_path / "note.json", gadget_file.read_text().replace("{", '{\n  "note": ' + number + ",", 1))
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith(f"SchemaViolation: binary float {number!r} is forbidden")


@pytest.mark.parametrize("index, d2", [(0, "1/4\n"), (2, "١")], ids=["trailing-newline", "arabic-indic-digit"])
def test_verify_rejects_rational_that_is_not_ascii_p_or_p_over_q(tmp_path, capsys, index, d2):
    gadget_file = division_file(tmp_path, capsys)
    doc = json.loads(gadget_file.read_text())
    assert Fraction(d2) == Fraction(doc["certificate"][index]["d2"])  # Fraction(str) reads the true value
    doc["certificate"][index]["d2"] = d2
    bad = written(tmp_path / "rational.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith(f"SchemaViolation: certificate[{index}].d2: not an exact rational")


def test_replay_writes_derivation_and_model_check_reads_it(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    deriv_file = tmp_path / "deriv.json"
    code, _, _ = run(["replay", str(gadget_file), "-o", str(deriv_file)], capsys)
    assert code == 0
    assert json.loads(deriv_file.read_text())["kind"] == "derivation"
    for model in ("identity", "conj:0", "eps-rotation", "eps-reflection", "conj-rot:0"):
        code, out, _ = run(["model-check", str(deriv_file), "--model", model], capsys)
        assert code == 0, model
        assert "all-true" in out


@pytest.mark.parametrize(
    "spec, message",
    [
        ("conj:x", "bad generator index in model spec 'conj:x'"),
        ("conj:1.5", "bad generator index in model spec 'conj:1.5'"),
        ("conj:", "bad generator index in model spec 'conj:'"),
        ("conj-rot:y", "bad generator index in model spec 'conj-rot:y'"),
        ("conj:5", "generator index 5 out of range"),
        ("bogus", "unknown model spec 'bogus'"),
    ],
    ids=["letter", "fraction", "empty", "rot-letter", "range", "unknown"],
)
def test_model_check_rejects_bad_model_spec(tmp_path, capsys, spec, message):
    gadget_file = division_file(tmp_path, capsys)
    code, out, err = run(["model-check", str(gadget_file), "--model", spec], capsys)
    assert (code, out, err) == (1, "", f"EngineError: {message}\n")


@pytest.mark.parametrize("spec, index", [("conj:0", 0), ("conj:1", 1), ("conj-rot:0", 0)])
def test_model_check_rejects_conjugation_that_is_no_automorphism(tmp_path, capsys, spec, index):
    r2 = adjoin_sqrt(QQ, 2)
    r3 = adjoin_sqrt(r2.tower, 3)
    tower = r3.tower
    gadget = build_division(Point(tower.zero(), tower.zero()), Point(r2.root.lift(tower) + r3.root, tower.one()), 1 / 3)
    # the third radicand involves both earlier generators, so neither flip extends
    assert gadget.tower.depth == 3
    gadget_file = written(tmp_path / "div.json", codec.dumps(codec.encode_gadget(gadget)))
    code, out, err = run(["model-check", str(gadget_file), "--model", spec], capsys)
    message = f"generator 2 has a radicand involving generator {index}; conjugation is not an automorphism of this tower"
    assert (code, out, err) == (1, "", f"EngineError: {message}\n")


def test_model_check_on_gadget_file_replays_first(tmp_path, capsys):
    gadget_file = tmp_path / "kempe.json"
    run(["gadget", "kempe", "--t", "1/2", "-o", str(gadget_file)], capsys)
    code, out, _ = run(["model-check", str(gadget_file), "--model", "eps-rotation"], capsys)
    assert code == 0
    assert "preservation: ok" in out


def test_model_check_via_descriptor_file(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    model_file = written(tmp_path / "model.json", codec.dumps(codec.encode_model(eps_rotation_model())))
    code, out, _ = run(["model-check", str(gadget_file), "--model", f"@{model_file}"], capsys)
    assert code == 0
    assert "all-true" in out


def test_model_check_names_the_point_a_model_is_undefined_at(tmp_path, capsys):
    """A conjugation of Q(sqrt 3) meets the division gadget's field
    Q(sqrt(5/12)) at D: the model is undefined there, and the CLI says so
    with exit 1."""
    gadget_file = tmp_path / "div.json"
    assert run(["gadget", "division", "--t", "1/3", "-o", str(gadget_file)], capsys)[0] == 0
    model_file = written(tmp_path / "m.json", codec.dumps(codec.encode_model(conjugation_model(adjoin_sqrt(QQ, 3).tower, 0))))
    code, out, err = run(["model-check", str(gadget_file), "--model", f"@{model_file}"], capsys)
    assert (code, out) == (1, "")
    assert err == "ModelUndefinedAtPoint: model undefined at D: r0 does not lie in the embedding domain Q(sqrt(3))\n"


EXPECTED_IDENTITIES = """\
ok  det(A,B,E,F) = -2*(e - 16 + 3c)^2
     expanded: -18*c^2 - 12*c*e - 2*e^2 + 192*c + 64*e - 512
ok  det(A,B,C,F) = -2*(b - 4d)^2
     expanded: -2*b^2 + 16*b*d - 32*d^2
ok  det(A,B,C,D) at b=4d = -8a*(ad + 4(d^2 - 10d + 9))
     expanded: -8*a^2*d - 32*a*d^2 + 320*a*d - 288*a
ok  det(B,C,E,F) = -2c*(cd + d^2 - 10d + 9)
     expanded: -2*c^2*d - 2*c*d^2 + 20*c*d - 18*c
"""


def test_identities_prints_all_four(capsys):
    code, out, _ = run(["identities"], capsys)
    assert code == 0
    assert out == EXPECTED_IDENTITIES


def _derivation(tmp_path, capsys, args=("division", "--t", "1/2")) -> dict:
    """The derivation document that ``gadget args`` and ``replay`` write."""
    gadget_file, deriv_file = tmp_path / "g.json", tmp_path / "d.json"
    assert run(["gadget", *args, "-o", str(gadget_file)], capsys)[0] == 0
    assert run(["replay", str(gadget_file), "-o", str(deriv_file)], capsys)[0] == 0
    return json.loads(deriv_file.read_text())


def test_verify_rejects_negative_premise_index(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys)
    doc["facts"][-1]["premises"][-1] = -1  # would alias the previous fact
    bad = written(tmp_path / "negative.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert "negative premise" in err


def test_verify_rejects_derivation_without_facts(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys)
    doc["facts"] = []
    bad = written(tmp_path / "empty.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: facts:")


def test_verify_rejects_fact_without_point(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys)
    del doc["facts"][0]["fact"]["p"]
    bad = written(tmp_path / "no-p.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: facts[0].fact: missing field 'p'")


def test_replay_rejects_division_layout_without_roles(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    doc = json.loads(gadget_file.read_text())
    del doc["layout"]["roles"]
    bad = written(tmp_path / "no-roles.json", doc)
    code, _, err = run(["replay", str(bad)], capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: layout.roles:")


def test_replay_rejects_bridge_without_chains(tmp_path, capsys):
    gadget_file = tmp_path / "bridge.json"
    run(["gadget", "bridge", "--a", "0,0", "--b", "1,0", "--c", "0,2", "--d", "1,2", "-o", str(gadget_file)], capsys)
    doc = json.loads(gadget_file.read_text())
    doc["layout"]["sub"] = []
    bad = written(tmp_path / "empty-sub.json", doc)
    code, _, err = run(["replay", str(bad)], capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: layout.sub:")


def test_verify_rejects_oversized_rational(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    doc = json.loads(gadget_file.read_text())
    doc["certificate"][0]["d2"] = "7" * 5000 + "/3"
    bad = written(tmp_path / "digits.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: certificate[0].d2:")


def test_verify_rejects_deeply_nested_document(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    text = gadget_file.read_text()
    deep = tmp_path / "deep.json"
    # beyond the JSON parser's nesting limit
    deep.write_text(text.replace('"side_conditions": [', '"side_conditions": [' + "[" * 100000 + "]" * 100000 + ",", 1))
    # within the parser's limit, but nested past the decoder's recursion
    layout = json.loads(text)["layout"]
    for _ in range(400):
        layout = {"kind": "scale", "src": ["A", "B"], "dst": ["A", "B"], "r": {"$rat": "1"}, "sub": [layout]}
    nested = written(tmp_path / "nested.json", dict(json.loads(text), layout=layout))
    for bad in (deep, nested):
        code, _, err = run(["verify", str(bad)], capsys)
        assert code == 1
        assert err.startswith("SchemaViolation: document: nesting too deep")


@pytest.mark.parametrize("name", ["ZZ", [1]], ids=["unknown-name", "list"])
def test_verify_and_model_check_reject_fact_naming_non_gadget_point(tmp_path, capsys, name):
    doc = _derivation(tmp_path, capsys, ("division", "--t", "1/3"))
    for step in doc["facts"]:
        step["premises"] = [p + 1 for p in step["premises"]]
    fact = {"kind": "VecEq", "a": name, "b": "ZZ", "c": "WW", "d": "WW"}
    doc["facts"].insert(0, {"fact": fact, "rule": "VecAlgebra", "premises": []})
    bad = written(tmp_path / "foreign.json", doc)
    for argv in (["verify", str(bad)], ["model-check", str(bad), "--model", "identity"]):
        code, _, err = run(argv, capsys)
        assert code == 1, argv[0]
        assert err.startswith(f"SchemaViolation: facts[0].fact.a: unknown point {name!r}"), argv[0]


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("gadget", "certificate"), 5, "certificate: expected a list"),
        (("gadget", "certificate", 0, "p"), [1], "certificate[0].p: unknown point [1]"),
        (("gadget", "side_conditions"), [[[1], [2]]], "side_conditions[0]: unknown point in"),
        (("gadget", "field"), {"gens": 5}, "field: expected an object with a 'gens' list"),
        (("facts",), 5, "facts: expected a list"),
    ],
    ids=["certificate", "certificate-name", "side-names", "gens", "facts"],
)
def test_verify_rejects_malformed_containers(tmp_path, capsys, path, value, message):
    bad = written(tmp_path / "malformed.json", edit(_derivation(tmp_path, capsys), path, value))
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith(f"SchemaViolation: {message}")


def test_verify_rejects_tower_deeper_than_limit(tmp_path, capsys):
    gadget_file = division_file(tmp_path, capsys)
    doc = json.loads(gadget_file.read_text())
    # a dense tower: each radicand a distinct prime plus coordinates 1-3
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    doc["field"] = {"gens": [[str(p)] + [str(j) if j < 4 else "0" for j in range(1, 2**i)] for i, p in enumerate(primes)]}
    assert len(doc["field"]["gens"]) == MAX_TOWER_DEPTH + 1
    bad = written(tmp_path / "deep-tower.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: field.gens: 9 generators exceed the tower depth limit 8")


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    code, _, err = run(["gadget", "division"], capsys)  # missing --t
    assert code == 2
    code, _, err = run(["gadget", "kempe", "--t", "0"], capsys)
    assert code == 2
    assert "tangent" in err
    code, out, err = run(["gadget", "division", "--t", "1/3", "--r", "-3"], capsys)
    assert (code, out, err) == (2, "", "gadget construction failed: r = -3 does not exceed |AB|\n")
    # a chain longer than the builders take is refused before it is built
    code, out, err = run(["gadget", "chain", "--a", "0,0", "--b", "10000000,0", "--c", "0,1", "--d", "10000000,1"], capsys)
    assert (code, out) == (2, "") and err == "gadget construction failed: the rhombus chain needs 10000000 steps, more than MAX_CHAIN_STEPS = 10240\n"


@pytest.mark.parametrize(
    "points, error, message",
    [
        (["0,0", "0,0", "0,0", "4,0"], gadgets.CoincidentInputs, "P = Q or X = Y"),
        (["0,0", "1,1", "0,0", "1,-1"], gadgets.UnreachableRatio, "|XY| must be rational to anchor the linkage"),
    ],
    ids=["coincident", "irrational-anchor"],
)
def test_perp_inputs_the_builder_rejects_exit_2(points, error, message, capsys, monkeypatch):
    raised = []

    def build(*args):
        try:
            return gadgets.build_perp_transfer(*args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(cli, "build_perp_transfer", build)
    argv = ["gadget", "perp"] + [arg for flag, point in zip(("--p", "--q", "--x", "--y"), points) for arg in (flag, point)]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"gadget construction failed: {message}\n")
    assert raised == [error]


def test_a_point_with_a_negative_first_coordinate_is_written_with_equals(capsys):
    """argparse reads "-4,3" after a space as an option, a usage error;
    "--y=-4,3" passes it as the value."""
    code, out, _ = run(["gadget", "perp", "--p", "0,0", "--q", "3,4", "--x", "0,0", "--y=-4,3"], capsys)
    assert code == 0 and '"kind": "perp"' in out
    with pytest.raises(SystemExit) as exc:
        main(["gadget", "perp", "--p", "0,0", "--q", "3,4", "--x", "0,0", "--y", "-4,3"])
    assert exc.value.code == 2
    assert "argument --y: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "division", "--t", "1e99999999"],
        ["gadget", "chain", "--a", "1e999999999,0", "--c", "0,1", "--d", "1,1"],
        ["gadget", "division", "--t", "0.5"],
        ["gadget", "division", "--t", "1" * 4001],
    ],
    ids=["exponent", "point-exponent", "decimal", "4001-digits"],
)
def test_command_line_rationals_follow_the_file_grammar(argv, capsys, monkeypatch):
    """The command line reads a rational as files do ("p" or "p/q", at most
    ``codec.MAX_DIGITS`` digits per integer): anything else is a usage error
    before any gadget is built."""

    def never(*args):
        raise AssertionError("built a gadget from a rejected option")

    for name in ("build_division", "build_rhombus_chain"):
        monkeypatch.setattr(cli, name, never)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    monkeypatch.undo()
    code, out, _ = run(["gadget", "division", "--t", "1/2"], capsys)
    assert code == 0 and '"kind": "division"' in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(["verify", "/nonexistent/nothing.json"], capsys)
    assert code == 2


def test_chain_and_bridge_and_perp_commands(tmp_path, capsys):
    chain_file = tmp_path / "chain.json"
    code, _, _ = run(
        ["gadget", "chain", "--a", "0,0", "--b", "5,0", "--c", "0,1", "--d", "5,1", "-o", str(chain_file)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["replay", str(chain_file)], capsys)
    assert code == 0 and "VecEq" in out
    perp_file = tmp_path / "perp.json"
    code, _, _ = run(
        ["gadget", "perp", "--p", "0,0", "--q", "0,12/5", "--x", "0,0", "--y", "4,0", "-o", str(perp_file)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["replay", str(perp_file)], capsys)
    assert code == 0 and "DotZero" in out


def test_a_builder_with_a_wrong_certificate_is_caught_before_any_output(tmp_path, capsys, monkeypatch):
    """The builders do not validate: the ``gadget`` subcommand and the suite
    corpus validate what they build, so a wrong certificate value still ends
    in the builder's own failure line and writes nothing."""
    emit = gadgets._emit_division

    def doubled(builder, *args, **kwargs):
        layout = emit(builder, *args, **kwargs)
        builder.certificate[tuple(sorted((layout["roles"]["A"], layout["roles"]["E"])))] *= 2
        return layout

    monkeypatch.setattr(gadgets, "_emit_division", doubled)
    mismatch = "certificate mismatch for (A,E): stored 1/2, got 1/4"
    gadget_file = tmp_path / "division.json"
    code, out, err = run(["gadget", "division", "--t", "1/2", "-o", str(gadget_file)], capsys)
    assert (code, out, err) == (2, "", f"gadget construction failed: {mismatch}\n")
    assert not gadget_file.exists()
    monkeypatch.setattr(suite, "_CORPUS", None)
    code, out, err = run(["suite", "--seed", "0"], capsys)
    assert (code, out, err) == (1, "seed: 0\n", f"InvalidGadget: {mismatch}\n")


def test_exit_codes_stable_across_repeats(tmp_path, capsys):
    gadget_file = tmp_path / "k.json"
    first = run(["gadget", "kempe", "--t", "1", "-o", str(gadget_file)], capsys)[0]
    text_first = gadget_file.read_text()
    second = run(["gadget", "kempe", "--t", "1", "-o", str(gadget_file)], capsys)[0]
    assert first == second == 0
    assert gadget_file.read_text() == text_first


def _model_document() -> dict:
    return json.loads(codec.dumps(codec.encode_model(eps_rotation_model())))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(frame=[1]), "frame: expected an object or null"),
        (lambda doc: doc["frame"].update(matrix=[1, 2]), "frame.matrix: expected a 2x2 matrix"),
        (
            lambda doc: doc.update(embedding={"kind": "conjugation", "domain": {"gens": [["2"]]}, "generator": "x"}),
            "embedding.generator: expected a generator index, got 'x'",
        ),
        (
            lambda doc: doc.update(embedding={"kind": "conjugation", "domain": {"gens": [["2"]]}, "generator": 3}),
            "embedding.generator: generator index 3 out of range",
        ),
        (
            lambda doc: doc["frame"]["matrix"][0].__setitem__(0, {"$rat": "2"}),
            "frame.matrix: columns are not orthonormal",
        ),
        (
            lambda doc: doc["frame"]["matrix"][0][0]["$fun"].update(den=[["0"]]),
            "frame.matrix[0][0].den: zero denominator",
        ),
        (
            lambda doc: doc["frame"]["matrix"][0][0]["$fun"].update(den=[]),
            "frame.matrix[0][0].den: zero denominator",
        ),
    ],
    ids=["frame", "matrix", "generator", "generator-range", "non-orthonormal", "zero-den", "empty-den"],
)
def test_model_check_rejects_malformed_model_descriptor(tmp_path, capsys, edit, message):
    gadget_file = division_file(tmp_path, capsys)
    doc = _model_document()
    edit(doc)
    model_file = written(tmp_path / "model.json", doc)
    code, _, err = run(["model-check", str(gadget_file), "--model", f"@{model_file}"], capsys)
    assert code == 1
    assert err.startswith(f"SchemaViolation: {message}")


@pytest.mark.parametrize("command", ["verify", "replay", "model-check"])
def test_unhashable_document_kind_is_a_schema_violation(tmp_path, capsys, command):
    doc = _derivation(tmp_path, capsys)
    doc["kind"] = {}
    bad = written(tmp_path / "kind.json", doc)
    argv = [command, str(bad)] + (["--model", "identity"] if command == "model-check" else [])
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("SchemaViolation: kind: unknown document kind {}")


def test_verify_rejects_axiom_step_citing_premises(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys)
    index = next(i for i, step in enumerate(doc["facts"]) if i >= 2 and step["rule"] == "RationalDistanceAxiom")
    doc["facts"][index]["premises"] = [0, 1]
    bad = written(tmp_path / "axiom.json", doc)
    code, _, err = run(["verify", str(bad)], capsys)
    assert code == 1
    assert f"fact {index} is a RationalDistanceAxiom step and may cite no premises" in err


def test_model_check_rechecks_the_derivation(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys)
    doc["gadget"]["certificate"][0]["d2"] = "-3/2"
    bad = written(tmp_path / "negative-d2.json", doc)
    for argv in (["verify", str(bad)], ["model-check", str(bad), "--model", "identity"]):
        code, out, err = run(argv, capsys)
        assert code == 1, argv[0]
        assert err.startswith("InvalidGadget"), argv[0]
        assert "all-true" not in out


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda layout: layout.update(kind=True), "layout.kind: unknown layout kind True"),
        (lambda layout: layout.update(kind=[1]), "layout.kind: unknown layout kind [1]"),
        (lambda layout: layout.update(t={"$rat": "1/3"}), "goal: "),
        (lambda layout: layout["roles"].update(C="D"), "goal: "),
    ],
    ids=["kind-true", "kind-list", "t", "roles-C"],
)
def test_verify_and_model_check_reject_layout_edits(tmp_path, capsys, edit, message):
    doc = _derivation(tmp_path, capsys)
    edit(doc["gadget"]["layout"])
    bad = written(tmp_path / "layout.json", doc)
    for argv in (["verify", str(bad)], ["model-check", str(bad), "--model", "identity"]):
        code, out, err = run(argv, capsys)
        assert code == 1, argv[0]
        assert err.startswith(f"SchemaViolation: {message}"), argv[0]
        assert "all-true" not in out


_GADGET_ARGS = {
    "division": ["division", "--t", "1/2"],
    "chain": ["chain", "--a", "0,0", "--b", "5,0", "--c", "0,1", "--d", "5,1"],
    "kempe": ["kempe", "--t", "1"],
    # |PQ| = 2 against |XY| = 4: scale_pq holds a mirror and a translated point
    "perp": ["perp", "--p", "0,0", "--q", "0,-2", "--x", "0,0", "--y", "4,0"],
}

_SCALAR_TYPES = {"string": "12345", "letter": "x", "true": True, "list": [1], "fun": {"$fun": {"num": [["1"]], "den": [["1"]]}}}


@pytest.mark.parametrize(
    "gadget, path, what, values",
    [
        ("division", ("r",), "an exact rational", ("string", "letter", "true", "list", "fun")),
        ("perp", ("r",), "an exact rational", ("string", "true", "fun")),
        ("perp", ("s",), "an exact rational", ("letter", "list")),
        ("chain", ("side_sq",), "an exact rational or null", ("string", "true", "fun")),
        ("perp", ("scale_pq", "mirror"), "a gadget point name", ("letter", "true", "list")),
        ("perp", ("scale_pq", "sub", 0, "translated"), "a gadget point name", ("letter", "true")),
        ("kempe", ("t",), "an exact rational or tower scalar", ("letter", "true", "fun")),
        ("perp", ("kempe", "t"), "an exact rational or tower scalar", ("string", "list")),
    ],
    ids=["division-r", "perp-r", "perp-s", "chain-side_sq", "scale-mirror", "scale-translated", "kempe-t", "perp-kempe-t"],
)
def test_verify_and_model_check_reject_layout_field_types(tmp_path, capsys, gadget, path, what, values):
    text = json.dumps(_derivation(tmp_path, capsys, _GADGET_ARGS[gadget]))
    location = "layout" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)
    for value in values:
        bad = written(tmp_path / "bad.json", edit(json.loads(text), ("gadget", "layout", *path), _SCALAR_TYPES[value]))
        for argv in (["verify", str(bad)], ["model-check", str(bad), "--model", "identity"]):
            code, out, err = run(argv, capsys)
            assert code == 1, (argv[0], value)
            assert err.startswith(f"SchemaViolation: {location}: expected {what}"), (argv[0], value, err)
            assert "all-true" not in out


def test_kempe_layout_t_may_be_a_tower_scalar(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys, _GADGET_ARGS["kempe"])
    doc["gadget"]["layout"]["t"] = {"$tower": {"gens": [["2"]], "coords": ["1", "0"]}}
    edited = written(tmp_path / "tower-t.json", doc)
    assert run(["verify", str(edited)], capsys)[0] == 0


def test_verify_and_model_check_reject_boolean_premise_index(tmp_path, capsys):
    doc = _derivation(tmp_path, capsys)
    assert doc["facts"][8]["premises"][0] == 0  # false would alias it
    doc["facts"][8]["premises"][0] = False
    bad = written(tmp_path / "bool.json", doc)
    for argv in (["verify", str(bad)], ["model-check", str(bad), "--model", "identity"]):
        code, _, err = run(argv, capsys)
        assert code == 1, argv[0]
        assert err.startswith("SchemaViolation: facts[8].premises: expected a list of fact indices"), argv[0]


_REPLACEMENTS = (None, True, False, 0, 1, -1, 10**6, "", "A", "x", "1/2", "-3", [], [1], {}, {"$rat": "1/2"}, DELETE)


def _corpus_documents() -> list[tuple[str, list]]:
    """Each encoded corpus gadget and derivation, with its node paths."""
    texts = []
    for entry in suite.replay_corpus():
        texts.append(codec.dumps(codec.encode_gadget(entry.gadget)))
        texts.append(codec.dumps(codec.encode_derivation(entry.derivation)))
    return [(text, list(node_paths(json.loads(text)))) for text in texts]


def test_single_node_mutations_never_crash_the_cli(tmp_path_factory):
    """Structural fuzz (property-based testing: Claessen & Hughes, QuickCheck,
    2000): one node of an encoded corpus document is replaced or deleted, and
    every command ends in a verdict or a usage message, never an internal error."""
    documents = _corpus_documents()
    path = tmp_path_factory.mktemp("fuzz") / "mutant.json"

    @settings(DERANDOMIZED, max_examples=200)
    @given(st.data())
    def check(data):
        text, paths = data.draw(st.sampled_from(documents))
        node = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(_REPLACEMENTS))
        written(path, edit(json.loads(text), node, value))
        for argv in (["verify", str(path)], ["replay", str(path)], ["model-check", str(path), "--model", "identity"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert "internal error" not in err.getvalue(), (argv[0], node, value)
            assert code in (0, 1) or (code == 2 and err.getvalue() == "replay expects a gadget file\n"), (argv[0], code)

    check()
