"""Command-line interface.

Exit codes: 0 = verified, 1 = refuted or failed, 2 = usage or internal error.
All file payloads are exact-text JSON; see the codec module for the schema.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import codec, poly
from .cm import Point, rational_point
from .engine import (
    Derivation,
    EngineError,
    check_derivation,
    recheck_derivation,
    replay,
)
from .gadgets import (
    KEMPE_IDENTITIES,
    Gadget,
    GadgetError,
    build_division,
    build_kempe,
    build_perp_transfer,
    build_rhombus_chain,
    build_translation_bridge,
)
from .models import (
    ModelMap,
    conjugation_model,
    eps_rotation_model,
    identity_model,
    make_pythagorean_rotation,
    verify_preservation,
)
from .scalars import BadGeneratorIndex
from .suite import run_suite


def _parse_fraction(text: str) -> Fraction:
    """An exact rational in the files' grammar: "p" or "p/q" in ASCII digits,
    at most ``codec.MAX_DIGITS`` digits per integer."""
    try:
        return codec.decode_rational(text)
    except codec.SchemaViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y' with exact rationals, got {text!r}")
    return rational_point(*map(_parse_fraction, parts))


# each gadget kind: the options it needs, and its builder on the parsed arguments
_GADGETS = {
    "division": (("t",), lambda o: build_division(o.a, o.b, o.t, o.r)),
    "chain": (("a", "b", "c", "d"), lambda o: build_rhombus_chain(o.a, o.b, o.c, o.d)),
    "bridge": (("a", "b", "c", "d"), lambda o: build_translation_bridge(o.a, o.b, o.c, o.d)),
    "kempe": (("t",), lambda o: build_kempe(o.t)),
    "perp": (("p", "q", "x", "y"), lambda o: build_perp_transfer(o.p, o.q, o.x, o.y)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidity-forge",
        description="exact distance-geometry gadgets, derivations, and model checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gadget", help="build a gadget and write it as JSON")
    g.add_argument("gadget_kind", choices=list(_GADGETS))
    g.add_argument("--t", type=_parse_fraction, help="division section / linkage parameter")
    g.add_argument("--r", type=_parse_fraction, help="radius override for the division gadget")
    g.add_argument("--a", type=_parse_point, default=rational_point(0, 0))
    g.add_argument("--b", type=_parse_point, default=rational_point(1, 0))
    g.add_argument("--c", type=_parse_point)
    g.add_argument("--d", type=_parse_point)
    g.add_argument("--p", type=_parse_point)
    g.add_argument("--q", type=_parse_point)
    g.add_argument("--x", type=_parse_point)
    g.add_argument("--y", type=_parse_point)
    g.add_argument("-o", "--output", help="output path (default: stdout)")

    v = sub.add_parser("verify", help="re-check a gadget file's certificate and goal")
    v.add_argument("file")

    r = sub.add_parser("replay", help="replay the proof script for a gadget file")
    r.add_argument("file")
    r.add_argument("-o", "--output", help="write the derivation as JSON")

    sub.add_parser("identities", help="verify and print the four symbolic determinant factorizations")

    m = sub.add_parser("model-check", help="check a derivation (or gadget) against a model")
    m.add_argument("file")
    m.add_argument("--model", required=True, help="identity | conj:<i> | eps-rotation | eps-reflection | conj-rot:<i> | @model.json")

    s = sub.add_parser("suite", help="run the full acceptance property corpus")
    s.add_argument("--seed", type=int, default=0)
    return parser


def _write_output(payload: dict, output: str | None) -> None:
    text = codec.dumps(payload)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_gadget(args) -> int:
    kind = args.gadget_kind
    needed, build = _GADGETS[kind]
    if any(getattr(args, name) is None for name in needed):
        print(f"{kind} needs {' '.join('--' + name for name in needed)}", file=sys.stderr)
        return 2
    try:
        gadget = build(args)
        gadget.validate()
    except GadgetError as exc:
        print(f"gadget construction failed: {exc}", file=sys.stderr)
        return 2
    _write_output(codec.encode_gadget(gadget), args.output)
    return 0


def _load(path: str):
    return codec.decode_document(Path(path).read_text(encoding="utf-8"))


def _cmd_verify(args) -> int:
    document = _load(args.file)
    if isinstance(document, Gadget):
        document.validate()
        print(f"verified: {len(document.certificate)} certificate entries, "
              f"{len(document.side_conditions)} side conditions, goal holds on coordinates")
        return 0
    if isinstance(document, Derivation):
        recheck_derivation(document)
        print(f"verified: every step of the {len(document.facts)}-fact derivation re-checks")
        return 0
    print("model files have no self-consistency check", file=sys.stderr)
    return 2


def _cmd_replay(args) -> int:
    gadget = _load(args.file)
    if not isinstance(gadget, Gadget):
        print("replay expects a gadget file", file=sys.stderr)
        return 2
    derivation = replay(gadget)
    final = derivation.final_fact()
    print(f"replayed {len(derivation.facts)} facts; conclusion: {final}")
    if args.output:
        _write_output(codec.encode_derivation(derivation), args.output)
    return 0


def _cmd_identities(args) -> int:
    all_ok = True
    for identity in KEMPE_IDENTITIES:
        value = identity.determinant()
        ok = poly.identity_check(value, identity.constant, identity.factors)
        all_ok = all_ok and ok
        print(f"{'ok ' if ok else 'FAIL'} {identity.name} = {identity.rendered}")
        print(f"     expanded: {value}")
    return 0 if all_ok else 1


def _resolve_model(spec: str, gadget: Gadget | None) -> ModelMap:
    if spec.startswith("@"):
        model = _load(spec[1:])
        if not isinstance(model, ModelMap):
            raise codec.SchemaViolation("file is not a model descriptor")
        return model
    if spec == "identity":
        return identity_model()
    if spec == "eps-rotation":
        return eps_rotation_model()
    if spec == "eps-reflection":
        return eps_rotation_model(reflection=True)
    if spec.startswith("conj:") or spec.startswith("conj-rot:"):
        if gadget is None or gadget.tower.depth == 0:
            raise EngineError("gadget field has no generators to conjugate")
        try:
            index = int(spec.rsplit(":", 1)[1])
        except ValueError:
            raise EngineError(f"bad generator index in model spec {spec!r}") from None
        try:
            model = conjugation_model(gadget.tower, index)
        except BadGeneratorIndex as exc:  # out of range, or no automorphism
            raise EngineError(str(exc)) from None
        if spec.startswith("conj-rot:"):
            model = ModelMap(model.embedding, make_pythagorean_rotation(Fraction(1, 2)))
        return model
    raise EngineError(f"unknown model spec {spec!r}")


def _cmd_model_check(args) -> int:
    document = _load(args.file)
    if isinstance(document, Gadget):
        derivation = replay(document)
    elif isinstance(document, Derivation):
        recheck_derivation(document)  # a valid proof first, then its truth under the model
        derivation = document
    else:
        print("model-check expects a gadget or derivation file", file=sys.stderr)
        return 2
    model = _resolve_model(args.model, derivation.gadget)
    verdict = check_derivation(derivation, model)
    gadget = derivation.gadget
    pairs = [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]
    preservation = verify_preservation(model, pairs)
    print(f"derivation: {'all-true' if verdict.ok else f'violated at fact {verdict.violated_index}: {verdict.violated_fact}'}")
    print(f"preservation: {'ok' if preservation.ok else 'failed'} ({len(pairs)} certificate pairs)")
    return 0 if verdict.ok and preservation.ok else 1


def _cmd_suite(args) -> int:
    print(f"seed: {args.seed}")
    results, ok = run_suite(args.seed)
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        print(f"criterion {result.index}: {status} - {result.name} ({result.detail})")
    print("suite: " + ("all criteria passed" if ok else "FAILURES"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gadget": _cmd_gadget,
        "verify": _cmd_verify,
        "replay": _cmd_replay,
        "identities": _cmd_identities,
        "model-check": _cmd_model_check,
        "suite": _cmd_suite,
    }
    try:
        return handlers[args.command](args)
    except (codec.SchemaViolation, GadgetError, EngineError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
