"""The three workloads: inputs, the work of one item, and its known answer.

An *item* is one input carried through to its verdict.  A workload is a
fixed list of items (one *pass*); the closed loop runs whole passes in a
seeded order.  Every item's expected verdict follows from how the item was
built, never from the code under test:

* a sound model gives all-true with ``checked == len(facts)``;
* a negative control refutes at the index it was constructed to break;
* ``recheck_derivation`` raises nothing on a replayed derivation;
* decoding and re-encoding reproduces the JSON byte for byte.

Only public functions of the package are called.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Names of the deterministic counters, summed over one pass (the tower depth
# is a maximum).  ``engine.closure_ratio`` is derived from two of them.
COUNTERS = (
    "engine.facts",
    "engine.facts_checked",
    "engine.closure_facts",
    "gadgets.points",
    "gadgets.cert_entries",
    "gadgets.tower_depth_max",
    "codec.bytes",
)

# model names used by ``suite.model_family`` -> check kind in metric names
MODEL_KINDS = {
    "identity": "identity",
    "sqrt3-conjugation": "conjugation",
    "sqrt2-conjugation": "conjugation",
    "conjugation-rotation": "conjugation-rotation",
    "eps-rotation": "eps-rotation",
    "eps-reflection": "eps-reflection",
}


@dataclass
class Outcome:
    ok: bool
    message: str = ""
    tally: Callable[[], dict] = dict  # counters, evaluated after the timer stops


@dataclass
class Item:
    id: str
    group: str  # "kfield" when the item's model maps into K(eps), else "tower"
    run: Callable  # run(tracer) -> Outcome


@dataclass
class Workload:
    items: list[Item]
    base_counters: dict = field(default_factory=dict)  # counted once at setup, per pass


def merge_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key == "gadgets.tower_depth_max":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def closure_size(derivation) -> int:
    """Facts in the premise closure of the final fact (the proof proper)."""
    seen = {len(derivation.facts) - 1}
    stack = list(seen)
    while stack:
        for premise in derivation.justifications[stack.pop()].premises:
            if premise not in seen:
                seen.add(premise)
                stack.append(premise)
    return len(seen)


def gadget_counters(gadget) -> dict:
    return {
        "gadgets.points": len(gadget.points),
        "gadgets.cert_entries": len(gadget.certificate),
        "gadgets.tower_depth_max": gadget.tower.depth,
    }


def derivation_counters(derivation) -> dict:
    return {"engine.facts": len(derivation.facts), "engine.closure_facts": closure_size(derivation)}


def field_of(model) -> str:
    return "kfield" if model.embedding.kind == "function_field" else "tower"


def automorphic_generators(tower) -> list[int]:
    """Generators whose sign flip extends to an automorphism of the tower:
    no later radicand has a nonzero coordinate involving the generator."""
    return [
        i
        for i in range(tower.depth)
        if not any(
            mask >> i & 1 and c != 0
            for later in tower.gens[i + 1 :]
            for mask, c in enumerate(later.coords)
        )
    ]


def check_under(m, tracer, derivation, model, kind: str, pairs) -> tuple[bool, int, str]:
    """check_derivation + verify_preservation under a sound model."""
    with tracer.span(f"engine.check.{kind}"):
        verdict = m.engine.check_derivation(derivation, model)
    with tracer.span(f"models.preservation.{field_of(model)}"):
        report = m.models.verify_preservation(model, pairs)
    n = len(derivation.facts)
    ok = verdict.ok and verdict.checked == n and report.ok and len(report.checks) == len(pairs)
    message = "" if ok else f"{kind}: ok={verdict.ok} checked={verdict.checked}/{n} preservation={report.ok}"
    return ok, verdict.checked, message


def certificate_pairs(gadget) -> list:
    return [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]


# ---------------------------------------------------------------------------
# soundness-corpus
# ---------------------------------------------------------------------------


def _corpus_check_item(m, derivation, model, kind, pairs):
    def run(tracer) -> Outcome:
        ok, checked, message = check_under(m, tracer, derivation, model, kind, pairs)
        return Outcome(ok, message, lambda: {"engine.facts_checked": checked})

    return run


def structure_item(m, model, lambdas, us, expected_theta):
    def run(tracer) -> Outcome:
        with tracer.span(f"models.structure.{field_of(model)}"):
            report = m.models.verify_structure(model, lambdas, us)
        ok = report.ok and len(report.thetas) == len(lambdas) and report.thetas[0] == expected_theta
        return Outcome(ok, "" if ok else f"structure: ok={report.ok}")

    return run


def _refuting_item(m, derivation, model, span: str, expected_index: int):
    def run(tracer) -> Outcome:
        with tracer.span(span):
            verdict = m.engine.check_derivation(derivation, model)
        ok = (
            not verdict.ok
            and verdict.violated_index == expected_index
            and verdict.checked == expected_index + 1
        )
        message = "" if ok else f"expected refutation at {expected_index}, got ok={verdict.ok} index={verdict.violated_index}"
        return Outcome(ok, message, lambda: {"engine.facts_checked": verdict.checked})

    return run


class Doubling:
    """p -> 2p: not distance preserving, so the first certificate fact fails."""

    def __init__(self, point_type) -> None:
        self.point_type = point_type

    def apply(self, p):
        return self.point_type(2 * p.x, 2 * p.y)

    def embed_rational(self, q):
        return q


def structure_models(m):
    """The five models and sample data that acceptance criterion 9 registers,
    with the known image of sqrt(2) under each."""
    s = m.scalars
    root2 = s.adjoin_sqrt(s.QQ, 2)
    tower, s2 = root2.tower, root2.root
    us = [
        m.cm.Point(tower.rational(i), tower.rational(j))
        for i, j in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (5, 2), (7, 1)]
    ]
    us.append(m.cm.Point(s2, tower.one()))
    lambdas = [s2, tower.rational(2), tower.rational(Fraction(1, 3)), tower.one() + s2]
    conj = m.models.conjugation_model(tower, 0)
    registered = [
        ("identity", m.models.identity_model(), s2),
        ("sqrt2-conjugation", conj, -s2),
        ("eps-rotation", m.models.eps_rotation_model(), s2),
        ("eps-reflection", m.models.eps_rotation_model(reflection=True), s2),
        (
            "conjugation-rotation",
            m.models.ModelMap(conj.embedding, m.models.make_pythagorean_rotation(Fraction(1, 2))),
            -s2,
        ),
    ]
    return registered, lambdas, us


def setup_soundness(m, seed: int) -> Workload:
    rng = random.Random(seed)
    corpus = m.suite.replay_corpus()
    items: list[Item] = []
    base: dict = {}
    for entry in corpus:
        gadget, derivation = entry.gadget, entry.derivation
        merge_counters(base, gadget_counters(gadget))
        merge_counters(base, derivation_counters(derivation))
        pairs = certificate_pairs(gadget)
        for model_name, model in m.suite.model_family(gadget):
            kind = MODEL_KINDS[model_name]
            items.append(
                Item(f"{entry.label} x {model_name}", field_of(model), _corpus_check_item(m, derivation, model, kind, pairs))
            )
    registered, lambdas, us = structure_models(m)
    for name, model, theta in registered:
        items.append(Item(f"structure x {name}", field_of(model), structure_item(m, model, lambdas, us, theta)))

    # negative controls on a seeded division entry of the corpus
    divisions = [e for e in corpus if isinstance(e.gadget.goal, m.gadgets.AffineComb)]
    target = rng.choice(divisions)
    derivation = target.derivation
    items.append(
        Item(f"control doubling x {target.label}", "tower", _refuting_item(m, derivation, Doubling(m.cm.Point), "engine.check.control", 0))
    )
    final = derivation.facts[-1]
    altered_t = final.t + Fraction(rng.randint(1, 5), rng.randint(2, 7))
    altered = m.engine.Derivation(
        derivation.gadget,
        derivation.facts[:-1] + [dataclasses.replace(final, t=altered_t)],
        list(derivation.justifications),
    )
    last = len(altered.facts) - 1
    for kind, model in (("identity", m.models.identity_model()), ("eps-rotation", m.models.eps_rotation_model())):
        items.append(
            Item(f"control altered-ratio x {kind}", field_of(model), _refuting_item(m, altered, model, f"engine.check.{kind}", last))
        )
    return Workload(items, base)


# ---------------------------------------------------------------------------
# chain-scale
# ---------------------------------------------------------------------------

CHAIN_SPANS = (5, 10, 20, 40, 80)  # side 1
# (span, C - A): translation bridges whose |AC| is irrational
BRIDGES = ((3, (1, 1)), (5, (1, 2)), (10, (2, 3)), (4, (1, 3)), (6, (1, 4)), (8, (3, 1)), (7, (2, 5)))


def file_pipeline_item(m, build_kind: str, build):
    """build -> replay -> encode -> decode -> re-encode -> recheck -> check."""

    def run(tracer) -> Outcome:
        codec, engine = m.codec, m.engine
        with tracer.span(f"gadgets.build.{build_kind}"):
            gadget = build()
        with tracer.span("engine.replay"):
            derivation = engine.replay(gadget)
        with tracer.span("codec.encode"):
            text = codec.dumps(codec.encode_derivation(derivation))
        with tracer.span("codec.decode"):
            decoded = codec.decode_document(text)
        with tracer.span("codec.encode"):
            again = codec.dumps(codec.encode_derivation(decoded))
        with tracer.span("engine.recheck"):
            engine.recheck_derivation(decoded)
        pairs = certificate_pairs(decoded.gadget)
        checks = [("identity", m.models.identity_model())] + [
            ("conjugation", m.models.conjugation_model(decoded.gadget.tower, i))
            for i in automorphic_generators(decoded.gadget.tower)
        ]
        ok = again == text and len(decoded.facts) == len(derivation.facts)
        messages = [] if ok else ["decode/encode round trip differs"]
        checked = 0
        for kind, model in checks:
            passed, n, message = check_under(m, tracer, decoded, model, kind, pairs)
            ok = ok and passed
            checked += n
            if message:
                messages.append(message)

        def tally() -> dict:
            out = {"engine.facts_checked": checked, "codec.bytes": len(text.encode("utf-8"))}
            out.update(gadget_counters(gadget))
            out.update(derivation_counters(derivation))
            return out

        return Outcome(ok, "; ".join(messages), tally)

    return run


def setup_chain_scale(m, seed: int) -> Workload:
    pt = m.cm.rational_point
    gadgets = m.gadgets
    items = []
    for span in CHAIN_SPANS:
        build = lambda s=span: gadgets.build_rhombus_chain(pt(0, 0), pt(s, 0), pt(0, 1), pt(s, 1))
        items.append(Item(f"chain span={span}", "tower", file_pipeline_item(m, "chain", build)))
    for span, (cx, cy) in BRIDGES:
        build = lambda s=span, x=cx, y=cy: gadgets.build_translation_bridge(pt(0, 0), pt(s, 0), pt(x, y), pt(x + s, y))
        items.append(Item(f"bridge span={span} C=({cx},{cy})", "tower", file_pipeline_item(m, "bridge", build)))
    return Workload(items)


# ---------------------------------------------------------------------------
# radical-build
# ---------------------------------------------------------------------------


def _build_check_item(m, build_kind: str, build):
    """build -> replay -> check_derivation under identity and every
    generator conjugation that is an automorphism of the gadget's tower."""

    def run(tracer) -> Outcome:
        with tracer.span(f"gadgets.build.{build_kind}"):
            gadget = build()
        with tracer.span("engine.replay"):
            derivation = m.engine.replay(gadget)
        n = len(derivation.facts)
        checks = [("identity", m.models.identity_model())] + [
            ("conjugation", m.models.conjugation_model(gadget.tower, i))
            for i in automorphic_generators(gadget.tower)
        ]
        ok, checked, messages = True, 0, []
        for kind, model in checks:
            with tracer.span(f"engine.check.{kind}"):
                verdict = m.engine.check_derivation(derivation, model)
            checked += verdict.checked
            if not (verdict.ok and verdict.checked == n):
                ok = False
                messages.append(f"{kind}: ok={verdict.ok} checked={verdict.checked}/{n}")
        ok = ok and n > 0

        def tally() -> dict:
            out = {"engine.facts_checked": checked}
            out.update(gadget_counters(gadget))
            out.update(derivation_counters(derivation))
            return out

        return Outcome(ok, "; ".join(messages), tally)

    return run


def radical_templates(m, rng: random.Random) -> list[tuple[str, str, Callable]]:
    """The seeded batch: (label, build kind, builder) over towers of depth 1-4.

    The seed translates each construction by an integer vector and jitters
    the long segment lengths; shapes (and so tower depths) stay fixed.
    """
    s, g = m.scalars, m.gadgets
    Point = m.cm.Point
    r2 = s.adjoin_sqrt(s.QQ, 2)
    r3 = s.adjoin_sqrt(r2.tower, 3)
    r5 = s.adjoin_sqrt(r3.tower, 5)
    t1, t2, t3 = r2.tower, r3.tower, r5.tower
    sqrt2 = {t1: r2.root, t2: r2.root.lift(t2), t3: r2.root.lift(t3)}
    sqrt3 = {t2: r3.root, t3: r3.root.lift(t3)}
    sqrt5 = r5.root

    def shift():
        return rng.randint(-9, 9), rng.randint(-9, 9)

    def at(tower, x, y, dx, dy):
        """The point (x + dx, y + dy) over ``tower``; x, y are rationals or
        elements of ``tower``."""
        return Point(*(v + d if isinstance(v, s.TowerElem) else tower.rational(Fraction(v) + d) for v, d in ((x, dx), (y, dy))))

    out = []

    def division(label, tower, bx, by, t):
        dx, dy = shift()
        build = lambda: g.build_division(at(tower, 0, 0, dx, dy), at(tower, bx, by, dx, dy), t)
        out.append((label, "division", build))

    division("division d1 base Q(r2)", t1, sqrt2[t1], 0, Fraction(1, 3))
    division("division d2 base Q(r2,r3)", t2, sqrt2[t2], sqrt3[t2], Fraction(1, 3))
    division("division d3 base Q(r2,r3)", t2, sqrt2[t2] + sqrt3[t2], 1, Fraction(2, 5))
    division("division d4 base Q(r2,r3,r5)", t3, sqrt2[t3] + sqrt5, sqrt3[t3], Fraction(2, 7))

    for base, t in ((10, Fraction(1, 3)), (100, Fraction(2, 5)), (1000, Fraction(1, 3)), (1000, Fraction(2, 5))):
        n = base + rng.randint(0, base // 50)
        dx, dy = shift()
        build = lambda n=n, t=t, dx=dx, dy=dy: g.build_division(at(s.QQ, 0, 0, dx, dy), at(s.QQ, n, 0, dx, dy), t)
        out.append((f"segment |AB|={n} t={t}", "division", build))

    def perp(label, tower, p, q, x, y):
        dx, dy = shift()
        pts = [at(tower, *c, dx, dy) for c in (p, q, x, y)]
        out.append((label, "perp", lambda: g.build_perp_transfer(*pts)))

    perp("perp rational kappa d2", s.QQ, (0, 0), (0, Fraction(12, 5)), (0, 0), (4, 0))
    perp("perp rational kappa d4", s.QQ, (1, 1), (1, 4), (0, 0), (3, 0))
    perp("perp irrational kappa d3", t1, (0, 0), (0, sqrt2[t1]), (0, 0), (4, 0))

    def bridge(label, tower, b, c):
        dx, dy = shift()
        a, b_, c_ = (at(tower, *v, dx, dy) for v in ((0, 0), b, c))
        d_ = Point(c_.x + (b_.x - a.x), c_.y + (b_.y - a.y))
        out.append((label, "bridge", lambda: g.build_translation_bridge(a, b_, c_, d_)))

    bridge("bridge irrational |AC| d1", s.QQ, (3, 0), (1, 1))
    bridge("bridge irrational base d3", t1, (sqrt2[t1], 0), (1, 2))

    for label, t in (("kempe t=1+r2 d1", sqrt2[t1] + 1), ("kempe t=r2+r3 d2", sqrt2[t2] + sqrt3[t2])):
        out.append((label, "kempe", lambda t=t: g.build_kempe(t)))
    return out


def setup_radical_build(m, seed: int) -> Workload:
    rng = random.Random(seed)
    items = [
        Item(label, "tower", _build_check_item(m, kind, build))
        for label, kind, build in radical_templates(m, rng)
    ]
    return Workload(items)


SETUPS = {
    "soundness-corpus": setup_soundness,
    "chain-scale": setup_chain_scale,
    "radical-build": setup_radical_build,
}
