"""The acceptance property corpus: deterministic, exact, zero tolerance.

Every criterion is a callable returning a result record; the command-line
``suite`` subcommand and the pytest acceptance module both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import codec, poly
from .cm import Point, affinely_dependent3, cm3, cm4, rational_point
from .engine import (
    Derivation,
    SqDistKnown,
    check_derivation,
    fact_key,
    kempe_identities_verified,
    replay,
)
from .gadgets import (
    KEMPE_IDENTITIES,
    Gadget,
    InvalidGadget,
    build_division,
    build_kempe,
    build_rhombus_chain,
    kempe_quad_distances,
)
from .models import (
    ModelMap,
    NonOrthogonalFrame,
    OrthoAffine,
    conjugation_model,
    eps_rotation_model,
    identity_model,
    make_pythagorean_rotation,
    verify_preservation,
    verify_structure,
)
from .scalars import QQ, BadGeneratorIndex, TowerDesc, TowerElem, adjoin_sqrt, tower_conjugate, _frac_sqrt


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str


def _rand_fraction(rng: random.Random, span: int = 30, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


# ---------------------------------------------------------------------------
# Shared corpus (criteria 5 and 6)
# ---------------------------------------------------------------------------


@dataclass
class CorpusEntry:
    label: str
    gadget: Gadget
    derivation: Derivation


_CORPUS: list[CorpusEntry] | None = None

DIVISION_TS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7, 9))
TRANSLATION_SPANS = (Fraction(0), Fraction(2), Fraction(5), Fraction(10))  # side s = 2
KEMPE_TS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 4))


def _entry(label: str, gadget: Gadget) -> CorpusEntry:
    """A corpus entry: the built gadget validated, then replayed."""
    gadget.validate()
    return CorpusEntry(label, gadget, replay(gadget))


def replay_corpus() -> list[CorpusEntry]:
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    entries: list[CorpusEntry] = []
    bases = [
        ("rational-base", rational_point(0, 0), rational_point(1, 0)),
    ]
    root2 = adjoin_sqrt(QQ, 2)
    bases.append(
        ("irrational-base", rational_point(0, 0, root2.tower), Point(root2.root, root2.tower.rational(0)))
    )
    for label, a, b in bases:
        for t in DIVISION_TS:
            entries.append(_entry(f"division[{label},t={t}]", build_division(a, b, t)))
    side = Fraction(2)
    for span in TRANSLATION_SPANS:
        a = rational_point(0, 0)
        b = rational_point(span, 0)
        c = rational_point(0, side)
        d = rational_point(span, side)
        entries.append(_entry(f"chain[|v|/s={span / side}]", build_rhombus_chain(a, b, c, d)))
    for t in KEMPE_TS:
        entries.append(_entry(f"kempe[t={t}]", build_kempe(t)))
    _CORPUS = entries
    return entries


def sqrt_flavored_conjugation(tower: TowerDesc, radicand: int) -> ModelMap | None:
    """The automorphism negating sqrt(radicand), on the tower extended by it.

    If the root already lies in the tower, the generator whose flip negates it
    is used; on towers where no single flip works, None is returned.
    """
    res = adjoin_sqrt(tower, QQ.rational(radicand))
    domain = res.tower
    root = res.root
    for i in range(domain.depth):
        try:
            if tower_conjugate(root, i) == -root:
                return conjugation_model(domain, i)
        except BadGeneratorIndex:
            continue
    return None


# the two function-field isometries: frozen, and the same for every gadget
_EPS_MODELS = (("eps-rotation", eps_rotation_model()), ("eps-reflection", eps_rotation_model(reflection=True)))


def model_family(gadget: Gadget) -> list[tuple[str, ModelMap]]:
    """The registered model set for a gadget: identity, the two named
    conjugations on extended domains, both function-field isometries, and a
    conjugation composed with a rotation-plus-translation frame."""
    models: list[tuple[str, ModelMap]] = [("identity", identity_model())]
    sqrt3 = sqrt_flavored_conjugation(gadget.tower, 3)
    for radicand, conj in ((3, sqrt3), (2, sqrt_flavored_conjugation(gadget.tower, 2))):
        if conj is not None:
            models.append((f"sqrt{radicand}-conjugation", conj))
    models += _EPS_MODELS
    if sqrt3 is not None:
        frame = make_pythagorean_rotation(Fraction(1, 2), translation=(Fraction(3), Fraction(-1, 2)))
        models.append(("conjugation-rotation", ModelMap(sqrt3.embedding, frame)))
    return models


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_1_symbolic_identities(seed: int = 0) -> CriterionResult:
    checks = [identity.holds() for identity in KEMPE_IDENTITIES]
    ok = all(checks) and kempe_identities_verified()
    return CriterionResult(1, "symbolic determinant identities", ok, f"4 factorizations: {checks}")


def criterion_2_three_point_determinant(seed: int = 0) -> CriterionResult:
    if cm3(Fraction(1), Fraction(1), Fraction(1)) != -3:
        return CriterionResult(2, "three-point determinant values", False, "cm3(1,1,1) != -3")
    rng = random.Random(seed + 2)
    trials = 0
    while trials < 50:
        a = _rand_fraction(rng)
        b = _rand_fraction(rng)
        if a + b == 0:
            continue
        trials += 1
        if cm3(a * a, (a + b) ** 2, b * b) != 0:
            return CriterionResult(2, "three-point determinant values", False, f"nonzero at a={a}, b={b}")
    return CriterionResult(2, "three-point determinant values", True, "cm3(1,1,1)=-3; 50 collinear patterns vanish")


def criterion_3_planar_four_points(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed + 3)
    for trial in range(500):
        pts = [(_rand_fraction(rng), _rand_fraction(rng)) for _ in range(4)]
        dists = []
        for i in range(4):
            for j in range(i + 1, 4):
                dx = pts[i][0] - pts[j][0]
                dy = pts[i][1] - pts[j][1]
                dists.append(dx * dx + dy * dy)
        if cm4(*dists) != 0:
            return CriterionResult(3, "planar four-point determinant vanishes", False, f"trial {trial}: {pts}")
    return CriterionResult(3, "planar four-point determinant vanishes", True, "500 random planar quadruples")


def _rational_circle_intersections(p1, s1, p2, s2):
    """Independent oracle: both intersection points over exact rationals."""
    vx = p2[0] - p1[0]
    vy = p2[1] - p1[1]
    q = vx * vx + vy * vy
    alpha = (s1 - s2 + q) / (2 * q)
    beta_sq = s1 / q - alpha * alpha
    beta = _frac_sqrt(beta_sq)
    if beta is None:
        raise ValueError("intersection is not rational")
    base = (p1[0] + alpha * vx, p1[1] + alpha * vy)
    return (
        (base[0] - beta * vy, base[1] + beta * vx),
        (base[0] + beta * vy, base[1] - beta * vx),
    )


def criterion_4_kempe_instance(seed: int = 0) -> CriterionResult:
    a_pt, b_pt, f_pt = (Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)), (Fraction(3), Fraction(0))
    c_pt = (Fraction(4), Fraction(2))  # B + 2*(cos, sin) at parameter 1: (0, 1)
    branches = _rational_circle_intersections(a_pt, Fraction(16), c_pt, Fraction(4))
    d_pt = next(p for p in branches if p != b_pt)
    branches = _rational_circle_intersections(c_pt, Fraction(4), f_pt, Fraction(1))
    e_pt = next(p for p in branches if p != b_pt)
    gadget = build_kempe(Fraction(1))
    pts = gadget.points
    checks = {
        "C": pts["C"] == rational_point(*c_pt),
        "D": pts["D"] == rational_point(*d_pt),
        "E": pts["E"] == rational_point(*e_pt),
        "C value": c_pt == (Fraction(4), Fraction(2)),
        "D value": d_pt == (Fraction(12, 5), Fraction(16, 5)),
        "E value": e_pt == (Fraction(12, 5), Fraction(4, 5)),
    }

    def sq(u, v):
        return (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2

    a = sq(b_pt, d_pt)
    b = sq(a_pt, c_pt)
    c = sq(b_pt, e_pt)
    d = sq(c_pt, f_pt)
    e = sq(a_pt, e_pt)
    checks["derived"] = (a, b, c, d, e) == (Fraction(64, 5), Fraction(20), Fraction(16, 5), Fraction(5), Fraction(32, 5))
    checks["e=16-3c"] = e == 16 - 3 * c
    checks["b=4d"] = b == 4 * d
    checks["a=4c"] = a == 4 * c
    checks["cd=-(d^2-10d+9)"] = c * d == -(d * d - 10 * d + 9)
    checks["DE.AB=0"] = (d_pt[0] - e_pt[0]) * (b_pt[0] - a_pt[0]) + (d_pt[1] - e_pt[1]) * (b_pt[1] - a_pt[1]) == 0
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    return CriterionResult(4, "Kempe instance t=1 against the intersection oracle", ok, "all re-derived" if ok else f"failed: {bad}")


def criterion_5_replays(seed: int = 0) -> CriterionResult:
    entries = replay_corpus()
    problems = []
    for entry in entries:
        final = entry.derivation.final_fact()
        goal = entry.gadget.goal
        if entry.label.startswith("division"):
            if not (hasattr(final, "t") and final.t == goal.t):
                problems.append(f"{entry.label}: t mismatch")
        if fact_key(final) != fact_key(goal):
            problems.append(f"{entry.label}: goal mismatch")
    counts = {
        "division": sum(1 for e in entries if e.label.startswith("division")),
        "chain": sum(1 for e in entries if e.label.startswith("chain")),
        "kempe": sum(1 for e in entries if e.label.startswith("kempe")),
    }
    ok = not problems and counts == {"division": 8, "chain": 4, "kempe": 4}
    return CriterionResult(5, "replay suite (division, translation, perpendicularity)", ok, f"{counts}" if ok else f"{problems}")


def criterion_6_soundness(seed: int = 0) -> CriterionResult:
    problems = []
    pair_count = 0
    for entry in replay_corpus():
        gadget = entry.gadget
        pairs = [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]
        for model_name, model in model_family(gadget):
            verdict = check_derivation(entry.derivation, model)
            if not verdict.ok:
                problems.append(f"{entry.label} x {model_name}: fact {verdict.violated_index}")
                continue
            report = verify_preservation(model, pairs)
            if not report.ok:
                problems.append(f"{entry.label} x {model_name}: preservation")
            pair_count += 1
    ok = not problems
    return CriterionResult(6, "soundness across the model family", ok, f"{pair_count} gadget x model checks" if ok else f"{problems[:4]}")


def criterion_7_negative_controls(seed: int = 0) -> CriterionResult:
    checks = {}
    entry = replay_corpus()[0]

    class Doubling:
        def apply(self, p):
            return Point(2 * p.x, 2 * p.y)

    verdict = check_derivation(entry.derivation, Doubling())
    checks["doubling fails at the first certificate fact"] = (
        not verdict.ok
        and verdict.violated_index == 0
        and isinstance(verdict.violated_fact, SqDistKnown)
    )
    try:
        OrthoAffine(matrix=((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2))))
        checks["non-orthogonal frame rejected"] = False
    except NonOrthogonalFrame:
        checks["non-orthogonal frame rejected"] = True
    doc = codec.encode_gadget(entry.gadget)
    doc["certificate"][0]["d2"] = "17/3"
    try:
        tampered = codec.decode_gadget(doc)
        tampered.validate()
        checks["tampered certificate detected"] = False
    except (InvalidGadget, codec.SchemaViolation):
        checks["tampered certificate detected"] = True
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    return CriterionResult(7, "negative controls", ok, "all rejected" if ok else f"failed: {bad}")


def criterion_8_oracle_agreement(seed: int = 0) -> CriterionResult:
    rng = random.Random(seed + 8)
    mismatches = 0
    for trial in range(1000):
        if trial < 200:
            p1 = (_rand_fraction(rng), _rand_fraction(rng))
            direction = (_rand_fraction(rng), _rand_fraction(rng))
            lam1, lam2 = _rand_fraction(rng), _rand_fraction(rng)
            pts = [
                p1,
                (p1[0] + lam1 * direction[0], p1[1] + lam1 * direction[1]),
                (p1[0] + lam2 * direction[0], p1[1] + lam2 * direction[1]),
            ]
        else:
            pts = [(_rand_fraction(rng), _rand_fraction(rng)) for _ in range(3)]
        points = [rational_point(x, y) for x, y in pts]
        via_cm = affinely_dependent3(*points)
        cross = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1]) - (pts[1][1] - pts[0][1]) * (pts[2][0] - pts[0][0])
        if via_cm != (cross == 0):
            mismatches += 1
    if mismatches:
        return CriterionResult(8, "oracle agreement", False, f"{mismatches} collinearity mismatches")
    dets = [(identity.quad, poly.det(identity.matrix())) for identity in KEMPE_IDENTITIES]
    for trial in range(100):
        values = {name: _rand_fraction(rng) for name in "abcde"}
        for quad, det_poly in dets:
            symbolic = det_poly.evaluate(values)
            numeric = cm4(*[Fraction(x) for x in kempe_quad_distances(quad, values)])
            if symbolic != numeric:
                return CriterionResult(8, "oracle agreement", False, f"det mismatch at {values}")
    return CriterionResult(8, "oracle agreement", True, "1000 collinearity trials; 100 x 4 determinant evaluations")


def criterion_9_sample() -> tuple[list[tuple[str, ModelMap]], list[TowerElem], list[Point]]:
    """Criterion 9's sample over Q(sqrt 2): the five registered models by
    name, the multipliers lambda (sqrt 2 first) and the ten rational
    directions with (sqrt 2, 1)."""
    root2 = adjoin_sqrt(QQ, 2)
    tower, s2 = root2.tower, root2.root
    us = [
        Point(tower.rational(i), tower.rational(j))
        for i, j in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (5, 2), (7, 1)]
    ]
    us.append(Point(s2, tower.one()))
    lambdas = [s2, tower.rational(2), tower.rational(Fraction(1, 3)), tower.one() + s2]
    sqrt2_conj = conjugation_model(tower, 0)
    registered = [
        ("identity", identity_model()),
        ("sqrt2-conjugation", sqrt2_conj),
        *_EPS_MODELS,
        (
            "conjugation-rotation",
            ModelMap(sqrt2_conj.embedding, make_pythagorean_rotation(Fraction(1, 2))),
        ),
    ]
    return registered, lambdas, us


def criterion_9_structure(seed: int = 0) -> CriterionResult:
    registered, lambdas, us = criterion_9_sample()
    s2 = lambdas[0]
    problems = []
    for name, model in registered:
        report = verify_structure(model, lambdas, us)
        if not report.ok:
            problems.append(f"{name}: additivity={report.additivity_ok} theta={report.theta_ok} hom={report.homomorphism_ok}")
            continue
        if name in ("sqrt2-conjugation", "conjugation-rotation") and not report.thetas[0] == -s2:
            problems.append(f"{name}: theta(sqrt2) != -sqrt2")
        if name == "identity" and not report.thetas[0] == s2:
            problems.append("identity: theta(sqrt2) != sqrt2")
    ok = not problems
    return CriterionResult(9, "structural equations on all registered models", ok, f"{len(registered)} models x {len(us)} directions" if ok else f"{problems}")


CRITERIA: Sequence[Callable[[int], CriterionResult]] = (
    criterion_1_symbolic_identities,
    criterion_2_three_point_determinant,
    criterion_3_planar_four_points,
    criterion_4_kempe_instance,
    criterion_5_replays,
    criterion_6_soundness,
    criterion_7_negative_controls,
    criterion_8_oracle_agreement,
    criterion_9_structure,
)


def run_suite(seed: int = 0) -> tuple[list[CriterionResult], bool]:
    results = [criterion(seed) for criterion in CRITERIA]
    return results, all(r.ok for r in results)
