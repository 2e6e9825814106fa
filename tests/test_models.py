"""Distance-preserving model maps and the structural verification reports."""

import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from rigidity_forge import cm, engine, gadgets, models, scalars, suite
from rigidity_forge.cm import Point, rational_point, sqdist
from rigidity_forge.engine import Derivation, Distinct, NonzeroDist, SqDistKnown, check_derivation, replay
from rigidity_forge.gadgets import (
    AffineComb,
    DotZero,
    VecEq,
    VecScale,
    build_division,
    build_kempe,
    build_rhombus_chain,
)
from rigidity_forge.models import (
    DegenerateParameter,
    Embedding,
    ModelMap,
    NonOrthogonalFrame,
    OrthoAffine,
    OutOfDomain,
    conjugation_model,
    eps_rotation_model,
    identity_model,
    make_pythagorean_rotation,
    verify_preservation,
    verify_structure,
)
from rigidity_forge.scalars import QQ, FunElem, adjoin_sqrt

F = Fraction


@pytest.fixture(scope="module")
def sqrt2_tower():
    return adjoin_sqrt(QQ, 2)


@pytest.fixture(scope="module")
def sqrt3_tower():
    return adjoin_sqrt(QQ, 3)


# -- rotations ----------------------------------------------------------------


def test_rotation_at_zero_is_identity():
    frame = make_pythagorean_rotation(F(0))
    assert frame.matrix == ((F(1), F(0)), (F(0), F(1)))


def test_rotation_at_one_is_quarter_turn():
    frame = make_pythagorean_rotation(F(1))
    assert frame.matrix == ((F(0), F(-1)), (F(1), F(0)))


def test_rotation_at_eps_has_exact_unit_columns():
    frame = make_pythagorean_rotation(FunElem.eps())
    (a, nb), (b, a2) = frame.matrix
    assert a == a2 and nb == -b
    assert a * a + b * b == 1


def test_reflection_family_covers_other_determinant_sign():
    frame = make_pythagorean_rotation(F(1, 2), reflection=True)
    (a, b1), (b2, na) = frame.matrix
    assert b1 == b2 and na == -a
    # determinant -(a^2 + b^2) = -1
    assert a * (-a) - b1 * b2 == -1


def test_nonorthogonal_frames_rejected():
    with pytest.raises(NonOrthogonalFrame):
        OrthoAffine(matrix=((F(2), F(0)), (F(0), F(2))))
    with pytest.raises(NonOrthogonalFrame):
        OrthoAffine(matrix=((F(1), F(1)), (F(0), F(1))))


def test_degenerate_rotation_parameter():
    # no carrier here has 1 + t^2 = 0, so exercise via a crafted zero test
    class SquareRootOfMinusOne:
        def __mul__(self, other):
            return -1 if isinstance(other, SquareRootOfMinusOne) else NotImplemented

        def __add__(self, other):
            return other - 1

        def __radd__(self, other):
            return other - 1

        def __rmul__(self, other):
            return NotImplemented

    with pytest.raises((DegenerateParameter, TypeError)):
        make_pythagorean_rotation(SquareRootOfMinusOne())


# -- model application --------------------------------------------------------------


def test_identity_model_fixes_points(sqrt2_tower):
    p = Point(sqrt2_tower.root, sqrt2_tower.tower.rational(F(1, 2)))
    assert identity_model().apply(p) == p


def test_conjugation_model_flips_root(sqrt3_tower):
    tower = sqrt3_tower.tower
    model = conjugation_model(tower, 0)
    half_root = sqrt3_tower.root * F(1, 2)
    p = Point(tower.rational(F(1, 2)), half_root)
    image = model.apply(p)
    assert image.x == F(1, 2)
    assert image.y == -half_root


def test_conjugation_model_out_of_domain(sqrt3_tower):
    model = conjugation_model(sqrt3_tower.tower, 0)
    s5 = adjoin_sqrt(QQ, 5).root
    with pytest.raises(OutOfDomain):
        model.embedding.apply_scalar(s5)


def test_conjugation_domain_membership_is_by_value(sqrt3_tower):
    s5 = adjoin_sqrt(QQ, 5)
    s35 = adjoin_sqrt(sqrt3_tower.tower, 5)
    embedding = conjugation_model(s5.tower, 0).embedding
    one = embedding.apply_scalar(sqrt3_tower.tower.one())
    assert one == 1 and one.tower == s5.tower
    root = embedding.apply_scalar(s35.root)
    assert root == -s5.root and root.tower == s5.tower
    with pytest.raises(OutOfDomain):
        embedding.apply_scalar(sqrt3_tower.root)
    with pytest.raises(OutOfDomain):
        embedding.apply_scalar(s35.root + sqrt3_tower.root)


def test_eps_rotation_on_unit_vector():
    model = eps_rotation_model()
    image = model.apply(rational_point(1, 0))
    eps = FunElem.eps()
    one = FunElem.constant(1)
    assert image.x == (one - eps * eps) / (one + eps * eps)
    assert image.y == (2 * eps) / (one + eps * eps)


def test_frame_translation_applies_after_linear_part():
    frame = make_pythagorean_rotation(F(1), translation=(F(10), F(0)))
    model = ModelMap(Embedding("identity"), frame)
    image = model.apply(rational_point(1, 0))
    assert image == rational_point(10, 1)


# -- preservation -------------------------------------------------------------------------


def test_identity_preserves_random_pairs():
    import random

    rng = random.Random(1)
    pairs = []
    for _ in range(100):
        pairs.append(
            (
                rational_point(F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9))),
                rational_point(F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9))),
            )
        )
    assert verify_preservation(identity_model(), pairs).ok


def test_conjugation_preserves_division_certificate():
    gadget = build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2))
    model = conjugation_model(gadget.tower, 0)
    pairs = [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]
    report = verify_preservation(model, pairs)
    assert report.ok and len(report.checks) == 8


def test_eps_rotation_preserves_unit_pairs():
    model = eps_rotation_model()
    pairs = [
        (rational_point(0, 0), rational_point(1, 0)),
        (rational_point(0, 0), rational_point(0, 1)),
        (rational_point(2, 3), rational_point(3, 3)),
        (rational_point(0, 0), rational_point(F(3, 5), F(4, 5))),
    ]
    report = verify_preservation(model, pairs)
    assert report.ok
    for p, q in pairs:
        assert sqdist(model.apply(p), model.apply(q)) == 1


def test_preservation_detects_scaling():
    frame_less = identity_model()

    class Doubler:
        embedding = frame_less.embedding

        def apply(self, p):
            return Point(2 * p.x, 2 * p.y)

        def rho(self, v):
            return v

        def embed_rational(self, q):
            return q

    report = verify_preservation(Doubler(), [(rational_point(0, 0), rational_point(1, 0))])
    assert not report.ok


def test_preservation_maps_each_point_once(monkeypatch):
    gadget = build_rhombus_chain(rational_point(0, 0), rational_point(80, 0), rational_point(0, 1), rational_point(80, 1))
    pairs = [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]
    calls = []
    real_apply = ModelMap.apply

    def counting_apply(self, p):
        calls.append(p)
        return real_apply(self, p)

    monkeypatch.setattr(ModelMap, "apply", counting_apply)
    for model in (identity_model(), eps_rotation_model()):
        calls.clear()
        assert verify_preservation(model, pairs).ok
        # 162 points in 241 pairs: one call per point, not one per endpoint
        assert (len(calls), len(pairs)) == (len(gadget.points), 241) == (162, 241)


def test_structure_maps_each_point_once(monkeypatch, sqrt2_tower):
    tower, s2 = sqrt2_tower.tower, sqrt2_tower.root
    us = directions(tower) + [Point(s2, tower.one())]
    lambdas = [s2, tower.rational(2), tower.rational(F(1, 3)), tower.one() + s2]
    origin = Point(tower.zero(), tower.zero())
    sums = [Point(u.x + v.x, u.y + v.y) for u, v in combinations(us, 2)]
    scaled = [Point(lam * u.x, lam * u.y) for lam in lambdas for u in us]
    distinct = {origin, *us, *sums, *scaled}
    calls = []
    real_apply = ModelMap.apply

    def counting_apply(self, p):
        calls.append(p)
        return real_apply(self, p)

    monkeypatch.setattr(ModelMap, "apply", counting_apply)
    for model in (identity_model(), eps_rotation_model()):
        calls.clear()
        assert verify_structure(model, lambdas, us).ok
        # 11 directions, 55 sums and 44 multiples: 92 distinct points with the
        # origin, where one call per use would make 254
        assert len(calls) == len(set(calls)) == len(distinct) == 92


# -- structure ----------------------------------------------------------------------------------


def directions(tower):
    pts = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (5, 2), (7, 1)]
    return [Point(tower.rational(i), tower.rational(j)) for i, j in pts]


def test_structure_identity_theta_is_lambda(sqrt2_tower):
    tower = sqrt2_tower.tower
    us = directions(tower)
    lambdas = [sqrt2_tower.root, tower.rational(3)]
    report = verify_structure(identity_model(), lambdas, us)
    assert report.ok
    assert report.thetas[0] == sqrt2_tower.root


def test_structure_sqrt2_conjugation_theta(sqrt2_tower):
    tower = sqrt2_tower.tower
    model = conjugation_model(tower, 0)
    us = directions(tower) + [Point(sqrt2_tower.root, tower.one())]
    report = verify_structure(model, [sqrt2_tower.root], us)
    assert report.ok
    assert report.thetas[0] == -sqrt2_tower.root
    assert len(us) >= 10


def test_structure_eps_rotation_additivity():
    import random

    rng = random.Random(5)
    us = [rational_point(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(15)]
    us = [u for u in us if not (u.x.is_zero() and u.y.is_zero())]
    report = verify_structure(eps_rotation_model(), [QQ.rational(2), QQ.rational(F(1, 5))], us)
    assert report.ok


def test_structure_detects_nonhomomorphic_map():
    class Shifted:
        def apply(self, p):
            return Point(p.x * p.x, p.y)  # squaring is not additive on R^2

        def rho(self, v):
            return v

        def embed_rational(self, q):
            return q

    us = directions(QQ)
    report = verify_structure(Shifted(), [QQ.rational(2)], us)
    assert not report.ok


# -- model family vs derivations ----------------------------------------------------------------


def test_all_models_check_division_derivation():
    gadget = build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2))
    derivation = replay(gadget)
    models = [
        identity_model(),
        conjugation_model(gadget.tower, 0),
        eps_rotation_model(),
        eps_rotation_model(reflection=True),
        ModelMap(conjugation_model(gadget.tower, 0).embedding, make_pythagorean_rotation(F(1, 2))),
    ]
    for model in models:
        assert check_derivation(derivation, model).ok


def test_models_check_chain_and_kempe_derivations():
    chain = build_rhombus_chain(rational_point(0, 0), rational_point(1, 0), rational_point(0, 1), rational_point(1, 1))
    kempe = build_kempe(F(1))
    for gadget in (chain, kempe):
        derivation = replay(gadget)
        assert check_derivation(derivation, identity_model()).ok
        assert check_derivation(derivation, eps_rotation_model()).ok


def test_frame_composition_closure():
    f1 = make_pythagorean_rotation(F(1, 2))
    f2 = make_pythagorean_rotation(F(1, 3), translation=(F(2), F(-1)))
    (a00, a01), (a10, a11) = f1.matrix
    (b00, b01), (b10, b11) = f2.matrix
    rows = (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )
    composed = OrthoAffine(matrix=rows, translation=f1.apply(*f2.translation))  # validated orthonormal
    m1 = ModelMap(Embedding("identity"), f1)
    m2 = ModelMap(Embedding("identity"), f2)
    mc = ModelMap(Embedding("identity"), composed)
    for p in (rational_point(0, 0), rational_point(1, 0), rational_point(F(2, 3), F(-1, 7))):
        assert mc.apply(p) == m1.apply(m2.apply(p))


def test_embedding_homomorphism_spot_checks(sqrt2_tower):
    tower = sqrt2_tower.tower
    samples = [tower.one(), sqrt2_tower.root, tower.one() + sqrt2_tower.root, tower.rational(F(2, 3))]
    for emb in (Embedding("identity"), Embedding("conjugation", domain=tower, generator=0), Embedding("function_field")):
        rho = emb.apply_scalar
        for a, b in combinations(samples, 2):
            assert rho(a + b) == rho(a) + rho(b)
            assert rho(a * b) == rho(a) * rho(b)
        assert rho(tower.one()) == 1


# -- lazy K(eps) against its reduced form -------------------------------------------------------


def _compared_values(fact, images, model):
    """The value pairs check_derivation compares for one fact; a zero test
    pairs its value with 0."""
    im = images
    if isinstance(fact, SqDistKnown):
        return [(sqdist(im[fact.p], im[fact.q]), fact.v)]
    if isinstance(fact, Distinct):
        diff = im[fact.p] - im[fact.q]
        return [(diff.x, 0), (diff.y, 0)]
    if isinstance(fact, NonzeroDist):
        return [(sqdist(im[fact.p], im[fact.q]), 0)]
    if isinstance(fact, DotZero):
        return [((im[fact.b] - im[fact.a]).dot(im[fact.d] - im[fact.c]), 0)]
    if isinstance(fact, VecEq):
        lhs, rhs = im[fact.b] - im[fact.a], im[fact.d] - im[fact.c]
    elif isinstance(fact, VecScale):
        lhs = im[fact.b] - im[fact.a]
        rhs = (im[fact.d] - im[fact.c]).scaled(fact.r)
    else:
        assert isinstance(fact, AffineComb)
        lhs = im[fact.c] - im[fact.b]
        rhs = (im[fact.a] - im[fact.b]).scaled(fact.t)
    return [(lhs.x, rhs.x), (lhs.y, rhs.y)]


def test_lazy_equality_agrees_with_reduced_form_on_the_corpus():
    models = {"eps-rotation": eps_rotation_model(), "eps-reflection": eps_rotation_model(reflection=True)}
    for entry in suite.replay_corpus():
        facts = entry.derivation.facts
        for name, model in models.items():
            images = {p: model.apply(point) for p, point in entry.gadget.points.items()}
            for fact in facts:
                for value, other in _compared_values(fact, images, model):
                    other = other if isinstance(other, FunElem) else FunElem.constant(other, value.tower)
                    reduced_equal = (value.num, value.den) == (other.num, other.den)
                    assert (value == other) == reduced_equal, (entry.label, name, fact)
                    assert value.is_zero() == (value.num == ())
            verdict = check_derivation(entry.derivation, model)
            assert verdict.ok and verdict.checked == len(facts), (entry.label, name)


class _Doubled:
    """Doubles every image of a model: not distance preserving."""

    def __init__(self, model=None):
        self.model = model

    def apply(self, p):
        q = p if self.model is None else self.model.apply(p)
        return Point(2 * q.x, 2 * q.y)

    def embed_rational(self, q):
        return q


def test_lazy_kfield_refutes_the_negative_controls():
    entry = suite.replay_corpus()[0]
    derivation = entry.derivation
    final = derivation.final_fact()
    assert isinstance(final, AffineComb)
    altered = Derivation(
        derivation.gadget,
        derivation.facts[:-1] + [dataclasses.replace(final, t=final.t + Fraction(1, 3))],
        derivation.justifications,
    )
    last = len(altered.facts) - 1
    controls = [
        (derivation, _Doubled(), 0),
        (derivation, _Doubled(eps_rotation_model()), 0),
        (altered, eps_rotation_model(), last),
        (altered, eps_rotation_model(reflection=True), last),
    ]
    for subject, model, index in controls:
        verdict = check_derivation(subject, model)
        assert not verdict.ok and verdict.violated_index == index


def test_kfield_sqdist_runs_the_integer_kernel(monkeypatch):
    """Every squared distance of K(eps) images runs ``fun_sqdist``, and no
    ``sqdist`` call multiplies ``FunElem``s."""
    corpus = suite.replay_corpus()
    counts = {"kfield": 0, "kernel": 0, "mul": 0}
    inside = []
    real_sqdist, real_kernel, real_mul = cm.sqdist, cm.fun_sqdist, FunElem.__mul__

    def counting_sqdist(p, q):
        counts["kfield"] += any(isinstance(c, FunElem) for c in (p.x, p.y, q.x, q.y))
        inside.append(True)
        try:
            return real_sqdist(p, q)
        finally:
            inside.pop()

    def counting_kernel(*args):
        counts["kernel"] += 1
        return real_kernel(*args)

    def counting_mul(self, other):
        counts["mul"] += bool(inside)
        return real_mul(self, other)

    for module in (engine, gadgets, models):
        monkeypatch.setattr(module, "sqdist", counting_sqdist)
    monkeypatch.setattr(cm, "fun_sqdist", counting_kernel)
    monkeypatch.setattr(FunElem, "__mul__", counting_mul)
    monkeypatch.setattr(FunElem, "__rmul__", counting_mul)
    checks = 0
    for entry in corpus:
        gadget = entry.gadget
        pairs = [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]
        for _, model in suite.model_family(gadget):
            assert check_derivation(entry.derivation, model).ok
            assert verify_preservation(model, pairs).ok
            checks += 1
    assert checks == 96
    assert counts["kfield"] > 0 and counts["kernel"] == counts["kfield"] and counts["mul"] == 0
    # the counters do see the formula, taken over two denominators
    eps = FunElem.eps()
    assert engine.sqdist(Point(eps, eps), Point(eps / (eps + 1), FunElem.constant(0))) == eps * eps + (eps * eps / (eps + 1)) ** 2
    assert counts["kfield"] == counts["kernel"] + 1 and counts["mul"] == 2


def test_model_checks_take_no_polynomial_gcd(monkeypatch):
    corpus = suite.replay_corpus()
    calls = []
    real_reduce = scalars._freduce

    def counting_reduce(*args):
        calls.append(args)
        return real_reduce(*args)

    monkeypatch.setattr(scalars, "_freduce", counting_reduce)
    checks = 0
    for entry in corpus:
        gadget = entry.gadget
        pairs = [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]
        for _, model in suite.model_family(gadget):
            assert check_derivation(entry.derivation, model).ok
            assert verify_preservation(model, pairs).ok
            checks += 1
    assert checks == 96
    assert calls == []
    # the counter does see the reduction that the printed form takes, once
    assert str((FunElem.eps() + 1) / (FunElem.eps() * FunElem.eps() - 1)) == "(1) / (-1 + (1)*eps)"
    assert len(calls) == 1
