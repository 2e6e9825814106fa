"""Distance-preserving model maps and the structural verification reports."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rigidity_forge import cm, models, real, scalars, suite
from rigidity_forge.cm import Point, rational_point, sqdist
from rigidity_forge.engine import Distinct, NonzeroDist, SqDistKnown, check_derivation, recheck_derivation, replay
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

from conftest import DERANDOMIZED, table_kind
from harness import (
    FRACTIONAL_TOWERS,
    INTEGER_TOWERS,
    certificate_pairs,
    criterion_9_data,
    formula_everywhere,
    negative_controls,
    references,
    sparse_rationals,
    tower_chain,
)

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
    pairs = certificate_pairs(gadget)
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

    report = verify_preservation(Doubler(), [(rational_point(0, 0), rational_point(1, 0))])
    assert not report.ok


def _counting_forms(monkeypatch):
    """Counters of ``ModelMap.apply`` calls, of ``Embedding.vector_map``
    calls, of the integer vectors the embedding maps while
    ``ModelMap.image_table`` runs (two per point form: x and y), of the
    point sets (or source tables) handed to it and of the tables it gives."""
    calls, inside = {"apply": [], "maps": [], "vectors": [], "tables": [], "images": []}, []
    real_apply, real_map, real_table = ModelMap.apply, Embedding.vector_map, ModelMap.image_table

    def counting_apply(self, p):
        calls["apply"].append(p)
        return real_apply(self, p)

    def counting_map(self, tower):
        calls["maps"].append(tower)
        mapping = real_map(self, tower)
        if mapping is None or not inside:
            return mapping
        image_tower, vector = mapping
        return image_tower, lambda n: calls["vectors"].append(n) or vector(n)

    def counting_table(self, points):
        calls["tables"].append(points)
        inside.append(True)
        try:
            calls["images"].append(real_table(self, points))
            return calls["images"][-1]
        finally:
            inside.pop()

    monkeypatch.setattr(ModelMap, "apply", counting_apply)
    monkeypatch.setattr(Embedding, "vector_map", counting_map)
    monkeypatch.setattr(ModelMap, "image_table", counting_table)
    return calls


def test_preservation_maps_each_point_once(monkeypatch):
    """Each point's form is computed once, not once per endpoint, and no
    image is built by ``apply``; the identity's image table is the source
    points' own table, with no form computed."""
    gadget = build_rhombus_chain(rational_point(0, 0), rational_point(80, 0), rational_point(0, 1), rational_point(80, 1))
    pairs = certificate_pairs(gadget)
    calls = _counting_forms(monkeypatch)
    for model, formed in ((identity_model(), 0), (eps_rotation_model(), 162), (conjugation_model(adjoin_sqrt(QQ, 2).tower, 0), 162)):
        for counted in calls.values():
            counted.clear()
        assert verify_preservation(model, pairs).ok
        # 162 points in 241 pairs: one form per point, not one per endpoint
        (source,), (images,) = calls["tables"], calls["images"]
        assert (len(source.points), len(pairs)) == (len(gadget.points), 241) == (162, 241)
        assert calls["apply"] == [] and len(calls["vectors"]) == 2 * formed
        assert (images is source) == (formed == 0)
        # one vector map for the 241 source distances, and one for the forms
        assert len(calls["maps"]) == 1 + (formed > 0)


def test_structure_maps_each_point_once(monkeypatch, sqrt2_tower):
    tower, s2 = sqrt2_tower.tower, sqrt2_tower.root
    us = directions(tower) + [Point(s2, tower.one())]
    lambdas = [s2, tower.rational(2), tower.rational(F(1, 3)), tower.one() + s2]
    origin = Point(tower.zero(), tower.zero())
    sums = [Point(u.x + v.x, u.y + v.y) for u, v in combinations(us, 2)]
    scaled = [Point(lam * u.x, lam * u.y) for lam in lambdas for u in us]
    distinct = {origin, *us, *sums, *scaled}
    calls = _counting_forms(monkeypatch)
    for model, formed in ((identity_model(), 0), (eps_rotation_model(), 111), (conjugation_model(tower, 0), 111)):
        for counted in calls.values():
            counted.clear()
        assert verify_structure(model, lambdas, us).ok
        # 11 directions, 55 sums and 44 multiples: 111 point objects with the
        # origin, where one form per use would make 254; 19 of them are sums
        # or multiples equal to another point, which leaves 92 distinct
        # values, and each of the 111 objects gets its own form
        (points,) = calls["tables"]
        objects = list({id(p): p for p in points.values()}.values())
        assert len(points) == len(objects) == 111 and len(set(objects)) == len(distinct) == 92
        assert calls["apply"] == [] and len(calls["vectors"]) == 2 * formed
    # a direction given twice is one point object under two names: one form
    for counted in calls.values():
        counted.clear()
    assert verify_structure(conjugation_model(tower, 0), lambdas, us + [us[0]]).ok
    (points,) = calls["tables"]
    assert len(points) == 1 + 12 + 66 + 48 and len(calls["vectors"]) == 2 * (len(points) - 1)
    # and a model without ``image_table`` maps that object once by ``apply``
    for counted in calls.values():
        counted.clear()
    model = conjugation_model(tower, 0)
    assert verify_structure(dataclasses.make_dataclass("Mapped", ["apply", "rho"])(model.apply, model.rho), lambdas, us + [us[0]]).ok
    assert len(calls["apply"]) == len({id(p) for p in calls["apply"]}) == 1 + 12 + 66 + 48 - 1 and calls["tables"] == []


# -- structure ----------------------------------------------------------------------------------


def directions(tower):
    """Criterion 9's ten rational directions, over ``tower``."""
    _, _, us = suite.criterion_9_sample()
    return [Point(tower.rational(u.x.as_fraction()), tower.rational(u.y.as_fraction())) for u in us[:10]]


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


def test_lazy_kfield_refutes_the_negative_controls():
    derivation = suite.replay_corpus()[0].derivation
    assert isinstance(derivation.final_fact(), AffineComb)
    last = len(derivation.facts) - 1
    for (subject, model), index in zip(negative_controls(derivation), [0, 0, last, last, last]):
        verdict = check_derivation(subject, model)
        assert not verdict.ok and verdict.violated_index == index


def test_kfield_sqdist_runs_the_integer_kernel(monkeypatch):
    """Every squared distance of K(eps) images that check and preservation
    compare runs the kernel table's ``sqdist_num`` on packed numerators
    (through a point table's ``sqdist_is``, or its ``sqdist_is_form`` for
    preservation), none is built by a table's ``sqdist``, and none
    multiplies ``FunElem``s; no image is built by ``apply``.  A comparison
    is counted once, where it enters.  An image table built from forms is
    K(eps) iff it is packed; it is not read for its images."""
    corpus = suite.replay_corpus()
    counts = {"kfield": 0, "kernel": 0, "sqdist": 0, "mul": 0, "apply": 0}
    inside = []
    real_kernel, real_mul, real_apply = cm._KernelTable.sqdist_num, FunElem.__mul__, ModelMap.apply

    def kfield(table, p, q):
        if table_kind(table) != "formula":
            return table_kind(table) == "packed"
        return any(isinstance(c, FunElem) for c in (table[p].x, table[p].y, table[q].x, table[q].y))

    def counting(real):
        def run(*args):
            counts["kfield"] += kfield(*args[:3]) and not inside
            inside.append(True)
            try:
                return real(*args)
            finally:
                inside.pop()

        return run

    def counting_sqdist(real):
        def run(*args):
            counts["sqdist"] += kfield(*args)
            return real(*args)

        return run

    def counting_kernel(table, p, q):
        counts["kernel"] += table_kind(table) == "packed" and isinstance(table._coords[p].x, cm._Form)
        return real_kernel(table, p, q)

    def counting_apply(self, p):
        counts["apply"] += 1
        return real_apply(self, p)

    def counting_mul(self, other):
        counts["mul"] += bool(inside)
        return real_mul(self, other)

    for table in (cm.PointTable, cm._KernelTable, models._PackedTable):
        for name in ("sqdist_is", "sqdist_is_form"):
            if name in table.__dict__:
                monkeypatch.setattr(table, name, counting(table.__dict__[name]))
    monkeypatch.setattr(cm.PointTable, "sqdist", counting_sqdist(cm.PointTable.sqdist))
    monkeypatch.setattr(cm._KernelTable, "sqdist_num", counting_kernel)
    monkeypatch.setattr(FunElem, "__mul__", counting_mul)
    monkeypatch.setattr(FunElem, "__rmul__", counting_mul)
    monkeypatch.setattr(ModelMap, "apply", counting_apply)
    checks = 0
    for entry in corpus:
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        for _, model in suite.model_family(gadget):
            assert check_derivation(entry.derivation, model).ok
            assert verify_preservation(model, pairs).ok
            checks += 1
    assert checks == 96
    assert counts["kfield"] > 0 and counts["kernel"] == counts["kfield"]
    assert counts["sqdist"] == counts["mul"] == counts["apply"] == 0
    # the counters do see the formula, taken over two denominators
    eps = FunElem.eps()
    table = cm.point_table({"P": Point(eps, eps), "Q": Point(eps / (eps + 1), FunElem.constant(0))})
    assert table_kind(table) == "formula"
    assert table.sqdist_is("P", "Q", eps * eps + (eps * eps / (eps + 1)) ** 2)
    assert counts["kfield"] == counts["kernel"] + 1 and counts["sqdist"] == 1 and counts["mul"] == 2


def test_model_checks_take_no_polynomial_gcd(monkeypatch):
    """The 96 corpus x family checks take no polynomial gcd and no K(eps)
    product: every K(eps) fact runs the tower kernels on packed numerators.
    Nor do they, or their preservation reports, build a squared distance by
    the formula (``PointTable.sqdist``): every distance they compare is
    rational, decided on a kernel's integer form."""
    corpus = suite.replay_corpus()
    calls = {"_freduce": [], "_fmul": [], "sqdist": []}
    real_sqdist = cm.PointTable.sqdist
    monkeypatch.setattr(cm.PointTable, "sqdist", lambda *args: calls["sqdist"].append(args[1:]) or real_sqdist(*args))

    def counted(name):
        real = getattr(scalars, name)

        def run(*args):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(scalars, name, run)

    counted("_freduce")
    checks = [(entry, model) for entry in corpus for _, model in suite.model_family(entry.gadget)]
    counted("_fmul")
    for entry, model in checks:
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        assert check_derivation(entry.derivation, model).ok
        assert verify_preservation(model, pairs).ok
    assert len(checks) == 96
    assert calls == {"_freduce": [], "_fmul": [], "sqdist": []}
    # the counters do see the products and the reduction that the printed form takes, once
    assert str((FunElem.eps() + 1) / (FunElem.eps() * FunElem.eps() - 1)) == "(1) / (-1 + (1)*eps)"
    assert len(calls["_freduce"]) == 1 and calls["_fmul"]
    # and the formula that an irrational constant takes
    gadget = checks[0][0].gadget
    table = cm.point_table(gadget.points)
    assert table_kind(table) == "kernel" and gadget.tower.depth > 0
    assert not table.sqdist_is("A", "B", gadget.tower.generator(0)) and calls["sqdist"] == [("A", "B")]


# -- image kernels against the generic formula --------------------------------------------------


def generic_apply_scalar(embedding, x):
    """``Embedding.apply_scalar`` by the generic formula: the value lifted into
    the domain through ``tower_join``, then ``tower_conjugate``."""
    if embedding.kind == "identity":
        return x
    if embedding.kind == "conjugation":
        return scalars.tower_conjugate(embedding._into_domain(x), embedding.generator)
    return FunElem.constant(x)


def generic_apply(model, p):
    """``ModelMap.apply`` by the generic formula: the embedding on each
    coordinate, then the frame's ``apply``."""
    x = generic_apply_scalar(model.embedding, p.x)
    y = generic_apply_scalar(model.embedding, p.y)
    if model.frame is not None:
        x, y = model.frame.apply(x, y)
    return Point(x, y)


def _form(c):
    """What must not move: the carrier, the integer pair(s) and the tower."""
    return type(c).__name__, c._n, c._d, c.tower


def _point_forms(p):
    return _form(p.x), _form(p.y)


def _model_sweep():
    """Images, verdicts and reports over every corpus x ``model_family`` pair,
    criterion 9's models and the negative controls."""
    corpus = suite.replay_corpus()
    out = []
    for entry in corpus:
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        for name, model in suite.model_family(gadget):
            images = [_point_forms(model.apply(p)) for p in gadget.points.values()]
            out.append((entry.label, name, images, check_derivation(entry.derivation, model), verify_preservation(model, pairs)))
    registered, lambdas, us = criterion_9_data()
    for model in registered:
        out.append(([_point_forms(model.apply(u)) for u in us], verify_structure(model, lambdas, us)))
    out += [check_derivation(subject, model) for subject, model in negative_controls(corpus[0].derivation)]
    return out


def test_image_kernels_match_the_generic_formula(monkeypatch):
    """Every image, verdict and report of the sweep is the same when each
    image is mapped by the generic formula and every table is the base
    ``cm.PointTable``, the harness's ``formula_everywhere``."""
    kernel = _model_sweep()
    assert len(kernel) == 96 + 5 + 5
    assert all(v.ok and report.ok for _, _, _, v, report in kernel[:96])
    assert all(report.ok for _, report in kernel[96:101])
    assert [v.violated_index for v in kernel[101:]] == [0, 0] + [len(suite.replay_corpus()[0].derivation.facts) - 1] * 3
    monkeypatch.setattr(models.Embedding, "apply_scalar", generic_apply_scalar)
    monkeypatch.setattr(models.ModelMap, "apply", generic_apply)
    with formula_everywhere():
        generic = _model_sweep()
    # every image coordinate: the same (_n, _d) and an equal tower
    assert kernel == generic


# radicands with a denominator, and a radicand over the first generator, so
# that some generators have no conjugation
TOWER_CHAINS = [FRACTIONAL_TOWERS[:4], INTEGER_TOWERS[:4]]


def _valid_generators(domain):
    out = []
    for i in range(domain.depth):
        try:
            Embedding("conjugation", domain=domain, generator=i)
        except scalars.BadGeneratorIndex:
            continue
        out.append(i)
    return out


@st.composite
def frame_cases(draw):
    """A model of a frame shape the kernels cover and points over a tower that
    its conjugation domain extends (or any tower, without a conjugation)."""
    chain = draw(st.sampled_from(TOWER_CHAINS))
    depth = draw(st.integers(0, len(chain) - 1))
    tower = chain[depth]
    domains = [(d, i) for d in chain[max(depth, 1) :] for i in _valid_generators(d)]
    kind = draw(st.sampled_from(["identity", "function_field"] + ["conjugation"] * bool(domains)))
    if kind == "conjugation":
        domain, generator = draw(st.sampled_from(domains))
        embedding = Embedding("conjugation", domain=domain, generator=generator)
    else:
        embedding = Embedding(kind)
    reflection = draw(st.booleans())
    translation = draw(st.one_of(st.none(), st.tuples(sparse_rationals, sparse_rationals)))
    shape = draw(st.sampled_from(["rational", "kfield", "kfield", "kfield-translated", "kfield-two-denominators"]))
    if shape == "rational":
        frame = make_pythagorean_rotation(draw(sparse_rationals), reflection=reflection, translation=translation)
    else:
        t = FunElem.eps() * draw(sparse_rationals.filter(bool)) + draw(sparse_rationals)
        frame = make_pythagorean_rotation(t, reflection=reflection, translation=(F(1), F(0)) if shape == "kfield-translated" else None)
    if shape == "kfield-two-denominators":
        # m01 over a multiple of D: an equal value on another denominator
        (m00, m01), row = frame.matrix
        factor = draw(st.integers(2, 5))
        (num, k), (den, kd) = m01._n, m01._d
        scaled = FunElem._make(QQ, (tuple((c * factor,) for (c,) in num), k), (tuple((c * factor,) for (c,) in den), kd))
        assert scaled == m01 and scaled._d != m01._d
        frame = OrthoAffine(((m00, scaled), row))
    coords = st.lists(sparse_rationals, min_size=tower.dim, max_size=tower.dim).map(lambda cs: scalars.TowerElem(tower, cs))
    points = draw(st.lists(st.builds(Point, coords, coords), min_size=1, max_size=3))
    return ModelMap(embedding, frame), shape, points


@settings(DERANDOMIZED, max_examples=200)
@given(frame_cases())
def test_frame_kernels_match_the_generic_formula_on_random_frames(case):
    """The image table of random frames answers every test as the base
    ``cm.PointTable`` of the formula images does; named points: the origin,
    the drawn points i, the sums ("s", i) of each with the next, and their
    multiples ("l", k, i) by a rational and, over a radical, an irrational
    lambda_k, scaled by ``model.rho``."""
    model, shape, points = case
    # a K(eps) frame with a translation or two denominators takes the formula
    assert (model.frame._kernel is not None) == (shape in ("rational", "kfield"))
    tower, n = points[0].x.tower, len(points)
    lams = [tower.rational(F(-2, 3))] + ([tower.one() + tower.generator(tower.depth - 1)] if tower.depth else [])
    named = {"o": Point(tower.zero(), tower.zero())}
    named.update(enumerate(points))
    named.update((("s", i), Point(p.x + points[(i + 1) % n].x, p.y + points[(i + 1) % n].y)) for i, p in enumerate(points))
    named.update((("l", k, i), Point(lam * p.x, lam * p.y)) for k, lam in enumerate(lams) for i, p in enumerate(points))
    table, formula = model.image_table(named), cm.PointTable({name: generic_apply(model, p) for name, p in named.items()})
    for a, b in combinations(named, 2):
        assert table.same(a, b) == formula.same(a, b), (a, b)
    for i in range(n):
        j = (i + 1) % n
        # m(p_i + p_j) - m(p_i) - m(p_j) + m(0), with j == i for one point,
        # and without m(0): minus the translation
        additive = {("s", i): 1, "o": 1, i: -1}
        additive[j] = additive.get(j, 0) - 1
        translated = {name: c for name, c in additive.items() if name != "o"}
        for a, b in (("o", i), (i, j), (("s", i), ("l", 0, i))):
            # rho of the source value: a rational, as a ``Fraction``, is the
            # formula's value and its successor is not; any other value takes
            # the formula on the images
            v = sqdist(named[a], named[b])
            if v.is_rational():
                value = v.as_fraction()
                assert formula.sqdist(a, b) == value and table.sqdist_is(a, b, value) and not table.sqdist_is(a, b, value + 1)
            else:
                assert table.sqdist_is(a, b, model.rho(v))
        for relation in (additive, translated, {("s", i): 1, i: -1, "o": -1}, {i: 2, j: -1, "o": -1}):
            assert table.relation_vanishes(relation) == formula.relation_vanishes(relation), relation
        for u, w in (((i, "o"), (j, "o")), ((("s", i), i), (j, "o"))):
            assert table.dot_vanishes(u, w) == formula.dot_vanishes(u, w), (u, w)
        for k, lam in enumerate(lams):
            for rho in (model.rho(lam), model.rho(lam + 1)):
                for u in ((("l", k, i), "o"), (("l", k, i), j)):
                    assert table.scaled_is(u, (i, "o"), rho) == formula.scaled_is(u, (i, "o"), rho), (u, rho)
            assert table.scaled_is((("l", k, i), "o"), (i, "o"), model.rho(lam))
        assert table.relation_vanishes(additive)
    for p in points:
        for c in (p.x, p.y):
            assert _form(model.rho(c)) == _form(generic_apply_scalar(model.embedding, c))


def test_conjugation_of_points_over_an_extension_of_the_domain():
    s2 = adjoin_sqrt(QQ, 2)
    wider = adjoin_sqrt(s2.tower, 3)
    model = conjugation_model(s2.tower, 0)
    # in the domain by value: the formula, through tower_join
    p = Point(wider.tower.rational(F(1, 2)) + s2.root, wider.tower.one())
    assert _point_forms(model.apply(p)) == _point_forms(generic_apply(model, p))
    assert model.apply(p).x == F(1, 2) - s2.root
    # outside it: OutOfDomain, not a truncated vector
    with pytest.raises(OutOfDomain):
        model.apply(Point(wider.root, wider.tower.one()))
    with pytest.raises(OutOfDomain):
        model.rho(s2.root * wider.root)


def test_a_form_table_maps_again_by_its_point_names(sqrt2_tower):
    """A table built from forms, handed to a model again, maps its points by
    name: the images under a conjugation, plain and framed, mapped again by
    the same conjugation and by the eps rotation, give the formula's squared
    distance, on the kernel and on the packed table, and every table counts
    its points."""
    t, r2 = sqrt2_tower.tower, sqrt2_tower.root
    points = {"A": Point(r2, t.one()), "B": Point(t.zero(), t.zero())}
    frame = make_pythagorean_rotation(F(1, 2), translation=(F(1), F(-2)))
    for model in (conjugation_model(t, 0), conjugation_model(t, 0, frame)):
        once = model.image_table(points)
        assert table_kind(once) == "kernel" and not once.points.mapped and len(once.points) == 2
        for again in (model, eps_rotation_model()):
            twice = cm.image_table(again, once)
            formula = cm.PointTable({name: again.apply(model.apply(p)) for name, p in points.items()})
            assert table_kind(twice) == ("kernel" if again is model else "packed") and len(twice.points) == 2
            assert twice.sqdist("A", "B") == formula.sqdist("A", "B") == 3
            assert twice.sqdist_is("A", "B", 3) and not twice.sqdist_is("A", "B", 2)
            assert twice.same("A", "A") and not twice.same("A", "B")


def _eps_models_sweep():
    """Every point of the corpus and of criterion 9 under every eps model."""
    for entry in suite.replay_corpus():
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        for name, model in suite.model_family(gadget):
            if name.startswith("eps"):
                yield model, list(gadget.points.values()), pairs, entry.derivation
    registered, _, us = criterion_9_data()
    for model in registered[2:4]:
        yield model, us, list(combinations(us, 2)), None


def test_eps_images_take_no_fun_elem_arithmetic(monkeypatch):
    """Building the image table of every point set of the eps sweep takes no
    ``FunElem`` arithmetic: the tables are packed from the images' forms."""
    counts = {"tables": 0, "arithmetic": 0}
    inside = []
    real_table = ModelMap.image_table

    def counting_table(self, points):
        counts["tables"] += 1
        inside.append(True)
        try:
            return real_table(self, points)
        finally:
            inside.pop()

    monkeypatch.setattr(ModelMap, "image_table", counting_table)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        real = getattr(FunElem, name)

        def counting(self, other, real=real):
            counts["arithmetic"] += bool(inside)
            return real(self, other)

        monkeypatch.setattr(FunElem, name, counting)
    for model, points, _, _ in _eps_models_sweep():
        assert table_kind(model.image_table(dict(enumerate(points)))) == "packed"
    assert counts["tables"] > 0 and counts["arithmetic"] == 0
    # the counter does see the formula: a K(eps) frame over Q(sqrt 2), whose
    # table maps its point by ``apply``
    s2 = adjoin_sqrt(QQ, 2).root
    model = ModelMap(Embedding("function_field"), make_pythagorean_rotation(FunElem.eps() + s2))
    assert model.frame._kernel is None
    model.image_table({"P": Point(s2, s2.tower.one())})
    assert counts["arithmetic"] > 0


def test_in_domain_conjugation_images_scan_no_automorphism(monkeypatch):
    """The conjugations of the model family map every point of their checks
    and reports by ``vector_map`` alone: none is carried into the domain by
    value (``_into_domain``)."""
    corpus = suite.replay_corpus()
    family = [(entry, model) for entry in corpus for name, model in suite.model_family(entry.gadget) if "conjugation" in name]
    registered, lambdas, us = criterion_9_data()
    calls, maps = [], []
    real_into, real_map = Embedding._into_domain, Embedding.vector_map
    monkeypatch.setattr(Embedding, "_into_domain", lambda self, x: calls.append(x) or real_into(self, x))
    monkeypatch.setattr(Embedding, "vector_map", lambda self, tower: maps.append(tower) or real_map(self, tower))
    for entry, model in family:
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        assert check_derivation(entry.derivation, model).ok
        assert verify_preservation(model, pairs).ok
    for model in (registered[1], registered[4]):
        assert verify_structure(model, lambdas, us).ok
    assert len(family) == 16 * 3 and calls == []
    # the counter does see the formula: a point of Q(sqrt 3) in the domain
    # Q(sqrt 2, sqrt 3) by value, where Q(sqrt 3) is no prefix of the domain
    domain = adjoin_sqrt(adjoin_sqrt(QQ, 2).tower, 3).tower
    s3 = adjoin_sqrt(QQ, 3).root
    model = conjugation_model(domain, 1)
    maps.clear()
    image = model.apply(Point(s3, s3.tower.one()))
    assert image.x == -domain.generator(1) and image.x.tower == domain
    # each coordinate is carried into the domain, then flipped by the domain's ``vector_map``
    assert len(calls) == 2 and maps == [s3.tower, domain] * 2


def test_eps_models_square_the_denominator_once(monkeypatch):
    """Each packed image table squares D at most once, on its packed
    vector, and no rational squared distance squares D by ``FunElem``
    multiplication; an irrational one (criterion 9's pairs with
    (sqrt 2, 1)) takes rho(v) by the formula, which squares D exactly
    twice, once per coordinate of the pair.  Each ``_fmul`` squaring of D
    is charged to the ``sqdist_is`` comparison it happens in.  ``_isq`` also
    squares the differences of a distance; only squarings of a packed D
    count."""
    squares, packed, tables, packed_dens, compared = [], [], [], [], []
    real_fmul, real_isq, real_init, real_sqdist_is = scalars._fmul, models._isq, models._PackedTable.__init__, cm.PointTable.sqdist_is

    def counting_fmul(rads, a, b):
        if a is b:
            squares.append(a)
        return real_fmul(rads, a, b)

    def counting_isq(rads, a):
        if a in packed_dens:
            packed.append(a)
        return real_isq(rads, a)

    def counting_init(self, *args):
        tables.append(self)
        real_init(self, *args)
        packed_dens.append(scalars.fun_pack(self._den[0], self.tower.dim, self._shifts))

    def counting_sqdist_is(table, p, q, value):
        start = len(squares)
        ok = real_sqdist_is(table, p, q, value)
        compared.append(((p, q), start, len(squares)))
        return ok

    monkeypatch.setattr(scalars, "_fmul", counting_fmul)
    monkeypatch.setattr(models, "_isq", counting_isq)
    monkeypatch.setattr(models._PackedTable, "__init__", counting_init)
    monkeypatch.setattr(cm.PointTable, "sqdist_is", counting_sqdist_is)

    def sweep():
        """The most squarings of D by ``_fmul`` of one model outside its
        irrational pairs' comparisons, the squarings in each irrational
        pair's comparison, the most squarings on packed vectors of one
        model, and the most tables built for one model."""
        most = most_packed = made = 0
        irrational_squarings = []
        for model, points, pairs, derivation in _eps_models_sweep():
            # D over the points' tower, as the image of (1, 0) carries it
            tower = points[0].x.tower
            den = model.apply(Point(tower.one(), tower.zero())).x._d
            before, packed_before, tables_before, compared_before = len(squares), len(packed), len(tables), len(compared)
            irrational = {(id(p), id(q)) for p, q in pairs if not sqdist(p, q).is_rational()}
            if derivation is not None:
                assert check_derivation(derivation, model).ok
            assert verify_preservation(model, pairs).ok
            squared = sum(s == den for s in squares[before:])
            per_pair = [sum(s == den for s in squares[a:b]) for pair, a, b in compared[compared_before:] if pair in irrational]
            assert len(per_pair) == len(irrational)
            irrational_squarings += per_pair
            most = max(most, squared - sum(per_pair))
            most_packed, made = max(most_packed, len(packed) - packed_before), max(made, len(tables) - tables_before)
            assert len(packed) - packed_before <= len(tables) - tables_before
        return most, irrational_squarings, most_packed, made

    # D squared once per image table (check and preservation each build
    # one), never by ``_fmul`` outside the 9 irrational pairs of each of
    # criterion 9's two eps models, twice in each
    assert sweep() == (0, [2] * 18, 2, 2)
    # the counter does see a ``FunElem`` product squaring D
    x = 1 / (FunElem.eps() + 3)
    before = len(squares)
    x * x
    assert any(s is x._d for s in squares[before:])


def test_checks_reach_the_order_only_through_a_join(monkeypatch):
    """Counts the calls of ``real.sign``, the one sign of the real
    embedding, with no clock.  Building the corpus, the model family and
    criterion 9's sample takes signs; checking takes none: not the 96 corpus
    x ``model_family`` checks with their preservation reports, nor the 16
    rechecks, nor criterion 9's 5 structure reports.  The one route in is a
    join of two towers neither of which is a prefix of the other: a
    conjugation of Q(sqrt 3, sqrt 2), checked against the division over
    Q(sqrt 2), maps its points into the domain (``Embedding._into_domain``),
    and the join adjoins sqrt 2 there, which takes 2 signs to find its
    positive root; a second check finds the join kept.  Run alone in CI, the
    test builds the corpus itself."""
    corpus = suite.replay_corpus()
    items = [(entry, model) for entry in corpus for _, model in suite.model_family(entry.gadget)]
    registered, lambdas, us = criterion_9_data()
    division = next(entry for entry in corpus if entry.label.startswith("division") and entry.gadget.tower.depth == 1)
    # a new tower object, so no join with it is kept from an earlier test
    model = conjugation_model(tower_chain(3, 2)[2], 0)
    calls, original = [], real.sign
    monkeypatch.setattr(real, "sign", lambda *args: calls.append(args) or original(*args))
    for entry, family_model in items:
        check_derivation(entry.derivation, family_model)
        verify_preservation(family_model, certificate_pairs(entry.gadget))
    for entry in corpus:
        recheck_derivation(entry.derivation)
    for registered_model in registered:
        verify_structure(registered_model, lambdas, us)
    assert (len(items), len(corpus), len(registered), len(calls)) == (96, 16, 5, 0)
    verdict = check_derivation(division.derivation, model)
    assert len(calls) == 2
    assert check_derivation(division.derivation, model) == verdict and len(calls) == 2
    with references():
        assert check_derivation(division.derivation, model) == verdict
