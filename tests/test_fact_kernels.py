"""Facts decided on the integer form.

Every fact kind's ``holds`` on the kernel (Q included), packed and form
tables against the base ``PointTable``, the carrier formula; ``verify_preservation``
and ``verify_structure`` against the carrier-arithmetic report references;
counters showing that the kernels build no carrier object, and the point
tables: each report call classifies its points once.  The inputs and the
references are the differential harness's (``harness.py``).
"""

import random
import sys
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from rigidity_forge import cm, codec, engine, gadgets, models, scalars, suite
from rigidity_forge.cm import Point, rational_point, sqdist
from rigidity_forge.engine import Distinct, NonzeroDist, SqDistKnown, check_derivation, recheck_derivation, replay
from rigidity_forge.gadgets import DotZero, VecEq, VecScale, build_perp_transfer
from rigidity_forge.models import (
    Embedding,
    ModelError,
    ModelMap,
    NonOrthogonalFrame,
    OrthoAffine,
    OutOfDomain,
    PairCheck,
    PreservationReport,
    StructureReport,
    conjugation_model,
    eps_rotation_model,
    identity_model,
    make_pythagorean_rotation,
    verify_preservation,
    verify_structure,
)
from rigidity_forge.scalars import QQ, FunElem, TowerElem, adjoin_sqrt

from conftest import DERANDOMIZED, table_kind, tables_built
from harness import (
    FACT_KINDS,
    FRACTIONAL_TOWERS,
    HUGE,
    INTEGER_TOWERS,
    SMALL,
    Doubling,
    canon,
    certificate_pairs,
    chain_scale_gadgets,
    circle_towers,
    conjugations,
    criterion_9_data,
    draw_fact,
    elems,
    extended,
    flipped_rational_part,
    formula_everywhere,
    oracle_holds,
    fun_coefficient,
    halving_recursion,
    oracle_preservation,
    oracle_structure,
    points as seeded_points,
    q_moving_points,
    q_moving_reports,
    radical_build_templates,
    rationals,
    references,
    soundness_items,
    soundness_pass,
    sparse_squares,
    too_large_for,
    tower_chain,
    verdicts_and_reports,
)


def formula_agrees(run):
    """``run(verify_preservation, verify_structure)`` on the fast paths,
    after asserting that it equals ``run(oracle_preservation,
    oracle_structure)`` under the ``references``; the fast run builds the
    kernel and packed tables (both, or the kinds ``run`` reaches), the
    reference run no table but the base ``PointTable``."""
    with tables_built() as fast_tables:
        fast = run(verify_preservation, verify_structure)
    with references(), tables_built() as formula_tables:
        assert run(oracle_preservation, oracle_structure) == fast
    assert set(fast_tables) - {"formula"} and set(formula_tables) <= {"formula"}
    return fast, set(fast_tables)


def test_kernels_give_the_oracle_verdicts_and_reports():
    """The harness case of the soundness pass: every corpus x
    ``model_family`` ``Verdict`` (ok, checked, violated_index,
    violated_fact) and ``PreservationReport``, criterion 9's five
    ``StructureReport``s, the negative controls and six Q-moving mutants are
    the same with the formula everywhere, the reference of every table
    fast path."""
    fast, kinds = formula_agrees(lambda *reports: soundness_pass(*reports) + q_moving_reports(TOWERS[1:4], reports[0]))
    assert kinds == {"formula", "kernel", "packed"}
    assert len(fast) == 96 + 5 + 5 + 6
    assert all(v.ok and report.ok for _, _, v, report in fast[:96])
    assert all(report.ok for report in fast[96:101])
    last = len(suite.replay_corpus()[0].derivation.facts) - 1
    assert [v.violated_index for v in fast[101:106]] == [0, 0, last, last, last]
    assert not any(report.ok for report in fast[106:]) and sum(not check.ok for report in fast[106:] for check in report.checks) > 6


def test_packed_verdicts_and_reports_match_the_formula_tables():
    """The corpus x ``model_family`` checks and preservation reports and the
    negative controls run on packed tables and equal the same reports with
    the formula everywhere."""
    items = soundness_items()
    del items[96:101]  # the structure reports: ``test_structure_matches_the_oracle``
    with tables_built() as fast_tables:
        packed = [item() for item in items]
    with formula_everywhere(), tables_built() as formula_tables:
        assert [item() for item in items] == packed
    assert "packed" in fast_tables and set(formula_tables) == {"formula"} and len(packed) == 96 + 5


def test_form_tables_give_the_apply_tables_verdicts_and_reports(monkeypatch):
    """Every report whose image table a ``ModelMap`` builds from forms equals
    the report on the fast point table of the images ``apply`` builds."""
    run = lambda: soundness_pass() + q_moving_reports(TOWERS[1:4])
    forms = run()
    monkeypatch.setattr(ModelMap, "image_table", lambda model, points: cm.mapped_table(model.apply, points))
    assert run() == forms

# -- derandomized cases for the kernels ------------------------------------------------------------


TOWERS = [QQ] + [tower_chain(*radicands)[-1] for radicands in ((F(11, 100),), (2, 3), (2, lambda t: t.one() + t.generator(0)), (2, 3, 5, 7))]
NAMES = "ABCD"
RATIOS = st.one_of(st.sampled_from([F(0), F(1)]), SMALL)


@st.composite
def fact_cases(draw):
    """A fact over four named points of one tower, with one point moved, or
    not, so that the fact holds, or for a linear relation holds on x only
    (``draw_fact``)."""
    tower = draw(st.sampled_from(TOWERS))
    huge = tower.depth <= 1 and draw(st.integers(0, 3)) == 0
    points = seeded_points(tower, draw(st.integers(0, 2**32)), NAMES, huge)
    # the rational coordinate alone equals the distance only if it is rational
    values = lambda distance: [F(0), F(-1, 3), draw(SMALL), distance.coords[0]]
    fact = draw_fact(draw, points, RATIOS, values, lambda: draw(SMALL), ["no", "yes", "x only"])
    return fact, points, tower


def _other_denominator(x: FunElem, factor: int) -> FunElem:
    """x with numerator and denominator both scaled by ``factor``: equal,
    over another denominator pair.  Each pair stays in lowest terms, as
    ``FunElem._make`` requires: (3n, k) over a k that 3 divides is (n, k/3)."""

    def scaled(rows, k):
        g = gcd(k, *(c * factor for r in rows for c in r))
        return tuple(tuple(c * factor // g for c in r) for r in rows), k // g

    return FunElem._make(x.tower, scaled(*x._n), scaled(*x._d))


@settings(DERANDOMIZED, max_examples=150)
@given(fact_cases(), st.sampled_from(["tower", "eps", "eps-times", "mixed", "eps-two-denominators"]))
def test_every_fact_kind_matches_the_oracle(packed_table, case, view):
    fact, points, tower = case
    if view == "eps-times":
        # K(eps) values that are no frame's images: every constant row is zero
        eps = FunElem.eps()
        points = {n: Point(eps * p.x, eps * p.y) for n, p in points.items()}
    elif view == "mixed":
        # one point over an extension of the others' tower: the generic formula
        wider = adjoin_sqrt(tower, 13).tower
        points = dict(points, A=Point(points["A"].x.lift(wider), points["A"].y.lift(wider)))
    elif view.startswith("eps"):
        if tower.depth > 2:
            tower, points = QQ, {n: Point(QQ.rational(p.x.coords[0]), QQ.rational(p.y.coords[0])) for n, p in points.items()}
        model = eps_rotation_model(reflection=tower.depth == 1)
        points = {n: model.apply(p) for n, p in points.items()}
        if view == "eps-two-denominators":
            a = points["A"]
            points["A"] = Point(_other_denominator(a.x, 3), _other_denominator(a.y, 3))
            assert points["A"] == a
    # ``cm.point_table`` picks a kernel for one tower; K(eps) points of one
    # denominator pair are packed by the packer, and their facts hold as on the formula
    assert (table_kind(cm.point_table(points)) != "formula") == (view == "tower")
    packed = packed_table(points)
    assert (packed is not None) == (view in ("eps", "eps-times"))
    # the oracle is the reference of the base table, and of the views that no fast table takes
    expected = oracle_holds(fact, points)
    assert fact.holds(cm.PointTable(points)) == expected, (fact, view)
    assert fact.holds(points) == expected, (fact, view)
    assert packed is None or fact.holds(packed) == expected, (fact, view)


@st.composite
def value_cases(draw):
    """Points of one tower, a constant their squared distance |PQ|^2 is
    compared with (the distance itself, another element, or a rational),
    and a factor rho that S - O is compared with times R - O (an element,
    a rational, zero or one); R may coincide with O, a zero direction, and
    S may be moved so that the scaling holds."""
    tower = draw(st.sampled_from(TOWERS[:4]))
    seed = draw(st.integers(0, 2**32))
    points = seeded_points(tower, seed, "PQORS", huge=draw(st.integers(0, 4)) == 0)
    p, q = points["P"], points["Q"]
    actual = sqdist(p, q)
    value = draw(st.sampled_from([actual, actual + 1, p.x, actual.coords[0], F(0), F(-2), draw(SMALL)]))
    rho = draw(st.sampled_from([q.y, tower.rational(draw(RATIOS))]))
    if draw(st.integers(0, 3)) == 0:
        points["R"] = points["O"]
    if draw(st.booleans()):
        points["S"] = points["O"] + (points["R"] - points["O"]).scaled(rho)
    return points, value, rho


@settings(DERANDOMIZED, max_examples=80)
@given(value_cases(), st.sampled_from(["tower", "tower-wider-rho", "eps", "eps-off-unit-rho", "eps-wider-rho"]))
def test_squared_distance_against_a_constant_matches_the_formula(packed_table, case, view):
    """A kernel table and the base table agree with the formula on
    ``sqdist_is`` and ``scaled_is``, rho a constant of the points' tower or
    not: over an extension of it, or for K(eps) off the unit polynomial."""
    points, value, rho = case
    if view.endswith("wider-rho"):
        rho = rho.lift(extended(rho.tower))
    if view.startswith("eps"):
        # preservation's comparison: K(eps) images against a rational v itself, else rho(v), a constant over 1
        model = eps_rotation_model()
        points, rho = {n: model.apply(p) for n, p in points.items()}, model.rho(rho)
        value = value if isinstance(value, F) else model.rho(value)
        if view == "eps-off-unit-rho":
            rho = _other_denominator(rho, 3)
    kernel = packed_table(points) if view.startswith("eps") else cm.point_table(points)
    assert kernel is not None and table_kind(kernel) != "formula"
    # a rational is decided on the kernel's integer form
    assert not isinstance(value, F) or kernel.sqdist_is_form("P", "Q", value.numerator, value.denominator) is not None
    p, q, o, r, s = (points[n] for n in "PQORS")
    for table in (kernel, cm.PointTable(points)):
        assert table.sqdist_is("P", "Q", value) == ((p - q).dot(p - q) == value)
        assert table.scaled_is(("S", "O"), ("R", "O"), rho) == (s - o == (r - o).scaled(rho))


class _XYModel:
    """One map on x and another on y, with a given rho: additive, but
    scaling as rho only where the maps agree."""

    def __init__(self, on_x, on_y, rho):
        self.on_x, self.on_y, self.rho = on_x, on_y, rho

    def apply(self, p):
        return Point(self.on_x(p.x), self.on_y(p.y))


class _Scaled:
    """p -> 2p with rho(v) = 4v: preserves the scaled distance, but rho does
    not fix Q."""

    def apply(self, p):
        return Point(2 * p.x, 2 * p.y)

    def rho(self, v):
        return 4 * v


class _Rho:
    """``model``'s map with another rho."""

    def __init__(self, model, rho):
        self.apply, self.rho = model.apply, rho


def _models(tower):
    """Sound models, with and without a translation, and wrong ones; and
    sound models whose rho is no constant of the images' tower: over an
    extension of it, or for K(eps) off the unit polynomial."""
    rotation = make_pythagorean_rotation(F(1, 2), translation=(F(1), F(-2)))
    eps, wider = eps_rotation_model(), extended(tower)
    models = [
        identity_model(),
        eps,
        ModelMap(Embedding("identity"), rotation),
        _Scaled(),
        _Rho(identity_model(), lambda v: v.lift(wider)),
        _Rho(eps, lambda v: _other_denominator(eps.rho(v), 3)),
    ]
    if tower.depth:
        conj = conjugation_model(tower, tower.depth - 1)
        flip = conj.embedding.apply_scalar
        models += [
            conj,
            ModelMap(conj.embedding, rotation),
            _XYModel(lambda x: x, flip, lambda v: v),
            _XYModel(lambda x: x, lambda y: y, flip),
        ]
    return models


@st.composite
def structure_cases(draw):
    tower = draw(st.sampled_from(TOWERS[:4]))
    values = elems(tower, draw(st.integers(0, 2**32)))
    # (0, 1) has no x component, so scaling is read on y
    us = [Point(next(values), next(values)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        us.append(Point(tower.zero(), tower.one()))
    if draw(st.integers(0, 4)) == 0:
        us.append(Point(tower.zero(), tower.zero()))  # a zero direction: no scaling
    lambdas = [next(values) for _ in range(draw(st.integers(1, 2)))]
    return draw(st.sampled_from(_models(tower))), lambdas, draw(st.permutations(us))


@settings(DERANDOMIZED, max_examples=200)
@given(structure_cases())
def test_structure_matches_the_oracle(case):
    """The kernel tables, the base tables, and the theta oracle agree."""
    model, lambdas, us = case
    report = verify_structure(model, lambdas, us)
    with formula_everywhere():
        assert verify_structure(model, lambdas, us) == report
    assert report == oracle_structure(model, lambdas, us)


class _Homogeneous:
    """(x, y) -> (x, y^3 / (x^2 + y^2)) with rho the identity: it scales
    every direction by lambda, but is not additive."""

    def apply(self, p):
        if p.x.is_zero() and p.y.is_zero():
            return p
        return Point(p.x, p.y * p.y * p.y / (p.x * p.x + p.y * p.y))

    def rho(self, v):
        return v


class _Partial:
    """``model``'s map, undefined at the point ``hole``."""

    def __init__(self, model, hole):
        self.model, self.hole, self.rho = model, hole, model.rho

    def apply(self, p):
        if p == self.hole:
            raise OutOfDomain(f"{p} is outside the model's domain")
        return self.model.apply(p)


def _structure_edge_cases():
    """Criterion 9's sample with a test that fails or a direction that
    decides the report early, or with images on two towers: (model,
    lambdas, us) and the report's (additivity_ok, theta_ok,
    homomorphism_ok, number of thetas)."""
    registered, lambdas, us = criterion_9_data()
    identity, conj = registered[0], registered[1]
    tower = us[0].x.tower
    zero = Point(tower.zero(), tower.zero())
    wider = adjoin_sqrt(tower, 13).tower
    lifted = Point(us[-1].x.lift(wider), us[-1].y.lift(wider))
    return {
        "additivity-only": ((_Homogeneous(), lambdas, us), (False, True, True, 4)),
        "theta-at-the-second-lambda": ((_Rho(identity, conj.rho), [lambdas[1], lambdas[0]], us), (True, False, True, 2)),
        "zero-direction": ((identity, lambdas, us[:3] + [zero] + us[3:]), (True, False, True, 1)),
        "zero-direction-no-lambda": ((identity, [], [zero] + us), (True, True, True, 0)),
        "mixed-carriers": ((identity, lambdas, us + [lifted]), (True, True, True, 4)),
        "mixed-carriers-eps": ((registered[2], lambdas[1:3], us[:4] + [lifted]), (True, True, True, 2)),
    }


STRUCTURE_EDGE_CASES = _structure_edge_cases()


@pytest.mark.parametrize("case", list(STRUCTURE_EDGE_CASES))
def test_structure_edge_cases_match_the_oracle(case, monkeypatch):
    """Each report, decided on one table, equals the base table's and the
    oracle's; images on two towers make that one table the base table."""
    (model, lambdas, us), flags = STRUCTURE_EDGE_CASES[case]
    tables, real_table = [], cm.point_table
    for module in (cm, models):
        monkeypatch.setattr(module, "point_table", lambda points: tables.append(real_table(points)) or tables[-1])
    report = verify_structure(model, lambdas, us)
    assert (report.additivity_ok, report.theta_ok, report.homomorphism_ok, len(report.thetas)) == flags
    assert len(tables) == 1 and (table_kind(tables[0]) == "formula") == case.startswith("mixed")
    monkeypatch.undo()
    with formula_everywhere():
        assert verify_structure(model, lambdas, us) == report == oracle_structure(model, lambdas, us)


def test_structure_maps_every_point_before_any_test():
    """A model undefined at one multiple lambda u raises, though a zero
    direction decides the report at the first lambda, before the oracle,
    which maps points as the tests read them, reaches that point."""
    registered, lambdas, us = criterion_9_data()
    tower = us[0].x.tower
    us = [Point(tower.zero(), tower.zero())] + us
    model = _Partial(registered[0], Point(lambdas[1] * us[-1].x, lambdas[1] * us[-1].y))
    assert oracle_structure(model, lambdas, us) == StructureReport(True, False, True, (lambdas[0],))
    with pytest.raises(OutOfDomain, match="outside the model's domain"):
        verify_structure(model, lambdas, us)


def test_eps_structure_packs_each_image_once(monkeypatch):
    """An eps-model report packs its 111 images into one table with two
    ``fun_pack`` calls, one per frame row: each image is formed from the
    packed rows and packs nothing, and each rho, a constant, is read as its
    one row.  Packing each image's numerators made 222 calls and more, one
    table per test 748."""
    registered, lambdas, us = criterion_9_data()
    calls, real_pack = [], models.fun_pack
    monkeypatch.setattr(models, "fun_pack", lambda *args: calls.append(args) or real_pack(*args))
    images = 1 + len(us) + len(list(combinations(us, 2))) + len(lambdas) * len(us)
    for model in registered[2:4]:
        calls.clear()
        assert verify_structure(model, lambdas, us).ok
        assert images == 111 and [dim for _, dim, _ in calls] == [2, 2]


@settings(DERANDOMIZED, max_examples=40)
@given(st.sampled_from(TOWERS[:4]), st.integers(0, 2**32), st.data())
def test_preservation_matches_the_oracle(tower, seed, data):
    values = elems(tower, seed)
    points = [Point(next(values), next(values)) for _ in range(3)] + [Point(tower.one(), tower.zero())]
    model = data.draw(st.sampled_from(_models(tower)))
    pairs = list(combinations(points, 2)) + [(points[-1], Point(tower.zero(), tower.zero()))]
    assert verify_preservation(model, pairs) == oracle_preservation(model, pairs)


def test_zero_tests_read_every_coordinate_and_row(packed_table):
    """Values on which a partial comparison would be wrong."""
    nested = TOWERS[3]  # Q(sqrt 2, sqrt(1 + sqrt 2)): not totally real
    s2, g = nested.generator(0), nested.generator(1)
    x = 1 + (1 - s2) * g  # x^2 is nonzero with rational coordinate 0
    assert (x * x).coords[0] == 0 and not (x * x).is_zero()
    points = {"P": Point(x, nested.zero()), "O": Point(nested.zero(), nested.zero())}
    eps_points = {n: eps_rotation_model().apply(p) for n, p in points.items()}
    for view in (points, eps_points, packed_table(eps_points)):
        assert NonzeroDist("P", "O").holds(view)
        assert not SqDistKnown("P", "O", F(0)).holds(view)
    # a zero distance of K(eps) images with fewer numerator rows than D^2
    origin = eps_rotation_model().apply(Point(QQ.rational(0), QQ.rational(0)))
    for view in ({"O": origin, "P": origin}, packed_table({"O": origin, "P": origin})):
        assert not NonzeroDist("O", "P").holds(view) and SqDistKnown("O", "P", F(0)).holds(view)
    # a K(eps) distance agreeing with the value on the rows of D^2 only
    eps, zero = FunElem.eps(), FunElem.constant(0)
    table = packed_table({"P": Point(1 + eps * eps, zero), "O": Point(zero, zero)})
    assert table_kind(table) == "packed" and not table.sqdist_is("P", "O", 1)
    # a value over an extension of the points' tower, rational and not
    s3 = adjoin_sqrt(QQ, 3).tower
    p, q = Point(QQ.rational(0), QQ.rational(0)), Point(QQ.rational(3), QQ.rational(4))
    table = cm.point_table({"P": p, "Q": q})
    assert table.sqdist_is("P", "Q", s3.rational(25)) and not table.sqdist_is("P", "Q", s3.rational(25) + s3.generator(0))
    # constants off the unit polynomial take the formula, on a kernel table as on the base table
    two_thirds = FunElem._make(QQ, (((2,),), 1), (((3,),), 1))
    assert two_thirds == F(2, 3) and two_thirds._d != FunElem.constant(1)._d
    images = {"A": eps_rotation_model().apply(p), "B": eps_rotation_model().apply(Point(QQ.rational(F(2, 3)), QQ.rational(0)))}
    one = FunElem._make(QQ, (((3,),), 1), (((3,),), 1))
    kernel = packed_table(images)
    assert table_kind(kernel) == "packed"
    for table in (kernel, cm.PointTable(images)):
        assert table.sqdist_is("A", "B", two_thirds * two_thirds) and not table.sqdist_is("A", "B", FunElem.constant(F(4, 9)) + eps)
        assert table.scaled_is(("B", "A"), ("B", "A"), one) and table.scaled_is(("B", "A"), ("B", "A"), FunElem.constant(1))
        assert not table.scaled_is(("B", "A"), ("B", "A"), two_thirds)
        assert not table.scaled_is(("B", "A"), ("B", "A"), FunElem.constant(F(2, 3)))


# -- counters ------------------------------------------------------------------------------------


def test_fact_kinds_build_no_carrier_objects(monkeypatch, packed_table):
    """On one-tower inputs (the gadget's coordinates and the images of
    every model of the family, the K(eps) ones on their packed table), no
    fact kind's ``holds`` builds a ``TowerElem`` or ``FunElem`` or reduces
    a value."""
    cases = []
    for entry in suite.replay_corpus():
        for _, model in suite.model_family(entry.gadget):
            images = {name: model.apply(p) for name, p in entry.gadget.points.items()}
            cases.append((entry.derivation.facts, images))
    # a tower's product bound is cached on its first packed table, and the
    # basis products of depth >= 3 that the tables read are filled on first
    # use and kept for the last 32 towers only (``scalars._bases``, emptied
    # here so that no earlier test's tables push these out): both made
    # before the tables are built, they stay out of the counted window
    # whatever ran before the test
    monkeypatch.setattr(scalars, "_bases", {})
    towers = {id(c.tower): c.tower for _, images in cases for p in images.values() for c in (p.x, p.y)}
    for tower in towers.values():
        tower._product_bound
        for depth in range(3, tower.depth + 1):
            basis = scalars._basis_products(tower._rads, 1 << depth)
            for i, j in combinations_with_replacement(range(basis.dim), 2):
                basis.fill(i, j)
    cases = [(facts, images, packed_table(images) or images) for facts, images in cases]
    counting, calls = [False], []

    def counted(name, real):
        def run(*args):
            if counting[0]:
                calls.append(name)
            return real(*args)

        return run

    for name in ("_elem", "_canon", "_fcanon"):
        monkeypatch.setattr(scalars, name, counted(name, getattr(scalars, name)))
    make = counted("_make", FunElem._make.__func__)
    monkeypatch.setattr(FunElem, "_make", classmethod(make))
    kinds = set()
    for facts, _, table in cases:
        counting[0] = True
        for fact in facts:
            kinds.add(type(fact))
            assert fact.holds(table)
        counting[0] = False
    assert kinds == set(FACT_KINDS) and calls == []
    assert sum(table_kind(table) == "packed" for _, _, table in cases) == 32
    # the counters do see the formula: one point over an extension of the tower
    facts, images, _ = cases[0]
    a, wider = images["A"], adjoin_sqrt(images["A"].x.tower, 13).tower
    images = dict(images, A=Point(a.x.lift(wider), a.y.lift(wider)))
    counting[0] = True
    assert all(fact.holds(images) for fact in facts)
    assert calls


def test_soundness_pass_takes_no_fmul_in_fun_equality(monkeypatch):
    """No item of the soundness pass cross-multiplies in ``FunElem``
    equality, but the Doubling control over the eps rotation: a model
    without ``image_table``, whose K(eps) images ``cm.point_table`` hands
    to the formula, which refutes the first fact."""
    calls = {"all": 0, "eq": 0}
    real, eq_code = scalars._fmul, FunElem.__eq__.__code__

    def counting(rads, a, b):
        calls["all"] += 1
        calls["eq"] += sys._getframe(1).f_code is eq_code
        return real(rads, a, b)

    items = soundness_items()
    doubled_eps = items.pop(96 + 5 + 1)
    monkeypatch.setattr(scalars, "_fmul", counting)
    for item in items:
        item()
    assert calls["all"] > 0 and calls["eq"] == 0
    assert doubled_eps().violated_index == 0 and calls["eq"] > 0
    calls["eq"] = 0
    # the counter does see __eq__ cross-multiplying over two denominators
    eps = FunElem.eps()
    assert eps / (eps + 1) == (2 * eps) / (2 * eps + 2)
    assert calls["eq"] == 2


# -- rational coordinates ------------------------------------------------------------------------


def test_rational_coordinates_are_points_of_q():
    """Every embedding fixes Q: points with ``int``/``Fraction`` coordinates
    give the reports of the same points over ``QQ``."""
    plain = [Point(F(1, 2), F(0)), Point(F(3), F(-1, 3)), Point(0, F(5, 7)), Point(F(2), 1)]
    over_q = [Point(QQ.rational(p.x), QQ.rational(p.y)) for p in plain]
    s2 = adjoin_sqrt(QQ, 2).tower
    conj = conjugation_model(s2, 0)
    lambdas = [F(2), F(-1, 3)]
    for model in (identity_model(), eps_rotation_model(), conj, ModelMap(conj.embedding, make_pythagorean_rotation(F(1, 2)))):
        assert [model.apply(p) for p in plain] == [model.apply(p) for p in over_q]
        report = verify_preservation(model, list(combinations(plain, 2)))
        assert report.ok and report == verify_preservation(model, list(combinations(over_q, 2)))
        report = verify_structure(model, lambdas, plain)
        assert report.ok and report == verify_structure(model, lambdas, over_q)


# -- preservation on the integer form ------------------------------------------------------------


def _outcome(run):
    """``run()``'s result, or the type and message of what it raises."""
    try:
        return run()
    except ModelError as err:
        return type(err), str(err)


def _irrational_frame():
    """A rotation at 1 + sqrt(2) with a sqrt(2) translation, decoded from
    its ``model-check`` descriptor: the generic formula."""
    r2 = adjoin_sqrt(QQ, 2)
    frame = make_pythagorean_rotation(1 + r2.root, translation=(r2.root, r2.tower.rational(3)))
    return codec.decode_model(codec.encode_model(ModelMap(Embedding("identity"), frame))).frame


@st.composite
def preservation_cases(draw):
    """A model and pairs of points over one tower, viewed as one of: the
    tower itself, under conjugations whose domain strictly extends it,
    ``int``/``Fraction`` coordinates, one point over an extension (mixed
    pairs), equal but distinct point objects, or points over an extension
    of a conjugation's domain (which may raise)."""
    tower = draw(st.sampled_from(TOWERS[:4]))
    values = elems(tower, draw(st.integers(0, 2**32)))
    points = [Point(next(values), next(values)) for _ in range(3)] + [Point(tower.one(), tower.zero())]
    view = draw(st.sampled_from(["tower", "wider domain", "rationals", "mixed", "equal copies", "outside domain"]))
    rotation = make_pythagorean_rotation(F(1, 2), translation=(F(1), F(-2)))
    if view == "wider domain":
        family = conjugations(extended(tower), rotation)
        family.append(ModelMap(family[-1].embedding, _irrational_frame()))
    elif view == "outside domain":
        domain = tower if tower.depth else extended(QQ, 2)
        family = conjugations(domain, rotation)
        wider = extended(domain)
        extra = next(values).lift(wider) * wider.generator(wider.depth - 1)
        points = [Point(p.x.lift(wider), p.y.lift(wider)) for p in points]
        moved = draw(st.integers(0, 3))
        points[moved] = Point(points[moved].x, points[moved].y + draw(st.sampled_from([0, 1])) * extra)
    else:
        family = [identity_model(), eps_rotation_model(), eps_rotation_model(reflection=True), _Scaled()]
        family.append(ModelMap(Embedding("identity"), _irrational_frame()))
        if tower.depth:
            family += conjugations(tower, rotation)
            family.append(_XYModel(lambda x: x, family[-1].embedding.apply_scalar, lambda v: v))
    if view == "rationals":
        points = [Point(*(c.coords[0] if draw(st.booleans()) else int(c.coords[0] * 6) for c in (p.x, p.y))) for p in points]
    elif view == "mixed":
        wider = extended(tower)
        points[0] = Point(points[0].x.lift(wider), points[0].y.lift(wider))
    elif view == "equal copies":
        # the same values as new objects, one of them over an extension of the tower
        wider = extended(tower)
        points += [Point(points[0].x, points[0].y), Point(points[1].x.lift(wider), points[1].y.lift(wider))]
    model = draw(st.sampled_from(family))
    pairs = list(combinations(points, 2)) + [(points[-1], points[0])]
    return model, pairs, view


def _first_outside(embedding, pairs):
    """The first value outside a conjugation's domain in the order the
    pairs are mapped: per pair the distance (rho(v) comes first), then
    p.x, p.y, q.x, q.y."""
    for p, q in pairs:
        for value in (sqdist(p, q), p.x, p.y, q.x, q.y):
            try:
                embedding.apply_scalar(value)
            except OutOfDomain:
                return value
    return None


@settings(DERANDOMIZED, max_examples=150)
@given(preservation_cases())
def test_preservation_views_match_the_oracle(case):
    model, pairs, view = case
    # the oracle reads rational coordinates as elements of QQ; the reports' pairs compare equal by value
    over_q = [tuple(Point(*(c if isinstance(c, TowerElem) else QQ.rational(c) for c in (p.x, p.y))) for p in pair) for pair in pairs]
    kernel, oracle = _outcome(lambda: verify_preservation(model, pairs)), _outcome(lambda: oracle_preservation(model, over_q))
    if not isinstance(oracle, tuple):
        assert kernel == oracle
        return
    # the same exception; its message names the first value mapped, and
    # rho(v) comes before the points' images (the oracle maps the points first)
    assert view == "outside domain" and kernel[0] is oracle[0] is OutOfDomain
    first = _first_outside(model.embedding, pairs)
    assert kernel[1] == f"{first} does not lie in the embedding domain {model.embedding.domain}"


@settings(DERANDOMIZED, max_examples=30)
@given(st.sampled_from(TOWERS[1:4]), st.integers(0, 2**32), st.booleans())
def test_a_conjugation_that_moves_q_fails_as_in_the_oracle(tower, seed, framed):
    pairs = list(combinations(q_moving_points(tower, seed), 2))
    frame = make_pythagorean_rotation(F(1, 2), translation=(F(1), F(-2))) if framed else None
    mutant = flipped_rational_part(conjugation_model(extended(tower), tower.depth, frame))
    report = verify_preservation(mutant, pairs)
    assert report == oracle_preservation(mutant, pairs)
    # every pair whose distance has a nonzero rational part fails
    assert [check.ok for check in report.checks] == [sqdist(p, q).coords[0] == 0 for p, q in pairs]


def test_rational_distances_are_checked_on_the_vectors(monkeypatch):
    """With the image test passing whatever it is given, the mutant of
    coordinate 0 still fails every pair with a nonzero rational distance,
    through rho(v) == v on the integer vectors; the sound conjugation
    passes them all."""
    tower = TOWERS[2]
    points = [rational_point(0, 0, tower), rational_point(3, 4, tower), Point(tower.generator(0), tower.zero())]
    pairs = list(combinations(points, 2))  # distances 25, 2 and 27 - 6 sqrt(2)
    # the images' point table (one tower) compares every image pair with rho(v) as equal,
    # on the integer form (a rational v) and against the value (an irrational v)
    monkeypatch.setattr(cm._KernelTable, "sqdist_is_form", lambda *args: True)
    monkeypatch.setattr(cm.PointTable, "sqdist_is", lambda *args: True)
    sound = conjugation_model(tower, 1)
    assert verify_preservation(sound, pairs).ok
    report = verify_preservation(flipped_rational_part(sound), pairs)
    assert [check.ok for check in report.checks] == [False, False, True]


# -- counters: preservation and the image memo ---------------------------------------------------


def _scoped(inside, fn):
    def run(*args):
        inside.append(True)
        try:
            return fn(*args)
        finally:
            inside.pop()

    return run


def test_images_are_looked_up_by_object_without_a_hash(monkeypatch):
    """In a warm soundness pass, ``verify_preservation`` and
    ``verify_structure`` give each point object one integer form, looked up
    by the object, and map none by ``apply``: no ``TowerElem`` is hashed
    inside either report.  The identity takes the points' own table and
    computes no form; the fallback maps each point object once by
    ``apply``."""
    inside, counts = [], {"hash": 0, "mapped": 0, "formed": 0}
    items = soundness_items(_scoped(inside, verify_preservation), _scoped(inside, verify_structure))
    for item in items:
        item()
    real_hash, real_apply, real_map, real_table = TowerElem.__hash__, ModelMap.apply, Embedding.vector_map, ModelMap.image_table
    tabling = []

    def counting_hash(self):
        counts["hash"] += bool(inside)
        return real_hash(self)

    def counting_apply(self, p):
        counts["mapped"] += bool(inside)
        return real_apply(self, p)

    def counting_map(self, tower):
        mapping = real_map(self, tower)
        if mapping is None or not (tabling and inside):
            return mapping
        image_tower, vector = mapping
        return image_tower, lambda n: counts.update(formed=counts["formed"] + 1) or vector(n)

    monkeypatch.setattr(TowerElem, "__hash__", counting_hash)
    monkeypatch.setattr(ModelMap, "apply", counting_apply)
    monkeypatch.setattr(Embedding, "vector_map", counting_map)
    monkeypatch.setattr(ModelMap, "image_table", _scoped(tabling, real_table))
    for item in items:
        item()
    # 612 point objects in the preservation reports (102 of them under the
    # identity) and 555 in the structure reports (111 under the identity):
    # 954 forms, each of two vectors
    assert counts == {"hash": 0, "mapped": 0, "formed": 2 * 954}
    # equal but distinct points, one of them over a wider tower, are four
    # point objects, each mapped once however often a pair names it
    tower = TOWERS[2]
    p, q = Point(tower.generator(0), tower.one()), rational_point(3, 4, tower)
    wider = extended(tower)
    copies = [Point(p.x, p.y), Point(p.x.lift(wider), p.y.lift(wider))]
    pairs = [(p, q), (copies[0], q), (copies[1], q), (p, q), (q, p), (copies[0], p)]
    inside.append(True)
    for model, pairs, mapped, formed in (
        (identity_model(), pairs, 0, 0),  # the points' own table
        (conjugation_model(tower, 1), pairs, 4, 4),  # two towers: ``apply``, whose ``apply_scalar`` maps every vector, the wider point's carried into the domain first
        (conjugation_model(tower, 1), pairs[:2] + pairs[3:], 3, 3),  # one tower: three forms; the irrational distance's formula maps the three images
    ):
        counts.update(hash=0, mapped=0, formed=0)
        assert verify_preservation(model, pairs).ok
        assert counts == {"hash": 0, "mapped": mapped, "formed": 2 * formed}


def _count_carrier_objects(monkeypatch, counting):
    """The list that ``_elem`` (in ``scalars`` and ``models``),
    ``FunElem._make``, ``Fraction.__new__`` and ``ModelMap.apply`` append
    their names to when they run while ``counting(name)`` holds."""
    calls = []

    def counted(name, real):
        def run(*args, **kwargs):
            if counting(name):
                calls.append(name)
            return real(*args, **kwargs)

        return run

    for module in (scalars, models):
        monkeypatch.setattr(module, "_elem", counted("_elem", scalars._elem))
    monkeypatch.setattr(FunElem, "_make", classmethod(counted("_make", FunElem._make.__func__)))
    monkeypatch.setattr(F, "__new__", staticmethod(counted("Fraction", F.__new__)))
    monkeypatch.setattr(ModelMap, "apply", counted("apply", ModelMap.apply))
    return calls


def test_preservation_builds_no_carrier_objects(monkeypatch):
    """For ``ModelMap`` models on one-tower coordinates, ``verify_preservation``
    builds no ``TowerElem``, ``FunElem`` or ``Fraction``, the images
    included: every pair is decided on the integer form, and every image
    table is built from the images' forms."""
    cases = []
    for entry in suite.replay_corpus():
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        cases += [(model, pairs) for _, model in suite.model_family(gadget)]
    inside = []
    calls = _count_carrier_objects(monkeypatch, lambda name: inside and inside[-1])
    preservation = _scoped(inside, verify_preservation)
    for model, pairs in cases:
        assert preservation(model, pairs).ok
    assert len(cases) == 96 and calls == []
    # the counters do see the formula: a pair over two towers, whose images
    # a conjugation builds by ``apply``
    p = Point(*(c.lift(extended(QQ)) for c in (QQ.zero(), QQ.one())))
    assert preservation(identity_model(), [(p, rational_point(3, 4))]).ok
    assert "_elem" in calls and "apply" not in calls
    calls.clear()
    assert preservation(conjugation_model(extended(QQ), 0), [(p, rational_point(3, 4))]).ok
    assert calls.count("apply") == 2 and "_elem" in calls


# -- K(eps) frames by the formula ---------------------------------------------------------------------


def _circle_point_formula(t):
    one = t * 0 + 1
    inv = (one + t * t).inverse()
    return (one - t * t) * inv, (2 * t) * inv


def test_k_eps_frames_match_the_formula():
    eps = FunElem.eps()
    for t in (eps, eps / (eps + 1), 3 * eps * eps - F(1, 2), F(2, 3) + eps * 0):
        a, b = _circle_point_formula(t)
        for reflection, rows in ((False, ((a, -b), (b, a))), (True, ((a, b), (b, -a)))):
            assert make_pythagorean_rotation(t, reflection=reflection).matrix == rows
        # not orthonormal: scaled by 2, the second column only, and a nonzero cross term
        for rows in (((2 * a, -2 * b), (2 * b, 2 * a)), ((a, -2 * b), (b, 2 * a)), ((a, b), (b, a))):
            with pytest.raises(NonOrthogonalFrame):
                OrthoAffine(rows)
    with pytest.raises(NonOrthogonalFrame):
        OrthoAffine(((eps, 0 * eps), (0 * eps, eps)))
    # both eps models keep the K(eps) image kernel: every entry over one D object
    for reflection in (False, True):
        frame = eps_rotation_model(reflection=reflection).frame
        entries = [e for row in frame.matrix for e in row]
        assert frame._kfield and all(e._d is entries[0]._d for e in entries)
    assert not OrthoAffine(((1, 0), (0, 1)))._kfield


# -- one point table per report call -------------------------------------------------------------


def test_chain_scale_tables_give_the_oracle_verdicts_and_reports():
    """The harness case of the chain-scale gadgets, built and decoded: their
    verdicts and reports under identity, each automorphic conjugation and
    Doubling are the same with the formula everywhere."""
    built = [replay(gadget) for gadget in chain_scale_gadgets()]
    decoded = [codec.decode_document(codec.dumps(codec.encode_derivation(d))) for d in built]
    towers = [d.gadget.tower.depth for d in built]
    assert towers[1:5] == [0] * 4 and min(towers[5:]) >= 1  # span 5 adjoins a root
    kernel, kinds = formula_agrees(lambda preservation, _: verdicts_and_reports(built + decoded, preservation))
    assert kinds == {"kernel"}
    checks, controls = [x for x in kernel if isinstance(x, tuple)], [x for x in kernel if not isinstance(x, tuple)]
    assert len(checks) > 24 and all(v.ok and v.checked > 0 and report.ok for v, report in checks)
    assert len(controls) == 24 and all(not v.ok and v.violated_index == 0 for v in controls)


def test_radical_build_tables_give_the_oracle_verdicts():
    """The harness case of the radical-build templates: the same with the
    formula everywhere."""
    templates = radical_build_templates()
    assert len(templates) == 15
    derivations = [replay(build()) for _, _, build in templates]
    kernel, _ = formula_agrees(lambda preservation, _: verdicts_and_reports(derivations, preservation))
    checks = [x for x in kernel if isinstance(x, tuple)]
    assert len(checks) > 15 and all(v.ok and report.ok for v, report in checks)


def test_sparse_kernels_keep_every_verdict():
    """The sparse paths of ``_imul`` and ``_isq``, and of a kernel table's
    squared distance, and its closed form at depth <= 2, change no verdict:
    every corpus x ``model_family`` check and preservation report,
    criterion 9's structure reports and the negative controls, and the
    radical-build constructions and chain-scale gadgets (their encoded
    derivations and their verdicts under identity, each automorphic
    conjugation and Doubling), come out the same when every product and
    square takes the halving recursion."""
    items = soundness_items()

    def run():
        built = [replay(build()) for _, _, build in radical_build_templates()] + [replay(g) for g in chain_scale_gadgets()]
        return [item() for item in items], [codec.dumps(codec.encode_derivation(d)) for d in built], verdicts_and_reports(built)

    with sparse_squares() as taken:
        sparse = run()
    # a dense vector's square, and a table's squared distance (two differences) at depths 3 and 4
    assert {(8, 1), (8, 2), (16, 2)} <= set(taken)
    with halving_recursion():
        assert run() == sparse


@st.composite
def rational_fact_cases(draw):
    """A fact over named points of Q, with a point moved, or not, so that it
    holds, holds on x only, or, for ``Distinct`` and ``NonzeroDist``, shares
    x or y (``draw_fact``)."""
    values = rationals(draw(st.integers(0, 2**32)))
    points = {name: Point(QQ.rational(next(values)), QQ.rational(next(values))) for name in "ABCDE"}
    if draw(st.booleans()):
        points["E"] = points[draw(st.sampled_from("ABCD"))]  # a coincident point
    ratios = st.one_of(st.sampled_from([F(0), F(1), F(-1)]), st.builds(lambda: next(values)))
    distances = lambda distance: [F(0), -distance.coords[0], distance.coords[0], distance.coords[0] + F(1, 10**4000), F(-1, 3)]
    fact = draw_fact(draw, points, ratios, distances, lambda: QQ.rational(next(values)), ["no", "yes", "x only", "y only"])
    return fact, points


@settings(DERANDOMIZED, max_examples=200)
@given(rational_fact_cases())
def test_rational_tables_match_the_oracle(case):
    fact, points = case
    table = cm.point_table(points)
    assert table_kind(table) == "kernel" and table.tower is QQ and cm.point_table(table) is table
    assert fact.holds(table) == fact.holds(points) == fact.holds(cm.PointTable(points)) == oracle_holds(fact, points), fact


def test_rational_table_reads_every_denominator():
    """Points of Q over unequal, and 4,000-digit, denominators: each point
    is held over the lcm of its two, and a difference over the product of
    its points' denominators."""
    big = 10**3999 + 7
    p, q, r = Point(QQ.rational(F(1, 3)), QQ.rational(F(1, big))), Point(QQ.rational(F(1, 2)), QQ.rational(0)), Point(QQ.rational(1), QQ.rational(F(2, 3)))
    table = cm.point_table({"P": p, "Q": q, "R": r})
    d2 = F(1, 36) + F(1, big * big)
    assert table.sqdist_is("P", "Q", d2) and not table.sqdist_is("P", "Q", d2 + F(1, 10))
    (n,), k = table.sqdist_num("P", "Q")
    assert table.tower is QQ and k == (3 * big * 2) ** 2 and F(n, k) == d2
    assert table.forms["P"] == ((big, 3), 3 * big) and table.forms["R"] == ((3, 2), 3)
    assert table.sqdist("P", "R") == sqdist(p, r) and table.sqdist("P", "R").tower is QQ
    assert not table.same("P", "Q") and table.same("Q", "Q")
    assert table.relation_vanishes({"P": 1, "Q": -1, "R": 0}) is False and table.relation_vanishes({})
    half = cm.point_table({"A": rational_point(F(1, 3), F(1, 5)), "B": rational_point(F(2, 3), F(2, 5)), "O": rational_point(0, 0)})
    assert half.relation_vanishes({"B": 1, "A": -2}) and not half.relation_vanishes({"B": 1, "A": -1})
    assert half.dot_vanishes(("A", "O"), ("B", "A")) is False
    # a relation over points of three denominators, and points equal on x alone over one denominator
    points = {"A": rational_point(F(1, 2), F(1, 3)), "B": rational_point(F(1, 3), F(1, 5)), "C": rational_point(0, 0)}
    points["D"] = points["C"] + (points["B"] - points["A"])
    points["E"], points["G"] = rational_point(F(1, 2), F(1, 6)), rational_point(0, 1)
    mixed = cm.point_table(points)
    assert sorted({d for _, d in mixed.forms.values()}) == [1, 6, 15, 30]
    assert VecEq("A", "B", "C", "D").holds(mixed) and not VecEq("A", "B", "C", "E").holds(mixed)
    assert Distinct("A", "E").holds(mixed) and Distinct("C", "G").holds(mixed) and not Distinct("A", "A").holds(mixed)
    perp = cm.point_table({"O": rational_point(0, 0), "U": rational_point(F(1, 3), F(1, 7)), "W": rational_point(F(-1, 7), F(1, 3))})
    assert perp.dot_vanishes(("U", "O"), ("W", "O")) and not perp.dot_vanishes(("U", "O"), ("U", "O"))
    # an irrational constant never equals a rational distance; a rational one over a wider tower may
    s3 = adjoin_sqrt(QQ, 3).tower
    assert table.sqdist_is("P", "Q", s3.rational(d2)) and not table.sqdist_is("P", "Q", s3.rational(d2) + s3.generator(0))


def test_rational_table_cost_stays_with_the_points_a_test_reads():
    """Forty points with distinct 4,000-digit denominators: no integer the
    table holds, and no denominator of a difference, outgrows the
    denominators of the points it comes from."""
    rng = random.Random(7)
    denominator = lambda: 10**3999 + rng.randrange(10**50)
    points = {f"P{i}": Point(QQ.rational(F(i, denominator())), QQ.rational(F(1, denominator()))) for i in range(40)}
    table = cm.point_table(points)
    bits = (10**3999).bit_length() + 1
    assert max(abs(v).bit_length() for m, d in table.forms.values() for v in (*m, d)) <= 2 * bits
    assert table.sqdist_num("P0", "P39")[1].bit_length() <= 8 * bits
    facts = [SqDistKnown(f"P{i}", f"P{i + 1}", F(1)) for i in range(39)] + [VecScale("P1", "P2", "P3", "P4", F(2)), DotZero("P5", "P6", "P7", "P8")]
    assert [fact.holds(table) for fact in facts] == [oracle_holds(fact, points) for fact in facts]


CM_KERNELS = ("sqdist_is_form", "relation_vanishes", "dot_vanishes", "scaled_is")


def _classification_counts(monkeypatch):
    """Counters of the classifying scan (``cm._one_tower``, which
    ``cm.point_table`` and ``ModelMap.image_table`` run), the tests of the
    tower kernel table (``kernel``, the kernel table's methods) and its
    squared-distance kernel ``sqdist_num``."""
    counts = {"scan": 0, "kernel": 0, "sqdist_num": 0}

    def counting(name, real):
        def run(*args):
            counts[name] += 1
            return real(*args)

        return run

    scan = counting("scan", cm._one_tower)
    for module in (cm, models):
        monkeypatch.setattr(module, "_one_tower", scan)
    kernel = type(cm.point_table({"O": rational_point(0, 0)}))
    for name in CM_KERNELS:
        monkeypatch.setattr(kernel, name, counting("kernel", getattr(kernel, name)))
    monkeypatch.setattr(kernel, "sqdist_num", counting("sqdist_num", kernel.sqdist_num))
    return counts


def test_point_table_is_the_one_carrier_decision():
    """The per-call zero tests, which picked a kernel on each call, are gone."""
    for name in ("_kernel_tower", "sqdist_is", "sqdist_is_form", "combination_vanishes", "form_vanishes", "_factor_value"):
        assert not hasattr(cm, name), name
    assert not hasattr(models, "combination_vanishes") and not hasattr(models, "form_vanishes")


def test_the_value_and_construction_kernels_are_gone():
    """A squared distance as a value, a K(eps) frame's entries and its
    orthonormality are the carrier formula; over Q a dot product takes the
    tower kernel at depth 0."""
    for name in ("tower_sqdist", "fun_sqdist", "fun_circle_point", "fun_frame_orthonormal"):
        assert not hasattr(scalars, name), name
    assert "sqdist" not in cm._KernelTable.__dict__
    # K(eps) facts run the tower kernels on packed numerators: no K(eps) fact
    # kernel is left, and a kernel table has no carrier flag
    for name in ("fun_sqdist_num", "fun_sqdist_is", "_fsumsq", "_frows_equal", "fun_comb_vanishes", "_fun_factor", "fun_form_vanishes", "_fproducts"):
        assert not hasattr(scalars, name), name
    assert "_towers" not in cm._KernelTable.__slots__
    # the tower fact kernels are the kernel table's methods, against rationals only
    for name in ("tower_sqdist_num", "tower_sqdist_is", "_ivanishes", "tower_comb_vanishes", "_tower_factor", "tower_form_vanishes", "constant_form"):
        assert not hasattr(scalars, name) and not hasattr(cm, name), name
    assert [cls for cls in (cm.PointTable, cm._KernelTable, models._PackedTable) if "sqdist_is" in cls.__dict__] == [cm.PointTable]


def test_an_empty_relation_vanishes_on_every_table(packed_table):
    """An empty sum is zero: the comb kernel, and the corpus fact
    VecEq(A0, A0, C0, C0), whose relation cancels to {}, under the K(eps)
    (packed) and the conjugation models of its family."""
    points = {"A": rational_point(1, 2)}
    assert all(table.relation_vanishes({}) for table in (cm.PointTable(points), cm._KernelTable(points, QQ), cm.point_table(points)))
    entry = next(e for e in suite.replay_corpus() if e.label == "chain[|v|/s=0]")
    fact = entry.derivation.facts[0]
    assert fact == VecEq("A0", "A0", "C0", "C0") and engine._linear_relation(fact) == {}
    tables = {"packed": 0, "kernel": 0}
    for _, model in suite.model_family(entry.gadget):
        mapped = {n: model.apply(p) for n, p in entry.gadget.points.items()}
        images = packed_table(mapped) or cm.point_table(mapped)
        if table_kind(images) in tables:
            tables[table_kind(images)] += 1
            assert fact.holds(images) and images.relation_vanishes({})
        assert check_derivation(entry.derivation, model).ok
    assert tables == {"packed": 2, "kernel": 4}


def _row_tables(tower, points):
    """Each fast table of ``points`` with its reference, the base table of
    the same points: the points' own kernel table (Q included), each
    conjugation's form table, plain and under a rational frame with a
    translation (unreduced forms over several denominators), and the eps
    rotation's packed table."""
    out = [(cm.point_table(points), cm.PointTable(points))]
    frame = make_pythagorean_rotation(F(1, 2), translation=(F(1), F(-2)))
    for model in conjugations(tower, frame) + [eps_rotation_model()]:
        out.append((model.image_table(points), cm.PointTable({n: model.apply(p) for n, p in points.items()})))
    return out


@pytest.mark.parametrize("tower", INTEGER_TOWERS + FRACTIONAL_TOWERS, ids=lambda t: f"depth{t.depth}")
def test_rows_decide_relations_and_equality_as_the_formula(tower):
    """``relation_vanishes`` on the packed rows, and ``same``, of every
    table kind against the base table, over both tower families at depths 0-4:
    seeded points over mixed per-point denominators, combinations of them
    that vanish, the same moved on y only or with one coefficient off, a
    point equal to another but built apart, the empty relation, and a point
    over a 4,000-digit denominator, whose relations exceed the row budget."""
    points = seeded_points(tower, tower.depth, "ABC")
    a, b, c = points["A"], points["B"], points["C"]
    points["D"] = c + (a - b)
    points["E"] = c + (a - b).scaled(F(2, 3))
    points["G"] = Point(a.x + b.x - b.x, a.y)
    points["H"] = Point(points["D"].x, points["D"].y + 1)
    points["X"] = Point(tower.rational(F(1, HUGE)), a.y)
    relations = [
        {"A": 1, "B": -1, "C": 1, "D": -1},
        {"A": 2, "B": -2, "C": 3, "E": -3},
        {"A": 1, "B": -1, "C": 1, "H": -1},
        {"A": 2, "B": -3, "C": 3, "E": -3},
        {},
        {"X": 3, "A": -1, "G": 1},
        {"X": 1, "D": 1, "C": -1, "A": -1, "B": 1},
    ]
    kinds = []
    for table, reference in _row_tables(tower, points):
        kinds.append(table_kind(table))
        assert [table.relation_vanishes(r) for r in relations] == [reference.relation_vanishes(r) for r in relations] == [True, True, False, False, True, False, False]
        assert all(table.same(p, q) == reference.same(p, q) == (p == q or {p, q} == {"A", "G"}) for p in points for q in points)
    assert kinds == ["kernel"] * (len(kinds) - 1) + ["packed"]


def test_rows_at_the_budget_match_the_formula():
    """Coefficients whose f_i sum to just under and just over
    2^``ROW_BUDGET``, on the kernel, form and packed tables of Q(sqrt 2):
    under it the rows decide, over it the formula.  Over it the rows could
    be wrong: 2^B (1, 0) + 2^B (1, 0) - (r0, 0) has x = 2^(B+1) - r0, not
    zero, and in a table whose largest coefficient is 1 (w = B + 1) its
    digits 2^(B+1) and -1 sum to 2^(B+1) - 2^w = 0."""
    tower, bits = INTEGER_TOWERS[1], cm.ROW_BUDGET
    o = Point(tower.rational(F(1, 3)), tower.rational(F(2, 3)))
    a = Point(tower.rational(F(2, 3)) + tower.generator(0), tower.rational(F(-1, 3)))
    points = {"O": o, "A": a, "B": Point(2 * a.x - o.x, 2 * a.y - o.y)}  # all over 3, so f_i = c_i
    affine = lambda u, off: {"A": off - 2 * u, "B": u, "O": u - off}  # (off)(A - O), |c| summing to 4u - 2 off
    quarter = 2 ** (bits - 2)
    cases = [
        (affine(quarter - 1, 0), True),  # 2^B - 4
        (affine(quarter, 0), True),  # 2^B, the least sum over the budget
        (affine(quarter, 1), False),  # 2^B - 2
        (affine(quarter + 1, 1), False),  # 2^B + 2
    ]
    for table, reference in _row_tables(tower, points):
        for relation, holds in cases:
            assert table.relation_vanishes(relation) == reference.relation_vanishes(relation) == holds, relation
    one, r0 = tower.one(), tower.generator(0)
    wrap = {"P": Point(one, 0 * one), "Q": Point(one, 0 * one), "R": Point(r0, 0 * one)}
    for table, reference in _row_tables(tower, wrap):
        assert table.same("P", "Q") and not table.same("P", "R")
        assert not table.relation_vanishes({"P": 2**bits, "Q": 2**bits, "R": -1})
        assert not reference.relation_vanishes({"P": 2**bits, "Q": 2**bits, "R": -1})
        # 2^j (1, 0) - (r0, 0) is zero on rows of width j: every width up to the budget's is passed
        assert not any(table.relation_vanishes({"P": 2**j, "R": -1}) for j in range(bits + 2))


SPARSE_TOWERS = {f"{family}-depth{t.depth}": t for family, towers in (("integer", INTEGER_TOWERS), ("fractional", FRACTIONAL_TOWERS)) for t in towers[3:]}


@pytest.mark.parametrize("tower", SPARSE_TOWERS.values(), ids=SPARSE_TOWERS.keys())
def test_squared_distances_from_nonzero_pairs_match_the_formula(tower):
    """A squared distance at dimension n >= 8, taken from the two points'
    nonzero pairs, on every table kind (``_row_tables``): the kernel and
    form tables give the base table's formula, and every table, the packed
    eps table too, gives what it gives on dense differences by the halving
    recursion.  The differences from a dense point O are zero (a point
    equal to O, built apart), one-sided (one nonzero x coordinate, y zero),
    at the square's rule's edge isqrt(2n) on both coordinates (nnz^2 = 2n
    at depth 3), one past it on x or on y, and over mixed per-point and
    per-coordinate denominators and a 4,000-digit one; the sparse points
    S, T and K differ sparsely over distinct denominators, and a few pairs
    mix the supports.  The edge and the one-sided difference take the one
    sparse kernel on the kernel table, and one past the edge does not."""
    n, rng = tower.dim, random.Random(tower.depth)
    edge = isqrt(2 * n)

    def element(support, den):
        coords = [F(0)] * n
        for i in support:
            coords[i] = F(rng.choice([-1, 1]) * rng.randint(1, 9), den)
        return TowerElem(tower, coords)

    spots = lambda k: rng.sample(range(n), k)
    o = Point(element(range(n), 6), element(range(n), 35))
    moved = lambda sx, sy, dx, dy: Point(o.x + element(sx, dx), o.y + element(sy, dy))
    points = {
        "O": o,
        "Z": Point(o.x + tower.zero(), o.y * 1),
        "X": moved(spots(1), (), 1, 1),
        "E": moved(spots(edge), spots(edge), 7, 7),
        "Fx": moved(spots(edge + 1), spots(1), 5, 5),
        "Fy": moved(spots(1), spots(edge + 1), 5, 5),
        "M": moved(spots(2), spots(2), 11, 13),
        "S": Point(element(spots(2), 3), element(spots(1), 5)),
        "T": Point(element(spots(2), 7), element(spots(2), 4)),
    }
    # on the kernel table alone: their dense references take seconds
    huge = {"O": o, "H": moved(spots(2), spots(1), HUGE, 3), "S": points["S"], "K": Point(element(spots(1), HUGE), element(spots(2), 3))}
    pairs = [("O", q) for q in points if q != "O"] + [("S", "T"), ("X", "S"), ("E", "M")]
    huge_pairs = [("O", "H"), ("O", "K"), ("S", "K"), ("H", "K")]
    kinds = []
    for table, reference, pairs in [(*t, pairs) for t in _row_tables(tower, points)] + [(cm.point_table(huge), cm.PointTable(huge), huge_pairs)]:
        kinds.append(table_kind(table))
        fast, taken = {}, {}
        for p, q in pairs:
            with sparse_squares() as taken[p, q]:
                fast[p, q] = canon(*table.sqdist_num(p, q))
        with halving_recursion():
            assert {pair: canon(*table.sqdist_num(*pair)) for pair in pairs} == fast
        if kinds[-1] != "packed":
            for (p, q), (num, k) in fast.items():
                assert TowerElem(table.tower, [F(c, k) for c in num]) == reference.sqdist(p, q), (p, q)
        assert all(table.same(p, q) == reference.same(p, q) == ({p, q} == {"O", "Z"}) for p, q in pairs)
        if len(kinds) == 1:
            assert all(taken["O", q] == [(n, 2)] for q in ("Z", "X", "E", "M")), taken
            assert all((n, 2) not in taken["O", q] for q in ("Fx", "Fy"))
    assert kinds == ["kernel"] * (len(kinds) - 2) + ["packed", "kernel"]


def test_perp_d4_distances_read_only_the_pairs_of_their_nonzero_coordinates(monkeypatch):
    """Bounded cost by counters, with no clock: the 48 certificate squared
    distances of the depth-4 perpendicularity transfer (dimension 16, at
    most two nonzero coordinates per difference) build no dense difference
    (``_ivec``) and read, for a difference with nnz nonzero coordinates,
    exactly nnz(nnz + 1)/2 basis products, each square and each unordered
    pair once.  The halving recursion, their reference, takes the dense
    differences instead.  Run on its own, the tower's basis products start
    empty and each distinct product read is filled once."""
    gadget = build_perp_transfer(rational_point(1, 1), rational_point(1, 4), rational_point(0, 0), rational_point(3, 0))
    tower = gadget.tower
    assert tower.dim == 16 and len(gadget.certificate) == 48
    supports, expected = {}, 0
    for entry in gadget.certificate:
        d = gadget.points[entry.p] - gadget.points[entry.q]
        nx, ny = (sum(map(bool, c.coords)) for c in (d.x, d.y))
        supports[nx, ny] = supports.get((nx, ny), 0) + 1
        expected += nx * (nx + 1) // 2 + ny * (ny + 1) // 2
    assert supports == {(1, 0): 9, (1, 1): 26, (0, 1): 1, (2, 2): 12}
    basis, reads, fills, dense = scalars._basis_products(tower._rads, tower.dim), [], [], []

    class CountedRows(dict):
        def get(self, key, default=None):
            reads.append(key)
            return dict.get(self, key, default)

        def __setitem__(self, key, value):
            fills.append(key)
            dict.__setitem__(self, key, value)

    fresh = not basis.rows
    monkeypatch.setattr(basis, "rows", CountedRows(basis.rows))
    kernel = type(cm.point_table({"O": rational_point(0, 0)}))
    real_ivec = kernel._ivec
    monkeypatch.setattr(kernel, "_ivec", lambda *args: dense.append(args) or real_ivec(*args))
    distances = lambda: all(cm.point_table(gadget.points).sqdist_is(e.p, e.q, e.d2) for e in gadget.certificate)
    assert distances() and len(reads) == expected and dense == []
    assert not fresh or len(fills) == len(set(reads))
    with halving_recursion():
        assert distances() and len(dense) == 48


CLOSED_TOWERS = {
    **{f"integer-depth{t.depth}": t for t in INTEGER_TOWERS[:3]},
    **{f"fractional-depth{t.depth}": t for t in FRACTIONAL_TOWERS[1:3]},
    "nested-depth2": circle_towers()[0],
}


@pytest.mark.parametrize("tower", CLOSED_TOWERS.values(), ids=CLOSED_TOWERS.keys())
def test_closed_form_squared_distances_match_the_formula(tower):
    """A squared distance at depth <= 2, the closed form on the two points'
    integer forms, on every table kind (``_row_tables``, and kernel tables
    built directly): the
    kernel and form tables give the base table's formula, every table
    gives what the halving recursion gives on the dense difference, over a
    positive denominator.  The towers have fractional radicands (rd != 1)
    and, at depth 2, a second radicand with a nonzero g1 coordinate
    (s1 != 0).  From O, whose x and y lie over different denominators, the
    differences are zero (Z, equal to O, built apart), one-sided (X moves
    x only, Y y only) and over another per-point denominator (P); P and Q
    share theirs.  H and K, over a 4,000-digit denominator, are read on a
    kernel table alone: the eps images' references take seconds."""
    n, rng = tower.dim, random.Random(tower.depth)

    def element(den, support=range(n)):
        coords = [F(0)] * n
        for i in support:
            coords[i] = F(rng.choice([1, -1, 11, -13]), den)  # coprime to every den below
        return TowerElem(tower, coords)

    o = Point(element(6), element(35))
    points = {
        "O": o,
        "Z": Point(o.x + tower.zero(), o.y * 1),
        "X": Point(o.x + element(7, [n - 1]), o.y),
        "Y": Point(o.x, o.y + element(5, [0])),
        "P": Point(element(3), element(3)),
        "Q": Point(element(3, [0]), element(3)),
    }
    huge = {"O": o, "P": points["P"], "H": Point(o.x + element(HUGE, [0]), o.y), "K": Point(element(HUGE), element(3, [n - 1]))}
    den = lambda p: lcm(*[c.denominator for c in p.x.coords + p.y.coords])
    assert den(points["P"]) == den(points["Q"]) == 3 != den(o) and o.x.coords[0].denominator != o.y.coords[0].denominator
    assert den(huge["H"]).bit_length() > 13000
    if tower in FRACTIONAL_TOWERS[1:]:
        assert tower.gens[0].coords[0].denominator == 2  # rd = 2
    if tower.depth == 2 and tower != INTEGER_TOWERS[2]:
        assert tower.gens[1].coords[1] != 0  # s1 != 0
    tables = [(*t, points) for t in _row_tables(tower, points)] + [(cm._KernelTable(ps, tower), cm.PointTable(ps), ps) for ps in (points, huge)]
    kinds = []
    for table, reference, named in tables:
        pairs = list(combinations(named, 2))
        kinds.append(table_kind(table))
        fast = {pair: table.sqdist_num(*pair) for pair in pairs}
        assert all(k > 0 for _, k in fast.values())
        with halving_recursion():
            assert {pair: canon(*table.sqdist_num(*pair)) for pair in pairs} == {pair: canon(*v) for pair, v in fast.items()}
        if kinds[-1] != "packed":
            for (p, q), (num, k) in fast.items():
                assert TowerElem(table.tower, [F(c, k) for c in num]) == reference.sqdist(p, q), (p, q)
        assert "Z" not in named or table.sqdist_num("O", "Z")[0] == (0,) * n
    assert kinds == ["kernel"] * (len(kinds) - 3) + ["packed", "kernel", "kernel"] and len(kinds) >= 4


def test_low_depth_distances_build_no_difference_and_square_nothing(monkeypatch):
    """Bounded cost by counters, with no clock: on the seven chain-scale
    bridges (towers of depth 1 and 2) every certificate squared distance,
    on the points' table, each automorphic conjugation's form table and
    the packed eps table, is one closed-form kernel call: no dense
    difference (``_ivec``), no square (``_isq``) and no sparse sum.  Every
    side condition (``same``) cross-multiplies the two kept forms and
    builds no difference either."""
    bridges = chain_scale_gadgets()[5:]
    assert sorted({g.tower.depth for g in bridges}) == [1, 2]
    calls = {"_ivec": 0, "_isq": 0, "_isq_sum": 0, "_isq_closed": 0}

    def counted(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in ("_isq", "_isq_sum", "_isq_closed"):
        monkeypatch.setattr(cm, name, counted(name, getattr(cm, name)))
    kernel = type(cm.point_table(bridges[0].points))
    monkeypatch.setattr(kernel, "_ivec", counted("_ivec", kernel._ivec))
    distances = sides = 0
    for gadget in bridges:
        models = [identity_model(), eps_rotation_model()] + conjugations(gadget.tower, None)[::2]
        for table in [model.image_table(gadget.points) for model in models]:
            assert table_kind(table) in ("kernel", "packed")
            for entry in gadget.certificate:
                assert isinstance(entry.d2, F) and table.sqdist_is(entry.p, entry.q, entry.d2)
                distances += 1
            for p, q in gadget.side_conditions:
                assert not table.same(p, q) and table.same(p, p)
                sides += 1
    assert sides > 7 * 10 and distances > 7 * 20
    assert calls == {"_ivec": 0, "_isq": 0, "_isq_sum": 0, "_isq_closed": distances}


def test_perp_d4_distances_resolve_the_basis_products_once(monkeypatch):
    """Counted with no clock: the 48 certificate squared distances of the
    depth-4 perpendicularity transfer look the tower's basis products up
    once, when their table is built, not once per sparse kernel call; and
    a table over an equal tower built as another object shares them."""
    gadget = build_perp_transfer(rational_point(1, 1), rational_point(1, 4), rational_point(0, 0), rational_point(3, 0))
    tower = gadget.tower
    lookups, real = [], scalars._basis_products
    for module in (cm, scalars):
        monkeypatch.setattr(module, "_basis_products", lambda *args: lookups.append(args) or real(*args))
    with sparse_squares() as taken:
        table = cm.point_table(gadget.points)
        assert all(table.sqdist_is(e.p, e.q, e.d2) for e in gadget.certificate)
    assert len(gadget.certificate) == 48 and len(taken) >= 40 and len(lookups) == 1
    twin = scalars.TowerDesc(tower.gens)
    assert twin is not tower and twin == tower
    assert cm.point_table({"A": Point(twin.one(), twin.zero())})._basis is cm.point_table(gadget.points)._basis is real(tower._rads, tower.dim)


def test_a_table_packs_only_the_rows_its_relations_read(monkeypatch):
    """Rows are packed per point on first read, counted with no clock: a
    table packs none before a relation reads one, none for the empty
    relation, and then only the points its relations name, at a width
    that every point of the table fixes before the first row.  The corpus
    chain whose one relation cancels to {} packs none under every model of
    its family, and each of criterion 9's structure reports packs 67 of
    its 111 points, the ones its additivity relations name."""
    points = seeded_points(INTEGER_TOWERS[2], 2, "ABCDE")
    table = cm.point_table(points)
    assert table_kind(table) == "kernel" and table.relation_vanishes({}) and table.rows is None
    table.relation_vanishes({"A": 1, "B": -1, "C": 1, "D": -1})
    table.relation_vanishes({"A": 2, "B": -2})
    assert set(table.rows) == {"A", "B", "C", "D"}
    # w covers every point before the first row: at the 65 bits that P and R
    # alone give, the rows of W = (2^65, 0) and R = (r0, 0) would be equal
    tower = INTEGER_TOWERS[1]
    zero = tower.zero()
    wide = cm.point_table({"P": Point(tower.one(), zero), "R": Point(tower.generator(0), zero), "W": Point(tower.rational(2**65), zero)})
    assert not wide.relation_vanishes({"P": 1, "R": -1}) and not wide.relation_vanishes({"W": 1, "R": -1})
    built, real = [], cm.PointTable.__init__
    monkeypatch.setattr(cm.PointTable, "__init__", lambda self, points: built.append(self) or real(self, points))
    entry = next(e for e in suite.replay_corpus() if e.label == "chain[|v|/s=0]")
    built.clear()
    assert all(check_derivation(entry.derivation, model).ok for _, model in suite.model_family(entry.gadget))
    kinds = [table_kind(t) for t in built]
    assert {"kernel", "packed"} <= set(kinds) and all(t.rows is None for t in built if table_kind(t) != "formula")
    models_, lambdas, us = criterion_9_data()
    built.clear()
    assert all(verify_structure(model, lambdas, us).ok for model in models_)
    assert len(built) == 5 and len(built[0].points) == 111 and [len(t.rows) for t in built] == [67] * 5


def _counted_tables(monkeypatch):
    """The point tables built while the returned list is read, each object
    as its constructor ends, and the differences (``_ivec``) the kernel
    tables build, as (table, difference)."""
    built, ivecs, kernel = [], [], type(cm.point_table({"O": rational_point(0, 0)}))
    real_init, real_ivec = cm.PointTable.__init__, kernel._ivec
    monkeypatch.setattr(cm.PointTable, "__init__", lambda self, points: built.append(self) or real_init(self, points))
    monkeypatch.setattr(kernel, "_ivec", lambda self, u: ivecs.append((self, u)) or real_ivec(self, u))
    return built, ivecs


def test_rational_reports_classify_once_and_pack_no_row(monkeypatch):
    """A span-80 chain over Q: ``Gadget.validate``, replay (validate, then
    ``_finish``), ``check_derivation``, ``recheck_derivation`` and
    ``verify_preservation`` (the source points, whose table is the
    identity's image table) classify their points once, on one kernel table
    per report, which sums its relations on the points' forms: it packs no
    row and builds no difference (``_ivec``)."""
    gadget = chain_scale_gadgets()[4]
    derivation = replay(gadget)
    pairs = certificate_pairs(gadget)
    assert gadget.tower.depth == 0 and len(gadget.points) == 162 and len(derivation.facts) == 482
    counts = _classification_counts(monkeypatch)
    built, ivecs = _counted_tables(monkeypatch)
    n = len(gadget.certificate)
    nonzero = sum(isinstance(fact, NonzeroDist) for fact in derivation.facts)
    # one squared-distance kernel call per certificate pair, per nonzero fact, and per side of a preserved pair
    for run, tables, sqdists in (
        (gadget.validate, 1, n),
        (lambda: replay(gadget), 2, n),
        (lambda: check_derivation(derivation, identity_model()), 1, n + nonzero),
        (lambda: recheck_derivation(derivation), 1, n),
        (lambda: verify_preservation(identity_model(), pairs), 1, 2 * n),
    ):
        counts.update(scan=0, sqdist_num=0)
        built.clear()
        run()
        assert counts["scan"] == tables and [table_kind(t) for t in built] == ["kernel"] * tables
        assert all(t.tower is QQ and t.rows is None for t in built) and ivecs == []
        assert counts["sqdist_num"] == sqdists
    assert counts["kernel"] > 0
    # the counters do see rows and differences over a tower (one scan, the tower kernel per pair)
    bridge = chain_scale_gadgets()[5]
    counts.update(scan=0, kernel=0, sqdist_num=0)
    bridge.validate()
    assert counts["scan"] == 1 and counts["sqdist_num"] == len(bridge.certificate) and counts["kernel"] > 0
    bridge = replay(bridge)
    counts.update(scan=0)
    built.clear()
    assert check_derivation(bridge, identity_model()).ok
    assert counts["scan"] == 1 and built[0].rows and ivecs == []
    names = list(bridge.gadget.points)
    built[0].dot_vanishes(tuple(names[:2]), tuple(names[1:3]))
    assert len(ivecs) == 2
    # ``sqdist`` is the formula: it builds no table
    counts.update(scan=0, kernel=0)
    assert sqdist(gadget.points["A0"], gadget.points["C0"]) == 1
    assert counts["scan"] == counts["kernel"] == 0


def test_each_table_forms_each_point_once(monkeypatch):
    """Counted with no clock: through validate, replay, recheck and
    model-check (``check_derivation`` and ``verify_preservation``) under
    the identity and, over a tower, the first conjugation, the span-80
    chain and the seven chain-scale bridges build each point's integer form
    (``cm._form``) exactly once per table, with the table; over Q a table
    packs no row and builds no difference (``_ivec``)."""
    gadgets_ = [chain_scale_gadgets()[4]] + chain_scale_gadgets()[5:]
    forms, real_form = [], cm._form
    monkeypatch.setattr(cm, "_form", lambda p: forms.append(p) or real_form(p))
    built, ivecs = _counted_tables(monkeypatch)
    kernels = 0
    for gadget in gadgets_:
        derivation, pairs = replay(gadget), certificate_pairs(gadget)
        models_ = [identity_model()] + ([conjugation_model(gadget.tower, 0)] if gadget.tower.depth else [])
        runs = [gadget.validate, lambda: replay(gadget), lambda: recheck_derivation(derivation)]
        runs += [lambda m=m: check_derivation(derivation, m).ok and verify_preservation(m, pairs).ok for m in models_]
        for run in runs:
            built.clear()
            forms.clear()
            ivecs.clear()
            assert run() is not False
            tables = [t for t in built if table_kind(t) == "kernel"]
            assert tables and len(tables) == len(built)
            assert len(forms) == sum(len(t.points) for t in tables)
            assert all(len(t.forms) == len(t.points) for t in tables)
            if gadget.tower.depth == 0:
                assert all(t.rows is None for t in tables) and ivecs == []
            kernels += len(tables)
    assert kernels >= 8 * 5


def test_non_rational_reports_classify_once(monkeypatch):
    """Over a tower and over K(eps) one scan per table, and one table per
    ``verify_structure`` report for all its tests; mixed towers take the
    base table, the formula, and no kernel."""
    entry = suite.replay_corpus()[0]
    derivation, gadget = entry.derivation, entry.gadget
    counts = _classification_counts(monkeypatch)
    for model in (identity_model(), eps_rotation_model()):
        counts.update(scan=0, kernel=0)
        assert check_derivation(derivation, model).ok
        assert counts["scan"] == 1 and counts["kernel"] > 0
    registered, lambdas, us = criterion_9_data()
    for model in registered:
        counts.update(scan=0)
        assert verify_structure(model, lambdas, us).ok
        assert counts["scan"] == 1
    wider = adjoin_sqrt(gadget.tower, 13).tower
    points = dict(gadget.points, A=Point(gadget.points["A"].x.lift(wider), gadget.points["A"].y.lift(wider)))
    table = cm.point_table(points)
    assert table_kind(table) == "formula"
    expected = [oracle_holds(fact, points) for fact in derivation.facts]
    counts.update(kernel=0, sqdist_num=0)
    assert [fact.holds(table) for fact in derivation.facts] == expected
    assert counts["kernel"] == counts["sqdist_num"] == 0


# -- K(eps) coordinates as preservation's source points ---------------------------------------------


def test_preservation_of_k_eps_points():
    """Points with K(eps) coordinates: the identity reproduces |PQ|^2 = 25
    verbatim; the inclusion into K(eps) and every conjugation are undefined
    on them and say so, naming the value."""
    eps_model = eps_rotation_model()
    p, q = eps_model.apply(rational_point(0, 0)), eps_model.apply(rational_point(3, 4))
    assert isinstance(p.x, FunElem) and sqdist(p, q) == 25
    report = verify_preservation(identity_model(), [(p, q)])
    assert report == PreservationReport(ok=True, checks=(PairCheck((p, q), True),))
    assert sqdist(p, q).is_rational() and not (p.x + FunElem.eps()).is_rational()
    s2 = adjoin_sqrt(QQ, 2).tower
    for model in (eps_model, eps_rotation_model(reflection=True), conjugation_model(s2, 0), conjugations(s2, make_pythagorean_rotation(F(1, 2)))[1]):
        with pytest.raises(OutOfDomain, match=r"^FunElem\(25\) lies in K\(eps\), not in a quadratic tower$"):
            verify_preservation(model, [(p, q)])
        with pytest.raises(OutOfDomain, match=r"^FunElem\(0\) lies in K\(eps\), not in a quadratic tower$"):
            model.apply(p)


# -- the packed K(eps) table ----------------------------------------------------------------------


@st.composite
def packed_cases(draw):
    """K(eps) points over one tower of ``TOWERS`` (the non-totally-real
    Q(sqrt 2, sqrt(1 + sqrt 2)) among them) and one denominator D of 1-3
    rows: O, A and B with numerators of 0-3 rows, often fewer than D^2 has,
    and points made to pass each test: S = 2A - B, Q = O + (A - O) turned
    by a right angle, R = O + rho (A - O) and T = A + (c1, c2)."""
    tower = draw(st.sampled_from(TOWERS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coefficient = lambda: fun_coefficient(tower, rng)
    lead = coefficient()
    while lead.is_zero():
        lead = coefficient()
    den = [coefficient() for _ in range(rng.randint(0, 2))] + [lead]
    o, a, b = (Point(*(FunElem(tower, [coefficient() for _ in range(rng.randint(0, 3))], den) for _ in "xy")) for _ in "OAB")
    c1, c2 = coefficient(), coefficient()
    rho = FunElem.constant(coefficient()) + (FunElem.eps(tower) * c1 if rng.randrange(2) else 0)
    points = {
        "O": o,
        "A": a,
        "B": b,
        "S": Point(2 * a.x - b.x, 2 * a.y - b.y),
        "Q": Point(o.x - (a.y - o.y), o.y + (a.x - o.x)),
        "R": Point(o.x + rho * (a.x - o.x), o.y + rho * (a.y - o.y)),
        "T": Point(a.x + c1, a.y + c2),
    }
    return points, rho, c1, c2


@settings(DERANDOMIZED, max_examples=40)
@given(packed_cases())
def test_packed_table_matches_the_formula(packed_table, case):
    """The packed table and the base table, the carrier formula, agree on
    ``sqdist_is`` (constants zero, rational, of the tower, and off the unit
    polynomial), ``relation_vanishes`` (the empty relation and coefficients
    too large for the width among them), ``dot_vanishes`` and
    ``scaled_is``; each test has cases that hold."""
    points, rho, c1, c2 = case
    tower = points["O"].x.tower
    packed, formula = packed_table(points), cm.PointTable(points)
    assert table_kind(packed) == "packed"
    distance = c1 * c1 + c2 * c2
    generator = tower.generator(tower.depth - 1) if tower.depth else tower.one()
    constants = [0, F(-2, 3), generator * F(5, 2) + 1, distance, FunElem.constant(distance), FunElem(tower, [distance * 3], [3])]
    constants += [distance.as_fraction()] if distance.is_rational() else []
    assert constants[5]._d != FunElem.constant(1)._d
    for p, q in (("A", "T"), ("O", "A"), ("A", "A"), ("S", "B"), ("Q", "R")):
        for c in constants:
            assert packed.sqdist_is(p, q, c) == formula.sqdist_is(p, q, c), (p, q, c)
    assert packed.sqdist_is("A", "T", distance) and packed.sqdist_is("A", "A", 0)
    huge = 10**40
    relations = [{}, {"S": 1, "A": -2, "B": 1}, {"S": huge, "A": -2 * huge, "B": huge}, {"O": 3, "A": -1, "B": 2}, {"T": 1, "A": -1}, {"Q": 1}]
    for relation in relations:
        assert packed.relation_vanishes(relation) == formula.relation_vanishes(relation), relation
    assert all(packed.relation_vanishes(relation) for relation in relations[:3])
    for u, w in ((("A", "O"), ("Q", "O")), (("A", "O"), ("B", "O")), (("S", "B"), ("T", "A")), (("R", "O"), ("R", "O"))):
        assert packed.dot_vanishes(u, w) == formula.dot_vanishes(u, w), (u, w)
    assert packed.dot_vanishes(("A", "O"), ("Q", "O"))
    rhos = [rho, FunElem.constant(c1), FunElem.constant(huge * huge), FunElem(tower, [c2 * 3], [3]), c1, rho + FunElem.eps(tower) ** 3]
    for r in rhos:
        for u, w in ((("R", "O"), ("A", "O")), (("T", "A"), ("B", "O")), (("O", "O"), ("A", "O"))):
            assert packed.scaled_is(u, w, r) == formula.scaled_is(u, w, r), (u, w, r)
    assert packed.scaled_is(("R", "O"), ("A", "O"), rho)


def test_the_soundness_pass_packs_eps_images_in_models_only(monkeypatch):
    """Over one warm run of ``soundness_items()``, every image table of a
    ``ModelMap`` into K(eps) (the 32 eps checks of the corpus and their
    preservation reports, criterion 9's two eps structure reports and the
    two altered-ratio controls under the eps models) comes from
    ``models._packed_table``, but the two of no point (the preservation
    reports of a certificate with no pair), and ``cm.point_table`` receives
    ``FunElem`` coordinates once: from the Doubling control over the eps
    rotation, a model without ``image_table``, whose K(eps) images take the
    formula."""
    items = soundness_items()
    for item in items:
        item()
    fun_sets, eps_tables, packed = [], [], []
    real_point_table, real_image_table, real_packed = cm.point_table, ModelMap.image_table, models._packed_table

    def counting_point_table(points):
        if not isinstance(points, cm.PointTable) and any(isinstance(c, FunElem) for p in points.values() for c in (p.x, p.y)):
            fun_sets.append(points)
        return real_point_table(points)

    def counting_image_table(model, points):
        table = real_image_table(model, points)
        if model.embedding.kind == "function_field":
            eps_tables.append((len(points.points if isinstance(points, cm.PointTable) else points), table))
        return table

    def counting_packed(*args):
        packed.append(real_packed(*args))
        return packed[-1]

    for module in (cm, engine, gadgets, models):
        monkeypatch.setattr(module, "point_table", counting_point_table)
    monkeypatch.setattr(ModelMap, "image_table", counting_image_table)
    monkeypatch.setattr(models, "_packed_table", counting_packed)
    doubled_eps = 96 + 5 + 1
    assert isinstance(items[doubled_eps](), engine.Verdict) and len(fun_sets) == 1
    fun_sets.clear()
    for index, item in enumerate(items):
        before = len(fun_sets)
        item()
        assert len(fun_sets) - before == (index == doubled_eps), index
    assert len(eps_tables) == 2 * 32 + 2 + 2
    assert [type(table) for size, table in eps_tables if not size] == [cm.PointTable] * 2
    eps_tables = [table for size, table in eps_tables if size]
    assert all(table_kind(table) == "packed" for table in eps_tables)
    assert [id(table) for table in eps_tables] == [id(table) for table in packed]


def test_the_soundness_pass_maps_and_packs_only_what_it_reads(monkeypatch, packed_table):
    """Over one warm run of ``soundness_items()``: every ``scaled_is`` of a
    packed table reads its rho on the kernel (``_constant`` never answers
    None); ``fun_pack`` packs only a frame row (once per row per table) or
    D (at most once per table); ``ModelMap.apply`` runs only inside the
    Doubling control's own ``apply``; and ``cm.mapped_table`` runs only
    for the two Doubling controls, which have no ``image_table``, and for
    the empty point sets of the five non-identity preservation reports of
    the trivial chain's empty certificate."""
    items = soundness_items()
    for item in items:
        item()
    constants, packs, built, mapped, applied, doubling = [], [], [], [], [], []
    real_constant, real_pack, real_packed = models._PackedTable._constant, models.fun_pack, models._packed_table
    real_mapped, real_apply = cm.mapped_table, ModelMap.apply
    monkeypatch.setattr(models._PackedTable, "_constant", lambda self, rho: constants.append(real_constant(self, rho)) or constants[-1])
    monkeypatch.setattr(models, "fun_pack", lambda rows, dim, shifts: packs.append((rows, shifts)) or real_pack(rows, dim, shifts))
    monkeypatch.setattr(models, "_packed_table", lambda frame, *args: built.append((frame, real_packed(frame, *args))) or built[-1][1])
    for module in (cm, models):
        monkeypatch.setattr(module, "mapped_table", lambda apply, points: mapped.append((apply, len(points))) or real_mapped(apply, points))
    monkeypatch.setattr(ModelMap, "apply", lambda self, p: applied.append(bool(doubling)) or real_apply(self, p))
    monkeypatch.setattr(Doubling, "apply", _scoped(doubling, Doubling.apply))
    for item in items:
        item()
    assert len(constants) == 88 and None not in constants
    per_table = [[rows for rows, shifts in packs if shifts is table._shifts] for _, table in built]
    for (frame, table), calls in zip(built, per_table):
        assert [rows for rows in calls if rows is not table._den[0]] == [row[0] for row in frame._kernel]
        assert len(calls) <= len(frame._kernel) + 1
    # the 2 * 32 + 2 + 2 eps image tables of the pass, but the two of no point
    assert len(built) == 66 and sum(map(len, per_table)) == len(packs)
    points = len(suite.replay_corpus()[0].gadget.points)
    assert applied == [True] * points
    assert [(type(apply.__self__), size) for apply, size in mapped if size] == [(Doubling, points)] * 2
    assert sum(not size for _, size in mapped) == 5
    # the counter does see the formula: a rho that is no constant of K(eps)
    eps = FunElem.eps()
    zero, one = FunElem.constant(0), FunElem.constant(1)
    points = {"O": Point(zero, zero), "A": Point(one, 2 * one), "R": Point(eps, 2 * eps)}
    table = packed_table(points)
    constants.clear()
    for rho, holds in ((eps, True), (eps + 1, False)):
        assert table.scaled_is(("R", "O"), ("A", "O"), rho) == cm.PointTable(points).scaled_is(("R", "O"), ("A", "O"), rho) == holds
    assert constants == [None, None]


def test_the_width_is_load_bearing(packed_table):
    """A nonzero numerator that vanishes when packed at a narrower width
    than the table's: 2^v - eps at B = 2^v, and |PO|^2 = eps^2 against the
    constant 2^(2v), for every v whose constant fits the table.  The derived
    width packs each to a nonzero value, and the table refutes the fact."""
    zero = FunElem.constant(0)
    for v in range(1, 130):
        p = Point(FunElem(QQ, [2**v, -1], [1]), zero)
        table = packed_table({"P": p, "O": Point(zero, zero)})
        rows = p.x._n[0]
        assert scalars.fun_pack(rows, 1, range(0, 2 * v, v)) == (0,)
        assert table.width > v and scalars.fun_pack(rows, 1, range(0, 2 * table.width, table.width)) != (0,)
        assert not table.relation_vanishes({"P": 1, "O": -1}) and not table.same("P", "O")
    eps = FunElem.eps()
    table = packed_table({"P": Point(eps, zero), "O": Point(zero, zero)})
    fitting = [v for v in range(1, 200) if (1 << 2 * v).bit_length() <= table._budget]
    assert table_kind(table) == "packed" and len(fitting) > 30
    for v in fitting:
        assert table.sqdist_is_form("P", "O", 1 << 2 * v, 1) is False
        assert not table.sqdist_is("P", "O", 1 << 2 * v)
    assert table.sqdist_is("P", "O", eps * eps)


def test_a_constant_too_large_for_the_width_takes_the_formula(monkeypatch, packed_table):
    """A per-call constant that does not fit the table (a distance's form,
    a relation's coefficients, a factor rho) takes the carrier formula and
    gets the formula's verdict; no integer kernel of the table runs for it:
    neither a squared distance (``sqdist_num``), a difference (``_ivec``)
    nor a relation."""
    model = eps_rotation_model()
    points = {"P": model.apply(rational_point(3, 4)), "O": model.apply(rational_point(0, 0))}
    points["Q"] = model.apply(rational_point(3, 4))
    table = packed_table(points)
    assert table_kind(table) == "packed"
    calls = []
    for name in ("sqdist_num", "_ivec", "relation_vanishes"):
        real = getattr(cm._KernelTable, name)
        monkeypatch.setattr(cm._KernelTable, name, lambda *args, real=real: calls.append(args) or real(*args))

    def kernel_calls(test):
        """The test's result and how many integer kernel calls it made."""
        before = len(calls)
        return test(), len(calls) - before

    huge = too_large_for(table)
    # 25 in an unreduced form too large for the width: the formula's verdict, not the packed form's
    assert kernel_calls(lambda: table.sqdist_is_form("P", "O", 25 * huge, huge)) == (True, 0)
    assert kernel_calls(lambda: table.sqdist_is("P", "O", 25)) == (True, 1)
    assert kernel_calls(lambda: table.sqdist_is("P", "O", FunElem.constant(25))) == (True, 0)  # not a rational: the formula
    assert kernel_calls(lambda: table.sqdist_is("P", "O", huge)) == (False, 0)
    assert kernel_calls(lambda: table.relation_vanishes({"P": huge, "Q": -huge})) == (True, 0)
    assert kernel_calls(lambda: table.relation_vanishes({"P": huge, "O": -huge})) == (False, 0)
    assert kernel_calls(lambda: table.relation_vanishes({"P": 1, "Q": -1})) == (True, 1)
    assert kernel_calls(lambda: table.scaled_is(("P", "O"), ("P", "O"), FunElem.constant(huge))) == (False, 0)
    assert kernel_calls(lambda: table.scaled_is(("P", "O"), ("P", "O"), FunElem.constant(1))) == (True, 2)
    assert kernel_calls(lambda: table.scaled_is(("P", "O"), ("P", "O"), FunElem.constant(huge) / huge)) == (True, 0)  # off the unit polynomial


# -- image tables built from forms -----------------------------------------------------------------


def test_form_tables_answer_every_test_as_the_apply_tables(packed_table):
    """On every point pair of the 16 corpus gadgets under the 6 models of
    their family, and for every fact of their derivations, the table built
    from forms and the table of the ``apply`` images on the same carrier
    (the packer's for K(eps) images, else ``cm.point_table``) give the same
    answer: every fact, ``same``, and ``sqdist_is`` against the formula's
    value."""
    answers = 0
    for entry in suite.replay_corpus():
        points = entry.gadget.points
        for kind, model in suite.model_family(entry.gadget):
            forms = model.image_table(points)
            mapped = {name: model.apply(p) for name, p in points.items()}
            images = packed_table(mapped) or cm.point_table(mapped)
            assert type(forms) is type(images) and forms is not images
            built_from_forms = kind != "identity"
            assert built_from_forms == isinstance(forms.points, models._Images) and (not built_from_forms or not forms.points.mapped)
            assert len(forms.points) == len(points)
            for fact in entry.derivation.facts:
                assert fact.holds(forms) == fact.holds(images) is True, fact
            for p, q in combinations(points, 2):
                value = images.sqdist(p, q)
                assert forms.same(p, q) == images.same(p, q) is False
                assert forms.sqdist_is(p, q, value) == images.sqdist_is(p, q, value) is True
            answers += len(entry.derivation.facts) + 2 * len(list(combinations(points, 2)))
            # every fact and ``same`` came from the forms; ``sqdist_is`` against
            # a value that is not an ``int`` or ``Fraction`` takes the formula,
            # on the images ``apply`` maps, each once
            assert not built_from_forms or list(forms.points.mapped) == list(points)
            assert [forms[name] for name in points] == [images[name] for name in points]
    assert answers == 5418
    # equal points as distinct objects, under a rational frame whose forms are
    # not canonical: ``same`` cross-multiplies, on Q, over a tower and packed
    for tower in TOWERS[:3]:
        a, b = Point(tower.rational(F(1, 3)), tower.rational(F(1, 6))), Point(tower.rational(F(2, 6)), tower.rational(F(-1, 2)))
        points = {"A": a, "B": b, "C": Point(a.x, a.y)}
        for model in (ModelMap(Embedding("identity"), make_pythagorean_rotation(F(1, 2), translation=(F(1, 3), F(0)))), eps_rotation_model()):
            table = model.image_table(points)
            assert table.same("A", "C") and not table.same("A", "B")
            assert table_kind(table) == ("packed" if model.embedding.kind == "function_field" else "kernel")


def _eps_form_cases():
    """(model, points) for every eps table of the corpus and of criterion 9,
    and for points with 4,000-digit coordinates over three towers."""
    cases = [(model, entry.gadget.points) for entry in suite.replay_corpus() for name, model in suite.model_family(entry.gadget) if name.startswith("eps")]
    registered, lambdas, us = criterion_9_data()
    sample = {("u", i): u for i, u in enumerate(us)}
    sample.update((("lu", k, i), Point(lam * u.x, lam * u.y)) for k, lam in enumerate(lambdas) for i, u in enumerate(us))
    cases += [(model, sample) for model in registered[2:4]]
    for seed, tower in enumerate(TOWERS[:3]):
        cases += [(model, seeded_points(tower, seed, "ABCDE", huge=True)) for model in registered[2:4]]
    return cases


def test_the_width_bounds_of_forms_cover_the_reduced_images(packed_table):
    """For every eps table built from forms, the bounds it derives its width
    from, a (coefficients) and kb (denominators), are at least ``models._bits``
    and the largest k of the reduced rows ``apply`` builds, so the width is
    at least the one the packer derives for those images."""
    cases = _eps_form_cases()
    assert len(cases) == 32 + 2 + 6
    for model, points in cases:
        table = model.image_table(points)
        assert table_kind(table) == "packed"
        a, kb = (table._budget - 64) // 2 - table._kb, table._kb
        coords = [c for p in points.values() for c in (lambda q: (q.x, q.y))(model.apply(p))]
        polys = [c._n[0] for c in coords] + [coords[0]._d[0]]
        top = max(abs(v) for rows in polys for row in rows for v in row)
        assert a >= models._bits(top, max(map(len, polys))) and kb >= max(c._n[1] for c in coords).bit_length()
        assert table.width >= packed_table({name: model.apply(p) for name, p in points.items()}).width


def test_checks_and_reports_build_no_image(monkeypatch):
    """Over the 96 corpus checks and their preservation reports
    ``ModelMap.apply`` runs 0 times and no ``TowerElem``, ``FunElem`` or
    ``Fraction`` is built; criterion 9's five structure reports run no
    ``apply`` either, and their image tables build nothing (the sample
    points and rho are built outside them); nor do the negative controls,
    but for the model that Doubling wraps.  A model without
    ``image_table`` (the Doubling control) and a conjugation undefined on
    the gadget's field (a ``model-check`` of ``gadget division --t 1/3``
    under a conjugation of Q(sqrt 3)) take the ``apply`` loop, and the
    latter names the first point it is undefined at."""
    corpus = suite.replay_corpus()
    checks = []
    for entry in corpus:
        gadget = entry.gadget
        pairs = certificate_pairs(gadget)
        checks += [(entry.derivation, model, pairs) for _, model in suite.model_family(gadget)]
    registered, lambdas, us = criterion_9_data()
    controls = soundness_items()[101:]  # Doubling, Doubling after eps-rotation, the altered ratio under three models
    inside = []
    calls = _count_carrier_objects(monkeypatch, lambda name: name == "apply" or inside)
    for derivation, model, pairs in checks:
        inside.append(True)
        assert check_derivation(derivation, model).ok and verify_preservation(model, pairs).ok
        inside.pop()
    assert len(checks) == 96 and calls == []
    monkeypatch.setattr(ModelMap, "image_table", _scoped(inside, ModelMap.image_table))
    assert all(verify_structure(model, lambdas, us).ok for model in registered) and calls == []
    # the negative controls refute as before; only the eps model that
    # Doubling wraps runs ``apply``, once per point of Doubling's own loop
    last = len(corpus[0].derivation.facts) - 1
    assert [control().violated_index for control in controls] == [0, 0, last, last, last]
    assert calls == ["apply"] * len(corpus[0].gadget.points)
    calls.clear()
    # the counters do see the ``apply`` loop
    doubled = []
    doubling = Doubling()
    doubling.apply = lambda p, real=doubling.apply: doubled.append(p) or real(p)
    assert check_derivation(corpus[0].derivation, doubling).violated_index == 0 and len(doubled) == len(corpus[0].gadget.points)
    division = replay(gadgets.build_division(rational_point(0, 0), rational_point(1, 0), F(1, 3)))
    with pytest.raises(engine.ModelUndefinedAtPoint, match=r"^model undefined at D: r0 does not lie in the embedding domain Q\(sqrt\(3\)\)$"):
        check_derivation(division, conjugation_model(adjoin_sqrt(QQ, 3).tower, 0))
    # the table's ``apply`` loop stops at D; ``check_derivation`` then maps
    # the points again, in order, to name the point
    assert calls.count("apply") == 2 * (list(division.gadget.points).index("D") + 1)


def test_an_apply_only_model_names_the_first_point_it_is_undefined_at():
    """A model with ``apply`` only, undefined at the third point of a corpus
    gadget: ``check_derivation`` raises ``ModelUndefinedAtPoint`` naming
    that point, with the model's exception as its cause, once the table's
    ``apply`` loop and then the naming loop have each stopped there."""
    entry = suite.replay_corpus()[1]
    name, hole = list(entry.gadget.points.items())[2]
    calls, raised = [], []

    class Holed:
        def apply(self, p):
            calls.append(p)
            if p is hole:
                raised.append(OutOfDomain(f"{p} is outside the model's domain"))
                raise raised[-1]
            return Point(p.y, p.x)

    with pytest.raises(engine.ModelUndefinedAtPoint, match=f"^model undefined at {name}: ") as caught:
        check_derivation(entry.derivation, Holed())
    assert caught.value.__cause__ is raised[-1] and len(raised) == 2
    assert len(calls) <= 6
