"""Bordered squared-distance determinants, and the two vector lemmas on coordinates."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from rigidity_forge.cm import Point, Vec2, affinely_dependent3, cm3, cm3_points, cm4, point_table, rational_point, sqdist
from rigidity_forge.engine import _LEMMAS, Distinct, NonzeroDist, PatternMismatch, SqDistKnown, VecEq
from rigidity_forge.scalars import QQ, FunElem, TowerDesc, TowerElem, adjoin_sqrt

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)


def cm4_points(*points: Point):
    """Oracle: the four-point bordered determinant from the points' pairwise squared distances."""
    return cm4(*(sqdist(p, q) for p, q in combinations(points, 2)))


def rand_frac(rng, span=40, den=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


# -- squared distances ------------------------------------------------------------


def test_sqdist_examples():
    assert sqdist(rational_point(0, 0), rational_point(1, 0)) == 1
    t3 = adjoin_sqrt(QQ, 3)
    vertex = Point(t3.tower.rational(Fraction(1, 2)), t3.root * Fraction(1, 2))
    assert sqdist(rational_point(0, 0, t3.tower), vertex) == 1


def _tower_points():
    r2 = adjoin_sqrt(QQ, 2)
    r3 = adjoin_sqrt(r2.tower, 3)
    t = r3.tower
    s2, s3 = r2.root.lift(t), r3.root
    p = Point(s2 + Fraction(1, 3), s3 * s2 - 2)
    q = Point(s3 * Fraction(5, 7), t.one() + s2)
    return t, p, q


def test_point_and_vector_equality_make_no_tower_subtraction(monkeypatch):
    t, p, q = _tower_points()
    u, v = Vec2(p.x, p.y), Vec2(q.x, q.y)
    same = Point(p.x + 0, p.y + 0)
    rational = rational_point(Fraction(1, 2), 3)  # over Q, compared across towers

    def no_sub(self, other):
        raise AssertionError("TowerElem.__sub__ called")

    monkeypatch.setattr(TowerElem, "__sub__", no_sub)
    monkeypatch.setattr(TowerElem, "__rsub__", no_sub)
    assert p == same and not p == q and not p == rational
    assert rational == rational_point(Fraction(1, 2), 3, t)
    assert u == Vec2(same.x, same.y) and not u == v


def test_points_and_vectors_compare_and_hash_by_value():
    """Equal points over two distinct but equal tower objects compare and
    hash equal, and so do their vectors; a point never equals a vector."""
    t, p, _ = _tower_points()
    twin = TowerDesc(t.gens)
    assert twin is not t and twin == t
    q = Point(p.x.lift(twin), p.y.lift(twin))
    assert q.x.tower is twin and q == p and hash(q) == hash(p)
    u, w = Vec2(p.x, p.y), Vec2(q.x, q.y)
    assert u == w and hash(u) == hash(w)
    assert (p == u) is False and (u == p) is False and p != u
    assert len({p, q, u, w}) == 2


def test_tower_sqdist_is_the_formula():
    t, p, q = _tower_points()
    expected = (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y)
    got = sqdist(p, q)
    assert got == expected and got.tower is t and (got._n, got._d) == (expected._n, expected._d)
    table = point_table({"P": p, "Q": q})
    assert table.sqdist_is("P", "Q", got) and not table.sqdist_is("P", "Q", got + 1)


def test_sqdist_over_function_field():
    eps = FunElem.eps()
    p = Point(FunElem.constant(0), FunElem.constant(0))
    q = Point(eps, FunElem.constant(1))
    assert sqdist(p, q) == 1 + eps * eps


# -- three-point determinant ----------------------------------------------------------


def test_cm3_unit_triangle():
    assert cm3(1, 1, 1) == -3


def test_cm3_collinear_pattern():
    # squared distances a^2, (a+b)^2, b^2 with a=1, b=2
    assert cm3(1, 9, 4) == 0


def test_cm3_coincident_pattern():
    assert cm3(0, 4, 4) == 0


def test_cm3_permutation_invariance():
    rng = random.Random(3)
    for _ in range(20):
        pts = [(rand_frac(rng), rand_frac(rng)) for _ in range(3)]
        points = [rational_point(x, y) for x, y in pts]
        reference = cm3_points(*points)
        for perm in permutations(points):
            assert cm3_points(*perm) == reference


def test_cm3_translation_invariance():
    rng = random.Random(5)
    for _ in range(20):
        pts = [rational_point(rand_frac(rng), rand_frac(rng)) for _ in range(3)]
        shift = Vec2(rand_frac(rng), rand_frac(rng))
        shifted = [p + shift for p in pts]
        assert cm3_points(*pts) == cm3_points(*shifted)


# -- four-point determinant --------------------------------------------------------------


def test_cm4_unit_square():
    assert cm4(1, 1, 2, 2, 1, 1) == 0
    assert cm4(1, 2, 1, 1, 2, 1) == 0


def test_cm4_kempe_instance():
    # A,B,E,F image distances at the t=1 linkage: e - 16 + 3c = 0
    assert cm4(Fraction(16), Fraction(32, 5), Fraction(9), Fraction(16, 5), Fraction(1), Fraction(1)) == 0


def test_cm4_planar_points_vanish():
    rng = random.Random(7)
    for _ in range(200):
        pts = [rational_point(rand_frac(rng), rand_frac(rng)) for _ in range(4)]
        assert cm4_points(*pts) == 0


def test_cm4_permutation_invariance():
    rng = random.Random(9)
    pts = [rational_point(rand_frac(rng), rand_frac(rng)) for _ in range(4)]
    reference = cm4_points(*pts)
    for perm in permutations(pts):
        assert cm4_points(*perm) == reference


# -- affine dependence ----------------------------------------------------------------------


def test_affinely_dependent_examples():
    assert affinely_dependent3(rational_point(0, 0), rational_point(1, 0), rational_point(2, 0))
    assert not affinely_dependent3(rational_point(0, 0), rational_point(1, 0), rational_point(0, 1))


def test_affine_dependence_matches_cross_product_oracle():
    rng = random.Random(11)
    for trial in range(1000):
        if trial < 200:
            base = (rand_frac(rng), rand_frac(rng))
            direction = (rand_frac(rng), rand_frac(rng))
            l1, l2 = rand_frac(rng), rand_frac(rng)
            raw = [
                base,
                (base[0] + l1 * direction[0], base[1] + l1 * direction[1]),
                (base[0] + l2 * direction[0], base[1] + l2 * direction[1]),
            ]
        else:
            raw = [(rand_frac(rng), rand_frac(rng)) for _ in range(3)]
        cross = (raw[1][0] - raw[0][0]) * (raw[2][1] - raw[0][1]) - (raw[1][1] - raw[0][1]) * (
            raw[2][0] - raw[0][0]
        )
        points = [rational_point(x, y) for x, y in raw]
        assert affinely_dependent3(*points) == (cross == 0)


# -- ratio lemma ---------------------------------------------------------------------------------
#
# The two vector lemmas are the rules ``engine._LEMMAS["Prop3"]`` and
# ``["Prop4"]``; their conclusions must hold on the configurations they are
# read from.


def prop3(zx, xxt, zxt):
    """The ratio rule on Z, X, XT with the given squared distances."""
    facts = [SqDistKnown("Z", "X", zx), SqDistKnown("X", "XT", xxt), SqDistKnown("Z", "XT", zxt)]
    (scale,) = _LEMMAS["Prop3"](facts, [0, 1, 2], None)
    return scale


def line_points(z, x, xt):
    return {"Z": z, "X": x, "XT": xt}


def test_prop3_interior_point():
    points = line_points(rational_point(0, 0), rational_point(1, 0), rational_point(3, 0))
    scale = prop3(Fraction(1), Fraction(4), Fraction(9))
    assert scale.r == Fraction(1, 3)
    assert scale.holds(points)


def test_prop3_negative_branch():
    points = line_points(rational_point(0, 0), rational_point(2, 0), rational_point(1, 0))
    scale = prop3(Fraction(4), Fraction(1), Fraction(1))
    assert scale.r == 2
    assert scale.holds(points)


def test_prop3_oblique():
    points = line_points(
        rational_point(0, 0),
        rational_point(Fraction(3, 5), Fraction(4, 5)),
        rational_point(Fraction(6, 5), Fraction(8, 5)),
    )
    scale = prop3(Fraction(1), Fraction(1), Fraction(4))
    assert scale.r == Fraction(1, 2)
    assert scale.holds(points)


def test_prop3_degenerate_sum():
    # XT = Z: the split a = 2, b = -2 would divide by a + b = 0; the rule
    # reads the triangle the other way round (ratio 1), which holds
    points = line_points(rational_point(0, 0), rational_point(2, 0), rational_point(0, 0))
    scale = prop3(Fraction(4), Fraction(4), Fraction(0))
    assert scale.r == 1
    assert scale.holds(points)


def test_prop3_pattern_violation():
    # a = b = 1 stated for a configuration whose |Z XT|^2 is 9, not (a+b)^2
    points = line_points(rational_point(0, 0), rational_point(1, 0), rational_point(3, 0))
    with pytest.raises(PatternMismatch):
        prop3(Fraction(1), Fraction(1), sqdist(points["Z"], points["XT"]).as_fraction())


@settings(max_examples=40)
@given(rationals, rationals, st.fractions(min_value=1, max_value=9, max_denominator=6))
def test_prop3_on_scaled_unit_directions(zx, zy, a):
    # z, z + a*u, z + (a+b)*u with u = (3/5, 4/5) and b = 1
    b = Fraction(1)
    u = (Fraction(3, 5), Fraction(4, 5))
    points = line_points(
        rational_point(zx, zy),
        rational_point(zx + a * u[0], zy + a * u[1]),
        rational_point(zx + (a + b) * u[0], zy + (a + b) * u[1]),
    )
    scale = prop3(a * a, b * b, (a + b) ** 2)
    assert scale.r == a / (a + b)
    assert scale.holds(points)


# -- parallelogram lemma -----------------------------------------------------------------------------


def prop4(e, f, c, d):
    """The parallelogram rule on E, F, C, D, its distance premises read off
    the points; returns the points and the two conclusions."""
    points = {"E": e, "F": f, "C": c, "D": d}
    facts = [SqDistKnown(p, q, sqdist(points[p], points[q]).as_fraction()) for p, q in ("EC", "FC", "ED", "FD")]
    facts += [NonzeroDist("E", "F"), Distinct("C", "D")]
    assert all(fact.holds(points) for fact in facts)
    return points, _LEMMAS["Prop4"](facts, range(6), None)


def test_prop4_axis_example():
    e, f, c, d = rational_point(1, 0), rational_point(-1, 0), rational_point(0, 1), rational_point(0, -1)
    points, (ec_df, fc_de) = prop4(e, f, c, d)
    assert (ec_df, fc_de) == (VecEq(a="E", b="C", c="D", d="F"), VecEq(a="F", b="C", c="D", d="E"))
    assert ec_df.holds(points) and fc_de.holds(points)
    assert points["C"] - points["E"] == Vec2(QQ.rational(-1), QQ.rational(1))


def test_prop4_division_gadget_quadruple():
    t3 = adjoin_sqrt(QQ, Fraction(3, 4))
    tower = t3.tower
    root = t3.root  # sqrt(3)/2
    e = Point(tower.rational(Fraction(1, 4)), root * Fraction(1, 2))
    f = Point(tower.rational(Fraction(3, 4)), root * Fraction(1, 2))
    c = Point(tower.rational(Fraction(1, 2)), tower.rational(0))
    d = Point(tower.rational(Fraction(1, 2)), root)
    points, conclusions = prop4(e, f, c, d)
    assert all(fact.holds(points) for fact in conclusions)
    assert c - e == Vec2(tower.rational(Fraction(1, 4)), -root * Fraction(1, 2))


def test_prop4_reports_failed_distance():
    # |FC|^2 = |FD|^2 = 5 but |EC|^2 = |ED|^2 = 2
    with pytest.raises(PatternMismatch, match="not equal"):
        prop4(rational_point(1, 0), rational_point(-2, 0), rational_point(0, 1), rational_point(0, -1))


def test_prop4_matches_reflection_construction():
    # C on the perpendicular bisector of EF, D its reflection through the
    # midpoint: all four preconditions hold by construction
    rng = random.Random(13)
    built = 0
    while built < 30:
        e = rational_point(rand_frac(rng), rand_frac(rng))
        f = rational_point(rand_frac(rng), rand_frac(rng))
        lam = rand_frac(rng)
        if e == f or lam == 0:
            continue
        mid_x = (e.x + f.x) * Fraction(1, 2)
        mid_y = (e.y + f.y) * Fraction(1, 2)
        perp = Vec2(-(f.y - e.y), f.x - e.x)
        c = Point(mid_x + lam * perp.x, mid_y + lam * perp.y)
        d = Point(mid_x - lam * perp.x, mid_y - lam * perp.y)
        points, conclusions = prop4(e, f, c, d)
        assert all(fact.holds(points) for fact in conclusions)
        built += 1
