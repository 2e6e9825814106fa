"""Exact arithmetic in all three carriers: rationals, towers, K(eps)."""

import random
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidity_forge import cm, codec, gadgets, models, real, scalars, suite
from rigidity_forge.cm import Point, rational_point
from rigidity_forge.engine import check_derivation
from rigidity_forge.poly import Polynomial
from rigidity_forge.scalars import (
    QQ,
    BadGeneratorIndex,
    FunElem,
    NonPositiveRadicand,
    TowerElem,
    adjoin_sqrt,
    common_tower,
    fun_pack,
    sqrt_in_tower,
    tower_conjugate,
)
from rigidity_forge.real import cmp_with_sqrt, least_int_above_sqrt, simplest_rational_between_sqrts
from rigidity_forge.real import _basis_bounds, _enclose
from rigidity_forge.scalars import _basis_products, _BasisProducts, _fmul, _fone, _fpoly, _imul, _imul_halves, _imul_sparse, _isq, _isq_halves

from conftest import DERANDOMIZED, table_kind, tables_built
from harness import (
    FRACTIONAL_TOWERS,
    INTEGER_TOWERS,
    OracleFun,
    basis_form,
    canon,
    circle_towers,
    formula_everywhere,
    fraction_rads,
    halving_recursion,
    negative_controls,
    oracle_bounds,
    oracle_hash,
    oracle_sign,
    pgcd,
    pmul,
    recursive_imul,
    recursive_isq,
    soundness_pass,
    sparse_rationals,
    takes_sparse_mul,
    takes_sparse_sq,
    tower_chain,
    tower_elem,
    vadd,
    vec_sqrt,
    vinv,
    vmul,
    vneg,
    vzero,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
nonzero_rationals = rationals.filter(lambda q: q != 0)


@pytest.fixture(scope="module")
def sqrt2():
    return adjoin_sqrt(QQ, 2)


@pytest.fixture(scope="module")
def sqrt23():
    t2 = adjoin_sqrt(QQ, 2)
    t23 = adjoin_sqrt(t2.tower, 3)
    return t23


# -- rationals: exact field ops are the stdlib Fraction --------------------------


def test_rational_examples():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert 1 / Fraction(-2, 5) == Fraction(-5, 2)
    assert Fraction(16, 5) > 3


def test_rational_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)


# -- tower construction ------------------------------------------------------------


def test_adjoin_basic(sqrt2):
    assert sqrt2.tower.depth == 1
    assert not sqrt2.absorbed
    assert sqrt2.root * sqrt2.root == 2


def test_adjoin_is_idempotent(sqrt2):
    again = adjoin_sqrt(sqrt2.tower, 2)
    assert again.absorbed
    assert again.tower == sqrt2.tower
    assert again.root == sqrt2.root


def test_adjoin_absorbs_square_multiples(sqrt2):
    res = adjoin_sqrt(sqrt2.tower, 8)
    assert res.absorbed
    assert res.root == 2 * sqrt2.root


def test_adjoin_rejects_nonpositive():
    with pytest.raises(NonPositiveRadicand):
        adjoin_sqrt(QQ, -1)
    with pytest.raises(NonPositiveRadicand):
        adjoin_sqrt(QQ, 0)


def test_nested_radical():
    t2 = adjoin_sqrt(QQ, 2)
    inner = t2.tower.one() + t2.root
    nested = adjoin_sqrt(t2.tower, inner)
    assert not nested.absorbed
    assert nested.root * nested.root == inner.lift(nested.tower)


def test_sqrt_in_tower_detects_squares(sqrt23):
    tower = sqrt23.tower
    x = tower.rational(6)
    root = sqrt_in_tower(x)
    assert root is not None and root * root == 6
    assert sqrt_in_tower(tower.rational(7)) is None


# -- tower arithmetic -----------------------------------------------------------------


def test_difference_of_squares(sqrt2):
    s2 = sqrt2.root
    assert (1 + s2) * (1 - s2) == -1


def test_sign_examples(sqrt2):
    s2 = sqrt2.root
    assert (s2 - Fraction(3, 2)).sign() == -1
    assert (s2 * s2 - 2).is_zero()
    assert s2.sign() == 1


def test_division(sqrt23):
    tower = sqrt23.tower
    x = tower.one() + tower.generator(0) + tower.generator(1)
    assert x / x == 1
    with pytest.raises(ZeroDivisionError):
        tower.zero().inverse()


def test_ordering_agrees_with_rationals(sqrt2):
    tower = sqrt2.tower
    assert tower.rational(Fraction(16, 5)) > tower.rational(3)
    assert tower.rational(Fraction(-1, 2)) < tower.rational(0)


def test_cross_tower_arithmetic():
    s2 = adjoin_sqrt(QQ, 2).root
    s3 = adjoin_sqrt(QQ, 3).root
    product = s2 * s3
    assert product * product == 6
    merged = adjoin_sqrt(product.tower, 6)
    assert merged.absorbed and merged.root == product


@settings(max_examples=60)
@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_field_axioms_on_tower_samples(a0, a1, b0, b1, c0, c1):
    tower = adjoin_sqrt(QQ, 2).tower
    s2 = tower.generator(0)
    x = tower.rational(a0) + s2 * a1
    y = tower.rational(b0) + s2 * b1
    z = tower.rational(c0) + s2 * c1
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == tower.zero()
    assert (x + (-x)).coords == tower.zero().coords  # canonical zero
    if not x.is_zero():
        assert x * x.inverse() == 1


@settings(max_examples=40)
@given(rationals, rationals, rationals, rationals)
def test_order_total_and_transitive_on_samples(a0, a1, b0, b1):
    tower = adjoin_sqrt(QQ, 3).tower
    s3 = tower.generator(0)
    x = tower.rational(a0) + s3 * a1
    y = tower.rational(b0) + s3 * b1
    assert (x < y) or (x == y) or (x > y)
    if x < y:
        assert not y < x


def test_generator_squares_to_radicand():
    t2 = adjoin_sqrt(QQ, 2)
    nested = adjoin_sqrt(t2.tower, t2.tower.one() + t2.root)
    for tower in (t2.tower, nested.tower):
        for i, gen in enumerate(tower.gens):
            g = tower.generator(i)
            assert g * g == gen.lift(tower)


# -- conjugation -------------------------------------------------------------------------


def test_conjugate_examples():
    t3 = adjoin_sqrt(QQ, 3)
    x = t3.tower.one() + t3.root
    assert tower_conjugate(x, 0) == t3.tower.one() - t3.root


@settings(max_examples=50)
@given(rationals, rationals, rationals, rationals)
def test_conjugate_is_an_involutive_automorphism(a0, a1, b0, b1):
    tower = adjoin_sqrt(QQ, 2).tower
    s2 = tower.generator(0)
    x = tower.rational(a0) + s2 * a1
    y = tower.rational(b0) + s2 * b1
    assert tower_conjugate(tower_conjugate(x, 0), 0) == x
    assert tower_conjugate(x * y, 0) == tower_conjugate(x, 0) * tower_conjugate(y, 0)
    assert tower_conjugate(x + y, 0) == tower_conjugate(x, 0) + tower_conjugate(y, 0)


def test_conjugate_fixes_other_generators(sqrt23):
    tower = sqrt23.tower
    s2 = tower.generator(0)
    s3 = tower.generator(1)
    assert tower_conjugate(s2, 1) == s2
    assert tower_conjugate(s3, 0) == s3
    assert tower_conjugate(tower.rational(Fraction(7, 3)), 0) == Fraction(7, 3)


def test_conjugate_bad_index(sqrt2):
    with pytest.raises(BadGeneratorIndex):
        tower_conjugate(sqrt2.root, 5)


def test_conjugate_refuses_dependent_generator():
    t2 = adjoin_sqrt(QQ, 2)
    nested = adjoin_sqrt(t2.tower, t2.tower.one() + t2.root)
    x = nested.root + nested.tower.generator(0)
    with pytest.raises(BadGeneratorIndex):
        tower_conjugate(x, 0)


# -- function field ------------------------------------------------------------------------


def test_pythagorean_identity_in_function_field():
    eps = FunElem.eps()
    one = FunElem.constant(1)
    a = (one - eps * eps) / (one + eps * eps)
    b = (2 * eps) / (one + eps * eps)
    assert a * a + b * b == 1


def test_function_field_inverse_and_zero():
    eps = FunElem.eps()
    assert eps.inverse() * eps == 1
    assert ((1 + eps) * (1 - eps) - (1 - eps * eps)).is_zero()
    with pytest.raises(ZeroDivisionError):
        FunElem.constant(0).inverse()


def test_function_field_reduction_is_canonical():
    eps = FunElem.eps()
    one = FunElem.constant(1)
    assert (one - eps * eps) / (one + eps) == one - eps
    x = (3 * eps + 3) / (eps + 1)
    assert x == 3


def test_function_field_with_tower_coefficients():
    s2 = adjoin_sqrt(QQ, 2).root
    eps = FunElem.eps()
    x = FunElem.constant(s2) + eps
    assert x * x == FunElem.constant(2) + 2 * FunElem.constant(s2) * eps + eps * eps


@settings(max_examples=30)
@given(rationals, rationals, rationals, rationals)
def test_function_field_axioms(a0, a1, b0, b1):
    eps = FunElem.eps()
    x = FunElem.constant(a0) + eps * a1
    y = FunElem.constant(b0) + eps * b1
    assert x + y == y + x
    assert x * y == y * x
    assert (x + (-x)).is_zero()
    if not y.is_zero():
        assert (x / y) * y == x


def test_function_field_across_unrelated_towers():
    s2 = adjoin_sqrt(QQ, 2).root
    s3 = adjoin_sqrt(QQ, 3).root
    a, b = FunElem.constant(s2), FunElem.constant(s3)
    total = a + b
    assert str(total) == "r0 + r1"
    assert total == FunElem.constant(s2 + s3)
    assert hash(total) == hash(FunElem.constant(s2 + s3))
    assert not a == b
    assert a * b == FunElem.constant(s2 * s3)
    eps = FunElem.eps()
    assert (a + eps) * (b - eps) - a * b == (b - a) * eps - eps * eps


def test_fun_elem_takes_rational_coefficients(sqrt2):
    one = FunElem(QQ, [1], [1])
    assert one == FunElem.constant(1) and hash(one) == hash(FunElem.constant(1)) == hash(1)
    assert (one._n, one._d) == (FunElem.constant(1)._n, FunElem.constant(1)._d)
    tower, s2 = sqrt2.tower, sqrt2.root
    eps = FunElem.eps(tower)
    x = FunElem(tower, [Fraction(1, 2), s2, 0], [3, Fraction(0)])
    assert x == (FunElem.constant(Fraction(1, 2), tower) + eps * s2) / 3
    assert x.tower is tower and hash(x) == hash((FunElem.constant(Fraction(1, 2), tower) + eps * s2) / 3)
    with pytest.raises(ZeroDivisionError):
        FunElem(QQ, [1], [0, Fraction(0)])


small_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_polys = st.lists(small_coeffs, min_size=1, max_size=4)


def _fun(num, den):
    if not any(den):
        den = [1]
    return FunElem(QQ, [QQ.rational(c) for c in num], [QQ.rational(c) for c in den])


@settings(max_examples=80)
@given(small_polys, small_polys, small_polys, small_polys, small_polys, st.booleans())
def test_lazy_function_field_agrees_with_reduced_form(an, ad, bn, bd, factor, related):
    a = _fun(an, ad)
    c = _fun(factor, [1])
    # a times c/c carries the common factor c in numerator and denominator
    b = a * c / c if related and not c.is_zero() else _fun(bn, bd)
    assert (a == b) == ((a.num, a.den) == (b.num, b.den))
    if related and not c.is_zero():
        assert a == b
    if a == b:
        assert hash(a) == hash(b)
    for x in (a, b):
        assert x.den[-1] == 1
        assert pgcd(x.num, x.den, QQ) == (QQ.one(),) if x.num else x.den == (QQ.one(),)
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a * b) / b == a


# -- comparison helpers -----------------------------------------------------------------------


def test_cmp_with_sqrt():
    assert cmp_with_sqrt(Fraction(2), QQ.rational(2)) == 1
    assert cmp_with_sqrt(Fraction(1), QQ.rational(2)) == -1
    assert cmp_with_sqrt(Fraction(3, 2), QQ.rational(Fraction(9, 4))) == 0


def test_least_int_above_sqrt():
    assert least_int_above_sqrt(QQ.rational(2), strict=True) == 2
    assert least_int_above_sqrt(QQ.rational(4), strict=True) == 3
    assert least_int_above_sqrt(QQ.rational(4), strict=False) == 2
    assert least_int_above_sqrt(QQ.rational(Fraction(1, 4)), strict=True) == 1


def linear_least_int(square, strict) -> int:
    """Reference: the smallest positive integer above sqrt(square), one step at a time."""
    n = 1
    while True:
        c = cmp_with_sqrt(Fraction(n), square)
        if c > 0 or (c == 0 and not strict):
            return n
        n += 1


@settings(max_examples=150)
@given(
    st.fractions(min_value=0, max_value=400, max_denominator=60),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
    st.fractions(min_value=0, max_value=3, max_denominator=7),
    st.booleans(),
)
@example(Fraction(0), Fraction(0), Fraction(0), True)
@example(Fraction(0), Fraction(0), Fraction(0), False)
@example(Fraction(16), Fraction(0), Fraction(0), True)
@example(Fraction(16), Fraction(0), Fraction(0), False)
@example(Fraction(9, 4), Fraction(0), Fraction(0), False)
@example(Fraction(3), Fraction(2), Fraction(0), False)  # (1 + sqrt 2)^2, irrational root
@example(Fraction(5), Fraction(0), Fraction(1), True)  # (sqrt 2 + sqrt 3)^2
def test_least_int_above_sqrt_matches_the_linear_walk(sqrt2, sqrt23, x, s2, s6, strict):
    # x, x + s2*sqrt(2) and x + 2*s6*sqrt(6) over Q(sqrt 2, sqrt 3): all >= 0
    depth2 = sqrt2.root * sqrt23.root * (2 * s6)
    squares = [QQ.rational(x), sqrt2.tower.rational(x) + sqrt2.root * s2, depth2.tower.rational(x) + depth2]
    for square in squares:
        assert least_int_above_sqrt(square, strict) == linear_least_int(square, strict)


def test_least_int_above_sqrt_is_logarithmic(monkeypatch):
    calls = []
    original = real.cmp_with_sqrt

    def counting(m, square):
        calls.append(m)
        return original(m, square)

    monkeypatch.setattr(real, "cmp_with_sqrt", counting)
    # |x|^2 = 10^18: the one-step walk makes 10^9 + 1 calls
    for strict, answer in ((False, 10**9), (True, 10**9 + 1)):
        calls.clear()
        assert least_int_above_sqrt(QQ.rational(10**18), strict) == answer
        assert len(calls) <= 64


def test_simplest_rational_between_sqrts():
    # simplest rational in (1, 9/5) is 3/2
    assert simplest_rational_between_sqrts(QQ.rational(1), QQ.rational(Fraction(81, 25))) == Fraction(3, 2)
    # simplest rational in (1, 3) is 2
    assert simplest_rational_between_sqrts(QQ.rational(1), QQ.rational(9)) == 2


def linear_mediant_walk(lo_sq, hi_sq) -> Fraction:
    """Reference: the Stern-Brocot walk taking one mediant step at a time."""
    a, b, c, d = 0, 1, 1, 0
    while True:
        m = Fraction(a + c, b + d)
        if cmp_with_sqrt(m, lo_sq) <= 0:
            a, b = m.numerator, m.denominator
        elif cmp_with_sqrt(m, hi_sq) >= 0:
            c, d = m.numerator, m.denominator
        else:
            return m


squares = st.fractions(min_value=0, max_value=400, max_denominator=60)


@settings(max_examples=150)
@given(squares, squares, st.fractions(min_value=0, max_value=3, max_denominator=7))
@example(Fraction(1), Fraction(81, 25), Fraction(0))
@example(Fraction(0), Fraction(1, 3600), Fraction(0))
@example(Fraction(399), Fraction(400), Fraction(0))
@example(Fraction(2), Fraction(3), Fraction(1, 7))
def test_batched_mediant_search_matches_the_linear_walk(sqrt2, x, y, shift):
    # both ends moved by shift*sqrt(2) >= 0, so irrational whenever shift != 0
    lo_sq = sqrt2.tower.rational(min(x, y)) + sqrt2.root * shift
    hi_sq = sqrt2.tower.rational(max(x, y)) + sqrt2.root * shift
    if x == y:
        with pytest.raises(ValueError):
            simplest_rational_between_sqrts(lo_sq, hi_sq)
        return
    assert simplest_rational_between_sqrts(lo_sq, hi_sq) == linear_mediant_walk(lo_sq, hi_sq)


def test_mediant_search_is_logarithmic(monkeypatch):

    calls = []
    original = real.cmp_with_sqrt

    def counting(m, square):
        calls.append(m)
        return original(m, square)

    monkeypatch.setattr(real, "cmp_with_sqrt", counting)
    monkeypatch.setattr(gadgets, "cmp_with_sqrt", counting)
    n = 10**9
    # |AB| = n: a run of n steps up from 0; the linear walk makes n + 2 calls
    gadget = gadgets.build_division(rational_point(0, 0), rational_point(n, 0), Fraction(1, 3))
    assert gadget.layout["r"] == n + 1
    assert len(calls) <= 64
    # |AB| = 1/n: a run of about n/3 steps down from infinity
    calls.clear()
    gadget = gadgets.build_division(rational_point(0, 0), rational_point(Fraction(1, n), 0), Fraction(1, 3))
    assert gadget.layout["r"] == Fraction(1, n // 3 + 1)
    assert len(calls) <= 64


def test_common_tower_lifts_values():
    s2 = adjoin_sqrt(QQ, 2).root
    q = QQ.rational(Fraction(1, 2))
    a, b = common_tower(q, s2)
    assert a.tower == b.tower
    assert a == Fraction(1, 2)


def _positive_sqrt(tower, n):
    root = sqrt_in_tower(tower.rational(n))
    return root if root.sign() > 0 else -root


@given(rationals, rationals, rationals, rationals)
@example(Fraction(0), Fraction(1), Fraction(0), Fraction(0))  # sqrt(2) over Q(sqrt 2, sqrt 3) and Q(sqrt 3, sqrt 2)
def test_equal_values_hash_equal_across_merged_towers(a0, a1, a2, a3):
    values = []
    for first, second in ((2, 3), (3, 2), (6, 2)):
        tower = adjoin_sqrt(adjoin_sqrt(QQ, first).tower, second).tower
        s2, s3 = _positive_sqrt(tower, 2), _positive_sqrt(tower, 3)
        values.append(a0 + a1 * s2 + a2 * s3 + a3 * s2 * s3)
    merged, _ = common_tower(values[0], values[2])
    for x in values + [merged, FunElem.constant(values[0])]:
        assert x == values[0]
        assert hash(x) == hash(values[0])
    assert len(set(values + [merged])) == 1


@given(rationals)
def test_rational_values_hash_like_fractions_and_ints(q):
    towers = (QQ, adjoin_sqrt(QQ, 2).tower, adjoin_sqrt(adjoin_sqrt(QQ, 2).tower, 3).tower)
    for tower in towers:
        for x in (tower.rational(q), FunElem.constant(q, tower)):
            assert x == q and hash(x) == hash(q)
            if q.denominator == 1:
                assert x == int(q) and hash(x) == hash(int(q))


def test_scalar_text_rendering(sqrt2):
    assert str(sqrt2.root) == "r0"
    assert str(sqrt2.tower.rational(0)) == "0"
    assert str(1 + sqrt2.root) == "1 + r0"


DIFF_TOWERS = [(depth, family[depth]) for depth in range(5) for family in (FRACTIONAL_TOWERS, INTEGER_TOWERS)]

@st.composite
def tower_pairs(draw):
    depth, tower = draw(st.sampled_from(DIFF_TOWERS))
    x, y = (
        TowerElem(tower, draw(st.lists(sparse_rationals, min_size=tower.dim, max_size=tower.dim)))
        for _ in range(2)
    )
    return tower, x, y


def _assert_canonical(x: TowerElem) -> None:
    n, d = x._n, x._d
    assert len(n) == x.tower.dim and d > 0 and gcd(d, *n) == 1
    assert TowerElem(x.tower, x.coords)._n == n and TowerElem(x.tower, x.coords)._d == d


@settings(max_examples=150)
@given(tower_pairs())
@example((FRACTIONAL_TOWERS[2], FRACTIONAL_TOWERS[2].generator(1), FRACTIONAL_TOWERS[2].generator(1)))
def test_integer_tower_kernels_match_the_fraction_oracle(case):
    tower, x, y = case
    rads = fraction_rads(tower)
    a, b = x.coords, y.coords
    for value in (x, y, x + y, x * y, -x):
        _assert_canonical(value)
    assert (x + y).coords == vadd(a, b)
    assert (x - y).coords == vadd(a, vneg(b))
    assert (x * y).coords == vmul(rads, a, b)
    assert (x == y) == (a == b)
    assert x == TowerElem(tower, a) and hash(x) == hash(a[0])
    assert hash(x * y) == hash(vmul(rads, a, b)[0])
    assert x.sign() == oracle_sign(tower, a)
    lows, highs, den = _basis_bounds(tower._rads, 8)
    lo, hi = _enclose(x._n, lows, highs)
    assert (Fraction(lo, den * x._d), Fraction(hi, den * x._d)) == oracle_bounds(tower, a, 8)
    if not x.is_zero():
        inverse = x.inverse()
        _assert_canonical(inverse)
        assert inverse.coords == vinv(rads, a)
    for value in (x, x * x):
        root = sqrt_in_tower(value)
        expected = vec_sqrt(rads, value.coords)
        assert (None if root is None else root.coords) == expected
    assert sqrt_in_tower(x * x) is not None
    for index in range(tower.depth):
        try:
            flipped = tower_conjugate(x, index)
        except BadGeneratorIndex:
            assert any(mask >> index & 1 and c != 0 for g in tower.gens[index + 1 :] for mask, c in enumerate(g.coords))
            continue
        assert flipped.coords == tuple(-c if mask >> index & 1 else c for mask, c in enumerate(a))
    minimized = x.minimized()
    assert minimized.coords == a[: minimized.tower.dim] and not any(a[minimized.tower.dim :])
    assert minimized.tower.dim == 1 or any(minimized.coords[minimized.tower.dim // 2 :])
    for bigger in FRACTIONAL_TOWERS + INTEGER_TOWERS:
        if tower.is_prefix_of(bigger):
            assert x.lift(bigger).coords == a + vzero(bigger.dim - tower.dim)
            assert x.lift(bigger) == x and hash(x.lift(bigger)) == hash(x)


KERNEL_TOWERS = [tower for _, tower in DIFF_TOWERS] + circle_towers()


@st.composite
def tower_quads(draw):
    tower = draw(st.sampled_from(KERNEL_TOWERS))
    coords = st.lists(sparse_rationals, min_size=tower.dim, max_size=tower.dim)
    return tower, [TowerElem(tower, draw(coords)) for _ in range(4)]


@settings(DERANDOMIZED, max_examples=150)
@given(tower_quads())
def test_sqdist_kernel_matches_the_generic_formula(case):
    """A kernel table's squared distance is the formula's, and so are its
    verdicts against rationals on the integer form (``sqdist_is_form``) and
    against the irrational value (``sqdist_is``)."""
    tower, (px, py, qx, qy) = case
    rads = tower._rads
    dx, dy = px - qx, py - qy
    formula = dx * dx + dy * dy
    _assert_canonical(formula)
    points = {"P": Point(px, py), "Q": Point(qx, qy)}
    table = cm._KernelTable(points, tower)
    assert canon(*table.sqdist_num("P", "Q")) == (formula._n, formula._d)
    assert formula.coords == vadd(vmul(fraction_rads(tower), dx.coords, dx.coords), vmul(fraction_rads(tower), dy.coords, dy.coords))
    # against a rational: the value's first coordinate, and it moved by one; the base table, by the formula
    first = formula.coords[0]
    for value, holds in ((first, formula.is_rational()), (first + 1, False)):
        assert table.sqdist_is_form("P", "Q", value.numerator, value.denominator) is holds
        assert cm.PointTable(points).sqdist_is_form("P", "Q", value.numerator, value.denominator) is holds
    # against the value itself, and the value moved by one
    for value, holds in ((formula, True), (formula + 1, False)):
        assert table.sqdist_is("P", "Q", value) is holds
    for x in (px, dx, dx + py * qy):
        assert canon(*_isq(rads, x._n)) == canon(*_imul(rads, x._n, x._n))


sparse_ints = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-(10**40), 10**40))


@st.composite
def integer_vector_pairs(draw):
    """Two raw integer vectors over a tower of depth 1-4; radicands with a
    denominator come from the fractional family and the circle towers.  A
    zero-heavy vector keeps at most four coordinates, so products and
    squares at dimensions 8 and 16 reach both sides of the density rule."""
    tower = draw(st.sampled_from([t for t in KERNEL_TOWERS if t.depth >= 1]))

    def vector():
        v = draw(st.lists(sparse_ints, min_size=tower.dim, max_size=tower.dim))
        if draw(st.booleans()):
            kept = draw(st.sets(st.integers(0, tower.dim - 1), max_size=4))
            v = [c if i in kept else 0 for i, c in enumerate(v)]
        return tuple(v)

    return tower, vector(), vector()


def _unit_sum(n, *terms):
    """The integer vector of length n with the given (coordinate, value) terms."""
    v = [0] * n
    for i, c in terms:
        v[i] = c
    return tuple(v)


@settings(DERANDOMIZED, max_examples=300)
@given(integer_vector_pairs())
@example((FRACTIONAL_TOWERS[1], (0, 3), (5, 0)))
@example((FRACTIONAL_TOWERS[1], (2, 3), (5, -7)))
@example((FRACTIONAL_TOWERS[2], (1, 0, 0, 4), (0, 2, 6, 0)))
@example((FRACTIONAL_TOWERS[3], _unit_sum(8, (3, 2), (6, -5)), _unit_sum(8, (5, 7), (7, 1), (1, 3), (2, -4))))
@example((FRACTIONAL_TOWERS[4], _unit_sum(16, (3, 2), (6, -5), (15, 9), (9, 1)), _unit_sum(16, (5, 7), (7, 1), (12, 3), (14, -4))))
@example((INTEGER_TOWERS[4], _unit_sum(16, (3, 2), (6, -5), (15, 9), (9, 1), (0, 3)), _unit_sum(16, (5, 7), (7, 1), (12, 3), (14, -4))))
@example((circle_towers()[1], _unit_sum(8, (7, 10**40), (3, -1)), _unit_sum(8, (7, 2), (6, 3), (5, -1), (4, 4))))
def test_dimension_2_base_case_matches_the_recursive_kernels(case):
    """The halving recursion keeps the exact (vector, k) of the recursion
    run down to dimension 1 on every operand.  ``_imul`` and ``_isq``
    return it wherever the density rule keeps the recursion; where the rule
    takes the sparse path they return the same value, exactly in the form
    over the basis products' common denominator (``basis_form``)."""
    tower, a, b = case
    rads = tower._rads
    for x, y in ((a, b), (b, a), (a, a), (a[:2], b[:2])):
        assert _imul_halves(rads, x, y) == recursive_imul(rads, x, y)
        assert _isq_halves(rads, x) == recursive_isq(rads, x)
        for got, oracle, sparse, pair in (
            (_imul(rads, x, y), recursive_imul(rads, x, y), takes_sparse_mul(x, y), (x, y)),
            (_isq(rads, x), recursive_isq(rads, x), takes_sparse_sq(x), (x, x)),
        ):
            if sparse:
                assert canon(*got) == canon(*oracle) and got == basis_form(rads, *pair)
            else:
                assert got == oracle


# a depth-8 tower (``codec.MAX_TOWER_DEPTH``) of rational, fractional and
# irrational radicands.  Its depth-3 prefix, Q(sqrt(1/2), sqrt(3 + r0),
# sqrt(r0*r1)), has basis products over 4 (e_7^2 = 3/2 r0*r1 + r1/4), so
# the common denominator must square D_2 = 2 at an irrational radicand.
DEPTH_8 = tower_chain(
    Fraction(1, 2),
    lambda t: t.rational(3) + t.generator(0),
    lambda t: t.generator(0) * t.generator(1),
    5,
    Fraction(7, 3),
    lambda t: t.rational(Fraction(1, 3)) + t.generator(1),
    11,
    Fraction(13, 5),
)[-1]


def test_basis_products_are_the_recursions_products():
    """Every basis product e_i*e_j that the sparse kernel reads, over the
    common denominator, is the halving recursion's product, on every kernel
    tower and on the prefixes of ``DEPTH_8`` up to depth 5."""
    for tower in KERNEL_TOWERS + [DEPTH_8.prefix(depth) for depth in range(6)]:
        n = tower.dim
        units = [tuple(int(i == u) for u in range(n)) for i in range(n)]
        for i, a in enumerate(units):
            for j, b in enumerate(units):
                assert canon(*_imul_sparse(_basis_products(tower._rads, n), [(i, 1)], [(j, 1)])) == canon(*_imul_halves(tower._rads, a, b))


@st.composite
def density_cases(draw):
    """A tower of ``KERNEL_TOWERS`` or ``DEPTH_8``, and three elements: x and
    y for a product and s for a square.  They are dense, or zero-heavy with
    x's count drawn and y's and s's on the density rule's edge (n // nnz(x)
    and isqrt(2n)) or one past it.  Depth-8 operands are zero-heavy: a dense
    one takes the recursion (``test_depth_8_kernels_fill_only_the_pairs_they_read``),
    and its inverse alone takes about 0.3 s.  Supports and coefficients
    come from a drawn seed, as 256 draws per depth-8 operand cost seconds."""
    tower = draw(st.sampled_from(KERNEL_TOWERS + [DEPTH_8]))
    n = tower.dim
    rng = random.Random(draw(st.integers(0, 2**32)))

    def element(nnz):
        support = rng.sample(range(n), min(nnz, n))
        coords = [Fraction(0)] * n
        for i in support:
            coords[i] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))
        return TowerElem(tower, coords)

    if tower is not DEPTH_8 and draw(st.booleans()):
        return tower, element(n), element(n), element(n)
    past = draw(st.integers(0, 1))
    kx = draw(st.integers(1, min(n, 8)))
    return tower, element(kx), element(n // kx + past), element(isqrt(2 * n) + past)


@settings(DERANDOMIZED, max_examples=120)
@given(density_cases())
def test_sparse_kernels_match_the_recursion(case):
    """``_imul``, ``_isq``, ``_inv`` and ``TowerElem`` ``*`` give the values
    that the halving recursion gives, on dense and zero-heavy operands on
    both sides of the density rule."""
    tower, x, y, s = case
    rads = tower._rads

    def values():
        return (
            canon(*scalars._imul(rads, x._n, y._n)),
            canon(*scalars._isq(rads, s._n)),
            scalars._inv(rads, x._n, x._d),
            x * y,
            s * s,
        )

    fast = values()
    with halving_recursion():
        assert values() == fast


def test_depth_8_kernels_fill_only_the_pairs_they_read(monkeypatch):
    """Bounded cost at depth 8, by counters and with no clock: dense
    operands take the recursion and fill no basis product; a product or
    square at the density rule's edge takes the sparse path and fills
    exactly the unordered pairs of nonzero coordinates it reads that were
    not filled before, at most nnz(a)*nnz(b); one nonzero coordinate past
    the edge takes the recursion.  Run on its own, the tower's basis
    products start empty and every pair read is a fill."""
    rads, n = DEPTH_8._rads, DEPTH_8.dim
    basis = _basis_products(rads, n)
    sparse, fills = [], []
    for name in ("_imul_sparse", "_isq_sparse"):
        real = getattr(scalars, name)
        monkeypatch.setattr(scalars, name, lambda *args, name=name, real=real: sparse.append(name) or real(*args))
    real_fill = _BasisProducts.fill
    monkeypatch.setattr(_BasisProducts, "fill", lambda self, i, j: fills.append(self) or real_fill(self, i, j))
    rng = random.Random(8)

    def vector(nnz, support=None):
        v = [0] * n
        for i in support or rng.sample(range(n), nnz):
            v[i] = rng.choice([-3, -2, -1, 1, 2, 3])
        return tuple(v)

    def read(a, b):
        """The keys of the unordered pairs of nonzero coordinates of a and b."""
        nz = lambda v: [i for i, c in enumerate(v) if c]
        return {min(i, j) * n + max(i, j) for i in nz(a) for j in nz(b)}

    dense, filled = vector(n), len(basis.rows)
    _imul(rads, dense, dense[::-1])
    _isq(rads, dense)
    assert sparse == [] and fills == [] and len(basis.rows) == filled
    fresh, everything = not basis.rows, set()
    a16 = vector(16)
    # b shares a's support, so the product reads each unordered pair in both orders
    b16 = vector(16, [i for i, c in enumerate(a16) if c])
    for a, b, kernel in ((a16, b16, "_imul_sparse"), (vector(22), None, "_isq_sparse")):
        pairs = read(a, a if b is None else b)
        new = pairs - basis.rows.keys()
        everything |= pairs
        if b is None:
            _isq(rads, a)
            assert len(pairs) <= 22 * 23 // 2
        else:
            _imul(rads, a, b)
            assert len(pairs) <= 16 * 16
        assert sparse.pop() == kernel and len(basis.rows) - filled == len(new) == len(fills)
        fills.clear()
        filled = len(basis.rows)
        # one nonzero coordinate past the edge: 17 * 16 > 256 and 23^2 > 512
        extra = list(a)
        extra[extra.index(0)] = 1
        _imul(rads, tuple(extra), b) if b is not None else _isq(rads, tuple(extra))
        assert sparse == [] and fills == [] and len(basis.rows) == filled
    assert not fresh or basis.rows.keys() == everything


HASH_MODULUS = sys.hash_info.modulus


@st.composite
def hash_cases(draw):
    """A canonical element of Q(sqrt 2)(sqrt 3) whose rational coordinate has
    any sign, up to 4,000 digits, and any denominator, the hash modulus and
    its multiples among them."""
    big = st.integers(-(10**4000), 10**4000)
    n0 = draw(st.one_of(st.integers(-(10**6), 10**6), big))
    d = draw(
        st.one_of(
            st.integers(1, 10**6),
            st.integers(1, 10**4000),
            st.sampled_from([HASH_MODULUS, 2 * HASH_MODULUS, 3 * HASH_MODULUS, HASH_MODULUS**2]),
        )
    )
    rest = tuple(draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3)))
    tower = INTEGER_TOWERS[2]
    return tower_elem(tower, (n0,) + rest, d)


@settings(DERANDOMIZED, max_examples=300)
@given(hash_cases())
@example(tower_elem(INTEGER_TOWERS[2], (1, 0, 0, 0), HASH_MODULUS))
@example(tower_elem(INTEGER_TOWERS[2], (-1, 0, 0, 1), 2 * HASH_MODULUS))
@example(tower_elem(INTEGER_TOWERS[2], (HASH_MODULUS, 0, 1, 0), 2 * HASH_MODULUS))
@example(tower_elem(INTEGER_TOWERS[2], (-(HASH_MODULUS + 3), 0, 0, 0), 3))  # hash -1, taken as -2
@example(tower_elem(INTEGER_TOWERS[2], (-(10**3999), 0, 0, 1), 3 * 10**3999 + 1))
def test_tower_hash_is_the_fraction_hash(x):
    expected = hash(Fraction(x._n[0], x._d))
    assert hash(x) == expected
    # equal values hash equal across towers, and a rational value like its Fraction
    bigger = adjoin_sqrt(x.tower, 5).tower
    rational = x.tower.rational(Fraction(x._n[0], x._d))
    for y in (x.lift(bigger), x.minimized(), rational, rational.minimized(), FunElem.constant(rational)):
        assert hash(y) == expected


def test_sign_bounds_are_kept_for_the_last_towers_only():
    """``sign``'s basis bounds are kept for the last 32 (tower, precision)
    pairs, as the basis products are: decoding 40 distinct fields
    Q(sqrt k, sqrt(3 + sqrt k)), each of which sign-tests 3 + sqrt k, leaves
    at most 32 entries.  Keyed by tower value without a bound, the cache
    kept every field a process ever decoded."""
    misses = _basis_bounds.cache_info().misses
    # 3 + sqrt k = (a + b sqrt k)^2 needs 4a^4 - 12a^2 + k = 0, so no k > 9
    for k in [k for k in range(10, 60) if isqrt(k) ** 2 != k][:40]:
        codec.decode_tower({"gens": [[str(k)], ["3", "1"]]})
    assert _basis_bounds.cache_info().misses - misses >= 40
    assert _basis_bounds.cache_info().currsize <= 32


def test_tower_add_mul_eq_construct_no_fraction(monkeypatch):
    operands = [
        (tower.rational(Fraction(-3, 4)) + tower.generator(depth - 1) * Fraction(5, 6) if depth else tower.rational(Fraction(2, 9)))
        for family in (FRACTIONAL_TOWERS, INTEGER_TOWERS)
        for depth, tower in enumerate(family)
    ]
    dense = [x * x + x * Fraction(1, 7) + 3 for x in operands]
    created = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for x, y in zip(operands, dense):
        x + y, x - y, x * y, y * y, x == y, x == x + 0, 2 * x, x + 1, x == 1
    assert created == []
    Fraction(1, 3) + Fraction(1, 6)  # the counter does see Fractions
    assert created


def _assert_fun_canonical(x: FunElem) -> None:
    for rows, k in (x._n, x._d):
        assert k > 0 and all(len(r) == x.tower.dim for r in rows)
        assert (gcd(k, *(c for r in rows for c in r)) == 1 and any(rows[-1])) if rows else k == 1


# towers of depth 0-3 from both families; FRACTIONAL_TOWERS[1] is Q(sqrt(1/2)),
# so a product over it carries a radicand denominator k > 1
FUN_TOWERS = [family[depth] for depth in range(4) for family in (FRACTIONAL_TOWERS, INTEGER_TOWERS)]
# each tower's partners: its prefixes (lifted by padding) and, at depth <= 1,
# the other family's towers (merged; sqrt 2 = 2 sqrt(1/2) is absorbed)
FUN_PARTNERS = {
    tower: [t for t in FUN_TOWERS if t.is_prefix_of(tower) or tower.depth <= 1 and t.depth <= 1]
    for tower in FUN_TOWERS
}


@st.composite
def fun_pairs(draw):
    out = []
    tower = draw(st.sampled_from(FUN_TOWERS))
    for t in (tower, draw(st.sampled_from(FUN_PARTNERS[tower]))):
        coeffs = st.lists(sparse_rationals, min_size=t.dim, max_size=t.dim).map(lambda cs, t=t: TowerElem(t, cs))
        num = draw(st.lists(coeffs, max_size=3))
        den = draw(st.lists(coeffs, min_size=1, max_size=3).filter(lambda p: not all(c.is_zero() for c in p)))
        out.append((FunElem(t, num, den), OracleFun(t, num, den)))
    return out


def _fun_case(tower, num, den):
    num, den = ([c if isinstance(c, TowerElem) else tower.rational(c) for c in p] for p in (num, den))
    return FunElem(tower, num, den), OracleFun(tower, num, den)


def _shared_factor_case():
    """Two values over a tower with radicand denominators k > 1, each carrying
    a common factor of degree 2 with an irrational leading coefficient."""
    tower = FRACTIONAL_TOWERS[2]
    r0, r1, one = tower.generator(0), tower.generator(1), tower.one()
    c = (tower.rational(Fraction(2, 3)), r0, r1 * Fraction(3, 2) + Fraction(1, 5))
    return [
        _fun_case(tower, pmul(c, (r0, one), tower), pmul(c, (-one, r1), tower)),
        _fun_case(tower, c, pmul(c, pmul(c, (r1, r0 * 2), tower), tower)),
    ]


def _unrelated_towers_case():
    """A pair over Q(sqrt 3) and Q(sqrt(1/2)), each with a common factor."""
    s3, half = adjoin_sqrt(QQ, 3).tower, FRACTIONAL_TOWERS[1]
    r3, r = s3.generator(0), half.generator(0)
    return [
        _fun_case(s3, pmul((r3, s3.one()), (-s3.one(), s3.one()), s3), pmul((-s3.one(), s3.one()), (s3.one(), r3 * 2), s3)),
        _fun_case(half, pmul((half.one(), r), (r, half.rational(3)), half), (r, half.rational(3))),
    ]


@settings(max_examples=100)
@given(fun_pairs())
@example([(FunElem.eps(), OracleFun.eps()), (FunElem.constant(0), OracleFun.constant(0))])
@example(_shared_factor_case())
@example([_fun_case(FRACTIONAL_TOWERS[1], [], [1, FRACTIONAL_TOWERS[1].generator(0), 2]), _fun_case(QQ, [1, 2], [3, 0, 1])])
@example(_unrelated_towers_case())
def test_integer_fun_kernels_match_the_tower_polynomial_oracle(case):
    (a, oa), (b, ob) = case
    for x, ox in case:
        _assert_fun_canonical(x)
        assert (x.num, x.den) == ox.reduced()
    results = [(a + b, oa + ob), (a - b, oa - ob), (b - a, ob - oa), (a * b, oa * ob), (-a, -oa), (a + 1, oa + 1)]
    if not b.is_zero():
        results += [(a / b, oa / ob), ((a * b) / b, (oa * ob) / ob), (1 / b, 1 / ob)]
    for x, ox in results:
        _assert_fun_canonical(x)
        assert x.tower == ox.tower
        reduced = ox.reduced()
        assert (x.num, x.den) == reduced
        assert x.is_zero() == ox.is_zero()
        assert hash(x) == oracle_hash(reduced)
        assert str(x) == str(FunElem(ox.tower, *reduced))
    assert (a == b) == (oa == ob)
    assert (a == a + 0) and (a - a).is_zero()
    if not b.is_zero():
        assert (a * b) / b == a


SMALL_FRACTIONS = [Fraction(n, d) for n in (-7, -2, -1, 1, 3, 5) for d in (1, 2, 3)]


@st.composite
def fun_quads(draw):
    """Four K(eps) values over one tower with one shared denominator; the
    numerators have 0-3 rows, and either difference may be zero.  Each
    coefficient has at most three nonzero coordinates."""
    tower = draw(st.sampled_from(FUN_TOWERS))
    coeffs = st.dictionaries(st.integers(0, tower.dim - 1), st.sampled_from(SMALL_FRACTIONS), max_size=3).map(
        lambda cs: TowerElem(tower, [cs.get(i, 0) for i in range(tower.dim)])
    )
    den = draw(st.lists(coeffs, min_size=1, max_size=3).filter(lambda p: not all(c.is_zero() for c in p)))
    px, py, qx, qy = (FunElem(tower, draw(st.lists(coeffs, max_size=3)), den) for _ in range(4))
    zero = draw(st.sampled_from(["", "", "", "x", "y", "xy"]))
    return tower, px, py, px if "x" in zero else qx, py if "y" in zero else qy


def _eps_images(*points):
    """The eps-rotation images of ``points`` over Q, flattened: coordinates
    over one shared denominator 1 + eps^2."""
    model = models.eps_rotation_model()
    images = [model.apply(cm.rational_point(*xy)) for xy in points]
    return [c for image in images for c in (image.x, image.y)]


@settings(DERANDOMIZED, max_examples=150)
@given(fun_quads())
@example((FUN_TOWERS[2], FunElem.eps(FUN_TOWERS[2]), FunElem.constant(0, FUN_TOWERS[2]), FunElem.constant(1, FUN_TOWERS[2]), FunElem.eps(FUN_TOWERS[2])))
@example((QQ, *_eps_images((0, 0), (3, 4))))  # a nonzero constant distance, 25
def test_fun_sqdist_kernel_matches_the_generic_formula(packed_table, case):
    """The packed squared distance of a K(eps) table is the packed numerator
    of the formula over D^2, and its constant tests are the formula's;
    ``cm.point_table`` gives the same points the formula."""
    tower, px, py, qx, qy = case
    rads = tower._rads
    dx, dy = px - qx, py - qy
    formula = dx * dx + dy * dy
    _assert_fun_canonical(formula)
    points = {"P": Point(px, py), "Q": Point(qx, qy)}
    table = packed_table(points)
    assert table_kind(table) == "packed" and formula._d == _fmul(rads, px._d, px._d)
    assert table_kind(cm.point_table(points)) == "formula"

    def pack(a):
        return fun_pack(a[0], tower.dim, range(0, table.width * max(len(a[0]), 1), table.width))

    n, k = cm._KernelTable.sqdist_num(table, "P", "Q")
    assert [c * formula._n[1] for c in n] == [c * k for c in pack(formula._n)]
    # against rationals on the integer form: zero, -2/3 and 25
    for c in (Fraction(0), Fraction(-2, 3), Fraction(25)):
        assert table.sqdist_is_form("P", "Q", c.numerator, c.denominator) == (formula == FunElem.constant(c, tower))
    # against a constant of K, irrational where K is, by the formula
    generator = tower.generator(tower.depth - 1) if tower.depth else tower.one()
    c = FunElem.constant(generator * Fraction(5, 2) + 1)
    assert table.sqdist_is("P", "Q", c) == (formula == c)
    # Kronecker squaring is the convolution: ``_isq`` of a packed polynomial is its packed ``_fmul`` square
    for a in (px._n, dx._n, px._d, formula._n):
        sq, k = _isq(rads, pack(a))
        product = _fmul(rads, a, a)
        assert [c * product[1] for c in sq] == [c * k * a[1] * a[1] for c in pack(product)]
    # the unit shortcut hands back the other operand, which is canonical
    unit = _fone(tower)
    for a in (px._n, px._d, formula._n, formula._d, unit):
        assert _fmul(rads, a, unit) == a == _fmul(rads, unit, a)
        _assert_fun_canonical(FunElem._make(tower, a, unit))


def test_sqdist_off_the_kernel_shape_takes_the_formula(monkeypatch, packed_table):
    kernel_calls, real = [], cm._KernelTable.sqdist_num
    monkeypatch.setattr(cm._KernelTable, "sqdist_num", lambda *args: kernel_calls.append(args) or real(*args))
    s2, s3 = INTEGER_TOWERS[1], adjoin_sqrt(QQ, 3).tower
    eps = FunElem.eps(s2)
    p = Point(eps * s2.generator(0), FunElem.constant(1, s2))
    q = Point(FunElem.constant(Fraction(1, 3), s2), eps)
    d = eps * eps + 1
    frame = Point(p.x / d, p.y / d)
    cases = [
        # one tower, unequal denominators
        (p, Point(q.x, q.y / (eps + 1) * (eps + 1))),
        (frame, q),
        # equal denominator pairs, two towers
        (frame, Point(FunElem.constant(2, s3) / (FunElem.eps(s3) ** 2 + 1), FunElem.eps(s3) / (FunElem.eps(s3) ** 2 + 1))),
        # a tower coordinate among K(eps) ones
        (p, Point(s2.one(), eps)),
    ]
    for a, b in cases:
        dx, dy = a.x - b.x, a.y - b.y
        value = dx * dx + dy * dy
        table = cm.point_table({0: a, 1: b})
        assert table_kind(table) == "formula" and packed_table({0: a, 1: b}) is None
        assert table.sqdist_is(0, 1, value) and not table.sqdist_is(0, 1, 0)
    assert cases[2][0].x._d == cases[2][1].x._d and cases[2][0].x.tower != cases[2][1].x.tower
    assert kernel_calls == []
    # one tower over one denominator pair: ``cm.point_table`` takes the formula too
    framed = {0: frame, 1: Point(frame.y, frame.x)}
    assert table_kind(cm.point_table(framed)) == "formula" and not cm.point_table(framed).sqdist_is(0, 1, 0)
    assert kernel_calls == []
    packed_table(framed).sqdist_is(0, 1, 0)  # the counter does see the kernel
    assert len(kernel_calls) == 1 and isinstance(kernel_calls[0][0]._coords[0].x, cm._Form)


def test_fun_add_mul_eq_construct_no_tower_elem(monkeypatch):
    operands = []
    for tower in FUN_TOWERS:
        c = tower.rational(Fraction(-3, 4)) + tower.generator(tower.depth - 1) * Fraction(5, 6) if tower.depth else tower.rational(Fraction(2, 9))
        eps = FunElem.eps(tower)
        operands.append((FunElem.constant(c) + eps * c, (eps * eps + 1) / (eps * c + 3)))
    created = []
    real_elem = scalars._elem

    def counting_elem(*args):
        created.append(args)
        return real_elem(*args)

    monkeypatch.setattr(scalars, "_elem", counting_elem)
    results = []
    for x, y in operands:
        x + y, x - y, x * y, y * y, x == y, x == x + 0, 2 * x, x + 1, x == 1, -y, y / x, y * y == y * y
        results += [x, y, y / x, (x * y) / y, (y * y) / (x * y), x - x]
    assert created == []
    # the reduction runs on the integer matrices; only num and den build coefficients
    reduced = [x._canonical() for x in results]
    assert [x.is_constant() for x in results] == [False, False, False, False, False, True] * len(operands)
    assert created == []
    results[-4].num, results[-4].den  # the counter does see the reduced form's coefficients
    assert created
    assert (_fpoly(results[-4].num), _fpoly(results[-4].den)) == reduced[-4]


def test_check_derivation_verdicts_match_the_oracle_arithmetic(monkeypatch):
    corpus = suite.replay_corpus()

    def verdicts():
        out = []
        for entry in corpus:
            for name, model in suite.model_family(entry.gadget):
                if name.startswith("eps"):
                    # the family shares one pair of eps models per process:
                    # build them again on the K(eps) carrier in force
                    model = models.eps_rotation_model(reflection=name == "eps-reflection")
                    x = model.apply(next(iter(entry.gadget.points.values()))).x
                    assert isinstance(x, models.FunElem)
                v = check_derivation(entry.derivation, model)
                out.append((entry.label, name, v.ok, v.checked, v.violated_index))
        for subject, model in negative_controls(corpus[0].derivation):
            v = check_derivation(subject, model)
            out.append((v.ok, v.checked, v.violated_index))
        return out

    kernel = verdicts()
    monkeypatch.setattr(models, "FunElem", OracleFun)
    # the K(eps) frame forms read ``FunElem``'s integer matrices, which the
    # oracle carrier does not have: its frames take the formula
    real_rows = models.frame_rows
    oracle_rows = lambda matrix, translation: None if any(isinstance(e, OracleFun) for row in matrix for e in row) else real_rows(matrix, translation)
    monkeypatch.setattr(models, "frame_rows", oracle_rows)
    oracle = verdicts()
    assert kernel == oracle
    assert len(kernel) == 96 + 5
    assert [v[2] for v in kernel[-5:]] == [0, 0, len(corpus[0].derivation.facts) - 1] + [len(corpus[0].derivation.facts) - 1] * 2



def test_verdicts_match_with_the_generic_sqdist(monkeypatch):
    """The soundness pass is the same with ``sqdist`` spelled dx*dx + dy*dy
    in ``cm`` and ``gadgets`` and every table the formula; only the fast run
    builds kernel and packed tables."""
    with tables_built() as fast_tables:
        fast = soundness_pass()
    for module in (cm, gadgets):
        monkeypatch.setattr(module, "sqdist", lambda p, q: (p.x - q.x) * (p.x - q.x) + (p.y - q.y) * (p.y - q.y))
    with formula_everywhere(), tables_built() as formula_tables:
        assert soundness_pass() == fast
    assert {"kernel", "packed"} <= set(fast_tables) and set(formula_tables) == {"formula"}
    assert len(fast) == 96 + 5 + 5 and all(report.ok for report in fast[96:101])
    assert [v.violated_index for v in fast[101:]] == [0, 0] + [len(suite.replay_corpus()[0].derivation.facts) - 1] * 3

# -- one operator base and one tower join -----------------------------------------


def test_carriers_share_one_operator_base():

    carriers = (TowerElem, FunElem, Polynomial)
    for name in ("__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__pow__", "__setattr__"):
        assert TowerElem.__dict__.get(name) is FunElem.__dict__.get(name) is Polynomial.__dict__.get(name) is None, name
        assert getattr(TowerElem, name) is getattr(FunElem, name) is getattr(Polynomial, name), name
    for cls in carriers:
        assert cls.__radd__ is cls.__add__ and cls.__rmul__ is cls.__mul__
    assert not hasattr(scalars, "_merge_tower") and not hasattr(scalars, "_map_into")
    x = Polynomial.variable("x", ("x",))
    for bad in (lambda: x**-1, lambda: x**-2, lambda: x / 2):
        with pytest.raises(ValueError):
            bad()
    for value in (QQ.one(), FunElem.eps(), x):
        with pytest.raises(AttributeError, match="is immutable"):
            value.tower = QQ


def _operator_towers():
    r2 = adjoin_sqrt(QQ, 2)
    r3 = adjoin_sqrt(QQ, 3)
    r23 = adjoin_sqrt(r2.tower, 3)
    r5 = adjoin_sqrt(r3.tower, r3.root + 2)
    return [QQ, r2.tower, r3.tower, r23.tower, r5.tower]


def _tower_sample(tower, coords):
    return TowerElem(tower, [coords[i % len(coords)] for i in range(tower.dim)])


@settings(DERANDOMIZED, max_examples=120)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.lists(rationals, min_size=1, max_size=8),
    st.lists(rationals, min_size=1, max_size=8),
    rationals,
)
def test_shared_operators_agree_with_the_field_definitions(i, j, xs, ys, q):
    """Over towers that are prefixes of each other and towers that must be
    merged, and in K(eps) over towers that must be merged: subtraction is
    adding the negative, division is multiplying by the inverse, and the
    reflected operators with an int or Fraction on the left agree with the
    value coerced first."""
    towers = _operator_towers()
    x, y = _tower_sample(towers[i], xs), _tower_sample(towers[j], ys)
    eps = FunElem.eps()
    fx, fy = x + eps * y, y - eps * eps * x
    for a, b in ((x, y), (fx, fy), (fx, y), (x, fy)):
        assert a - b == a + (-b)
        assert b - a == -(a - b)
        for left in (q, 3, Fraction(-2, 7)):
            assert left - a == a._coerce(left) - a
            assert left - a == -(a - left)
            assert left * a == a * left
        if not b.is_zero():
            assert (a / b) * b == a
            assert a / b == a * b.inverse()
        if not a.is_zero():
            assert a**-2 * a**2 == 1
            assert a**-1 == a.inverse()
            for left in (q, 3, Fraction(-2, 7)):
                assert left / a == a._coerce(left) * a.inverse()
        assert a**3 == a * a * a and a**0 == 1


def _oracle_map_into(x, images, tower):
    """x with generator i replaced by ``images[i]``, evaluated in ``tower``
    by generic ``TowerElem`` arithmetic: the reference for the integer matrix
    of ``tower_join``."""
    total = tower.zero()
    for mask, c in enumerate(x._n):
        if c == 0:
            continue
        term = tower.rational(c)
        for i, img in enumerate(images):
            if mask >> i & 1:
                term = term * img.lift(tower)
        total = total + term
    return tower_elem(tower, total._n, total._d * x._d)


def _oracle_merge_tower(base, other):
    """Extend ``base`` by the generators of ``other``; the extension and the
    image of each ``other`` generator inside it."""
    tower = base
    images = []
    for gen in other.gens:
        result = adjoin_sqrt(tower, _oracle_map_into(gen, images, tower))
        tower = result.tower
        images = [img.lift(tower) for img in images]
        images.append(result.root)
    return tower, images


def test_tower_join_matches_the_merge_oracle():
    r2, r3, r6 = (adjoin_sqrt(QQ, n) for n in (2, 3, 6))
    r23 = adjoin_sqrt(r2.tower, 3)
    r32 = adjoin_sqrt(r3.tower, 2)
    r5 = adjoin_sqrt(r3.tower, r3.root + 2)
    towers = [QQ, r2.tower, r3.tower, r6.tower, r23.tower, r32.tower, r5.tower, adjoin_sqrt(r23.tower, 5).tower]
    rng = random.Random(24)
    merged = 0
    for base in towers:
        for other in towers:
            tower, into = scalars.tower_join(base, other)
            oracle_tower, images = _oracle_merge_tower(base, other)
            assert tower == oracle_tower and base.is_prefix_of(tower)
            assert [into(other.generator(k)) for k in range(other.depth)] == images
            for k in range(other.dim):
                basis = tower_elem(other, [int(m == k) for m in range(other.dim)], 1)
                x = basis * 3 + Fraction(1, 2)
                assert into(x) == _oracle_map_into(x, images, tower) and into(x).tower is tower
            for x in _random_elements(other, rng):
                assert into(x) == _oracle_map_into(x, images, tower) and into(x).tower is tower
            merged += not (base.is_prefix_of(other) or other.is_prefix_of(base))
    assert merged == 32
    # an absorbed root: sqrt 8 = 2 sqrt 2 is found in Q(sqrt 2)
    r8 = adjoin_sqrt(QQ, 8)
    assert not r8.absorbed
    tower, into = scalars.tower_join(r2.tower, r8.tower)
    oracle_tower, images = _oracle_merge_tower(r2.tower, r8.tower)
    assert tower is r2.tower and oracle_tower == tower and images == [into(r8.root)] == [2 * r2.root]
    for x in _random_elements(r8.tower, rng):
        assert into(x) == _oracle_map_into(x, images, tower) and into(x).tower is tower


def _random_elements(tower, rng, count=4):
    """Seeded elements of ``tower`` with negative and fractional coordinates."""
    for _ in range(count):
        yield TowerElem(tower, [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(tower.dim)])
