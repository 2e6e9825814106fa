"""Multivariate polynomial arithmetic and the symbolic determinant identities."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from rigidity_forge.cm import cm4
from rigidity_forge.gadgets import KEMPE_IDENTITIES
from rigidity_forge.poly import Polynomial, det, identity_check, variables


def det_leibniz(matrix):
    """Oracle for ``det``: the Leibniz sum over all permutations, each signed
    by its inversion count; shares no step with a Laplace expansion."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        total = total + term
    return total


@pytest.fixture(scope="module")
def symbols():
    return variables("a b c d e")


def kempe_matrices(symbols):
    a, b, c, d, e = symbols
    m1 = [[0, 1, 1, 1, 1], [1, 0, 16, e, 9], [1, 16, 0, c, 1], [1, e, c, 0, 1], [1, 9, 1, 1, 0]]
    m2 = [[0, 1, 1, 1, 1], [1, 0, 16, b, 9], [1, 16, 0, 4, 1], [1, b, 4, 0, d], [1, 9, 1, d, 0]]
    m3 = [[0, 1, 1, 1, 1], [1, 0, 16, b, 16], [1, 16, 0, 4, a], [1, b, 4, 0, 4], [1, 16, a, 4, 0]]
    m4 = [[0, 1, 1, 1, 1], [1, 0, 4, c, 1], [1, 4, 0, 4, d], [1, c, 4, 0, 1], [1, 1, d, 1, 0]]
    return m1, m2, m3, m4


# -- arithmetic ----------------------------------------------------------------


def test_expansion_against_hand_oracle(symbols):
    a, b, c, d, e = symbols
    # (e - 16 + 3c)^2 expanded by hand
    p = e - 16 + 3 * c
    expected = e * e + 6 * c * e - 32 * e + 9 * c * c - 96 * c + 256
    assert p * p == expected


def test_subtraction_cancels(symbols):
    a, b, c, d, e = symbols
    p = 3 * a * b - c + Fraction(7, 2)
    assert (p - p).is_zero()


def test_difference_of_squares_in_one_variable():
    (x,) = variables("x")
    assert (x + 1) * (x - 1) == x * x - 1


def test_equal_values_hash_equal(symbols):
    """A constant polynomial, zero included, hashes like the rational it equals."""
    a = symbols[0]
    three, zero = a * 0 + 3, a - a
    assert three == 3 and zero == 0 and a * 0 + Fraction(1, 2) == Fraction(1, 2)
    assert hash(three) == hash(3) and hash(zero) == hash(0) and hash(a * 0 + Fraction(1, 2)) == hash(Fraction(1, 2))
    assert len({three, 3}) == 1 and len({zero, 0}) == 1 and len({a, a + 0, 3}) == 2


def test_context_mismatch_is_rejected():
    (x,) = variables("x")
    (y,) = variables("y")
    with pytest.raises(ValueError):
        x + y


def test_equality_across_contexts_does_not_raise():
    """Polynomials of two contexts are equal iff both are constants of one
    rational value; comparing them never raises, arithmetic across them does."""
    a, b = Polynomial.constant(3, ("a",)), Polynomial.constant(3, ("b",))
    assert a == b and len({a, b}) == 1 and a != Polynomial.constant(Fraction(1, 2), ("b",))
    (x,) = variables("x")
    (y,) = variables("y")
    assert not x == y and x != y and not x == b and not b == x
    with pytest.raises(ValueError):
        x + y


# -- determinants ---------------------------------------------------------------


def test_det_2x2():
    (x,) = variables("x")
    assert det([[x, 1], [1, x]]) == x * x - 1


def test_kempe_determinant_1(symbols):
    a, b, c, d, e = symbols
    m1 = kempe_matrices(symbols)[0]
    assert identity_check(det(m1), -2, [(e - 16 + 3 * c, 2)])


def test_kempe_determinant_2(symbols):
    a, b, c, d, e = symbols
    m2 = kempe_matrices(symbols)[1]
    assert identity_check(det(m2), -2, [(b - 4 * d, 2)])


def test_kempe_determinant_3_after_substitution(symbols):
    a, b, c, d, e = symbols
    m3 = kempe_matrices(symbols)[2]
    substituted = det(m3).substitute({"b": 4 * d})
    assert identity_check(substituted, -8, [a, a * d + 4 * (d * d - 10 * d + 9)])


def test_kempe_determinant_4(symbols):
    a, b, c, d, e = symbols
    m4 = kempe_matrices(symbols)[3]
    assert identity_check(det(m4), -2, [c, c * d + d * d - 10 * d + 9])


def test_linkage_table_builds_the_reference_matrices(symbols):
    assert [identity.matrix() for identity in KEMPE_IDENTITIES] == list(kempe_matrices(symbols))


def test_det_matches_leibniz_oracle(symbols):
    for m in kempe_matrices(symbols):
        assert det(m) == det_leibniz(m)


def test_det_matches_leibniz_on_random_matrices():
    rng = random.Random(7)
    x, y = variables("x y")
    for n in (1, 2, 3, 4):
        for _ in range(5):
            m = [
                [
                    Polynomial.constant(rng.randint(-4, 4), x.vars)
                    + x * rng.randint(-2, 2)
                    + y * rng.randint(-2, 2)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert det(m) == det_leibniz(m)
            # the same expansion over the rationals, zero entries included
            q = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            assert det(q) == det_leibniz(q)


def test_det_with_equal_rows_vanishes():
    rng = random.Random(11)
    x, y = variables("x y")
    for _ in range(10):
        row = [x * rng.randint(-3, 3) + y * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(3)]
        other = [x * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(3)]
        assert det([row, other, row]).is_zero()


def test_det_row_scaling_multilinearity():
    rng = random.Random(13)
    x, y = variables("x y")
    for _ in range(10):
        m = [[x * rng.randint(-3, 3) + y * rng.randint(-2, 2) + rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        scaled = [m[0], [lam * entry for entry in m[1]], m[2]]
        assert det(scaled) == lam * det(m)


# -- substitution and evaluation -----------------------------------------------------


def test_substitute_reproduces_substituted_matrix(symbols):
    a, b, c, d, e = symbols
    m3 = kempe_matrices(symbols)[2]
    # entrywise substitution b := 4d reproduces the substituted display
    substituted_entries = [
        [entry.substitute({"b": 4 * d}) if isinstance(entry, Polynomial) else entry for entry in row]
        for row in m3
    ]
    expected = [[0, 1, 1, 1, 1], [1, 0, 16, 4 * d, 16], [1, 16, 0, 4, a], [1, 4 * d, 4, 0, 4], [1, 16, a, 4, 0]]
    for row_got, row_want in zip(substituted_entries, expected):
        for got, want in zip(row_got, row_want):
            if isinstance(got, Polynomial):
                assert got == want
            else:
                assert Polynomial.constant(got, a.vars) == want


def test_substitute_simple(symbols):
    a, b, c, d, e = symbols
    assert (e + 3 * c).substitute({"e": 16 - 3 * c}) == 16


def test_rational_evaluation_oracle(symbols):
    a, b, c, d, e = symbols
    # c*d = -(d^2 - 10d + 9) at d=5 forces c = 16/5
    relation = c * d + d * d - 10 * d + 9
    assert relation.evaluate({"c": Fraction(16, 5), "d": 5}) == 0


def test_evaluate_matches_direct_arithmetic():
    x, y = variables("x y")
    p = x * x * y - 2 * x + Fraction(3, 4)
    assert p.evaluate({"x": Fraction(1, 2), "y": 4}) == Fraction(1, 4) * 4 - 1 + Fraction(3, 4)


@settings(max_examples=40)
@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
def test_symbolic_det_evaluation_matches_numeric(u, v):

    a, b, c, d, e = variables("a b c d e")
    m1 = [[0, 1, 1, 1, 1], [1, 0, 16, e, 9], [1, 16, 0, c, 1], [1, e, c, 0, 1], [1, 9, 1, 1, 0]]
    symbolic = det(m1).evaluate({"e": u, "c": v})
    numeric = cm4(Fraction(16), u, Fraction(9), v, Fraction(1), Fraction(1))
    assert symbolic == numeric


def test_cm4_runs_on_symbolic_scalars(symbols):
    # the same squared-distance determinant path serves the polynomial carrier

    a, b, c, d, e = symbols
    m1 = kempe_matrices(symbols)[0]
    one = Polynomial.constant(1, a.vars)
    nine = Polynomial.constant(9, a.vars)
    sixteen = Polynomial.constant(16, a.vars)
    assert cm4(sixteen, e, nine, c, one, one) == det(m1)


def test_rendering_is_graded_lexicographic(symbols):
    a, b, c, d, e = symbols
    p = (e - 16 + 3 * c) * (e - 16 + 3 * c)
    assert str(p) == "9*c^2 + 6*c*e + e^2 - 96*c - 32*e + 256"
