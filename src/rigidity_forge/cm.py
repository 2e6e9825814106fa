"""Points, vectors and Cayley-Menger determinants over any exact carrier.

``cm3``/``cm4`` take squared distances directly and expand the bordered
matrix with ``poly.det``, so one code path serves numeric carriers, the
symbolic polynomial ring, and image-space checks.  Point-based wrappers
compute the squared-distance form first.  ``sqdist`` of two points whose
four coordinates lie in one tower runs the integer kernel
``scalars.tower_sqdist``; built gadgets share one ``TowerDesc`` object, so
the tower test is an identity check.  Four ``FunElem`` coordinates of one
tower over one denominator pair, the shape of every eps-frame image, run the
K(eps) kernel ``scalars.fun_sqdist``.  Point and vector equality compare
coordinates with ``==``.  Nothing here tolerates approximation.

The facts are decided by three exact zero tests, one per equation shape,
which build no carrier value on the coordinates those kernels take:
``sqdist_is`` (a squared distance equals a constant: its unreduced
numerator cross-multiplied with the constant, read by ``constant_form``;
``sqdist_is_form`` takes the constant already in that form),
``combination_vanishes`` (an integer combination of points is zero) and
``form_vanishes`` (a sum of products of coordinate differences is zero:
dot and cross products, and a ratio cross-multiplied).  Each runs the
``scalars`` kernel of its shape for one tower, or for K(eps) over one
shared denominator D, where an equation homogeneous in D holds iff it
holds on the numerators.  Every other carrier (coordinates over different
towers or denominators, ``Fraction``, ``Polynomial``) takes the generic
formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Sequence

from .poly import det
from .scalars import (
    QQ,
    FunElem,
    IVec,
    TowerDesc,
    TowerElem,
    _funit,
    constant_form,
    fun_comb_vanishes,
    fun_form_vanishes,
    fun_sqdist,
    fun_sqdist_is,
    tower_comb_vanishes,
    tower_form_vanishes,
    tower_sqdist,
    tower_sqdist_is,
)

Scalar = Any  # Fraction | TowerElem | FunElem | Polynomial | int


def _is_zero(x: Scalar) -> bool:
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return x == 0


@dataclass(frozen=True)
class Point:
    """A point of F^2; both coordinates must come from one field carrier."""

    x: Scalar
    y: Scalar

    def __sub__(self, other: "Point") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Vec2") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))


@dataclass(frozen=True)
class Vec2:
    x: Scalar
    y: Scalar

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scaled(self, factor: Scalar) -> "Vec2":
        return Vec2(factor * self.x, factor * self.y)

    def dot(self, other: "Vec2") -> Scalar:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Scalar:
        return self.x * other.y - self.y * other.x

    def is_zero(self) -> bool:
        return _is_zero(self.x) and _is_zero(self.y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))


def rational_point(x, y, tower: TowerDesc = QQ) -> Point:
    return Point(tower.rational(Fraction(x)), tower.rational(Fraction(y)))


def _one_tower(coords: Sequence[Scalar], carrier: type = TowerElem) -> TowerDesc | None:
    """The tower of ``coords`` if all are ``carrier``s of one tower."""
    tower = None
    for c in coords:
        if not isinstance(c, carrier):
            return None
        if tower is None:
            tower = c.tower
        elif c.tower is not tower and c.tower != tower:
            return None
    return tower


def sqdist(p: Point, q: Point) -> Scalar:
    """The squared-distance form (x1-y1)^2 + (x2-y2)^2 over any carrier.

    Four coordinates of one tower go through the integer kernel
    ``tower_sqdist``, and four ``FunElem``s of one tower over one denominator
    pair through ``fun_sqdist``; other carriers, and coordinates in different
    towers or over different denominators, use the formula.
    """
    coords = (p.x, p.y, q.x, q.y)
    kind = _kernel_tower(coords)
    if kind is not None:
        return (tower_sqdist if kind[0] else fun_sqdist)(kind[1], *coords)
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def _kernel_tower(coords: Sequence[Scalar]) -> tuple[bool, TowerDesc] | None:
    """(True, tower) when ``coords`` are ``TowerElem``s of one tower, (False,
    tower) when they are ``FunElem``s of one tower over one denominator pair,
    else None: the carriers the integer kernels take."""
    tower = _one_tower(coords)
    if tower is not None:
        return True, tower
    tower = _one_tower(coords, FunElem)
    if tower is not None and all(c._d == coords[0]._d for c in coords):
        return False, tower
    return None


def sqdist_is(p: Point, q: Point, value: Scalar) -> bool:
    """``sqdist(p, q) == value``, decided without building the distance.

    A constant value (a rational, a tower element, or a ``FunElem`` over
    the unit polynomial) is read by ``constant_form`` and compared by
    ``sqdist_is_form``; other carriers and values, and coordinates that
    entry point declines, compare the value of ``sqdist``.
    """
    const = constant_form(value)
    if const is not None:
        ok = sqdist_is_form(p, q, *const)
        if ok is not None:
            return ok
    return sqdist(p, q) == value


def sqdist_is_form(p: Point, q: Point, tower: TowerDesc, m: IVec, e: int) -> bool | None:
    """``sqdist(p, q) == m/e`` for a constant in ``constant_form``: m an
    integer vector over ``tower`` (need not be reduced) and e a positive
    denominator.  When ``tower`` is a prefix of the points' tower, the
    unreduced numerator of the squared distance is cross-multiplied with
    m/e: ``tower_sqdist_is`` for four coordinates of one tower,
    ``fun_sqdist_is`` for four ``FunElem``s over one denominator pair.
    None for other coordinates and towers.
    """
    coords = (p.x, p.y, q.x, q.y)
    kind = _kernel_tower(coords)
    if kind is not None:
        tower_kernel, points_tower = kind
        if tower is points_tower or tower.is_prefix_of(points_tower):
            return (tower_sqdist_is if tower_kernel else fun_sqdist_is)(points_tower, *coords, m, e)
    return None


def combination_vanishes(terms: Sequence[tuple[int, Point]]) -> bool:
    """Whether sum(c * P) over integer coefficients c is the zero vector.

    Coordinates the kernels take are summed on the integer form
    (``tower_comb_vanishes``, ``fun_comb_vanishes``); other carriers add up
    the carrier values.
    """
    xs = [(c, p.x) for c, p in terms]
    ys = [(c, p.y) for c, p in terms]
    kind = _kernel_tower([x for _, x in xs] + [y for _, y in ys]) if terms else None
    if kind is not None:
        vanishes = tower_comb_vanishes if kind[0] else fun_comb_vanishes
        return vanishes(xs) and vanishes(ys)
    return all(_is_zero(sum(c * x for c, x in part)) for part in (xs, ys))


Factor = Any  # (x1, x0) for the difference x1 - x0, a constant, or None for 1


def _factor_value(f: Factor) -> Scalar:
    if isinstance(f, tuple):
        return f[0] - f[1]
    return 1 if f is None else f


def form_vanishes(terms: Sequence[tuple[int, Factor, Factor]]) -> bool:
    """Whether sum(s * f * g) over ``terms`` (s, f, g) is zero, a factor
    being a difference (x1, x0) of coordinates, a constant, or None for 1;
    every term holds the same number of differences.

    Differences of coordinates the kernels take, and constants of their
    tower (``FunElem``s over the unit polynomial, for K(eps)), are
    multiplied on the integer form with one zero test
    (``tower_form_vanishes``, ``fun_form_vanishes``); other carriers compute
    the carrier value.
    """
    coords, consts = [], []
    for _, f, g in terms:
        for factor in (f, g):
            if isinstance(factor, tuple):
                coords.extend(factor)
            elif factor is not None:
                consts.append(factor)
    kind = _kernel_tower(coords)
    if kind is not None:
        tower_kernel, tower = kind
        carrier = TowerElem if tower_kernel else FunElem
        if all(
            isinstance(c, carrier) and (c.tower is tower or c.tower == tower) and (tower_kernel or _funit(c._d))
            for c in consts
        ):
            return (tower_form_vanishes if tower_kernel else fun_form_vanishes)(tower, terms)
    return _is_zero(sum(s * _factor_value(f) * _factor_value(g) for s, f, g in terms))


def bordered_matrix(sq_dists: Sequence[Scalar], n: int) -> list[list[Scalar]]:
    """The bordered squared-distance matrix of n points; ``sq_dists`` lists
    d_ij for 1 <= i < j <= n in lexicographic order."""
    rows = [[0] + [1] * n] + [[1] + [0] * n for _ in range(n)]
    for (i, j), value in zip(combinations(range(1, n + 1), 2), sq_dists):
        rows[i][j] = rows[j][i] = value
    return rows


def cm3(d12: Scalar, d13: Scalar, d23: Scalar) -> Scalar:
    """Bordered determinant for three points from their squared distances."""
    return det(bordered_matrix((d12, d13, d23), 3))


def cm4(d12: Scalar, d13: Scalar, d14: Scalar, d23: Scalar, d24: Scalar, d34: Scalar) -> Scalar:
    """Bordered determinant for four points from their squared distances."""
    return det(bordered_matrix((d12, d13, d14, d23, d24, d34), 4))


def cm3_points(p1: Point, p2: Point, p3: Point) -> Scalar:
    return cm3(sqdist(p1, p2), sqdist(p1, p3), sqdist(p2, p3))


def affinely_dependent3(p1: Point, p2: Point, p3: Point) -> bool:
    """Three points are affinely dependent iff their bordered determinant vanishes."""
    return _is_zero(cm3_points(p1, p2, p3))


def _invert(x: Scalar) -> Scalar:
    inv = getattr(x, "inverse", None)
    if inv is not None:
        return inv()
    return 1 / Fraction(x)
