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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Sequence

from .poly import det
from .scalars import QQ, FunElem, TowerDesc, TowerElem, fun_sqdist, tower_sqdist

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
    tower = _one_tower(coords)
    if tower is not None:
        return tower_sqdist(tower, *coords)
    tower = _one_tower(coords, FunElem)
    if tower is not None and p.x._d == p.y._d == q.x._d == q.y._d:
        return fun_sqdist(tower, *coords)
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


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
