"""Points, vectors and Cayley-Menger determinants over any exact carrier.

``cm3``/``cm4`` take squared distances directly and expand the bordered
matrix with ``poly.det``, so one code path serves numeric carriers, the
symbolic polynomial ring, and image-space checks.  Point-based wrappers
compute the squared-distance form first.  Point and vector equality compare
coordinates with ``==``.  Nothing here tolerates approximation.

The facts are decided on a ``point_table``, the one place a carrier, and so
a kernel, is picked: it scans every coordinate of its points a single time.
Every test answers on every table.  They are ``same``, ``sqdist_is`` (a
squared distance equals a value: a rational m/e goes to
``sqdist_is_form(p, q, m, e)``, the unreduced numerator cross-multiplied
with m/e on the table's kernel, or the formula where m/e does not fit the
kernel or the table has none, and any other value to the formula),
``relation_vanishes`` (an integer combination of points is zero),
``dot_vanishes`` (the dot product of two differences is zero) and
``scaled_is`` (a difference b - o equals rho (a - o) on both coordinates);
``sqdist``, a squared distance as a value, is the carrier formula on every
table.  Over one tower, Q included, the tests are methods of
``_KernelTable`` on each point's integer form, its two coordinate vectors
over d = lcm(d_x, d_y) joined as one vector x + y (``_form``), the one
state the table keeps per point: built once, with the table, or handed to
it.  A test reads a few ``scalars`` kernels (``_isub``, ``_iadd``,
``_imul``, ``_isq``); a product or square of sparse vectors at dimension 8
or more sums the tower's basis products over its pairs of nonzero
coordinates, and any other takes the halving recursion, by ``scalars``'s
sparse rule.  At depth <= 2 a squared distance is one straight-line
expression on two forms (``_isq_closed``): no recursion, no difference
vector.  At dimension 8 or more it subtracts the forms' nonzero
(coordinate, value) pairs (``_isub_pairs``), kept on first read, and,
where each difference passes the square's rule, sums both squares in one
sparse kernel (``_isq_sum``) on the basis products the table resolves
once, reading only those of nonzero pairs; any other difference is
squared dense.  ``same`` cross-multiplies two forms, and a relation
sum(c_i P_i) over forms (m_i, d_i) is zero iff sum(f_i m_i) is,
f_i = c_i lcm(d)/d_i, summed over each form's nonzero coordinates, exact
at any coefficient size.  Built gadgets share one ``TowerDesc`` object, so the
tower test is an identity check.

Over Q (every coordinate a ``TowerElem`` of depth 0) a form is two
integers (x, y) over d: a squared distance with value a/b is
b*(dx^2 + dy^2) == a*k^2, for the difference (dx, dy) over k (the closed
form's depth-0 line), and a relation is zero iff sum(f_i x_i) and
sum(f_i y_i) are, one loop over two integers per point; the dot products
take the tower kernel at depth 0.  The denominators are kept per point:
one common denominator L of all the points would grow with their number
(L^2 had 4.2 million bits on 80 points with distinct 4,000-digit
denominators), so a test costs what the points it reads cost.  Every other
point set (coordinates over different towers, ``FunElem``, ``Fraction``,
``Polynomial``) takes the base ``PointTable``, the carrier formula, which
is also the reference the kernels are tested against.

A model's images have one table, ``image_table(model, points)``: the
model's own ``image_table`` where it has one, else each point object
mapped once by ``apply`` (``mapped_table``), the one mapping loop.
``models.ModelMap.image_table`` hands a kernel table each image's
unreduced integer form, with no image element built and no coordinate
classified; its ``points`` map an image by ``apply`` only when a formula
fallback reads one.  Every kernel table compares two points by
cross-multiplying (``same``), as these forms need not be canonical.
K(eps) images are decided in ``models``: its ``_PackedTable``, a
``_KernelTable`` on numerators packed at eps = 2^w, is the one kernel
table over K(eps).

The facts are written once, against the table's tests; a fact given a
plain mapping builds the table of its points.  A table lives for one call.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from math import lcm
from typing import Any, Callable, Mapping, Sequence

from .poly import det
from .scalars import QQ, IVec, TowerDesc, TowerElem, _basis_products, _iadd, _imul, _isq, _isq_closed, _isq_sum, _isub, _isub_pairs, _pairs, record

Scalar = Any  # Fraction | TowerElem | FunElem | Polynomial | int

def _is_zero(x: Scalar) -> bool:
    z = getattr(x, "is_zero", None)
    if z is not None:
        return z()
    return x == 0


@record
class Point:
    """A point of F^2; both coordinates must come from one field carrier."""

    x: Scalar
    y: Scalar

    def __sub__(self, other: "Point") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Vec2") -> "Point":
        return Point(self.x + other.x, self.y + other.y)


@record
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

    def is_zero(self) -> bool:
        return _is_zero(self.x) and _is_zero(self.y)


def rational_point(x, y, tower: TowerDesc = QQ) -> Point:
    return Point(tower.rational(Fraction(x)), tower.rational(Fraction(y)))


def _one_tower(coords: Sequence[Scalar]) -> TowerDesc | None:
    """The tower of ``coords`` if all are ``TowerElem``s of one tower."""
    tower = None
    for c in coords:
        if not isinstance(c, TowerElem):
            return None
        if tower is None:
            tower = c.tower
        elif c.tower is not tower and c.tower != tower:
            return None
    return tower


def sqdist(p: Point, q: Point) -> Scalar:
    """The squared-distance form (x1-y1)^2 + (x2-y2)^2 over any carrier."""
    d = p - q
    return d.dot(d)


# ---------------------------------------------------------------------------
# Point tables: the points of one report call, classified once
# ---------------------------------------------------------------------------


class PointTable:
    """Named points whose carrier ``point_table`` picked once, indexed by
    name as the mapping they were given, with the tests the facts are
    written in; a difference (u1, u0) of names is the vector from u0 to u1.
    This base class is the carrier formula: it picks no kernel, serves the
    point sets that no kernel takes together, and is the reference the
    kernel tables are tested against."""

    __slots__ = ("points",)

    def __init__(self, points: Mapping[Any, Point]) -> None:
        self.points = points

    def __getitem__(self, name) -> Point:
        return self.points[name]

    def _vec(self, u: tuple) -> Vec2:
        return self.points[u[0]] - self.points[u[1]]

    def sqdist(self, p, q) -> Scalar:
        return sqdist(self.points[p], self.points[q])

    def sqdist_num(self, p, q) -> tuple[IVec, int] | None:
        """The squared distance as an unreduced integer vector over the
        table's ``tower`` and a positive denominator, on the tower kernels;
        None on other carriers."""
        return None

    def sqdist_is_form(self, p, q, m: int, e: int) -> bool:
        """``sqdist(p, q) == m/e`` for integers m and e > 0: here the
        formula, cross-multiplied; on the table's kernel where it has one."""
        return self.sqdist(p, q) * e == m

    def sqdist_is(self, p, q, value: Scalar) -> bool:
        """A rational value by ``sqdist_is_form``; any other value against
        the formula."""
        if isinstance(value, (int, Fraction)):
            return self.sqdist_is_form(p, q, value.numerator, value.denominator)
        return self.sqdist(p, q) == value

    def same(self, p, q) -> bool:
        return self.points[p] == self.points[q]

    def _terms(self, relation: Mapping[Any, int]) -> list[tuple[int, Point]]:
        return [(c, self.points[n]) for n, c in relation.items()]

    def relation_vanishes(self, relation: Mapping[Any, int]) -> bool:
        """sum(c * P) over name -> integer coefficient c is the zero vector."""
        terms = self._terms(relation)
        return _is_zero(sum(c * p.x for c, p in terms)) and _is_zero(sum(c * p.y for c, p in terms))

    def dot_vanishes(self, u: tuple, w: tuple) -> bool:
        """The dot product of the differences u and w is zero."""
        return _is_zero(self._vec(u).dot(self._vec(w)))

    def scaled_is(self, u: tuple, w: tuple, rho: Scalar) -> bool:
        """The difference u equals rho times the difference w."""
        return self._vec(u) == self._vec(w).scaled(rho)


def _form(xn: IVec, xd: int, yn: IVec, yd: int) -> tuple[IVec, int]:
    """A point's integer form: its two coordinate vectors xn/xd and yn/yd
    over d = lcm(xd, yd), as one vector x + y, and d."""
    if xd == yd:
        return xn + yn, xd
    d = lcm(xd, yd)
    return tuple([c * (d // xd) for c in xn] + [c * (d // yd) for c in yn]), d


class _KernelTable(PointTable):
    """``TowerElem``s of one tower, Q included, decided on each point's
    integer form (x + y, d) (``_form``) by the ``scalars`` kernels
    ``_isub``, ``_iadd``, ``_imul`` and ``_isq``; no test builds an element
    or reduces one.  ``forms`` holds the forms by point name: built from the
    points with the table, or handed to it (an image table's unreduced
    forms, of which ``points`` are the values); as forms need not be
    canonical, ``same`` cross-multiplies two.  At depth >= 3 ``_nz`` holds
    each form's nonzero pairs (``_kept``), by name, as read so far, and
    ``_basis`` the tower's basis products, resolved once per table."""

    __slots__ = ("tower", "forms", "_nz", "_basis")

    def __init__(self, points: Mapping[Any, Point], tower: TowerDesc, forms: Mapping[Any, tuple[IVec, int]] | None = None) -> None:
        super().__init__(points)
        self.tower, self._nz = tower, {}
        self.forms = {name: _form(p.x._n, p.x._d, p.y._n, p.y._d) for name, p in points.items()} if forms is None else forms
        self._basis = _basis_products(tower._rads, tower.dim) if tower.depth >= 3 else None

    def _kept(self, name) -> tuple:
        """The form as the sparse path reads it, kept: ((x pairs, y pairs),
        d), each vector's nonzero (coordinate, value) pairs (``_pairs``)."""
        m, d = self.forms[name]
        n = self.tower.dim
        kept = self._nz[name] = (_pairs(m[:n]), _pairs(m[n:])), d
        return kept

    def same(self, p, q) -> bool:
        (a, kp), (b, kq) = self.forms[p], self.forms[q]
        return a == b if kp == kq else [c * kq for c in a] == [c * kp for c in b]

    def _ivec(self, u: tuple) -> tuple[IVec, IVec, int]:
        """The difference u of two forms, split into its x and y vectors,
        over one denominator."""
        (a, ka), (b, kb) = self.forms[u[0]], self.forms[u[1]]
        v, k = _isub(a, ka, b, kb)
        n = self.tower.dim
        return v[:n], v[n:], k

    def sqdist_num(self, p, q) -> tuple[IVec, int]:
        rads = self.tower._rads
        if len(rads) <= 2:
            (a, kp), (b, kq) = self.forms[p], self.forms[q]
            return _isq_closed(rads, a, kp, b, kq)
        # p - q = (fa a - fb b)/k on the two points as kept
        nz = self._nz
        ((ax, ay), kp), ((bx, by), kq) = nz.get(p) or self._kept(p), nz.get(q) or self._kept(q)
        fa, fb, k = (1, 1, kp) if kp == kq else (kq, kp, kp * kq)
        s = _isq_sum(self._basis, _isub_pairs(ax, fa, bx, fb), _isub_pairs(ay, fa, by, fb))
        if s is not None:
            return s[0], k * k * s[1]
        u, v, k = self._ivec((p, q))
        (su, ksu), (sv, ksv) = _isq(rads, u), _isq(rads, v)
        s, ks = _iadd(su, ksu, sv, ksv)
        return s, k * k * ks

    def sqdist_is_form(self, p, q, m: int, e: int) -> bool:
        # n/k cross-multiplied with m/e; a rational has no coordinate past the first
        n, k = self.sqdist_num(p, q)
        return n[0] * e == m * k and not any(n[1:])

    def relation_vanishes(self, relation: Mapping[Any, int]) -> bool:
        """sum(f_i m_i) == 0 on the forms, coordinate by coordinate, adding
        each form's nonzero coordinates only; over Q, where a form is two
        integers, sum(f_i x_i) and sum(f_i y_i)."""
        forms = self.forms
        if not self.tower.gens:
            k, x, y = lcm(*[forms[n][1] for n in relation]), 0, 0
            for n, c in relation.items():
                (a, b), d = forms[n]
                f = c * (k // d)
                x, y = x + f * a, y + f * b
            return not x and not y
        terms = [forms[n] for n in relation]
        k = lcm(*[d for _, d in terms])
        spots = range(2 * self.tower.dim)
        total = [0] * len(spots)
        for c, (m, d) in zip(relation.values(), terms):
            f = c * (k // d)
            for i in compress(spots, m):
                total[i] += f * m[i]
        return not any(total)

    def dot_vanishes(self, u: tuple, w: tuple) -> bool:
        # the two differences' denominators divide both products alike
        rads = self.tower._rads
        ux, uy, _ = self._ivec(u)
        wx, wy, _ = self._ivec(w)
        x, kx = _imul(rads, ux, wx)
        y, ky = _imul(rads, uy, wy)
        return not any(_iadd(x, kx, y, ky)[0])

    def _constant(self, rho) -> tuple[IVec, int] | None:
        """rho as the kernels read it, an integer vector over a denominator,
        if a constant of the table's tower; else None."""
        if isinstance(rho, TowerElem) and (rho.tower is self.tower or rho.tower == self.tower):
            return rho._n, rho._d
        return None

    def scaled_is(self, u: tuple, w: tuple, rho: Scalar) -> bool:
        """u - rho * w vanishes on each coordinate, on the integer form where
        ``_constant`` takes rho; any other rho takes the formula."""
        r = self._constant(rho)
        if r is None:
            return super().scaled_is(u, w, rho)
        (n, d), rads = r, self.tower._rads
        ux, uy, ku = self._ivec(u)
        wx, wy, kw = self._ivec(w)
        for a, b in ((ux, wx), (uy, wy)):
            c, kc = _imul(rads, b, n)
            if any(_isub(a, ku, c, kw * kc * d)[0]):
                return False
        return True


def point_table(points: Mapping[Any, Point] | PointTable) -> PointTable:
    """The table of ``points``, its carrier picked once for all of them, in
    one scan of their coordinates: the tower kernels (``_KernelTable``) when
    every coordinate is a ``TowerElem`` of one tower, Q included; otherwise
    the formula (``PointTable``).  A table is returned as it is."""
    if isinstance(points, PointTable):
        return points
    values = points.values()
    tower = _one_tower([p.x for p in values] + [p.y for p in values])
    return PointTable(points) if tower is None else _KernelTable(points, tower)


def mapped_table(apply: Callable[[Point], Point], points: Mapping[Any, Point] | PointTable) -> PointTable:
    """The ``point_table`` of the images of ``points`` (by name, or their
    own table) by ``apply``, each point object mapped once, in order, all
    before the table is built."""
    if isinstance(points, PointTable):
        points = points.points
    mapped = {}
    for p in points.values():
        if id(p) not in mapped:
            mapped[id(p)] = apply(p)
    return point_table({name: mapped[id(p)] for name, p in points.items()})


def image_table(model, points: Mapping[Any, Point] | PointTable) -> PointTable:
    """The table of a model's images of ``points``: its own ``image_table``
    where it has one (``models.ModelMap``), else ``mapped_table``."""
    if hasattr(model, "image_table"):
        return model.image_table(points)
    return mapped_table(model.apply, points)


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


def circle_point(t: Scalar) -> tuple[Scalar, Scalar]:
    """The point ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)) of the unit circle, the
    rational parametrization, exact in t's field; raises ``ZeroDivisionError``
    where 1 + t^2 = 0."""
    one = t * 0 + 1
    t2 = t * t
    inv = _invert(one + t2)
    return (one - t2) * inv, (2 * t) * inv


def _invert(x: Scalar) -> Scalar:
    inv = getattr(x, "inverse", None)
    if inv is not None:
        return inv()
    return 1 / Fraction(x)
