"""Finite rigidity gadgets: explicit coordinates plus rational squared-distance
certificates whose image constraints force a geometric conclusion.

Every constructor returns a self-consistent :class:`Gadget`: re-computing the
squared-distance form on the stored coordinates reproduces every certificate
entry exactly, every certified value is rational, and the goal holds for the
identity mapping on the gadget's own coordinates.  The ``layout`` field is a
JSON-able recipe recording how the configuration was assembled; the deduction
engine replays proofs by walking it.

The goal kinds are the vector facts.  ``_linear_relation`` is their one
relation table: ``VecEq``, ``VecScale`` and ``AffineComb`` hold iff the
integer combination of the points it gives vanishes
(``relation_vanishes`` of a ``cm.point_table``), and the engine's span rule
reads the same table.  ``DotZero`` holds iff the dot product of its two
differences is zero (``dot_vanishes``).  ``Gadget.validate`` classifies
the coordinates once into one point table and decides every certificate
entry, side condition and the goal on it; it builds a distance only to
report a mismatch.

A construction stays in one tower: a chain adjoins its step root where its
points live, and ``_Builder.finish`` merges only independent sub-constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Union

from . import poly
from .cm import Point, PointTable, Vec2, _is_zero, bordered_matrix, circle_point, point_table, sqdist
from .real import cmp_with_sqrt, least_int_above_sqrt, simplest_rational_between_sqrts
from .scalars import (
    QQ,
    TowerDesc,
    TowerElem,
    adjoin_sqrt,
    _elem,
    _frac_sqrt,
    tower_join,
)


# steps per rhombus chain, whose points, work and file grow with them; a side-1
# chain of span 10,240 takes exactly this many, and a longer one is refused
MAX_CHAIN_STEPS = 10_240


class GadgetError(ValueError):
    pass


class DegenerateSegment(GadgetError):
    pass


class TOutOfRange(GadgetError):
    pass


class NotATranslate(GadgetError):
    pass


class IrrationalSide(GadgetError):
    pass


class DegenerateLinkage(GadgetError):
    pass


class NotPerpendicular(GadgetError):
    pass


class UnreachableRatio(GadgetError):
    pass


class CoincidentInputs(GadgetError):
    pass


class InvalidGadget(GadgetError):
    """Self-consistency validation failed (bad certificate, side pair, or goal)."""


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineComb:
    """f(c) = t*f(a) + (1-t)*f(b)."""

    c: str
    a: str
    b: str
    t: Fraction

    def holds(self, p: Mapping[str, Point] | PointTable) -> bool:
        return point_table(p).relation_vanishes(_linear_relation(self))


@dataclass(frozen=True)
class VecEq:
    """f(b) - f(a) = f(d) - f(c)."""

    a: str
    b: str
    c: str
    d: str

    def holds(self, p: Mapping[str, Point] | PointTable) -> bool:
        return point_table(p).relation_vanishes(_linear_relation(self))


@dataclass(frozen=True)
class VecScale:
    """f(b) - f(a) = r * (f(d) - f(c))."""

    a: str
    b: str
    c: str
    d: str
    r: Fraction

    def holds(self, p: Mapping[str, Point] | PointTable) -> bool:
        return point_table(p).relation_vanishes(_linear_relation(self))


@dataclass(frozen=True)
class DotZero:
    """(f(b) - f(a)) . (f(d) - f(c)) = 0."""

    a: str
    b: str
    c: str
    d: str

    def holds(self, p: Mapping[str, Point] | PointTable) -> bool:
        return point_table(p).dot_vanishes((self.b, self.a), (self.d, self.c))


def _linear_relation(fact) -> dict[str, int] | None:
    """The formal linear relation a vector fact imposes on the image points,
    scaled by the denominator of its ratio to integer coefficients; a
    coefficient that cancels is dropped.  None for any other fact.  The span
    rule of the deduction engine and the vector facts' ``holds`` both read
    it."""
    if isinstance(fact, VecEq):
        terms = ((fact.b, 1), (fact.a, -1), (fact.d, -1), (fact.c, 1))
    elif isinstance(fact, VecScale):
        p, q = fact.r.numerator, fact.r.denominator
        terms = ((fact.b, q), (fact.a, -q), (fact.d, -p), (fact.c, p))
    elif isinstance(fact, AffineComb):
        p, q = fact.t.numerator, fact.t.denominator
        terms = ((fact.c, q), (fact.a, -p), (fact.b, p - q))
    else:
        return None
    out: dict[str, int] = {}
    for name, value in terms:
        value += out.get(name, 0)
        if value:
            out[name] = value
        else:
            out.pop(name, None)
    return out


Goal = Union[AffineComb, VecEq, VecScale, DotZero]


def layout_goal(layout: Mapping) -> Goal:
    """The fact a layout forces; builders state it as their goal and replay
    scripts conclude it."""
    kind = layout["kind"]
    if kind == "division":
        roles = layout["roles"]
        return AffineComb(c=roles["C"], a=roles["A"], b=roles["B"], t=layout["t"])
    if kind == "chain":
        track1, track2 = layout["track1"], layout["track2"]
        return VecEq(a=track1[0], b=track1[-1], c=track2[0], d=track2[-1])
    if kind == "bridge":
        first, last = layout_goal(layout["sub"][0]), layout_goal(layout["sub"][-1])
        return VecEq(a=first.a, b=first.b, c=last.c, d=last.d)
    if kind == "scale":
        (c, d), (a, b) = layout["src"], layout["dst"]
        return VecScale(a=a, b=b, c=c, d=d, r=layout["r"])
    if kind == "kempe":
        roles = layout["roles"]
        return DotZero(a=roles["D"], b=roles["E"], c=roles["A"], d=roles["B"])
    if kind == "perp":
        pq, xy = layout_goal(layout["scale_pq"]), layout_goal(layout["scale_xy"])
        return DotZero(a=pq.a, b=pq.b, c=xy.a, d=xy.b)
    raise InvalidGadget(f"unknown layout kind {kind!r}")


@dataclass(frozen=True)
class CertEntry:
    p: str
    q: str
    d2: Fraction


@dataclass
class Gadget:
    """A named point configuration with its forcing data.

    Treated as immutable after construction, so concurrent consumers share
    gadgets freely.  Constructors do not validate; each consumer of a built
    gadget does: replay (``engine.assert_certificate``), the ``gadget``
    subcommand before it writes, and the suite's replay corpus.
    """

    tower: TowerDesc
    points: dict[str, Point]
    certificate: tuple[CertEntry, ...]
    side_conditions: tuple[tuple[str, str], ...]
    goal: Goal
    layout: dict

    def validate(self) -> None:
        """Check each certificate entry, side condition and the goal on the
        coordinates, classified once into one ``cm.point_table``."""
        points = point_table(self.points)
        for entry in self.certificate:
            if entry.p not in self.points or entry.q not in self.points:
                raise InvalidGadget(f"certificate references unknown point {entry.p}/{entry.q}")
            if not points.sqdist_is(entry.p, entry.q, entry.d2):
                raise InvalidGadget(
                    f"certificate mismatch for ({entry.p},{entry.q}): stored {entry.d2}, got {points.sqdist(entry.p, entry.q)}"
                )
        for a, b in self.side_conditions:
            if points.same(a, b):
                raise InvalidGadget(f"side condition {a} != {b} fails on coordinates")
        if not self.goal.holds(points):
            raise InvalidGadget("goal fails on the gadget's own coordinates")


# ---------------------------------------------------------------------------
# Assembly: merges sub-constructions, canonicalizing names by coordinates.
# ---------------------------------------------------------------------------


def _pair(p: str, q: str) -> tuple[str, str]:
    """An unordered name pair as its ordered tuple."""
    return (p, q) if p <= q else (q, p)


class _Builder:
    def __init__(self) -> None:
        self.points: dict[str, Point] = {}
        # name of each point by value: equal points hash equal across towers,
        # and a lookup confirms with exact ``==``
        self._names: dict[Point, str] = {}
        self.certificate: dict[tuple[str, str], Fraction] = {}
        self.cert_order: list[tuple[str, str]] = []
        self.side_conditions: list[tuple[str, str]] = []
        # each side condition's unordered pair, so a reversed pair is not added twice
        self._sides: set[tuple[str, str]] = set()

    def add_point(self, name: str, point: Point) -> str:
        existing = self._names.get(point)
        if existing is not None:
            return existing
        if name in self.points:
            base, k = name, 2
            while f"{base}_{k}" in self.points:
                k += 1
            name = f"{base}_{k}"
        self.points[name] = point
        self._names[point] = name
        return name

    def add_cert(self, p: str, q: str, d2: Fraction) -> None:
        key = _pair(p, q)
        if key in self.certificate:
            if self.certificate[key] != d2:
                raise InvalidGadget(f"conflicting certificate values for {key}")
            return
        self.certificate[key] = d2
        self.cert_order.append(key)

    def add_side(self, p: str, q: str) -> None:
        key = _pair(p, q)
        if key not in self._sides:
            self._sides.add(key)
            self.side_conditions.append((p, q))

    def finish(self, layout: dict) -> Gadget:
        points, tower = _minimize_points(self.points)
        return Gadget(
            tower=tower,
            points=points,
            certificate=tuple(
                CertEntry(p, q, self.certificate[(p, q)]) for p, q in self.cert_order
            ),
            side_conditions=tuple(self.side_conditions),
            goal=layout_goal(layout),
            layout=layout,
        )


def _minimize_points(points: Mapping[str, Point]) -> tuple[dict[str, Point], TowerDesc]:
    """Unify all coordinates into one join tower, then drop unused generators.

    The join folds the distinct coordinate towers in insertion order through
    ``tower_join``, once per distinct tower (a tower object is looked up by
    value once).  Each join extends the one before, so a coordinate goes in
    by its tower's ``into``, once, and is then one element over the join's
    shortest prefix that holds every image, which every coordinate shares.
    Coordinates and points already over that tower object are kept.
    """
    join, into, seen = QQ, {}, {}
    for p in points.values():
        for tower in (p.x.tower, p.y.tower):
            if id(tower) not in seen:
                if tower not in into:
                    join, into[tower] = tower_join(join, tower)
                seen[id(tower)] = into[tower]
    images = {name: (p.x, p.y) if p.x.tower is join is p.y.tower else [seen[id(c.tower)](c) for c in (p.x, p.y)] for name, p in points.items()}
    depth = 0
    for c in [c for xy in images.values() for c in xy]:
        while any(c._n[1 << depth :]):
            depth += 1
    tower = join.prefix(depth)
    pad = (0,) * tower.dim

    def fit(c: TowerElem) -> TowerElem:
        return c if c.tower is tower else _elem(tower, (c._n + pad)[: len(pad)], c._d)

    out = {name: p if p.x.tower is tower is p.y.tower else Point(*map(fit, images[name])) for name, p in points.items()}
    return out, tower


# ---------------------------------------------------------------------------
# Exact circle intersections
# ---------------------------------------------------------------------------


def circle_intersection(p1: Point, s1, p2: Point, s2) -> Point:
    """A point at squared distance s1 from p1 and s2 from p2: the one on the
    left of the line from p1 to p2, whose component along (p2-p1) rotated by
    +90 degrees is the positive root.  Adjoins one square root unless the
    circles are tangent.
    """
    v = p2 - p1
    q = v.dot(v)
    if q.is_zero():
        raise DegenerateSegment("circle centers coincide")
    alpha = (s1 - s2 + q) / (2 * q)
    beta_sq = s1 / q - alpha * alpha
    sign = beta_sq.sign()
    if sign < 0:
        raise GadgetError("circles do not intersect")
    base = p1 + v.scaled(alpha)
    if sign == 0:
        return base
    beta = adjoin_sqrt(beta_sq.tower, beta_sq).root
    return Point(base.x - beta * v.y, base.y + beta * v.x)


def second_intersection_through(p1: Point, p2: Point, known: Point) -> Point:
    """The other intersection of two circles that are known to meet at ``known``:
    the reflection of ``known`` across the line of centers.  Radical-free."""
    v = p2 - p1
    q = v.dot(v)
    if q.is_zero():
        raise DegenerateSegment("circle centers coincide")
    u = known - p1
    return p1 + v.scaled((2 * u.dot(v)) / q) + (-u)


# ---------------------------------------------------------------------------
# Division gadget (rational section of a segment)
# ---------------------------------------------------------------------------


def choose_division_radius(ab_sq: TowerElem, t: Fraction) -> Fraction:
    """Deterministic rational radius: |AB| < r, plus r < |AB|/|1-2t| for t != 1/2.

    For t = 1/2 this is the smallest integer above |AB|; otherwise the
    smallest-denominator rational in the open interval, by mediant search
    with exact tower ordering.
    """
    if t == Fraction(1, 2):
        return Fraction(least_int_above_sqrt(ab_sq, strict=True))
    bound = Fraction(1) - 2 * t
    hi_sq = ab_sq * (1 / (bound * bound))
    return simplest_rational_between_sqrts(ab_sq, hi_sq)


def _emit_division(builder: _Builder, a: Point, b: Point, t: Fraction, r: Fraction | None = None, hint: str = "") -> dict:
    """Emit the six-point division configuration; returns its layout.  The
    radius is ``choose_division_radius`` unless r is given."""
    if r is None:
        r = choose_division_radius(sqdist(a, b), t)
    one = Fraction(1)
    d = circle_intersection(a, ((one - t) * r) ** 2, b, (t * r) ** 2)
    e = a + (d - a).scaled(one - t)
    f = b + (d - b).scaled(t)
    c = a + (b - a).scaled(one - t)
    names = {
        role: builder.add_point(hint + role, point)
        for role, point in zip("ABCDEF", (a, b, c, d, e, f))
    }
    base = t * (one - t) * r
    for roles, value in (
        (("A", "E"), (((one - t) ** 2) * r) ** 2),
        (("E", "D"), base**2),
        (("A", "D"), ((one - t) * r) ** 2),
        (("B", "F"), ((t**2) * r) ** 2),
        (("F", "D"), base**2),
        (("B", "D"), (t * r) ** 2),
        (("E", "C"), base**2),
        (("F", "C"), base**2),
    ):
        builder.add_cert(names[roles[0]], names[roles[1]], value)
    builder.add_side(names["E"], names["F"])
    builder.add_side(names["C"], names["D"])
    return {"kind": "division", "t": t, "r": r, "roles": names}


def build_division(a: Point, b: Point, t: Fraction, r: Fraction | None = None) -> Gadget:
    """Points and certificate forcing f(C) = t f(A) + (1-t) f(B) for C = tA+(1-t)B."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise TOutOfRange(f"t = {t} is not in (0, 1)")
    if a == b:
        raise DegenerateSegment("A = B")
    if r is not None:
        r = Fraction(r)
        ab_sq = sqdist(a, b)
        if r <= 0 or cmp_with_sqrt(r, ab_sq) <= 0:
            raise GadgetError(f"r = {r} does not exceed |AB|")
        if t != Fraction(1, 2) and cmp_with_sqrt(r * abs(1 - 2 * t), ab_sq) >= 0:
            raise GadgetError(f"r = {r} is too large for t = {t}")
    builder = _Builder()
    return builder.finish(_emit_division(builder, a, b, t, r))


# ---------------------------------------------------------------------------
# Rhombus chains and the translation bridge
# ---------------------------------------------------------------------------


def _chain_steps(v: Vec2, w: Vec2, s: Fraction, tower: TowerDesc) -> list[Vec2]:
    """Step vectors of length s summing to v, none equal to +-w.

    The translation splits into equal collinear chunks of length at most 2s,
    each realized as two steps v_c/2 +- h*n, the sign alternating per chunk.
    A chunk count whose two step vectors include +-w is passed over for the
    next one; each count builds the two vectors, and tests them, once.  A
    count of more than ``MAX_CHAIN_STEPS`` steps raises ``GadgetError``.
    h is adjoined over ``tower`` (w's, joined with v's), where the chain's
    points live, so a chain makes no sibling tower for the build to merge.
    """
    q_v = v.dot(v)
    s_sq = QQ.rational(s * s)
    minus_w = -w
    k0 = max(1, least_int_above_sqrt(q_v / (4 * s * s), strict=False))
    for k in range(k0, k0 + 12):
        if 2 * k > MAX_CHAIN_STEPS:
            raise GadgetError(f"the rhombus chain needs {2 * k} steps, more than MAX_CHAIN_STEPS = {MAX_CHAIN_STEPS}")
        chunk = v.scaled(Fraction(1, k))
        q_c = chunk.dot(chunk)
        beta_sq = (s_sq - q_c * Fraction(1, 4)) / q_c
        if beta_sq.sign() < 0:
            continue
        half = chunk.scaled(Fraction(1, 2))
        distinct = [half]
        if not beta_sq.is_zero():
            delta = Vec2(-chunk.y, chunk.x).scaled(adjoin_sqrt(tower, beta_sq).root)
            distinct = [half + delta, half - delta]
        if all(not step == w and not step == minus_w for step in distinct):
            return ((distinct + distinct[::-1]) * k)[: 2 * k]  # up, down, down, up, ...
    raise GadgetError("no admissible rhombus chain decomposition found")


def _emit_chain(builder: _Builder, a: Point, b: Point, c: Point, d: Point, prefix1: str, prefix2: str) -> dict:
    """Emit one rhombus chain transporting (a -> b) onto (c -> d); returns layout."""
    v = b - a
    if not (d - c) == v:
        raise NotATranslate("D - C differs from B - A")
    w = c - a
    if v.is_zero():
        n_a = builder.add_point(f"{prefix1}0", a)
        n_c = builder.add_point(f"{prefix2}0", c)
        return {"kind": "chain", "track1": [n_a], "track2": [n_c], "side_sq": None}
    if w.is_zero():
        n_a = builder.add_point(f"{prefix1}0", a)
        n_b = builder.add_point(f"{prefix1}1", b)
        return {"kind": "chain", "track1": [n_a, n_b], "track2": [n_a, n_b], "side_sq": None}
    w2 = w.dot(w)
    if not w2.is_rational():
        raise IrrationalSide(f"|AC|^2 = {w2} is not rational")
    s = _frac_sqrt(w2.as_fraction())
    if s is None:
        raise IrrationalSide(f"|AC|^2 = {w2.as_fraction()} is not the square of a rational")
    steps = _chain_steps(v, w, s, w2.tower)
    s2 = s * s
    track1 = [builder.add_point(f"{prefix1}0", a)]
    track2 = [builder.add_point(f"{prefix2}0", c)]
    current = a
    for i, step in enumerate(steps, start=1):
        current = current + step
        track1.append(builder.add_point(f"{prefix1}{i}", current))
        track2.append(builder.add_point(f"{prefix2}{i}", current + w))
    for i in range(len(track1)):
        builder.add_cert(track1[i], track2[i], s2)
        if i + 1 < len(track1):
            builder.add_cert(track1[i], track1[i + 1], s2)
            builder.add_cert(track2[i], track2[i + 1], s2)
    for i in range(len(track1) - 1):
        builder.add_side(track1[i], track2[i + 1])
        builder.add_side(track2[i], track1[i + 1])
    return {"kind": "chain", "track1": track1, "track2": track2, "side_sq": s2}


def build_rhombus_chain(a: Point, b: Point, c: Point, d: Point) -> Gadget:
    """Transport f(B)-f(A) = f(D)-f(C) along congruent rhombi with rational side;
    degenerate translations yield the trivial chain."""
    builder = _Builder()
    return builder.finish(_emit_chain(builder, a, b, c, d, "A", "C"))


def _emit_bridge(builder: _Builder, a: Point, b: Point, c: Point, d: Point, prefix: str) -> dict:
    """Emit a translation bridge for arbitrary |AC|: one chain when |AC| is
    rational (``_emit_chain`` raises ``IrrationalSide`` before it adds a
    point otherwise), else two chains through a point at an integer distance
    from A and C; returns layout."""
    try:
        return {"kind": "bridge", "sub": [_emit_chain(builder, a, b, c, d, f"{prefix}A", f"{prefix}C")]}
    except IrrationalSide:
        pass
    w = c - a
    q = Fraction(least_int_above_sqrt(w.dot(w), strict=False))
    e = circle_intersection(a, q * q, c, q * q)
    f = e + (b - a)
    sub1 = _emit_chain(builder, a, b, e, f, f"{prefix}A", f"{prefix}E")
    sub2 = _emit_chain(builder, e, f, c, d, f"{prefix}G", f"{prefix}C")
    return {"kind": "bridge", "sub": [sub1, sub2]}


def build_translation_bridge(a: Point, b: Point, c: Point, d: Point) -> Gadget:
    """Transport f(B)-f(A) = f(D)-f(C) for an arbitrary translate pair, inserting
    auxiliary points at rational distances when |AC| is irrational."""
    builder = _Builder()
    return builder.finish(_emit_bridge(builder, a, b, c, d, ""))


# ---------------------------------------------------------------------------
# Kempe linkage
# ---------------------------------------------------------------------------

KEMPE_SQ_DISTANCES: dict[tuple[str, str], Fraction] = {
    ("A", "B"): Fraction(16),
    ("A", "D"): Fraction(16),
    ("C", "B"): Fraction(4),
    ("C", "D"): Fraction(4),
    ("C", "E"): Fraction(4),
    ("A", "F"): Fraction(9),
    ("F", "B"): Fraction(1),
    ("F", "E"): Fraction(1),
}

# role pairs whose image distance the linkage rule needs to be nonzero
KEMPE_NONZERO_PAIRS: tuple[tuple[str, str], ...] = (("B", "D"), ("B", "E"), ("C", "F"))

# the squared distances the linkage leaves free, named as in the identities
KEMPE_UNKNOWNS: dict[tuple[str, str], str] = {
    ("B", "D"): "a",
    ("A", "C"): "b",
    ("B", "E"): "c",
    ("C", "F"): "d",
    ("A", "E"): "e",
}

KEMPE_SYMBOLS: dict[str, poly.Polynomial] = dict(zip("abcde", poly.variables("a b c d e")))


def kempe_quad_distances(quad: str, unknowns: Mapping[str, object] = KEMPE_SYMBOLS) -> tuple:
    """The six squared distances of a role quad in ``cm4`` argument order: the
    linkage's certified values, and ``unknowns[name]`` for the free pairs."""
    named = {frozenset(pair): value for pair, value in KEMPE_SQ_DISTANCES.items()}
    named.update({frozenset(pair): unknowns[name] for pair, name in KEMPE_UNKNOWNS.items()})
    return tuple(named[frozenset(pair)] for pair in combinations(quad, 2))


@dataclass(frozen=True)
class KempeIdentity:
    """One bordered-determinant factorization certifying the linkage rule:
    det(quad), after the optional substitution, equals constant * factors."""

    quad: str
    substitution: tuple[str, poly.Polynomial] | None
    constant: int
    factors: tuple
    rendered: str

    @property
    def name(self) -> str:
        label = f"det({','.join(self.quad)})"
        if self.substitution is not None:
            var, replacement = self.substitution
            label += f" at {var}={str(replacement).replace('*', '')}"
        return label

    def matrix(self) -> list[list]:
        return bordered_matrix(kempe_quad_distances(self.quad), 4)

    def determinant(self) -> poly.Polynomial:
        value = poly.det(self.matrix())
        if self.substitution is not None:
            var, replacement = self.substitution
            value = value.substitute({var: replacement})
        return value

    def holds(self) -> bool:
        return poly.identity_check(self.determinant(), self.constant, self.factors)


def _kempe_identities() -> tuple[KempeIdentity, ...]:
    a, b, c, d, e = KEMPE_SYMBOLS.values()
    return (
        KempeIdentity("ABEF", None, -2, ((e - 16 + 3 * c, 2),), "-2*(e - 16 + 3c)^2"),
        KempeIdentity("ABCF", None, -2, ((b - 4 * d, 2),), "-2*(b - 4d)^2"),
        KempeIdentity(
            "ABCD", ("b", 4 * d), -8, (a, a * d + 4 * (d * d - 10 * d + 9)), "-8a*(ad + 4(d^2 - 10d + 9))"
        ),
        KempeIdentity("BCEF", None, -2, (c, c * d + d * d - 10 * d + 9), "-2c*(cd + d^2 - 10d + 9)"),
    )


KEMPE_IDENTITIES = _kempe_identities()


def _kempe_points(t: TowerElem) -> dict[str, Point]:
    """The six linkage points for circle parameter t; exact in t's field."""
    tower = t.tower
    cos, sin = circle_point(t)
    a = Point(tower.rational(0), tower.rational(0))
    b = Point(tower.rational(4), tower.rational(0))
    f = Point(tower.rational(3), tower.rational(0))
    c = Point(b.x + 2 * cos, b.y + 2 * sin)
    d = second_intersection_through(a, c, b)
    e = second_intersection_through(c, f, b)
    return {"A": a, "B": b, "C": c, "D": d, "E": e, "F": f}


def _emit_kempe(builder: _Builder, t, placement: tuple | None = None) -> dict:
    """Emit the linkage for parameter t; returns layout.  With
    ``placement = (cos, sin, origin)`` each point p goes to origin + R p, R
    the rotation by (cos, sin), so A (at 0) lands on origin."""
    t_elem = QQ.rational(Fraction(t)) if isinstance(t, (int, Fraction)) else t
    if t_elem.is_zero():
        raise DegenerateLinkage("t = 0 makes circle(A,4) tangent to circle(C,2) at B")
    pts = _kempe_points(t_elem)
    if placement is not None:
        cos0, sin0, origin = placement
        pts = {
            name: Point(
                origin.x + cos0 * p.x - sin0 * p.y,
                origin.y + sin0 * p.x + cos0 * p.y,
            )
            for name, p in pts.items()
        }
    if pts["D"] == pts["B"]:
        raise DegenerateLinkage("circle(A,4) is tangent to circle(C,2): D = B")
    if pts["E"] == pts["B"]:
        raise DegenerateLinkage("circle(C,2) is tangent to circle(F,1): E = B")
    names = {role: builder.add_point(role, p) for role, p in pts.items()}
    for (p_role, q_role), value in KEMPE_SQ_DISTANCES.items():
        builder.add_cert(names[p_role], names[q_role], value)
    builder.add_side(names["B"], names["D"])
    builder.add_side(names["B"], names["E"])
    return {
        "kind": "kempe",
        "t": t_elem.as_fraction() if t_elem.is_rational() else t_elem,
        "roles": names,
    }


def build_kempe(t) -> Gadget:
    """The linkage fragment with distances 1,2,3,4 forcing DE perpendicular to AB."""
    builder = _Builder()
    return builder.finish(_emit_kempe(builder, t))


def kempe_de_length(t: Fraction) -> Fraction:
    """|DE| of the rational-parameter linkage: 24t/(t^2+9) for t > 0."""
    t = Fraction(t)
    return 24 * t / (t * t + 9)


# ---------------------------------------------------------------------------
# Perpendicularity transfer
# ---------------------------------------------------------------------------


def _emit_scale(builder: _Builder, src: tuple[str, str], dst: tuple[str, str], r: Fraction, prefix: str) -> dict:
    """Emit auxiliary structure certifying f(dst1)-f(dst0) = r*(f(src1)-f(src0)).

    Requires the domain relation dst1 - dst0 = r*(src1 - src0).  Composes a
    translation bridge with a division gadget; negative ratios reflect through
    a midpoint, ratios above one divide the translated unit instead.
    """
    a_name, b_name = src
    c_name, d_name = dst
    pa, pb = builder.points[a_name], builder.points[b_name]
    pc, pd = builder.points[c_name], builder.points[d_name]
    v = pb - pa
    if not (pd - pc) == v.scaled(r):
        raise GadgetError("scale relation does not hold on domain coordinates")
    layout: dict = {
        "kind": "scale",
        "src": [a_name, b_name],
        "dst": [c_name, d_name],
        "r": r,
        "sub": [],
    }
    if r == 0 or v.is_zero():
        return layout
    if r == 1:
        layout["sub"].append(_emit_bridge(builder, pa, pb, pc, pd, prefix))
        return layout
    if r > 0:
        translated = pc + v
        t_name = builder.add_point(f"{prefix}T", translated)
        layout["translated"] = t_name
        layout["sub"].append(_emit_bridge(builder, pa, pb, pc, translated, prefix))
        end, t = (translated, r) if r < 1 else (pd, 1 / r)
        layout["sub"].append(_emit_division(builder, end, pc, t, hint=f"{prefix}d"))
        return layout
    # r < 0: realize U = C + |r|v, then C is the midpoint of D and U.
    mirrored = pc + v.scaled(-r)
    u_name = builder.add_point(f"{prefix}U", mirrored)
    layout["mirror"] = u_name
    layout["sub"].append(_emit_scale(builder, src, (c_name, u_name), -r, prefix + "m"))
    layout["sub"].append(_emit_division(builder, pd, mirrored, Fraction(1, 2), hint=f"{prefix}d"))
    return layout


def _solve_kempe_parameter(kappa: TowerElem) -> tuple:
    """Linkage parameter t and rational r with kappa = r * |DE(t)| exactly.

    A rational component uses t = 1, where |DE| = 12/5; an irrational one
    solves 24t/(t^2+9) = |kappa|/r for t, which is a quadratic, after
    choosing r so the target length lands strictly inside (0, 4).
    """
    if kappa.is_rational():
        return QQ.rational(1), kappa.as_fraction() / kempe_de_length(Fraction(1))
    sign = kappa.sign()
    mag = kappa if sign > 0 else -kappa
    mag_sq = mag * mag
    r_mag = simplest_rational_between_sqrts(mag_sq * Fraction(1, 16), mag_sq * Fraction(1, 4))
    target = mag * (1 / r_mag)  # |DE| target, strictly inside (2, 4)
    disc = 144 - 9 * target * target
    res = adjoin_sqrt(disc.tower, disc)
    root = res.root
    target_l = target.lift(res.tower)
    for branch in (-1, 1):
        t_param = (res.tower.rational(12) + branch * root) / target_l
        if t_param.minimized().tower.depth > 3:
            continue
        linkage = _kempe_points(t_param)
        if linkage["D"] == linkage["B"] or linkage["E"] == linkage["B"]:
            continue
        return t_param, (r_mag if sign > 0 else -r_mag)
    raise UnreachableRatio("parameter solve exceeds supported radical nesting")


def build_perp_transfer(p: Point, q: Point, x: Point, y: Point) -> Gadget:
    """A rotated Kempe linkage plus ratio transfers witnessing that
    f(Q)-f(P) stays perpendicular to f(Y)-f(X)."""
    vpq = q - p
    vxy = y - x
    if vpq.is_zero() or vxy.is_zero():
        raise CoincidentInputs("P = Q or X = Y")
    if not _is_zero(vpq.dot(vxy)):
        raise NotPerpendicular("PQ is not perpendicular to XY")
    qxy = vxy.dot(vxy)
    s_xy = _frac_sqrt(qxy.as_fraction()) if qxy.is_rational() else None
    if s_xy is None:
        raise UnreachableRatio("|XY| must be rational to anchor the linkage")
    inv = 1 / s_xy
    cos0 = vxy.x * inv
    sin0 = vxy.y * inv
    # PQ = kappa * (the unit DE direction after rotation)
    kappa = -vpq.x * sin0 + vpq.y * cos0
    t_param, r = _solve_kempe_parameter(kappa)
    builder = _Builder()
    p_name = builder.add_point("P", p)
    q_name = builder.add_point("Q", q)
    x_name = builder.add_point("X", x)
    y_name = builder.add_point("Y", y)
    layout_kempe = _emit_kempe(builder, t_param, placement=(cos0, sin0, p))
    roles = layout_kempe["roles"]
    s = s_xy / 4
    scale_pq = _emit_scale(builder, (roles["E"], roles["D"]), (p_name, q_name), r, "p")
    scale_xy = _emit_scale(builder, (roles["A"], roles["B"]), (x_name, y_name), s, "x")
    layout = {
        "kind": "perp",
        "kempe": layout_kempe,
        "scale_pq": scale_pq,
        "scale_xy": scale_xy,
        "r": r,
        "s": s,
    }
    return builder.finish(layout)

