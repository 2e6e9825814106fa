"""Concrete unit-distance preserving maps of the composed form: a field
embedding applied coordinatewise, followed by an affine map with exactly
orthonormal linear part.

Embeddings are represented on finitely generated subfields only (quadratic
towers): the identity, a generator-flipping conjugation, and the inclusion
into the rational function field K(eps).  Conjugations are the honest
computable stand-in for wild homomorphisms out of the reals; they falsify any
deduction rule that would illegitimately assume continuity or order
preservation.

Images are built on the integer form, one kernel per embedding kind and frame
shape the package constructs.  An embedding maps an integer vector by one
method, ``Embedding.map_vector``: identity and inclusion keep it, and a
conjugation of an element over a prefix of its domain pads the vector and
flips the signs of the coordinates that hold the generator.  A rational
frame takes a*x + b*y + c on the integer vectors
(``scalars.tower_frame_kernel``); a K(eps) frame over Q on one denominator
D builds each image numerator from its rational rows, and the images over
one tower share one lifted D (``scalars.fun_frame_kernel``), which their
point table packs and squares once (``cm._PackedTable``).  Every other
carrier takes the generic formula: frames with irrational or mixed entries,
``FunElem`` inputs, points outside a conjugation's domain prefix.  Both
give the same canonical pairs.  The generic conjugation carries a point
into its domain by ``scalars.tower_join``.  Every embedding fixes Q, so
``int`` and ``Fraction`` values are elements of Q.

The reports decide their equations on ``cm.point_table``s, which pick the
carrier, and so the integer kernel where the images allow it, once per
table.  Preservation classifies the source points once and their images
once, each into a ``cm.point_table``, and decides a ``ModelMap``'s pair of
points over Q or one tower at the cost of two kernels: the source squared
distance v stays the unreduced n/k of the table's ``sqdist_num`` (over Q an
integer over k^2); a rational v must have rho(v) == v, ``map_vector``
leaving n unchanged, and the image pair is compared with v, the integers
(n[0], k), by the images' ``sqdist_is_form``.  Any other v is built once,
from n/k where the source table has it, and compared with ``rho(v)`` by
``sqdist_is``; every table's tests answer, so preservation has no fallback.
An embedding other than the identity is undefined on a ``FunElem``, which
lies in no quadratic tower (``OutOfDomain``).  Structure names its sample
points once (the origin, the directions u, the sums u + v and the
multiples lambda u), maps each point object once, keyed by the object, and
decides every test on the one ``cm.point_table`` of the images:
additivity as m(u + v) - m(u) - m(v) + m(0) = 0 (``relation_vanishes``),
and scaling of phi(u) = a - o to phi(lambda u) = b - o as a != o, once per
direction, and b - o = rho (a - o) (``scaled_is``), building no quotient.
Both reports map a point object the first time they meet it; equal points
built as distinct objects are mapped apiece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Sequence

from .cm import Point, PointTable, _is_zero, _one_tower, circle_point, point_table
from .scalars import (
    QQ,
    FunElem,
    IVec,
    TowerDesc,
    TowerElem,
    _canon,
    _elem,
    fun_frame_kernel,
    tower_conjugate,
    tower_frame_kernel,
    tower_join,
)


class ModelError(ValueError):
    pass


class OutOfDomain(ModelError):
    """A coordinate does not lie in the embedding's domain tower."""


class NonOrthogonalFrame(ModelError):
    """The linear part's columns are not exactly orthonormal."""


class DegenerateParameter(ModelError):
    """1 + t^2 = 0: the circle parametrization is undefined."""


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """A field homomorphism defined on a quadratic tower.

    kinds: ``identity`` (any tower), ``conjugation`` (flip one generator of a
    fixed domain tower), ``function_field`` (include the tower into K(eps)).
    """

    kind: str
    domain: TowerDesc = QQ
    generator: int | None = None
    # a conjugation's sign per domain coordinate: -1 where the basis element
    # holds the flipped generator
    _signs: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "conjugation", "function_field"):
            raise ModelError(f"unknown embedding kind {self.kind!r}")
        if self.kind == "conjugation":
            if self.generator is None:
                raise ModelError("conjugation embedding needs a generator index")
            # validates the index and that flipping extends to an automorphism
            tower_conjugate(self.domain.zero(), self.generator)
            signs = tuple([-1 if mask >> self.generator & 1 else 1 for mask in range(self.domain.dim)])
            object.__setattr__(self, "_signs", signs)

    def apply_scalar(self, x: TowerElem):
        if self.kind == "identity":
            return x
        if isinstance(x, FunElem):
            raise OutOfDomain(f"{x!r} lies in K(eps), not in a quadratic tower")
        if self.kind == "conjugation":
            if isinstance(x, TowerElem):
                mapped = self.map_vector(x.tower, x._n)
                if mapped is not None:
                    return _elem(*mapped, x._d)
            if isinstance(x, (int, Fraction)):
                return self.domain.rational(x)  # every embedding fixes Q
            return tower_conjugate(self._into_domain(x), self.generator)
        return FunElem.constant(x)

    def map_vector(self, tower: TowerDesc, n: IVec) -> tuple[TowerDesc, IVec] | None:
        """The image of an element of ``tower`` given by its integer vector
        n, over the same denominator: (image tower, image vector).  Identity
        and inclusion keep n (a constant of K(eps) has the form of its tower
        element); a conjugation of an element over a prefix of its domain
        pads n and flips the signs of the generator's coordinates.  None for an
        element outside a conjugation's domain prefix."""
        if self.kind != "conjugation":
            return tower, n
        domain = self.domain
        if tower is domain or tower.is_prefix_of(domain):
            return domain, tuple(map(mul, n, self._signs)) + (0,) * (domain.dim - len(n))
        return None

    def _into_domain(self, x: TowerElem) -> TowerElem:
        """x over the domain, by value: the join (``tower_join``) extends the
        domain, and x lies in the domain iff it has no coordinate past
        ``domain.dim``; dropping zero coordinates keeps the pair canonical."""
        dim = self.domain.dim
        lifted = tower_join(self.domain, x.tower)[1](x)
        if any(lifted._n[dim:]):
            raise OutOfDomain(f"{x} does not lie in the embedding domain {self.domain}")
        return _elem(self.domain, lifted._n[:dim], lifted._d)


# ---------------------------------------------------------------------------
# Orthogonal-affine frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthoAffine:
    """Affine map with exactly orthonormal linear part, over any carrier.

    ``apply`` is the formula.  Two frame shapes also carry a kernel that maps
    two ``TowerElem``s of one tower straight to the image point on the
    integer form: a rational frame (every entry an ``int`` or ``Fraction``)
    and a K(eps) frame (every matrix entry a ``FunElem`` over Q, all over one
    denominator D, no translation), whose kernel includes the tower elements
    into K(eps) itself.
    """

    matrix: tuple[tuple, tuple]  # rows ((m00, m01), (m10, m11))
    translation: tuple | None = None
    _kernel: Callable | None = field(default=None, init=False, repr=False, compare=False)
    _kfield: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (m00, m01), (m10, m11) = self.matrix
        col1_sq = m00 * m00 + m10 * m10
        col2_sq = m01 * m01 + m11 * m11
        cross = m00 * m01 + m10 * m11
        if not (col1_sq == 1 and col2_sq == 1 and _is_zero(cross)):
            raise NonOrthogonalFrame("columns are not orthonormal under the squared-distance form")
        fun_kernel = fun_frame_kernel(self.matrix, self.translation)
        object.__setattr__(self, "_kernel", fun_kernel or tower_frame_kernel(self.matrix, self.translation))
        object.__setattr__(self, "_kfield", fun_kernel is not None)

    def apply(self, x, y) -> tuple:
        (m00, m01), (m10, m11) = self.matrix
        out_x = m00 * x + m01 * y
        out_y = m10 * x + m11 * y
        if self.translation is not None:
            out_x = out_x + self.translation[0]
            out_y = out_y + self.translation[1]
        return out_x, out_y


def make_pythagorean_rotation(t, reflection: bool = False, translation: tuple | None = None) -> OrthoAffine:
    """Rotation (or reflection) whose linear part is the point
    (a, b) = ``cm.circle_point(t)`` of the unit circle; exact in any carrier."""
    try:
        a, b = circle_point(t)
    except ZeroDivisionError:
        raise DegenerateParameter("1 + t^2 = 0") from None
    if reflection:
        rows = ((a, b), (b, -a))
    else:
        rows = ((a, -b), (b, a))
    return OrthoAffine(matrix=rows, translation=translation)


# ---------------------------------------------------------------------------
# Model maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelMap:
    """Embedding applied coordinatewise, then an orthogonal-affine frame."""

    embedding: Embedding
    frame: OrthoAffine | None = None

    def apply(self, p: Point) -> Point:
        """The image of ``p``.  Two tower elements of one tower go through the
        frame's kernel, if it has one (see ``OrthoAffine``); under the
        inclusion into K(eps) only a K(eps) frame's kernel applies, and it
        includes them itself.  Other carriers take the formula."""
        x, y = p.x, p.y
        frame = self.frame
        includes = self.embedding.kind == "function_field" and frame is not None and frame._kfield
        if includes and _one_tower((x, y)) is not None:
            return Point(*frame._kernel(x, y))
        x = self.embedding.apply_scalar(x)
        y = self.embedding.apply_scalar(y)
        if frame is None:
            return Point(x, y)
        if frame._kernel is not None and _one_tower((x, y)) is not None:
            return Point(*frame._kernel(x, y))
        x, y = frame.apply(x, y)
        return Point(x, y)

    def rho(self, value: TowerElem):
        return self.embedding.apply_scalar(value)


def identity_model() -> ModelMap:
    return ModelMap(Embedding("identity"))


def conjugation_model(domain: TowerDesc, generator: int, frame: OrthoAffine | None = None) -> ModelMap:
    return ModelMap(Embedding("conjugation", domain=domain, generator=generator), frame)


def eps_rotation_model(reflection: bool = False) -> ModelMap:
    """Inclusion into K(eps) composed with the rotation at parameter eps: a
    genuinely non-real isometry of the image plane."""
    frame = make_pythagorean_rotation(FunElem.eps(), reflection=reflection)
    return ModelMap(Embedding("function_field"), frame)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCheck:
    pair: tuple[Point, Point]
    ok: bool


@dataclass(frozen=True)
class PreservationReport:
    ok: bool
    checks: tuple[PairCheck, ...]


def _embedded_distance(model, embedding: Embedding | None, source: PointTable, p, q) -> tuple:
    """What the images of the source pair (p, q) must have as squared
    distance, for its squared distance v, and whether a rational v is
    reproduced verbatim: ((n[0], k), kept) or (rho(v), kept).  For a
    ``ModelMap`` on the tower kernels v stays the unreduced n/k of
    ``sqdist_num``; a rational v (n zero past its first coordinate) is kept
    iff ``embedding.map_vector`` leaves n unchanged, and the integers
    (n[0], k), v itself, are then rho(v).  Any other v is built once, from
    n/k where the table has it, else by the formula, and mapped by rho."""
    num = None if embedding is None else source.sqdist_num(p, q)
    if num is not None and not any(num[0][1:]):
        n, k = num
        mapped = embedding.map_vector(source.tower, n)
        if mapped is not None:
            m = mapped[1]
            return (n[0], k), m[0] == n[0] and not any(m[1:])
    value = source.sqdist(p, q) if num is None else _elem(source.tower, *_canon(*num))
    target = model.rho(value)
    return target, not (isinstance(value, (int, Fraction)) or value.is_rational()) or target == value


def verify_preservation(model: ModelMap, pairs: Sequence[tuple[Point, Point]]) -> PreservationReport:
    """Check the squared distance of each image pair equals the embedded
    squared distance; rational values must be reproduced verbatim.  Each
    point object is mapped once, and each image pair is compared once
    with rho(v); a rational v must also have rho(v) == v, which by
    transitivity is the image distance equal to v.  The source points and
    their images are each classified once into a ``cm.point_table``; every
    pair's rho(v) is taken (``_embedded_distance``) and its points mapped,
    in the pairs' order, before the images are compared: against the
    integers of a rational v by ``sqdist_is_form``, else against rho(v) by
    ``sqdist_is``.  ``int`` and ``Fraction`` coordinates are rationals."""
    embedding = model.embedding if isinstance(model, ModelMap) else None
    # the tables name each point object by its id; ``pairs`` holds them for the call
    source = point_table({id(p): p for pair in pairs for p in pair})
    wanted, images = [], {}
    for p, q in pairs:
        wanted.append(_embedded_distance(model, embedding, source, id(p), id(q)))
        for point in (p, q):
            if id(point) not in images:
                images[id(point)] = model.apply(point)
    images = point_table(images)
    checks = tuple(
        PairCheck((p, q), (images.sqdist_is_form(id(p), id(q), *v) if type(v) is tuple else images.sqdist_is(id(p), id(q), v)) and kept)
        for (p, q), (v, kept) in zip(pairs, wanted)
    )
    return PreservationReport(ok=all(check.ok for check in checks), checks=checks)


@dataclass(frozen=True)
class StructureReport:
    additivity_ok: bool
    theta_ok: bool
    homomorphism_ok: bool
    thetas: tuple  # one scalar per lambda, independent of the direction used

    @property
    def ok(self) -> bool:
        return self.additivity_ok and self.theta_ok and self.homomorphism_ok


def verify_structure(model: ModelMap, lambdas: Sequence[TowerElem], us: Sequence[Point]) -> StructureReport:
    """Check the displacement map phi(u) = m(u) - m(0) is additive, scales by a
    direction-independent factor rho(lambda), and that rho is a homomorphism.
    The sample points are built once, under names: the origin, the
    directions u, the sums u + v of each pair and the multiples lambda u.
    Each point object is mapped once, all of them before any test, so a
    model undefined at any sample point raises, even where an earlier test
    would decide the report.  Every test is decided, in order and with its
    early exit, on the one ``cm.point_table`` of the images: additivity as
    m(u + v) - m(u) - m(v) + m(0) = 0 (``relation_vanishes``), and scaling
    of phi(u) = a - o to phi(lambda u) = b - o as a != o, decided once per
    direction, and b - o = rho (a - o) (``scaled_is``).  ``int`` and
    ``Fraction`` coordinates are rationals."""
    if not us:
        raise ModelError("need at least one sample direction")
    tower = us[0].x.tower if isinstance(us[0].x, TowerElem) else QQ
    lams = [lam if isinstance(lam, TowerElem) else tower.rational(lam) for lam in lambdas]
    directions = range(len(us))
    pairs = list(combinations(directions, 2))
    points = {"o": Point(tower.rational(0), tower.rational(0))}
    points.update((("u", i), u) for i, u in enumerate(us))
    points.update((("u+v", i, j), Point(us[i].x + us[j].x, us[i].y + us[j].y)) for i, j in pairs)
    points.update((("lu", k, i), Point(lam * u.x, lam * u.y)) for k, lam in enumerate(lambdas) for i, u in enumerate(us))
    # images by point object; ``points`` holds the objects for the call
    mapped = {}
    for p in points.values():
        if id(p) not in mapped:
            mapped[id(p)] = model.apply(p)
    images = point_table({name: mapped[id(p)] for name, p in points.items()})

    additivity_ok = all(images.relation_vanishes({("u+v", i, j): 1, ("u", i): -1, ("u", j): -1, "o": 1}) for i, j in pairs)

    theta_ok = True
    thetas = []
    moved = all(not images.same(("u", i), "o") for i in directions)
    for k, lam in enumerate(lams):
        rho_lam = model.rho(lam)
        thetas.append(rho_lam)
        if not (moved and all(images.scaled_is((("lu", k, i), "o"), (("u", i), "o"), rho_lam) for i in directions)):
            theta_ok = False
            break

    homomorphism_ok = all(
        model.rho(a + b) == model.rho(a) + model.rho(b) and model.rho(a * b) == model.rho(a) * model.rho(b)
        for a, b in combinations(lams, 2)
    )

    return StructureReport(
        additivity_ok=additivity_ok,
        theta_ok=theta_ok,
        homomorphism_ok=homomorphism_ok,
        thetas=tuple(thetas),
    )
