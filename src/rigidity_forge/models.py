"""Concrete unit-distance preserving maps of the composed form: a field
embedding applied coordinatewise, followed by an affine map with exactly
orthonormal linear part.

Embeddings are represented on finitely generated subfields only (quadratic
towers): the identity, a generator-flipping conjugation, and the inclusion
into the rational function field K(eps).  Conjugations are the honest
computable stand-in for wild homomorphisms out of the reals; they falsify any
deduction rule that would illegitimately assume continuity or order
preservation.

``ModelMap.apply`` is the formula: the embedding on each coordinate, then
the frame.  ``ModelMap.image_table`` is the one path that builds images on
the integer form, for points whose coordinates are ``TowerElem``s of one
tower.  An embedding maps an integer vector by one method,
``Embedding.vector_map``: identity and inclusion keep it, and a conjugation
of an element over a prefix of its domain pads the vector and flips the
signs of the coordinates that hold the generator.  A frame maps the
vectors by its integer rows (``scalars.frame_rows`` and ``frame_form``): a
rational frame takes a*x + b*y + c over one ``lcm``; a K(eps) frame over Q
on one denominator D builds each image numerator from its rational rows,
over D lifted to the points' tower.  ``image_table`` hands the forms of a
whole point set, unreduced, to their ``cm`` table (``cm.form_table``, and
for a K(eps) frame ``cm._PackedTable``, which packs the frame's rows once
at its width and each image numerator as it is), so a check builds and
classifies no image.  The forms do not apply to frames with irrational or
mixed entries, ``FunElem`` inputs, rational coordinates, mixed towers or
points outside a conjugation's domain prefix: there ``image_table`` maps
each point by ``apply`` into ``cm.point_table``.  The generic conjugation
carries a point into its domain by ``scalars.tower_join``.  Every embedding
fixes Q, so ``int`` and ``Fraction`` values are elements of Q.

The reports decide their equations on one table of the source points and
one of the images.  Preservation decides a ``ModelMap``'s pair of points
over Q or one tower at the cost of two kernels: the source squared distance
v stays the unreduced n/k of the table's ``sqdist_num`` (over Q an integer
over k^2); a rational v must have rho(v) == v, ``vector_map`` leaving n
unchanged, and the image pair is compared with v, the integers (n[0], k),
by the images' ``sqdist_is_form``.  Any other v is built once, from n/k
where the source table has it, and compared with ``rho(v)`` by
``sqdist_is``, the formula on the images; every table's tests answer, so
preservation has no fallback.  An embedding other than the identity is
undefined on a ``FunElem``, which lies in no quadratic tower
(``OutOfDomain``).  Structure names its sample points
once (the origin, the directions u, the sums u + v and the multiples
lambda u), gives each point object one image before any test, and decides
every test on the one table of the images: additivity as
m(u + v) - m(u) - m(v) + m(0) = 0 (``relation_vanishes``), and scaling of
phi(u) = a - o to phi(lambda u) = b - o as a != o, once per direction, and
b - o = rho (a - o) (``scaled_is``), building no quotient.  Both reports
give a point object its form, or map it by ``apply``, the first time they
meet it; equal points built as distinct objects are mapped apiece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Any, Callable, Mapping, Sequence

from .cm import Point, PointTable, _Form, _is_zero, _KernelTable, _one_tower, _PackedTable, circle_point, form_table, point_table
from .scalars import (
    QQ,
    FunElem,
    IVec,
    TowerDesc,
    TowerElem,
    _canon,
    _elem,
    frame_form,
    frame_rows,
    frame_scales,
    fun_pack,
    tower_conjugate,
    tower_join,
)


def _kept(n: IVec) -> IVec:
    return n


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
                mapping = self.vector_map(x.tower)
                if mapping is not None:
                    return _elem(mapping[0], mapping[1](x._n), x._d)
            if isinstance(x, (int, Fraction)):
                return self.domain.rational(x)  # every embedding fixes Q
            return tower_conjugate(self._into_domain(x), self.generator)
        return FunElem.constant(x)

    def vector_map(self, tower: TowerDesc) -> tuple[TowerDesc, Callable[[IVec], IVec]] | None:
        """How the embedding maps an element of ``tower`` given by its
        integer vector, over the same denominator: (image tower, the map of
        vectors).  Identity and inclusion keep the vector (a constant of
        K(eps) has the form of its tower element); a conjugation of an
        element over a prefix of its domain pads it and flips the signs of
        the generator's coordinates.  None for a tower outside a
        conjugation's domain prefix."""
        if self.kind != "conjugation":
            return tower, _kept
        domain = self.domain
        if tower is domain or tower.is_prefix_of(domain):
            signs, pad = self._signs, (0,) * (domain.dim - tower.dim)
            return domain, lambda n: tuple(map(mul, n, signs)) + pad
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

    ``apply`` is the formula.  Two frame shapes also carry integer rows,
    ``_kernel``, that map two ``TowerElem``s of one tower straight to the
    integer form of the image (``scalars.frame_form``): a rational frame (every
    entry an ``int`` or ``Fraction``) and a K(eps) frame (``_kfield``: every
    matrix entry a ``FunElem`` over Q, all over one denominator D, no
    translation), whose images lie over D lifted to the points' tower.
    Each row is one image coordinate: the pairs (p_i, q_i) of integer
    coefficients of eps^i in m_r0 and m_r1 over their denominators k_a and
    k_b, and the translation c = p_c/q_c.
    """

    matrix: tuple[tuple, tuple]  # rows ((m00, m01), (m10, m11))
    translation: tuple | None = None
    _kernel: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _kfield: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (m00, m01), (m10, m11) = self.matrix
        col1_sq = m00 * m00 + m10 * m10
        col2_sq = m01 * m01 + m11 * m11
        cross = m00 * m01 + m10 * m11
        if not (col1_sq == 1 and col2_sq == 1 and _is_zero(cross)):
            raise NonOrthogonalFrame("columns are not orthonormal under the squared-distance form")
        shape = frame_rows(self.matrix, self.translation)
        if shape is not None:
            object.__setattr__(self, "_kernel", shape[0])
            object.__setattr__(self, "_kfield", shape[1])

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


class _Images(dict):
    """The images of a table built from forms, by name, each mapped by
    ``apply`` the first time it is read; only the table's formula fallbacks
    read them."""

    def __init__(self, apply: Callable[[Point], Point], points: Mapping[Any, Point]) -> None:
        super().__init__()
        self._apply, self._points = apply, points

    def __missing__(self, name) -> Point:
        image = self[name] = self._apply(self._points[name])
        return image


@dataclass(frozen=True)
class ModelMap:
    """Embedding applied coordinatewise, then an orthogonal-affine frame.

    The images of two ``TowerElem``s of one tower that ``Embedding.vector_map``
    takes are built on the integer form (``_forms``): with no frame under a
    conjugation, through a frame's integer rows otherwise, and under the
    inclusion into K(eps) only through a K(eps) frame's.  ``image_table`` is
    the one path that builds them: it hands the forms of a point set to
    their ``cm`` table as they are, and maps the points by ``apply``, the
    formula, where the forms do not apply.
    """

    embedding: Embedding
    frame: OrthoAffine | None = None
    _forms: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        frame, kind = self.frame, self.embedding.kind
        forms = kind == "conjugation" if frame is None else frame._kernel is not None and (frame._kfield or kind != "function_field")
        object.__setattr__(self, "_forms", forms)

    def apply(self, p: Point) -> Point:
        """The image of ``p`` by the formula: the embedding on each
        coordinate, then the frame's ``apply``."""
        x, y = self.embedding.apply_scalar(p.x), self.embedding.apply_scalar(p.y)
        return Point(x, y) if self.frame is None else Point(*self.frame.apply(x, y))

    def rho(self, value: TowerElem):
        return self.embedding.apply_scalar(value)

    def image_table(self, points: Mapping[Any, Point] | PointTable) -> PointTable:
        """The ``cm`` table of the images of ``points`` (by name, or their own
        table), each point object mapped once.  The identity with no frame
        has the points' own table.  Where the forms apply, the table is built
        from the images' integer forms with no image element built, and its
        ``points`` map an image by ``apply`` when first read.  Elsewhere
        (mixed towers, ``FunElem`` or rational coordinates, points outside a
        conjugation's domain prefix, a frame without integer rows) each
        point is mapped by ``apply``, in order (``_mapped_table``)."""
        if self.frame is None and self.embedding.kind == "identity":
            return point_table(points)
        if isinstance(points, PointTable):
            points = points.points
        values = points.values()
        tower = _one_tower([p.x for p in values] + [p.y for p in values]) if self._forms else None
        mapping = None if tower is None else self.embedding.vector_map(tower)
        if mapping is None:
            return _mapped_table(self.apply, points)
        (image_tower, vector), frame, vectors = mapping, self.frame, {}
        for p in values:
            if id(p) not in vectors:
                x, y = p.x, p.y
                vectors[id(p)] = (vector(x._n), x._d, vector(y._n), y._d)
        images = _Images(self.apply, points)
        if frame is not None and frame._kfield:
            return _packed_table(frame, image_tower, points, images, vectors)
        if frame is None:
            forms = {key: Point(_Form(xn, xd), _Form(yn, yd)) for key, (xn, xd, yn, yd) in vectors.items()}
        else:
            forms = {key: Point(*[_Form(*_tower_form(row, *v)) for row in frame._kernel]) for key, v in vectors.items()}
        return form_table(images, image_tower, {name: forms[id(p)] for name, p in points.items()})


def _mapped_table(apply: Callable[[Point], Point], points: Mapping[Any, Point] | PointTable) -> PointTable:
    """The ``cm.point_table`` of the images of ``points`` (by name, or their
    own table) by ``apply``, each point object mapped once, in order, all
    before the table is built."""
    if isinstance(points, PointTable):
        points = points.points
    mapped = {}
    for p in points.values():
        if id(p) not in mapped:
            mapped[id(p)] = apply(p)
    return point_table({name: mapped[id(p)] for name, p in points.items()})


def _image_table(model, points: Mapping[Any, Point] | PointTable) -> PointTable:
    """A ``ModelMap``'s ``image_table``; any other model's images by ``apply``."""
    if isinstance(model, ModelMap):
        return model.image_table(points)
    return _mapped_table(model.apply, points)


def _tower_form(row: tuple, xn: IVec, xd: int, yn: IVec, yd: int) -> tuple[IVec, int]:
    """A rational frame row's image coordinate on the integer form."""
    out, k = frame_form(row, row[0], xn, yn, frame_scales(row, xd, yd))
    return out[0], k


def _packed_table(frame: OrthoAffine, tower: TowerDesc, points: Mapping[Any, Point], images: _Images, vectors: dict) -> PointTable:
    """The packed table of the images of ``points`` under a K(eps) frame,
    each point's form (``scalars.frame_form``) packed as it is: the frame's rows
    are packed once, at the table's width, for coefficient pairs of one
    integer each.  The width's bounds come from the forms' scales
    (``scalars.frame_scales``): a coefficient of a numerator is at most
    f1 max|p_i| max|xn_j| + f2 max|q_i| max|yn_j|, and k the unreduced lcm."""
    rows, k = frame.matrix[0][0]._d
    pad = (0,) * (tower.dim - 1)
    den = (tuple([r + pad for r in rows]), k)
    top, k_max, scales = max(abs(c) for r in den[0] for c in r), 1, {}
    peaks = [(max(abs(p) for p, _ in row[0]), max(abs(q) for _, q in row[0])) for row in frame._kernel]
    for key, (xn, xd, yn, yd) in vectors.items():
        x_top, y_top = max(map(abs, xn)), max(map(abs, yn))
        scales[key] = per_row = [frame_scales(row, xd, yd) for row in frame._kernel]
        for (f1, f2, k), (p_top, q_top) in zip(per_row, peaks):
            top, k_max = max(top, f1 * p_top * x_top + f2 * q_top * y_top), max(k_max, k)

    def pack(shifts: range) -> dict:
        rows = [(row, [fun_pack(row[0], 2, shifts)]) for row in frame._kernel]
        forms = {}
        for key, (xn, _, yn, _) in vectors.items():
            out = [frame_form(row, pairs, xn, yn, scaled) for (row, pairs), scaled in zip(rows, scales[key])]
            forms[key] = Point(*[_Form(vecs[0], k) for vecs, k in out])
        return {name: forms[id(p)] for name, p in points.items()}

    rows = max(len(den[0]), *[len(row[0]) for row in frame._kernel])
    return _PackedTable(images, tower, den, top, rows, k_max, pack)


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


def _embedded_distance(model, mapping, source: PointTable, p, q) -> tuple:
    """What the images of the source pair (p, q) must have as squared
    distance, for its squared distance v, and whether a rational v is
    reproduced verbatim: ((n[0], k), kept) or (rho(v), kept).  Given
    ``mapping``, the model's ``Embedding.vector_map`` of the source table's
    tower, v stays the unreduced n/k of ``sqdist_num``; a rational v (n zero
    past its first coordinate) is kept iff the mapping leaves n unchanged,
    and the integers (n[0], k), v itself, are then rho(v).  Any other v is
    built once, from n/k where the mapping is given, else by the formula,
    and mapped by rho."""
    num = None if mapping is None else source.sqdist_num(p, q)
    if num is not None and not any(num[0][1:]):
        n, k = num
        m = mapping[1](n)
        return (n[0], k), m[0] == n[0] and not any(m[1:])
    value = source.sqdist(p, q) if num is None else _elem(source.tower, *_canon(*num))
    target = model.rho(value)
    return target, not (isinstance(value, (int, Fraction)) or value.is_rational()) or target == value


def verify_preservation(model: ModelMap, pairs: Sequence[tuple[Point, Point]]) -> PreservationReport:
    """Check the squared distance of each image pair equals the embedded
    squared distance; rational values must be reproduced verbatim.  Each
    point object is mapped once, and each image pair is compared once
    with rho(v); a rational v must also have rho(v) == v, which by
    transitivity is the image distance equal to v.  The source points are
    classified once into a ``cm.point_table``; every pair's rho(v) is taken
    (``_embedded_distance``, with the embedding's ``vector_map`` of the
    source tower taken once per call), and then the images go into one table
    (``ModelMap.image_table``, the source table itself under the identity;
    any other model maps each point by ``apply``).  The images are then
    compared: against the integers of a rational v by ``sqdist_is_form``,
    else against rho(v) by ``sqdist_is``.  ``int`` and ``Fraction``
    coordinates are rationals."""
    # the tables name each point object by its id; ``pairs`` holds them for the call
    source = point_table({id(p): p for pair in pairs for p in pair})
    kernel = isinstance(model, ModelMap) and isinstance(source, _KernelTable)
    mapping = model.embedding.vector_map(source.tower) if kernel else None
    wanted = [_embedded_distance(model, mapping, source, id(p), id(q)) for p, q in pairs]
    images = _image_table(model, source)
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
    Each point object gets one image, all of them before any test
    (``ModelMap.image_table``; any other model maps it by ``apply``), so a
    model undefined at any sample point raises, even where an earlier test
    would decide the report.  Every test is decided, in order and with its early
    exit, on the one table of the images: additivity as
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
    images = _image_table(model, points)

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
