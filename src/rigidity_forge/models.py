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
``Embedding.vector_map``, the one sign flip: identity and inclusion keep
it, and a conjugation of an element over a prefix of its domain pads the
vector and flips the signs of the coordinates that hold the generator; an
element outside the prefix is first carried into the domain by value
(``scalars.tower_join``).  A frame maps the vectors by its integer rows
(``frame_rows``), each image coordinate by one row form, ``_row_form``:
p*x + q*y + c over one ``lcm``.  A rational frame's rows are such rows; a
K(eps) frame over Q on one denominator D has one coefficient pair per power
of eps, and ``_packed_table`` evaluates each row at eps = 2^w, the table's
width, to one pair, so its images are formed by the same expression, their
numerators packed over D lifted to the points' tower.  ``image_table``
hands the forms of a whole point set, unreduced, to their table
(``cm.form_table``, or ``_PackedTable``), so a check builds and classifies
no image.  The forms apply with no frame or a frame with integer rows,
under every embedding: the inclusion into K(eps) keeps the vector, its
images being K's own values.  They do not apply to other frames (a K(eps)
frame with a translation or entries over a tower among them), ``FunElem``
inputs, rational coordinates, mixed towers or points outside a
conjugation's domain prefix: there ``image_table`` maps each point by
``apply`` (``cm.mapped_table``), the formula for ``FunElem`` images.
Every embedding fixes Q, so ``int`` and ``Fraction`` values are elements
of Q.

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
take the images' table from ``cm.image_table``, which gives a point object
its form, or maps it by ``apply``, the first time it meets it; equal
points built as distinct objects are mapped apiece.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Any, Callable, Sequence

from .cm import Point, PointTable, _Form, _is_zero, _KernelTable, _one_tower, circle_point, form_table, image_table, mapped_table, point_table
from .scalars import QQ, FunElem, IPoly, IVec, TowerDesc, TowerElem, _canon, _elem, _funit, _isq, fun_pack, tower_conjugate, tower_join


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
            if isinstance(x, (int, Fraction)):
                return self.domain.rational(x)  # every embedding fixes Q
            mapping = self.vector_map(x.tower)
            if mapping is None:
                x = self._into_domain(x)
                mapping = self.vector_map(self.domain)
            return _elem(mapping[0], mapping[1](x._n), x._d)
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
    integer form of the image (``_row_form``): a rational frame (every
    entry an ``int`` or ``Fraction``) and a K(eps) frame (``_kfield``: every
    matrix entry a ``FunElem`` over Q, all over one denominator D, no
    translation), whose images lie over D lifted to the points' tower.
    Each row is one image coordinate (``frame_rows``).
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


class _Images(Mapping):
    """The images of a table built from forms, by its point names, each
    mapped by ``apply`` when first read and kept in ``mapped``; only formula
    fallbacks, and a model mapping the table again, read them."""

    def __init__(self, apply: Callable[[Point], Point], points: Mapping[Any, Point]) -> None:
        self._apply, self._points, self.mapped = apply, points, {}

    def __getitem__(self, name) -> Point:
        image = self.mapped.get(name)
        if image is None:
            image = self.mapped[name] = self._apply(self._points[name])
        return image

    def __iter__(self):
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)


@dataclass(frozen=True)
class ModelMap:
    """Embedding applied coordinatewise, then an orthogonal-affine frame.

    The images of two ``TowerElem``s of one tower that ``Embedding.vector_map``
    takes are built on the integer form, under every embedding: as the
    mapped vectors with no frame, and through the frame's integer rows for a
    frame that has them.  ``image_table`` is the one path that builds them:
    it hands the forms of a point set to their table as they are, and maps
    the points by ``apply``, the formula, where the forms do not apply.
    """

    embedding: Embedding
    frame: OrthoAffine | None = None

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
        point is mapped by ``apply``, in order (``cm.mapped_table``)."""
        if self.frame is None and self.embedding.kind == "identity":
            return point_table(points)
        if isinstance(points, PointTable):
            points = points.points
        values, frame = points.values(), self.frame
        tower = _one_tower([p.x for p in values] + [p.y for p in values]) if frame is None or frame._kernel is not None else None
        mapping = None if tower is None else self.embedding.vector_map(tower)
        if mapping is None:
            return mapped_table(self.apply, points)
        (image_tower, vector), vectors = mapping, {}
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
            forms = _forms(frame._kernel, vectors)
        return form_table(images, image_tower, {name: forms[id(p)] for name, p in points.items()})


# ---------------------------------------------------------------------------
# Frame forms: the image (p*x + q*y + c, ...) of two tower elements x, y of
# one tower under an affine frame, on the integer form and unreduced.  A
# frame of another shape has no rows and takes the generic formula.
# ---------------------------------------------------------------------------

FrameRow = tuple[tuple[tuple[int, int], ...], int, int, int, int]


def frame_rows(matrix, translation) -> tuple[tuple[FrameRow, ...], bool] | None:
    """The integer rows of a frame, one per image coordinate, and whether
    they map into K(eps): a row is the pairs (p_i, q_i), the integer
    coefficients of eps^i in the row's two entries over their denominators
    k_a and k_b, then k_a, k_b and the translation c = p_c/q_c.  A rational
    frame (every entry an ``int`` or ``Fraction``) has one pair per row; a
    K(eps) frame (every matrix entry a ``FunElem`` over Q, all on one
    denominator D, no translation) one per power of eps, and its images lie
    over D.  None for any other frame."""
    entries = [e for row in matrix for e in row]
    if translation is None and all(isinstance(e, FunElem) and e.tower.depth == 0 and e._d == entries[0]._d for e in entries):
        rows = []
        for a, b in matrix:
            (ra, ka), (rb, kb) = a._n, b._n
            length = max(len(ra), len(rb))
            pa = [r[0] for r in ra] + [0] * (length - len(ra))
            pb = [r[0] for r in rb] + [0] * (length - len(rb))
            rows.append((tuple(zip(pa, pb)), ka, kb, 0, 1))
        return tuple(rows), True
    if not all(isinstance(e, (int, Fraction)) for e in entries + list(translation or ())):
        return None
    rows = []
    for (a, b), c in zip(matrix, translation or (0, 0)):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        rows.append((((a.numerator, b.numerator),), a.denominator, b.denominator, c.numerator, c.denominator))
    return tuple(rows), False


def _row_form(row: FrameRow, xn: IVec, xd: int, yn: IVec, yd: int) -> tuple[IVec, int]:
    """The image coordinate p*x + q*y + c of x = xn/xd and y = yn/yd under a
    row with one coefficient pair (p, q), unreduced, over one ``lcm``."""
    ((p, q),), ka, kb, pc, qc = row
    k1, k2 = ka * xd, kb * yd
    k = lcm(k1, k2, qc)
    f1, f2 = p * (k // k1), q * (k // k2)
    out = [f1 * a + f2 * b for a, b in zip(xn, yn)]
    if pc:
        out[0] += pc * (k // qc)
    return tuple(out), k


def _forms(rows: Sequence[FrameRow], vectors: dict) -> dict:
    """Each point's image form, by key: a ``_row_form`` per frame row."""
    return {key: Point(*[_Form(*_row_form(row, *v)) for row in rows]) for key, v in vectors.items()}


# ---------------------------------------------------------------------------
# Packed tables: images under a K(eps) frame, on the tower kernels
# ---------------------------------------------------------------------------


def _bits(top: int, rows: int) -> int:
    """a with |P| < 2^a (``_PackedTable``) for every P of at most ``rows``
    integer rows whose coefficients are at most ``top`` in absolute value."""
    return top.bit_length() + rows.bit_length()


class _PackedTable(_KernelTable):
    """``FunElem``s of one tower over one denominator pair D, the shape of
    every eps-frame image: an equation homogeneous in D holds iff it holds on
    the numerators, so the table holds each numerator (integer rows over k)
    at eps = B = 2^w, packed when the table is built, D^2 packed
    (``scalars.fun_pack``) once per table, and the ``_KernelTable`` tests
    decide every test on the packed vectors (``sqdist_num`` too: a packed
    table is never a report's source table).  The table is given the bounds
    of its numerators and D: ``top``, the largest |coefficient|, ``rows``,
    the most rows, and ``k``, the largest numerator denominator; then
    ``pack(shifts)`` gives each point's packed coordinates.  Its one
    producer is ``_packed_table``, which reads these bounds off the frame's
    rows and D and each point's ``lcm``, and forms each image from the
    frame's rows packed at B (``_row_form``), unreduced.  ``cm.point_table``
    builds no packed table: a set of ``FunElem`` points takes the formula.

    Exactness.  Evaluation at B is a ring homomorphism Q[eps] -> Q and the
    tower product has rational structure constants, so a kernel returns
    n/k = y(B), y in Q[eps]^dim the value the test asks to be zero, and
    answers n == 0.  By the evaluation lemma (``cm``) the test is exact if
    c*y has every coefficient below B in absolute value for some integer
    c > 0.  Let |x| be the largest coefficient sum of a coordinate of x and
    (delta, C) = ``TowerDesc._product_bound``,
    read off the tower's basis products e_S*e_T = sum(s_STU e_U), the
    structure constants that the sparse product kernels sum
    (``scalars._basis_products``): delta is the least common denominator
    of the s_STU and C = max over U of sum |delta s_STU|, so
    |x + x'| <= |x| + |x'| and |delta x x'| <= C|x||x'|.  Per table,
    |N|, |D_N| < 2^a (``_bits``) for every numerator N over k and
    D = D_N/k_D, k < 2^kb, k_D < 2^kd, delta < 2^db, C < 2^cb; a difference
    of numerators is U/(k k') with |U| < 2^(a+kb+1).  The proof reads only
    these bounds: N/k need not be reduced, so an unreduced form whose
    coefficients and denominator are bounded by a and kb is packed as it is,
    and bounds on the value y(B), not the path a kernel computes it by
    (the closed form at depth <= 2, the sparse sums or the recursion).
    A constant fits if its numerator and denominator are below 2^s,
    s = 2(a + kb) + 64 (a squared distance of the points, with room); one
    that does not takes the formula.  w = max(t1, t2) + 1,
    t1 = db + cb + s + 2a + 6kb + 2kd + 3 and t2 = 2cb + s + 2a + 8kb, is
    derived, not set, and bounds every shape:
    - ``sqdist_is_form`` against a rational m/e, |m| and e integers that
      fit, so the product by D^2 is the scalar multiple m D_N^2 and
      c = delta e (k1 k2 k3 k4 k_D)^2:
      2 e 2^(4kb+2kd) C|U|^2 + 2^(8kb) C |m| |D_N|^2 < 2^t1 + 2^t2;
    - ``same``, c = k k': |U| < 2^(a+kb+1);
    - ``dot_vanishes``, c = delta k1 ... k8: 2^(4kb+1) C|U|^2 < 2^t1;
    - ``scaled_is`` by rho = R/k_R, R one row (a constant over the unit
      polynomial; any other rho takes the formula), c = delta k1 ... k4 k_R:
      2^(2kb) (delta k_R + C|R|)|U| < 2^(a+3kb+db+cb+s+1) <= 2^t1;
    - ``relation_vanishes``, coefficients s_i on T points, c = lcm(k_i):
      sum|s_i| 2^(T kb + a) < 2^(s+a), if they fit: sum|s_i| 2^(T kb) < 2^s.
      The bound is on each coordinate of c*y(B), which the rows pack; over
      Q the table sums those coordinates directly (``cm``), so it covers
      the direct sums as it does the rows."""

    __slots__ = ("width", "_budget", "_kb", "_den", "_shifts", "_square")

    def __init__(self, points: Mapping, tower: TowerDesc, den: IPoly, top: int, rows: int, k: int, pack: Callable) -> None:
        a, kb = _bits(top, rows), k.bit_length()
        s, (db, cb) = 2 * (a + kb) + 64, (b.bit_length() for b in tower._product_bound)
        w = self.width = max(db + cb + s + 2 * a + 6 * kb + 2 * den[1].bit_length() + 3, 2 * cb + s + 2 * a + 8 * kb) + 1
        shifts = self._shifts = range(0, w * rows, w)
        super().__init__(points, tower, pack(shifts))
        self._den, self._budget, self._kb, self._square = den, s, kb, None

    def sqdist_is_form(self, p, q, m: int, e: int) -> bool:
        """The packed n/k_n against m/e * D^2, D^2 = square/(k k_D^2), on
        every coordinate; a constant that does not fit takes the formula."""
        if max(abs(m), e).bit_length() > self._budget:
            return PointTable.sqdist_is_form(self, p, q, m, e)
        if self._square is None:
            self._square = _isq(self.tower._rads, fun_pack(self._den[0], self.tower.dim, self._shifts))
        (square, k), k_d = self._square, self._den[1]
        n, k_n = self.sqdist_num(p, q)
        f, g = e * k * k_d * k_d, m * k_n
        return all(x * f == y * g for x, y in zip(n, square))

    def relation_vanishes(self, relation: Mapping[Any, int]) -> bool:
        if sum(map(abs, relation.values())).bit_length() + len(relation) * self._kb > self._budget:
            return PointTable.relation_vanishes(self, relation)
        return super().relation_vanishes(relation)

    def _constant(self, rho):
        """rho as the kernels read it, if a fitting constant of the tower over
        the unit polynomial: its one row (the zero row for zero), which is
        its own packing; else None, and the formula decides."""
        if isinstance(rho, FunElem) and (rho.tower is self.tower or rho.tower == self.tower) and _funit(rho._d) and len(rho._n[0]) <= 1:
            (row,), k = rho._n if rho._n[0] else (((0,) * self.tower.dim,), 1)
            if max(_bits(max(map(abs, row)), 1), k.bit_length()) <= self._budget:
                return _Form(row, k)
        return None


def _packed_table(frame: OrthoAffine, tower: TowerDesc, points: Mapping[Any, Point], images: _Images, vectors: dict) -> _PackedTable:
    """The packed table of the images of ``points`` under a K(eps) frame:
    each frame row is evaluated at eps = 2^w (``fun_pack``, once per row),
    a row with one coefficient pair, and each point's form is packed as
    ``_row_form`` builds it.  The width's bounds read each point's ``lcm``
    k: a coefficient of a numerator is at most
    (k/(k_a xd)) max|p_i| max|xn_j| + (k/(k_b yd)) max|q_i| max|yn_j|."""
    rows, k = frame.matrix[0][0]._d
    pad = (0,) * (tower.dim - 1)
    den = (tuple([r + pad for r in rows]), k)
    top, k_max = max(abs(c) for r in den[0] for c in r), 1
    peaks = [(max(abs(p) for p, _ in row[0]), max(abs(q) for _, q in row[0])) for row in frame._kernel]
    for xn, xd, yn, yd in vectors.values():
        x_top, y_top = max(map(abs, xn)), max(map(abs, yn))
        for (_, ka, kb, _, _), (p_top, q_top) in zip(frame._kernel, peaks):
            k = lcm(ka * xd, kb * yd)
            top, k_max = max(top, k // (ka * xd) * p_top * x_top + k // (kb * yd) * q_top * y_top), max(k_max, k)

    def pack(shifts: range) -> dict:
        packed = [((fun_pack(row[0], 2, shifts),),) + row[1:] for row in frame._kernel]
        forms = _forms(packed, vectors)
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
    (``cm.image_table``, the source table itself under the identity).  The
    images are compared against the integers of a rational v by
    ``sqdist_is_form``, else against rho(v) by ``sqdist_is``.  ``int`` and
    ``Fraction`` coordinates are rationals."""
    # the tables name each point object by its id; ``pairs`` holds them for the call
    source = point_table({id(p): p for pair in pairs for p in pair})
    kernel = isinstance(model, ModelMap) and isinstance(source, _KernelTable)
    mapping = model.embedding.vector_map(source.tower) if kernel else None
    wanted = [_embedded_distance(model, mapping, source, id(p), id(q)) for p, q in pairs]
    images = image_table(model, source)
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
    (``cm.image_table``), so a model undefined at any sample point raises,
    even where an earlier test would decide the report.  Every test is
    decided, in order and with its early exit, on the one table of the
    images: additivity as
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
    images = image_table(model, points)

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
