"""Exact scalar arithmetic: rationals, real quadratic towers, and a rational
function field in one indeterminate.

Three carriers, all with decidable equality:

* ``Rational`` is ``fractions.Fraction`` (always reduced, positive denominator).
* ``TowerElem`` lives in a quadratic tower over the rationals: iterated
  adjunctions of square roots of positive elements, with the designated real
  embedding taking every generator to the positive root.  Signs (and hence a
  total order) are computable.
* ``FunElem`` lives in the rational function field K(eps) over a tower K.
  It carries no order; it exists to exercise non-archimedean image fields.
  Its arithmetic is lazy: a value is any numerator over any nonzero
  denominator, operations take no polynomial gcd, and equality
  cross-multiplies.  The reduced form (coprime, monic denominator) is what
  ``num``/``den``, hashing, printing and the codec see; it is computed once
  per value, on first use, and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence, Union

Rational = Fraction

RationalLike = Union[int, Fraction]


class NonPositiveRadicand(ValueError):
    """Adjoined radicand is not strictly positive under the real embedding."""


class BadGeneratorIndex(ValueError):
    """Generator index out of range, or conjugation at it is not well defined."""


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Coordinate-vector kernels.
#
# An element of Q(sqrt(d_1), ..., sqrt(d_k)) is stored as 2^k rational
# coordinates over the multiplicative basis indexed by subset bitmask:
# basis(m) = prod of sqrt(d_i) over bits i of m.  Each radicand d_i is itself
# a coordinate vector of length 2^i over the generators below it.
# ---------------------------------------------------------------------------

Vec = tuple[Fraction, ...]


def _vzero(n: int) -> Vec:
    return (Fraction(0),) * n


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def _vmul(rads: Sequence[Vec], a: Vec, b: Vec) -> Vec:
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    al, ah, bl, bh = a[:h], a[h:], b[:h], b[h:]
    # prune zero halves: elements rarely use the whole radical basis
    ah_zero = all(x == 0 for x in ah)
    bh_zero = all(x == 0 for x in bh)
    if ah_zero and bh_zero:
        return _vmul(rads, al, bl) + _vzero(h)
    if ah_zero:
        return _vmul(rads, al, bl) + _vmul(rads, al, bh)
    if bh_zero:
        return _vmul(rads, al, bl) + _vmul(rads, ah, bl)
    rad = rads[h.bit_length() - 1]
    lo = _vadd(_vmul(rads, al, bl), _vmul(rads, _vmul(rads, ah, bh), rad))
    hi = _vadd(_vmul(rads, al, bh), _vmul(rads, ah, bl))
    return lo + hi


def _vinv(rads: Sequence[Vec], a: Vec) -> Vec:
    n = len(a)
    if n == 1:
        if a[0] == 0:
            raise ZeroDivisionError("inverse of zero")
        return (1 / a[0],)
    h = n // 2
    lo, hi = a[:h], a[h:]
    if all(x == 0 for x in hi):
        return _vinv(rads, lo) + _vzero(h)
    rad = rads[h.bit_length() - 1]
    # 1/(lo + hi*g) = (lo - hi*g) / (lo^2 - hi^2*d); the norm is nonzero
    # because no radicand is a square in the tower below it.
    norm = _vadd(_vmul(rads, lo, lo), _vneg(_vmul(rads, _vmul(rads, hi, hi), rad)))
    if all(x == 0 for x in norm):
        raise ArithmeticError("tower invariant violated: radicand is a square below")
    ninv = _vinv(rads, norm)
    return _vmul(rads, lo, ninv) + _vneg(_vmul(rads, hi, ninv))


# -- interval arithmetic for sign determination ------------------------------

Interval = tuple[Fraction, Fraction]


def _sqrt_interval(iv: Interval, prec: int) -> Interval:
    lo, hi = iv
    scale = 1 << prec
    if hi < 0:
        raise NonPositiveRadicand("radicand enclosure is negative")
    if lo < 0:
        lo = Fraction(0)
    r_lo = Fraction(isqrt(lo.numerator * lo.denominator * scale * scale), lo.denominator * scale)
    r_hi = Fraction(isqrt(hi.numerator * hi.denominator * scale * scale) + 1, hi.denominator * scale)
    return (r_lo, r_hi)


def _imul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


@lru_cache(maxsize=None)
def _radical_intervals(tower: "TowerDesc", prec: int) -> tuple[Interval, ...]:
    out: list[Interval] = []
    for gen in tower.gens:
        out.append(_sqrt_interval(_vec_interval(gen.coords, tuple(out)), prec))
    return tuple(out)


def _vec_interval(coords: Vec, radicals: tuple[Interval, ...]) -> Interval:
    lo = Fraction(0)
    hi = Fraction(0)
    for mask, q in enumerate(coords):
        if q == 0:
            continue
        term: Interval = (Fraction(1), Fraction(1))
        m = mask
        i = 0
        while m:
            if m & 1:
                term = _imul(term, radicals[i])
            m >>= 1
            i += 1
        t_lo, t_hi = (term[0] * q, term[1] * q) if q > 0 else (term[1] * q, term[0] * q)
        lo += t_lo
        hi += t_hi
    return (lo, hi)


# ---------------------------------------------------------------------------
# Tower descriptors and elements.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerDesc:
    """An ordered tower Q(sqrt(d_1), ..., sqrt(d_k)).

    Invariants: every radicand is strictly positive and not a square in the
    tower below it, so each adjunction doubles the basis and the positive
    choice of every root fixes a real embedding.
    """

    gens: tuple["TowerElem", ...] = ()

    @property
    def depth(self) -> int:
        return len(self.gens)

    @property
    def dim(self) -> int:
        return 1 << len(self.gens)

    def prefix(self, depth: int) -> "TowerDesc":
        return TowerDesc(self.gens[:depth])

    def is_prefix_of(self, other: "TowerDesc") -> bool:
        return self.gens == other.gens[: len(self.gens)]

    def _rad_vectors(self) -> tuple[Vec, ...]:
        return tuple(g.coords for g in self.gens)

    def zero(self) -> "TowerElem":
        return TowerElem(self, _vzero(self.dim))

    def one(self) -> "TowerElem":
        return self.rational(Fraction(1))

    def rational(self, q: RationalLike) -> "TowerElem":
        return TowerElem(self, (_as_fraction(q),) + _vzero(self.dim - 1))

    def generator(self, index: int) -> "TowerElem":
        if not 0 <= index < self.depth:
            raise BadGeneratorIndex(f"generator index {index} out of range")
        coords = [Fraction(0)] * self.dim
        coords[1 << index] = Fraction(1)
        return TowerElem(self, tuple(coords))

    def __repr__(self) -> str:
        if not self.gens:
            return "Q"
        return "Q(" + ", ".join(f"sqrt({g})" for g in self.gens) + ")"


QQ = TowerDesc()


class TowerElem:
    """Exact element of a quadratic tower; immutable.

    The hash is that of the rational coordinate.  It equals Tr(x)/[K:Q] for
    any tower K holding x (every other basis element has trace zero), so equal
    values hash equal across towers, and a rational value hashes like its
    ``Fraction`` or ``int``.
    """

    __slots__ = ("tower", "coords")

    def __init__(self, tower: TowerDesc, coords: Sequence[Fraction]) -> None:
        if len(coords) != tower.dim:
            raise ValueError("coordinate vector does not match tower dimension")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TowerElem is immutable")

    # -- constructors / coercion --------------------------------------------

    def _coerce(self, other) -> "TowerElem | None":
        if isinstance(other, TowerElem):
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        return None

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def lift(self, tower: TowerDesc) -> "TowerElem":
        if self.tower == tower:
            return self
        if not self.tower.is_prefix_of(tower):
            raise ValueError("can only lift along a tower prefix")
        return TowerElem(tower, self.coords + _vzero(tower.dim - len(self.coords)))

    def minimized(self) -> "TowerElem":
        """Drop trailing generators the element does not use."""
        coords = self.coords
        depth = self.tower.depth
        while depth > 0 and all(c == 0 for c in coords[len(coords) // 2 :]):
            coords = coords[: len(coords) // 2]
            depth -= 1
        return TowerElem(self.tower.prefix(depth), coords)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = common_tower(self, rhs)
        return TowerElem(a.tower, _vadd(a.coords, b.coords))

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.tower, _vneg(self.coords))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = common_tower(self, rhs)
        return TowerElem(a.tower, _vmul(a.tower._rad_vectors(), a.coords, b.coords))

    __rmul__ = __mul__

    def inverse(self) -> "TowerElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero tower element")
        return TowerElem(self.tower, _vinv(self.tower._rad_vectors(), self.coords))

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.tower == rhs.tower:
            return self.coords == rhs.coords
        a, b = common_tower(self, rhs)
        return a.coords == b.coords

    def __hash__(self) -> int:
        return hash(self.coords[0])

    def sign(self) -> int:
        """Exact sign under the designated real embedding.

        Structural zero test first (the basis is linearly independent over Q),
        then dyadic interval refinement, which terminates on nonzero values.
        """
        if self.is_zero():
            return 0
        prec = 8
        while True:
            lo, hi = _vec_interval(self.coords, _radical_intervals(self.tower, prec))
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def __lt__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() < 0

    def __le__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() <= 0

    def __gt__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() > 0

    def __ge__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return (self - rhs).sign() >= 0

    def bounds(self, prec: int = 32) -> Interval:
        return _vec_interval(self.coords, _radical_intervals(self.tower, prec))

    # -- rendering ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"TowerElem({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for mask, q in enumerate(self.coords):
            if q == 0:
                continue
            gens = [i for i in range(self.tower.depth) if mask >> i & 1]
            if not gens:
                parts.append(str(q))
            else:
                basis = "*".join(f"r{i}" for i in gens)
                parts.append(basis if q == 1 else f"{q}*{basis}")
        return " + ".join(parts) if parts else "0"


def common_tower(x: TowerElem, y: TowerElem) -> tuple[TowerElem, TowerElem]:
    """Lift two elements into a common extension (auto-lift of tower_arith)."""
    if x.tower == y.tower:
        return x, y
    if x.tower.is_prefix_of(y.tower):
        return x.lift(y.tower), y
    if y.tower.is_prefix_of(x.tower):
        return x, y.lift(x.tower)
    tower, images = _merge_tower(x.tower, y.tower)
    return x.lift(tower), _map_coords(y.coords, images, tower)


def _map_coords(coords: Vec, images: Sequence[TowerElem], tower: TowerDesc) -> TowerElem:
    total = tower.zero()
    for mask, q in enumerate(coords):
        if q == 0:
            continue
        term = tower.rational(q)
        for i, img in enumerate(images):
            if mask >> i & 1:
                term = term * img.lift(tower)
        total = total + term
    return total


def _merge_tower(base: TowerDesc, other: TowerDesc) -> tuple[TowerDesc, list[TowerElem]]:
    """Extend ``base`` by the generators of ``other``; returns the extension
    and the image of each ``other`` generator inside it."""
    tower = base
    images: list[TowerElem] = []
    for gen in other.gens:
        radicand = _map_coords(gen.coords, images, tower)
        result = adjoin_sqrt(tower, radicand)
        tower = result.tower
        images = [img.lift(tower) for img in images]
        images.append(result.root)
    return tower, images


@dataclass(frozen=True)
class AdjoinResult:
    tower: TowerDesc
    root: TowerElem
    absorbed: bool


def adjoin_sqrt(tower: TowerDesc, radicand: TowerElem | RationalLike) -> AdjoinResult:
    """Adjoin the positive square root of ``radicand``.

    Idempotent: if the radicand is already a square in the tower, the tower is
    returned unchanged together with its existing positive root.
    """
    if isinstance(radicand, (int, Fraction)):
        radicand = tower.rational(radicand)
    elif radicand.tower != tower:
        if radicand.tower.is_prefix_of(tower):
            radicand = radicand.lift(tower)
        else:
            tower, images = _merge_tower(tower, radicand.tower)
            radicand = _map_coords(radicand.coords, images, tower)
    if radicand.sign() <= 0:
        raise NonPositiveRadicand(f"radicand {radicand} is not strictly positive")
    existing = sqrt_in_tower(radicand)
    if existing is not None:
        if existing.sign() < 0:
            existing = -existing
        return AdjoinResult(tower, existing, absorbed=True)
    new_tower = TowerDesc(tower.gens + (radicand,))
    return AdjoinResult(new_tower, new_tower.generator(tower.depth), absorbed=False)


def sqrt_in_tower(x: TowerElem) -> TowerElem | None:
    """Return y with y*y == x inside x's own tower, or None."""
    root = _vec_sqrt(x.tower._rad_vectors(), x.coords)
    if root is None:
        return None
    return TowerElem(x.tower, root)


def _frac_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _vec_sqrt(rads: Sequence[Vec], x: Vec) -> Vec | None:
    n = len(x)
    if n == 1:
        r = _frac_sqrt(x[0])
        return None if r is None else (r,)
    h = n // 2
    u, v = x[:h], x[h:]
    rad = rads[h.bit_length() - 1]
    sub = rads[: h.bit_length() - 1]
    if all(c == 0 for c in v):
        r = _vec_sqrt(sub, u)
        if r is not None:
            return r + _vzero(h)
        # maybe x = (b*g)^2 = b^2 * d
        quotient = _vmul(sub, u, _vinv(sub, rad)) if any(c != 0 for c in u) else None
        if quotient is not None:
            b = _vec_sqrt(sub, quotient)
            if b is not None:
                return _vzero(h) + b
        return None
    # x = (a + b*g)^2 with a, b in the subtower: a^2 + b^2 d = u, 2ab = v.
    disc = _vadd(_vmul(sub, u, u), _vneg(_vmul(sub, _vmul(sub, v, v), rad)))
    nrt = _vec_sqrt(sub, disc)
    if nrt is None:
        return None
    half = (Fraction(1, 2),) + _vzero(h - 1)
    for signed in (nrt, _vneg(nrt)):
        a_sq = _vmul(sub, _vadd(u, signed), half)
        a = _vec_sqrt(sub, a_sq)
        if a is None or all(c == 0 for c in a):
            continue
        b = _vmul(sub, _vmul(sub, v, half), _vinv(sub, a))
        candidate = a + b
        if _vmul(rads[: h.bit_length()], candidate, candidate) == x:
            return candidate
    return None


def tower_conjugate(x: TowerElem, index: int) -> TowerElem:
    """Field automorphism sending sqrt(d_index) to -sqrt(d_index).

    Only defined when no later radicand involves the flipped generator;
    otherwise the sign flip does not extend to an automorphism.
    """
    if not 0 <= index < x.tower.depth:
        raise BadGeneratorIndex(f"generator index {index} out of range")
    for j in range(index + 1, x.tower.depth):
        rad = x.tower.gens[j]
        if any(mask >> index & 1 and c != 0 for mask, c in enumerate(rad.coords)):
            raise BadGeneratorIndex(
                f"generator {j} has a radicand involving generator {index}; "
                "conjugation is not an automorphism of this tower"
            )
    coords = tuple(
        -c if mask >> index & 1 else c for mask, c in enumerate(x.coords)
    )
    return TowerElem(x.tower, coords)


# ---------------------------------------------------------------------------
# Rational function field K(eps) over a tower K.  No order is defined here.
# ---------------------------------------------------------------------------

Poly = tuple[TowerElem, ...]


def _ptrim(coeffs: Sequence[TowerElem]) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _ptrim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pmul(a: Poly, b: Poly, tower: TowerDesc) -> Poly:
    if not a or not b:
        return ()
    # None marks a coefficient no nonzero product has reached yet
    out: list[TowerElem | None] = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if not cb.is_zero():
                term = ca * cb
                out[i + j] = term if out[i + j] is None else out[i + j] + term
    zero = tower.zero()
    return _ptrim([zero if c is None else c for c in out])


def _pdivmod(a: Poly, b: Poly, tower: TowerDesc) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [tower.zero()] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    inv_lead = b[-1].inverse()
    while len(rem) >= len(b):
        if rem[-1].is_zero():
            rem.pop()
            continue
        k = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        q[k] = factor
        for i, c in enumerate(b):
            rem[k + i] = rem[k + i] - factor * c
        rem.pop()
    return _ptrim(q), _ptrim(rem)


def _pgcd(a: Poly, b: Poly, tower: TowerDesc) -> Poly:
    while b:
        _, r = _pdivmod(a, b, tower)
        a, b = b, r
    if a:
        inv_lead = a[-1].inverse()
        a = tuple(c * inv_lead for c in a)
    return a


def _reduce(num: Poly, den: Poly, tower: TowerDesc) -> tuple[Poly, Poly]:
    """num/den in lowest terms with a monic denominator (the unique form)."""
    if not num:
        return (), (tower.one(),)
    if len(den) > 1:
        g = _pgcd(num, den, tower)
        if len(g) > 1:
            num, _ = _pdivmod(num, g, tower)
            den, _ = _pdivmod(den, g, tower)
    lead = den[-1]
    if not lead == 1:
        inv = lead.inverse()
        num = tuple(c * inv for c in num)
        den = tuple(c * inv for c in den)
    return num, den


class FunElem:
    """Element of K(eps) over a tower K; immutable.

    Held lazily as a quotient of two polynomials over K that need not be
    coprime.  ``+``, ``-``, ``*``, ``/`` and ``inverse`` multiply out without
    a gcd, and ``+`` over one shared denominator adds the numerators only.
    ``==`` cross-multiplies (a.n * b.d == b.n * a.d, or the numerators alone
    over one shared denominator); that is exact because K[eps] is an integral
    domain, so a product of nonzero denominators is never zero.

    The public face is the reduced form: ``num`` and ``den`` are coprime and
    ``den`` is monic.  It costs one polynomial gcd, taken on first use and
    cached, and ``is_constant``, the hash, the printed value and the codec all
    read it, so none of them depends on how the value was computed.
    """

    __slots__ = ("tower", "_n", "_d", "_reduced")

    def __init__(self, tower: TowerDesc, num: Sequence[TowerElem], den: Sequence[TowerElem]) -> None:
        num = _ptrim([c.lift(tower) if c.tower != tower else c for c in num])
        den = _ptrim([c.lift(tower) if c.tower != tower else c for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator in function field element")
        _init(self, tower, num, den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FunElem is immutable")

    @classmethod
    def _make(cls, tower: TowerDesc, num: Poly, den: Poly) -> "FunElem":
        """Wrap trimmed polynomials over ``tower``, den nonzero; no checks."""
        out = object.__new__(cls)
        _init(out, tower, num, den)
        return out

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def constant(value: TowerElem | RationalLike, tower: TowerDesc | None = None) -> "FunElem":
        if isinstance(value, (int, Fraction)):
            tower = tower or QQ
            value = tower.rational(value)
        tower = tower or value.tower
        return FunElem(tower, (value,), (tower.one(),))

    @staticmethod
    def eps(tower: TowerDesc = QQ) -> "FunElem":
        return FunElem(tower, (tower.zero(), tower.one()), (tower.one(),))

    def _coerce(self, other) -> "FunElem | None":
        if isinstance(other, FunElem):
            return other
        if isinstance(other, (int, Fraction)):
            return FunElem.constant(other, self.tower)
        if isinstance(other, TowerElem):
            return FunElem.constant(other)
        return None

    def _common(self, other: "FunElem") -> tuple["FunElem", "FunElem", TowerDesc]:
        if self.tower == other.tower:
            return self, other, self.tower
        probe, _ = common_tower(self.tower.zero(), other.tower.zero())
        tower = probe.tower
        lift_a = FunElem._make(tower, _plift_into(self._n, tower), _plift_into(self._d, tower))
        lift_b = FunElem._make(tower, _plift_into(other._n, tower), _plift_into(other._d, tower))
        return lift_a, lift_b, tower

    # -- reduced form --------------------------------------------------------------

    def _canonical(self) -> tuple[Poly, Poly]:
        if self._reduced is None:
            object.__setattr__(self, "_reduced", _reduce(self._n, self._d, self.tower))
        return self._reduced

    @property
    def num(self) -> Poly:
        return self._canonical()[0]

    @property
    def den(self) -> Poly:
        return self._canonical()[1]

    # -- structure -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._n

    def is_constant(self) -> bool:
        num, den = self._canonical()
        return len(num) <= 1 and len(den) == 1

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        if a._d == b._d:
            return FunElem._make(tower, _padd(a._n, b._n), a._d)
        num = _padd(_pmul(a._n, b._d, tower), _pmul(b._n, a._d, tower))
        return FunElem._make(tower, num, _pmul(a._d, b._d, tower))

    __radd__ = __add__

    def __neg__(self):
        return FunElem._make(self.tower, _pneg(self._n), self._d)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        return FunElem._make(tower, _pmul(a._n, b._n, tower), _pmul(a._d, b._d, tower))

    __rmul__ = __mul__

    def inverse(self) -> "FunElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero function field element")
        return FunElem._make(self.tower, self._d, self._n)

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = FunElem.constant(1, self.tower)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        if a._d == b._d:
            return a._n == b._n
        return _pmul(a._n, b._d, tower) == _pmul(b._n, a._d, tower)

    def __hash__(self) -> int:
        num, den = self._canonical()
        if self.is_constant():
            # a constant hashes like the tower element (and rational) it equals
            return hash(num[0] if num else 0)
        return hash((num, den))

    def __repr__(self) -> str:
        return f"FunElem({self})"

    def __str__(self) -> str:
        def fmt(p: Poly) -> str:
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c.is_zero():
                    continue
                if i == 0:
                    parts.append(f"{c}")
                elif i == 1:
                    parts.append(f"({c})*eps")
                else:
                    parts.append(f"({c})*eps^{i}")
            return " + ".join(parts)

        num, den = self._canonical()
        if len(den) == 1 and den[0] == 1:
            return fmt(num)
        return f"({fmt(num)}) / ({fmt(den)})"


def _init(x: FunElem, tower: TowerDesc, num: Poly, den: Poly) -> None:
    object.__setattr__(x, "tower", tower)
    object.__setattr__(x, "_n", num)
    object.__setattr__(x, "_d", den)
    object.__setattr__(x, "_reduced", None)


def _plift_into(p: Poly, tower: TowerDesc) -> Poly:
    """Each coefficient mapped into ``tower``, which must hold its value."""
    return tuple(common_tower(tower.zero(), c)[1] for c in p)


# ---------------------------------------------------------------------------
# Order-based helpers used by gadget constructors.  All comparisons against
# square roots go through squares, so no radical is adjoined just to compare.
# ---------------------------------------------------------------------------


def cmp_with_sqrt(m: Fraction, square: TowerElem) -> int:
    """Sign of m - sqrt(square) for m >= 0 and square >= 0."""
    if m < 0:
        raise ValueError("cmp_with_sqrt needs a nonnegative rational")
    return (square.tower.rational(m * m) - square).sign()


def least_int_above_sqrt(square: TowerElem, strict: bool) -> int:
    """Smallest integer n > sqrt(square) (strict) or n >= sqrt(square)."""
    if square.sign() < 0:
        raise ValueError("negative square")

    def ok(k: int) -> bool:
        c = cmp_with_sqrt(Fraction(k), square)
        return c > 0 or (not strict and c == 0)

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def simplest_rational_between_sqrts(lo_sq: TowerElem, hi_sq: TowerElem) -> Fraction:
    """Smallest-denominator rational in the open interval (sqrt(lo_sq), sqrt(hi_sq)),
    found by Stern-Brocot mediant search with exact tower ordering.  Each run of
    equal-direction steps is taken at once, its length found by an exponential
    then binary search, so the search makes O(log) comparisons."""
    if (hi_sq - lo_sq).sign() <= 0:
        raise ValueError("empty interval")

    def run(a: int, b: int, c: int, d: int, inside) -> int:
        """Largest k >= 0 with inside((a + k c) / (b + k d)), monotone in k."""
        lo, hi = 0, 1
        while inside(Fraction(a + hi * c, b + hi * d)):
            lo, hi = hi, 2 * hi
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if inside(Fraction(a + mid * c, b + mid * d)):
                lo = mid
            else:
                hi = mid
        return lo

    a, b = 0, 1  # lower bound a/b
    c, d = 1, 0  # upper bound c/d (infinity)
    while True:
        k = run(a, b, c, d, lambda m: cmp_with_sqrt(m, lo_sq) <= 0)
        a, b = a + k * c, b + k * d
        k = run(c, d, a, b, lambda m: cmp_with_sqrt(m, hi_sq) >= 0)
        if k == 0:  # the mediant is above sqrt(lo_sq) and below sqrt(hi_sq)
            return Fraction(a + c, b + d)
        c, d = c + k * a, d + k * b


def strict_rational_bounds_of_sqrt(square: TowerElem) -> tuple[Fraction, Fraction]:
    """Rationals (l, u) with 0 < l < sqrt(square) < u and u - l < sqrt(square)."""
    if square.sign() <= 0:
        raise ValueError("needs a positive square")
    if square.is_rational():
        exact = _frac_sqrt(square.as_fraction())
        if exact is not None:
            # refinement cannot get strictly below an exact rational root
            return exact * Fraction(3, 4), exact * Fraction(5, 4)
    prec = 8
    while True:
        lo, hi = square.bounds(prec)
        if lo > 0:
            l = Fraction(isqrt(lo.numerator * lo.denominator), lo.denominator)
            u = Fraction(isqrt(hi.numerator * hi.denominator) + 1, hi.denominator)
            if (
                l > 0
                and cmp_with_sqrt(l, square) < 0
                and cmp_with_sqrt(u, square) > 0
                and cmp_with_sqrt(u - l, square) < 0
            ):
                return l, u
        prec *= 2
