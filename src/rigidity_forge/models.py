"""Concrete unit-distance preserving maps of the composed form: a field
embedding applied coordinatewise, followed by an affine map with exactly
orthonormal linear part.

Embeddings are represented on finitely generated subfields only (quadratic
towers): the identity, a generator-flipping conjugation, and the inclusion
into the rational function field K(eps).  Conjugations are the honest
computable stand-in for wild homomorphisms out of the reals; they falsify any
deduction rule that would illegitimately assume continuity or order
preservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .cm import Point, Vec2, _invert, _is_zero, sqdist
from .scalars import (
    QQ,
    FunElem,
    TowerDesc,
    TowerElem,
    common_tower,
    tower_conjugate,
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

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "conjugation", "function_field"):
            raise ModelError(f"unknown embedding kind {self.kind!r}")
        if self.kind == "conjugation":
            if self.generator is None:
                raise ModelError("conjugation embedding needs a generator index")
            # validates the index and that flipping extends to an automorphism
            tower_conjugate(self.domain.zero(), self.generator)

    def apply_scalar(self, x: TowerElem):
        if self.kind == "identity":
            return x
        if self.kind == "conjugation":
            lifted = self._into_domain(x)
            return tower_conjugate(lifted, self.generator)
        return FunElem.constant(x)

    def _into_domain(self, x: TowerElem) -> TowerElem:
        """x over the domain, by value: the common tower extends the domain,
        and x lies in the domain iff it has no coordinate past ``domain.dim``."""
        anchor, lifted = common_tower(self.domain.zero(), x)
        if anchor.tower == self.domain:
            return lifted
        coords = lifted.coords
        if any(coords[self.domain.dim :]):
            raise OutOfDomain(
                f"{x} does not lie in the embedding domain {self.domain}"
            )
        return TowerElem(self.domain, coords[: self.domain.dim])


# ---------------------------------------------------------------------------
# Orthogonal-affine frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthoAffine:
    """Affine map with exactly orthonormal linear part, over any carrier."""

    matrix: tuple[tuple, tuple]  # rows ((m00, m01), (m10, m11))
    translation: tuple | None = None

    def __post_init__(self) -> None:
        (m00, m01), (m10, m11) = self.matrix
        col1_sq = m00 * m00 + m10 * m10
        col2_sq = m01 * m01 + m11 * m11
        cross = m00 * m01 + m10 * m11
        if not (col1_sq == 1 and col2_sq == 1 and _is_zero(cross)):
            raise NonOrthogonalFrame("columns are not orthonormal under the squared-distance form")

    def apply(self, x, y) -> tuple:
        (m00, m01), (m10, m11) = self.matrix
        out_x = m00 * x + m01 * y
        out_y = m10 * x + m11 * y
        if self.translation is not None:
            out_x = out_x + self.translation[0]
            out_y = out_y + self.translation[1]
        return out_x, out_y


def make_pythagorean_rotation(t, reflection: bool = False, translation: tuple | None = None) -> OrthoAffine:
    """Rotation (or reflection) with linear part parametrized by a point of the
    unit circle: a = (1-t^2)/(1+t^2), b = 2t/(1+t^2); exact in any carrier."""
    one = t * 0 + 1
    denom = one + t * t
    if _is_zero(denom):
        raise DegenerateParameter("1 + t^2 = 0")
    inv = _invert(denom)
    a = (one - t * t) * inv
    b = (2 * t) * inv
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
        x = self.embedding.apply_scalar(p.x)
        y = self.embedding.apply_scalar(p.y)
        if self.frame is not None:
            x, y = self.frame.apply(x, y)
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


def _mapped_once(f):
    """``f`` on points, evaluated once per distinct point."""
    images: dict[Point, object] = {}

    def image(p: Point):
        out = images.get(p)
        if out is None:
            out = images[p] = f(p)
        return out

    return image


@dataclass(frozen=True)
class PairCheck:
    pair: tuple[Point, Point]
    ok: bool


@dataclass(frozen=True)
class PreservationReport:
    ok: bool
    checks: tuple[PairCheck, ...]


def verify_preservation(model: ModelMap, pairs: Sequence[tuple[Point, Point]]) -> PreservationReport:
    """Check the squared distance of each image pair equals the embedded
    squared distance; rational values must be reproduced verbatim.  Each
    distinct point is mapped once."""
    image = _mapped_once(model.apply)
    checks = []
    all_ok = True
    for p, q in pairs:
        value = sqdist(p, q)
        image_value = sqdist(image(p), image(q))
        ok = image_value == model.rho(value)
        if ok and value.is_rational():
            ok = image_value == value.as_fraction()
        checks.append(PairCheck((p, q), ok))
        all_ok = all_ok and ok
    return PreservationReport(ok=all_ok, checks=tuple(checks))


@dataclass(frozen=True)
class StructureReport:
    additivity_ok: bool
    theta_ok: bool
    homomorphism_ok: bool
    thetas: tuple  # one scalar per lambda, independent of the direction used

    @property
    def ok(self) -> bool:
        return self.additivity_ok and self.theta_ok and self.homomorphism_ok


def _extract_theta(phi_lu: Vec2, phi_u: Vec2):
    """The unique scalar with phi(lambda u) = theta * phi(u), or None."""
    for num, den in ((phi_lu.x, phi_u.x), (phi_lu.y, phi_u.y)):
        if not _is_zero(den):
            theta = num * _invert(den)
            if phi_u.scaled(theta) == phi_lu:
                return theta
            return None
    return None


def verify_structure(model: ModelMap, lambdas: Sequence[TowerElem], us: Sequence[Point]) -> StructureReport:
    """Check the displacement map phi(u) = m(u) - m(0) is additive, scales by a
    direction-independent factor rho(lambda), and that rho is a homomorphism.
    Each distinct point is mapped once."""
    if not us:
        raise ModelError("need at least one sample direction")
    tower = us[0].x.tower
    origin = Point(tower.rational(0), tower.rational(0))
    m0 = model.apply(origin)
    phi = _mapped_once(lambda p: model.apply(p) - m0)

    additivity_ok = True
    for u, v in combinations(us, 2):
        uv = Point(u.x + v.x, u.y + v.y)
        if not phi(uv) == phi(u) + phi(v):
            additivity_ok = False
            break

    theta_ok = True
    thetas = []
    for lam in lambdas:
        rho_lam = model.rho(lam if isinstance(lam, TowerElem) else tower.rational(lam))
        for u in us:
            lu = Point(lam * u.x, lam * u.y)
            observed = _extract_theta(phi(lu), phi(u))
            if observed is None or not observed == rho_lam:
                theta_ok = False
                break
        thetas.append(rho_lam)
        if not theta_ok:
            break

    homomorphism_ok = True
    lam_elems = [lam if isinstance(lam, TowerElem) else tower.rational(lam) for lam in lambdas]
    for a, b in combinations(lam_elems, 2):
        if not model.rho(a + b) == model.rho(a) + model.rho(b):
            homomorphism_ok = False
            break
        if not model.rho(a * b) == model.rho(a) * model.rho(b):
            homomorphism_ok = False
            break

    return StructureReport(
        additivity_ok=additivity_ok,
        theta_ok=theta_ok,
        homomorphism_ok=homomorphism_ok,
        thetas=tuple(thetas),
    )
