"""Image-space fact store and deduction rules.

A derivation replays one of the finite rigidity proofs as an ordered list of
facts about an arbitrary unit-distance preserving map f, each justified by a
rule: the rational-distance axiom seeds certified squared distances, the
injectivity and nonzero-distance axioms are asserted when a lemma cites them,
the two vector lemmas fire on matching distance patterns, and linear closing
steps are validated by exact rational span membership (a conclusion is
admitted only if its formal linear relation lies in the span of its premises'
relations, which holds in F^2 for any assignment of the image points).  The
relations are integer vectors, each scaled by the denominator of its ratio,
and membership is decided by fraction-free integer elimination on primitive
rows (E. H. Bareiss, Math. Comp. 22, 1968), with the same verdict over Q.
Each vector visits only the basis rows whose pivots it holds, so the rule
costs the row subtractions it makes: linear in the premises of a chain's
closing step, not quadratic.  A replayed derivation is exactly the premise
closure of its goal, and each of its lemma conclusions holds on the gadget's
own coordinates.  ``apply_rule`` returns the store indices of its
conclusions, which the replay scripts cite directly; the store computes one
key per fact as it enters (ratios as integer pairs, never a ``Fraction``
hash) and hashes it once.  Replay validates the gadget once
(``assert_certificate``) and does not re-check the form of the derivation
it builds; ``recheck_derivation`` checks both independently.

Every fact kind decides itself at a point assignment (``holds``) with one
exact test of a ``cm.point_table``, whose carrier is picked once for all
the points: ``SqDistKnown`` compares the squared distance with its rational
value and ``NonzeroDist`` with zero (``sqdist_is``); the vector facts read
their relation from ``gadgets._linear_relation``, the table the span rule
reads too (``relation_vanishes``); ``Distinct`` compares coordinates
(``same``).  ``check_derivation`` takes one table of the images,
``cm.image_table``, and ``_finish`` one of the gadget's coordinates, so a
report classifies its points once, not once per fact; over Q every test is
a few operations on plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Mapping, Sequence, Union

from .cm import Point, PointTable, image_table, point_table
from .gadgets import (
    KEMPE_IDENTITIES,
    KEMPE_NONZERO_PAIRS,
    KEMPE_SQ_DISTANCES,
    KEMPE_SYMBOLS,
    AffineComb,
    DotZero,
    Gadget,
    InvalidGadget,
    VecEq,
    VecScale,
    _linear_relation,
    _pair,
    layout_goal,
)
from .scalars import _frac_sqrt


class EngineError(ValueError):
    pass


class InconsistentCertificate(EngineError):
    pass


class PatternMismatch(EngineError):
    pass


class NonRationalPattern(PatternMismatch):
    pass


class ReplayFailed(EngineError):
    pass


class SoundnessCertificateMissing(EngineError):
    pass


class ModelUndefinedAtPoint(EngineError):
    pass


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqDistKnown:
    """|f(p) - f(q)|^2 = v."""

    p: str
    q: str
    v: Fraction

    def holds(self, points: Mapping[str, Point] | PointTable) -> bool:
        return point_table(points).sqdist_is(self.p, self.q, self.v)


@dataclass(frozen=True)
class Distinct:
    """f(p) != f(q)."""

    p: str
    q: str

    def holds(self, points: Mapping[str, Point] | PointTable) -> bool:
        return not point_table(points).same(self.p, self.q)


@dataclass(frozen=True)
class NonzeroDist:
    """|f(p) - f(q)|^2 != 0."""

    p: str
    q: str

    def holds(self, points: Mapping[str, Point] | PointTable) -> bool:
        return not point_table(points).sqdist_is(self.p, self.q, 0)


Fact = Union[SqDistKnown, Distinct, NonzeroDist, VecEq, VecScale, AffineComb, DotZero]


def fact_key(fact: Fact) -> tuple:
    """Structural key identifying a fact up to its symmetries, by the fact's
    type: its kind, its names in one canonical order, and any ratio as its
    lowest terms (two ints hash faster than one ``Fraction``)."""
    kind = type(fact)
    if kind is SqDistKnown:
        return ("sqdist",) + _pair(fact.p, fact.q) + (fact.v.numerator, fact.v.denominator)
    if kind is VecEq:
        a, b, c, d = fact.a, fact.b, fact.c, fact.d
        return ("veceq",) + min((a, b, c, d), (c, d, a, b), (b, a, d, c), (d, c, b, a))
    if kind is Distinct or kind is NonzeroDist:
        return (kind.__name__.lower(),) + _pair(fact.p, fact.q)
    if kind is VecScale:
        a, b, c, d, r = fact.a, fact.b, fact.c, fact.d, fact.r
        return ("vecscale",) + min((a, b, c, d), (b, a, d, c)) + (r.numerator, r.denominator)
    if kind is AffineComb:
        a, b, t = min((fact.a, fact.b, fact.t), (fact.b, fact.a, 1 - fact.t))
        return ("affine", fact.c, a, b, t.numerator, t.denominator)
    if kind is DotZero:
        u, w = _pair(fact.a, fact.b), _pair(fact.c, fact.d)
        return ("dotzero",) + min(u + w, w + u)
    raise TypeError(f"unknown fact {fact!r}")


def _primitive(vec: dict[str, int]) -> dict[str, int]:
    """``vec`` divided by its content, the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g <= 1 else {name: value // g for name, value in vec.items()}


def _in_span(target: dict[str, int], premises: Sequence[dict[str, int]]) -> bool:
    """Membership in the rational span by fraction-free elimination on
    sparse name-indexed integer vectors.

    Each basis row is primitive and pivots on its smallest name.  A vector
    loses a pivot by an integer combination (scaled by bp/g, minus vp/g
    times the row, g = gcd(bp, vp)) and is then made primitive again, so
    entries stay bounded and the verdict is the one over Q.  A row holds no
    earlier row's pivot, so a subtraction brings in only later pivots:
    ``reduce`` pops the basis indices of the pivots the vector holds from a
    heap, in basis order, and pushes those a subtraction brings in, so it
    visits only the rows it subtracts.
    """
    basis: list[tuple[str, int, dict[str, int]]] = []
    position: dict[str, int] = {}  # pivot -> its row's basis index

    def reduce(vec: dict[str, int]) -> dict[str, int]:
        heap = [position[name] for name in vec if name in position]
        heapify(heap)
        while heap:
            pivot, bp, row = basis[heappop(heap)]
            vp = vec.get(pivot)
            if vp is None:  # cancelled by an earlier subtraction
                continue
            g = gcd(bp, vp)
            m, k = bp // g, vp // g
            vec = dict(vec) if m == 1 else {name: m * value for name, value in vec.items()}
            for name, value in row.items():
                old = vec.get(name)
                if old is None and name in position:
                    heappush(heap, position[name])
                value = (old or 0) - k * value
                if value:
                    vec[name] = value
                else:
                    del vec[name]
            vec = _primitive(vec)
        return vec

    for premise in premises:
        reduced = _primitive(reduce(premise))
        if reduced:
            pivot = min(reduced)
            position[pivot] = len(basis)
            basis.append((pivot, reduced[pivot], reduced))
    return not reduce(target)


@dataclass(frozen=True)
class Justification:
    rule: str
    premises: tuple[int, ...] = ()


@dataclass
class Derivation:
    """Ordered, acyclic fact list replaying one proof, one justification per
    fact; ends in the gadget goal."""

    gadget: Gadget
    facts: list[Fact] = field(default_factory=list)
    justifications: list[Justification] = field(default_factory=list)

    def final_fact(self) -> Fact:
        return self.facts[-1]

    def check_wellformed(self) -> None:
        facts, justs = len(self.facts), len(self.justifications)
        if not facts or facts != justs:
            raise EngineError(f"a derivation needs at least one fact and one justification per fact, got {facts} facts and {justs} justifications")
        for i, just in enumerate(self.justifications):
            if just.rule not in RULES:
                raise EngineError(f"unknown rule {just.rule}")
            if just.premises:
                if min(just.premises) < 0:
                    raise EngineError(f"fact {i} cites a negative premise index")
                if just.rule in AXIOMS:
                    raise EngineError(f"fact {i} is a {just.rule} step and may cite no premises")
                if max(just.premises) >= i:
                    raise EngineError("derivation is not acyclic")
        if fact_key(self.final_fact()) != fact_key(self.gadget.goal):
            raise EngineError("final fact does not match the gadget goal")


class FactStore:
    """Structurally-deduplicated fact list with justifications."""

    def __init__(self, gadget: Gadget) -> None:
        self.gadget = gadget
        self.facts: list[Fact] = []
        self.justifications: list[Justification] = []
        self._index: dict[tuple, int] = {}
        self._sqdist: dict[tuple[str, str], int] = {}  # ordered pair -> first SqDistKnown

    def __len__(self) -> int:
        return len(self.facts)

    def add(self, fact: Fact, rule: str, premises: Sequence[int] = ()) -> int:
        """Index of ``fact``, entered with its justification unless a
        structurally equal fact is already stored."""
        return self._enter(fact_key(fact), fact, rule, premises)

    def require(self, fact: Fact) -> int:
        """Index of ``fact``; a missing Distinct/NonzeroDist of two
        coordinate-distinct points is asserted as its axiom on demand."""
        key = fact_key(fact)
        idx = self._index.get(key)
        if idx is not None:
            return idx
        if isinstance(fact, (Distinct, NonzeroDist)):
            pts = self.gadget.points
            if fact.p in pts and fact.q in pts and not (pts[fact.p] == pts[fact.q]):
                return self._enter(key, fact, "Injectivity" if isinstance(fact, Distinct) else "NonzeroDistance")
        raise ReplayFailed(f"required fact missing from store: {fact}")

    def _enter(self, key: tuple, fact: Fact, rule: str, premises: Sequence[int] = ()) -> int:
        """``add`` with the fact's key already computed; the key is hashed
        once, by the ``setdefault`` that looks it up and enters it."""
        n = len(self.facts)
        idx = self._index.setdefault(key, n)
        if idx != n:
            return idx
        for p in premises:
            if not 0 <= p < n:
                del self._index[key]
                raise EngineError("premise reference out of range")
        self.facts.append(fact)
        self.justifications.append(Justification(rule, tuple(premises)))
        if isinstance(fact, SqDistKnown):
            self._sqdist.setdefault(key[1:3], idx)  # the key's ordered pair
        return idx

    def find_sqdist(self, p: str, q: str) -> int | None:
        return self._sqdist.get(_pair(p, q))

    def require_sqdist(self, p: str, q: str) -> int:
        idx = self.find_sqdist(p, q)
        if idx is None:
            raise ReplayFailed(f"no certified squared distance for ({p}, {q})")
        return idx


# ---------------------------------------------------------------------------
# Certificate seeding (rational-distance axioms)
# ---------------------------------------------------------------------------


def assert_certificate(gadget: Gadget) -> FactStore:
    """Seed a store with one SqDistKnown per certificate entry; the pair axioms
    are asserted by ``FactStore.require`` when a lemma cites them."""
    try:
        gadget.validate()
    except InvalidGadget as exc:
        raise InconsistentCertificate(str(exc)) from exc
    store = FactStore(gadget)
    for entry in gadget.certificate:
        store.add(SqDistKnown(entry.p, entry.q, entry.d2), "RationalDistanceAxiom")
    return store


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _prop3_conclude(facts: Sequence[Fact], premises: Sequence[int], conclusion: Fact | None) -> tuple[VecScale]:
    cited = [facts[i] for i in premises]
    if len(cited) != 3 or not all(isinstance(f, SqDistKnown) for f in cited):
        raise PatternMismatch("Prop3 needs three SqDistKnown premises")
    f1, f2, f3 = cited
    names = {f1.p, f1.q} | {f2.p, f2.q} | {f3.p, f3.q}
    if len(names) != 3:
        raise PatternMismatch("Prop3 premises must form a triangle")
    orders = [(f1, f2, f3), (f1, f3, f2), (f2, f1, f3), (f2, f3, f1), (f3, f1, f2), (f3, f2, f1)]
    saw_rational_roots = False
    for zx, xxt, zxt in orders:
        shared_zx = {zx.p, zx.q} & {zxt.p, zxt.q}
        shared_x = {zx.p, zx.q} & {xxt.p, xxt.q}
        shared_xt = {xxt.p, xxt.q} & {zxt.p, zxt.q}
        if not (len(shared_zx) == len(shared_x) == len(shared_xt) == 1):
            continue
        z, x, xt = shared_zx.pop(), shared_x.pop(), shared_xt.pop()
        if len({z, x, xt}) != 3:
            continue
        sa = _frac_sqrt(zx.v)
        sb = _frac_sqrt(xxt.v)
        if sa is None or sb is None:
            continue
        saw_rational_roots = True
        for a in (sa, -sa):
            for b in (sb, -sb):
                if a + b == 0:
                    continue
                if (a + b) ** 2 == zxt.v:
                    return (VecScale(a=z, b=x, c=z, d=xt, r=a / (a + b)),)
    if not saw_rational_roots:
        raise NonRationalPattern("no rational square-root decomposition of the given squared distances")
    raise PatternMismatch("premises do not match the a^2 / b^2 / (a+b)^2 pattern")


def _prop4_conclude(facts: Sequence[Fact], premises: Sequence[int], conclusion: Fact | None) -> tuple[VecEq, VecEq]:
    sorts = {SqDistKnown: [], NonzeroDist: [], Distinct: []}
    for i in premises:
        sorts.get(type(facts[i]), []).append(facts[i])
    dists, nonzero, distinct = sorts.values()
    if len(dists) != 4 or len(nonzero) != 1 or len(distinct) != 1:
        raise PatternMismatch(
            "Prop4 needs four SqDistKnown, one NonzeroDist and one Distinct premise"
        )
    e, f = nonzero[0].p, nonzero[0].q
    c, d = distinct[0].p, distinct[0].q
    if len({e, f, c, d}) != 4:
        raise PatternMismatch("Prop4 premise points are not four distinct names")
    needed = {_pair(e, c), _pair(f, c), _pair(e, d), _pair(f, d)}
    seen, v, equal = set(), dists[0].v, True
    for fact in dists:
        pair = _pair(fact.p, fact.q)
        if pair not in needed:
            raise PatternMismatch(f"unexpected distance pair {set(pair)}")
        seen.add(pair)
        equal = equal and (fact.v is v or fact.v == v)  # a Fraction == is pure Python
    if seen != needed:
        raise PatternMismatch("distance premises do not cover EC, FC, ED, FD")
    if not equal:
        raise PatternMismatch("the four squared distances are not equal")
    # EC = DF and FC = ED; replay checks each kept conclusion on the coordinates
    return VecEq(a=e, b=c, c=d, d=f), VecEq(a=f, b=c, c=d, d=e)


def _vec_algebra_conclude(facts: Sequence[Fact], premises: Sequence[int], conclusion: Fact | None) -> tuple[Fact]:
    target = _linear_relation(conclusion)
    if target is None:
        raise PatternMismatch("VecAlgebra conclusion must be a vector fact")
    vectors = []
    for i in premises:
        rel = _linear_relation(facts[i])
        if rel is None:
            raise PatternMismatch("VecAlgebra premises must be vector facts")
        vectors.append(rel)
    if not _in_span(target, vectors):
        raise PatternMismatch("conclusion is not a rational combination of the premises")
    return (conclusion,)


@lru_cache(maxsize=1)
def kempe_identities_verified() -> bool:
    """Soundness certificate: the four symbolic determinant factorizations and
    the closing dot-product identity, checked by exact expansion."""
    checks = [identity.holds() for identity in KEMPE_IDENTITIES]
    a, c, e = (KEMPE_SYMBOLS[name] for name in "ace")
    dot = Fraction(1, 2) * a - Fraction(1, 2) * c + Fraction(1, 2) * e - 8
    checks.append(dot.substitute({"e": 16 - 3 * c, "a": 4 * c}).is_zero())
    return all(checks)


def _infer_kempe_roles(dists: Mapping[frozenset, Fraction], conclusion: DotZero) -> dict[str, str]:
    """Recover the role assignment of a linkage step from its premise values."""
    roles = {"D": conclusion.a, "E": conclusion.b, "A": conclusion.c, "B": conclusion.d}
    names = set()
    for pair in dists:
        names |= set(pair)
    rest = names - set(roles.values())
    for name in rest:
        if dists.get(frozenset((roles["A"], name))) == KEMPE_SQ_DISTANCES[("A", "F")]:
            roles["F"] = name
        elif dists.get(frozenset((roles["B"], name))) == KEMPE_SQ_DISTANCES[("C", "B")]:
            roles["C"] = name
    if "C" not in roles or "F" not in roles:
        raise PatternMismatch("cannot recover the linkage role assignment")
    return roles


def _kempe_conclude(facts: Sequence[Fact], premises: Sequence[int], conclusion: Fact | None) -> tuple[DotZero]:
    if not kempe_identities_verified():  # pragma: no cover - identities are fixed
        raise SoundnessCertificateMissing(
            "the symbolic determinant identities were not verified in this build"
        )
    if not isinstance(conclusion, DotZero):
        raise PatternMismatch("linkage conclusion must be a DotZero fact")
    cited = [facts[i] for i in premises]
    dists = {frozenset((f.p, f.q)): f.v for f in cited if isinstance(f, SqDistKnown)}
    nonzero = {frozenset((f.p, f.q)) for f in cited if isinstance(f, NonzeroDist)}
    roles = _infer_kempe_roles(dists, conclusion)
    for (r1, r2), value in KEMPE_SQ_DISTANCES.items():
        pair = frozenset((roles[r1], roles[r2]))
        if dists.get(pair) != value:
            raise PatternMismatch(f"missing or wrong linkage distance {r1}{r2} = {value}")
    for r1, r2 in KEMPE_NONZERO_PAIRS:
        if frozenset((roles[r1], roles[r2])) not in nonzero:
            raise PatternMismatch(f"missing nonzero-distance premise {r1}{r2}")
    return (conclusion,)


def _composition_conclude(facts: Sequence[Fact], premises: Sequence[int], conclusion: Fact | None) -> tuple[DotZero]:
    cited = [facts[i] for i in premises]
    dot = [f for f in cited if isinstance(f, DotZero)]
    scales = [f for f in cited if isinstance(f, VecScale)]
    if len(dot) != 1 or len(scales) != 2:
        raise PatternMismatch("Composition needs one DotZero and two VecScale premises")
    base = dot[0]
    first = {base.a, base.b}
    second = {base.c, base.d}
    new_first = new_second = None
    for scale in scales:
        src = {scale.c, scale.d}
        if src == first and new_first is None:
            new_first = (scale.a, scale.b)
        elif src == second and new_second is None:
            new_second = (scale.a, scale.b)
        else:
            raise PatternMismatch("VecScale premise does not rescale a DotZero side")
    if new_first is None or new_second is None:
        raise PatternMismatch("both DotZero sides must be rescaled")
    return (DotZero(a=new_first[0], b=new_first[1], c=new_second[0], d=new_second[1]),)


# each lemma maps (fact list, premise indices, stated conclusion) to the facts
# it admits, reading only the cited facts; VecAlgebra and KempeChain admit the
# stated conclusion or raise
_LEMMAS = {
    "Prop3": _prop3_conclude,
    "Prop4": _prop4_conclude,
    "VecAlgebra": _vec_algebra_conclude,
    "KempeChain": _kempe_conclude,
    "Composition": _composition_conclude,
}

AXIOMS = ("RationalDistanceAxiom", "Injectivity", "NonzeroDistance")

RULES = (*AXIOMS, *_LEMMAS)


def _conclusions(facts: Sequence[Fact], rule: str, premises: Sequence[int], conclusion: Fact | None) -> tuple[Fact, ...]:
    if rule not in _LEMMAS:
        raise EngineError(f"unknown or axiom-only rule {rule!r}")
    return _LEMMAS[rule](facts, premises, conclusion)


def apply_rule(store: FactStore, rule: str, premises: Sequence[int], conclusion: Fact | None = None) -> list[int]:
    """Apply a deduction rule; returns the store indices of its conclusions,
    each added to the store with its justification."""
    return [store.add(fact, rule, premises) for fact in _conclusions(store.facts, rule, premises, conclusion)]


# ---------------------------------------------------------------------------
# Replays: directed proof scripts walking a gadget's layout
# ---------------------------------------------------------------------------


def _replay_layout(store: FactStore, layout: Mapping) -> int:
    kind = layout.get("kind")
    if not isinstance(kind, str) or kind not in _REPLAYS:
        raise ReplayFailed(f"no replay script for layout kind {kind!r}")
    return _REPLAYS[kind](store, layout)


def _replay_division_layout(store: FactStore, layout: Mapping) -> int:
    roles = layout["roles"]
    a, b, c, d, e, f = (roles[k] for k in "ABCDEF")
    p1 = [store.require_sqdist(a, e), store.require_sqdist(e, d), store.require_sqdist(a, d)]
    scale1 = apply_rule(store, "Prop3", p1)[0]
    p2 = [store.require_sqdist(b, f), store.require_sqdist(f, d), store.require_sqdist(b, d)]
    scale2 = apply_rule(store, "Prop3", p2)[0]
    p4 = [
        store.require_sqdist(e, c),
        store.require_sqdist(f, c),
        store.require_sqdist(e, d),
        store.require_sqdist(f, d),
        store.require(NonzeroDist(e, f)),
        store.require(Distinct(c, d)),
    ]
    veceq = apply_rule(store, "Prop4", p4)[0]
    return apply_rule(store, "VecAlgebra", [scale1, scale2, veceq], conclusion=layout_goal(layout))[0]


def _replay_chain_layout(store: FactStore, layout: Mapping) -> int:
    track1 = layout["track1"]
    track2 = layout["track2"]
    conclusion = layout_goal(layout)
    if len(track1) == 1 or track1 == track2:
        return apply_rule(store, "VecAlgebra", [], conclusion=conclusion)[0]
    step_ids = []
    for i in range(len(track1) - 1):
        a_i, a_next = track1[i], track1[i + 1]
        c_i, c_next = track2[i], track2[i + 1]
        premises = [
            store.require_sqdist(a_i, c_i),
            store.require_sqdist(c_next, c_i),
            store.require_sqdist(a_i, a_next),
            store.require_sqdist(c_next, a_next),
            store.require(NonzeroDist(a_i, c_next)),
            store.require(Distinct(c_i, a_next)),
        ]
        # From NonzeroDist(E, F) and Distinct(C, D), as stored, Prop4 concludes
        # EC = DF, then FC = DE; f(A_i)A_{i+1} = f(C_i)C_{i+1} is the first
        # when E is A_i and C is A_{i+1}, or neither
        first = (store.facts[premises[4]].p == a_i) == (store.facts[premises[5]].p == a_next)
        step_ids.append(apply_rule(store, "Prop4", premises)[0 if first else 1])
    return apply_rule(store, "VecAlgebra", step_ids, conclusion=conclusion)[0]


def _replay_collect_layout(store: FactStore, layout: Mapping) -> int:
    """Bridge and scale: the sub-layouts' conclusions combine linearly."""
    premises = [_replay_layout(store, sub) for sub in layout["sub"]]
    return apply_rule(store, "VecAlgebra", premises, conclusion=layout_goal(layout))[0]


def _replay_kempe_layout(store: FactStore, layout: Mapping) -> int:
    roles = layout["roles"]
    premises = []
    for r1, r2 in KEMPE_SQ_DISTANCES:
        premises.append(store.require_sqdist(roles[r1], roles[r2]))
    for r1, r2 in KEMPE_NONZERO_PAIRS:
        premises.append(store.require(NonzeroDist(roles[r1], roles[r2])))
    return apply_rule(store, "KempeChain", premises, conclusion=layout_goal(layout))[0]


def _replay_perp_layout(store: FactStore, layout: Mapping) -> int:
    kempe_id = _replay_layout(store, layout["kempe"])
    scale_pq_id = _replay_layout(store, layout["scale_pq"])
    scale_xy_id = _replay_layout(store, layout["scale_xy"])
    scale_pq = store.facts[scale_pq_id]
    scale_xy = store.facts[scale_xy_id]
    if scale_pq.r == 0 or scale_xy.r == 0:
        raise ReplayFailed("degenerate zero ratio in perpendicularity transfer")
    goal = apply_rule(store, "Composition", [kempe_id, scale_pq_id, scale_xy_id])[0]
    if fact_key(store.facts[goal]) != fact_key(layout_goal(layout)):
        raise ReplayFailed("composition did not produce the expected perpendicularity")
    return goal


_REPLAYS = {
    "division": _replay_division_layout,
    "chain": _replay_chain_layout,
    "bridge": _replay_collect_layout,
    "scale": _replay_collect_layout,
    "kempe": _replay_kempe_layout,
    "perp": _replay_perp_layout,
}


def _finish(store: FactStore, goal_id: int) -> Derivation:
    """Slice the store to the goal's premise closure, in store order, with the
    premises renumbered; the goal is the highest kept index, so it ends last.
    Every kept lemma conclusion must hold on the gadget's own coordinates."""
    if fact_key(store.facts[goal_id]) != fact_key(store.gadget.goal):
        raise ReplayFailed("replay conclusion does not match the gadget goal")
    keep = {goal_id}
    stack = [goal_id]
    while stack:
        for p in store.justifications[stack.pop()].premises:
            if p not in keep:
                keep.add(p)
                stack.append(p)
    order = sorted(keep)
    renumber = {old: new for new, old in enumerate(order)}
    points = point_table(store.gadget.points)
    facts, justifications = [], []
    for i in order:
        fact, just = store.facts[i], store.justifications[i]
        premises = tuple(map(renumber.__getitem__, just.premises))
        if premises != just.premises:
            just = Justification(just.rule, premises)
        if just.rule in _LEMMAS and not fact.holds(points):
            raise ReplayFailed(f"step {len(facts)} ({just.rule}) concludes {fact}, false on the gadget's coordinates")
        facts.append(fact)
        justifications.append(just)
    return Derivation(store.gadget, facts, justifications)


def replay(gadget: Gadget) -> Derivation:
    """Replay the proof script matching the gadget's construction."""
    store = assert_certificate(gadget)
    goal_id = _replay_layout(store, gadget.layout)
    return _finish(store, goal_id)


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    ok: bool
    checked: int
    violated_index: int | None = None
    violated_fact: Fact | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_derivation(derivation: Derivation, model) -> Verdict:
    """Evaluate every fact at the model's image coordinates; exact verdict.
    The images are classified once, into their one table
    (``cm.image_table``).  A model undefined at a point raises
    ``ModelUndefinedAtPoint`` naming the first such point: where the table
    cannot be built, the points are mapped by ``apply`` in order to find it."""
    points = derivation.gadget.points
    try:
        images = image_table(model, points)
    except Exception:
        for name, point in points.items():
            try:
                model.apply(point)
            except Exception as exc:
                raise ModelUndefinedAtPoint(f"model undefined at {name}: {exc}") from exc
        raise
    for idx, fact in enumerate(derivation.facts):
        if not fact.holds(images):
            return Verdict(ok=False, checked=idx + 1, violated_index=idx, violated_fact=fact)
    return Verdict(ok=True, checked=len(derivation.facts))


def recheck_derivation(derivation: Derivation) -> None:
    """Independently re-validate every step of a derivation.

    Re-runs each rule on its recorded premises and requires the stored fact to
    match the re-derived conclusion; axiom facts must re-verify against the
    gadget's coordinates.  Raises on the first illegitimate step.  The rules
    read the derivation's own fact list: ``check_wellformed`` bounds every
    premise index below its step, so each step cites only earlier facts.
    """
    derivation.check_wellformed()
    gadget = derivation.gadget
    gadget.validate()
    cert_values = {_pair(e.p, e.q): e.d2 for e in gadget.certificate}
    points = gadget.points
    facts = derivation.facts
    for i, (fact, just) in enumerate(zip(facts, derivation.justifications)):
        rule = just.rule
        try:
            if rule == "RationalDistanceAxiom":
                if not isinstance(fact, SqDistKnown):
                    raise PatternMismatch("fact is not a certificate entry")
                value = cert_values.get(_pair(fact.p, fact.q))
                if value is not fact.v and value != fact.v:  # a Fraction == is pure Python
                    raise PatternMismatch("fact is not a certificate entry")
            elif rule == "Injectivity" or rule == "NonzeroDistance":
                if not isinstance(fact, Distinct if rule == "Injectivity" else NonzeroDist):
                    raise PatternMismatch("points are not coordinate-distinct")
                if fact.p not in points or fact.q not in points:
                    raise PatternMismatch(f"{fact} names a point the gadget lacks")
                if points[fact.p] == points[fact.q]:
                    raise PatternMismatch("points are not coordinate-distinct")
            else:
                key = fact_key(fact)
                if all(fact_key(c) != key for c in _conclusions(facts, rule, just.premises, fact)):
                    raise PatternMismatch("stored fact differs from the rule's conclusion")
        except PatternMismatch as exc:
            raise ReplayFailed(f"step {i} ({rule}) fails re-checking: {exc}") from exc
