"""The differential harness: the inputs that every fast path is tested on,
and one reference per fast path.

Fast path -> reference:

- the rational, kernel, packed and form point tables -> the base
  ``cm.PointTable``, the carrier formula; ``formula_everywhere`` runs whole
  reports on it;
- the base table's facts -> ``oracle_holds``, each fact's vector equations;
- the tower kernels -> the ``Fraction``-vector kernels (``vmul``, ``vinv``,
  ``vec_sqrt``, ``oracle_sign``, ...), and their sparse products, a
  kernel table's squared distance from nonzero pairs, and its closed form
  at depth <= 2 -> the halving recursion on dense vectors
  (``recursive_imul``, ``recursive_isq``, ``halving_sum``,
  ``halving_recursion``);
- the K(eps) kernels -> ``OracleFun``, the tower-polynomial oracle;
- the span rule -> ``fraction_linear_relation`` and ``fraction_in_span``;
- whole checks and reports -> ``references``, the formula everywhere with
  every fact by ``oracle_holds``, and ``oracle_preservation`` and
  ``oracle_structure`` for the reports.

A new fast path joins by naming its reference here, and its differential
test draws its inputs from the strategies and subjects below.
"""

import dataclasses
import random
import sys
from contextlib import ExitStack, contextmanager
from fractions import Fraction as F
from itertools import combinations
from math import gcd, isqrt, lcm
from pathlib import Path
from unittest import mock

from hypothesis import strategies as st

import rigidity_forge
from rigidity_forge import cm, engine, gadgets, models, scalars, suite
from rigidity_forge.cm import Point, Vec2, rational_point, sqdist
from rigidity_forge.engine import Derivation, Distinct, NonzeroDist, SqDistKnown, check_derivation
from rigidity_forge.gadgets import AffineComb, DotZero, VecEq, VecScale, build_rhombus_chain, build_translation_bridge, circle_intersection
from rigidity_forge.models import (
    PairCheck,
    PreservationReport,
    StructureReport,
    conjugation_model,
    eps_rotation_model,
    identity_model,
    make_pythagorean_rotation,
    verify_preservation,
    verify_structure,
)
from rigidity_forge.scalars import QQ, BadGeneratorIndex, TowerElem, adjoin_sqrt

# -- towers ------------------------------------------------------------------------------------


def tower_chain(*radicands):
    """Towers of depth 0..len(radicands); a callable radicand sees the tower so far."""
    towers = [QQ]
    for radicand in radicands:
        tower = towers[-1]
        result = adjoin_sqrt(tower, radicand(tower) if callable(radicand) else radicand)
        assert not result.absorbed
        towers.append(result.tower)
    return towers


def extended(tower, radicand=13):
    return adjoin_sqrt(tower, radicand).tower


# the two test families, depths 0-4.  Radicands with non-integer coordinates
# run the denominator path of the multiply kernel: sqrt(1/2), sqrt(3/5 + r0), ...
FRACTIONAL_TOWERS = tower_chain(
    F(1, 2),
    lambda t: t.rational(F(3, 5)) + t.generator(0),
    F(7, 3),
    lambda t: t.rational(F(2, 7)) + t.generator(1) * F(1, 3),
)
INTEGER_TOWERS = tower_chain(2, 3, lambda t: t.one() + t.generator(0), 5)


def circle_towers():
    """Q(sqrt(2), sqrt(-21/4 + 4 sqrt(2))), the field of a circle_intersection
    point, and its extension by sqrt(3/5)."""
    r2 = adjoin_sqrt(QQ, 2)
    t = r2.tower
    point = circle_intersection(Point(t.zero(), t.zero()), 5, Point(t.one() + r2.root, t.zero()), 3)
    nested = point.y.tower
    assert nested.depth == 2 and not nested.gens[1].is_rational()
    return [nested, adjoin_sqrt(nested, F(3, 5)).tower]


# -- point sets ----------------------------------------------------------------------------------

SMALL = st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=7))
sparse_rationals = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))
HUGE = 10**4000 - 1  # 4,000 digits, the largest integer the codec admits


def tower_elem(tower, n, d):
    """The element n/d of ``tower``, built by the public constructor."""
    return TowerElem(tower, [F(c, d) for c in n])


def elems(tower, seed: int, huge: bool = False):
    """Elements of ``tower`` from a seeded generator (drawing every
    coordinate through hypothesis would dominate a test's time): small
    fractions, zeros, and with ``huge`` 4,000-digit entries."""
    rng = random.Random(seed)

    def coordinate():
        roll = rng.randrange(6)
        if roll == 0:
            return F(0)
        if huge and roll == 1:
            return F(rng.choice((-1, 1)) * (10**3999 + rng.randrange(100)), rng.randint(1, 3))
        return F(rng.randint(-6, 6), rng.randint(1, 7))

    while True:
        yield TowerElem(tower, [coordinate() for _ in range(tower.dim)])


def points(tower, seed: int, names, huge: bool = False):
    values = elems(tower, seed, huge)
    return {name: Point(next(values), next(values)) for name in names}


def rationals(seed: int):
    """Rationals from a seeded generator: zeros, small fractions, and
    4,000-digit numerators and denominators."""
    rng = random.Random(seed)
    huge = lambda: 10**3999 + rng.randrange(10**6)
    while True:
        roll = rng.randrange(8)
        if roll == 0:
            yield F(0)
        elif roll == 1:
            yield F(rng.randint(-9, 9), huge())
        elif roll == 2:
            yield F(rng.choice((-1, 1)) * huge(), rng.randint(1, 12))
        else:
            yield F(rng.randint(-9, 9), rng.randint(1, 12))


def fun_coefficient(tower, rng):
    """A K(eps) coefficient of ``tower``: each coordinate zero, small, or up
    to 10^40 in absolute value, over a denominator of 2 to 7."""

    def coordinate():
        roll = rng.randrange(5)
        if roll == 0:
            return F(0)
        size = 10**40 if roll == 1 else 7
        return F(rng.randint(-size, size), rng.randint(2, 7))

    return TowerElem(tower, [coordinate() for _ in range(tower.dim)])


FACT_KINDS = (SqDistKnown, Distinct, NonzeroDist, VecEq, VecScale, AffineComb, DotZero)


def draw_fact(draw, points, ratios, values, turn, forces):
    """A fact of a drawn kind over four drawn names of ``points`` (names may
    repeat, so coefficients may cancel), with a ratio from ``ratios`` and a
    ``SqDistKnown`` value from ``values(distance)``; then, by a force drawn
    from ``forces``, one point is moved so that the fact holds ("yes"), or a
    linear relation holds on x only, or a ``Distinct`` or ``NonzeroDist``
    pair shares x ("x only") or y ("y only").  A ``DotZero``'s right angle
    is scaled by ``turn()``."""
    a, b, c, d = (draw(st.sampled_from(list(points))) for _ in range(4))
    kind = draw(st.sampled_from(FACT_KINDS))
    if kind is SqDistKnown:
        fact = SqDistKnown(a, b, draw(st.sampled_from(values(sqdist(points[a], points[b])))))
    elif kind in (Distinct, NonzeroDist):
        fact = kind(a, b)
    elif kind in (VecScale, AffineComb):
        fact = VecScale(a, b, c, d, draw(ratios)) if kind is VecScale else AffineComb(c, a, b, draw(ratios))
    else:
        fact = kind(a, b, c, d)
    force, p = draw(st.sampled_from(forces)), points
    if force == "no":
        return fact
    if kind is VecEq:
        p[d] = p[c] + (p[b] - p[a])
    elif kind is VecScale:
        p[b] = p[a] + (p[d] - p[c]).scaled(fact.r)
    elif kind is AffineComb:
        p[c] = p[b] + (p[a] - p[b]).scaled(fact.t)
    elif kind is DotZero:
        u = p[b] - p[a]
        p[d] = p[c] + Vec2(-u.y, u.x).scaled(turn())
    elif kind in (Distinct, NonzeroDist):
        p[b] = p[a] if force == "yes" else Point(p[a].x, p[b].y) if force == "x only" else Point(p[b].x, p[a].y)
    if force == "x only" and kind in (VecEq, VecScale, AffineComb):
        # the relation holds on x and fails on y, unless the moved point cancels
        moved = {VecEq: d, VecScale: b, AffineComb: c}[kind]
        p[moved] = Point(p[moved].x, p[moved].y + 1)
    return fact


def too_large_for(table) -> int:
    """A constant one bit wider than a packed table's budget: it does not
    fit the table's width, so a test against it takes the formula."""
    return 1 << (table._budget + 1)


# -- subjects: what the reports run on -----------------------------------------------------------


class Doubling:
    """p -> 2p after an optional model: not distance preserving."""

    def __init__(self, model=None):
        self.model = model

    def apply(self, p):
        q = p if self.model is None else self.model.apply(p)
        return Point(2 * q.x, 2 * q.y)


def certificate_pairs(gadget):
    return [(gadget.points[c.p], gadget.points[c.q]) for c in gadget.certificate]


def criterion_9_data():
    """Criterion 9's five registered models, multipliers and directions."""
    registered, lambdas, us = suite.criterion_9_sample()
    return [model for _, model in registered], lambdas, us


def altered(derivation):
    """``derivation`` with its final ratio moved by 1/3: false under every model."""
    final = derivation.final_fact()
    return Derivation(derivation.gadget, derivation.facts[:-1] + [dataclasses.replace(final, t=final.t + F(1, 3))], derivation.justifications)


def negative_controls(derivation):
    """Doubling, plain and after the eps rotation, and the altered final
    ratio under identity and both eps models: (subject, model) pairs, the
    models built on the carriers in force when this is called."""
    wrong = altered(derivation)
    return [
        (derivation, Doubling()),
        (derivation, Doubling(eps_rotation_model())),
        (wrong, identity_model()),
        (wrong, eps_rotation_model()),
        (wrong, eps_rotation_model(reflection=True)),
    ]


def soundness_items(preservation=verify_preservation, structure=verify_structure):
    """What the soundness-corpus bench runs, with its models built: every
    corpus x ``model_family`` pair (its verdict and the preservation of its
    certificate pairs), criterion 9's structure reports, and the negative
    controls; one thunk per item."""
    corpus = suite.replay_corpus()
    items = []
    for entry in corpus:
        pairs = certificate_pairs(entry.gadget)
        for name, model in suite.model_family(entry.gadget):
            items.append(lambda e=entry, n=name, m=model, ps=pairs: (e.label, n, check_derivation(e.derivation, m), preservation(m, ps)))
    registered, lambdas, us = criterion_9_data()
    items += [lambda m=model: structure(m, lambdas, us) for model in registered]
    items += [lambda s=subject, m=model: check_derivation(s, m) for subject, model in negative_controls(corpus[0].derivation)]
    return items


def soundness_pass(*reports):
    return [item() for item in soundness_items(*reports)]


def conjugations(domain, frame):
    """Conjugations of ``domain``, plain and with ``frame``, of each
    generator whose flip is an automorphism."""
    out = []
    for generator in range(domain.depth):
        try:
            out += [conjugation_model(domain, generator), conjugation_model(domain, generator, frame)]
        except BadGeneratorIndex:
            pass
    return out


def verdicts_and_reports(derivations, preservation=verify_preservation):
    """Each derivation's ``Verdict`` and certificate ``PreservationReport``
    (by ``preservation``) under identity and every conjugation of its tower
    that is an automorphism, and its ``Verdict`` under Doubling."""
    out = []
    for derivation in derivations:
        pairs = certificate_pairs(derivation.gadget)
        for model in [identity_model()] + conjugations(derivation.gadget.tower, None)[::2]:
            out.append((check_derivation(derivation, model), preservation(model, pairs)))
        out.append(check_derivation(derivation, Doubling()))
    return out


def chain_scale_builds():
    """The chain-scale workload's twelve builds, as (kind, build): rational
    rhombus chains of span 5-80 and translation bridges with irrational
    |AC|."""
    pt = rational_point
    out = [("chain", lambda s=s: build_rhombus_chain(pt(0, 0), pt(s, 0), pt(0, 1), pt(s, 1))) for s in (5, 10, 20, 40, 80)]
    bridges = ((3, (1, 1)), (5, (1, 2)), (10, (2, 3)), (4, (1, 3)), (6, (1, 4)), (8, (3, 1)), (7, (2, 5)))
    return out + [("bridge", lambda s=s, x=x, y=y: build_translation_bridge(pt(0, 0), pt(s, 0), pt(x, y), pt(x + s, y))) for s, (x, y) in bridges]


def chain_scale_gadgets():
    """The chain-scale workload's twelve gadgets (``chain_scale_builds``)."""
    return [build() for _, build in chain_scale_builds()]


def radical_build_templates(seed=12345):
    """The radical-build workload's fifteen constructions at ``seed``, from
    the benchmark's own template list."""
    root = str(Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.workloads import radical_templates

    return radical_templates(rigidity_forge, random.Random(seed))


def flipped_rational_part(model):
    """``model`` with a mutant embedding whose ``_signs`` also flip
    coordinate 0: it no longer fixes Q."""
    embedding = dataclasses.replace(model.embedding)
    object.__setattr__(embedding, "_signs", (-embedding._signs[0],) + embedding._signs[1:])
    return models.ModelMap(embedding, model.frame)


def q_moving_points(tower, seed):
    values = elems(tower, seed)
    return [Point(next(values), next(values)) for _ in range(3)] + [Point(tower.one(), tower.zero()), Point(tower.zero(), tower.zero())]


def q_moving_reports(towers, preservation=verify_preservation):
    """Preservation reports (by ``preservation``) of Q-moving conjugation
    mutants, framed and not."""
    reports = []
    for tower in towers:
        for seed, framed in ((0, False), (1, True)):
            frame = make_pythagorean_rotation(F(1, 2), translation=(F(1), F(-2))) if framed else None
            mutant = flipped_rational_part(conjugation_model(extended(tower), tower.depth, frame))
            reports.append(preservation(mutant, list(combinations(q_moving_points(tower, seed), 2))))
    return reports


# -- documents: single-node edits of encoded JSON -----------------------------------------------

DELETE = object()  # the edit that deletes its node


def node_paths(node, path=()):
    """Paths to every node below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def edit(doc, path, value):
    """``doc`` with the node at ``path`` set to ``value``, or deleted for
    ``DELETE``; in place.  The node must be there: an edit never adds one."""
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key]  # KeyError or IndexError for a node that is not there
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    return doc


# -- the table reference: the formula everywhere -------------------------------------------------


@contextmanager
def formula_everywhere():
    """Every point table is the base ``cm.PointTable``, the carrier formula,
    and every image table maps its points by ``apply`` into one
    (``cm.image_table`` takes ``ModelMap.image_table`` where a model has
    it, else ``cm.mapped_table``): the reference of the rational, kernel,
    packed and form tables, for whole checks and reports."""
    formula = lambda points: points if isinstance(points, cm.PointTable) else cm.PointTable(points)
    with ExitStack() as stack:
        for module in (cm, engine, gadgets, models):
            stack.enter_context(mock.patch.object(module, "point_table", formula))
        stack.enter_context(mock.patch.object(models.ModelMap, "image_table", lambda model, points: cm.mapped_table(model.apply, points)))
        yield


# -- the report references: facts, preservation and structure by carrier arithmetic --------------


def is_zero(x) -> bool:
    return x.is_zero() if hasattr(x, "is_zero") else x == 0


def oracle_holds(fact, p):
    """``fact`` on the points ``p`` by the vector equations of its definition."""
    if isinstance(fact, SqDistKnown):
        return sqdist(p[fact.p], p[fact.q]) == fact.v
    if isinstance(fact, Distinct):
        return not (p[fact.p] == p[fact.q])
    if isinstance(fact, NonzeroDist):
        return not is_zero(sqdist(p[fact.p], p[fact.q]))
    if isinstance(fact, AffineComb):
        return (p[fact.c] - p[fact.b]) == (p[fact.a] - p[fact.b]).scaled(fact.t)
    if isinstance(fact, VecEq):
        return (p[fact.b] - p[fact.a]) == (p[fact.d] - p[fact.c])
    if isinstance(fact, VecScale):
        return (p[fact.b] - p[fact.a]) == (p[fact.d] - p[fact.c]).scaled(fact.r)
    assert isinstance(fact, DotZero)
    return is_zero((p[fact.b] - p[fact.a]).dot(p[fact.d] - p[fact.c]))


@contextmanager
def oracle_facts():
    """Every fact kind's ``holds`` is ``oracle_holds``."""
    with ExitStack() as stack:
        for kind in FACT_KINDS:
            stack.enter_context(mock.patch.object(kind, "holds", oracle_holds))
        yield


@contextmanager
def references():
    """The references of whole checks and reports: the formula everywhere
    and every fact by ``oracle_holds``; a run passes ``oracle_preservation``
    and ``oracle_structure`` for the reports."""
    with formula_everywhere(), oracle_facts():
        yield


def mapped_once(f):
    """``f`` on points, evaluated once per point object: an image is looked
    up by the point's id, and the entry holds the point, so its id stays
    valid for the call."""
    by_id = {}

    def image(p):
        hit = by_id.get(id(p))
        if hit is None:
            hit = by_id[id(p)] = (p, f(p))
        return hit[1]

    return image


def oracle_preservation(model, pairs):
    image = mapped_once(model.apply)
    checks = []
    for p, q in pairs:
        value = sqdist(p, q)
        image_value = sqdist(image(p), image(q))
        ok = image_value == model.rho(value)
        if ok and value.is_rational():
            ok = image_value == value.as_fraction()
        checks.append(PairCheck((p, q), ok))
    return PreservationReport(ok=all(check.ok for check in checks), checks=tuple(checks))


def oracle_extract_theta(phi_lu, phi_u):
    for num, den in ((phi_lu.x, phi_u.x), (phi_lu.y, phi_u.y)):
        if not den.is_zero():
            theta = num * den.inverse()
            return theta if phi_u.scaled(theta) == phi_lu else None
    return None


def oracle_structure(model, lambdas, us):
    tower = us[0].x.tower
    m0 = model.apply(Point(tower.rational(0), tower.rational(0)))
    phi = mapped_once(lambda p: model.apply(p) - m0)
    additivity_ok = all(phi(Point(u.x + v.x, u.y + v.y)) == phi(u) + phi(v) for u, v in combinations(us, 2))
    theta_ok = True
    thetas = []
    for lam in lambdas:
        rho_lam = model.rho(lam if isinstance(lam, TowerElem) else tower.rational(lam))
        for u in us:
            observed = oracle_extract_theta(phi(Point(lam * u.x, lam * u.y)), phi(u))
            if observed is None or not observed == rho_lam:
                theta_ok = False
                break
        thetas.append(rho_lam)
        if not theta_ok:
            break
    lam_elems = [lam if isinstance(lam, TowerElem) else tower.rational(lam) for lam in lambdas]
    homomorphism_ok = all(
        model.rho(a + b) == model.rho(a) + model.rho(b) and model.rho(a * b) == model.rho(a) * model.rho(b) for a, b in combinations(lam_elems, 2)
    )
    return StructureReport(additivity_ok, theta_ok, homomorphism_ok, tuple(thetas))


# -- the tower-kernel reference: Fraction vectors -----------------------------------------------
#
# The coordinate-vector arithmetic the package used before towers were held
# as integer vectors over one denominator: 2^k Fraction coordinates over the
# subset-bitmask basis, each radicand a Fraction vector of length 2^i.

OracleVec = tuple


def vzero(n: int) -> OracleVec:
    return (F(0),) * n


def vadd(a: OracleVec, b: OracleVec) -> OracleVec:
    return tuple(x + y for x, y in zip(a, b))


def vneg(a: OracleVec) -> OracleVec:
    return tuple(-x for x in a)


def vmul(rads, a: OracleVec, b: OracleVec) -> OracleVec:
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    al, ah, bl, bh = a[:h], a[h:], b[:h], b[h:]
    rad = rads[h.bit_length() - 1]
    lo = vadd(vmul(rads, al, bl), vmul(rads, vmul(rads, ah, bh), rad))
    hi = vadd(vmul(rads, al, bh), vmul(rads, ah, bl))
    return lo + hi


def vinv(rads, a: OracleVec) -> OracleVec:
    n = len(a)
    if n == 1:
        return (1 / a[0],)
    h = n // 2
    lo, hi = a[:h], a[h:]
    if all(x == 0 for x in hi):
        return vinv(rads, lo) + vzero(h)
    rad = rads[h.bit_length() - 1]
    norm = vadd(vmul(rads, lo, lo), vneg(vmul(rads, vmul(rads, hi, hi), rad)))
    ninv = vinv(rads, norm)
    return vmul(rads, lo, ninv) + vneg(vmul(rads, hi, ninv))


def frac_sqrt(q: F):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return F(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def vec_sqrt(rads, x: OracleVec):
    n = len(x)
    if n == 1:
        r = frac_sqrt(x[0])
        return None if r is None else (r,)
    h = n // 2
    u, v = x[:h], x[h:]
    rad = rads[h.bit_length() - 1]
    if all(c == 0 for c in v):
        r = vec_sqrt(rads, u)
        if r is not None:
            return r + vzero(h)
        if any(c != 0 for c in u):
            b = vec_sqrt(rads, vmul(rads, u, vinv(rads, rad)))
            if b is not None:
                return vzero(h) + b
        return None
    disc = vadd(vmul(rads, u, u), vneg(vmul(rads, vmul(rads, v, v), rad)))
    nrt = vec_sqrt(rads, disc)
    if nrt is None:
        return None
    half = (F(1, 2),) + vzero(h - 1)
    for signed in (nrt, vneg(nrt)):
        a = vec_sqrt(rads, vmul(rads, vadd(u, signed), half))
        if a is None or all(c == 0 for c in a):
            continue
        candidate = a + vmul(rads, vmul(rads, v, half), vinv(rads, a))
        if vmul(rads, candidate, candidate) == x:
            return candidate
    return None


def oracle_bounds(tower, coords: OracleVec, prec: int):
    """Interval enclosure: dyadic square-root bounds of each radical, then
    interval products over the basis."""
    scale = 1 << prec
    radicals = []

    def enclose(vec):
        lo = hi = F(0)
        for mask, q in enumerate(vec):
            if q == 0:
                continue
            t_lo = t_hi = F(1)
            for i, (r_lo, r_hi) in enumerate(radicals):
                if mask >> i & 1:
                    t_lo, t_hi = t_lo * r_lo, t_hi * r_hi
            lo += t_lo * q if q > 0 else t_hi * q
            hi += t_hi * q if q > 0 else t_lo * q
        return lo, hi

    for gen in tower.gens:
        lo, hi = enclose(gen.coords)
        lo = max(lo, F(0))
        radicals.append((
            F(isqrt(lo.numerator * lo.denominator * scale * scale), lo.denominator * scale),
            F(isqrt(hi.numerator * hi.denominator * scale * scale) + 1, hi.denominator * scale),
        ))
    return enclose(coords)


def oracle_sign(tower, coords: OracleVec) -> int:
    if all(c == 0 for c in coords):
        return 0
    prec = 8
    while True:
        lo, hi = oracle_bounds(tower, coords, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2


def fraction_rads(tower):
    return tuple(g.coords for g in tower.gens)


# -- the sparse-product reference: the halving recursion on integer vectors ------------------------


def canon(n, k):
    """n/k in lowest terms over a positive k."""
    g = gcd(k, *n) * (1 if k > 0 else -1)
    return tuple(c // g for c in n), k // g


def iadd(u, ku, v, kv):
    """u/ku + v/kv, over ku when the denominators agree, else over ku*kv."""
    if ku == kv:
        return tuple(x + y for x, y in zip(u, v)), ku
    return tuple(x * kv + y * ku for x, y in zip(u, v)), ku * kv


def ijoin(u, ku, v, kv):
    """The coordinates of u/ku followed by those of v/kv, over one denominator."""
    if ku == kv:
        return u + v, ku
    return tuple(x * kv for x in u) + tuple(y * ku for y in v), ku * kv


def halving_sum(rads, a, ka, b, kb):
    """u^2 + v^2 and its denominator for the difference (u, v) = a/ka - b/kb
    of two points' integer forms by the halving recursion
    (``recursive_isq``), on the dense u and v over ka*kb: the reference of
    the closed form (``_isq_closed``)."""
    w, n = [x * kb - y * ka for x, y in zip(a, b)], len(a) >> 1
    s, k = iadd(*recursive_isq(rads, tuple(w[:n])), *recursive_isq(rads, tuple(w[n:])))
    return s, k * (ka * kb) ** 2


@contextmanager
def halving_recursion():
    """Every tower product and square by the halving recursion: the reference
    of the sparse paths of ``_imul`` and ``_isq``, of a kernel table's
    squared distance from its points' nonzero pairs, which then squares the
    dense differences (``_isq_sum`` declines every pair), and of the closed
    form at depth <= 2, whose difference is squared by ``halving_sum``."""
    halves = dict(_imul=scalars._imul_halves, _isq=scalars._isq_halves)
    with mock.patch.multiple(scalars, **halves), mock.patch.multiple(cm, _isq_sum=lambda *args: None, _isq_closed=halving_sum, **halves):
        yield


@contextmanager
def tower_work():
    """The tower work done inside the block, counted with no clock:
    ``merges``, the merges of two towers neither a prefix of the other
    (``scalars._merge``), ``finish_merges``, those made while a builder's
    ``finish`` unifies its points (``gadgets._minimize_points``), and
    ``sqrts``, the square-root tests (``scalars._sqrt``, recursive calls
    included).  The join memo starts empty, so the counts do not depend on
    what ran before."""
    counts = dict(merges=0, finish_merges=0, sqrts=0)
    finishing = [False]
    real_merge, real_sqrt, real_minimize = scalars._merge, scalars._sqrt, gadgets._minimize_points

    def merge(base, other):
        counts["merges"] += 1
        counts["finish_merges"] += finishing[0]
        return real_merge(base, other)

    def sqrt(*args):
        counts["sqrts"] += 1
        return real_sqrt(*args)

    def minimize(points):
        finishing[0] = True
        try:
            return real_minimize(points)
        finally:
            finishing[0] = False

    with mock.patch.multiple(scalars, _merge=merge, _sqrt=sqrt, _joins={}), mock.patch.object(gadgets, "_minimize_points", minimize):
        yield counts


@contextmanager
def sparse_squares():
    """The calls of the sparse square kernel inside the block, each as
    (dimension, number of vectors it sums): 1 for a dense vector's square
    (``_isq``), 2 for a kernel table's squared distance from its points'
    nonzero pairs."""
    taken, real = [], scalars._isq_sparse

    def counted(basis, *squares):
        taken.append((basis.dim, len(squares)))
        return real(basis, *squares)

    with mock.patch.object(scalars, "_isq_sparse", counted):
        yield taken


def recursive_imul(rads, a, b):
    """``scalars._imul`` with the recursion run down to dimension 1, as it was
    before the dimension-2 base case: the oracle for its exact (vector, k)."""
    n = len(a)
    if n == 1:
        return (a[0] * b[0],), 1
    h = n >> 1
    al, ah, bl, bh = a[:h], a[h:], b[:h], b[h:]
    if not any(ah):
        lo, k = recursive_imul(rads, al, bl)
        if not any(bh):
            return lo + (0,) * h, k
        return ijoin(lo, k, *recursive_imul(rads, al, bh))
    if not any(bh):
        return ijoin(*recursive_imul(rads, al, bl), *recursive_imul(rads, ah, bl))
    rn, rd = rads[h.bit_length() - 1]
    p, kp = recursive_imul(rads, ah, bh)
    q, kq = recursive_imul(rads, p, rn)
    lo = iadd(*recursive_imul(rads, al, bl), q, kp * kq * rd)
    hi = iadd(*recursive_imul(rads, al, bh), *recursive_imul(rads, ah, bl))
    return ijoin(*lo, *hi)


def recursive_isq(rads, a):
    """``scalars._isq`` with the recursion run down to dimension 1."""
    n = len(a)
    if n == 1:
        return (a[0] * a[0],), 1
    h = n >> 1
    lo, hi = a[:h], a[h:]
    if not any(hi):
        s, k = recursive_isq(rads, lo)
        return s + (0,) * h, k
    rn, rd = rads[h.bit_length() - 1]
    p, kp = recursive_isq(rads, hi)
    q, kq = recursive_imul(rads, p, rn)
    k = kp * kq * rd
    if not any(lo):
        return q + (0,) * h, k
    m, km = recursive_imul(rads, lo, hi)
    return ijoin(*iadd(*recursive_isq(rads, lo), q, k), tuple([2 * c for c in m]), km)


def takes_sparse_mul(a, b) -> bool:
    """The density rule of ``_imul``: nnz(a)*nnz(b) <= n at n >= 8."""
    n = len(a)
    return n >= 8 and (n - a.count(0)) * (n - b.count(0)) <= n


def takes_sparse_sq(a) -> bool:
    """The density rule of ``_isq``: nnz(a)^2 <= 2n at n >= 8."""
    n = len(a)
    return n >= 8 and (n - a.count(0)) ** 2 <= 2 * n


def basis_form(rads, a, b):
    """The documented form of a sparse product: the sum of a_i b_j D e_i*e_j
    over D, each e_i*e_j the oracle recursion's product of unit vectors,
    reduced and scaled to D, and D the common denominator of the basis
    products: D_0 = 1 and D_k = D_(k-1) rd_k, times D_(k-1) again when
    the radicand has a coordinate past the first."""
    n = len(a)
    den = 1
    for rn, rd in rads[: n.bit_length() - 1]:
        den *= rd * (den if any(rn[1:]) else 1)
    unit = lambda i: tuple(int(i == u) for u in range(n))
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if a[i] and b[j]:
                c, k = canon(*recursive_imul(rads, unit(i), unit(j)))
                assert den % k == 0
                for u in range(n):
                    out[u] += a[i] * b[j] * c[u] * (den // k)
    return tuple(out), den


# -- the K(eps)-kernel reference: TowerElem polynomials -----------------------------------------
#
# The K(eps) arithmetic the package used before polynomials were
# held as integer matrices: tuples of TowerElem coefficients, multiplied and
# added one TowerElem at a time, and reduced by Euclid over those tuples.


def ptrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def pdivmod(a, b, tower):
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
    return ptrim(q), ptrim(rem)


def pgcd(a, b, tower):
    while b:
        _, r = pdivmod(a, b, tower)
        a, b = b, r
    if a:
        inv_lead = a[-1].inverse()
        a = tuple(c * inv_lead for c in a)
    return a


def preduce(num, den, tower):
    """num/den in lowest terms with a monic denominator (the unique form)."""
    if not num:
        return (), (tower.one(),)
    if len(den) > 1:
        g = pgcd(num, den, tower)
        if len(g) > 1:
            num, _ = pdivmod(num, g, tower)
            den, _ = pdivmod(den, g, tower)
    lead = den[-1]
    if not lead == 1:
        inv = lead.inverse()
        num = tuple(c * inv for c in num)
        den = tuple(c * inv for c in den)
    return num, den


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ptrim(out)


def pneg(a):
    return tuple(-c for c in a)


def pmul(a, b, tower):
    if not a or not b:
        return ()
    # None marks a coefficient no nonzero product has reached yet
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if not cb.is_zero():
                term = ca * cb
                out[i + j] = term if out[i + j] is None else out[i + j] + term
    zero = tower.zero()
    return ptrim([zero if c is None else c for c in out])


class OracleFun:
    """Lazy n/d over TowerElem coefficient tuples, with FunElem's interface."""

    def __init__(self, tower, num, den):
        self.tower = tower
        self.n = ptrim([c.lift(tower) for c in num])
        self.d = ptrim([c.lift(tower) for c in den])
        assert self.d

    @staticmethod
    def constant(value, tower=None):
        if isinstance(value, (int, F)):
            tower = tower or QQ
            value = tower.rational(value)
        tower = tower or value.tower
        return OracleFun(tower, (value,), (tower.one(),))

    @staticmethod
    def eps(tower=QQ):
        return OracleFun(tower, (tower.zero(), tower.one()), (tower.one(),))

    def _coerce(self, other):
        if isinstance(other, OracleFun):
            return other
        if isinstance(other, (int, F)):
            return OracleFun.constant(other, self.tower)
        if isinstance(other, TowerElem):
            return OracleFun.constant(other)
        return None

    def _common(self, other):
        if self.tower == other.tower:
            return self, other, self.tower
        tower, into = scalars.tower_join(self.tower, other.tower)

        def lift(p):
            return tuple(c.lift(tower) for c in p)

        def mapped(p):
            return tuple(into(c) for c in p)

        return OracleFun(tower, lift(self.n), lift(self.d)), OracleFun(tower, mapped(other.n), mapped(other.d)), tower

    def reduced(self):
        return preduce(self.n, self.d, self.tower)

    def is_zero(self):
        return not self.n

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        num = padd(pmul(a.n, b.d, tower), pmul(b.n, a.d, tower))
        return OracleFun(tower, num, pmul(a.d, b.d, tower))

    __radd__ = __add__

    def __neg__(self):
        return OracleFun(self.tower, pneg(self.n), self.d)

    def __sub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        return OracleFun(tower, pmul(a.n, b.n, tower), pmul(a.d, b.d, tower))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return OracleFun(self.tower, self.d, self.n)

    def __truediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else rhs * self.inverse()

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b, tower = self._common(rhs)
        return pmul(a.n, b.d, tower) == pmul(b.n, a.d, tower)

    __hash__ = None


def oracle_hash(reduced) -> int:
    num, den = reduced
    if len(num) <= 1 and len(den) == 1:
        return hash(num[0] if num else 0)
    return hash((num, den))


# -- the span-rule reference: Gaussian elimination over Fraction ---------------------------------


def fraction_linear_relation(fact):
    """The formal linear relation of a vector fact over ``Fraction``: the
    reference for the integer ``engine._linear_relation``."""
    out = {}

    def bump(name, value):
        out[name] = out.get(name, F(0)) + value
        if out[name] == 0:
            del out[name]

    if isinstance(fact, VecEq):
        for name, value in ((fact.b, 1), (fact.a, -1), (fact.d, -1), (fact.c, 1)):
            bump(name, F(value))
        return out
    if isinstance(fact, VecScale):
        for name, value in ((fact.b, F(1)), (fact.a, F(-1)), (fact.d, -fact.r), (fact.c, fact.r)):
            bump(name, value)
        return out
    if isinstance(fact, AffineComb):
        for name, value in ((fact.c, F(1)), (fact.a, -fact.t), (fact.b, fact.t - 1)):
            bump(name, value)
        return out
    return None


def fraction_in_span(target, premises):
    """Gaussian elimination over Q on ``Fraction`` vectors: the reference for
    the fraction-free ``engine._in_span``."""
    basis = []

    def reduce(vec):
        vec = dict(vec)
        for pivot, bvec in basis:
            if pivot in vec:
                factor = vec[pivot] / bvec[pivot]
                for name, value in bvec.items():
                    vec[name] = vec.get(name, F(0)) - factor * value
                    if vec[name] == 0:
                        del vec[name]
        return vec

    for premise in premises:
        reduced = reduce(premise)
        if reduced:
            basis.append((next(iter(sorted(reduced))), reduced))
    return not reduce(target)


# the fast path that the span-rule reference checks
in_span = engine._in_span


def integer_multiple(vec):
    """A Fraction vector scaled by the lcm of its denominators."""
    d = lcm(*(v.denominator for v in vec.values()))
    return {name: int(v * d) for name, v in vec.items()}


def check_span_rule(premises, target, combination, names):
    """The integer span rule against the Fraction oracle: each fact's
    relation (the oracle's times the ratio's denominator), the verdict on
    ``target``, and on ``combination`` of the premises' relations, which
    lies in their span, then moved by one unit of each of ``names``, which
    may or may not.  Returns the verdict on ``target``."""
    facts = premises + [target]
    *relations, target_relation = [engine._linear_relation(fact) for fact in facts]
    *oracles, target_oracle = [fraction_linear_relation(fact) for fact in facts]
    for fact, relation, oracle in zip(facts, relations + [target_relation], oracles + [target_oracle]):
        ratio = fact.r if isinstance(fact, VecScale) else fact.t if isinstance(fact, AffineComb) else F(1)
        assert all(type(v) is int for v in relation.values())
        assert relation == {k: v * ratio.denominator for k, v in oracle.items()}
    member = lambda vec: in_span(vec, relations)
    verdict = member(target_relation)
    assert verdict == fraction_in_span(target_oracle, oracles)
    assert fraction_in_span(combination, oracles) and member(integer_multiple(combination))
    for name, unit in names:
        combination[name] = combination.get(name, F(0)) + unit
    combination = {k: v for k, v in combination.items() if v}
    assert member(integer_multiple(combination)) == fraction_in_span(combination, oracles)
    return verdict


def combine(relations, weights):
    """The combination of Fraction relations with the given weights, zeros dropped."""
    out = {}
    for weight, relation in zip(weights, relations):
        for k, v in relation.items():
            out[k] = out.get(k, F(0)) + weight * v
    return {k: v for k, v in out.items() if v}
