"""Gadget constructors: coordinates, certificates, side conditions, goals."""

import hashlib
from fractions import Fraction

import pytest

from rigidity_forge import codec, gadgets, scalars, suite
from rigidity_forge.cm import Point, rational_point, sqdist
from rigidity_forge.engine import replay
from rigidity_forge.gadgets import (
    AffineComb,
    DegenerateLinkage,
    DegenerateSegment,
    DotZero,
    GadgetError,
    IrrationalSide,
    NotATranslate,
    NotPerpendicular,
    TOutOfRange,
    VecEq,
    _Builder,
    build_division,
    build_kempe,
    build_perp_transfer,
    build_rhombus_chain,
    build_translation_bridge,
    choose_division_radius,
    kempe_de_length,
)
from rigidity_forge.poly import variables
from rigidity_forge.scalars import QQ, adjoin_sqrt

from harness import chain_scale_builds, radical_build_templates, tower_work

F = Fraction


def assert_self_consistent(gadget):
    """Certificate entries, side conditions, and the identity-model goal."""
    for entry in gadget.certificate:
        assert sqdist(gadget.points[entry.p], gadget.points[entry.q]) == entry.d2
        assert isinstance(entry.d2, Fraction)
    for a, b in gadget.side_conditions:
        assert not gadget.points[a] == gadget.points[b]
    assert gadget.goal.holds(gadget.points)


# -- division -------------------------------------------------------------------


def test_division_midpoint_instance():
    g = build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2))
    assert g.layout["r"] == 2
    t34 = adjoin_sqrt(QQ, F(3, 4))
    tower, root = t34.tower, t34.root
    assert g.points["D"] == Point(tower.rational(F(1, 2)), root)
    assert g.points["E"] == Point(tower.rational(F(1, 4)), root * F(1, 2))
    assert g.points["F"] == Point(tower.rational(F(3, 4)), root * F(1, 2))
    assert g.points["C"] == rational_point(F(1, 2), 0)
    values = {frozenset((c.p, c.q)): c.d2 for c in g.certificate}
    assert values == {
        frozenset(("A", "E")): F(1, 4),
        frozenset(("E", "D")): F(1, 4),
        frozenset(("A", "D")): F(1),
        frozenset(("B", "F")): F(1, 4),
        frozenset(("F", "D")): F(1, 4),
        frozenset(("B", "D")): F(1),
        frozenset(("E", "C")): F(1, 4),
        frozenset(("F", "C")): F(1, 4),
    }
    assert set(g.side_conditions) == {("E", "F"), ("C", "D")}
    assert g.goal == AffineComb(c="C", a="A", b="B", t=F(1, 2))
    assert_self_consistent(g)


def test_division_irrational_base_accepts_any_radius_above():
    root2 = adjoin_sqrt(QQ, 2)
    a = rational_point(0, 0, root2.tower)
    b = Point(root2.root, root2.tower.rational(0))
    g = build_division(a, b, F(1, 2))
    assert g.layout["r"] == 2  # smallest integer above sqrt(2)
    assert_self_consistent(g)
    forced = build_division(a, b, F(1, 2), r=F(7))
    assert forced.layout["r"] == 7
    assert_self_consistent(forced)


def test_division_radius_interval_for_skew_ratio():
    # t = 1/3 on |AB| = 2: open interval (2, 6); simplest rational is 3
    assert choose_division_radius(QQ.rational(4), F(1, 3)) == 3
    # t = 7/9: |1-2t| = 5/9, |AB| = 1: interval (1, 9/5); simplest is 3/2
    assert choose_division_radius(QQ.rational(1), F(7, 9)) == F(3, 2)


def test_division_rejects_degenerate_inputs():
    a = rational_point(0, 0)
    with pytest.raises(DegenerateSegment):
        build_division(a, a, F(1, 2))
    with pytest.raises(TOutOfRange):
        build_division(a, rational_point(1, 0), F(3, 2))
    with pytest.raises(TOutOfRange):
        build_division(a, rational_point(1, 0), F(0))
    for r in (F(-3), F(0)):
        with pytest.raises(GadgetError, match=rf"^r = {r} does not exceed \|AB\|$"):
            build_division(a, rational_point(1, 0), F(1, 3), r=r)


def test_division_every_t_in_sample_range():
    for t in (F(1, 3), F(2, 5), F(7, 9), F(1, 7), F(5, 6)):
        g = build_division(rational_point(0, 0), rational_point(2, 0), t)
        assert g.goal.t == t
        assert_self_consistent(g)


# -- rhombus chains ----------------------------------------------------------------


def test_chain_zero_translation_is_trivial():
    g = build_rhombus_chain(rational_point(0, 0), rational_point(0, 0), rational_point(1, 0), rational_point(1, 0))
    assert g.layout["track1"] == ["A0"]
    assert g.certificate == ()
    assert_self_consistent(g)


def test_chain_unit_square_two_links():
    g = build_rhombus_chain(rational_point(0, 0), rational_point(1, 0), rational_point(0, 1), rational_point(1, 1))
    track1 = g.layout["track1"]
    assert len(track1) == 3  # m = 2 zig-zag steps
    assert all(c.d2 == 1 for c in g.certificate)
    # every rhombus has its four sides certified at s^2 = 1
    t1, t2 = g.layout["track1"], g.layout["track2"]
    cert_pairs = {frozenset((c.p, c.q)) for c in g.certificate}
    for i in range(2):
        assert frozenset((t1[i], t2[i])) in cert_pairs
        assert frozenset((t1[i], t1[i + 1])) in cert_pairs
        assert frozenset((t2[i], t2[i + 1])) in cert_pairs
        assert frozenset((t1[i + 1], t2[i + 1])) in cert_pairs
    assert_self_consistent(g)


def test_chain_long_translation_chunking():
    g = build_rhombus_chain(rational_point(0, 0), rational_point(5, 0), rational_point(0, 1), rational_point(5, 1))
    assert len(g.layout["track1"]) - 1 == 6  # 3 chunks x 2 steps
    assert_self_consistent(g)


def test_chain_steps_avoid_diagonal_directions():
    g = build_rhombus_chain(rational_point(0, 0), rational_point(5, 0), rational_point(0, 1), rational_point(5, 1))
    pts = g.points
    t1 = g.layout["track1"]
    w = pts[g.layout["track2"][0]] - pts[t1[0]]
    for i in range(len(t1) - 1):
        step = pts[t1[i + 1]] - pts[t1[i]]
        assert not step == w
        assert not step == -w


def test_chain_steps_build_and_test_each_step_vector_once(monkeypatch):
    """A chunk's two step vectors are built once and tested against +-w once,
    whatever the span: at most 5 ``Vec2`` comparisons (one in ``_emit_chain``,
    two per distinct step vector) and one negation (of w).  Testing every
    step made 161 comparisons and 80 negations at span 80."""
    calls = {"eq": 0, "neg": 0}
    vec_eq, vec_neg = gadgets.Vec2.__eq__, gadgets.Vec2.__neg__

    def counting_eq(self, other):
        calls["eq"] += 1
        return vec_eq(self, other)

    def counting_neg(self):
        calls["neg"] += 1
        return vec_neg(self)

    monkeypatch.setattr(gadgets.Vec2, "__eq__", counting_eq)
    monkeypatch.setattr(gadgets.Vec2, "__neg__", counting_neg)
    for span in (5, 10, 20, 40, 80):
        calls.update(eq=0, neg=0)
        g = build_rhombus_chain(rational_point(0, 0), rational_point(span, 0), rational_point(0, 1), rational_point(span, 1))
        assert len(g.layout["track1"]) > span
        assert calls["eq"] <= 5 and calls["neg"] <= 1, (span, calls)


def test_builder_point_lookup_is_linear_in_the_point_count(monkeypatch):
    comparisons = []
    point_eq, fraction_le = Point.__eq__, Fraction.__le__

    def counting_eq(self, other):
        comparisons.append("eq")
        return point_eq(self, other)

    def counting_le(self, other):
        comparisons.append("le")
        return fraction_le(self, other)

    monkeypatch.setattr(Point, "__eq__", counting_eq)
    monkeypatch.setattr(Fraction, "__le__", counting_le)
    counts = {}
    for span in (20, 40):
        comparisons.clear()
        g = build_rhombus_chain(rational_point(0, 0), rational_point(span, 0), rational_point(0, 1), rational_point(span, 1))
        counts[span] = (len(g.points), len(comparisons))
    # twice the points take at most twice the comparisons (a scan of every
    # earlier point made 1,804 and 6,804)
    assert counts[20][0] * 2 - 2 == counts[40][0] == 82
    assert counts[40][1] <= 2 * counts[20][1]


def test_every_coordinate_shares_the_gadget_tower_object():
    built = [entry.gadget for entry in suite.replay_corpus()]
    built.append(build_perp_transfer(rational_point(1, 1), rational_point(1, 4), rational_point(0, 0), rational_point(3, 0)))
    assert built[-1].tower.depth == 4
    for gadget in built:
        assert all(c.tower is gadget.tower for p in gadget.points.values() for c in (p.x, p.y))
    # coordinates over two equal towers that are distinct objects
    t, u = adjoin_sqrt(QQ, 2).tower, adjoin_sqrt(QQ, 2).tower
    assert t == u and t is not u
    points, tower = gadgets._minimize_points({"A": Point(t.generator(0), t.one()), "B": Point(u.generator(0), u.zero())})
    assert tower == t and all(c.tower is tower for p in points.values() for c in (p.x, p.y))


# sha256 of the gadget encoding followed by the derivation encoding of two
# builds whose towers the minimizer reduces: a division between points over
# equal but distinct tower objects, and a chain over Q(sqrt 2, sqrt 3) whose
# coordinates use sqrt 2 only, so the gadget's tower drops the last generator
MINIMIZED_BUILD_SHA256 = {
    "division over equal towers": "d251bd4237c070c3f478868057e03e8ac4f6f48b800813c8384c84d7a67d472d",
    "chain leaving sqrt 3 unused": "de31cd29c98ea0e6f1f62cedc685fdf3182f444c30cabe0294b84a169c0013bd",
}


def test_minimized_builds_are_pinned():
    t, u = adjoin_sqrt(QQ, 2).tower, adjoin_sqrt(QQ, 2).tower
    assert t == u and t is not u
    r2 = adjoin_sqrt(QQ, 2)
    wide = adjoin_sqrt(r2.tower, 3).tower
    s2 = r2.root.lift(wide)
    builds = {
        "division over equal towers": lambda: build_division(Point(t.zero(), t.one()), Point(u.one() + u.generator(0), u.zero()), F(1, 3)),
        "chain leaving sqrt 3 unused": lambda: build_rhombus_chain(*(Point(s2 + x, wide.rational(y)) for x, y in ((0, 0), (2, 0), (0, 1), (2, 1)))),
    }
    for label, build in builds.items():
        gadget = build()
        assert all(c.tower is gadget.tower for p in gadget.points.values() for c in (p.x, p.y))
        text = codec.dumps(codec.encode_gadget(gadget)) + codec.dumps(codec.encode_derivation(replay(gadget)))
        assert hashlib.sha256(text.encode()).hexdigest() == MINIMIZED_BUILD_SHA256[label], label
    # the chain, built last, drops sqrt 3
    assert gadget.tower == r2.tower and gadget.tower.depth == 1 < wide.depth


def test_builders_refuse_a_chain_over_the_step_limit(monkeypatch):
    """A rhombus chain of more than ``MAX_CHAIN_STEPS`` steps is refused
    before its first point is added, in a chain, a bridge (here the second
    of its two chains, |AC| being irrational) and a scale of a
    perpendicularity transfer (|AX| = 1/10,000 carries the linkage's
    length-4 side in 40,000 steps); a side-1 chain of span 10,240 takes
    exactly the limit and builds."""
    pt, limit = rational_point, gadgets.MAX_CHAIN_STEPS
    refused = f"the rhombus chain needs {{}} steps, more than MAX_CHAIN_STEPS = {limit}"
    added, add_point = [], _Builder.add_point
    monkeypatch.setattr(_Builder, "add_point", lambda builder, name, point: added.append(name) or add_point(builder, name, point))
    with pytest.raises(GadgetError, match=refused.format(limit + 2)):
        build_rhombus_chain(pt(0, 0), pt(limit + 2, 0), pt(0, 1), pt(limit + 2, 1))
    with pytest.raises(GadgetError, match=refused.format(10**7 // 2)):
        build_translation_bridge(pt(0, 0), pt(10**7, 0), pt(1, 1), pt(10**7 + 1, 1))
    assert added == []
    with pytest.raises(GadgetError, match=refused.format(40_000)):
        build_perp_transfer(pt(0, 0), pt(0, 1), pt(F(1, 10_000), 0), pt(F(30_001, 10_000), 0))
    gadget = build_rhombus_chain(pt(0, 0), pt(limit, 0), pt(0, 1), pt(limit, 1))
    assert limit == 10_240 and len(gadget.points) == 2 * (limit + 1)


def test_minimize_points_merges_each_distinct_tower_at_most_once(monkeypatch):
    r2 = adjoin_sqrt(QQ, 2)
    r3 = adjoin_sqrt(r2.tower, 3)
    t2, t3 = r2.tower, r3.tower
    s2, s3 = r2.root.lift(t3), r3.root
    merged, calls, requests, built = [], [], [], []
    real_join, real_minimize, real_merge = scalars.tower_join, gadgets._minimize_points, scalars._merge

    def counting_join(base, other):
        tower, into = real_join(base, other)
        # only a join where neither tower is a prefix of the other merges
        if not (base.is_prefix_of(other) or other.is_prefix_of(base)):
            requests.append((base, other, tower))
            assert len(scalars._joins) <= scalars._JOINS_KEPT
            if calls:
                merged.append(other)
        return tower, into

    def counting_merge(base, other):
        tower, into = real_merge(base, other)
        built.append((base, other, tower))
        return tower, into

    def recording_minimize(points):
        calls.append(points)
        return real_minimize(points)

    monkeypatch.setattr(scalars, "tower_join", counting_join)
    monkeypatch.setattr(gadgets, "tower_join", counting_join)
    monkeypatch.setattr(scalars, "_merge", counting_merge)
    monkeypatch.setattr(scalars, "_joins", {})
    monkeypatch.setattr(gadgets, "_minimize_points", recording_minimize)
    r7 = adjoin_sqrt(QQ, 7).root  # Q(sqrt 7), a sibling of t2 and t3
    builds = [
        # one tower each: a chain's step root joins its points' tower
        lambda: build_division(Point(t3.zero(), t3.zero()), Point(s2 + s3, t3.one()), F(1, 3)),
        lambda: build_perp_transfer(*(Point(t2.rational(x), y) for x, y in ((0, t2.zero()), (0, r2.root), (0, t2.zero()), (4, t2.zero())))),
        lambda: build_translation_bridge(*(Point(x, t2.rational(y)) for x, y in ((t2.zero(), 0), (r2.root, 0), (t2.one(), 2), (t2.one() + r2.root, 2)))),
        lambda: build_kempe(s2 + s3),
        # the d4 perp's independent sub-constructions meet in ``finish``
        lambda: build_perp_transfer(*(rational_point(x, y) for x, y in ((1, 1), (1, 4), (0, 0), (3, 0)))),
        # inputs over sibling towers
        lambda: gadgets._minimize_points({"A": Point(s2, t3.one()), "B": Point(adjoin_sqrt(t2, 5).root, t2.one()), "C": Point(r7, QQ.one())}),
        lambda: build_division(Point(s2, t3.one()), Point(r7, QQ.one()), F(1, 3)),
        lambda: build_translation_bridge(Point(t2.zero(), t2.zero()), Point(r2.root, t2.zero()), Point(r7, QQ.one()), Point(r7 + r2.root, QQ.one())),
    ]
    merges, repeats = [], []
    for build in builds:
        for log in (calls, merged, requests, built):
            log.clear()
        build()
        (points,) = calls
        towers = {c.tower for p in points.values() for c in (p.x, p.y)}
        assert len(merged) == len(set(merged)) and set(merged) <= towers
        # one merge per distinct pair of tower objects, made at its first request;
        # every request is served that merge's join object, never the join of an
        # equal but distinct pair
        made = {(id(base), id(other)): tower for base, other, tower in built}
        assert len(made) == len(built)
        assert set(made) == {(id(base), id(other)) for base, other, _ in requests}
        assert all(tower is made[id(base), id(other)] for base, other, tower in requests)
        merges.append((len(merged), len(built)))
        repeats.append(len(requests) - len(built))
    # the first four build in one tower, the d4 perp merges only in ``finish``,
    # and each input over sibling towers merges each of its towers once there
    assert merges[:5] == [(0, 0)] * 4 + [(3, 3)] and all(m > 0 for m, _ in merges[5:])
    # the division and the bridge over sibling towers request some of their merges again
    assert repeats[6] > 0 and repeats[7] > 0
    # equal but distinct towers are distinct keys
    u, v = adjoin_sqrt(QQ, 3).tower, adjoin_sqrt(QQ, 3).tower
    assert u == v and u is not v
    built.clear()
    joins = [scalars.tower_join(t2, w)[0] for w in (u, v, u, v)]
    assert len(built) == 2 and joins[0] == joins[1] and joins[0] is not joins[1]
    assert joins[2] is joins[0] and joins[3] is joins[1]
    # the memo keeps at most its bound, the oldest merge leaving first
    monkeypatch.setattr(scalars, "_JOINS_KEPT", 3)
    scalars._joins.clear()
    others = [adjoin_sqrt(QQ, n).tower for n in (3, 5, 7, 11)]
    first = scalars.tower_join(t2, others[0])[0]
    for w in others[1:]:
        scalars.tower_join(t2, w)
    assert len(scalars._joins) == 3 and (id(t2), id(others[0])) not in scalars._joins
    assert scalars.tower_join(t2, others[0])[0] is not first


def test_builds_merge_towers_only_where_independent_sub_constructions_meet(monkeypatch):
    """Per build, counted with no clock (``harness.tower_work``): a chain
    adjoins its step root over the tower its points live in, so of the 15
    radical-build templates at seed 12345, the 12 chain-scale gadgets and
    the 16 corpus gadgets only the d4 perp merges towers, at most 3 times,
    all in ``finish``, where its independent sub-constructions meet.  One
    pass makes at most 136 square-root tests over the templates and 62 over
    the 7 chain-scale bridges."""

    def work(build):
        with tower_work() as counts:
            build()
        return counts

    radical = {label: work(build) for label, _, build in radical_build_templates(12345)}
    chains = [(kind, work(build)) for kind, build in chain_scale_builds()]
    corpus = []

    def counted(builder):
        def build(*args):
            with tower_work() as counts:
                gadget = builder(*args)
            corpus.append(counts)
            return gadget

        return build

    monkeypatch.setattr(suite, "_CORPUS", None)
    for name in ("build_division", "build_rhombus_chain", "build_kempe"):
        monkeypatch.setattr(suite, name, counted(getattr(suite, name)))
    suite.replay_corpus()
    assert len(radical) == 15 and len(chains) == 12 and len(corpus) == 16
    merged = {label: counts for label, counts in radical.items() if counts["merges"]}
    assert set(merged) <= {"perp rational kappa d4"}
    assert all(counts["merges"] == counts["finish_merges"] <= 3 for counts in merged.values())
    assert not any(counts["merges"] for _, counts in chains) and not any(counts["merges"] for counts in corpus)
    assert sum(counts["sqrts"] for counts in radical.values()) <= 136
    assert sum(counts["sqrts"] for kind, counts in chains if kind == "bridge") <= 62
    # the counters see the work: one join of two sibling towers merges once
    with tower_work() as counts:
        scalars.tower_join(adjoin_sqrt(QQ, 2).tower, adjoin_sqrt(QQ, 3).tower)
    assert counts["merges"] == 1 and counts["finish_merges"] == 0 and counts["sqrts"] > 0


def test_builders_take_inputs_over_sibling_towers():
    """A division and a bridge whose inputs lie over sibling towers build,
    validate and replay: ``circle_intersection``'s new root may lie over a
    tower that does not extend its base point's, and the two are joined."""
    r2 = adjoin_sqrt(QQ, 2)
    t2, t3 = r2.tower, adjoin_sqrt(r2.tower, 3).tower
    r7 = adjoin_sqrt(QQ, 7).root
    for gadget in (
        build_division(Point(r2.root.lift(t3), t3.one()), Point(r7, QQ.one()), F(1, 3)),
        build_translation_bridge(Point(t2.zero(), t2.zero()), Point(r2.root, t2.zero()), Point(r7, QQ.one()), Point(r7 + r2.root, QQ.one())),
    ):
        gadget.validate()
        assert replay(gadget).facts
        assert {7, 2} <= {g.as_fraction() for g in gadget.tower.gens if g.is_rational()}


def test_builder_names_each_value_once_across_towers():
    root2 = adjoin_sqrt(QQ, 2)
    t = root2.tower
    builder = _Builder()
    assert builder.add_point("A", rational_point(1, 0)) == "A"
    # the same value over a larger tower keeps the first name
    assert builder.add_point("B", Point(t.rational(1), t.zero())) == "A"
    # equal rational coordinates share a hash, not a name
    assert builder.add_point("A", Point(1 + root2.root, t.zero())) == "A_2"
    assert builder.add_point("C", Point(1 - root2.root, t.zero())) == "C"
    assert builder.add_point("D", Point(1 + root2.root, t.zero())) == "A_2"


def test_builder_keeps_each_unordered_side_pair_once():
    builder = _Builder()
    builder.add_side("A", "B")
    builder.add_side("B", "A")
    builder.add_side("A", "B")
    builder.add_side("C", "A")
    assert builder.side_conditions == [("A", "B"), ("C", "A")]
    # a span-2000 chain: two side conditions per rhombus, no pair twice
    g = build_rhombus_chain(rational_point(0, 0), rational_point(2000, 0), rational_point(0, 1), rational_point(2000, 1))
    assert len(g.side_conditions) == 4000
    assert len({frozenset(pair) for pair in g.side_conditions}) == 4000


def test_chain_rejects_bad_input():
    with pytest.raises(NotATranslate):
        build_rhombus_chain(rational_point(0, 0), rational_point(1, 0), rational_point(0, 1), rational_point(2, 1))
    root2 = adjoin_sqrt(QQ, 2)
    c = Point(root2.root, root2.tower.rational(0))
    d = Point(root2.root + 1, root2.tower.rational(0))
    with pytest.raises(IrrationalSide):
        build_rhombus_chain(rational_point(0, 0), rational_point(1, 0), c, d)


# -- translation bridge ---------------------------------------------------------------


def test_bridge_same_start_degenerates_to_single_chain():
    a, b = rational_point(0, 0), rational_point(1, 0)
    g = build_translation_bridge(a, b, a, b)
    assert len(g.layout["sub"]) == 1
    assert_self_consistent(g)


def test_bridge_rational_gap_uses_one_chain():
    root2 = adjoin_sqrt(QQ, 2)
    s2 = root2.root
    c = Point(s2, s2)  # |AC| = 2 exactly
    d = Point(s2 + 1, s2)
    g = build_translation_bridge(rational_point(0, 0), rational_point(1, 0), c, d)
    assert len(g.layout["sub"]) == 1
    assert_self_consistent(g)


def test_bridge_irrational_gap_inserts_waypoint():
    root2 = adjoin_sqrt(QQ, 2)
    s2 = root2.root
    c = Point(s2, s2 + 1)  # |AC|^2 = 5 + 2*sqrt(2), irrational
    d = Point(s2 + 1, s2 + 1)
    g = build_translation_bridge(rational_point(0, 0), rational_point(1, 0), c, d)
    assert len(g.layout["sub"]) == 2
    first, last = g.layout["sub"]
    # the two chains share their middle track endpoints (the waypoint pair)
    assert first["track2"][0] == last["track1"][0]
    assert first["track2"][-1] == last["track1"][-1]
    assert g.goal == VecEq(a=first["track1"][0], b=first["track1"][-1], c=last["track2"][0], d=last["track2"][-1])
    assert_self_consistent(g)


def test_bridge_goal_composes_sub_goals():
    root2 = adjoin_sqrt(QQ, 2)
    s2 = root2.root
    g = build_translation_bridge(
        rational_point(0, 0), rational_point(1, 0), Point(s2, s2 + 1), Point(s2 + 1, s2 + 1)
    )
    subs = g.layout["sub"]
    assert [s["kind"] for s in subs] == ["chain", "chain"]
    assert g.goal.a == subs[0]["track1"][0]
    assert g.goal.d == subs[-1]["track2"][-1]


# -- Kempe linkage ----------------------------------------------------------------------


def test_kempe_unit_parameter_coordinates():
    g = build_kempe(F(1))
    assert g.points["C"] == rational_point(4, 2)
    assert g.points["D"] == rational_point(F(12, 5), F(16, 5))
    assert g.points["E"] == rational_point(F(12, 5), F(4, 5))
    assert g.goal == DotZero(a="D", b="E", c="A", d="B")
    assert len(g.certificate) == 8
    assert set(g.side_conditions) == {("B", "D"), ("B", "E")}
    assert_self_consistent(g)


def test_kempe_derived_image_distances():
    g = build_kempe(F(1))
    pts = g.points
    a = sqdist(pts["B"], pts["D"]).as_fraction()
    b = sqdist(pts["A"], pts["C"]).as_fraction()
    c = sqdist(pts["B"], pts["E"]).as_fraction()
    d = sqdist(pts["C"], pts["F"]).as_fraction()
    e = sqdist(pts["A"], pts["E"]).as_fraction()
    assert (a, b, c, d, e) == (F(64, 5), F(20), F(16, 5), F(5), F(32, 5))
    assert e == 16 - 3 * c
    assert b == 4 * d
    assert a == 4 * c
    assert c * d == -(d * d - 10 * d + 9)


def test_kempe_tangency_rejected():
    with pytest.raises(DegenerateLinkage):
        build_kempe(F(0))


def test_kempe_perpendicularity_for_sample_parameters():
    for t in (F(1), F(1, 2), F(2), F(3, 4), F(5, 7)):
        g = build_kempe(t)
        pts = g.points
        assert pts["D"].x == pts["E"].x
        assert ((pts["D"] - pts["E"]).dot(pts["B"] - pts["A"])).is_zero()
        assert_self_consistent(g)


def test_kempe_vertical_alignment_symbolically():
    """D and E share their x-coordinate as an identity in the parameter.

    The reflection construction is replayed over the polynomial ring with a
    shared denominator, so the check covers every admissible parameter."""

    (t,) = variables("t")
    one = t * 0 + 1
    # C = B + 2*(cos, sin) with a common denominator 1 + t^2
    den_c = one + t * t
    cx_num = 4 * den_c + 2 * (one - t * t)
    cy_num = 2 * (2 * t)

    def reflect_x(px_num, py_num, den, cx_num_, cy_num_, cden, bx, by):
        # reflection of B across the line through (p, c); returns x-numerator
        # and the common denominator of the image point
        vx = cx_num_ * den - px_num * cden
        vy = cy_num_ * den - py_num * cden
        ux = bx * den * cden - px_num * cden
        uy = by * den * cden - py_num * cden
        q = vx * vx + vy * vy
        dot = ux * vx + uy * vy
        # X = p + 2 (u.v/q) v - u, cleared over den*cden*q
        x_num = px_num * cden * q + 2 * dot * vx - ux * q
        return x_num, den * cden * q

    # D: reflect B=(4,0) across (A=(0,0), C); E: reflect B across (C, F=(3,0))
    dx_num, dden = reflect_x(t * 0, t * 0, one, cx_num, cy_num, den_c, 4, 0)
    ex_num, eden = reflect_x(cx_num, cy_num, den_c, 3 * den_c, t * 0, den_c, 4, 0)
    assert dx_num * eden == ex_num * dden


# -- perpendicularity transfer ---------------------------------------------------------------


def test_perp_transfer_unrotated_instance():
    g = build_perp_transfer(
        rational_point(0, 0), rational_point(0, F(12, 5)), rational_point(0, 0), rational_point(4, 0)
    )
    assert g.layout["r"] == 1
    assert g.layout["s"] == 1
    assert isinstance(g.goal, DotZero)
    assert_self_consistent(g)


def test_perp_transfer_scaled_instance():
    g = build_perp_transfer(
        rational_point(0, 0), rational_point(0, F(24, 5)), rational_point(0, 0), rational_point(8, 0)
    )
    assert g.layout["r"] == 2
    assert g.layout["s"] == 2
    assert_self_consistent(g)


def test_perp_transfer_rejects_non_perpendicular():
    with pytest.raises(NotPerpendicular):
        build_perp_transfer(rational_point(0, 0), rational_point(1, 1), rational_point(0, 0), rational_point(1, 0))


def test_perp_transfer_irrational_component_solves_symbolically():
    # PQ has irrational length: the linkage parameter comes from the quadratic
    root2 = adjoin_sqrt(QQ, 2)
    s2 = root2.root
    p = rational_point(0, 0, root2.tower)
    q = Point(root2.tower.rational(0), s2)
    g = build_perp_transfer(p, q, rational_point(0, 0), rational_point(4, 0))
    assert_self_consistent(g)
    pts = g.points
    roles = g.layout["kempe"]["roles"]
    de = pts[roles["D"]] - pts[roles["E"]]
    r = g.layout["r"]
    assert (q - p) == de.scaled(r)


def test_kempe_de_length_formula():
    assert kempe_de_length(F(1)) == F(12, 5)
    assert kempe_de_length(F(3)) == 4


# -- cross-cutting invariants --------------------------------------------------------------------


def corpus():
    root2 = adjoin_sqrt(QQ, 2)
    yield build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2))
    yield build_division(rational_point(0, 0), rational_point(2, 0), F(2, 5))
    yield build_rhombus_chain(rational_point(0, 0), rational_point(3, 0), rational_point(0, 2), rational_point(3, 2))
    yield build_translation_bridge(
        rational_point(0, 0), rational_point(1, 0), Point(root2.root, root2.root + 1), Point(root2.root + 1, root2.root + 1)
    )
    yield build_kempe(F(1, 2))
    yield build_perp_transfer(rational_point(0, 0), rational_point(0, F(12, 5)), rational_point(0, 0), rational_point(4, 0))


@pytest.mark.parametrize("gadget", list(corpus()), ids=lambda g: g.layout["kind"])
def test_corpus_self_consistency(gadget):
    assert_self_consistent(gadget)


@pytest.mark.parametrize("gadget", list(corpus()), ids=lambda g: g.layout["kind"])
def test_corpus_certificates_are_rational(gadget):
    for entry in gadget.certificate:
        assert isinstance(entry.d2, Fraction)


@pytest.mark.parametrize("gadget", list(corpus()), ids=lambda g: g.layout["kind"])
def test_corpus_towers_are_minimized(gadget):
    used = 0
    for p in gadget.points.values():
        for coord in (p.x, p.y):
            used = max(used, coord.minimized().tower.depth)
    assert gadget.tower.depth == used
