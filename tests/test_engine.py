"""Fact store seeding, deduction rules, and proof replays."""

import dataclasses
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from rigidity_forge import engine
from rigidity_forge.cm import Point, rational_point
from rigidity_forge.engine import (
    AffineComb,
    Derivation,
    Distinct,
    DotZero,
    InconsistentCertificate,
    NonRationalPattern,
    NonzeroDist,
    PatternMismatch,
    ReplayFailed,
    SqDistKnown,
    VecEq,
    VecScale,
    apply_rule,
    assert_certificate,
    check_derivation,
    fact_key,
    kempe_identities_verified,
    recheck_derivation,
    replay,
)
from rigidity_forge.gadgets import (
    Gadget,
    GadgetError,
    _Builder,
    _emit_scale,
    build_division,
    build_kempe,
    build_perp_transfer,
    build_rhombus_chain,
    build_translation_bridge,
)
from rigidity_forge.models import identity_model
from rigidity_forge.scalars import QQ, adjoin_sqrt

import harness
from conftest import DERANDOMIZED
from harness import HUGE, Doubling, check_span_rule, combine, fraction_linear_relation

F = Fraction


@pytest.fixture(scope="module")
def division_half():
    return build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2))


# -- certificate seeding --------------------------------------------------------


def test_assert_certificate_counts(division_half):
    store = assert_certificate(division_half)
    sq = [f for f in store.facts if isinstance(f, SqDistKnown)]
    distinct = [f for f in store.facts if isinstance(f, Distinct)]
    nonzero = [f for f in store.facts if isinstance(f, NonzeroDist)]
    assert len(sq) == 8
    # the pair axioms are asserted on demand, not seeded
    assert len(distinct) == 0
    assert len(nonzero) == 0
    # certificate facts come first, in certificate order
    assert store.facts[0] == SqDistKnown("A", "E", F(1, 4))


def test_require_asserts_pair_axiom_once(division_half):
    store = assert_certificate(division_half)
    n = len(store)
    idx = store.require(Distinct("C", "D"))
    assert idx == n and len(store) == n + 1
    assert store.facts[idx] == Distinct("C", "D")
    assert store.justifications[idx].rule == "Injectivity"
    assert store.justifications[idx].premises == ()
    # a second request, in either orientation, finds the same fact
    assert store.require(Distinct("C", "D")) == idx
    assert store.require(Distinct("D", "C")) == idx
    assert len(store) == n + 1
    nz = store.require(NonzeroDist("E", "F"))
    assert store.justifications[nz].rule == "NonzeroDistance"
    assert store.require(NonzeroDist("F", "E")) == nz
    assert len(store) == n + 2


def test_require_rejects_coincident_points():
    gadget = Gadget(
        tower=QQ,
        points={"X": rational_point(0, 0), "Y": rational_point(0, 0), "Z": rational_point(1, 0)},
        certificate=(),
        side_conditions=(),
        goal=VecEq(a="X", b="X", c="X", d="X"),
        layout={"kind": "chain", "track1": ["X"], "track2": ["X"], "side_sq": None},
    )
    store = assert_certificate(gadget)
    for fact in (Distinct("X", "Y"), NonzeroDist("Y", "X"), Distinct("X", "X"), Distinct("X", "W")):
        with pytest.raises(ReplayFailed):
            store.require(fact)
    assert len(store) == 0
    # coordinate-distinct points still get their axiom
    assert store.facts[store.require(Distinct("X", "Z"))] == Distinct("X", "Z")


def test_assert_certificate_empty_gadget():
    gadget = Gadget(
        tower=QQ,
        points={},
        certificate=(),
        side_conditions=(),
        goal=VecEq(a="X", b="X", c="X", d="X"),
        layout={"kind": "chain", "track1": ["X"], "track2": ["X"], "side_sq": None},
    )
    gadget.points["X"] = rational_point(0, 0)
    store = assert_certificate(gadget)
    assert len(store.facts) == 0


def test_assert_certificate_rejects_tampering(division_half):
    bad_cert = (dataclasses.replace(division_half.certificate[0], d2=F(9, 7)),) + division_half.certificate[1:]
    tampered = Gadget(
        tower=division_half.tower,
        points=division_half.points,
        certificate=bad_cert,
        side_conditions=division_half.side_conditions,
        goal=division_half.goal,
        layout=division_half.layout,
    )
    with pytest.raises(InconsistentCertificate):
        assert_certificate(tampered)


# -- rules ---------------------------------------------------------------------------


def test_prop3_rule_on_division_facts(division_half):
    store = assert_certificate(division_half)
    premises = [
        store.require_sqdist("A", "E"),
        store.require_sqdist("E", "D"),
        store.require_sqdist("A", "D"),
    ]
    (idx,) = apply_rule(store, "Prop3", premises)
    # f(E) = (1/2) f(A) + (1/2) f(D)
    assert store.facts[idx] == VecScale(a="A", b="E", c="A", d="D", r=F(1, 2))


def test_prop4_rule_on_division_facts(division_half):
    store = assert_certificate(division_half)
    premises = [
        store.require_sqdist("E", "C"),
        store.require_sqdist("F", "C"),
        store.require_sqdist("E", "D"),
        store.require_sqdist("F", "D"),
        store.require(NonzeroDist("E", "F")),
        store.require(Distinct("C", "D")),
    ]
    conclusions = [store.facts[i] for i in apply_rule(store, "Prop4", premises)]
    assert VecEq(a="E", b="C", c="D", d="F") in conclusions
    assert VecEq(a="F", b="C", c="D", d="E") in conclusions


def test_kempe_role_inference_reads_the_linkage_pattern(monkeypatch):
    derivation = replay(build_kempe(1))
    step = next(i for i, j in enumerate(derivation.justifications) if j.rule == "KempeChain")
    cited = [derivation.facts[i] for i in derivation.justifications[step].premises]
    dists = {frozenset((f.p, f.q)): f.v for f in cited if isinstance(f, SqDistKnown)}
    infer = lambda: engine._infer_kempe_roles(dists, derivation.facts[step])
    assert infer() == derivation.gadget.layout["roles"]
    # the F and C links are found by their distances in gadgets.KEMPE_SQ_DISTANCES
    for pair in (("A", "F"), ("C", "B")):
        monkeypatch.setitem(engine.KEMPE_SQ_DISTANCES, pair, engine.KEMPE_SQ_DISTANCES[pair] + 1)
        with pytest.raises(PatternMismatch, match="cannot recover the linkage role assignment"):
            infer()
        monkeypatch.undo()


def test_prop3_rejects_zero_sum():
    gadget = build_division(rational_point(0, 0), rational_point(1, 0), F(1, 2))
    store = assert_certificate(gadget)
    # (4, 9, 0): the only assignment with matching squares needs a + b = 0,
    # which the rule excludes; every reassignment fails the pattern outright
    i1 = store.add(SqDistKnown("A", "B", F(4)), "RationalDistanceAxiom")
    i2 = store.add(SqDistKnown("B", "C", F(9)), "RationalDistanceAxiom")
    i3 = store.add(SqDistKnown("A", "C", F(0)), "RationalDistanceAxiom")
    with pytest.raises(PatternMismatch):
        apply_rule(store, "Prop3", [i1, i2, i3])


def test_prop3_rejects_irrational_pattern(division_half):
    store = assert_certificate(division_half)
    i1 = store.add(SqDistKnown("A", "B", F(2)), "RationalDistanceAxiom")
    i2 = store.add(SqDistKnown("B", "C", F(2)), "RationalDistanceAxiom")
    i3 = store.add(SqDistKnown("A", "C", F(8)), "RationalDistanceAxiom")
    with pytest.raises(NonRationalPattern):
        apply_rule(store, "Prop3", [i1, i2, i3])


def test_vec_algebra_rejects_out_of_span(division_half):
    store = assert_certificate(division_half)
    premises = [
        store.require_sqdist("A", "E"),
        store.require_sqdist("E", "D"),
        store.require_sqdist("A", "D"),
    ]
    (idx,) = apply_rule(store, "Prop3", premises)
    with pytest.raises(PatternMismatch):
        apply_rule(
            store,
            "VecAlgebra",
            [idx],
            conclusion=VecEq(a="A", b="B", c="C", d="D"),
        )


def test_span_check_accepts_scale_transitivity(division_half):
    """Chained rescalings compose: the span rule must accept r*s exactly."""

    ratios = st.fractions(min_value=-6, max_value=6, max_denominator=5)

    @settings(max_examples=50)
    @given(ratios, ratios)
    def run(r, s):
        store = assert_certificate(division_half)
        i1 = store.add(VecScale(a="A", b="B", c="C", d="D", r=r), "VecAlgebra")
        i2 = store.add(VecScale(a="C", b="D", c="E", d="F", r=s), "VecAlgebra")
        composed = VecScale(a="A", b="B", c="E", d="F", r=r * s)
        apply_rule(store, "VecAlgebra", [i1, i2], conclusion=composed)
        if r * s + 1 != 0:
            with pytest.raises(PatternMismatch):
                apply_rule(
                    store,
                    "VecAlgebra",
                    [i1, i2],
                    conclusion=VecScale(a="A", b="B", c="E", d="F", r=r * s + 1),
                )

    run()


def test_span_check_rejects_unrelated_names(division_half):
    store = assert_certificate(division_half)
    i1 = store.add(VecEq(a="A", b="B", c="C", d="D"), "VecAlgebra")
    with pytest.raises(PatternMismatch):
        apply_rule(store, "VecAlgebra", [i1], conclusion=VecEq(a="A", b="B", c="E", d="F"))


# -- the span rule against its Fraction oracle ------------------------------------


def test_integer_span_rule_matches_the_fraction_oracle():
    """Relations and span verdicts of the integer rule against the Fraction
    oracle on random premise sets over a small name pool, so names repeat and
    terms cancel; ratios include 0, 1, negatives and 4,000-digit ones."""

    big = st.integers(min_value=-HUGE, max_value=HUGE)
    ratios = st.one_of(
        st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(7, 9)]),
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
        st.builds(F, big, st.integers(min_value=1, max_value=HUGE)),
    )
    names = st.sampled_from("ABCDE")
    facts = st.one_of(
        st.builds(VecEq, a=names, b=names, c=names, d=names),
        st.builds(VecScale, a=names, b=names, c=names, d=names, r=ratios),
        st.builds(AffineComb, c=names, a=names, b=names, t=ratios),
    )
    weights = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6)

    @settings(DERANDOMIZED, max_examples=300)
    @given(st.lists(facts, max_size=6), facts, weights, names)
    @example([VecScale("A", "B", "C", "D", F(0)), AffineComb("C", "A", "B", F(0))], AffineComb("C", "A", "B", F(1)), [F(1)] * 6, "A")
    @example([VecEq("A", "A", "B", "B"), VecScale("A", "B", "B", "A", F(-1))], VecEq("A", "B", "C", "D"), [F(2)] * 6, "B")
    @example([AffineComb("A", "B", "B", F(1, 3)), VecScale("A", "B", "C", "D", F(-2, 3))], VecEq("A", "B", "A", "B"), [F(1, 2)] * 6, "C")
    @example([VecScale("A", "B", "C", "D", F(HUGE, HUGE - 2)), VecScale("C", "D", "E", "A", F(2 - HUGE, 3))], VecScale("A", "B", "E", "A", F(-HUGE, 3)), [F(1)] * 6, "D")
    @example([AffineComb("C", "A", "B", F(HUGE, HUGE + 1 - 10**3999)), VecEq("A", "C", "B", "D")], AffineComb("C", "B", "A", F(1 - 10**3999, HUGE + 1 - 10**3999)), [F(-1)] * 6, "E")
    def run(premises, target, weights, name):
        # a rational combination of the premises lies in their span, and one
        # unit more of a name may or may not
        combination = combine([fraction_linear_relation(f) for f in premises], weights)
        check_span_rule(premises, target, combination, [(name, 1)])

    run()


def test_span_rule_matches_the_fraction_oracle_at_scale():
    """Up to 60 premises over 40 names whose string order is not their
    numeric order ("A2" > "A10"), so pivots fall out of chain order: rhombus
    chains that fill in, premises that share the smallest name as pivot, and
    targets that close a chain, combine the premises or are drawn at random.
    Hypothesis draws the sizes and a seed; the seed draws the facts."""

    pool = [f"{track}{i}" for track in "AC" for i in range(20)]

    def random_fact(rng):
        a, b, c, d = (rng.choice(pool) for _ in range(4))
        r = F(rng.randint(-4, 4), rng.randint(1, 6))
        # "A0" is the smallest name, so the last kind pivots on it
        return rng.choice([VecEq(a, b, c, d), VecScale(a, b, c, d, r), AffineComb(a, b, c, r), VecScale("A0", b, c, d, r)])

    @settings(DERANDOMIZED, max_examples=20)
    @given(st.integers(0, 20), st.integers(0, 60), st.integers(0, 2**32))
    def run(links, others, seed):
        rng = random.Random(seed)
        track = rng.sample(range(20), links)
        chain = [VecEq(f"A{i}", f"A{j}", f"C{i}", f"C{j}") for i, j in zip(track, track[1:])]
        premises = chain + [random_fact(rng) for _ in range(min(others, 60 - len(chain)))]
        rng.shuffle(premises)
        closing = VecEq(f"A{track[0]}", f"A{track[-1]}", f"C{track[0]}", f"C{track[-1]}") if chain else None
        target = closing if closing and rng.random() < 0.5 else random_fact(rng)
        oracles = [fraction_linear_relation(f) for f in premises]
        combination = combine(oracles, [rng.choice([F(0), F(1), F(-2, 3)]) for _ in oracles])
        # a difference of two names may or may not lie in the span
        verdict = check_span_rule(premises, target, combination, [(rng.choice(pool), 1), (rng.choice(pool), -1)])
        assert verdict or target is not closing

    run()


def test_span_rule_divides_out_the_content_after_each_subtraction(monkeypatch):
    """200 premises x_i + 3 x_(i+1), named so that their string order is the
    chain order, against the target x_0, which is not in their span (no
    combination cancels x_200): eliminating x_0's chain multiplies by 3 at
    every row, and only dividing each reduced vector by its content keeps
    the entries small.  ``engine.gcd`` is wrapped to record the largest
    argument's bit length: 2 bits here, 316 without the content division,
    with the same verdict."""
    bits = [0]

    def recording(*args):
        bits[0] = max([bits[0]] + [abs(a).bit_length() for a in args])
        return gcd(*args)

    monkeypatch.setattr(engine, "gcd", recording)
    name = "x{:03d}".format
    premises = [{name(i): 1, name(i + 1): 3} for i in range(200)]
    assert not harness.in_span({name(0): 1}, premises)
    assert 0 < bits[0] <= 8


def _dict_gets(run) -> int:
    """The ``dict.get`` calls made while ``run()`` runs, seen by ``sys.setprofile``."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", None) == "dict.get":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls[0]


def test_span_rule_work_is_linear_in_the_closing_premises():
    """The closing VecAlgebra step of a chain cites one VecEq per link.  The
    rule visits only the basis rows whose pivots the vector holds: 4x the
    links cost at most 5x the dict lookups (a scan of every basis row per
    vector made 13,520 at 160 links and 207,680 at 640, 15.4x)."""
    gets = {}
    for links in (160, 640):
        corners = (rational_point(0, 0), rational_point(links, 0), rational_point(0, 1), rational_point(links, 1))
        derivation = replay(build_rhombus_chain(*corners))
        closing = derivation.justifications[-1]
        assert closing.rule == "VecAlgebra" and len(closing.premises) == links
        gets[links] = _dict_gets(lambda: engine._conclusions(derivation.facts, "VecAlgebra", closing.premises, derivation.facts[-1]))
    assert gets[160] >= 160
    assert gets[640] <= 5 * gets[160]


def test_span_rule_builds_no_fraction_on_a_span80_chain(count_fractions_within, monkeypatch):
    gadget = build_rhombus_chain(rational_point(0, 0), rational_point(80, 0), rational_point(0, 1), rational_point(80, 1))
    stores = []
    seed = engine.assert_certificate
    monkeypatch.setattr(engine, "assert_certificate", lambda gadget: stores.append(seed(gadget)) or stores[-1])
    counts = count_fractions_within([(engine, "_linear_relation"), (engine, "_in_span"), (harness, "fraction_linear_relation")])
    engine.recheck_derivation(replay(gadget))
    # replay looks each link's step up among its Prop4 conclusions, so the
    # span rule runs once in replay and once in the re-check, on the goal
    assert counts["_in_span"]["calls"] == 2
    # the span rule on each link's Prop4 conclusions in the replay's store:
    # the 80 eliminations that replay itself no longer runs
    (store,) = stores
    links = {}
    for i, just in enumerate(store.justifications):
        if just.rule == "Prop4":
            links.setdefault(just.premises, []).append(i)
    track1, track2 = gadget.layout["track1"], gadget.layout["track2"]
    assert len(links) == len(track1) - 1 == 80
    for i, conclusions in enumerate(links.values()):
        step = VecEq(track1[i], track1[i + 1], track2[i], track2[i + 1])
        assert engine._conclusions(store.facts, "VecAlgebra", conclusions, step) == (step,)
    assert counts["_linear_relation"]["calls"] > 80 and counts["_in_span"]["calls"] > 80
    assert counts["_linear_relation"]["fractions"] == counts["_in_span"]["fractions"] == 0
    # the counter does see the Fractions of the oracle
    harness.fraction_linear_relation(VecScale("A", "B", "C", "D", F(2, 3)))
    assert counts["fraction_linear_relation"]["fractions"] > 0


def test_fact_store_deduplicates(division_half):
    store = assert_certificate(division_half)
    n = len(store.facts)
    idx = store.add(SqDistKnown("E", "A", F(1, 4)), "RationalDistanceAxiom")
    assert len(store.facts) == n  # symmetric duplicate collapses
    assert idx == store.require_sqdist("A", "E")


def test_sqdist_pair_index_matches_a_scan(division_half):
    store = assert_certificate(division_half)
    # a second value for a certified pair is a new fact: the first one wins
    late = store.add(SqDistKnown("E", "A", F(9)), "RationalDistanceAxiom")
    names = list(division_half.points)
    for p in names:
        for q in names:
            scan = next(
                (i for i, f in enumerate(store.facts) if isinstance(f, SqDistKnown) and {f.p, f.q} == {p, q}),
                None,
            )
            assert store.find_sqdist(p, q) == scan
    assert store.find_sqdist("A", "E") == 0 != late
    assert store.find_sqdist("A", "missing") is None


def _restatements(fact):
    """``fact`` and each restatement of it by a symmetry of its kind."""
    if isinstance(fact, (SqDistKnown, Distinct, NonzeroDist)):
        return [fact, dataclasses.replace(fact, p=fact.q, q=fact.p)]
    if isinstance(fact, VecEq):
        a, b, c, d = fact.a, fact.b, fact.c, fact.d
        return [VecEq(a, b, c, d), VecEq(c, d, a, b), VecEq(b, a, d, c), VecEq(d, c, b, a)]
    if isinstance(fact, VecScale):
        return [fact, VecScale(fact.b, fact.a, fact.d, fact.c, fact.r)]
    if isinstance(fact, AffineComb):
        return [fact, AffineComb(fact.c, fact.b, fact.a, 1 - fact.t)]
    u, w = (fact.a, fact.b), (fact.c, fact.d)
    return [DotZero(*x, *y) for first, second in ((u, w), (w, u)) for x in (first, first[::-1]) for y in (second, second[::-1])]


KEYED_FACTS = [
    SqDistKnown("A2", "A10", F(3, 4)),
    Distinct("A2", "A10"),
    NonzeroDist("A2", "A10"),
    VecEq("A2", "A10", "C2", "C10"),
    VecScale("A2", "A10", "C2", "C10", F(-5, 3)),
    AffineComb("C2", "A2", "A10", F(1, 3)),
    DotZero("A2", "A10", "C2", "C10"),
]


def test_every_symmetric_restatement_of_a_fact_has_its_key():
    for fact in KEYED_FACTS:
        restated = _restatements(fact)
        assert len(set(restated)) == len(restated) > 1
        assert {fact_key(f) for f in restated} == {fact_key(fact)}
    # a ratio is keyed by its value, however it was written
    assert fact_key(SqDistKnown("A", "B", F(6, 8))) == fact_key(SqDistKnown("B", "A", F(3, 4)))
    assert fact_key(SqDistKnown("A", "B", F(2))) == fact_key(SqDistKnown("A", "B", 2))
    assert fact_key(VecScale("A", "B", "C", "D", F(1, 2))) != fact_key(VecScale("A", "B", "C", "D", F(-1, 2)))


def test_fact_kinds_never_share_a_key():
    # the same names under every kind, and the two pairs that read alike
    assert len({fact_key(f) for f in KEYED_FACTS}) == len(KEYED_FACTS)
    assert fact_key(Distinct("A", "B")) != fact_key(NonzeroDist("A", "B"))
    assert fact_key(VecEq("A", "B", "C", "D")) != fact_key(DotZero("A", "B", "C", "D"))
    with pytest.raises(TypeError, match="unknown fact"):
        fact_key(("A", "B"))


def test_a_failed_add_leaves_the_store_as_it_was(division_half):
    store = assert_certificate(division_half)
    store.require(Distinct("C", "D"))
    before = (list(store.facts), list(store.justifications), {p: store.find_sqdist(*p) for p in [("A", "B"), ("A", "E"), ("B", "C")]})
    new = SqDistKnown("B", "C", F(5))
    for premises in ([len(store)], [0, -1]):
        with pytest.raises(engine.EngineError, match="premise reference out of range"):
            store.add(new, "VecAlgebra", premises)
        after = (store.facts, store.justifications, {p: store.find_sqdist(*p) for p in before[2]})
        assert after == before
        # the key did not stay in the index: the fact is still missing
        with pytest.raises(ReplayFailed, match="required fact missing"):
            store.require(new)
    # and it enters as a new fact once its premises are in range
    n = len(store)
    assert store.add(new, "VecAlgebra", [0]) == n == store.require(new) == store.find_sqdist("C", "B")


# -- division replay -------------------------------------------------------------------


def test_replay_division_midpoint(division_half):
    derivation = replay(division_half)
    final = derivation.final_fact()
    assert final == AffineComb(c="C", a="A", b="B", t=F(1, 2))
    rules = [j.rule for j in derivation.justifications]
    # exactly the proof: the second parallelogram equality is not a premise
    assert rules.count("Prop3") == 2
    assert rules.count("Prop4") == 1
    assert rules.count("VecAlgebra") == 1
    derivation.check_wellformed()


def test_replay_division_third():
    gadget = build_division(rational_point(0, 0), rational_point(2, 0), F(1, 3))
    derivation = replay(gadget)
    assert derivation.final_fact() == AffineComb(c="C", a="A", b="B", t=F(1, 3))


def test_replay_division_conclusion_carries_exact_t():
    for t in (F(1, 2), F(1, 3), F(2, 5), F(7, 9)):
        gadget = build_division(rational_point(0, 0), rational_point(1, 0), t)
        assert replay(gadget).final_fact().t == t


def test_replay_fails_on_missing_certificate(division_half):
    reduced = Gadget(
        tower=division_half.tower,
        points=division_half.points,
        certificate=division_half.certificate[1:],  # drop |AE|^2
        side_conditions=division_half.side_conditions,
        goal=division_half.goal,
        layout=division_half.layout,
    )
    with pytest.raises(ReplayFailed):
        replay(reduced)


def test_replay_rejects_lemma_conclusion_false_on_coordinates(monkeypatch):
    """A ratio rule that doubles its ratio, and a span rule that admits any
    stated conclusion: replay must catch the false step, not return it."""
    prop3 = engine._LEMMAS["Prop3"]

    def wrong_ratio(facts, premises, conclusion):
        (scale,) = prop3(facts, premises, conclusion)
        return (dataclasses.replace(scale, r=2 * scale.r),)

    monkeypatch.setitem(engine._LEMMAS, "Prop3", wrong_ratio)
    monkeypatch.setitem(engine._LEMMAS, "VecAlgebra", lambda facts, premises, conclusion: (conclusion,))
    gadget = build_division(rational_point(0, 0), rational_point(1, 0), F(1, 3))
    with pytest.raises(ReplayFailed, match=r"^step \d+ \(Prop3\) concludes VecScale"):
        replay(gadget)


# -- translation replays ----------------------------------------------------------------------


def test_replay_chain_two_links():
    gadget = build_rhombus_chain(rational_point(0, 0), rational_point(1, 0), rational_point(0, 1), rational_point(1, 1))
    derivation = replay(gadget)
    rules = [j.rule for j in derivation.justifications]
    # one per rhombus: each step is the second conclusion itself, and the
    # first conclusion is no premise of the goal
    assert rules.count("Prop4") == 2
    assert derivation.final_fact() == VecEq(a="A0", b="A2", c="C0", d="C2")


def test_replay_chain_trivial():
    gadget = build_rhombus_chain(rational_point(0, 0), rational_point(0, 0), rational_point(1, 0), rational_point(1, 0))
    derivation = replay(gadget)
    # no lemma applications: the goal is immediate (formally the zero relation)
    rules = {j.rule for j in derivation.justifications}
    assert "Prop3" not in rules and "Prop4" not in rules
    assert fact_key(derivation.final_fact()) == fact_key(gadget.goal)


def test_replay_bridge_composes_two_chains():
    root2 = adjoin_sqrt(QQ, 2)
    s2 = root2.root
    gadget = build_translation_bridge(
        rational_point(0, 0), rational_point(1, 0), Point(s2, s2 + 1), Point(s2 + 1, s2 + 1)
    )
    derivation = replay(gadget)
    assert fact_key(derivation.final_fact()) == fact_key(gadget.goal)
    veceqs = [f for f, j in zip(derivation.facts, derivation.justifications) if isinstance(f, VecEq) and j.rule == "VecAlgebra"]
    assert len(veceqs) >= 3  # two chain conclusions plus the composition


# -- scalar-multiple replay -----------------------------------------------------------------------


def replay_scale(a: Point, b: Point, c: Point, d: Point, r: Fraction):
    """Replay the scale layout deriving f(D)-f(C) = r (f(B)-f(A))."""
    builder = _Builder()
    names = [builder.add_point(name, p) for name, p in zip("ABCD", (a, b, c, d))]
    return replay(builder.finish(_emit_scale(builder, names[:2], names[2:], F(r), "s")))


def test_replay_scale_identity_ratio():
    derivation = replay_scale(
        rational_point(0, 0), rational_point(1, 0), rational_point(0, 1), rational_point(1, 1), F(1)
    )
    assert derivation.final_fact() == VecScale(a="C", b="D", c="A", d="B", r=F(1))


def test_replay_scale_half():
    derivation = replay_scale(
        rational_point(0, 0), rational_point(1, 0), rational_point(5, 5), rational_point(F(11, 2), 5), F(1, 2)
    )
    assert derivation.final_fact() == VecScale(a="C", b="D", c="A", d="B", r=F(1, 2))


def test_replay_scale_reflection():
    derivation = replay_scale(
        rational_point(0, 0), rational_point(1, 0), rational_point(3, 0), rational_point(2, 0), F(-1)
    )
    assert derivation.final_fact() == VecScale(a="C", b="D", c="A", d="B", r=F(-1))


def test_replay_scale_blowup():
    derivation = replay_scale(
        rational_point(0, 0), rational_point(1, 0), rational_point(0, 3), rational_point(F(7, 2), 3), F(7, 2)
    )
    assert derivation.final_fact().r == F(7, 2)


def test_replay_scale_rejects_wrong_ratio():
    with pytest.raises(GadgetError, match="scale relation does not hold"):
        replay_scale(rational_point(0, 0), rational_point(1, 0), rational_point(0, 0), rational_point(2, 1), F(2))


# -- perpendicularity replays --------------------------------------------------------------------


def test_replay_kempe(division_half):
    gadget = build_kempe(F(1))
    derivation = replay(gadget)
    assert derivation.final_fact() == DotZero(a="D", b="E", c="A", d="B")
    rules = [j.rule for j in derivation.justifications]
    assert "KempeChain" in rules


def test_replay_kempe_numeric_consistency():
    # at the identity model the derived values give (1/2) a - 2c = 0
    a = F(64, 5)
    c = F(16, 5)
    assert a / 2 - 2 * c == 0


def test_replay_perp_transfer():
    gadget = build_perp_transfer(
        rational_point(0, 0), rational_point(0, F(24, 5)), rational_point(0, 0), rational_point(8, 0)
    )
    derivation = replay(gadget)
    assert fact_key(derivation.final_fact()) == fact_key(gadget.goal)
    rules = [j.rule for j in derivation.justifications]
    assert "KempeChain" in rules and "Composition" in rules


def test_kempe_soundness_certificate_is_verified():
    assert kempe_identities_verified()


def test_kempe_chain_gated_on_identities(division_half, monkeypatch):

    gadget = build_kempe(F(1))
    monkeypatch.setattr(engine, "kempe_identities_verified", lambda: False)
    with pytest.raises(engine.SoundnessCertificateMissing):
        engine.replay(gadget)


# -- derivation structure ----------------------------------------------------------------------------


def test_derivations_are_acyclic_and_terminate(division_half):
    for derivation in (
        replay(division_half),
        replay(build_rhombus_chain(rational_point(0, 0), rational_point(2, 0), rational_point(0, 1), rational_point(2, 1))),
        replay(build_kempe(F(2))),
    ):
        derivation.check_wellformed()
        for i, just in enumerate(derivation.justifications):
            assert all(p < i for p in just.premises)


def test_check_derivation_identity_all_true(division_half):
    derivation = replay(division_half)
    verdict = check_derivation(derivation, identity_model())
    assert verdict.ok
    assert verdict.checked == len(derivation.facts)


def test_check_derivation_scaling_violates_first_fact(division_half):
    derivation = replay(division_half)
    verdict = check_derivation(derivation, Doubling())
    assert not verdict.ok
    assert verdict.violated_index == 0
    assert isinstance(verdict.violated_fact, SqDistKnown)


def test_recheck_accepts_all_replayed_derivations(division_half):

    for derivation in (
        replay(division_half),
        replay(
            build_rhombus_chain(rational_point(0, 0), rational_point(1, 0), rational_point(0, 1), rational_point(1, 1))
        ),
        replay(build_kempe(F(1))),
        replay(
            build_perp_transfer(rational_point(0, 0), rational_point(0, F(12, 5)), rational_point(0, 0), rational_point(4, 0))
        ),
    ):
        recheck_derivation(derivation)


def test_recheck_rejects_tampered_lemma_conclusion(division_half):

    derivation = replay(division_half)
    tampered = Derivation(derivation.gadget, list(derivation.facts), list(derivation.justifications))
    # forge the ratio concluded by the first lemma application
    idx = next(
        i
        for i, (f, j) in enumerate(zip(tampered.facts, tampered.justifications))
        if j.rule == "Prop3" and isinstance(f, VecScale)
    )
    tampered.facts[idx] = dataclasses.replace(tampered.facts[idx], r=tampered.facts[idx].r + 1)
    with pytest.raises(ReplayFailed, match="re-checking"):
        recheck_derivation(tampered)


def test_recheck_rejects_forged_axiom_fact(division_half):

    derivation = replay(division_half)
    tampered = Derivation(derivation.gadget, list(derivation.facts), list(derivation.justifications))
    tampered.facts[0] = dataclasses.replace(tampered.facts[0], v=F(7))
    with pytest.raises(ReplayFailed, match="step 0"):
        recheck_derivation(tampered)


# -- bookkeeping: the build and replay path does each piece of it once -------------------------


def _one_gadget_of_each_kind():
    pt = rational_point
    return [
        build_division(pt(0, 0), pt(1, 0), F(1, 3)),
        build_rhombus_chain(pt(0, 0), pt(5, 0), pt(0, 1), pt(5, 1)),
        build_translation_bridge(pt(0, 0), pt(3, 0), pt(1, 1), pt(4, 1)),
        build_kempe(F(2)),
        build_perp_transfer(pt(0, 0), pt(0, F(12, 5)), pt(0, 0), pt(4, 0)),
    ]


def _counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, which still runs; returns the counter."""
    real = getattr(owner, name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_replay_keys_each_fact_once(monkeypatch):
    stores = []
    seed = engine.assert_certificate
    monkeypatch.setattr(engine, "assert_certificate", lambda gadget: stores.append(seed(gadget)) or stores[-1])
    division, chain = _one_gadget_of_each_kind()[:2]
    links = len(chain.layout["track1"]) - 1
    assert links == 6
    keys = _counted(monkeypatch, engine, "fact_key")
    for gadget in (division, chain):
        keys[0] = 0
        replay(gadget)
        # one key per fact that enters the store and two for the goal
        # comparison; a chain link takes its step from the two Prop4
        # conclusions by the orientation of the pair axioms it cited
        assert keys[0] == len(stores[-1]) + 2


def test_build_and_replay_validate_once_and_replay_trusts_its_own_form(monkeypatch):
    validations = _counted(monkeypatch, Gadget, "validate")
    wellformed = _counted(monkeypatch, engine.Derivation, "check_wellformed")
    built = _one_gadget_of_each_kind()
    assert validations[0] == 0  # the constructors leave it to the consumer
    derivations = [replay(gadget) for gadget in built]
    assert (validations[0], wellformed[0]) == (len(built), 0)
    # the trusted re-check still validates the gadget and the derivation's form
    engine.recheck_derivation(derivations[-1])
    assert (validations[0], wellformed[0]) == (len(built) + 1, 1)


def test_apply_rule_returns_the_store_indices_of_its_conclusions(monkeypatch):
    apply, rules = engine.apply_rule, set()

    def checked(store, rule, premises, conclusion=None):
        ids = apply(store, rule, premises, conclusion)
        expected = engine._conclusions(store.facts, rule, premises, conclusion)
        assert [fact_key(store.facts[i]) for i in ids] == [fact_key(fact) for fact in expected]
        rules.add(rule)
        return ids

    monkeypatch.setattr(engine, "apply_rule", checked)
    for gadget in _one_gadget_of_each_kind():
        replay(gadget)
    assert rules == set(engine._LEMMAS)
