"""Replayed derivations hold the proof only.

``replay`` asserts the injectivity and nonzero-distance axioms when a lemma
cites them and slices the store to the goal's premise closure.  The tests here
count what it keeps, and compare its verdicts with the padded derivation that
seeds both axioms for every coordinate-distinct pair and keeps the whole store,
which is the form of derivation files written before slicing.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations

import pytest

from rigidity_forge import codec, engine, suite
from rigidity_forge.cm import Point, rational_point
from rigidity_forge.engine import (
    Derivation,
    Distinct,
    NonzeroDist,
    SqDistKnown,
    check_derivation,
    fact_key,
    recheck_derivation,
    replay,
)
from rigidity_forge.gadgets import AffineComb, build_rhombus_chain
from rigidity_forge.models import eps_rotation_model, identity_model

from harness import Doubling


def padded_replay(gadget) -> Derivation:
    """The unsliced derivation: both pair axioms for every coordinate-distinct
    pair, the same layout replay, every fact of the store kept, and the goal
    re-anchored at the end when it was deduplicated."""
    store = engine.assert_certificate(gadget)
    for p, q in combinations(gadget.points, 2):
        if not gadget.points[p] == gadget.points[q]:
            store.add(Distinct(p, q), "Injectivity")
            store.add(NonzeroDist(p, q), "NonzeroDistance")
    goal_id = engine._replay_layout(store, gadget.layout)
    facts, justifications = list(store.facts), list(store.justifications)
    if goal_id != len(facts) - 1:
        facts.append(facts[goal_id])
        justifications.append(justifications[goal_id])
    derivation = Derivation(gadget, facts, justifications)
    derivation.check_wellformed()
    return derivation


def closure(derivation) -> set[int]:
    """Indices in the premise closure of the final fact."""
    keep = {len(derivation.facts) - 1}
    stack = list(keep)
    while stack:
        for premise in derivation.justifications[stack.pop()].premises:
            if premise not in keep:
                keep.add(premise)
                stack.append(premise)
    return keep


def span_chain(span: int):
    pt = rational_point
    return build_rhombus_chain(pt(0, 0), pt(span, 0), pt(0, 1), pt(span, 1))


@pytest.fixture(scope="module")
def corpus_pairs():
    return [(entry, padded_replay(entry.gadget)) for entry in suite.replay_corpus()]


# -- the slice --------------------------------------------------------------------------------


def test_replay_keeps_exactly_the_goal_closure():
    gadgets = [entry.gadget for entry in suite.replay_corpus()] + [span_chain(80)]
    assert len(gadgets) == 17
    for gadget in gadgets:
        derivation = replay(gadget)
        assert closure(derivation) == set(range(len(derivation.facts)))
        goal = fact_key(gadget.goal)
        assert fact_key(derivation.final_fact()) == goal
        assert [fact_key(f) for f in derivation.facts].count(goal) == 1


def test_span80_chain_replay_is_linear_in_the_span(monkeypatch):
    stores = []
    seed = engine.assert_certificate

    def capture(gadget):
        stores.append(seed(gadget))
        return stores[-1]

    monkeypatch.setattr(engine, "assert_certificate", capture)
    gadget = span_chain(80)
    derivation = replay(gadget)
    assert len(gadget.points) == 162
    assert len(derivation.facts) == 482
    # 241 certificate entries; per rhombus two pair axioms and two Prop4
    # conclusions, of which the derivation keeps one; the goal
    (store,) = stores
    assert len(store) == 241 + 80 * 4 + 1
    assert len(store) < len(list(combinations(gadget.points, 2)))
    rules = [j.rule for j in derivation.justifications]
    assert rules.count("Injectivity") == rules.count("NonzeroDistance") == rules.count("Prop4") == 80


def test_padded_replay_reproduces_the_full_pair_seeding(corpus_pairs):
    for entry, padded in corpus_pairs:
        names = entry.gadget.points
        pairs = sum(1 for p, q in combinations(names, 2) if not names[p] == names[q])
        kinds = [type(f) for f in padded.facts]
        assert kinds.count(Distinct) == kinds.count(NonzeroDist) == pairs, entry.label
        assert len(padded.facts) > len(entry.derivation.facts)


# -- differential: padded and sliced give the same verdicts ----------------------------------


def test_padded_and_sliced_agree_on_every_corpus_model_pair(corpus_pairs):
    checks = 0
    for entry, padded in corpus_pairs:
        for name, model in suite.model_family(entry.gadget):
            sliced_verdict = check_derivation(entry.derivation, model)
            padded_verdict = check_derivation(padded, model)
            assert sliced_verdict.ok == padded_verdict.ok, (entry.label, name)
            assert sliced_verdict.ok, (entry.label, name)
            checks += 1
    assert checks == 96


class _WrongFrame:
    """A model followed by a linear map that is not orthonormal."""

    def __init__(self, model, matrix):
        self.model = model
        self.matrix = matrix

    def apply(self, p):
        q = self.model.apply(p)
        (m00, m01), (m10, m11) = self.matrix
        return Point(m00 * q.x + m01 * q.y, m10 * q.x + m11 * q.y)


def _proves_zero_relation(entry) -> bool:
    """The zero-span chain: no certificate, and a proof that is the single
    premise-free step A0A0 = C0C0, which holds under every map."""
    return not entry.gadget.certificate and len(entry.derivation.facts) == 1


def test_doubling_control_refutes_both_at_fact_zero(corpus_pairs):
    assert [e.label for e, _ in corpus_pairs if _proves_zero_relation(e)] == ["chain[|v|/s=0]"]
    for entry, padded in corpus_pairs:
        sliced_verdict, padded_verdict = (check_derivation(d, Doubling()) for d in (entry.derivation, padded))
        assert sliced_verdict.ok == padded_verdict.ok == _proves_zero_relation(entry), entry.label
        if not sliced_verdict.ok:
            for verdict in (sliced_verdict, padded_verdict):
                assert verdict.violated_index == 0 and isinstance(verdict.violated_fact, SqDistKnown)


def test_altered_final_ratio_refutes_both_at_their_last_fact(corpus_pairs):
    divisions = [(e, p) for e, p in corpus_pairs if isinstance(e.gadget.goal, AffineComb)]
    assert len(divisions) == 8
    for entry, padded in divisions:
        for derivation in (entry.derivation, padded):
            final = derivation.final_fact()
            altered = Derivation(
                derivation.gadget,
                derivation.facts[:-1] + [dataclasses.replace(final, t=final.t + Fraction(1, 3))],
                list(derivation.justifications),
            )
            last = len(altered.facts) - 1
            for model in (identity_model(), eps_rotation_model()):
                verdict = check_derivation(altered, model)
                assert not verdict.ok and verdict.violated_index == last, entry.label


def test_wrong_frame_refutes_both(corpus_pairs):
    wrong = [
        _WrongFrame(identity_model(), ((1, 1), (0, 1))),  # a shear
        _WrongFrame(eps_rotation_model(), ((2, 0), (0, 2))),  # frame scaled by 2
    ]
    for entry, padded in corpus_pairs:
        for model in wrong:
            sliced_ok = check_derivation(entry.derivation, model).ok
            assert sliced_ok == check_derivation(padded, model).ok == _proves_zero_relation(entry), entry.label


def test_padded_documents_still_decode_and_recheck(corpus_pairs):
    for entry, padded in corpus_pairs + [(None, padded_replay(span_chain(5)))]:
        text = codec.dumps(codec.encode_derivation(padded))
        decoded = codec.decode_document(text)
        assert len(decoded.facts) == len(padded.facts)
        assert codec.dumps(codec.encode_derivation(decoded)) == text
        recheck_derivation(decoded)
        assert check_derivation(decoded, identity_model()).ok
