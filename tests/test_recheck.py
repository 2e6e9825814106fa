"""``recheck_derivation`` as the trusted checker.

It must reject every corrupted step of a corpus derivation (mutation
analysis: DeMillo, Lipton & Sayward, "Hints on Test Data Selection", 1978),
and it must accept the corpus without any of the replay machinery.
"""

import dataclasses
from fractions import Fraction

import pytest

from rigidity_forge import codec, engine, suite
from rigidity_forge.cm import rational_point
from rigidity_forge.engine import AXIOMS, RULES, Derivation, EngineError, Justification, ReplayFailed, recheck_derivation, replay
from rigidity_forge.gadgets import build_division, build_rhombus_chain


@pytest.fixture(scope="module")
def corpus():
    return suite.replay_corpus()


def fact_mutants(derivation: Derivation):
    """Every single-field edit of every fact: a rational field shifted by 1/7,
    doubled or negated, or a name field replaced by up to three other points."""
    names = list(derivation.gadget.points)
    for i, fact in enumerate(derivation.facts):
        for f in dataclasses.fields(fact):
            value = getattr(fact, f.name)
            if isinstance(value, Fraction):
                edits = [value + Fraction(1, 7), 2 * value, -value]
            else:
                edits = [name for name in names if name != value][:3]
            for edit in edits:
                facts = list(derivation.facts)
                facts[i] = dataclasses.replace(fact, **{f.name: edit})
                yield Derivation(derivation.gadget, facts, derivation.justifications)


def premise_mutants(derivation: Derivation):
    """Every lemma step that cites premises, with all of them dropped, the last
    one dropped, or the last one pointed at fact 1."""
    for i, just in enumerate(derivation.justifications):
        if just.rule in AXIOMS or not just.premises:
            continue
        for premises in ((), just.premises[:-1], just.premises[:-1] + (1,)):
            justifications = list(derivation.justifications)
            justifications[i] = Justification(just.rule, premises)
            yield Derivation(derivation.gadget, derivation.facts, justifications)


def rule_mutants(derivation: Derivation):
    """Every step with its rule renamed to each other rule, premises kept."""
    for i, just in enumerate(derivation.justifications):
        for rule in RULES:
            if rule != just.rule:
                justifications = list(derivation.justifications)
                justifications[i] = Justification(rule, just.premises)
                yield Derivation(derivation.gadget, derivation.facts, justifications)


def length_mutants(derivation: Derivation):
    """The justification list with its last or its middle entry dropped, or
    with its last entry repeated: one justification too few or too many."""
    justs = derivation.justifications
    middle = len(justs) // 2
    for justifications in (justs[:-1], justs[:middle] + justs[middle + 1 :], justs + justs[-1:]):
        yield Derivation(derivation.gadget, derivation.facts, list(justifications))


def _rejected(derivation: Derivation) -> bool:
    try:
        recheck_derivation(derivation)
    except EngineError:
        return True
    return False


@pytest.mark.parametrize(
    "mutants, count",
    [(fact_mutants, 2191), (premise_mutants, 153), (rule_mutants, 1673), (length_mutants, 48)],
    ids=["facts", "premises", "rules", "lengths"],
)
def test_recheck_rejects_every_corpus_mutant(corpus, mutants, count):
    tried = accepted = 0
    for entry in corpus:
        for mutant in mutants(entry.derivation):
            tried += 1
            accepted += not _rejected(mutant)
    assert (tried, accepted) == (count, 0)


class _Forbidden:
    """Stands in for replay machinery that rechecking must not touch."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"recheck used {self.name}")

    __getitem__ = __contains__ = __iter__ = __call__


def test_recheck_is_independent_of_replay(corpus, monkeypatch):
    documents = [codec.dumps(codec.encode_derivation(entry.derivation)) for entry in corpus]
    for name in ("FactStore", "apply_rule", "_REPLAYS"):
        monkeypatch.setattr(engine, name, _Forbidden(name))
    for text in documents:
        recheck_derivation(codec.decode_document(text))


def test_recheck_rejects_a_pair_axiom_on_an_unknown_point():
    """A hand-built derivation whose Injectivity or NonzeroDistance fact
    names a point the gadget lacks fails at that step, as every other
    illegitimate step does (the decoder rejects such names before)."""
    corners = (rational_point(0, 0), rational_point(2, 0), rational_point(0, 1), rational_point(2, 1))
    derivation = replay(build_rhombus_chain(*corners))
    for rule, kind in (("Injectivity", engine.Distinct), ("NonzeroDistance", engine.NonzeroDist)):
        step = next(i for i, just in enumerate(derivation.justifications) if just.rule == rule)
        facts = list(derivation.facts)
        facts[step] = kind("ZZ", facts[step].q)
        with pytest.raises(ReplayFailed, match=rf"^step {step} \({rule}\) fails re-checking: .*ZZ.* names a point the gadget lacks$"):
            recheck_derivation(Derivation(derivation.gadget, facts, derivation.justifications))


def _division_third():
    return build_division(rational_point(0, 0), rational_point(1, 0), Fraction(1, 3))


def test_a_derivation_needs_one_justification_per_fact_and_a_fact():
    """A replay's ten axiom steps plus the goal, with no lemma step that
    proves it: zipping the two lists would recheck the axioms and never the
    goal.  An empty derivation has no final fact to compare."""
    derivation = replay(_division_third())
    g = derivation.gadget
    steps = [(f, j) for f, j in zip(derivation.facts, derivation.justifications) if j.rule in AXIOMS]
    assert len(steps) == 10
    unproved = Derivation(g, [f for f, _ in steps] + [g.goal], [j for _, j in steps])
    with pytest.raises(EngineError) as exc:
        recheck_derivation(unproved)
    assert str(exc.value) == "a derivation needs at least one fact and one justification per fact, got 11 facts and 10 justifications"
    with pytest.raises(EngineError) as exc:
        Derivation(g, [], []).check_wellformed()
    assert str(exc.value) == "a derivation needs at least one fact and one justification per fact, got 0 facts and 0 justifications"


def _wellformed_message(derivation: Derivation, edits: dict) -> str:
    """The ``check_wellformed`` message once ``edits`` (step -> (rule,
    premises), or "final" -> a fact) are applied to ``derivation``."""
    facts, justifications = list(derivation.facts), list(derivation.justifications)
    for step, edit in edits.items():
        if step == "final":
            facts[-1] = edit
        else:
            justifications[step] = Justification(*edit)
    with pytest.raises(EngineError) as exc:
        Derivation(derivation.gadget, facts, justifications).check_wellformed()
    return str(exc.value)


def test_wellformed_messages_and_their_precedence_are_pinned():
    """Each message on an in-memory derivation, and which one wins: per step
    the rule, then a negative premise, then premises on an axiom step, then
    a forward premise; earlier steps before later ones, the final fact last."""
    derivation = replay(_division_third())
    rules = [j.rule for j in derivation.justifications]
    lemma = next(i for i, rule in enumerate(rules) if rule not in AXIOMS and i > 2)
    axiom = rules.index("RationalDistanceAxiom")
    assert axiom < lemma < len(rules) - 1
    other_goal = dataclasses.replace(derivation.final_fact(), t=Fraction(1, 4))
    cases = [
        ({lemma: ("Nope", (0,))}, "unknown rule Nope"),
        ({lemma: ("Nope", (-1,))}, "unknown rule Nope"),
        ({lemma: (rules[lemma], (0, -1))}, f"fact {lemma} cites a negative premise index"),
        ({axiom: ("RationalDistanceAxiom", (0,))}, f"fact {axiom} is a RationalDistanceAxiom step and may cite no premises"),
        ({axiom: ("RationalDistanceAxiom", (-1,))}, f"fact {axiom} cites a negative premise index"),
        ({axiom: ("RationalDistanceAxiom", (axiom + 1,))}, f"fact {axiom} is a RationalDistanceAxiom step and may cite no premises"),
        ({lemma: (rules[lemma], (0, lemma))}, "derivation is not acyclic"),
        ({lemma: (rules[lemma], (lemma + 1,)), axiom: (rules[axiom], (-2,))}, f"fact {axiom} cites a negative premise index"),
        ({lemma: ("Nope", ()), "final": other_goal}, "unknown rule Nope"),
        ({"final": other_goal}, "final fact does not match the gadget goal"),
    ]
    assert [_wellformed_message(derivation, edits) for edits, _ in cases] == [message for _, message in cases]
    derivation.check_wellformed()
