"""``recheck_derivation`` as the trusted checker.

It must reject every corrupted step of a corpus derivation (mutation
analysis: DeMillo, Lipton & Sayward, "Hints on Test Data Selection", 1978),
and it must accept the corpus without any of the replay machinery.
"""

import dataclasses
from fractions import Fraction

import pytest

from rigidity_forge import codec, engine, suite
from rigidity_forge.engine import AXIOMS, RULES, Derivation, EngineError, Justification, recheck_derivation


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


def _rejected(derivation: Derivation) -> bool:
    try:
        recheck_derivation(derivation)
    except EngineError:
        return True
    return False


@pytest.mark.parametrize(
    "mutants, count",
    [(fact_mutants, 2191), (premise_mutants, 153), (rule_mutants, 1673)],
    ids=["facts", "premises", "rules"],
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
