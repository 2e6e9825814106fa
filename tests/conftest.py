"""Shared test fixtures."""

from fractions import Fraction

import pytest


@pytest.fixture
def count_fractions_within(monkeypatch):
    """A function that patches each ``(module, name)`` function of its
    argument, and ``Fraction.__new__``, and returns ``counts``:
    ``counts[name]`` records that function's calls and the Fractions built
    while it is the innermost patched function running."""

    def patch(targets):
        counts = {name: {"calls": 0, "fractions": 0} for _, name in targets}
        running = []
        original_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            if running:
                counts[running[-1]]["fractions"] += 1
            return original_new(cls, *args, **kwargs)

        def scoped(name, fn):
            def run(*args, **kwargs):
                counts[name]["calls"] += 1
                running.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    running.pop()

            return run

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for module, name in targets:
            monkeypatch.setattr(module, name, scoped(name, getattr(module, name)))
        return counts

    return patch
