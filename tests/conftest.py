"""Shared test fixtures and settings, and ``table_kind``, the one helper
for tests that assert which point table a report ran on."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import lcm
from unittest import mock

import pytest
from hypothesis import settings

from rigidity_forge import cm, models, scalars

# exact arithmetic on 4,000-digit values takes what it takes: no deadline
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")
# the parent of every derandomized test's settings: the same examples on
# every run, none stored between runs
DERANDOMIZED = settings(derandomize=True, database=None)

def table_kind(table) -> str | None:
    """The kind of a point table: "formula" for the base table, the carrier
    formula and the reference of every table test, or one of its two fast
    paths, "kernel" (one tower, Q included) and "packed"; None for any
    other object."""
    kinds = {cm.PointTable: "formula", cm._KernelTable: "kernel", models._PackedTable: "packed"}
    return kinds.get(type(table))


@contextmanager
def tables_built():
    """The kind of each point table built inside the block, in order; every
    table's constructor ends in ``PointTable.__init__``."""
    kinds, real = [], cm.PointTable.__init__

    def recording(self, points):
        real(self, points)
        kinds.append(table_kind(self))

    with mock.patch.object(cm.PointTable, "__init__", recording):
        yield kinds


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


def _pack_fun_points(points):
    """The packed table of ``FunElem`` points of one tower over one
    denominator pair, built by its own constructor: each point's form is
    its two numerators joined over k = lcm(k_x, k_y), packed as they are,
    and the bounds are read off these forms and D.  None for any other
    point set.  ``models._packed_table``, the one producer in the package,
    packs images under a K(eps) frame from their forms; this packer reaches
    the table's tests on any such points."""
    coords = [c for p in points.values() for c in (p.x, p.y)]
    if not coords or not all(isinstance(c, scalars.FunElem) for c in coords):
        return None
    tower, den = coords[0].tower, coords[0]._d
    if any(c.tower != tower or c._d != den for c in coords):
        return None
    joined = {}
    for name, p in points.items():
        (xr, kx), (yr, ky) = p.x._n, p.y._n
        k = lcm(kx, ky)
        joined[name] = ([[c * (k // kx) for c in r] for r in xr], [[c * (k // ky) for c in r] for r in yr]), k
    polys = [rows for pair, _ in joined.values() for rows in pair] + [den[0]]
    top = max(map(abs, chain.from_iterable(chain.from_iterable(polys))), default=0)

    def pack(shifts):
        packed = lambda rows: scalars.fun_pack(rows, tower.dim, shifts)
        return {name: (packed(xr) + packed(yr), k) for name, ((xr, yr), k) in joined.items()}

    return models._PackedTable(points, tower, den, top, max(map(len, polys)), max(k for _, k in joined.values()), pack)


@pytest.fixture(scope="session")
def packed_table():
    """The packer ``_pack_fun_points``: the packed table of ``FunElem``
    points of one tower over one denominator pair, else None."""
    return _pack_fun_points
