"""Multivariate polynomials over Q with exact determinants.

Terms map exponent vectors (over a fixed, named indeterminate context) to
nonzero rational coefficients; graded-lexicographic order gives the canonical
rendering.  ``det`` is the package's one determinant: a Laplace expansion
that runs on polynomials and on every scalar carrier alike.  There is
deliberately no factoring: identities are checked by expanding a claimed
factored form.  ``Polynomial`` takes ``-`` and ``**`` from the carriers'
operator base ``scalars._FieldOps``; it has no inverse, so a negative power
(or a division) raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .scalars import RationalLike, _as_fraction, _FieldOps

Exponents = tuple[int, ...]


class Polynomial(_FieldOps):
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None) -> None:
        object.__setattr__(self, "vars", tuple(vars))
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def constant(value: RationalLike, vars: Sequence[str]) -> "Polynomial":
        vars = tuple(vars)
        return Polynomial(vars, {(0,) * len(vars): _as_fraction(value)})

    @staticmethod
    def variable(name: str, vars: Sequence[str]) -> "Polynomial":
        vars = tuple(vars)
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return Polynomial(vars, {tuple(exps): Fraction(1)})

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError("polynomials use different indeterminate contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.vars)
        return None

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in rhs.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Polynomial(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Polynomial(self.vars, out)

    __rmul__ = __mul__

    def inverse(self):
        """Polynomials form a ring here: negative powers and division raise."""
        raise ValueError("negative power of a polynomial, or division by one")

    def _value(self) -> Fraction | int | None:
        """The rational a constant (zero included) equals; None otherwise."""
        if any(map(any, self.terms)):
            return None
        return self.terms.get((0,) * len(self.vars), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial) and other.vars != self.vars:
            # across contexts only constants compare, by their rational value
            value = self._value()
            return value is not None and value == other._value()
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.terms == rhs.terms

    def __hash__(self) -> int:
        # a constant hashes like the rational it equals
        value = self._value()
        return hash((self.vars, frozenset(self.terms.items()))) if value is None else hash(value)

    # -- substitution and evaluation -------------------------------------------------

    def substitute(self, bindings: Mapping[str, Union["Polynomial", RationalLike]]) -> "Polynomial":
        """Exact substitution of polynomials or rationals for indeterminates."""
        subs: dict[int, Polynomial] = {}
        for name, value in bindings.items():
            if name not in self.vars:
                raise ValueError(f"unknown indeterminate {name!r}")
            if isinstance(value, (int, Fraction)):
                value = Polynomial.constant(value, self.vars)
            elif value.vars != self.vars:
                raise ValueError("binding uses a different indeterminate context")
            subs[self.vars.index(name)] = value
        total = Polynomial(self.vars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(coeff, self.vars)
            residual = list(exps)
            for idx, value in subs.items():
                if exps[idx]:
                    term = term * value ** exps[idx]
                    residual[idx] = 0
            term = term * Polynomial(self.vars, {tuple(residual): Fraction(1)})
            total = total + term
        return total

    def evaluate(self, values: Mapping[str, RationalLike]) -> Fraction:
        missing = [v for v in self.vars if v not in values and any(e[self.vars.index(v)] for e in self.terms)]
        if missing:
            raise ValueError(f"no value for indeterminates {missing}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            acc = coeff
            for name, e in zip(self.vars, exps):
                if e:
                    acc *= _as_fraction(values[name]) ** e
            total += acc
        return total

    # -- rendering --------------------------------------------------------------------

    def _grlex_key(self, exps: Exponents):
        return (sum(exps), exps)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=self._grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.vars, exps)
                if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def variables(names: str | Sequence[str]) -> tuple[Polynomial, ...]:
    """Declare an indeterminate context: ``e, c = variables("e c")``."""
    if isinstance(names, str):
        names = names.split()
    ctx = tuple(names)
    return tuple(Polynomial.variable(n, ctx) for n in ctx)


def det(rows: Sequence[Sequence]):
    """Laplace expansion along the first row over any commutative ring.

    Entries that are the int 0 (the diagonal and corner of a bordered
    matrix) are skipped along with their minors.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        if isinstance(entry, int) and entry == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * det(minor)
        signed = term if j % 2 == 0 else -term
        total = signed if total is None else total + signed
    return 0 if total is None else total


def identity_check(lhs: Polynomial, constant: RationalLike, factors: Iterable[Polynomial | tuple[Polynomial, int]]) -> bool:
    """True iff lhs equals constant * product(factors) after exact expansion."""
    product = Polynomial.constant(constant, lhs.vars)
    for factor in factors:
        if isinstance(factor, tuple):
            base, power = factor
            product = product * base**power
        else:
            product = product * factor
    return lhs == product
