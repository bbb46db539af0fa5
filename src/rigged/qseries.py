"""Exact integer polynomials and truncated power series in q.

One type covers both: an exact polynomial has ``order=None``, a truncated
series knows its coefficients only up to ``order`` (higher degrees are
unknown, not zero).  Arithmetic between truncated values keeps the smaller
order.  Coefficients are arbitrary-precision integers; divisions inside the
Gaussian binomial are synthetic and checked to be exact, so nothing here can
silently lose precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .configuration import check_level
from .phases import gordon_phase, phase


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class QPolynomial:
    """Integer polynomial (or truncated series) in q, stored sparsely."""

    terms: tuple[tuple[int, int], ...] = ()
    order: int | None = None
    _lookup: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        agg: dict[int, int] = {}
        for d, c in self.terms:
            d, c = int(d), int(c)
            if d < 0:
                raise ValueError(f"negative degree {d}")
            if self.order is not None and d > self.order:
                continue
            agg[d] = agg.get(d, 0) + c
        clean = tuple(sorted((d, c) for d, c in agg.items() if c != 0))
        object.__setattr__(self, "terms", clean)
        self._lookup.update(agg)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dict(cls, coeffs: dict[int, int], order: int | None = None) -> "QPolynomial":
        return cls(tuple(coeffs.items()), order)

    @classmethod
    def zero(cls, order: int | None = None) -> "QPolynomial":
        return cls((), order)

    @classmethod
    def one(cls, order: int | None = None) -> "QPolynomial":
        return cls(((0, 1),), order)

    @classmethod
    def q_power(cls, degree: int, coeff: int = 1, order: int | None = None) -> "QPolynomial":
        return cls(((degree, coeff),), order)

    # -- queries --------------------------------------------------------------

    def coefficient(self, degree: int) -> int:
        return self._lookup.get(degree, 0)

    __getitem__ = coefficient

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Largest degree with a nonzero coefficient; None for the zero value."""
        return self.terms[-1][0] if self.terms else None

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(value: "QPolynomial | int") -> "QPolynomial":
        if isinstance(value, QPolynomial):
            return value
        return QPolynomial(((0, int(value)),))

    def __add__(self, other: "QPolynomial | int") -> "QPolynomial":
        other = self._coerce(other)
        merged = dict(self.terms)
        for d, c in other.terms:
            merged[d] = merged.get(d, 0) + c
        return QPolynomial(tuple(merged.items()), _min_order(self.order, other.order))

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple((d, -c) for d, c in self.terms), self.order)

    def __sub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        other = self._coerce(other)
        order = _min_order(self.order, other.order)
        acc: dict[int, int] = {}
        for d1, c1 in self.terms:
            if order is not None and d1 > order:
                break
            for d2, c2 in other.terms:
                d = d1 + d2
                if order is not None and d > order:
                    break
                acc[d] = acc.get(d, 0) + c1 * c2
        return QPolynomial(tuple(acc.items()), order)

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        """Human form like ``1 + q^2 + 2*q^3`` (ascending, zero terms omitted)."""
        if not self.terms:
            return "0"
        chunks = []
        for d, c in self.terms:
            if d == 0:
                chunks.append(str(c))
            else:
                q = "q" if d == 1 else f"q^{d}"
                if c == 1:
                    chunks.append(q)
                elif c == -1:
                    chunks.append(f"-{q}")
                else:
                    chunks.append(f"{c}*{q}")
        return " + ".join(chunks).replace("+ -", "- ")

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(d): str(c) for d, c in self.terms}, "order": self.order}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QPolynomial":
        coeffs = {int(d): int(c) for d, c in data.get("coeffs", {}).items()}
        return cls.from_dict(coeffs, data.get("order"))

    def __str__(self) -> str:
        return self.to_text()


def _divide_exact(p: QPolynomial, i: int) -> QPolynomial:
    """Exact synthetic division of an exact polynomial by (1 - q**i)."""
    if p.is_zero:
        return p
    top = p.degree()
    assert top is not None
    dense = [0] * (top + 1)
    for d, c in p.terms:
        dense[d] = c
    out = [0] * (top - i + 1) if top >= i else []
    for d in range(top + 1):
        v = dense[d] + (out[d - i] if d - i >= 0 else 0)
        if d <= top - i:
            out[d] = v
        elif v != 0:
            raise ArithmeticError(f"division by 1 - q^{i} left a remainder")
    return QPolynomial(tuple((d, c) for d, c in enumerate(out) if c))


@lru_cache(maxsize=None)
def q_binomial(m: int, n: int) -> QPolynomial:
    """Gaussian binomial [m choose n]; zero outside 0 <= n <= m.

    Computed as a product of (1 - q^{m-n+i}) / (1 - q^i) factors with exact
    synthetic division at every step.
    """
    if n < 0 or n > m:
        return QPolynomial.zero()
    result = QPolynomial.one()
    for i in range(1, n + 1):
        result = result * QPolynomial(((0, 1), (m - n + i, -1)))
        result = _divide_exact(result, i)
    return result


def inv_pochhammer(m: int, order: int) -> QPolynomial:
    """The series 1 / product_{i<=m} (1 - q^i), truncated at ``order``."""
    if m < 0:
        raise ValueError("need a non-negative number of factors")
    if order < 0:
        raise ValueError("need a non-negative truncation order")
    result = QPolynomial.one(order=order)
    for i in range(1, m + 1):
        geometric = QPolynomial(tuple((j, 1) for j in range(0, order + 1, i)), order)
        result = result * geometric
    return result


def quadratic_form_Q(m: tuple[int, ...], k: int) -> int:
    """Ground-state energy of the particle content with multiplicities ``m``.

    Equals the sum of pairwise phase shifts over all unordered particle
    pairs, hence a non-negative integer.
    """
    check_level(k)
    if len(m) != k:
        raise ValueError(f"multiplicity vector must have length k={k}, got {len(m)}")
    if any(v < 0 for v in m):
        raise ValueError(f"multiplicities must be non-negative, got {m}")
    total = 0
    for l in range(1, k + 1):
        ml = m[l - 1]
        total += phase(k, l, l) * (ml * (ml - 1) // 2)
        for lp in range(l + 1, k + 1):
            total += phase(k, l, lp) * ml * m[lp - 1]
    return total


def gordon_quadratic_form(m: tuple[int, ...]) -> int:
    """Ground-state energy for the window-2 theory: half of (G m, m)."""
    if any(v < 0 for v in m):
        raise ValueError(f"multiplicities must be non-negative, got {m}")
    total = 0
    for l in range(1, len(m) + 1):
        ml = m[l - 1]
        total += l * ml * ml
        for lp in range(l + 1, len(m) + 1):
            total += gordon_phase(l, lp) * ml * m[lp - 1]
    return total
