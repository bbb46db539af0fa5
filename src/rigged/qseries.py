"""Exact integer polynomials and truncated power series in q.

One type covers both: an exact polynomial has ``order=None``, a truncated
series knows its coefficients only up to ``order`` (higher degrees are
unknown, not zero).  Either is a dense tuple of coefficients, one per degree
from 0 up.  Arithmetic between truncated values keeps the smaller order.
Coefficients are arbitrary-precision integers; divisions inside the
Gaussian binomial are synthetic and checked to be exact, so nothing here can
silently lose precision.  Kernels whose coefficients are non-negative and
bounded may pack a polynomial into one int instead (``_pack``/``_unpack``):
coefficient d in bits [B d, B (d + 1)), B a multiple of 8 with 2^B above
every coefficient, so sums, shifts and products run as bigint arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat, zip_longest
from operator import sub

from .configuration import _check_ints, check_level
from .phases import _gordon_form, _quadratic_form


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class QPolynomial:
    """Integer polynomial (or truncated series) in q as a dense coefficient tuple.

    ``coeffs[d]`` is the coefficient of q^d; no trailing zeros, nothing above ``order``.
    """

    coeffs: tuple[int, ...] = ()
    order: int | None = None

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        _check_ints("coefficient", *coeffs)
        if self.order is not None:
            _check_ints("order", self.order)
        self._trim(coeffs, self.order)

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...], order: int | None = None) -> "QPolynomial":
        """Internal constructor for an int tuple and an int or None order: only trims."""
        self = object.__new__(cls)
        self._trim(coeffs, order)
        return self

    def _trim(self, coeffs: tuple[int, ...], order: int | None) -> None:
        n = len(coeffs) if order is None else max(0, min(len(coeffs), order + 1))
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])
        object.__setattr__(self, "order", order)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dict(cls, coeffs: dict[int, int], order: int | None = None) -> "QPolynomial":
        _check_ints("degree", *coeffs)
        if coeffs and min(coeffs) < 0:
            raise ValueError(f"negative degree {min(coeffs)}")
        top = max(coeffs, default=-1) if order is None else min(max(coeffs, default=-1), order)
        return cls(tuple(coeffs.get(d, 0) for d in range(top + 1)), order)

    @classmethod
    def zero(cls, order: int | None = None) -> "QPolynomial":
        return cls((), order)

    # -- queries --------------------------------------------------------------

    def coefficient(self, degree: int) -> int:
        _check_ints("degree", degree)
        return self.coeffs[degree] if 0 <= degree < len(self.coeffs) else 0

    __getitem__ = coefficient

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The nonzero ``(degree, coefficient)`` pairs in ascending degree."""
        return tuple((d, c) for d, c in enumerate(self.coeffs) if c)

    @cached_property
    def _packs(self) -> dict[int, int]:
        """This value's packed forms by slot width, filled by ``_packed_binomial``: a memo that dies with the value."""
        return {}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Largest degree with a nonzero coefficient; None for the zero value."""
        return len(self.coeffs) - 1 if self.coeffs else None

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(value: "QPolynomial | int") -> "QPolynomial":
        if isinstance(value, QPolynomial):
            return value
        _check_ints("coefficient", value)
        return QPolynomial._trusted((value,))

    def __add__(self, other: "QPolynomial | int") -> "QPolynomial":
        other = self._coerce(other)
        summed = tuple(x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0))
        return QPolynomial._trusted(summed, _min_order(self.order, other.order))

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._trusted(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "QPolynomial | int") -> "QPolynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        """Convolution up to ``order``; the left factor's zero coefficients are skipped."""
        other = self._coerce(other)
        order = _min_order(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        top = len(a) + len(b) - 2 if order is None else min(len(a) + len(b) - 2, order)
        acc = [0] * (top + 1)
        for d1, c1 in enumerate(a[: top + 1]):
            if c1:
                for d, c2 in enumerate(b[: top + 1 - d1], d1):
                    acc[d] += c1 * c2
        return QPolynomial._trusted(tuple(acc), order)

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        """Human form like ``1 + q^2 + 2*q^3`` (ascending, zero terms omitted)."""
        if not self.coeffs:
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

    def __str__(self) -> str:
        return self.to_text()


def _times_one_minus(c: list[int], a: int) -> None:
    """c *= (1 - q^a) in place, exactly: the list grows by a."""
    c.extend([0] * a)
    c[a:] = map(sub, c[a:], c[:-a])


def _over_one_minus(c: list[int], i: int, exact: bool) -> None:
    """c /= (1 - q^i) in place, as a series below degree len(c): a running sum per residue class mod i.

    With ``exact`` the last i coefficients are a polynomial remainder, which must be zero and is dropped.
    """
    for r in range(min(i, len(c))):
        c[r::i] = accumulate(c[r::i])
    if exact:
        if any(c[-i:]):
            raise ArithmeticError(f"division by 1 - q^{i} left a remainder")
        del c[-i:]


def _times_binomial(c: list[int], p: int, m: int) -> None:
    """c *= [p + m choose m] in place: times (1 - q^(p+i)), then exact division by (1 - q^i), for i = 1..m.

    Each round multiplies by [p + i choose i] / [p + i - 1 choose i - 1], so the list's degree never overshoots.
    """
    for i in range(1, m + 1):
        _times_one_minus(c, p + i)
        _over_one_minus(c, i, exact=True)


def _slot_bits(bound: int) -> int:
    """The smallest multiple of 8, B, with 2^B > ``bound``: a packed slot's width when no coefficient exceeds it."""
    return -(-max(bound, 1).bit_length() // 8) * 8


def _pack(poly: QPolynomial, bits: int) -> int:
    """One int holding coefficient d of ``poly`` in bits [bits*d, bits*(d+1)); each must lie in 0..2^bits - 1."""
    return int.from_bytes(b"".join(map(int.to_bytes, poly.coeffs, repeat(bits // 8), repeat("little"))), "little")


def _unpack(x: int, bits: int, order: int | None = None) -> QPolynomial:
    """The inverse of ``_pack``: slot d of ``x`` is the coefficient of q^d, dropped above ``order``."""
    size = bits // 8
    raw = x.to_bytes(-(-x.bit_length() // bits) * size, "little")
    return QPolynomial._trusted(tuple(int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)), order)


@lru_cache(maxsize=None, typed=True)
def q_binomial(m: int, n: int) -> QPolynomial:
    """Gaussian binomial [m choose n]; zero outside 0 <= n <= m.

    Built on one running list by n slice passes of each kind, with every
    division checked to be exact (``_times_binomial``).
    """
    _check_ints("binomial argument", m, n)  # the cache is typed, so a float or bool never hits an int entry
    if n < 0 or n > m:
        return QPolynomial.zero()
    c = [1]
    _times_binomial(c, m - n, n)
    return QPolynomial._trusted(tuple(c))


def _packed_binomial(p: int, m: int, bits: int) -> int:
    """[p + m choose m] packed at ``bits``, kept on ``q_binomial``'s cached value, so it is cleared with that cache."""
    poly = q_binomial(p + m, m)
    packs = poly._packs
    if bits not in packs:
        packs[bits] = _pack(poly, bits)
    return packs[bits]


def inv_pochhammer(m: int, order: int) -> QPolynomial:
    """The series 1 / product_{i<=m} (1 - q^i), truncated at ``order``."""
    _check_ints("inv_pochhammer argument", m, order)
    if m < 0:
        raise ValueError("need a non-negative number of factors")
    if order < 0:
        raise ValueError("need a non-negative truncation order")
    c = [1] + [0] * order
    for i in range(1, m + 1):
        _over_one_minus(c, i, exact=False)
    return QPolynomial._trusted(tuple(c), order)


def quadratic_form_Q(m: tuple[int, ...], k: int) -> int:
    """Ground-state energy of the particle content with multiplicities ``m``.

    Equals the sum of pairwise phase shifts over all unordered particle
    pairs, hence a non-negative integer.
    """
    check_level(k)
    if len(m) != k:
        raise ValueError(f"multiplicity vector must have length k={k}, got {len(m)}")
    _check_ints("multiplicity", *m)
    if any(v < 0 for v in m):
        raise ValueError(f"multiplicities must be non-negative, got {m}")
    return _quadratic_form(k, (0, *m))


def gordon_quadratic_form(m: tuple[int, ...]) -> int:
    """Ground-state energy for the window-2 theory: half of (G m, m)."""
    _check_ints("multiplicity", *m)
    if any(v < 0 for v in m):
        raise ValueError(f"multiplicities must be non-negative, got {m}")
    return _gordon_form((0, *m))
