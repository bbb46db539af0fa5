"""Pairwise energy shifts between quasi-particles.

When a particle of weight l overtakes one of weight l' the lighter particle's
energy jumps by A(l, l') = 2 min(l, l') + max(l + l' - k, 0).  The window-2
theory uses the k-independent companion G(l, l') = 2 min(l, l').

This module is the one home of the two-body term.  A is tabulated once per
level; the private helpers below read the table with multiplicity vectors
indexed by weight (``m[w]`` counts the weight-w particles), so that index 0
lines up with the table's zero row and column and a load is one dot product.
Callers that read many loads at one level fetch the table once and pass
``_load`` its rows.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Sequence

from .configuration import _check_ints, check_level


@lru_cache(maxsize=None)
def _table(k: int) -> tuple[tuple[int, ...], ...]:
    """A(l, l') for 0 <= l, l' <= k; the closed formula is zero on row and column 0."""
    return tuple(tuple(2 * min(l, lp) + max(l + lp - k, 0) for lp in range(k + 1)) for l in range(k + 1))


def phase(k: int, l: int, lp: int) -> int:
    """Energy shift A(l, l') at level k."""
    check_level(k)
    _check_ints("weight", l, lp)
    if not (1 <= l <= k and 1 <= lp <= k):
        raise ValueError(f"weights must lie in 1..k={k}, got ({l}, {lp})")
    return _table(k)[l][lp]


def _load(row: Sequence[int], m: Sequence[int]) -> int:
    """sum_v A(w, v) m_v, the phase shift a weight-w particle owes the particles counted by ``m``; ``row`` is A(w, .)."""
    return sum(map(mul, row, m))


def _vacancies(k: int, N: int, m: Sequence[int], floor: Sequence[int]) -> list[int]:
    """p_w = w N + A(w, w) - floor_w - sum_v A(w, v) m_v, indexed by weight like ``floor``.

    ``floor`` is indexed by weight as well, with ``floor[0] == 0``, so p_0 = 0.
    A weight-w rigging fits under the boundary N exactly when it lies in
    floor_w..floor_w + p_w.
    """
    table = _table(k)
    return [w * N + row[w] - f - sum(map(mul, row, m)) for w, (row, f) in enumerate(zip(table, floor))]


def _quadratic_form(k: int, m: Sequence[int]) -> int:
    """Q(m): the sum of A over all unordered pairs of the particles counted by ``m``."""
    table = _table(k)
    return sum(m_w * (sum(map(mul, table[w], m)) - table[w][w]) for w, m_w in enumerate(m) if m_w) // 2


def gordon_phase(l: int, lp: int) -> int:
    """Energy shift G(l, l') = 2 min(l, l') for the window-2 theory."""
    _check_ints("weight", l, lp)
    if l < 1 or lp < 1:
        raise ValueError(f"weights must be positive, got ({l}, {lp})")
    return 2 * min(l, lp)


def _gordon_load(w: int, m: Sequence[int]) -> int:
    """The window-2 twin of ``_load``: sum_v G(w, v) m_v, for ``m`` indexed by weight with ``m[0] == 0``."""
    return sum(gordon_phase(w, v) * m_v for v, m_v in enumerate(m) if m_v)


def _gordon_form(m: Sequence[int]) -> int:
    """Q_2(m) = (G m, m) / 2, counting each particle's pair with itself once as G(w, w) / 2 = w."""
    return sum(m_w * _gordon_load(w, m) for w, m_w in enumerate(m) if m_w) // 2


def _rise(k: int, w: int, m: Sequence[int], window: int) -> int:
    """Q(m + e_w) - Q(m): the ground energy one more weight-w particle adds, in the window-3 or window-2 theory."""
    return _load(_table(k)[w], m) if window == 3 else _gordon_load(w, m) + w
