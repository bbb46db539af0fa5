"""Finitely supported occupancy sequences with sliding-window constraints.

The basic object is a map from integer columns to non-negative occupation
numbers, zero outside a finite window.  A sequence is (k, r)-admissible when
every r consecutive columns hold at most k units in total.  For r = 3 two
window functionals refine this: S[j] = a_j + a_{j+1} and
L[j] = a_{j-1} + 2 a_j + 2 a_{j+1} + a_{j+2}.  A configuration has weight at
most l when S stays <= l and L stays <= k + l everywhere; the columns where
either bound is attained locate the quasi-particles that the rest of the
library moves around.

One pass over the padded columns yields every window maximum these notions
need: the largest S (which is also the largest 2-column sum), the largest
3-column sum and the largest L.  Admissibility compares one of the first two
with k; the weight is max(S_max, L_max - k, 0).

Enumeration backtracks over one mutable row of columns 0..limit, the limit
being the smaller of the boundary N and the energy cap, with a stack of
iterators over the values ``_next_column`` allows each column, capped by the
energy left (Knuth, TAOCP 4B, 7.2.2, Algorithm B).  A row ends once one unit
in the next column costs more than the energy left.  A leaf and
``_next_column`` read only columns on the stack, so a pop resets nothing.
Leaves come in lexicographic order of (a_0, a_1, ...).  The character
identities count configurations with a column transfer matrix over the same
window rules (``characters.config_sum``); this enumeration is its
brute-force oracle, and under RIGGED_DEBUG=1 it recounts every sum.

Everything is exact integer arithmetic on immutable values.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

#: Occupation numbers are bounded by k, and k itself is capped so that all
#: window sums stay far inside machine-word range.
MAX_LEVEL = 64


class AdmissibilityError(ValueError):
    """A configuration violates a window or weight bound it was required to satisfy."""


def check_level(k: int, l: int | None = None) -> None:
    """Validate a level ``k`` and an optional weight cap ``l``, raising ValueError on nonsense."""
    if type(k) is not int or not 1 <= k <= MAX_LEVEL:
        raise ValueError(f"level k must be in 1..{MAX_LEVEL}, got {k!r}")
    if l is not None and (type(l) is not int or not 0 <= l <= k):
        raise ValueError(f"weight cap must satisfy 0 <= l <= k, got l={l!r} at k={k}")


def _check_ints(name: str, *values: object) -> None:
    """Raise ValueError unless every value is a plain int: a float, bool or str is never truncated or parsed."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_nonnegative(name: str, value: object) -> None:
    """Raise ValueError unless ``value`` is a plain int (``_check_ints``) and at least 0."""
    _check_ints(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


def _json_as(value: object, kind: type, what: str) -> object:
    """``value`` if it is a JSON object (``kind=dict``) or array (``kind=list``), else a ValueError naming ``what``."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, got {reprlib.repr(value)}")
    return value


def _json_fields(data: object, what: str, required: tuple[str, ...]) -> dict:
    """``data`` if it is a JSON object with exactly the ``required`` keys."""
    _json_as(data, dict, what)
    for key in data:
        if key not in required:
            raise ValueError(f"unknown key {key!r} in {what}, expected only {', '.join(map(repr, required))}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} needs the key {key!r}")
    return data


def _check_window(r: int) -> None:
    """Raise ValueError unless the window size ``r`` is 2 or 3."""
    _check_ints("window size r", r)
    if r not in (2, 3):
        raise ValueError(f"window size r must be 2 or 3, got {r}")


@dataclass(frozen=True, slots=True)
class Configuration:
    """A finitely supported column-occupancy sequence.

    ``counts[j]`` is the occupation of column ``offset + j``; columns outside
    the stored window are zero.  Instances are canonical: the window never
    starts or ends with a zero column, and the unique empty value is the zero
    sequence.  Canonical form makes structural equality meaningful.
    """

    offset: int = 0
    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        counts = tuple(self.counts)
        _check_ints("offset", self.offset)
        _check_ints("count", *counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative occupation number in {counts!r}")
        self._trim(self.offset, counts)

    @classmethod
    def _trusted(cls, offset: int, counts: tuple[int, ...]) -> "Configuration":
        """Internal constructor for counts already known to be non-negative ints: only trims."""
        self = object.__new__(cls)
        self._trim(offset, counts)
        return self

    def _trim(self, offset: int, counts: tuple[int, ...]) -> None:
        lo, hi = 0, len(counts)
        while lo < hi and counts[lo] == 0:
            lo += 1
        while hi > lo and counts[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            offset, counts = 0, ()
        elif lo or hi < len(counts):
            offset, counts = offset + lo, counts[lo:hi]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "counts", counts)

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.counts

    @property
    def support_min(self) -> int | None:
        return self.offset if self.counts else None

    @property
    def support_max(self) -> int | None:
        return self.offset + len(self.counts) - 1 if self.counts else None

    def get(self, column: int) -> int:
        _check_ints("column", column)
        j = column - self.offset
        if 0 <= j < len(self.counts):
            return self.counts[j]
        return 0

    __getitem__ = get

    def energy(self) -> int:
        """Sum of column * occupation over the support."""
        return sum(map(mul, range(self.offset, self.offset + len(self.counts)), self.counts))

    def length(self) -> int:
        """Total number of units."""
        return sum(self.counts)

    @property
    def positively_supported(self) -> bool:
        return self.is_zero or self.offset >= 0

    # -- derived values ---------------------------------------------------

    def shifted(self, delta: int) -> "Configuration":
        """Translate every column by ``delta``."""
        _check_ints("shift", delta)
        return Configuration._trusted(self.offset + delta, self.counts)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Render as ``offset:c0,c1,...``; the zero sequence is ``0:``."""
        return f"{self.offset}:" + ",".join(str(c) for c in self.counts)

    @classmethod
    def from_text(cls, text: str) -> "Configuration":
        """Parse ``offset:c0,c1,...``; a missing ``offset:`` prefix means offset 0."""
        text = text.strip()
        if ":" in text:
            head, _, tail = text.partition(":")
            offset = int(head) if head else 0
        else:
            offset, tail = 0, text
        tail = tail.strip()
        counts = tuple(int(p) for p in tail.split(",")) if tail else ()
        return cls(offset, counts)

    def to_json_dict(self) -> dict:
        return {"offset": self.offset, "counts": list(self.counts)}

    def __str__(self) -> str:
        return self.to_text()


ZERO = Configuration()


def s_functional(a: Configuration, j: int) -> int:
    """Two-column window sum a_j + a_{j+1}."""
    return a.get(j) + a.get(j + 1)


def l_functional(a: Configuration, j: int) -> int:
    """Four-column weighted window sum a_{j-1} + 2 a_j + 2 a_{j+1} + a_{j+2}."""
    return a.get(j - 1) + 2 * a.get(j) + 2 * a.get(j + 1) + a.get(j + 2)


def _window_maxima(cols: Sequence[int]) -> tuple[int, int, int]:
    """Largest S, largest 3-column sum and largest L over all windows of ``cols``.

    ``cols`` must begin and end with two zero columns; all zeros give zeros.
    """
    s_max = t_max = l_max = 0
    for w, x, y, z in zip(cols, cols[1:], cols[2:], cols[3:]):
        s = x + y
        if s > s_max:
            s_max = s
        if s + z > t_max:
            t_max = s + z
        if 2 * s + w + z > l_max:
            l_max = 2 * s + w + z
    return s_max, t_max, l_max


def is_admissible(a: Configuration, k: int, r: int = 3) -> bool:
    """True iff every window of ``r`` consecutive columns sums to at most ``k``."""
    check_level(k)
    _check_window(r)
    s_max, t_max, _ = _window_maxima((0, 0) + a.counts + (0, 0))
    return (s_max if r == 2 else t_max) <= k


def weight(a: Configuration, k: int) -> int:
    """Smallest l with S <= l and L <= k + l everywhere.

    Computed in closed form as max(max_j S[j], max_j L[j] - k, 0); zero exactly
    for the zero sequence.
    """
    check_level(k)
    s_max, t_max, l_max = _window_maxima((0, 0) + a.counts + (0, 0))
    if t_max > k:
        raise AdmissibilityError(f"{a} is not (k={k}, 3)-admissible")
    return max(s_max, l_max - k, 0)


def _next_column(k: int, r: int, l: int | None, last: Sequence[int], top: int, pin: int | None) -> Sequence[int]:
    """The values v <= ``top`` a column may take after the columns ``last`` (at least r - 1 of them; 3 under a cap l).

    v keeps its r-window sum <= k and matches ``pin`` (None pins nothing).  A weight cap l needs r = 3; v then
    keeps S = a_{i-1} + v <= l and the L window ending at v <= k + l, as later L windows are a 3-window plus
    an S.  Window sums only grow, so the cap builds no dead end; at l = k it never binds (L is two 3-windows).
    """
    if l is None:
        top = min(top, k - sum(last[1 - r :]))
    else:
        x, y, z = last
        top = min(top, k - y - z, l - z, k + l - x - 2 * y - 2 * z)
    return range(top + 1) if pin is None else (pin,) if 0 <= pin <= top else ()


def enumerate_configurations(
    k: int,
    r: int,
    N: int | None,
    a0: int | None = None,
    a1: int | None = None,
    max_energy: int | None = None,
    max_weight: int | None = None,
) -> Iterator[Configuration]:
    """Yield every positively supported (k, r)-admissible configuration once.

    The support is confined to columns 0..N; when ``max_energy`` is given the
    energy is additionally capped (and may replace N as the finiteness bound,
    since a unit at column i > max_energy already costs more than the cap).
    ``max_weight`` (r = 3 only) keeps the configurations of weight at most it.
    Unsatisfiable a0/a1 constraints or a negative bound simply produce an
    empty stream.  The order is lexicographic in (a_0, a_1, ...).
    """
    check_level(k, max_weight)
    _check_window(r)
    for name, value in (("N", N), ("a0", a0), ("a1", a1), ("max_energy", max_energy)):
        if value is not None:
            _check_ints(name, value)
    if max_weight is not None and r == 2:
        raise ValueError("a weight cap needs window size r = 3")
    if N is None and max_energy is None:
        raise ValueError("need a boundary N or an energy cap to enumerate finitely")
    limit = min(bound for bound in (N, max_energy) if bound is not None)
    pins = {col: v for col, v in ((0, a0), (1, a1)) if v is not None}
    # Columns beyond the limit are identically zero, so a pin out there is
    # either vacuous or unsatisfiable.
    if limit < 0 or any(v for col, v in pins.items() if col > limit):
        return
    # Column i lives at row[i + 3], behind three zero columns.
    row = [0] * (limit + 4)
    l = max_weight if max_weight is not None and max_weight < k else None
    # The stack: per column, an iterator over the values it may still take.  left[i] is the energy left
    # before column i; without an energy cap, the largest energy a row can carry never binds.
    columns = [iter(_next_column(k, r, l, row[:3], k, pins.get(0)))]
    left = [max_energy if max_energy is not None else k * limit * (limit + 1) // 2] + [0] * (limit + 1)
    while columns:
        i = len(columns)
        for v in columns[-1]:
            row[i + 2] = v
            left[i] = left[i - 1] - (i - 1) * v
            # Past the limit, or at a column dearer than the energy left, every
            # remaining column is zero.  That column is never a pinned one:
            # column 0 is free, so column 1 sees the whole cap, and a zero cap
            # means limit 0.
            if i > limit or left[i] < i:
                yield Configuration._trusted(0, tuple(row[3 : i + 3]))
            else:
                columns.append(iter(_next_column(k, r, l, row[i : i + 3], left[i] // i, pins.get(i))))
                break
        else:
            columns.pop()
