"""The reference loop: a fixed yardstick of plain-Python work, timed beside every library call.

The host's speed drifts by up to 1.8x in phases that last seconds, and the
drift does not slow all code alike: a tight integer loop slowed about 10%
less than the library in slow phases.  So the yardstick is a frozen copy of
the kinds of work the library does -- a canonicalising frozen dataclass, the
sliding-window scan, a sparse polynomial product and a recursive generator --
and shares no code with it, so that no change to the library moves it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Columns:
    offset: int = 0
    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        lo, hi = 0, len(counts)
        while lo < hi and counts[lo] == 0:
            lo += 1
        while hi > lo and counts[hi - 1] == 0:
            hi -= 1
        object.__setattr__(self, "offset", self.offset + lo)
        object.__setattr__(self, "counts", counts[lo:hi])


def _window_max(c: _Columns, k: int) -> int:
    ext = (0, 0) + c.counts + (0, 0)
    best = 0
    for j in range(len(ext) - 1):
        s = ext[j] + ext[j + 1]
        if s > best:
            best = s
    for j in range(1, len(ext) - 2):
        s = ext[j - 1] + 2 * ext[j] + 2 * ext[j + 1] + ext[j + 2] - k
        if s > best:
            best = s
    return best


def _moves(steps: int) -> int:
    cur, acc = _Columns(0, (1, 0, 2, 1, 0, 1, 1, 0, 2, 0, 1)), 0
    for i in range(steps):
        acc += _window_max(cur, 3)
        vals = list(cur.counts)
        j = i % (len(vals) - 1)
        if vals[j]:
            vals[j] -= 1
            vals[j + 1] += 1
        else:
            vals[j] += 1
            vals[j + 1] = max(0, vals[j + 1] - 1)
        cur = _Columns(cur.offset, tuple([0] + vals + [0]))
    return acc


def _poly_mul(a: dict[int, int], b: dict[int, int], order: int) -> dict[int, int]:
    acc: dict[int, int] = {}
    for d1, c1 in sorted(a.items()):
        for d2, c2 in sorted(b.items()):
            d = d1 + d2
            if d > order:
                break
            acc[d] = acc.get(d, 0) + c1 * c2
    return {d: c for d, c in acc.items() if c}


def _sequences(i: int, limit: int, tail: tuple[int, ...], k: int):
    if i > limit:
        yield ()
        return
    for v in range(k - sum(tail) + 1):
        for rest in _sequences(i + 1, limit, (tail + (v,))[-2:], k):
            yield (v,) + rest


def reference() -> float:
    """Run the yardstick once (about 0.4 ms on a 2-core x86 VM); return its wall time in seconds."""
    t0 = time.perf_counter()
    _moves(24)
    p = {0: 1}
    for _ in range(5):
        p = _poly_mul(p, {0: 1, 1: 1, 3: -1, 4: 2}, 24)
    sum(1 for _ in _sequences(0, 4, (0, 0), 2))
    return time.perf_counter() - t0
