"""Degree-preserving bijection between configurations and rigged partitions.

A rigged partition is a weakly decreasing list of particle weights with an
integer energy label (rigging) per particle, weakly decreasing across equal
weights.  The forward map reads a configuration particle by particle:
float the heaviest remaining particle free by right moves, record its surplus
energy, drop it, and recurse; riggings are the surpluses minus the phase
shifts owed to the lighter particles still below.  The inverse map replays
that story backwards with left moves.

Total energy splits as E = E0 + E1, where E0 is the pairwise phase
interaction of the particle content and E1 the sum of riggings; length equals
the sum of weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from .configuration import ZERO, Configuration, _check_ints, _json_as, _json_fields, check_level
from .moves import InternalCheckError, _debug_enabled, _drop_groups, _peel
from .phases import _load, _quadratic_form


class RiggingError(ValueError):
    """A rigged partition violates its ordering constraints."""


@dataclass(frozen=True, slots=True)
class RiggedPartition:
    """Particle content with riggings: ((weight, rigging), ...) sorted as stored.

    Weights are weakly decreasing and positive; riggings are weakly decreasing
    wherever weights tie.  Riggings may be negative (they go negative exactly
    when the matching configuration dips below column zero).
    """

    parts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        parts = tuple((w, r) for w, r in self.parts)
        _check_ints("weight", *(w for w, _ in parts))
        _check_ints("rigging", *(r for _, r in parts))
        object.__setattr__(self, "parts", parts)
        for (w1, r1), (w2, r2) in zip(parts, parts[1:]):
            if w1 < w2:
                raise RiggingError(f"weights must be weakly decreasing, got {parts}")
            if w1 == w2 and r1 < r2:
                raise RiggingError(f"riggings must be weakly decreasing on equal weights, got {parts}")
        if parts and parts[-1][0] < 1:
            raise RiggingError(f"weights must be positive, got {parts}")

    @classmethod
    def _trusted(cls, parts: tuple[tuple[int, int], ...]) -> "RiggedPartition":
        """Internal constructor for parts already canonical: int pairs, ordered as stored."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    @classmethod
    def _prepended(cls, part: tuple[int, int], tail: "RiggedPartition") -> "RiggedPartition":
        """``RiggedPartition((part,) + tail.parts)`` for a positive-weight int pair and a valid ``tail``.

        Only ``part`` against the tail's first part is checked: every later
        pair passed the same check when the tail was built.  Parts compare as
        (weight, rigging), so ``part`` comes first exactly when it is not smaller;
        otherwise the validating constructor raises its ``RiggingError``.
        """
        parts = (part,) + tail.parts
        if tail.parts and part < tail.parts[0]:
            cls(parts)
        return cls._trusted(parts)

    @classmethod
    def of(cls, weights: tuple[int, ...], riggings: tuple[int, ...]) -> "RiggedPartition":
        if len(weights) != len(riggings):
            raise RiggingError("weights and riggings must have equal length")
        return cls(tuple(zip(weights, riggings)))

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.parts)

    @property
    def riggings(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def multiplicity(self, w: int) -> int:
        _check_ints("weight", w)
        return sum(1 for wi, _ in self.parts if wi == w)

    def min_rigging(self, w: int) -> int | None:
        """Smallest rigging among weight-w parts, or None when there are none."""
        _check_ints("weight", w)
        matching = [r for wi, r in self.parts if wi == w]
        return min(matching) if matching else None

    def drop_weight(self, w: int) -> "RiggedPartition":
        """The partition with every weight-w part removed."""
        _check_ints("weight", w)
        return RiggedPartition(tuple(p for p in self.parts if p[0] != w))

    def to_json_dict(self) -> dict:
        return {"parts": [{"weight": w, "rigging": r} for w, r in self.parts]}

    @classmethod
    def from_json_dict(cls, data: object) -> "RiggedPartition":
        """Parse ``{"parts": [{"weight": w, "rigging": r}, ...]}``, with no other key; w and r must be JSON integers."""
        parts = _json_as(_json_fields(data, "rigged partition", ("parts",))["parts"], list, "parts")
        parts = [_json_fields(p, "part", ("weight", "rigging")) for p in parts]
        return cls(tuple((p["weight"], p["rigging"]) for p in parts))

    def sort_key(self) -> tuple:
        return (self.weights, self.riggings)

    def __str__(self) -> str:
        if not self.parts:
            return "()"
        ws = ",".join(str(w) for w in self.weights)
        rs = ",".join(str(r) for r in self.riggings)
        return f"(({ws}),({rs}))"


EMPTY = RiggedPartition()


def multiplicities(weights: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Vector (m_1, ..., m_k) counting parts of each weight."""
    check_level(k)
    _check_ints("weight", *weights)
    m = [0] * k
    for w in weights:
        if not 1 <= w <= k:
            raise RiggingError(f"weight {w} outside 1..{k}")
        m[w - 1] += 1
    return tuple(m)


def _counts(parts: tuple[tuple[int, int], ...], k: int) -> list[int]:
    """Weight-indexed multiplicities [0, m_1, ..., m_k] of partition parts with weights <= k."""
    m = [0] * (k + 1)
    for w, _ in parts:
        m[w] += 1
    return m


def e0(weights: tuple[int, ...], k: int) -> int:
    """Pairwise interaction energy of the particle content."""
    return _quadratic_form(k, (0, *multiplicities(weights, k)))


def e1(riggings: tuple[int, ...]) -> int:
    """Free part of the energy: the sum of riggings."""
    _check_ints("rigging", *riggings)
    return sum(riggings)


def iota(a: Configuration, k: int) -> RiggedPartition:
    """Particle content and riggings of an admissible configuration.

    Floats the heaviest remaining particle free, records its surplus energy,
    and discards it, all in place on one column buffer; the i-th rigging is
    that surplus minus the phase shifts against every later (lighter or
    equal) particle, summed over a running count of the later weights.
    """
    check_level(k)
    parts = []
    later = [0] * (k + 1)
    for w, s in reversed(_peel(a, k)):
        parts.append((w, s - _load(k, w, later)))
        later[w] += 1
    return RiggedPartition(tuple(reversed(parts)))


def _surpluses(k: int, group: Iterable[tuple[int, int]], later: list[int]) -> tuple[int, list[int]]:
    """(weight, surpluses) of the one-weight parts ``group``, given in ascending rigging order.

    A part's surplus is its rigging plus the load it owes every later part;
    ``later`` counts the later parts by weight and gains the group's.
    """
    surpluses = []
    for l, r in group:
        surpluses.append(r + _load(k, l, later))
        later[l] += 1
    return l, surpluses


def _kappa(rp: RiggedPartition, k: int, extra: int, debug: bool) -> Configuration:
    """Inverse map, ``extra`` more settling sweeps per weight: weight groups lightest first (``_drop_groups``)."""
    later = [0] * (k + 1)
    groups = (_surpluses(k, group, later) for _, group in groupby(reversed(rp.parts), itemgetter(0)))
    return _drop_groups(ZERO, k, groups, extra, debug)


def kappa(rp: RiggedPartition, k: int) -> Configuration:
    """Configuration whose particle content and riggings are ``rp``.

    Builds the lighter particles first, then drops the weight-l particles in
    as free particles far above and lets them settle by as many full left
    sweeps as they started above their place, all on one column buffer.  A
    run of sweeps that only moves isolated particles is made in one step
    (``rigged.moves``).  The result does not depend on how far above they
    start; RIGGED_DEBUG=1 recomputes with a higher start and asserts
    agreement.

    Shifting a configuration by d adds w * d to every weight-w rigging, so the
    riggings are first translated, which keeps their order, until the smallest
    rigging-per-weight lies in 0..w-1, and the result is shifted back; a common
    translation of the input then costs nothing.
    """
    check_level(k)
    if rp.parts and rp.parts[0][0] > k:
        raise RiggingError(f"largest weight {rp.parts[0][0]} exceeds the level k={k}")
    d = -min((r // w for w, r in rp.parts), default=0)
    rp = RiggedPartition._trusted(tuple((w, r + w * d) for w, r in rp.parts))
    debug = _debug_enabled()
    result = _kappa(rp, k, 0, debug)
    if debug:
        alt = _kappa(rp, k, rp.parts[0][0] if rp.parts else 1, debug)
        if alt != result:
            raise InternalCheckError(f"inverse map depends on the settling count: {result} vs {alt}")
    return result.shifted(-d) if d else result
