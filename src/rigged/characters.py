"""Character sums over restricted families of rigged partitions.

Families are cut out by three kinds of constraints: a per-weight minimum
rigging (a floor), subtracted raised-floor sets (bumps: the partition must
touch the floor at some weight in each bump set), and a boundary ceiling
rho_i <= weight_i * N - sum of phases against the other parts, which is what
confinement of the matching configuration to columns 0..N looks like on the
rigged side.

Each family has two independent characters: a closed-form sum of Gaussian
binomials over multiplicity vectors, and a brute-force enumeration.  The
verification harness plays them against each other.

The configuration side of every character identity is a column transfer
matrix (Stanley, Enumerative Combinatorics 1, 4.7): a dynamic programme over
columns whose state is the last few columns and which carries its energy
polynomial as one packed int (``qseries._pack``), so a sum costs polynomial
time in columns times degree.  The closed side and the rigged enumeration
share one pruned walk over multiplicity vectors, an odometer without
recursion that carries each vector's vacancies and energy forward by one row
of A per particle; the closed side multiplies Gaussian binomials packed once
per slot width, next to ``q_binomial``'s cache.  Enumerating configurations is
the oracle both sides are tested against, and under RIGGED_DEBUG=1 every
configuration sum is recounted by enumeration and every fermionic sum by list
products as well.  A slot of B bits, B a multiple of 8, never
carries while 2^B exceeds every coefficient of every partial sum:

- transfer: at most (k + 1)^(limit + 1) rows share an energy, and under a
  degree cap D at most (k + 1) p(D) < 2^(bitlen(k + 1) + 4 (isqrt(D) + 1)),
  as column 0 is free and the rest is a partition of the energy (p(n) <
  e^(pi sqrt(2n/3)), Apostol, Intro. to Analytic Number Theory, Thm 14.5).
  A prefix extends by zeros to a row of the same energy, so a state's
  partial sums obey the smaller bound too.
- fermionic: the whole sum at q = 1, the size of the family, which the
  walk over multiplicity vectors counts exactly before any product is formed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import sub
from typing import Iterable, Iterator

from .bijection import RiggedPartition, RiggingError, _counts
from .configuration import Configuration, _check_ints, _check_nonnegative, _check_window, _next_column, check_level
from .configuration import enumerate_configurations, weight as config_weight
from .moves import InternalCheckError, _debug_enabled
from .phases import _load, _quadratic_form, _table, _vacancies
from .qseries import QPolynomial, _packed_binomial, _slot_bits, _times_binomial, _unpack


@dataclass(frozen=True, slots=True)
class RiggingFloor:
    """Minimum rigging per weight: values[w-1] applies to weight-w parts."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        _check_ints("floor", *values)
        if any(v < 0 for v in values):
            raise ValueError(f"floors must be non-negative, got {values}")
        object.__setattr__(self, "values", values)

    def bumped(self, raised: frozenset[int]) -> tuple[int, ...]:
        """Floor values with every weight in ``raised`` lifted by one."""
        return tuple(v + 1 if w + 1 in raised else v for w, v in enumerate(self.values))


@dataclass(frozen=True, slots=True)
class RestrictedSet:
    """A floor with bump sets and an optional boundary, capped at weight ``l``."""

    floor: RiggingFloor
    bumps: tuple[frozenset[int], ...]
    l: int
    boundary: int | None = None
    raised: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.boundary is not None:
            _check_ints("boundary", self.boundary)
        for J in self.bumps:
            if not J:
                raise ValueError("bump sets must be nonempty")
            if any(w < 1 or w > self.l for w in J):
                raise ValueError(f"bump set {set(J)} escapes weights 1..{self.l}")
        object.__setattr__(self, "raised", tuple(self.floor.bumped(J) for J in self.bumps))


def floor_for(a: int, b: int, l: int, k: int) -> RiggingFloor:
    """The minimum-rigging vector of configurations starting with columns (a, b).

    Weight j floors to 0 for j <= a, to j - a up to j = a + b, and to
    2(j - a) - b beyond; the same formula continues past l up to k.
    """
    check_level(k, l)
    _check_ints("column", a, b)
    if a < 0 or b < 0 or a + b > l:
        raise ValueError(f"need 0 <= a, 0 <= b, a + b <= l, got a={a}, b={b}, l={l}")
    return RiggingFloor(tuple(max(0, j - a, 2 * (j - a) - b) for j in range(1, k + 1)))


def initial_columns_set(a: int, b: int, l: int, k: int, boundary: int | None = None) -> RestrictedSet:
    """The family of rigged partitions matching configurations with a_0 = a, a_1 = b.

    The floor alone over-counts; the bump sets force the partition to touch
    the floor in the weight ranges that pin the two initial columns down.
    """
    floor = floor_for(a, b, l, k)
    if a != 0:
        bumps: tuple[frozenset[int], ...] = (
            frozenset(range(a, a + b + 1)),
            frozenset(range(a + b, l + 1)),
        )
    elif b != 0:
        bumps = (frozenset(range(b, l + 1)),)
    else:
        bumps = ()
    return RestrictedSet(floor, bumps, l, boundary)


def _fits_ceilings(rp: RiggedPartition, k: int, N: int) -> bool:
    """``satisfies_boundary`` for weights already known to lie in 1..k: one ceiling per distinct weight."""
    m, table, last = _counts(rp.parts, k), _table(k), 0
    for w, r in rp.parts:
        if w != last:
            last, ceiling = w, w * N + table[w][w] - _load(k, w, m)
        if r > ceiling:
            return False
    return True


def satisfies_boundary(rp: RiggedPartition, k: int, N: int) -> bool:
    """True iff every rigging fits under its weight's ceiling w*N - sum_v A(w, v) m_v + A(w, w)."""
    check_level(k)
    _check_ints("boundary", N)
    if rp.parts and rp.parts[0][0] > k:
        raise RiggingError(f"weight {rp.parts[0][0]} outside 1..{k}")
    return _fits_ceilings(rp, k, N)


def member(rp: RiggedPartition, rset: RestrictedSet, k: int) -> bool:
    """Membership in a restricted family: cap, floor, bumps, boundary."""
    check_level(k, rset.l)
    return _member(rp, rset, k)


def _member(rp: RiggedPartition, rset: RestrictedSet, k: int) -> bool:
    """``member`` for a level ``k`` already checked against ``rset.l``."""
    if rp.parts and rp.parts[0][0] > rset.l:
        return False
    values = rset.floor.values
    for w, r in rp.parts:
        if r < values[w - 1]:
            return False
    for values in rset.raised:
        for w, r in rp.parts:
            if r < values[w - 1]:
                break
        else:
            return False
    return rset.boundary is None or _fits_ceilings(rp, k, rset.boundary)


def _floor_difference_sets(a: int, b: int, k: int, N: int | None) -> tuple[RestrictedSet, tuple[RestrictedSet, ...]]:
    """floor(a, b) and the nonempty sets it loses: initial columns as a difference of floors.

    For a + b <= k and cap l = k, the family with columns (a, b) equals floor(a, b) minus the union of
    floor(a - 1, b + 2) and floor(a, b - 1); a negative index there means the empty family, and b + 2 wraps
    to k - a + 1 when a + b = k.  A negative a or b is rejected by ``floor_for``.
    """

    def floor_set(x: int, y: int) -> RestrictedSet:
        return RestrictedSet(floor_for(x, k - x if x + y == k + 1 else y, k, k), (), k, N)

    if a + b > k:
        raise ValueError(f"the difference-of-floors form needs a + b <= k, got a={a}, b={b}, k={k}")
    return floor_set(a, b), tuple(floor_set(x, y) for x, y in ((a - 1, b + 2), (a, b - 1)) if x >= 0 and y >= 0)


def _feasible(k: int, l: int, N: int, floor: tuple[int, ...]) -> Iterator[tuple[list[int], list[int], int]]:
    """Yield (m, p, Q(m) + floor.m) for every fitting multiplicity vector with weights <= l.

    ``m`` and ``floor`` are indexed by weight (``floor[0] == 0``), ``p`` holds
    the vacancies of ``rigged.phases``, and a vector fits when p_w >= 0 at
    every occupied weight.  One odometer over (m_l, ..., m_1), m_1 fastest, so
    vectors come in lexicographic order.  ``base[j]`` holds the vacancies and
    energy of the current m_l..m_j with every lighter weight empty; one more
    weight-j particle subtracts row j of A from them and adds
    sum_v A(j, v) m_v + floor_j = j N + A(j, j) - p_j, read off the vacancy it
    lands on.  A particle lowers every vacancy by A(i, j) >= 2, so once p_j or
    an occupied heavier vacancy is negative it stays so: the odometer clears
    m_j and moves on to weight j + 1.  ``m`` is live: read it before resuming.
    """
    table = _table(k)
    m = [0] * (l + 1)
    p = _vacancies(k, N, m, floor)
    base = [(p, 0)] * (l + 1)
    yield m, p, 0
    j = 1
    while j <= l:
        p, energy = base[j]
        row = table[j]
        energy += j * N + row[j] - p[j]
        p = list(map(sub, p, row))
        m[j] += 1
        if min(itertools.compress(p, m)) < 0:
            m[j] = 0
            j += 1
            continue
        base[1 : j + 1] = [(p, energy)] * j
        yield m, p, energy
        j = 1


def enumerate_rigged(
    k: int,
    l: int,
    boundary: int,
    floor: RiggingFloor | None = None,
) -> Iterator[RiggedPartition]:
    """All rigged partitions with weights <= l, the given floor, and the boundary.

    Direct enumeration over multiplicity vectors and weakly decreasing rigging
    blocks; independent of both maps and of the closed-form characters.
    """
    check_level(k, l)
    _check_nonnegative("boundary", boundary)
    values = floor.values if floor is not None else (0,) * k
    if floor is not None and len(values) != k:
        raise ValueError(f"floor must cover weights 1..{k}")
    low = (0, *values)
    for m, p, _ in _feasible(k, l, boundary, low):
        blocks = [
            [
                tuple((w, r) for r in reversed(combo))
                for combo in itertools.combinations_with_replacement(range(low[w], low[w] + p[w] + 1), m[w])
            ]
            for w in range(l, 0, -1)
            if m[w]
        ]
        for chosen in itertools.product(*blocks):
            yield RiggedPartition._trusted(tuple(itertools.chain.from_iterable(chosen)))


def rigged_sum(k: int, rset: RestrictedSet) -> QPolynomial:
    """Degree generating function of a restricted family, by brute enumeration."""
    if rset.boundary is None:
        raise ValueError("rigged_sum needs a boundary to be a finite sum")
    family = (rp for rp in enumerate_rigged(k, rset.l, rset.boundary, rset.floor) if _member(rp, rset, k))
    return QPolynomial.from_dict(Counter(_quadratic_form(k, _counts(rp.parts, k)) + sum(rp.riggings) for rp in family))


def _fermionic_sum(k: int, floor_values: tuple[int, ...], N: int, weight_cap: int) -> QPolynomial:
    """Sum of q^(Q(m) + r.m) times Gaussian binomial factors over multiplicities.

    The factor of weight j is [p_j + m_j choose m_j], with p_j the vacancy of
    ``rigged.phases``; it is zero once p_j < 0 with m_j > 0, so the sum runs
    over the vectors ``_feasible`` yields and skips exactly those whose
    binomial product is zero.  Factors with p_j = 0 are 1.  The walk runs
    once, counting the family; each other factor is then read packed at that
    slot width from ``qseries._packed_binomial``, which packs a binomial once
    per width for as long as ``q_binomial`` caches it, and a term is the
    bigint product of its factors shifted to its exponent.  Under
    RIGGED_DEBUG=1 every term's product is also grown on a list
    (``qseries._times_binomial``) and the sums must agree.
    """
    low = (0, *floor_values)
    terms = [(e, [key for key in zip(p, m) if key[0] and key[1]]) for m, p, e in _feasible(k, min(k, weight_cap), N, low)]
    bits = _slot_bits(sum(math.prod(math.comb(p_j + m_j, m_j) for p_j, m_j in keys) for _, keys in terms))
    packs = {key: _packed_binomial(*key, bits) for key in set(itertools.chain.from_iterable(keys for _, keys in terms))}
    result = _unpack(sum(math.prod(map(packs.__getitem__, keys)) << bits * e for e, keys in terms), bits)
    if _debug_enabled():
        coeffs: Counter[int] = Counter()
        for e, keys in terms:
            product = [1]
            for key in keys:
                _times_binomial(product, *key)
            coeffs.update(dict(enumerate(product, e)))
        listed = QPolynomial.from_dict(coeffs)
        if listed != result:
            raise InternalCheckError(f"packed fermionic sum gives {result}, list products {listed}")
    return result


def chi_closed(k: int, l: int, a: int, b: int, N: int) -> QPolynomial:
    """Closed-form character of the floor family of columns (a, b), capped at l.

    By convention the value is zero for a = -1, and b collapses to k - a when
    a + b overshoots k by one (the boundary wrap of the four-term identity).
    """
    check_level(k, l)
    _check_nonnegative("boundary", N)
    _check_ints("column", a, b)
    if a == -1:
        return QPolynomial.zero()
    if a + b == k + 1:
        b = k - a
    if a < 0 or b < 0 or a + b > k:
        raise ValueError(f"need 0 <= a, 0 <= b, a + b <= k, got a={a}, b={b}, k={k}")
    return _fermionic_sum(k, floor_for(a, b, k, k).values, N, weight_cap=l)


def _transfer_bits(k: int, limit: int, max_degree: int | None) -> int:
    """Slot width of ``_column_transfer``: the smaller of (k + 1)^(limit + 1) and, under a cap D, (k + 1) p(D)."""
    bound = (k + 1) ** (limit + 1)
    if max_degree is not None:
        bound = min(bound, (1 << (k + 1).bit_length() + 4 * (math.isqrt(max_degree) + 1)) - 1)
    return _slot_bits(bound)


def _column_transfer(
    k: int, r: int, pins: dict[int, int | None], limit: int, max_degree: int | None, l: int | None = None
) -> QPolynomial:
    """Energy polynomial of the (k, r)-admissible rows 0..limit, column by column.

    A state is the last columns ``configuration._next_column`` reads; it
    carries the energies of the rows that end in it, packed, and grows by
    every value that function allows after it: v units in column i shift it
    by i v slots.  One zero column past the limit closes the last windows (a
    second one would only re-check smaller L sums), and a nonzero pin out
    there empties the family.  Under ``max_degree`` each column's states are
    masked to the slots up to it.
    """
    _check_ints("pin", *(v for v in pins.values() if v is not None))
    bits = _transfer_bits(k, limit, max_degree)
    mask = None if max_degree is None else (1 << bits * (max_degree + 1)) - 1
    states: dict[tuple[int, ...], int] = {(0,) * (3 if l is not None else r - 1): 1}
    for i in range(limit + 2):
        pin = pins.get(i)
        after: dict[tuple[int, ...], int] = {}
        top = 0 if i > limit else k
        for state, packed in states.items():
            for v in _next_column(k, r, l, state, top, pin):
                if mask is not None and i * v > max_degree:
                    break
                key = (state + (v,))[1:]
                after[key] = after.get(key, 0) + (packed << bits * i * v)
        states = after if mask is None else {state: packed & mask for state, packed in after.items()}
    return _unpack(sum(states.values()), bits, max_degree)


def _check_against_enumeration(result: QPolynomial, family: Iterable[Configuration]) -> None:
    """Raise InternalCheckError unless the enumerated family's energy histogram equals ``result``."""
    oracle = QPolynomial.from_dict(Counter(cfg.energy() for cfg in family), result.order)
    if oracle != result:
        raise InternalCheckError(f"column transfer gives {result}, enumeration {oracle}")


def config_sum(
    k: int,
    r: int,
    a0: int | None = None,
    a1: int | None = None,
    N: int | None = None,
    max_degree: int | None = None,
) -> QPolynomial:
    """Energy generating function over admissible configurations.

    With a boundary N the result is an exact polynomial; with only a degree
    cap it is the truncated series of the unbounded family.
    """
    if N is None and max_degree is None:
        raise ValueError("config_sum needs a boundary N or a max_degree to stay finite")
    for name, bound in (("boundary", N), ("max_degree", max_degree)):
        if bound is not None:
            _check_nonnegative(name, bound)
    check_level(k)
    _check_window(r)
    limit = min(bound for bound in (N, max_degree) if bound is not None)
    result = _column_transfer(k, r, {0: a0, 1: a1}, limit, max_degree)
    if _debug_enabled():
        _check_against_enumeration(result, enumerate_configurations(k, r, N, a0=a0, a1=a1, max_energy=max_degree))
    return result


def weighted_config_sum(k: int, l: int, a0: int, a1: int, N: int) -> QPolynomial:
    """Exact energy polynomial over boundary-N configurations of weight <= l with a_0 = a0, a_1 = a1."""
    check_level(k, l)
    _check_nonnegative("boundary", N)
    # At l = k the cap never binds (L is two 3-windows), so the transfer runs on the smaller uncapped states.
    result = _column_transfer(k, 3, {0: a0, 1: a1}, N, None, l if l < k else None)
    if _debug_enabled():
        # Filtered by weight(), not the enumerator's own cap, so the two caps never vouch for each other.
        family = enumerate_configurations(k, 3, N, a0=a0, a1=a1)
        _check_against_enumeration(result, (cfg for cfg in family if config_weight(cfg, k) <= l))
    return result
