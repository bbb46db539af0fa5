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
columns whose state is the last few columns and which carries one dense
energy polynomial per state, so a sum costs polynomial time in columns times
degree.  The closed side and the rigged enumeration share one pruned walk over
multiplicity vectors.  Enumerating configurations is the oracle both sides
are tested against, and under RIGGED_DEBUG=1 every configuration sum is
recounted by enumeration as well.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import add, sub
from typing import Iterable, Iterator

from .bijection import RiggedPartition, RiggingError, _counts, e0, e1
from .configuration import Configuration, _check_ints, _next_column, check_level, enumerate_configurations
from .configuration import weight as config_weight
from .moves import InternalCheckError, _debug_enabled
from .phases import _load, _table, _vacancies
from .qseries import QPolynomial, _times_binomial, q_binomial


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RestrictedSet:
    """A floor with bump sets and an optional boundary, capped at weight ``l``."""

    floor: RiggingFloor
    bumps: tuple[frozenset[int], ...]
    l: int
    boundary: int | None = None
    raised: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
    if a < 0 or b < 0 or a + b > l:
        raise ValueError(f"need 0 <= a, 0 <= b, a + b <= l, got a={a}, b={b}, l={l}")
    values = []
    for j in range(1, k + 1):
        if j <= a:
            values.append(0)
        elif j <= a + b:
            values.append(j - a)
        else:
            values.append(2 * (j - a) - b)
    return RiggingFloor(tuple(values))


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
    if rp.parts and rp.parts[0][0] > k:
        raise RiggingError(f"weight {rp.parts[0][0]} outside 1..{k}")
    return _fits_ceilings(rp, k, N)


def member(rp: RiggedPartition, rset: RestrictedSet, k: int) -> bool:
    """Membership in a restricted family: cap, floor, bumps, boundary."""
    check_level(k, rset.l)
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


def _floor_difference_sets(a: int, b: int, k: int, N: int | None) -> tuple[RestrictedSet | None, tuple[RestrictedSet, ...]]:
    """The sets of ``member_floor_difference``: floor(a, b) (None when empty) and the nonempty ones it loses."""

    def floor_set(x: int, y: int) -> RestrictedSet:
        return RestrictedSet(floor_for(x, k - x if x + y == k + 1 else y, k, k), (), k, N)

    if a + b > k:
        raise ValueError(f"member_floor_difference needs a + b <= k, got a={a}, b={b}, k={k}")
    if a < 0 or b < 0:
        return None, ()
    return floor_set(a, b), tuple(floor_set(x, y) for x, y in ((a - 1, b + 2), (a, b - 1)) if x >= 0 and y >= 0)


def member_floor_difference(rp: RiggedPartition, a: int, b: int, k: int, N: int | None) -> bool:
    """Initial-column membership in pure difference-of-floors form (cap l = k).

    For a + b <= k, the family with columns (a, b) equals floor(a, b) minus
    the union of floor(a - 1, b + 2) and floor(a, b - 1); a negative index
    means the empty family, and b + 2 wraps to k - a + 1 when a + b = k.
    """
    inside, outside = _floor_difference_sets(a, b, k, N)
    return inside is not None and member(rp, inside, k) and not any(member(rp, s, k) for s in outside)


def _feasible(k: int, l: int, N: int, floor: tuple[int, ...]) -> Iterator[tuple[list[int], list[int], int]]:
    """Yield (m, p, Q(m) + floor.m) for every fitting multiplicity vector with weights <= l.

    ``m`` and ``floor`` are indexed by weight (``floor[0] == 0``), ``p`` holds
    the vacancies of ``rigged.phases``, and a vector fits when p_w >= 0 at
    every occupied weight.  Particles are added from the heaviest weight down,
    so vectors come in the lexicographic order of (m_l, ..., m_1).  A weight-j
    particle lowers every vacancy by A(i, j) >= 2, so once an occupied vacancy
    is negative it stays so and the weight's loop stops.  ``m`` is live: read
    it before resuming the walk.
    """
    m = [0] * (l + 1)
    table = _table(k)

    def walk(j: int, p: list[int], energy: int) -> Iterator[tuple[list[int], list[int], int]]:
        if j == 0:
            yield m, p, energy
            return
        yield from walk(j - 1, p, energy)
        row = table[j]
        while True:
            energy += _load(k, j, m) + floor[j]
            m[j] += 1
            p = list(map(sub, p, row))
            if any(p_w < 0 for p_w, m_w in zip(p, m) if m_w):
                break
            yield from walk(j - 1, p, energy)
        m[j] = 0

    return walk(l, _vacancies(k, N, m, floor), 0)


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
    if boundary < 0:
        raise ValueError("boundary must be non-negative")
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
    family = (rp for rp in enumerate_rigged(k, rset.l, rset.boundary, rset.floor) if member(rp, rset, k))
    return QPolynomial.from_dict(Counter(e0(rp.weights, k) + e1(rp.riggings) for rp in family))


def _add_at(acc: list[int], coeffs: list[int] | tuple[int, ...], shift: int) -> None:
    """acc[shift + d] += coeffs[d] for every d, growing ``acc`` with zeros as needed."""
    end = shift + len(coeffs)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[shift:end] = map(add, acc[shift:end], coeffs)


def _fermionic_sum(k: int, floor_values: tuple[int, ...], N: int, weight_cap: int) -> QPolynomial:
    """Sum of q^(Q(m) + r.m) times Gaussian binomial factors over multiplicities.

    The factor of weight j is [p_j + m_j choose m_j], with p_j the vacancy of
    ``rigged.phases``; it is zero once p_j < 0 with m_j > 0, so the sum runs
    over the vectors ``_feasible`` yields and skips exactly those whose
    binomial product is zero.  Factors with p_j = 0 are 1; the product starts
    as a copy of the first other factor's cached ``q_binomial`` and takes each
    further one in place (``qseries._times_binomial``).
    """
    acc: list[int] = []
    for m, p, exponent in _feasible(k, min(k, weight_cap), N, (0, *floor_values)):
        (p_first, m_first), *rest = [(p_j, m_j) for p_j, m_j in zip(p, m) if m_j and p_j] or [(0, 0)]
        product = list(q_binomial(p_first + m_first, m_first).coeffs)
        for p_j, m_j in rest:
            _times_binomial(product, p_j, m_j)
        _add_at(acc, product, exponent)
    return QPolynomial(tuple(acc))


def chi_closed(k: int, l: int, a: int, b: int, N: int) -> QPolynomial:
    """Closed-form character of the floor family of columns (a, b), capped at l.

    By convention the value is zero for a = -1, and b collapses to k - a when
    a + b overshoots k by one (the boundary wrap of the four-term identity).
    """
    check_level(k, l)
    if N < 0:
        raise ValueError("boundary must be non-negative")
    if a == -1:
        return QPolynomial.zero()
    if a + b == k + 1:
        b = k - a
    if a < 0 or b < 0 or a + b > k:
        raise ValueError(f"need 0 <= a, 0 <= b, a + b <= k, got a={a}, b={b}, k={k}")
    floor = floor_for(a, b, k, k)
    return _fermionic_sum(k, floor.values, N, weight_cap=l)


def _column_transfer(
    k: int, r: int, pins: dict[int, int | None], limit: int, max_degree: int | None, l: int | None = None
) -> QPolynomial:
    """Energy polynomial of the (k, r)-admissible rows 0..limit, column by column.

    A state is the last columns ``configuration._next_column`` reads; it
    carries the dense coefficient list of the energies of the rows that end
    in it and grows by every value that function allows after it.  One zero
    column past the limit closes the last windows (a second one would only
    re-check smaller L sums), and a nonzero pin out there empties the family.
    Lists stop at ``max_degree`` when one is given and otherwise grow with
    the largest energy reached.
    """
    depth = 3 if l is not None else r - 1
    states: dict[tuple[int, ...], list[int]] = {(0,) * depth: [1]}
    for i in range(limit + 2):
        pin = pins.get(i)
        after: dict[tuple[int, ...], list[int]] = {}
        top = 0 if i > limit else k
        for state, coeffs in states.items():
            for v in _next_column(k, r, l, state, top, pin):
                shift = i * v
                if max_degree is not None and shift > max_degree:
                    break
                src = coeffs if max_degree is None else coeffs[: max_degree + 1 - shift]
                _add_at(after.setdefault((state + (v,))[1:], []), src, shift)
        states = after
    total: list[int] = []
    for coeffs in states.values():
        _add_at(total, coeffs, 0)
    return QPolynomial(tuple(total), max_degree)


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
    if N is not None and N < 0:
        raise ValueError("boundary must be non-negative")
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    check_level(k)
    if r not in (2, 3):
        raise ValueError(f"window size r must be 2 or 3, got {r}")
    limit = min(bound for bound in (N, max_degree) if bound is not None)
    result = _column_transfer(k, r, {0: a0, 1: a1}, limit, max_degree)
    if _debug_enabled():
        _check_against_enumeration(result, enumerate_configurations(k, r, N, a0=a0, a1=a1, max_energy=max_degree))
    return result


def weighted_config_sum(k: int, l: int, a0: int, a1: int, N: int) -> QPolynomial:
    """Exact energy polynomial over boundary-N configurations of weight <= l with a_0 = a0, a_1 = a1."""
    check_level(k, l)
    if N < 0:
        raise ValueError("boundary must be non-negative")
    result = _column_transfer(k, 3, {0: a0, 1: a1}, N, None, l)
    if _debug_enabled():
        # Filtered by weight(), not the enumerator's own cap, so the two caps never vouch for each other.
        family = enumerate_configurations(k, 3, N, a0=a0, a1=a1)
        _check_against_enumeration(result, (cfg for cfg in family if config_weight(cfg, k) <= l))
    return result
