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
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .bijection import RiggedPartition, e0, e1
from .configuration import check_level, enumerate_configurations
from .configuration import weight as config_weight
from .phases import phase
from .qseries import QPolynomial, q_binomial, quadratic_form_Q


@dataclass(frozen=True)
class RiggingFloor:
    """Minimum rigging per weight: values[w-1] applies to weight-w parts."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.values)
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

    def __post_init__(self) -> None:
        for J in self.bumps:
            if not J:
                raise ValueError("bump sets must be nonempty")
            if any(w < 1 or w > self.l for w in J):
                raise ValueError(f"bump set {set(J)} escapes weights 1..{self.l}")


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


def _within_floor(rp: RiggedPartition, values: tuple[int, ...]) -> bool:
    return all(r >= values[w - 1] for w, r in rp.parts)


def boundary_ceiling(rp: RiggedPartition, k: int, N: int, index: int) -> int:
    """Largest rigging the part at ``index`` may carry inside the boundary."""
    w = rp.weights[index]
    shift = sum(phase(k, w, wj) for wj in rp.weights) - phase(k, w, w)
    return w * N - shift


def satisfies_boundary(rp: RiggedPartition, k: int, N: int) -> bool:
    """True iff every rigging fits under its boundary ceiling."""
    return all(rp.riggings[i] <= boundary_ceiling(rp, k, N, i) for i in range(len(rp)))


def member(rp: RiggedPartition, rset: RestrictedSet, k: int) -> bool:
    """Membership in a restricted family: cap, floor, bumps, boundary."""
    check_level(k, rset.l)
    if rp.parts and rp.weights[0] > rset.l:
        return False
    if not _within_floor(rp, rset.floor.values):
        return False
    for J in rset.bumps:
        if _within_floor(rp, rset.floor.bumped(J)):
            return False
    if rset.boundary is not None and not satisfies_boundary(rp, k, rset.boundary):
        return False
    return True


def member_floor_difference(rp: RiggedPartition, a: int, b: int, k: int, N: int | None) -> bool:
    """Initial-column membership in pure difference-of-floors form (cap l = k).

    The family with columns (a, b) equals floor(a, b) minus the union of
    floor(a - 1, b + 2) and floor(a, b - 1); a negative index means the empty
    family, and b + 2 wraps to k - a + 1 on the a + b = k boundary.
    """

    def in_floor_set(x: int, y: int) -> bool:
        if x < 0 or y < 0:
            return False
        if x + y == k + 1:
            y = k - x
        rset = RestrictedSet(floor_for(x, y, k, k), (), k, N)
        return member(rp, rset, k)

    return in_floor_set(a, b) and not in_floor_set(a - 1, b + 2) and not in_floor_set(a, b - 1)


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
    weights = list(range(l, 0, -1))
    bounds = []
    for w in weights:
        a_ww = phase(k, w, w)
        cap = (w * boundary + a_ww - values[w - 1]) // a_ww
        bounds.append(max(0, cap))
    for mult in itertools.product(*(range(b + 1) for b in bounds)):
        ceilings = {}
        feasible = True
        for w, m_w in zip(weights, mult):
            if m_w == 0:
                continue
            shift = sum(phase(k, w, wp) * m_p for wp, m_p in zip(weights, mult)) - phase(k, w, w)
            ceilings[w] = w * boundary - shift
            if ceilings[w] < values[w - 1]:
                feasible = False
                break
        if not feasible:
            continue
        blocks = []
        for w, m_w in zip(weights, mult):
            if m_w == 0:
                blocks.append(((),))
                continue
            lo, hi = values[w - 1], ceilings[w]
            blocks.append(
                tuple(
                    tuple(reversed(combo))
                    for combo in itertools.combinations_with_replacement(range(lo, hi + 1), m_w)
                )
            )
        for chosen in itertools.product(*blocks):
            parts = []
            for w, riggings in zip(weights, chosen):
                parts.extend((w, r) for r in riggings)
            yield RiggedPartition(tuple(parts))


def rigged_sum(k: int, rset: RestrictedSet) -> QPolynomial:
    """Degree generating function of a restricted family, by brute enumeration."""
    if rset.boundary is None:
        raise ValueError("rigged_sum needs a boundary to be a finite sum")
    family = (rp for rp in enumerate_rigged(k, rset.l, rset.boundary, rset.floor) if member(rp, rset, k))
    return QPolynomial.from_dict(Counter(e0(rp.weights, k) + e1(rp.riggings) for rp in family))


def _fermionic_sum(k: int, floor_values: tuple[int, ...], N: int, weight_cap: int) -> QPolynomial:
    """Sum of q^(Q(m) + r.m) times Gaussian binomial factors over multiplicities."""
    acc: dict[int, int] = {}
    bounds = []
    for j in range(1, k + 1):
        if j > weight_cap:
            bounds.append(0)
            continue
        a_jj = phase(k, j, j)
        bounds.append(max(0, (j * N + a_jj - floor_values[j - 1]) // a_jj))
    for m in itertools.product(*(range(b + 1) for b in bounds)):
        exponent = quadratic_form_Q(m, k) + sum(r * c for r, c in zip(floor_values, m))
        product = QPolynomial.one()
        for j in range(1, k + 1):
            m_j = m[j - 1]
            if m_j == 0:
                continue
            upper = (
                j * N
                - sum(phase(k, j, i) * m[i - 1] for i in range(1, k + 1))
                + phase(k, j, j)
                - floor_values[j - 1]
                + m_j
            )
            if upper < m_j:
                product = QPolynomial.zero()
                break
            product = product * q_binomial(upper, m_j)
        for d, c in enumerate(product.coeffs):
            acc[d + exponent] = acc.get(d + exponent, 0) + c
    return QPolynomial.from_dict(acc)


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
    family = enumerate_configurations(k, r, N, a0=a0, a1=a1, max_energy=max_degree)
    return QPolynomial.from_dict(Counter(cfg.energy() for cfg in family), max_degree)


def weighted_config_sum(k: int, l: int, a0: int, a1: int, N: int) -> QPolynomial:
    """Exact energy polynomial over boundary-N configurations of weight <= l with a_0 = a0, a_1 = a1."""
    check_level(k, l)
    if N < 0:
        raise ValueError("boundary must be non-negative")
    family = (cfg for cfg in enumerate_configurations(k, 3, N, a0=a0, a1=a1) if config_weight(cfg, k) <= l)
    return QPolynomial.from_dict(Counter(cfg.energy() for cfg in family))
