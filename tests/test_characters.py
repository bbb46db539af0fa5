import itertools
import operator
from collections import Counter
from functools import lru_cache

import pytest

from rigged import characters
from rigged.bijection import RiggedPartition, e0, e1
from rigged.characters import (
    RestrictedSet,
    RiggingFloor,
    _fermionic_sum,
    chi_closed,
    config_sum,
    enumerate_rigged,
    floor_for,
    initial_columns_set,
    member,
    member_floor_difference,
    rigged_sum,
    satisfies_boundary,
    weighted_config_sum,
)
from rigged.moves import InternalCheckError
from rigged.phases import phase
from rigged.qseries import QPolynomial, quadratic_form_Q


def rp(weights, riggings):
    return RiggedPartition.of(tuple(weights), tuple(riggings))


def poly(coeffs, order=None):
    return QPolynomial.from_dict(coeffs, order)


class TestFloors:
    def test_examples(self):
        assert floor_for(1, 0, 1, 1).values == (0,)
        assert floor_for(0, 0, 1, 1).values == (2,)
        assert floor_for(0, 0, 2, 2).values == (2, 4)

    def test_three_block_shape(self):
        assert floor_for(1, 2, 4, 4).values == (0, 1, 2, 4)
        assert floor_for(2, 1, 5, 6).values == (0, 0, 1, 3, 5, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            floor_for(2, 2, 3, 3)
        with pytest.raises(ValueError):
            floor_for(-1, 0, 2, 2)
        with pytest.raises(ValueError):
            RiggingFloor((0, -1))

    @pytest.mark.parametrize("value", [0.5, 1.7, True, "1"])
    def test_floor_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="floor must be an integer"):
            RiggingFloor((0, value))


class TestMembership:
    def test_floor_and_bump(self):
        one_zero = initial_columns_set(1, 0, 1, 1)
        assert member(rp((1,), (0,)), one_zero, 1)
        assert not member(rp((1,), (1,)), one_zero, 1)

    def test_empty_partition(self):
        assert member(RiggedPartition(), initial_columns_set(0, 0, 2, 3), 3)
        assert not member(RiggedPartition(), initial_columns_set(0, 1, 2, 3), 3)
        assert not member(RiggedPartition(), initial_columns_set(1, 1, 2, 3), 3)

    def test_boundary_ceiling(self):
        floor = RiggingFloor((0,))
        bounded = RestrictedSet(floor, (), 1, boundary=3)
        assert member(rp((1, 1), (0, 0)), bounded, 1)
        assert not member(rp((1, 1), (1, 0)), bounded, 1)

    def test_weight_cap(self):
        capped = RestrictedSet(RiggingFloor((0, 0)), (), 1, boundary=5)
        assert not member(rp((2,), (0,)), capped, 2)

    def test_satisfies_boundary(self):
        assert satisfies_boundary(rp((1, 1), (0, 0)), 1, 3)
        assert not satisfies_boundary(rp((1, 1), (1, 0)), 1, 3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_reference(self, k):
        # Every column and floor family at caps l <= k, against partitions of
        # every weight up to k with riggings moved below the floors and above the ceilings.
        def reference(part, rset):
            def fits(values):
                return all(r >= values[w - 1] for w, r in part.parts)

            if any(w > rset.l for w in part.weights) or not fits(rset.floor.values):
                return False
            if any(fits(rset.floor.bumped(J)) for J in rset.bumps):
                return False
            return rset.boundary is None or boundary_reference(part, k, rset.boundary)

        outcomes = Counter()
        for N in range(5):
            parts = [rp(p.weights, [r + d for r in p.riggings]) for p in enumerate_rigged(k, k, N) for d in (-1, 0, 1)]
            sets = [
                rset
                for l in range(k + 1)
                for a in range(l + 1)
                for b in range(l + 1 - a)
                for boundary in (None, N)
                for rset in (
                    initial_columns_set(a, b, l, k, boundary),
                    RestrictedSet(floor_for(a, b, l, k), (), l, boundary),
                )
            ]
            for rset in sets:
                for part in parts:
                    got = member(part, rset, k)
                    assert got == reference(part, rset), (part, rset)
                    outcomes[got] += 1
        assert outcomes[True] and outcomes[False]


class TestChiClosed:
    def test_level_one_values(self):
        assert chi_closed(1, 1, 0, 0, 3) == poly({0: 1, 2: 1, 3: 1})
        assert chi_closed(1, 1, 1, 0, 3) == poly({0: 2, 1: 1, 2: 1, 3: 2})

    def test_zero_boundary(self):
        for k, l in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert chi_closed(k, l, 0, 0, 0) == QPolynomial.one()

    def test_minus_one_convention(self):
        assert chi_closed(2, 2, -1, 1, 4).is_zero

    def test_overshoot_wraps(self):
        # a + b = k + 1 collapses onto the a + b = k column.
        assert chi_closed(2, 2, 1, 2, 4) == chi_closed(2, 2, 1, 1, 4)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            chi_closed(2, 2, 1, 3, 4)
        with pytest.raises(ValueError):
            chi_closed(2, 2, 0, 0, -1)


class TestConfigSum:
    def test_truncated_series(self):
        assert config_sum(1, 3, max_degree=3) == poly({0: 2, 1: 1, 2: 1, 3: 2}, order=3)

    def test_pinned_columns(self):
        assert config_sum(1, 3, a0=1, a1=0, N=3) == poly({0: 1, 3: 1})

    def test_zero_boundary_with_pins(self):
        for k in (1, 2, 3):
            assert config_sum(k, 3, a0=0, a1=0, N=0) == QPolynomial.one()

    def test_needs_bound(self):
        with pytest.raises(ValueError):
            config_sum(2, 3)


@pytest.mark.usefixtures("rigged_debug")
class TestConfigSumDebug(TestConfigSum):
    """The configuration-sum tests again, each sum recounted by enumeration."""

    @pytest.mark.parametrize(
        "call",
        [lambda: config_sum(2, 3, N=4), lambda: weighted_config_sum(2, 2, 0, 1, 4)],
        ids=["config_sum", "weighted_config_sum"],
    )
    def test_wrong_enumeration_detected(self, monkeypatch, call):
        honest = characters.enumerate_configurations

        def one_short(*args, **kwargs):
            family = list(honest(*args, **kwargs))
            return iter(family[:-1])

        monkeypatch.setattr(characters, "enumerate_configurations", one_short)
        with pytest.raises(InternalCheckError, match="enumeration"):
            call()


def product_rows(k, r, limit, max_degree=None):
    """The (k, r)-admissible rows over columns 0..limit by filtered itertools.product, grouped by (a_0, a_1).

    Under a degree cap, column i > 0 holds at most max_degree // i units; the
    filter still checks every bound.
    """
    ranges = [
        range(k + 1 if max_degree is None or i == 0 else min(k, max_degree // i) + 1) for i in range(limit + 1)
    ]
    groups = {}
    for row in itertools.product(*ranges):
        energy = sum(map(operator.mul, range(limit + 1), row))
        if max_degree is not None and energy > max_degree:
            continue
        if all(sum(row[j : j + r]) <= k for j in range(limit + 1)):
            key = (row[0], row[1] if limit else 0)
            groups.setdefault(key, []).append(row)
    return groups


def plain_weight_fits(row, k, l):
    """S <= l and L <= k + l on every window of the zero-padded row."""
    ext = (0, 0, 0) + row + (0, 0, 0)
    return all(
        ext[j] + ext[j + 1] <= l and ext[j - 1] + 2 * ext[j] + 2 * ext[j + 1] + ext[j + 2] <= k + l
        for j in range(1, len(ext) - 2)
    )


def pinned(groups, a0, a1):
    return [row for (x, y), rows in groups.items() if a0 in (None, x) and a1 in (None, y) for row in rows]


def histogram(rows, order=None):
    return QPolynomial.from_dict(Counter(sum(map(operator.mul, range(len(row)), row)) for row in rows), order)


class TestColumnTransfer:
    @pytest.mark.parametrize("k,r", [(k, r) for k in (1, 2, 3) for r in (2, 3)])
    def test_config_sum_matches_product_oracle(self, k, r):
        groups = lru_cache(maxsize=None)(lambda limit, cap: product_rows(k, r, limit, cap))
        for N in (None, *range(6)):
            for max_degree in (None, *range(13)):
                if N is None and max_degree is None:
                    continue
                limit = min(b for b in (N, max_degree) if b is not None)
                for a0 in (None, *range(-1, k + 2)):
                    for a1 in (None, *range(-1, k + 2)):
                        expected = histogram(pinned(groups(limit, max_degree), a0, a1), max_degree)
                        got = config_sum(k, r, a0=a0, a1=a1, N=N, max_degree=max_degree)
                        assert got == expected, (N, max_degree, a0, a1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weighted_sum_matches_product_oracle(self, k):
        for N in range(6):
            groups = product_rows(k, 3, N)
            for l in range(k + 1):
                for a0 in range(-1, k + 2):
                    for a1 in range(-1, k + 2):
                        rows = [row for row in pinned(groups, a0, a1) if plain_weight_fits(row, k, l)]
                        assert weighted_config_sum(k, l, a0, a1, N) == histogram(rows), (N, l, a0, a1)


@lru_cache(maxsize=None)
def box_binomial(rows, max_part):
    """[rows + max_part choose rows] by counting partitions with at most ``rows`` parts, each <= ``max_part``.

    The largest part goes first and the rest fit in a narrower box; no Gaussian
    binomial code is involved.  With rows > 0, a negative ``max_part`` gives zero.
    """
    if rows == 0:
        return QPolynomial.one()
    total = QPolynomial.zero()
    for first in range(max_part + 1):
        total = total + QPolynomial.q_power(first) * box_binomial(rows - 1, first)
    return total


def fermionic_reference(k, floor_values, N, weight_cap):
    """The fermionic sum over the whole itertools.product box of multiplicity vectors.

    Each Gaussian binomial is a box-partition count and the factors are
    multiplied by ``QPolynomial.__mul__``, so this shares no code with the
    library's running products.
    """
    bounds = [
        0 if j > weight_cap else max(0, (j * N + phase(k, j, j) - floor_values[j - 1]) // phase(k, j, j))
        for j in range(1, k + 1)
    ]
    total = Counter()
    for m in itertools.product(*(range(b + 1) for b in bounds)):
        product = QPolynomial.one()
        for j in range(1, k + 1):
            if m[j - 1]:
                vacancy = (
                    j * N
                    - sum(phase(k, j, i) * m[i - 1] for i in range(1, k + 1))
                    + phase(k, j, j)
                    - floor_values[j - 1]
                )
                product = product * box_binomial(m[j - 1], vacancy)
        exponent = quadratic_form_Q(m, k) + sum(map(operator.mul, floor_values, m))
        for d, c in enumerate(product.coeffs):
            total[d + exponent] += c
    return QPolynomial.from_dict(total)


class TestFermionicSum:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_full_product(self, k):
        floors = {(0,) * k} | {floor_for(a, b, k, k).values for a in range(k + 1) for b in range(k + 1 - a)}
        for N in range(7 if k < 5 else 5):
            for floor in sorted(floors):
                for cap in range(k + 1):
                    expected = fermionic_reference(k, floor, N, cap)
                    assert _fermionic_sum(k, floor, N, cap) == expected, (N, floor, cap)


def boundary_reference(rp, k, N):
    """Each part against w*N minus its phases with every other part: n^2 phase calls."""
    ws = rp.weights
    return all(
        r <= w * N - sum(phase(k, w, ws[j]) for j in range(len(ws)) if j != i) for i, (w, r) in enumerate(rp.parts)
    )


class TestSatisfiesBoundary:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_pairwise_reference(self, k):
        outcomes = set()
        for N in range(5):
            for part in enumerate_rigged(k, k, N + 2):
                fits = satisfies_boundary(part, k, N)
                assert fits == boundary_reference(part, k, N), (part, N)
                outcomes.add(fits)
        assert outcomes == {True, False}

    def test_negative_riggings(self):
        part = rp((3, 3, 2, 1), (-1, -4, 5, -7))
        for N in range(6):
            assert satisfies_boundary(part, 3, N) == boundary_reference(part, 3, N)


class TestRiggedSum:
    def test_examples(self):
        assert rigged_sum(1, RestrictedSet(RiggingFloor((2,)), (), 1, 3)) == poly({0: 1, 2: 1, 3: 1})
        assert rigged_sum(1, RestrictedSet(RiggingFloor((0,)), (), 1, 3)) == poly(
            {0: 2, 1: 1, 2: 1, 3: 2}
        )

    def test_floor_above_ceiling(self):
        assert rigged_sum(2, RestrictedSet(RiggingFloor((9, 9)), (), 2, 3)) == QPolynomial.one()

    def test_needs_boundary(self):
        with pytest.raises(ValueError):
            rigged_sum(1, RestrictedSet(RiggingFloor((0,)), (), 1, None))

    def test_matches_closed_form(self):
        for k in (1, 2, 3):
            for l in range(1, k + 1):
                for N in range(5):
                    for a in range(k + 1):
                        for b in range(k + 1 - a):
                            brute = rigged_sum(
                                k, RestrictedSet(floor_for(a, b, k, k), (), l, N)
                            )
                            assert brute == chi_closed(k, l, a, b, N), (k, l, a, b, N)


def enumerate_rigged_reference(k, l, boundary, floor=None):
    """Box-plus-filter enumerator: itertools.product over per-weight caps, then the ceilings."""
    values = floor.values if floor is not None else (0,) * k
    weights = list(range(l, 0, -1))
    bounds = [max(0, (w * boundary + phase(k, w, w) - values[w - 1]) // phase(k, w, w)) for w in weights]
    for mult in itertools.product(*(range(b + 1) for b in bounds)):
        ceilings = {
            w: w * boundary - sum(phase(k, w, wp) * m_p for wp, m_p in zip(weights, mult)) + phase(k, w, w)
            for w, m_w in zip(weights, mult)
            if m_w
        }
        if any(ceilings[w] < values[w - 1] for w in ceilings):
            continue
        blocks = [
            [
                tuple(reversed(c))
                for c in itertools.combinations_with_replacement(range(values[w - 1], ceilings[w] + 1), m_w)
            ]
            if m_w
            else [()]
            for w, m_w in zip(weights, mult)
        ]
        for chosen in itertools.product(*blocks):
            yield RiggedPartition(tuple((w, r) for w, riggings in zip(weights, chosen) for r in riggings))


class TestEnumerateRigged:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_order_matches_product_box(self, k):
        floors = [None, RiggingFloor((4 * k + 1,) * k)]
        floors += [floor_for(a, b, k, k) for a in range(k + 1) for b in range(k + 1 - a)]
        for floor in floors:
            for l in range(k + 1):
                for N in range(5):
                    expected = list(enumerate_rigged_reference(k, l, N, floor))
                    assert list(enumerate_rigged(k, l, N, floor)) == expected, (floor, l, N)

    def test_small_family(self):
        family = set(enumerate_rigged(1, 1, 3))
        expected = {RiggedPartition()}
        expected |= {rp((1,), (r,)) for r in range(4)}
        expected |= {rp((1, 1), (0, 0))}
        assert family == expected

    def test_respects_floor(self):
        family = set(enumerate_rigged(1, 1, 3, RiggingFloor((2,))))
        assert family == {RiggedPartition(), rp((1,), (2,)), rp((1,), (3,))}

    def test_degrees_match_sum(self):
        rset = RestrictedSet(RiggingFloor((0, 0)), (), 2, 4)
        total = rigged_sum(2, rset)
        degrees = {}
        for part in enumerate_rigged(2, 2, 4):
            d = e0(part.weights, 2) + e1(part.riggings)
            degrees[d] = degrees.get(d, 0) + 1
        assert poly(degrees) == total


class TestSetAlgebra:
    def grid(self, k, l, N):
        return list(enumerate_rigged(k, l, N))

    def test_bump_splits_floor(self):
        # A floor family splits into the bumped family and its complement.
        k, l, N = 2, 2, 4
        floor = RiggingFloor((0, 1))
        for J in (frozenset({1}), frozenset({2}), frozenset({1, 2})):
            raised = RiggingFloor(floor.bumped(J))
            plain = RestrictedSet(floor, (), l, N)
            with_bump = RestrictedSet(floor, (J,), l, N)
            lifted = RestrictedSet(raised, (), l, N)
            for part in self.grid(k, l, N):
                in_plain = member(part, plain, k)
                assert in_plain == (member(part, with_bump, k) or member(part, lifted, k))
                assert not (member(part, with_bump, k) and member(part, lifted, k))

    def test_union_bump_decomposes(self):
        # Disjoint bump sets: bumping their union splits through either one.
        k, l, N = 2, 2, 4
        floor = RiggingFloor((0, 0))
        j1, j2 = frozenset({1}), frozenset({2})
        union = RestrictedSet(floor, (j1 | j2,), l, N)
        first = RestrictedSet(floor, (j1,), l, N)
        second = RestrictedSet(RiggingFloor(floor.bumped(j1)), (j2,), l, N)
        for part in self.grid(k, l, N):
            lhs = member(part, union, k)
            rhs1, rhs2 = member(part, first, k), member(part, second, k)
            assert lhs == (rhs1 or rhs2)
            assert not (rhs1 and rhs2)

    def test_two_bumps_decompose_by_intersection(self):
        k, l, N = 3, 3, 3
        floor = RiggingFloor((0, 0, 1))
        j1, j2 = frozenset({1, 2}), frozenset({2, 3})
        both = RestrictedSet(floor, (j1, j2), l, N)
        meet = RestrictedSet(floor, (j1 & j2,), l, N)
        rest = RestrictedSet(RiggingFloor(floor.bumped(j1 & j2)), (j1 - j2, j2 - j1), l, N)
        for part in self.grid(k, l, N):
            lhs = member(part, both, k)
            rhs1, rhs2 = member(part, meet, k), member(part, rest, k)
            assert lhs == (rhs1 or rhs2)
            assert not (rhs1 and rhs2)

    def test_nested_bumps_collapse(self):
        k, l, N = 2, 2, 4
        floor = RiggingFloor((0, 0))
        j1, j2 = frozenset({1}), frozenset({1, 2})
        nested = RestrictedSet(floor, (j1, j2), l, N)
        single = RestrictedSet(floor, (j1,), l, N)
        for part in self.grid(k, l, N):
            assert member(part, nested, k) == member(part, single, k)

    def test_difference_form_matches_hoisted_sets(self):
        # The floor sets built once per report give the public predicate, which
        # must agree with sets built afresh per partition, wrap and empty indices included.
        def in_floor_set(part, x, y, k, N):
            if x < 0 or y < 0:
                return False
            y = k - x if x + y == k + 1 else y
            return member(part, RestrictedSet(floor_for(x, y, k, k), (), k, N), k)

        for k in (1, 2, 3):
            for N in range(7):
                family = self.grid(k, k, N)
                for a in range(-1, k + 1):
                    for b in range(-1, k + 1 - max(a, 0)):
                        inside, outside = characters._floor_difference_sets(a, b, k, N)
                        for part in family:
                            direct = (
                                in_floor_set(part, a, b, k, N)
                                and not in_floor_set(part, a - 1, b + 2, k, N)
                                and not in_floor_set(part, a, b - 1, k, N)
                            )
                            hoisted = inside is not None and member(part, inside, k)
                            hoisted = hoisted and not any(member(part, s, k) for s in outside)
                            assert member_floor_difference(part, a, b, k, N) == hoisted == direct, (k, N, a, b, part)

    def test_difference_form_rejects_a_plus_b_above_k(self):
        # At a + b = k + 1 the first subtracted set would need floor(a - 1, b + 2),
        # whose column sum k + 2 no wrap brings back into range.
        for part in self.grid(2, 2, 3):
            with pytest.raises(ValueError, match=r"member_floor_difference needs a \+ b <= k, got a=1, b=2, k=2"):
                member_floor_difference(part, 1, 2, 2, 3)

    def test_difference_form_matches_bump_form(self):
        for k in (1, 2):
            for N in range(4):
                for a in range(k + 1):
                    for b in range(k + 1 - a):
                        rset = initial_columns_set(a, b, k, k, boundary=N)
                        for part in self.grid(k, k, N):
                            assert member(part, rset, k) == member_floor_difference(
                                part, a, b, k, N
                            )
