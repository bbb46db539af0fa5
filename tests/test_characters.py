import itertools
import operator
import re
from collections import Counter
from functools import lru_cache

import pytest

from rigged import characters
from rigged.bijection import RiggedPartition, e0, e1
from rigged.characters import (
    RestrictedSet,
    RiggingFloor,
    _feasible,
    _fermionic_sum,
    _transfer_bits,
    chi_closed,
    config_sum,
    enumerate_rigged,
    floor_for,
    initial_columns_set,
    member,
    rigged_sum,
    satisfies_boundary,
    weighted_config_sum,
)
from rigged.configuration import _next_column
from rigged.moves import InternalCheckError
from rigged.phases import phase
from rigged.qseries import QPolynomial, _slot_bits, _times_binomial, quadratic_form_Q


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RestrictedSet(RiggingFloor((0, 0)), (frozenset(),), 2), "bump sets must be nonempty"),
        (lambda: RestrictedSet(RiggingFloor((0, 0)), (frozenset({3}),), 2), r"bump set \{3\} escapes weights 1..2"),
        (lambda: RestrictedSet(RiggingFloor((0, 0)), (frozenset({0, 1}),), 2), "escapes weights 1..2"),
        (lambda: satisfies_boundary(rp((3,), (0,)), 2, 4), "weight 3 outside 1..2"),
        (lambda: list(enumerate_rigged(2, 2, -1)), "boundary must be non-negative"),
        (lambda: list(enumerate_rigged(2, 2, 4, RiggingFloor((0,)))), "floor must cover weights 1..2"),
        (lambda: list(enumerate_rigged(2, 2, 4, RiggingFloor((0, 0, 0)))), "floor must cover weights 1..2"),
        (lambda: weighted_config_sum(2, 2, 0, 0, -1), "boundary must be non-negative"),
        (lambda: config_sum(2, 4, N=3), "window size r must be 2 or 3, got 4"),
        (lambda: config_sum(2, 1, max_degree=3), "window size r must be 2 or 3, got 1"),
    ],
    ids=[
        "empty bump set", "bump above l", "bump below 1", "boundary weight above k", "negative boundary",
        "short floor", "long floor", "weighted sum negative N", "window 4", "window 1",
    ],
)
def test_public_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Every integer argument of the public entries: (id, the call with v in that argument, whether a negative v is rejected).
INTEGER_ARGUMENTS = [
    ("floor_for a", lambda v: floor_for(v, 0, 2, 2), False),
    ("floor_for b", lambda v: floor_for(0, v, 2, 2), False),
    ("floor_for l", lambda v: floor_for(0, 0, v, 2), False),
    ("floor_for k", lambda v: floor_for(0, 0, 1, v), False),
    ("initial_columns_set boundary", lambda v: initial_columns_set(0, 0, 2, 2, boundary=v), False),
    ("RestrictedSet boundary", lambda v: RestrictedSet(RiggingFloor((0, 0)), (), 2, v), False),
    ("satisfies_boundary k", lambda v: satisfies_boundary(rp((1,), (0,)), v, 2), False),
    ("satisfies_boundary N", lambda v: satisfies_boundary(rp((1,), (0,)), 2, v), False),
    ("member k", lambda v: member(rp((1,), (0,)), initial_columns_set(0, 0, 1, 2), v), False),
    ("enumerate_rigged k", lambda v: list(enumerate_rigged(v, 1, 2)), False),
    ("enumerate_rigged l", lambda v: list(enumerate_rigged(2, v, 2)), False),
    ("enumerate_rigged boundary", lambda v: list(enumerate_rigged(2, 2, v)), True),
    ("rigged_sum k", lambda v: rigged_sum(v, initial_columns_set(0, 0, 1, 2, boundary=2)), False),
    ("chi_closed k", lambda v: chi_closed(v, 1, 0, 0, 2), False),
    ("chi_closed l", lambda v: chi_closed(2, v, 0, 0, 2), False),
    ("chi_closed a", lambda v: chi_closed(2, 2, v, 0, 2), False),
    ("chi_closed b", lambda v: chi_closed(2, 2, 0, v, 2), False),
    ("chi_closed N", lambda v: chi_closed(2, 2, 0, 0, v), True),
    ("config_sum k", lambda v: config_sum(v, 3, N=2), False),
    ("config_sum r", lambda v: config_sum(2, v, N=2), False),
    ("config_sum a0", lambda v: config_sum(2, 3, a0=v, N=2), False),
    ("config_sum a1", lambda v: config_sum(2, 3, a1=v, N=2), False),
    ("config_sum N", lambda v: config_sum(2, 3, N=v), True),
    ("config_sum max_degree", lambda v: config_sum(2, 3, max_degree=v), True),
    ("weighted_config_sum k", lambda v: weighted_config_sum(v, 1, 0, 0, 2), False),
    ("weighted_config_sum l", lambda v: weighted_config_sum(2, v, 0, 0, 2), False),
    ("weighted_config_sum a0", lambda v: weighted_config_sum(2, 2, v, 0, 2), False),
    ("weighted_config_sum a1", lambda v: weighted_config_sum(2, 2, 0, v, 2), False),
    ("weighted_config_sum N", lambda v: weighted_config_sum(2, 2, 0, 0, v), True),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, v, id=f"{name}={v!r}") for name, call, count in INTEGER_ARGUMENTS for v in (2.0, True, -1)[: 2 + count]],
)
def test_integer_arguments_checked(call, value):
    # A float or bool is never truncated: 2.0 and True would pass every range check as 2 and 1.
    with pytest.raises(ValueError, match="must be non-negative" if value == -1 else rf"got (l=)?{value!r}\b"):
        call(value)


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
            assert chi_closed(k, l, 0, 0, 0) == QPolynomial((1,))

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
            assert config_sum(k, 3, a0=0, a1=0, N=0) == QPolynomial((1,))

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

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_weighted_sum_matches_product_oracle(self, k):
        # At k = 5 a cap l < k needs the 3-window term of the capped ``_next_column``, as at (k, l) = (4, 3).
        for N in range(6 if k < 5 else 3):
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
        return QPolynomial((1,))
    total = QPolynomial.zero()
    for first in range(max_part + 1):
        total = total + QPolynomial.from_dict({first: 1}) * box_binomial(rows - 1, first)
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
        product = QPolynomial((1,))
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


def feasible_reference(k, l, N, floor_values):
    """(m_1..m_k, p_1..p_k, energy) of every fitting vector of weights <= l, from an itertools.product box.

    The box runs over (m_l, ..., m_1) with m_1 fastest.  An occupied weight j
    needs p_j >= 0, so A(j, j) m_j <= j N + A(j, j) - floor_j: no fitting
    vector leaves the box.  Vacancies come from ``phase`` one pair at a time
    and the energy from ``quadratic_form_Q``, so nothing here is shared with
    the library's odometer.
    """
    A = {(i, j): phase(k, i, j) for i in range(1, k + 1) for j in range(1, k + 1)}
    bounds = [max(0, (j * N + A[j, j] - floor_values[j - 1]) // A[j, j]) for j in range(l, 0, -1)]
    found = []
    for heavy_first in itertools.product(*(range(b + 1) for b in bounds)):
        m = heavy_first[::-1] + (0,) * (k - l)
        p = [
            w * N + A[w, w] - floor_values[w - 1] - sum(A[w, v] * m[v - 1] for v in range(1, k + 1))
            for w in range(1, k + 1)
        ]
        if all(p_w >= 0 for p_w, m_w in zip(p, m) if m_w):
            found.append((m, p, quadratic_form_Q(m, k) + sum(map(operator.mul, floor_values, m))))
    return found


class TestFeasible:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_product_box(self, k):
        floors = {(4 * k + 1,) * k} | {floor_for(a, b, k, k).values for a in range(k + 1) for b in range(k + 1 - a)}
        for N in range(7):
            for floor in sorted(floors):
                for l in range(k + 1):
                    got = [
                        (tuple(m[1:]) + (0,) * (k - l), p[1:], energy)
                        for m, p, energy in _feasible(k, l, N, (0, *floor))
                    ]
                    assert got == feasible_reference(k, l, N, floor), (N, floor, l)


class TestFermionicSum:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_full_product(self, k):
        floors = {(0,) * k} | {floor_for(a, b, k, k).values for a in range(k + 1) for b in range(k + 1 - a)}
        for N in range(7 if k < 5 else 5):
            for floor in sorted(floors):
                for cap in range(k + 1):
                    expected = fermionic_reference(k, floor, N, cap)
                    assert _fermionic_sum(k, floor, N, cap) == expected, (N, floor, cap)

    @pytest.mark.usefixtures("rigged_debug")
    def test_wrong_packed_factor_detected(self, monkeypatch):
        honest = characters._packed_binomial
        monkeypatch.setattr(characters, "_packed_binomial", lambda p, m, bits: honest(p, m, bits) + (p == m == 1))
        with pytest.raises(InternalCheckError, match="packed fermionic sum"):
            _fermionic_sum(2, (0, 0), 7, 2)


def add_at(acc, coeffs, shift):
    """acc[shift + d] += coeffs[d] for every d, growing ``acc`` with zeros as needed."""
    end = shift + len(coeffs)
    acc.extend([0] * (end - len(acc)))
    acc[shift:end] = map(operator.add, acc[shift:end], coeffs)


def list_column_transfer(k, r, pins, limit, max_degree, l=None):
    """The column transfer matrix on one dense coefficient list per state, cut at ``max_degree`` per shift.

    No packing, so no slot can carry into the next: the reference for the packed library kernel.
    """
    states = {(0,) * (3 if l is not None else r - 1): [1]}
    for i in range(limit + 2):
        after = {}
        for state, coeffs in states.items():
            for v in _next_column(k, r, l, state, 0 if i > limit else k, pins.get(i)):
                shift = i * v
                if max_degree is not None and shift > max_degree:
                    break
                src = coeffs if max_degree is None else coeffs[: max_degree + 1 - shift]
                add_at(after.setdefault((state + (v,))[1:], []), src, shift)
        states = after
    total = []
    for coeffs in states.values():
        add_at(total, coeffs, 0)
    return QPolynomial(tuple(total), max_degree)


def list_fermionic_sum(k, floor_values, N, weight_cap):
    """The fermionic sum with each binomial product grown in place on a list (``qseries._times_binomial``)."""
    acc = []
    for m, p, exponent in _feasible(k, min(k, weight_cap), N, (0, *floor_values)):
        product = [1]
        for p_j, m_j in zip(p, m):
            _times_binomial(product, p_j, m_j)
        add_at(acc, product, exponent)
    return QPolynomial(tuple(acc))


def floor_grid(k):
    return sorted({(0,) * k} | {floor_for(a, b, k, k).values for a in range(k + 1) for b in range(k + 1 - a)})


@pytest.mark.usefixtures("debug_off")
class TestPackedKernels:
    """The packed kernels against their list twins, with coefficients of up to 36 bits, and the slot widths.

    The debug recount is switched off: enumerating these families would take hours, and the list kernels
    are the independent side here.
    """

    @pytest.mark.parametrize(
        "k,r,a0,D,bits",
        [(8, 3, None, 120, 31), (8, 3, None, 150, 36), (5, 2, 0, 100, 25), (5, 2, None, 140, 33)],
    )
    def test_config_sum_matches_lists(self, k, r, a0, D, bits):
        got = config_sum(k, r, a0=a0, max_degree=D)
        assert got == list_column_transfer(k, r, {0: a0}, D, D)
        assert max(got.coeffs).bit_length() == bits

    def test_weighted_sum_matches_capped_lists(self):
        # The library drops the cap at l = k; the reference keeps the three-column states there.
        for l in range(7):
            for a in range(7):
                for b in range(7 - a):
                    expected = list_column_transfer(6, 3, {0: a, 1: b}, 10, None, l)
                    assert weighted_config_sum(6, l, a, b, 10) == expected, (l, a, b)

    def test_fermionic_sum_matches_lists(self):
        for floor in floor_grid(6):
            for cap in range(7):
                assert _fermionic_sum(6, floor, 12, cap) == list_fermionic_sum(6, floor, 12, cap), (floor, cap)

    def test_transfer_slots_hold_every_coefficient(self):
        for k, r in itertools.product((1, 2, 4, 8), (2, 3)):
            for N in range(7):
                for D in (None, 0, 1, 5, 12, 40):
                    limit = N if D is None else min(N, D)
                    bits = _transfer_bits(k, limit, D)
                    top = max(list_column_transfer(k, r, {}, limit, D).coeffs)
                    assert bits % 8 == 0 and top < 1 << bits, (k, r, N, D)

    def test_packed_binomials_keyed_by_slot_width(self, monkeypatch):
        # Both families multiply [1 + 1 choose 1]: the first at 8-bit slots, the second at 16 or more.
        widths = []
        monkeypatch.setattr(characters, "_slot_bits", lambda bound: widths.append(_slot_bits(bound)) or widths[-1])
        for k, floor, N, cap in [(2, (0, 0), 1, 1), (2, (0, 0), 7, 2)]:
            assert any((1, 1) in zip(p, m) for m, p, _ in _feasible(k, cap, N, (0, *floor)))
            assert _fermionic_sum(k, floor, N, cap) == list_fermionic_sum(k, floor, N, cap), (N, cap)
        assert widths[0] == 8 and widths[1] >= 16

    def test_fermionic_slots_hold_every_coefficient(self, monkeypatch):
        widths = []
        monkeypatch.setattr(characters, "_slot_bits", lambda bound: widths.append(_slot_bits(bound)) or widths[-1])
        for k in (1, 2, 3, 4):
            for N in range(7):
                for floor in floor_grid(k):
                    for cap in range(k + 1):
                        _fermionic_sum(k, floor, N, cap)
                        bits = widths.pop()
                        top = max(list_fermionic_sum(k, floor, N, cap).coeffs, default=0)
                        assert bits % 8 == 0 and top < 1 << bits, (k, N, floor, cap)


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
        assert rigged_sum(2, RestrictedSet(RiggingFloor((9, 9)), (), 2, 3)) == QPolynomial((1,))

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

    def in_difference_form(self, part, sets, k):
        """Membership by the sets of ``_floor_difference_sets``, as ``verify_init`` reads them."""
        inside, outside = sets
        return member(part, inside, k) and not any(member(part, s, k) for s in outside)

    def test_difference_form_matches_hoisted_sets(self):
        # The floor sets built once per report must agree with sets built
        # afresh per partition, wrap and empty indices included.
        def in_floor_set(part, x, y, k, N):
            if x < 0 or y < 0:
                return False
            y = k - x if x + y == k + 1 else y
            return member(part, RestrictedSet(floor_for(x, y, k, k), (), k, N), k)

        for k in (1, 2, 3):
            for N in range(7):
                family = self.grid(k, k, N)
                for a in range(k + 1):
                    for b in range(k + 1 - a):
                        sets = characters._floor_difference_sets(a, b, k, N)
                        for part in family:
                            direct = (
                                in_floor_set(part, a, b, k, N)
                                and not in_floor_set(part, a - 1, b + 2, k, N)
                                and not in_floor_set(part, a, b - 1, k, N)
                            )
                            assert self.in_difference_form(part, sets, k) == direct, (k, N, a, b, part)

    def test_difference_form_rejects_a_plus_b_above_k(self):
        # At a + b = k + 1 the first subtracted set would need floor(a - 1, b + 2),
        # whose column sum k + 2 no wrap brings back into range.
        with pytest.raises(ValueError, match=r"the difference-of-floors form needs a \+ b <= k, got a=1, b=2, k=2"):
            characters._floor_difference_sets(1, 2, 2, 3)

    @pytest.mark.parametrize("a, b", [(-1, 1), (1, -1)])
    def test_difference_form_rejects_a_negative_column(self, a, b):
        # Only the subtracted sets may index below zero, meaning the empty family; a and b are columns.
        with pytest.raises(ValueError, match=rf"need 0 <= a, 0 <= b, a \+ b <= l, got a={a}, b={b}, l=2"):
            characters._floor_difference_sets(a, b, 2, 3)

    def test_difference_form_matches_bump_form(self):
        for k in (1, 2):
            for N in range(4):
                for a in range(k + 1):
                    for b in range(k + 1 - a):
                        rset = initial_columns_set(a, b, k, k, boundary=N)
                        sets = characters._floor_difference_sets(a, b, k, N)
                        for part in self.grid(k, k, N):
                            assert member(part, rset, k) == self.in_difference_form(part, sets, k), (k, N, a, b, part)
