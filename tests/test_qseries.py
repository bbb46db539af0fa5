import dataclasses
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigged.bijection import e0, multiplicities
from rigged.phases import gordon_phase
from rigged.qseries import (
    QPolynomial,
    _over_one_minus,
    _pack,
    _slot_bits,
    _times_binomial,
    _times_one_minus,
    _unpack,
    gordon_quadratic_form,
    inv_pochhammer,
    q_binomial,
    quadratic_form_Q,
)


def poly(coeffs, order=None):
    return QPolynomial.from_dict(coeffs, order)


@lru_cache(maxsize=None)
def box_partition_counts(rows: int, max_part: int) -> tuple[tuple[int, int], ...]:
    """Sizes of partitions with at most ``rows`` parts, each at most ``max_part``."""
    if rows == 0:
        return ((0, 1),)
    acc: dict[int, int] = {}
    for first in range(max_part + 1):
        for size, count in box_partition_counts(rows - 1, first):
            acc[size + first] = acc.get(size + first, 0) + count
    return tuple(sorted(acc.items()))


def partitions_with_at_most(parts: int, total: int) -> int:
    """Number of partitions of ``total`` into at most ``parts`` parts."""

    def rec(remaining: int, largest: int, slots: int) -> int:
        if remaining == 0:
            return 1
        if slots == 0:
            return 0
        return sum(rec(remaining - p, p, slots - 1) for p in range(1, min(largest, remaining) + 1))

    return rec(total, total, parts)


class TestArithmetic:
    def test_product(self):
        one_plus_q = poly({0: 1, 1: 1})
        assert one_plus_q * one_plus_q == poly({0: 1, 1: 2, 2: 1})

    def test_cancellation(self):
        p = poly({0: 2, 3: 5})
        assert (p - p).is_zero

    def test_truncation_propagates(self):
        t = poly({0: 1, 1: 1}, order=1)
        assert t * t == poly({0: 1, 1: 2}, order=1)

    def test_mixing_exact_and_truncated(self):
        exact = poly({0: 1, 2: 1})
        series = poly({0: 1}, order=3)
        assert (exact * series).order == 3
        assert (exact + series).order == 3

    def test_int_coercion(self):
        p = poly({1: 1})
        assert p + 1 == poly({0: 1, 1: 1})
        assert 2 * p == poly({1: 2})
        assert 1 - p == poly({0: 1, 1: -1})

    def test_coefficient_lookup(self):
        p = poly({0: 4, 7: -2})
        assert p.coefficient(7) == -2 and p[1] == 0

    def test_degree(self):
        assert poly({0: 1, 5: 3}).degree() == 5
        assert QPolynomial.zero().degree() is None

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            poly({-1: 1})

    def test_text_form(self):
        assert poly({0: 1, 2: 1, 3: 2}).to_text() == "1 + q^2 + 2*q^3"
        assert poly({1: -1, 4: 3}).to_text() == "-q + 3*q^4"
        assert QPolynomial.zero().to_text() == "0"

    def test_to_json_dict_literal(self):
        p = poly({0: 1, 2: -3, 4: 10**30}, order=4)
        assert p.to_json_dict() == {"coeffs": {"0": "1", "2": "-3", "4": str(10**30)}, "order": 4}

    @pytest.mark.parametrize("scalar", [0.5, True])
    def test_scalars_must_be_integers(self, scalar):
        one = QPolynomial((1,))
        for combine in (
            lambda: one + scalar,
            lambda: scalar + one,
            lambda: one - scalar,
            lambda: scalar - one,
            lambda: one * scalar,
            lambda: scalar * one,
        ):
            with pytest.raises(ValueError, match="coefficient must be an integer"):
                combine()

    def test_canonical_form(self):
        assert QPolynomial((1, 0, 2, 0, 0)).coeffs == (1, 0, 2)
        assert QPolynomial((1, 0, 2, 5), order=1).coeffs == (1,)
        assert QPolynomial([0, 0]) == QPolynomial.zero()

    def test_replaced_order_drops_higher_coefficients(self):
        p = dataclasses.replace(poly({0: 1, 5: 7}), order=2)
        assert p == poly({0: 1}, order=2)
        assert p.coefficient(5) == 0


def reference(coeffs: dict, order) -> dict:
    """The nonzero coefficients a series with this data and order holds."""
    return {d: c for d, c in coeffs.items() if c and (order is None or d <= order)}


def reference_text(ref: dict) -> str:
    text = ""
    for d, c in sorted(ref.items()):
        mono = "" if d == 0 else "q" if d == 1 else f"q^{d}"
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if text:
            text += (" + " if c > 0 else " - ") + body
        else:
            text = body if c > 0 else "-" + body
    return text or "0"


def reference_order(a, b):
    return a if b is None else b if a is None else min(a, b)


series = st.tuples(
    st.dictionaries(st.integers(0, 15), st.integers(-3, 3), max_size=10),
    st.none() | st.integers(0, 12),
)


def check_against_reference(value: QPolynomial, ref: dict, order) -> None:
    assert value.order == order
    assert [value.coefficient(d) for d in range(-2, 32)] == [ref.get(d, 0) for d in range(-2, 32)]
    assert value.degree() == (max(ref) if ref else None)
    assert value.to_text() == reference_text(ref)
    assert value == QPolynomial.from_dict(ref, order)


@given(series, series)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_dict_reference(x, y):
    (dx, ox), (dy, oy) = x, y
    p, r = poly(dx, ox), poly(dy, oy)
    rp, rr = reference(dx, ox), reference(dy, oy)
    order = reference_order(ox, oy)
    check_against_reference(p, rp, ox)
    check_against_reference(-p, {d: -c for d, c in rp.items()}, ox)
    for value, sign in ((p + r, 1), (p - r, -1)):
        combined = {d: rp.get(d, 0) + sign * rr.get(d, 0) for d in rp.keys() | rr.keys()}
        check_against_reference(value, reference(combined, order), order)
    product: dict[int, int] = {}
    for d1, c1 in rp.items():
        for d2, c2 in rr.items():
            product[d1 + d2] = product.get(d1 + d2, 0) + c1 * c2
    check_against_reference(p * r, reference(product, order), order)
    assert (p == r) == (rp == rr and ox == oy)


@given(series, st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_exact_division_by_one_minus_q_power(x, i):
    def divided(p):
        c = list(p.coeffs)
        _over_one_minus(c, i, exact=True)
        return QPolynomial(tuple(c))

    p = poly(x[0])
    assert divided(p * (1 - QPolynomial.from_dict({i: 1}))) == p
    # p is a multiple of 1 - q^i iff its coefficients sum to zero in every
    # residue class of the degree mod i.
    if any(sum(c for d, c in x[0].items() if d % i == res) for res in range(i)):
        with pytest.raises(ArithmeticError):
            divided(p)
    else:
        assert divided(p) * (1 - QPolynomial.from_dict({i: 1})) == p


coefficient_lists = st.lists(st.integers(-4, 4), max_size=12)


@given(coefficient_lists, st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_slice_loops_match_convolution(coeffs, a):
    """The in-place loops against ``QPolynomial.__mul__`` by (1 - q^a) and by a truncated geometric series."""
    c = list(coeffs)
    _times_one_minus(c, a)
    assert len(c) == len(coeffs) + a
    assert QPolynomial(tuple(c)) == QPolynomial(tuple(coeffs)) * (1 - QPolynomial.from_dict({a: 1}))
    _over_one_minus(c, a, exact=True)
    assert c == coeffs
    order = len(coeffs) - 1
    geometric = QPolynomial(tuple(int(d % a == 0) for d in range(order + 1)), order)
    _over_one_minus(c, a, exact=False)
    assert QPolynomial(tuple(c), order) == QPolynomial(tuple(coeffs), order) * geometric
    # A nonzero coefficient sum over some residue class mod a means 1 - q^a does not divide.
    if any(sum(coeffs[r::a]) for r in range(a)):
        with pytest.raises(ArithmeticError):
            _over_one_minus(list(coeffs), a, exact=True)


@given(coefficient_lists, st.integers(0, 6), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_times_binomial_matches_box_partition_product(coeffs, p, m):
    c = list(coeffs)
    _times_binomial(c, p, m)
    assert len(c) == len(coeffs) + p * m
    box = QPolynomial.from_dict(dict(box_partition_counts(m, p)))
    assert QPolynomial(tuple(c)) == QPolynomial(tuple(coeffs)) * box


class TestPacking:
    def test_slot_bits_are_whole_bytes_above_the_bound(self):
        assert [_slot_bits(b) for b in (0, 1, 255, 256, 2**16 - 1, 2**16, 2**40)] == [8, 8, 8, 16, 16, 24, 48]

    @given(st.lists(st.integers(0, 2**40 - 1), max_size=12), st.sampled_from([8, 16, 24, 40, 48]))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_evaluation_at_two_to_the_slot_width(self, coeffs, bits):
        coeffs = [c % (1 << bits) for c in coeffs]
        value = QPolynomial(tuple(coeffs))
        packed = _pack(value, bits)
        assert packed == sum(c << bits * d for d, c in enumerate(coeffs))
        assert _unpack(packed, bits) == value
        for order in range(len(coeffs) + 1):
            assert _unpack(packed, bits, order) == QPolynomial(tuple(coeffs), order)

    def test_product_of_packed_binomials_is_their_product(self):
        bits = _slot_bits(10**6)
        for (a, b), (c, d) in itertools.product([(4, 2), (7, 3), (9, 4)], repeat=2):
            product = _unpack(_pack(q_binomial(a, b), bits) * _pack(q_binomial(c, d), bits), bits)
            assert product == q_binomial(a, b) * q_binomial(c, d)

    def test_coefficient_above_the_slot_is_refused(self):
        with pytest.raises(OverflowError):
            _pack(QPolynomial((1, 256)), 8)


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(5, 0) == QPolynomial((1,))
        assert q_binomial(2, 1) == poly({0: 1, 1: 1})
        assert q_binomial(4, 2) == poly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert q_binomial(1, 2).is_zero
        assert q_binomial(3, -1).is_zero

    def test_symmetry_and_degree(self):
        for m in range(11):
            for n in range(m + 1):
                b = q_binomial(m, n)
                assert b == q_binomial(m, m - n)
                assert all(c > 0 for _, c in b.terms)
                assert b.degree() == n * (m - n)

    def test_against_box_partition_oracle(self):
        for m in range(11):
            for n in range(m + 1):
                expected = dict(box_partition_counts(n, m - n))
                assert dict(q_binomial(m, n).terms) == {d: c for d, c in expected.items() if c}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: inv_pochhammer(-1, 3), "need a non-negative number of factors"),
        (lambda: inv_pochhammer(2, -1), "need a non-negative truncation order"),
        (lambda: quadratic_form_Q((1, -1), 2), r"multiplicities must be non-negative, got \(1, -1\)"),
        (lambda: gordon_quadratic_form((0, -2)), r"multiplicities must be non-negative, got \(0, -2\)"),
        (lambda: gordon_phase(0, 1), r"weights must be positive, got \(0, 1\)"),
        (lambda: gordon_phase(2, -1), r"weights must be positive, got \(2, -1\)"),
    ],
    ids=["pochhammer m<0", "pochhammer order<0", "Q negative m", "gordon Q negative m", "gordon phase l=0", "gordon phase l'<0"],
)
def test_public_validation_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestInvPochhammer:
    def test_examples(self):
        assert inv_pochhammer(0, 9) == QPolynomial((1,), 9)
        assert inv_pochhammer(1, 3) == poly({0: 1, 1: 1, 2: 1, 3: 1}, order=3)
        four = inv_pochhammer(2, 4)
        assert [four[j] for j in range(5)] == [1, 1, 2, 2, 3]

    def test_against_partition_oracle(self):
        for m in range(5):
            series = inv_pochhammer(m, 12)
            for j in range(13):
                assert series[j] == partitions_with_at_most(m, j)


def partitions(max_part, slots):
    """Every partition with at most ``slots`` parts, each at most ``max_part``, largest part first; some repeat."""
    yield ()
    if slots == 0:
        return
    for first in range(1, max_part + 1):
        for rest in partitions(first, slots - 1):
            yield (first,) + rest


class TestQuadraticForm:
    def test_unit_vectors_vanish(self):
        for k in (1, 2, 3, 4):
            for l in range(1, k + 1):
                m = tuple(1 if i == l - 1 else 0 for i in range(k))
                assert quadratic_form_Q(m, k) == 0

    def test_examples(self):
        assert quadratic_form_Q((2,), 1) == 3
        assert quadratic_form_Q((1, 1), 2) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_form_Q((1, 0), 3)

    def test_matches_pairwise_interaction(self):
        # Ground-state energy from multiplicities equals the pairwise sum,
        # across all partitions with at most six parts.
        for k in (1, 2, 3, 4):
            for lam in set(partitions(k, 6)):
                assert quadratic_form_Q(multiplicities(lam, k), k) == e0(lam, k)

    def test_gordon_form_matches_pairwise_interaction(self):
        # Half of (G m, m): 2 min over every pair of parts, plus each part against itself once.
        for k in (1, 2, 3, 4):
            for lam in set(partitions(k, 6)):
                pairwise = sum(2 * min(x, y) for x, y in itertools.combinations(lam, 2)) + sum(lam)
                assert gordon_quadratic_form(multiplicities(lam, k)) == pairwise

    def test_gordon_form_is_integral_and_positive(self):
        assert gordon_quadratic_form((1,)) == 1
        assert gordon_quadratic_form((2,)) == 4
        assert gordon_quadratic_form((1, 1)) == 5
        assert gordon_quadratic_form(()) == 0
