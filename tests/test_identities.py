import re

import pytest

from rigged import identities
from rigged.bijection import EMPTY, RiggedPartition, iota
from rigged.configuration import ZERO, Configuration, enumerate_configurations, weight
from rigged.identities import (
    GOLDEN_CHAIN,
    VerifyReport,
    shift_sample_space,
    verify_all,
    verify_boundary,
    verify_fermionic_floor,
    verify_golden,
    verify_gordon,
    verify_gordon_r2,
    verify_init,
    verify_init_cover,
    verify_polynomial_identity,
    verify_recursion,
    verify_roundtrip,
    verify_shift,
)
from rigged.moves import InternalCheckError
from rigged.qseries import QPolynomial


def cfg(*counts, offset=0):
    return Configuration(offset, counts)


# Every integer argument of the public entries: (id, the call with v in that argument, whether a negative v is rejected).
INTEGER_ARGUMENTS = [
    ("verify_roundtrip k", lambda v: verify_roundtrip(v, 2), False),
    ("verify_roundtrip N", lambda v: verify_roundtrip(1, v), False),
    ("verify_gordon k", lambda v: verify_gordon(v, 4), False),
    ("verify_gordon max_degree", lambda v: verify_gordon(1, v), True),
    ("verify_gordon_r2 k", lambda v: verify_gordon_r2(v, 4), False),
    ("verify_gordon_r2 max_degree", lambda v: verify_gordon_r2(1, v), True),
    ("verify_polynomial_identity k", lambda v: verify_polynomial_identity(v, 1, 0, 0, 2), False),
    ("verify_polynomial_identity l", lambda v: verify_polynomial_identity(2, v, 0, 0, 2), False),
    ("verify_polynomial_identity a", lambda v: verify_polynomial_identity(2, 2, v, 0, 2), False),
    ("verify_polynomial_identity b", lambda v: verify_polynomial_identity(2, 2, 0, v, 2), False),
    ("verify_polynomial_identity N", lambda v: verify_polynomial_identity(2, 2, 0, 0, v), False),
    ("verify_init k", lambda v: verify_init(v, 1, 0, 0, 2), False),
    ("verify_init l", lambda v: verify_init(2, v, 0, 0, 2), False),
    ("verify_init a", lambda v: verify_init(2, 2, v, 0, 2), False),
    ("verify_init b", lambda v: verify_init(2, 2, 0, v, 2), False),
    ("verify_init N", lambda v: verify_init(2, 2, 0, 0, v), False),
    ("verify_init_cover N", lambda v: verify_init_cover(2, 2, v), False),
    ("verify_boundary k", lambda v: verify_boundary(v, 1, 2), False),
    ("verify_boundary l", lambda v: verify_boundary(2, v, 2), False),
    ("verify_boundary N", lambda v: verify_boundary(2, 2, v), True),
    ("verify_recursion l", lambda v: verify_recursion(v, 2, 2), False),
    ("verify_recursion N", lambda v: verify_recursion(2, 2, v), False),
    ("verify_shift k", lambda v: verify_shift(v, 2, [ZERO]), False),
    ("verify_shift l", lambda v: verify_shift(3, v, [ZERO]), False),
    ("verify_fermionic_floor N", lambda v: verify_fermionic_floor(2, 2, v), False),
    ("shift_sample_space k", lambda v: shift_sample_space(v, 2, 3), False),
    ("shift_sample_space l", lambda v: shift_sample_space(3, v, 3), False),
    ("shift_sample_space width", lambda v: shift_sample_space(3, 2, v), True),
    ("verify_all k_max", lambda v: verify_all(v), False),
    ("verify_all n_max", lambda v: verify_all(1, v), False),
    ("verify_all max_degree", lambda v: verify_all(1, 2, v), False),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, v, id=f"{name}={v!r}") for name, call, count in INTEGER_ARGUMENTS for v in (2.0, True, -1)[: 2 + count]],
)
def test_integer_arguments_checked(call, value):
    # A float or bool is never truncated: 2.0 and True would pass every range check as 2 and 1.
    with pytest.raises(ValueError, match="must be non-negative" if value == -1 else rf"got (l=)?{value!r}\b"):
        call(value)


class TestReport:
    def test_json(self):
        report = VerifyReport("x", {"k": 1})
        data = report.to_json_dict()
        assert data["passed"] and data["parameters"] == {"k": 1}


class TestRoundtrip:
    def test_small(self):
        report = verify_roundtrip(1, 0)
        assert report.passed and report.parameters["configurations"] == 2

    def test_window_counts(self):
        # Window-3 counts follow the three-term recursion f(n) = f(n-1) + f(n-3).
        counts = [verify_roundtrip(1, N).parameters["configurations"] for N in range(7)]
        assert counts == [2, 3, 4, 6, 9, 13, 19]

    def test_level_three(self):
        assert verify_roundtrip(3, 4).passed

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("N", range(6))
    def test_inverse_memo_agrees_with_kappa(self, rigged_debug, k, N):
        # Every memo miss is recomputed by the public inverse map.
        assert verify_roundtrip(k, N).passed

    def test_inverse_memo_lives_for_one_report(self, monkeypatch):
        memos = []
        honest = identities._inverse

        def recording(parts, k, memo, debug):
            memos.append(memo)
            return honest(parts, k, memo, debug)

        monkeypatch.setattr(identities, "_inverse", recording)
        verify_roundtrip(2, 3)
        first = memos[0]
        verify_roundtrip(2, 3)
        assert memos[-1] is not first and len(memos[-1]) == len(first) == 20


def poison_memo(monkeypatch):
    """Overwrite the memo entry of ((1, 0),), once it is checked, by the configuration of ((1, 1),).

    0:1,0,0,2 maps to ((2, 3), (1, 0)), the first image at k = 2 that settles a
    weight group on a memoized lighter one.
    """
    honest = identities._inverse

    def poisoned(parts, k, memo, debug):
        if parts == ((2, 3), (1, 0)):
            memo[((1, 0),)] = cfg(1, offset=1)
        return honest(parts, k, memo, debug)

    monkeypatch.setattr(identities, "_inverse", poisoned)


class TestInverseMemo:
    def test_wrong_entry_fails(self, monkeypatch):
        monkeypatch.delenv("RIGGED_DEBUG", raising=False)
        poison_memo(monkeypatch)
        report = verify_roundtrip(2, 3)
        assert report.passed is False
        assert report.first_mismatch == "0:1,0,0,2: inverse map returns 1:1,1,0,1"

    def test_wrong_entry_raises_under_debug(self, monkeypatch, rigged_debug):
        poison_memo(monkeypatch)
        with pytest.raises(InternalCheckError, match=r"inverse memo settles \(\(2, 3\), \(1, 0\)\) to"):
            verify_roundtrip(2, 3)


def forge_entry(monkeypatch):
    """Make the forward memo's entry for the counts (1, 0, 1) at k = 2 ((1,1),(1,0)); 0:1,0,1 maps to ((1,1),(0,0))."""
    honest = identities._iota
    forged = RiggedPartition.of((1, 1), (1, 0))

    def lookup(counts, k, debug):
        return forged if (counts, k) == ((1, 0, 1), 2) else honest(counts, k, debug)

    monkeypatch.setattr(identities, "_iota", lookup)
    return forged


@pytest.mark.usefixtures("fresh_iota")
class TestForwardMemo:
    def test_translates_read_the_entry(self, monkeypatch):
        monkeypatch.delenv("RIGGED_DEBUG", raising=False)
        forged = forge_entry(monkeypatch)
        assert identities._image(cfg(1, 0, 1), 2, False) == forged
        assert identities._image(cfg(1, 0, 1, offset=3), 2, False) == RiggedPartition.of((1, 1), (4, 3))
        # The roundtrip's inverse map is honest, so it sees the forgery on the first translate it meets.
        report = verify_roundtrip(2, 3)
        assert report.passed is False and report.first_mismatch.startswith("1:1,0,1: inverse map returns ")

    def test_wrong_entry_raises_under_debug(self, monkeypatch, rigged_debug):
        forge_entry(monkeypatch)
        match = r"image of 1:1,0,1 shifted from offset 0 is \(\(1,1\),\(2,1\)\), iota gives \(\(1,1\),\(1,1\)\)"
        with pytest.raises(InternalCheckError, match=match):
            verify_roundtrip(2, 3)


class TestGordon:
    def test_series_head(self):
        report = verify_gordon(1, 3)
        assert report.passed
        assert report.lhs == "2 + q + q^2 + 2*q^3"

    def test_degree_zero(self):
        report = verify_gordon(1, 0)
        assert report.passed and report.lhs == "2"

    def test_level_two(self):
        assert verify_gordon(2, 20).passed

    def test_window_two_head(self):
        report = verify_gordon_r2(1, 4)
        assert report.passed
        assert report.lhs == "1 + q + q^2 + q^3 + 2*q^4"

    def test_window_two_degree_zero(self):
        report = verify_gordon_r2(1, 0)
        assert report.passed and report.lhs == "1"

    def test_window_two_level_three(self):
        assert verify_gordon_r2(3, 15).passed


class TestBeyondTheGrid:
    """Sizes past the default grid that the running-product series make cheap.

    The RIGGED_DEBUG=1 recount enumerates every configuration, millions at these
    sizes, so these run without it; the debug tests cover the recount at small sizes.
    """

    @pytest.fixture(autouse=True)
    def no_debug(self, monkeypatch):
        monkeypatch.delenv("RIGGED_DEBUG", raising=False)

    def test_gordon_level_six_to_q100(self):
        assert verify_gordon(6, 100).passed

    def test_window_two_level_five_to_q100(self):
        assert verify_gordon_r2(5, 100).passed

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_every_polynomial_identity_at_level_five(self, l):
        for a in range(l + 1):
            for b in range(l + 1 - a):
                report = verify_polynomial_identity(5, l, a, b, 10)
                assert report.passed, report


class TestPolynomialIdentity:
    def test_worked_instance(self):
        report = verify_polynomial_identity(1, 1, 1, 0, 3)
        assert report.passed
        assert report.lhs == "1 + q^3" == report.rhs

    def test_trivial_instance(self):
        report = verify_polynomial_identity(1, 1, 0, 0, 0)
        assert report.passed and report.lhs == "1"

    def test_level_two_grid(self):
        for a in range(3):
            for b in range(3 - a):
                assert verify_polynomial_identity(2, 2, a, b, 5).passed

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            verify_polynomial_identity(2, 2, 2, 1, 3)

    @pytest.mark.parametrize("a,b,distinct", [(1, 1, 4), (2, 0, 2), (0, 2, 4), (0, 0, 2)])
    def test_each_closed_character_computed_once(self, monkeypatch, a, b, distinct):
        from rigged import identities

        calls = []
        honest = identities.chi_closed

        def counted(*args):
            calls.append(args)
            return honest(*args)

        monkeypatch.setattr(identities, "chi_closed", counted)
        assert verify_polynomial_identity(3, 3, a, b, 4).passed
        assert len(calls) == len(set(calls)) == distinct

    def test_case_split_disagreement_fails(self, monkeypatch):
        from rigged import identities

        honest = identities._chi_combination_cases

        def skewed(chi, a, b):
            return honest(chi, a, b) + QPolynomial.from_dict({2: 1})

        monkeypatch.setattr(identities, "_chi_combination_cases", skewed)
        report = verify_polynomial_identity(2, 2, 1, 0, 5)
        assert report.passed is False
        assert report.first_mismatch.startswith("case split disagrees")
        assert report.parameters == {"k": 2, "l": 2, "a": 1, "b": 0, "N": 5}


class TestInit:
    def test_worked_instance(self):
        assert verify_init(1, 1, 1, 0, 3).parameters["size"] == 2
        assert verify_init(1, 1, 1, 0, 3).passed

    def test_zero_boundary(self):
        report = verify_init(2, 2, 0, 0, 0)
        assert report.passed and report.parameters["size"] == 1

    def test_cover(self):
        assert verify_init_cover(1, 1, 3).passed
        assert verify_init_cover(3, 2, 3).passed

    @pytest.mark.parametrize("k,l", [(2, 2), (3, 2)])
    def test_short_floor_family_fails(self, monkeypatch, k, l):
        # The predicate side reads the floor-restricted family; losing its first
        # item (the empty partition, image of the zero configuration) must show.
        honest = identities.enumerate_rigged

        def one_short(k, l, boundary, floor=None):
            family = honest(k, l, boundary, floor)
            if floor is not None:
                next(family)
            return family

        monkeypatch.setattr(identities, "enumerate_rigged", one_short)
        report = verify_init(k, l, 0, 0, 3)
        assert report.passed is False
        assert report.first_mismatch.endswith("in enumeration only")

    @pytest.mark.parametrize("k,a,b", [(2, 1, 1), (3, 0, 2), (3, 1, 1)])
    def test_difference_form_disagreement_fails(self, monkeypatch, k, a, b):
        # Without its subtracted sets the difference form claims partitions
        # inside floor(a, b) that the image lacks; the floor-restricted walk must still reach them.
        honest = identities._floor_difference_sets
        monkeypatch.setattr(identities, "_floor_difference_sets", lambda *args: (honest(*args)[0], ()))
        report = verify_init(k, k, a, b, 4)
        assert report.passed is False
        assert report.first_mismatch.endswith("difference form disagrees with the image")


class TestBoundary:
    def test_small(self):
        assert verify_boundary(1, 1, 3).passed

    def test_level_three(self):
        assert verify_boundary(3, 3, 0).passed
        assert verify_boundary(2, 2, 6).passed


class TestRecursion:
    def test_base_level(self):
        assert verify_recursion(1, 1, 3).passed

    def test_level_two(self):
        assert verify_recursion(2, 2, 4).passed

    def test_sublevel(self):
        assert verify_recursion(2, 3, 3).passed

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError, match="recursion needs l >= 1"):
            verify_recursion(0, 2, 3)


class TestShift:
    def test_worked_samples(self):
        assert verify_shift(4, 3, [cfg(1, 1, 1)]).passed
        assert verify_shift(5, 4, [cfg(1, 2, 1, 1)]).passed

    def test_zero_sample(self):
        assert verify_shift(3, 2, [ZERO]).passed

    def test_rejects_heavy_sample(self):
        with pytest.raises(ValueError):
            verify_shift(3, 2, [cfg(1, 1)])

    def test_sample_space(self):
        samples = shift_sample_space(2, 2, 4)
        assert ZERO in samples
        assert all(c.support_max is None or c.support_max <= 3 for c in samples)
        # The weight cap keeps the enumeration order; l = 0 (nothing) and l = k + 1 (everything) are the edges.
        family = list(enumerate_configurations(3, 3, 4))
        for l in range(5):
            assert shift_sample_space(3, l, 5) == [c for c in family if weight(c, 3) < l]


class TestGolden:
    def test_passes(self):
        assert verify_golden().passed

    def test_chain_is_connected(self):
        assert GOLDEN_CHAIN[0] == cfg(3, 0, 0, 1)
        assert GOLDEN_CHAIN[-1] == cfg(1, 0, 0, 3)
        assert len(GOLDEN_CHAIN) == 7

    def test_reports_render(self):
        text = str(verify_golden())
        assert "golden" in text and "PASS" in text


_cached_iota = identities._iota


@pytest.fixture
def fresh_iota():
    """An empty forward-map cache before and after a test that patches what fills it."""
    _cached_iota.cache_clear()
    yield
    _cached_iota.cache_clear()


def forge_iota(monkeypatch, forge):
    """Make identities' forward map return ``forge(a, k)``, with the inverse map inverting the forgery."""
    back = {}

    def forged(a, k, debug):
        rp = forge(a, k)
        back[rp.parts] = a
        return rp

    monkeypatch.setattr(identities, "_image", forged)
    monkeypatch.setattr(identities, "_inverse", lambda parts, k, memo, debug: back[parts])


def shifted_riggings(delta):
    return lambda a, k: RiggedPartition(tuple((w, r + delta) for w, r in iota(a, k).parts))


def swapped(source, target):
    """The honest forward map, except that ``source`` maps to the image of ``target``."""
    return lambda a, k: iota(target if a == source else a, k)


@pytest.mark.usefixtures("fresh_iota")
class TestWitnesses:
    """Every disagreement a check can find makes it report FAIL with its witness."""

    def test_roundtrip_inverse(self, monkeypatch):
        monkeypatch.setattr(identities, "_inverse", lambda parts, k, memo, debug: cfg(1, offset=9))
        report = verify_roundtrip(2, 3)
        assert report.passed is False
        assert report.first_mismatch == "0:: inverse map returns 9:1"

    @pytest.mark.parametrize(
        "forge, witness",
        [
            (shifted_riggings(-6), "5:1: negative rigging in ((1),(-1))"),
            (shifted_riggings(+1), "5:1: energy 5 != E0+E1 of ((1),(6))"),
            # 0:1 has the zero configuration's energy, 0, but length 1.
            (swapped(ZERO, cfg(1)), "0:: length 0 != |((1),(0))|"),
            # 4:2 and 3:1,0,1 share energy and length; 4:2 comes first.
            (swapped(cfg(1, 0, 1, offset=3), cfg(2, offset=4)), "3:1,0,1: image ((2),(8)) duplicated"),
        ],
    )
    def test_roundtrip_forged_image(self, monkeypatch, forge, witness):
        forge_iota(monkeypatch, forge)
        report = verify_roundtrip(2, 5)
        assert report.passed is False and report.first_mismatch == witness

    def test_roundtrip_memoized_ground_energy(self, monkeypatch):
        # 5:1 comes first and leaves E0 of the content (1,) in the report's memo, which 4:1 then reads.
        four = cfg(1, offset=4)
        forge_iota(monkeypatch, lambda a, k: shifted_riggings(+1)(a, k) if a == four else iota(a, k))
        report = verify_roundtrip(2, 5)
        assert report.passed is False and report.first_mismatch == "4:1: energy 4 != E0+E1 of ((1),(5))"

    def test_init_cover_overlap(self, monkeypatch):
        monkeypatch.setattr(identities, "_member", lambda rp, rset, k: True)
        report = verify_init_cover(2, 2, 3)
        assert report.passed is False
        assert report.first_mismatch == "() lies in 6 families: [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]"

    def test_init_cover_missing_image(self, monkeypatch):
        monkeypatch.setattr(identities, "_image", lambda a, k, debug: EMPTY)
        report = verify_init_cover(2, 2, 3)
        assert report.passed is False
        assert report.first_mismatch.endswith("claimed by (1, 0) but not in that image")

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(identities, "_fits_ceilings", lambda rp, k, N: False)
        report = verify_boundary(2, 2, 3)
        assert report.passed is False
        assert report.first_mismatch == "0:: support inside boundary True but ceilings False"

    def test_recursion_disagrees(self, monkeypatch):
        monkeypatch.setattr(identities, "_member", lambda rp, rset, k: True)
        report = verify_recursion(2, 2, 3)
        assert report.passed is False
        assert report.first_mismatch == "(): recursion disagrees at (a,b)=(0,2)"

    def test_recursion_overlap(self, monkeypatch):
        # One weight-2 part pinned at 2l - b = 3 for (a, b) = (0, 1), in every level-1 family:
        # both the floating and the pinned term of (0, 1) claim it.
        monkeypatch.setattr(identities, "enumerate_rigged", lambda k, l, N: iter([RiggedPartition.of((2,), (3,))]))
        monkeypatch.setattr(identities, "_member", lambda rp, rset, k: rset.l < 2)
        report = verify_recursion(2, 2, 3)
        assert report.passed is False
        assert report.first_mismatch == "((2),(3)): recursion terms overlap at (a,b)=(0,1)"

    def test_shift_riggings(self, monkeypatch):
        monkeypatch.setattr(identities, "pass_particle", lambda a, k, l: a)
        report = verify_shift(3, 2, shift_sample_space(3, 2, 4))
        assert report.passed is False
        assert report.first_mismatch == "3:1: riggings shift to (3,), expected (5,)"

    def test_shift_dips_below_column_two(self, monkeypatch):
        honest = identities.pass_particle
        lowered = {}

        def low_pass(a, k, l):
            passed = honest(a, k, l)
            lowered[passed.shifted(-2)] = passed
            return passed.shifted(-2)

        monkeypatch.setattr(identities, "pass_particle", low_pass)
        monkeypatch.setattr(identities, "_image", lambda a, k, debug: iota(lowered.get(a, a), k))
        report = verify_shift(3, 2, shift_sample_space(3, 2, 4))
        assert report.passed is False
        assert report.first_mismatch == "1:1: passed result 1:1 dips below column 2"

    def test_shift_does_not_commute(self, monkeypatch):
        samples = shift_sample_space(3, 2, 4)
        honest = identities.right_move
        # Moves the samples only, so the passed configurations stand still.
        monkeypatch.setattr(identities, "right_move", lambda a, k, l: honest(a, k, l) if a in samples else a)
        report = verify_shift(3, 2, samples)
        assert report.passed is False
        assert report.first_mismatch.endswith("passing does not commute with the right move")

    def test_fermionic_floor(self, monkeypatch):
        monkeypatch.setattr(identities, "rigged_sum", lambda k, rset: QPolynomial.zero())
        report = identities.verify_fermionic_floor(2, 2, 3)
        assert report.passed is False
        assert report.first_mismatch == "(a,b)=(0,0): q^0: 1 vs 0"

    def test_golden_chain(self, monkeypatch):
        monkeypatch.setattr(identities, "right_move", lambda a, k, l: a)
        assert verify_golden().first_mismatch.startswith("move chain diverges: ['0:3,0,0,1', '0:3,0,0,1'")

    def test_golden_image(self, monkeypatch):
        monkeypatch.setattr(identities, "_image", lambda a, k, debug: RiggedPartition.of((3, 1), (0, 1)))
        assert verify_golden().first_mismatch == "image of 0:3,0,0,1 is ((3,1),(0,1))"

    def test_golden_pass_nodes(self, monkeypatch):
        honest = identities.passing_history
        monkeypatch.setattr(identities, "passing_history", lambda a, k, l: (honest(a, k, l)[0][:-1], honest(a, k, l)[1]))
        assert verify_golden().first_mismatch.startswith("passing nodes diverge: [('S', 3, '0:1,1,1,0,3')")

    def test_golden_pass_result(self, monkeypatch):
        honest = identities.passing_history
        monkeypatch.setattr(identities, "passing_history", lambda a, k, l: (honest(a, k, l)[0], ZERO))
        assert verify_golden().first_mismatch == "passing result is 0:"

    def test_truncation_orders_differ(self):
        assert identities._poly_mismatch(QPolynomial((1,), 3), QPolynomial((1,), 4)) == "truncation orders differ: 3 vs 4"
