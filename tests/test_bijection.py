import time

import pytest

from rigged import bijection, moves
from rigged.bijection import (
    EMPTY,
    RiggedPartition,
    RiggingError,
    e0,
    e1,
    iota,
    kappa,
    multiplicities,
)
from rigged.configuration import ZERO, AdmissibilityError, Configuration, enumerate_configurations, weight
from rigged.moves import InternalCheckError, pass_particle, right_move
from rigged.phases import gordon_phase, phase


def cfg(*counts, offset=0):
    return Configuration(offset, counts)


def rp(weights, riggings):
    return RiggedPartition.of(tuple(weights), tuple(riggings))


class TestPhase:
    def test_worked_values(self):
        assert phase(4, 3, 2) == 5
        assert phase(4, 3, 1) == 2
        assert phase(5, 4, 3) == 8

    def test_heaviest_row(self):
        for k in (1, 2, 3, 4, 5):
            for j in range(1, k + 1):
                assert phase(k, k, j) == 3 * j

    def test_symmetry_and_formula(self):
        for k in range(1, 9):
            for l in range(1, k + 1):
                for lp in range(1, k + 1):
                    expected = 2 * min(l, lp) + max(l + lp - k, 0)
                    assert phase(k, l, lp) == expected == phase(k, lp, l), (k, l, lp)
        assert phase(4, 3, 2) == 5

    def test_gordon_companion(self):
        assert gordon_phase(3, 2) == 4
        assert gordon_phase(1, 2) == 2

    def test_range_check(self):
        with pytest.raises(ValueError):
            phase(3, 4, 1)
        with pytest.raises(ValueError):
            phase(3, 0, 1)


class TestRiggedPartition:
    def test_ordering_enforced(self):
        with pytest.raises(RiggingError):
            RiggedPartition(((1, 0), (2, 0)))
        with pytest.raises(RiggingError):
            RiggedPartition(((2, 0), (2, 1)))
        with pytest.raises(RiggingError):
            RiggedPartition(((0, 0),))

    @pytest.mark.parametrize(
        "part, tail",
        [((2, 0), EMPTY), ((2, 0), rp((2, 1), (0, 5))), ((3, -4), rp((2,), (9,))), ((1, 0), rp((2,), (0,))),
         ((2, 0), rp((2,), (1,))), ((2, 1), rp((2, 2), (1, 0)))],
    )
    def test_prepending_checks_like_the_constructor(self, part, tail):
        # Forward-map cache misses build partitions this way, one part at a time.
        try:
            expected = RiggedPartition((part,) + tail.parts)
        except RiggingError as exc:
            with pytest.raises(RiggingError) as got:
                RiggedPartition._prepended(part, tail)
            assert str(got.value) == str(exc)
        else:
            assert RiggedPartition._prepended(part, tail) == expected

    def test_negative_riggings_allowed(self):
        part = rp((2, 1), (-3, 5))
        assert part.riggings == (-3, 5)

    def test_helpers(self):
        part = rp((3, 2, 2, 1), (4, 7, 5, 0))
        assert part.multiplicity(2) == 2
        assert part.min_rigging(2) == 5
        assert part.min_rigging(4) is None
        assert part.drop_weight(2) == rp((3, 1), (4, 0))
        assert len(EMPTY) == 0 and EMPTY.parts == ()

    def test_of_needs_equal_lengths(self):
        assert RiggedPartition.of((2, 1), (0, 0)) == rp((2, 1), (0, 0))
        with pytest.raises(RiggingError, match="weights and riggings must have equal length"):
            RiggedPartition.of((2, 1), (0,))

    def test_json_roundtrip(self):
        part = rp((3, 1), (0, 0))
        assert RiggedPartition.from_json_dict(part.to_json_dict()) == part
        assert EMPTY.to_json_dict() == {"parts": []}

    @pytest.mark.parametrize("value", [0.5, 2.0, "2"])
    def test_constructor_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="weight must be an integer"):
            RiggedPartition(((value, 0),))
        with pytest.raises(ValueError, match="rigging must be an integer"):
            RiggedPartition(((2, value),))

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
    def test_json_rejects_non_integers(self, value):
        for part in ({"weight": 2, "rigging": value}, {"weight": value, "rigging": 0}):
            with pytest.raises(ValueError, match="must be an integer"):
                RiggedPartition.from_json_dict({"parts": [part]})


# Every integer argument of the public entries: (id, the call with v in that argument).
INTEGER_ARGUMENTS = [
    ("multiplicities weights", lambda v: multiplicities((v, 2), 3)),
    ("multiplicities k", lambda v: multiplicities((1,), v)),
    ("e0 weights", lambda v: e0((v, 1), 3)),
    ("e0 k", lambda v: e0((1,), v)),
    ("e1 riggings", lambda v: e1((v, 2))),
    ("iota k", lambda v: iota(cfg(1, 1), v)),
    ("kappa k", lambda v: kappa(rp((1,), (0,)), v)),
    ("RiggedPartition.multiplicity w", lambda v: rp((2, 1), (0, 0)).multiplicity(v)),
    ("RiggedPartition.min_rigging w", lambda v: rp((2, 1), (0, 0)).min_rigging(v)),
    ("RiggedPartition.drop_weight w", lambda v: rp((2, 1), (0, 0)).drop_weight(v)),
]


@pytest.mark.parametrize(
    "call, value", [pytest.param(call, v, id=f"{name}={v!r}") for name, call in INTEGER_ARGUMENTS for v in (2.0, True, 1.5)]
)
def test_integer_arguments_checked(call, value):
    # A float or bool is never truncated: 2.0 and True would pass every range check as 2 and 1.
    with pytest.raises(ValueError, match=rf"got {value!r}\b"):
        call(value)


class TestEnergySplit:
    def test_examples(self):
        assert e0((3, 1), 3) == 3
        assert e0((2, 1), 4) == 2
        assert e0((7,), 8) == 0
        assert e1((1, 0)) == 1
        assert e0((2, 1), 4) + e1((1, 0)) == cfg(1, 1, 1).energy()

    def test_multiplicities(self):
        assert multiplicities((3, 1), 3) == (1, 0, 1)
        assert multiplicities((), 2) == (0, 0)
        assert multiplicities((2, 2, 1), 2) == (1, 2)
        with pytest.raises(RiggingError):
            multiplicities((3,), 2)


class TestForwardMap:
    def test_worked_values(self):
        assert iota(cfg(3, 0, 0, 1), 3) == rp((3, 1), (0, 0))
        assert iota(cfg(1, 1, 1), 4) == rp((2, 1), (1, 0))
        assert iota(cfg(1, 2, 1, 1), 5) == rp((3, 2), (2, 1))
        assert iota(ZERO, 7) == EMPTY

    def test_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError, match=r"is not \(k=3, 3\)-admissible"):
            iota(Configuration.from_text("0:2,2"), 3)

    def test_local_recheck_catches_wrong_column(self, monkeypatch):
        # The fault of the same test in test_moves.py, reached through iota:
        # moving the lowest unit of (1,0,0,1) right at k=1 breaks a 3-window.
        def lowest_column(vals, l, kl, j, step):
            return min(j for j, c in enumerate(vals) if c), False

        monkeypatch.setattr(moves, "_sight", lowest_column)
        with pytest.raises(InternalCheckError, match="admissible class"):
            iota(cfg(1, 0, 0, 1), 1)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError, match="level k"):
            iota(ZERO, 0)

    def test_right_move_bumps_first_rigging(self):
        for k in (2, 3):
            for a in enumerate_configurations(k, 3, 5):
                if a.is_zero:
                    continue
                w = weight(a, k)
                before = iota(a, k)
                after = iota(right_move(a, k, w), k)
                assert after.weights == before.weights
                assert after.riggings[0] == before.riggings[0] + 1
                assert after.riggings[1:] == before.riggings[1:]

    def test_column_shift_adds_weights_to_riggings(self):
        for k in (2, 3):
            for a in enumerate_configurations(k, 3, 4):
                before = iota(a, k)
                after = iota(a.shifted(1), k)
                assert after.weights == before.weights
                assert after.riggings == tuple(
                    r + w for w, r in zip(before.weights, before.riggings)
                )

    def test_negative_support_gives_negative_riggings(self):
        a = cfg(2, offset=-3)
        part = iota(a, 2)
        assert part == rp((2,), (-6,))
        assert kappa(part, 2) == a


class TestInverseMap:
    def test_worked_values(self):
        assert kappa(rp((3, 1), (0, 0)), 3) == cfg(3, 0, 0, 1)
        assert kappa(EMPTY, 5) == ZERO
        assert kappa(rp((2, 1), (6, 2)), 4) == Configuration(2, (1, 0, 2))

    def test_rejects_overweight(self):
        with pytest.raises(RiggingError):
            kappa(rp((4,), (0,)), 3)

    def test_far_negative_rigging_is_cheap(self):
        # The cost must not grow with a common translation of the riggings.
        start = time.perf_counter()
        assert kappa(rp((2,), (-10**6,)), 3) == Configuration(-500000, (2,))
        assert time.perf_counter() - start < 1.0

    def test_roundtrip_both_ways(self):
        from rigged.characters import enumerate_rigged

        for k in (1, 2, 3):
            for a in enumerate_configurations(k, 3, 6):
                assert kappa(iota(a, k), k) == a
            for part in enumerate_rigged(k, k, 4):
                assert iota(kappa(part, k), k) == part

    def test_degree_and_length_preserved(self):
        for k in (2, 3):
            for a in enumerate_configurations(k, 3, 6):
                part = iota(a, k)
                assert a.energy() == e0(part.weights, k) + e1(part.riggings)
                assert a.length() == sum(part.weights)

    def test_positivity_correspondence(self):
        # Shifting far enough left always breaks positivity, and the riggings
        # notice exactly then.
        for k in (2, 3):
            for a in enumerate_configurations(k, 3, 4):
                if a.is_zero:
                    continue
                for shift in (-2, -1, 0, 1):
                    moved = a.shifted(shift)
                    part = iota(moved, k)
                    assert moved.positively_supported == all(r >= 0 for r in part.riggings)


class TestPassingShiftsRiggings:
    def test_worked_values(self):
        a = cfg(1, 1, 1)
        assert iota(pass_particle(a, 4, 3), 4) == rp((2, 1), (6, 2))
        b = cfg(1, 2, 1, 1)
        assert iota(pass_particle(b, 5, 4), 5) == rp((3, 2), (10, 6))

    def test_shift_law(self):
        for k, l in ((3, 2), (3, 3), (4, 3)):
            for a in enumerate_configurations(k, 3, 4):
                if weight(a, k) >= l:
                    continue
                before = iota(a, k)
                after = iota(pass_particle(a, k, l), k)
                assert after.weights == before.weights
                assert after.riggings == tuple(
                    r + phase(k, l, w) for w, r in zip(before.weights, before.riggings)
                )


#: (k, parts) whose riggings spread over 10^4-10^5 with mixed signs.
SPREADS = (
    (3, ((2, -20000), (1, 20000))),
    (4, ((3, 0), (3, -50000), (2, 7), (1, 90000))),
)


class TestRiggingSpread:
    def test_wide_mixed_sign_spread_round_trips(self, monkeypatch):
        # In the first case the weight-2 particle starts 30,000 columns up and
        # settles through the weight-1 particle in about 60,000 left sweeps;
        # the forward map floats it back up as far.  Nearly all of those
        # moves cross empty columns, which both maps do in one step each.
        # RIGGED_DEBUG=1 rescans the whole buffer on every sweep and replays
        # every such step move by move, so it is switched off here.
        monkeypatch.delenv("RIGGED_DEBUG", raising=False)
        for k, parts in SPREADS:
            part = RiggedPartition(parts)
            start = time.perf_counter()
            a = kappa(part, k)
            assert iota(a, k) == part
            assert a.energy() == e0(part.weights, k) + e1(part.riggings)
            assert time.perf_counter() - start < 10.0


@pytest.mark.usefixtures("rigged_debug")
class TestInverseMapDebug(TestInverseMap):
    """The inverse-map tests again, each result re-settled from a higher start."""

    def test_resettle_disagreement_detected(self, monkeypatch):
        honest = bijection._kappa

        def drifting(rp, k, extra, debug):
            return honest(rp, k, extra, debug).shifted(1 if extra else 0)

        monkeypatch.setattr(bijection, "_kappa", drifting)
        with pytest.raises(InternalCheckError, match="settling count"):
            kappa(rp((2, 1), (6, 2)), 4)


@pytest.mark.usefixtures("rigged_debug")
class TestPassingShiftsRiggingsDebug(TestPassingShiftsRiggings):
    """The passing tests again, each probe re-dropped from one column higher."""
