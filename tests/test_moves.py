import inspect
import re
import textwrap

import pytest

from rigged import moves
from rigged.configuration import ZERO, AdmissibilityError, Configuration, enumerate_configurations, weight
from rigged.moves import (
    FreeParticle,
    InternalCheckError,
    MoveError,
    build_free_configuration,
    free_particle,
    highest_particle,
    left_move,
    left_sweeps,
    lowest_particle,
    move_all,
    move_cth,
    particle_positions,
    pass_particle,
    passing_history,
    right_move,
    separate_highest,
)
from rigged.phases import phase


def cfg(*counts, offset=0):
    return Configuration(offset, counts)


def weight_classes(k, N, l):
    """Boundary-N configurations of weight exactly l."""
    return [a for a in enumerate_configurations(k, 3, N) if weight(a, k) == l]


class TestSightings:
    def test_highest_examples(self):
        assert highest_particle(cfg(3, 0, 0, 1), 3, 3).position == 0
        assert highest_particle(cfg(1, 2, 1, 1), 5, 3).position == 1
        assert highest_particle(ZERO, 3, 2) is None
        assert highest_particle(ZERO, 3, 0) is None and lowest_particle(ZERO, 3, 0) is None

    def test_kind_prefers_s(self):
        # At (3,0,0,1) with k=l=3 both functionals saturate at column 0.
        sight = highest_particle(cfg(3, 0, 0, 1), 3, 3)
        assert sight.kind == "S"

    def test_weight_above_cap_rejected(self):
        with pytest.raises(AdmissibilityError):
            highest_particle(cfg(3, 0, 0, 1), 3, 2)

    def test_lowest(self):
        assert lowest_particle(cfg(1, 1, 1, 1, 2), 4, 3).position == 2


class TestElementaryMoves:
    def test_right_move_chain(self):
        chain = [cfg(3, 0, 0, 1)]
        for _ in range(6):
            chain.append(right_move(chain[-1], 3, 3))
        assert chain == [
            cfg(3, 0, 0, 1),
            cfg(2, 1, 0, 1),
            cfg(1, 2, 0, 1),
            cfg(1, 1, 1, 1),
            cfg(1, 0, 2, 1),
            cfg(1, 0, 1, 2),
            cfg(1, 0, 0, 3),
        ]

    def test_right_move_free_particle(self):
        assert right_move(cfg(2), 2, 2) == cfg(1, 1)

    def test_right_move_display(self):
        assert right_move(cfg(1, 2, 1, 1), 5, 3) == cfg(1, 1, 2, 1)

    def test_left_move_examples(self):
        assert left_move(cfg(2, 1, 0, 1), 3, 3) == cfg(3, 0, 0, 1)
        assert left_move(cfg(0, 3), 3, 3) == cfg(1, 2)
        assert left_move(cfg(1, 1, 1, 1, 2), 4, 3) == cfg(1, 1, 2, 0, 2)

    def test_move_requires_exact_weight(self):
        with pytest.raises(MoveError):
            right_move(ZERO, 3, 2)
        with pytest.raises(MoveError):
            right_move(cfg(1), 3, 2)
        for move in (right_move, left_move):
            with pytest.raises(MoveError, match="no weight-0 particle to move"):
                move(ZERO, 2, 0)

    def test_energy_and_length_bookkeeping(self):
        for k, l in ((2, 1), (2, 2), (3, 2), (3, 3)):
            for a in weight_classes(k, 4, l):
                b = right_move(a, k, l)
                assert b.energy() == a.energy() + 1
                assert b.length() == a.length()
                assert weight(b, k) == l
                c = left_move(a, k, l)
                assert c.energy() == a.energy() - 1
                assert weight(c, k) == l

    def test_single_particle_inverse(self):
        for k, l in ((2, 2), (3, 3), (3, 2)):
            for a in weight_classes(k, 4, l):
                if len(particle_positions(a, k, l)) == 1:
                    assert left_move(right_move(a, k, l), k, l) == a


class TestPositions:
    def test_examples(self):
        assert particle_positions(cfg(3, 0, 0, 1), 3, 3) == [0]
        assert particle_positions(cfg(1, 0, 0, 1), 1, 1) == [3, 0]
        assert particle_positions(ZERO, 2, 1, "left") == []
        assert particle_positions(ZERO, 2, 0) == []

    def test_sides_same_count(self):
        for k, l in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
            for a in weight_classes(k, 5, l):
                right = particle_positions(a, k, l, "right")
                left = particle_positions(a, k, l, "left")
                assert len(right) == len(left)
                assert right == sorted(right, reverse=True)
                assert left == sorted(left)

    def test_left_positions_match_swept_right_positions(self):
        # After one full right sweep, the left procedure sees the columns the
        # right procedure saw before the sweep.
        for k, l in ((2, 2), (3, 2), (3, 3)):
            for a in weight_classes(k, 5, l):
                right = particle_positions(a, k, l, "right")
                swept = move_all(a, k, l, "right")
                assert set(particle_positions(swept, k, l, "left")) == set(right)

    def test_sweeps_invert(self):
        for k, l in ((2, 2), (3, 2), (3, 3)):
            for a in weight_classes(k, 5, l):
                assert move_all(move_all(a, k, l, "right"), k, l, "left") == a

    def test_left_sweeps_match_move_all(self):
        for k, l in ((2, 2), (3, 3)):
            for a in weight_classes(k, 5, l):
                assert left_sweeps(a, k, l, 2) == move_all(a, k, l, "left", 2)
        # Below the weight nothing is sighted: both leave the configuration as it is, and ``move_all`` stops early.
        assert left_sweeps(cfg(1), 2, 2, 3) == move_all(cfg(1), 2, 2, "left", 3) == cfg(1)

    def test_sweep_leaving_the_class_detected(self, monkeypatch):
        # A scan that sights only the lowest unit of (1,0,0,1): moving it
        # right at k=1 puts two units in one 3-window; the sweep's check
        # reports it as an internal fault.
        monkeypatch.setattr(moves, "_cut_scan", lambda vals, l, kl, step: [vals.index(1)])
        with pytest.raises(InternalCheckError, match="sweep left the admissible class"):
            move_all(cfg(1, 0, 0, 1), 1, 1, "right")


def faulty_settle(monkeypatch, *replacements):
    """Install a copy of ``moves._settle`` compiled from its source with each (old, new) text replaced once.

    The copy runs in a copy of the module's namespace, so it calls the same helpers; ``left_sweeps`` and
    ``_drop_groups`` find it through the module and run the fault in place of the kernel.  It is compiled at the
    kernel's own line numbers, so tracebacks and line traces of the copy point at the lines of ``moves.py``.
    """
    lines, first = inspect.getsourcelines(moves._settle)
    source = textwrap.dedent("".join(lines))
    for old, new in replacements:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    scope = dict(vars(moves))
    exec(compile("\n" * (first - 1) + source, moves.__file__, "exec"), scope)
    monkeypatch.setattr(moves, "_settle", scope["_settle"])


class TestLocalRescan:
    """Each of the windows q - 2, q - 1 and q that a settling particle may be sighted at after a run at q is needed,
    and a check notices one missing."""

    def test_dropped_window_detected(self, rigged_debug, monkeypatch):
        # Window q - 1 never sights.  At k = 3 the weight-2 particle of 0:1,0,2 is sighted by S at column 1, and
        # after its move, 0:1,1,1, by S at column 0, one window lower; the fault leaves its last sighting at 1.
        faulty_settle(
            monkeypatch, ("if s == l or 2 * s", "if j != i - 1 and (s == l or 2 * s"), (" == kl:\n", " == kl):\n")
        )
        with pytest.raises(InternalCheckError, match="the first weight-2 particle settled is not the lowest sighting"):
            left_sweeps(cfg(1, 0, 2), 3, 2, 1)

    def test_dropped_window_two_below_detected(self, rigged_debug, monkeypatch):
        # The re-sight starts at q - 1.  At k = 2 the weight-2 particle of 0:1,0,1,0,1,1 is sighted by L at
        # column 3.  After its move, 0:1,0,1,1,0,1, the full scan sights it by L at column 1, two windows lower.
        # The fault re-sights it at column 2.
        faulty_settle(monkeypatch, ("j = i - 2 if i - 2 > c else c + 1", "j = i - 1 if i - 1 > c else c + 1"))
        with pytest.raises(InternalCheckError, match="the first weight-2 particle settled is not the lowest sighting"):
            left_sweeps(cfg(1, 0, 1, 0, 1, 1), 2, 2, 1)

    def test_dropped_sighting_window_detected(self, rigged_debug, monkeypatch):
        # Window q is taken as the next sighting without being read, since a run at q keeps S and L there; the fault
        # moves on to q + 1 instead.  At k = 4 the weight-3 particle of 0:1,0,3 is sighted by S at column 1, and
        # after its move, 0:1,1,2, by S at column 1 again.
        faulty_settle(monkeypatch, ("            i = j\n", "            i = j if j < i else i + 1\n"))
        with pytest.raises(InternalCheckError, match="the first weight-3 particle settled is not the lowest sighting"):
            left_sweeps(cfg(1, 0, 3), 4, 3, 1)


class TestFreeFlight:
    # A weight-2 particle at column 7 above a weight-1 particle at column 0
    # falls freely by eight moves at k=3, to column 3; a weight-2 particle at
    # column 0 below a weight-1 particle at column 8 rises freely by ten moves,
    # to column 5.
    FALLING = cfg(1, 0, 0, 0, 0, 0, 0, 2)
    RISING = cfg(2, 0, 0, 0, 0, 0, 0, 0, 1)

    def test_jumps_match_single_moves(self, rigged_debug):
        for times in range(12):
            assert left_sweeps(self.FALLING, 3, 2, times) == move_all(self.FALLING, 3, 2, "left", times)
        sep = separate_highest(self.RISING, 3, 2)
        cur = self.RISING
        for _ in range(sep.steps):
            cur = right_move(cur, 3, 2)
        assert free_particle(cur, 3, 2) == sep.free
        # Passing the weight-2 particle moved the weight-1 particle down by A(2, 1) = 2.
        assert sep.remainder == cfg(1, offset=6)

    def test_overlong_fall_detected(self, rigged_debug, monkeypatch):
        # The falling particle lands one move lower than counted.
        columns = moves._free_columns
        monkeypatch.setattr(moves, "_free_columns", lambda e, l: columns(e - 1, l))
        with pytest.raises(InternalCheckError, match="settling 1 weight-2 particles by 6 sweeps disagrees"):
            left_sweeps(self.FALLING, 3, 2, 6)

    def test_fall_onto_the_cut_detected(self, monkeypatch):
        # At k = 2 both weight-2 particles of 5:2,0,0,2 fall four moves: the lower one to column 3, sighted last at
        # c = 2, and the upper one to column 6, three columns above column c + 1 of the cut.  Landing every fall
        # three columns lower than counted puts the upper particle on column c + 1, which the restore catches.
        columns = moves._free_columns
        monkeypatch.setattr(moves, "_free_columns", lambda e, l: columns(e - 3 * l, l))
        with pytest.raises(InternalCheckError, match="sighted at column 7 moved units into the cut at column 2$"):
            left_sweeps(cfg(2, 0, 0, 2, offset=5), 2, 2, 4)

    def test_overlong_rise_detected(self, rigged_debug, monkeypatch):
        # The rising particle lands one right move higher than counted.
        columns = moves._free_columns
        monkeypatch.setattr(moves, "_free_columns", lambda e, l: columns(e + 1, l))
        with pytest.raises(InternalCheckError, match="free rise of 10 right moves"):
            separate_highest(self.RISING, 3, 2)


class TestRuns:
    """Faulty runs are caught: one move too long by the float's re-check or the debug replays, and a run at a
    window that single moves would not sight by the debug replay."""

    @pytest.fixture
    def overlong(self, monkeypatch):
        # One move more than ``_run_length`` allows, but never more than the column the run empties holds.
        honest = moves._run_length
        monkeypatch.setattr(
            moves, "_run_length", lambda vals, i, step, l, kl: min(honest(vals, i, step, l, kl) + 1, vals[i + (step > 0)])
        )

    def test_float_recheck(self, overlong, debug_off):
        # The weight-3 particle of 0:3,0,0,1 at k = 3 makes two right moves before L at column 1 reaches 6; a
        # third puts four units in the 3-window at column 1.
        with pytest.raises(InternalCheckError, match="right move at column 0 left the weight-3 admissible class"):
            separate_highest(cfg(3, 0, 0, 1), 3, 3)

    def test_probe_run_replayed(self, overlong, rigged_debug):
        with pytest.raises(InternalCheckError, match="run of 2 left moves at column 3 disagrees with single moves"):
            pass_particle(cfg(1, 1, 1), 4, 3)

    def test_lone_sweep_run_replayed(self, rigged_debug, monkeypatch):
        # A settling particle's runs, one move too long but never past the column they empty or the moves left.  At
        # k = 3 the weight-2 particle of 0:1,0,2 makes one move at column 1, and the fault a second one there.
        faulty_settle(
            monkeypatch, ("            if q < 1:", "            q = min(q + 1, vals[i + 1], left)\n            if q < 1:")
        )
        b = cfg(1, 0, 2)
        assert left_sweeps(b, 3, 2, 1) == cfg(1, 1, 1)
        with pytest.raises(InternalCheckError, match="settling 1 weight-2 particles by 2 sweeps disagrees"):
            left_sweeps(b, 3, 2, 2)

    def test_float_run_replayed(self, rigged_debug, monkeypatch):
        # Handed the lower weight-1 particle of 2:1,0,0,1 at k = 2, the float moves its unit right within the
        # class, but a single move would first sight window 4 by S, two columns up.
        monkeypatch.setattr(moves, "_stepped_weight", lambda vals, k, l, top: (l, (4, True)))
        with pytest.raises(InternalCheckError, match="run of 1 right moves at column 2 disagrees with single moves"):
            separate_highest(cfg(1, 0, 0, 1, offset=2), 2, 1)


class TestSteppedWeight:
    """The weight found by stepping down from any bound at or above it, as ``_peel`` and the cached forward map do."""

    def test_matches_weight(self):
        for k in range(1, 5):
            for a in enumerate_configurations(k, 3, 5):
                if a.is_zero:
                    continue
                sc = moves._Scratch(a)
                top = len(sc.vals) - sc.MARGIN - 1
                w = weight(a, k)
                # The sighting handed to the float is its highest weight-w particle, as a downward sight from the top finds it.
                expected = (w, moves._sight(sc.vals, w, k + w, top, -1))
                assert [moves._stepped_weight(sc.vals, k, l, top) for l in range(w, k + 1)] == [expected] * (k + 1 - w), (k, a)

    def test_zero_buffer_raises(self):
        with pytest.raises(InternalCheckError, match="no particle sighted"):
            moves._stepped_weight([0] * 9, 3, 3, 4)

    def test_wrong_step_detected_under_debug(self, rigged_debug, monkeypatch):
        # Never stepping down keeps weight 3 for 3:1, the weight-1 remainder of 0:3,0,0,1, and sights nothing
        # there: the debug weight check must fire before the float unpacks the missing sighting.
        sight = moves._sight
        monkeypatch.setattr(moves, "_stepped_weight", lambda vals, k, l, top: (l, sight(vals, l, k + l, top + 1, -1)))
        a = cfg(1, offset=3)
        sc = moves._Scratch(a)
        with pytest.raises(InternalCheckError, match="remainder weight 1 disagrees with the stepped weight 3"):
            moves._float_off(sc, 3, 3, len(sc.vals) - sc.MARGIN - 1, a.length(), a.energy(), a)


@pytest.mark.parametrize(
    "a, k, l", [(cfg(5), 3, 2), (cfg(1, 1), 3, 5), (cfg(0, 2), 0, 2)], ids=["inadmissible", "l above k", "level 0"]
)
def test_sweeps_and_free_particle_validate_like_move_all(a, k, l):
    with pytest.raises(ValueError) as expected:
        move_all(a, k, l, "left")
    for call in (lambda: left_sweeps(a, k, l, 1), lambda: free_particle(a, k, l)):
        with pytest.raises(type(expected.value)) as raised:
            call()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: particle_positions(cfg(1), 2, 1, "up"), ValueError, "side must be 'right' or 'left', got 'up'"),
        (lambda: move_all(cfg(1), 2, 1, "down"), ValueError, "side must be 'right' or 'left', got 'down'"),
        (lambda: move_cth(cfg(1), 2, 1, 0), MoveError, "particle index must be positive, got 0"),
        (lambda: build_free_configuration(0, [], 2), ValueError, "free particles need positive weight"),
        (lambda: pass_particle(cfg(1), 2, 0), ValueError, "the probe needs positive weight"),
    ],
    ids=["positions side", "move_all side", "move_cth c=0", "free weight 0", "probe weight 0"],
)
def test_public_validation_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


# Every integer argument of the public entries: (id, the call with v in that argument, whether a negative v is rejected).
INTEGER_ARGUMENTS = [
    *(
        (f"{fn.__name__} {arg}", call, False)
        for fn in (
            highest_particle, lowest_particle, right_move, left_move, particle_positions,
            free_particle, separate_highest, passing_history, pass_particle,
        )
        for arg, call in (
            ("k", lambda v, fn=fn: fn(cfg(1, 1), v, 2)),
            ("l", lambda v, fn=fn: fn(cfg(1, 1), 3, v)),
        )
    ),
    ("move_cth k", lambda v: move_cth(cfg(3, 0, 0, 1), v, 3, 1), False),
    ("move_cth l", lambda v: move_cth(cfg(3, 0, 0, 1), 3, v, 1), False),
    ("move_cth c", lambda v: move_cth(cfg(3, 0, 0, 1), 3, 3, v), False),
    ("move_all times", lambda v: move_all(cfg(3, 0, 0, 1), 3, 3, "left", v), True),
    ("left_sweeps k", lambda v: left_sweeps(cfg(3, 0, 0, 1), v, 3, 1), False),
    ("left_sweeps l", lambda v: left_sweeps(cfg(3, 0, 0, 1), 3, v, 1), False),
    ("left_sweeps times", lambda v: left_sweeps(cfg(3, 0, 0, 1), 3, 3, v), True),
    ("build_free_configuration l", lambda v: build_free_configuration(v, [2], 3), False),
    ("build_free_configuration energy", lambda v: build_free_configuration(1, [v], 3), False),
    ("build_free_configuration k", lambda v: build_free_configuration(1, [2], v), False),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, v, id=f"{name}={v!r}") for name, call, count in INTEGER_ARGUMENTS for v in (2.0, True, -1)[: 2 + count]],
)
def test_integer_arguments_checked(call, value):
    # A float or bool is never truncated: 2.0 and True would pass every range check as 2 and 1.
    with pytest.raises(ValueError, match="must be non-negative" if value == -1 else rf"got (l=)?{value!r}\b"):
        call(value)


class TestMoveCth:
    def test_examples(self):
        a = cfg(1, 0, 0, 1)
        first = move_cth(a, 1, 1, 1, "right")
        assert first == cfg(1, 0, 0, 0, 1)
        assert move_cth(first, 1, 1, 2, "right") == cfg(0, 1, 0, 0, 1)
        assert move_cth(cfg(3, 0, 0, 1), 3, 3, 1, "right") == cfg(2, 1, 0, 1)

    def test_too_few_particles(self):
        with pytest.raises(MoveError):
            move_cth(cfg(3, 0, 0, 1), 3, 3, 2, "right")

    def test_out_of_order_move_detected(self):
        # Moving the second particle before the first violates the composite
        # order here: (1,0,0,1) at k=1 cannot become (0,1,0,1).
        with pytest.raises(MoveError):
            move_cth(cfg(1, 0, 0, 1), 1, 1, 2, "right")

    def test_interleaving_powers(self):
        # (M^(c))^s ... (M^(1))^s agrees with the s-th power of one sweep.
        for k, l in ((2, 2), (3, 3)):
            for a in weight_classes(k, 4, l):
                m = len(particle_positions(a, k, l))
                if m < 2:
                    continue
                for s in (1, 2, 3, 4):
                    staged = a
                    for c in range(1, m + 1):
                        for _ in range(s):
                            staged = move_cth(staged, k, l, c, "right")
                    assert staged == move_all(a, k, l, "right", s)


class TestSeparation:
    def test_showcase(self):
        sep = separate_highest(cfg(3, 0, 0, 1), 3, 3)
        assert sep.steps == 4
        assert (sep.free.position, sep.free.upper_count, sep.free.energy) == (2, 2, 7)
        assert sep.surplus == 3
        assert sep.remainder == cfg(1)

    def test_already_free(self):
        sep = separate_highest(cfg(0, 3), 3, 3)
        assert sep.steps == 0
        assert (sep.free.position, sep.free.upper_count, sep.free.energy) == (1, 3, 3)
        assert sep.surplus == 3
        assert sep.remainder == ZERO

    def test_worked_chain(self):
        # One right move frees the weight-3 particle of (1,2,1,1) at level 5;
        # the surplus already equals its final value.
        sep = separate_highest(cfg(1, 2, 1, 1), 5, 3)
        assert sep.steps == 1
        assert (sep.free.position, sep.free.upper_count, sep.free.energy) == (2, 2, 7)
        assert sep.surplus == 6
        assert sep.remainder == cfg(1, 1)

    def test_surplus_stable_past_first_freedom(self):
        for k, l in ((2, 2), (3, 3), (3, 2)):
            for a in weight_classes(k, 4, l):
                sep = separate_highest(a, k, l)
                cur = a
                for t in range(sep.steps):
                    cur = right_move(cur, k, l)
                for extra in range(1, 4):
                    cur = right_move(cur, k, l)
                    fp = free_particle(cur, k, l)
                    assert fp is not None
                    assert fp.energy - (sep.steps + extra) == sep.surplus

    def test_zero_rejected(self):
        with pytest.raises(MoveError):
            separate_highest(ZERO, 2, 1)

    def test_local_recheck_catches_wrong_column(self, monkeypatch):
        # A scanner that reports the lowest occupied column instead of the
        # highest particle: moving that unit right of (1,0,0,1) at k=1 puts
        # two units in one 3-window, which the per-move re-check must catch.
        def lowest_column(vals, l, kl, j, step):
            return min(j for j, c in enumerate(vals) if c), False

        monkeypatch.setattr(moves, "_sight", lowest_column)
        with pytest.raises(InternalCheckError, match="admissible class"):
            separate_highest(cfg(1, 0, 0, 1), 1, 1)

    def test_recheck_raises_exactly_when_the_move_leaves_the_class(self, monkeypatch, debug_off):
        # The per-move re-check reads only the four windows a unit right move
        # raises.  A float handed a sighting at one occupied column, and an
        # energy that leaves it a cap of 0 moves, re-checks one move of that
        # unit and stops; it must raise on exactly the moves that a full
        # window pass rejects.
        handed = {}
        monkeypatch.setattr(moves, "_stepped_weight", lambda vals, k, l, top: (l, (handed["i"], False)))
        leaving = 0
        for k in range(1, 5):
            for l in range(1, k + 1):
                for a in enumerate_configurations(k, 3, 6, max_weight=l):
                    for i, c in enumerate(moves._Scratch(a).vals):
                        if not c:
                            continue
                        sc = moves._Scratch(a)
                        top = len(sc.vals) - sc.MARGIN - 1
                        # The cap is length * (column of top + 2) - energy + 2.
                        energy = a.length() * (sc.lo + top + 2) + 2
                        handed["i"] = i
                        with pytest.raises(InternalCheckError) as err:
                            moves._float_off(sc, k, l, top, a.length(), energy, a)
                        if "left the weight" in str(err.value):
                            assert moves._leaves_class(sc.vals, k, l), (k, l, a, i)
                            leaving += 1
                        else:
                            assert "no free particle after 0 right moves" in str(err.value), (k, l, a, i)
                            assert not moves._leaves_class(sc.vals, k, l), (k, l, a, i)
        assert leaving > 0


def below_lowest_unit(vals, l, kl, j, step):
    """A faulty ``_sight`` that reports the index just below the lowest occupied one, by S."""
    return min(i for i, c in enumerate(vals) if c) - 1, True


@pytest.mark.usefixtures("debug_off")
class TestFaultPaths:
    """Each remaining self-check of the move kernels raises when a patched kernel feeds it a fault.

    Without the debug double computations the kernels' own checks are the ones that fire.
    """

    def test_transfer_from_empty_column(self, monkeypatch):
        # Index 5 of the buffer of 0:1,0,0,1 is the empty column 1: the right move takes a unit it does not hold.
        monkeypatch.setattr(moves, "_sight", lambda vals, l, kl, j, step: (5, True))
        with pytest.raises(InternalCheckError, match="column 1 driven negative"):
            right_move(cfg(1, 0, 0, 1), 1, 1)

    def test_float_loses_its_particle(self, monkeypatch):
        # Index 0 is where the float's downward walk ends when it sights nothing.
        monkeypatch.setattr(moves, "_stepped_weight", lambda vals, k, l, top: (l, (0, False)))
        with pytest.raises(InternalCheckError, match="weight fell below l=1 after 0 right moves from 0:1,0,0,1"):
            separate_highest(cfg(1, 0, 0, 1), 1, 1)

    def test_float_moves_from_empty_column(self, monkeypatch):
        monkeypatch.setattr(moves, "_sight", lambda vals, l, kl, j, step: (5, False))
        with pytest.raises(InternalCheckError, match="column 1 driven negative"):
            separate_highest(cfg(1, 0, 0, 1), 1, 1)

    def test_float_never_frees(self):
        # Told an energy 17 above its own 8, the float of 0:2,0,0,0,0,0,0,0,1 at k=3 gets the cap
        # length * (c + 2) - energy + 2 = 3 * 10 - 25 + 2 = 7, c = 8 its top column: below the 8 moves it needs.
        a = cfg(2, 0, 0, 0, 0, 0, 0, 0, 1)
        sc = moves._Scratch(a)
        top = len(sc.vals) - sc.MARGIN - 1
        with pytest.raises(InternalCheckError, match="no free particle after 7 right moves from 0:2,0,0,0,0,0,0,0,1"):
            moves._float_off(sc, 3, 2, top, a.length(), a.energy() + 17, a)

    def test_running_energy_checked_under_debug(self, rigged_debug, monkeypatch):
        # One move too many counted for the first particle leaves the running energy one above the remainder's, 0.
        honest = moves._float_off
        calls = []

        def miscounting(sc, k, l, top, length, energy, origin):
            l, s, i = honest(sc, k, l, top, length, energy, origin)
            calls.append(l)
            return l, s - (len(calls) == 1), i

        monkeypatch.setattr(moves, "_float_off", miscounting)
        with pytest.raises(InternalCheckError, match="running length 1 and energy 1 disagree with the buffer"):
            moves._peel(cfg(3, 0, 0, 1), 3)

    def test_sweep_count_checked(self):
        # ``_drop_groups`` passes ``_settle`` the number of particles each sweep must sight.
        b = cfg(1, 0, 0, 0, 0, 0, 0, 2)
        sc = moves._Scratch(b)
        moves._settle(sc, 3, 2, 3, 1)
        assert sc.to_configuration() == left_sweeps(b, 3, 2, 3)
        with pytest.raises(InternalCheckError, match="expected 2 weight-2 particles before settling, found 1"):
            moves._settle(moves._Scratch(b), 3, 2, 3, 2)

    def test_settled_count_checked(self, monkeypatch):
        # A fall that lands with one zero column below the particle instead of two: at k = 2 the weight-2 particle
        # of 0:1,0,0,0,2 falls all four moves to 0:1,0,2, where L at column 0 sights the unit and the particle
        # together, below the particle's last sighting at column 1.
        faulty_settle(
            monkeypatch, ("e - l * (x + 3)", "e - l * (x + 2)"), ("(e - left) // l - 2\n", "(e - left) // l - 1\n")
        )
        with pytest.raises(InternalCheckError, match="the first weight-2 particle settled is not the lowest sighting"):
            moves._settle(moves._Scratch(cfg(1, 0, 0, 0, 2)), 2, 2, 4, 1)

    @pytest.mark.parametrize(
        "order, a, message",
        [
            ("reversed(found)", cfg(1, 0, 1), "particle at column -1 is not the first sighting above the one settled"),
            ("found[:-1]", cfg(1, 0, 1), "a weight-1 particle is sighted above the last one settled"),
            ("found[1:]", cfg(1, 0, 0, 0, 1), "the first weight-1 particle settled is not the lowest sighting"),
        ],
        ids=["highest first", "highest left out", "lowest left out"],
    )
    def test_settle_order_checked(self, monkeypatch, order, a, message):
        # At k = 2 the weight-1 particles of 0:1,0,1 are sighted at columns -1 and 1, and those of 0:1,0,0,0,1 at
        # -1 and 3.  A settle that takes them highest first, or leaves the highest or the lowest where it is, breaks
        # the order that each of the settle's three order checks reads.
        faulty_settle(monkeypatch, ("    for col in found:\n", f"    for col in {order}:\n"))
        with pytest.raises(InternalCheckError, match=message):
            left_sweeps(a, 2, 1, 1)

    def test_sweep_moves_from_empty_column(self):
        # Outside the weight-2 class (S = 3 at column 2), 0:1,0,3 at k=3 has L = 5 at column 0, so the settle
        # sights column 0 and moves a unit out of the empty column 1.
        with pytest.raises(InternalCheckError, match="column 1 driven negative"):
            moves._settle(moves._Scratch(cfg(1, 0, 3)), 3, 2, 1, None)

    def test_probe_vanishes(self, monkeypatch):
        monkeypatch.setattr(moves, "_sight", lambda vals, l, kl, j, step: None)
        with pytest.raises(InternalCheckError, match="probe vanished during descent"):
            pass_particle(cfg(1, 1, 1), 4, 3)

    def test_probe_never_passes(self, monkeypatch):
        # Sighting one column below the lowest unit drags the cargo 0:1 down for ever, under the probe
        # at column 4; the cap l * (4 - 0 + 3 * (1 + 2) + 10) + 10 = 56 stops it.
        monkeypatch.setattr(moves, "_sight", below_lowest_unit)
        with pytest.raises(InternalCheckError, match="probe failed to pass 0:1 within 56 moves"):
            pass_particle(cfg(1), 2, 2)

    def test_history_redrop_checked_under_debug(self, rigged_debug, monkeypatch):
        # Same result from either placement, but one node fewer from the odd one; without nodes no check fires.
        honest = moves._descend

        def column_dependent(a, k, l, probe_column, record):
            nodes, result = honest(a, k, l, probe_column, record)
            return nodes[: len(nodes) - probe_column % 2], result

        monkeypatch.setattr(moves, "_descend", column_dependent)
        assert pass_particle(cfg(1, 1, 1), 4, 3) == Configuration(2, (1, 0, 2))
        with pytest.raises(InternalCheckError, match="passing history depends on the placement column"):
            passing_history(cfg(1, 1, 1), 4, 3)


class TestScratch:
    def test_grows_geometrically_on_both_ends(self):
        # Walking a unit 2000 columns out on either side reallocates the
        # buffer a logarithmic number of times, not once per few columns.
        for step in (-1, +1):
            sc = moves._Scratch(cfg(1))
            sizes = set()
            for col in range(0, 2000 * step, step):
                sc.bump(col, -1)
                sc.bump(col + step, +1)
                sizes.add(len(sc.vals))
            assert len(sizes) <= 12
            assert sc.to_configuration() == cfg(1, offset=2000 * step)


class TestFreeConfigurations:
    def test_single_particle_examples(self):
        assert build_free_configuration(3, [9], 3) == cfg(3, offset=3)
        assert build_free_configuration(2, [5], 3) == cfg(1, 1, offset=2)
        assert build_free_configuration(2, [], 3) == ZERO

    def test_boundary_spacing(self):
        assert build_free_configuration(1, [3, 0], 1) == cfg(1, 0, 0, 1)

    def test_spacing_violation(self):
        with pytest.raises(ValueError):
            build_free_configuration(1, [2, 0], 1)

    def test_energy_decomposition(self):
        fp = FreeParticle(3, 2, 3)
        assert fp.energy == 3 * 2 + 4 * 1

    def test_invalid_upper_count(self):
        with pytest.raises(ValueError):
            FreeParticle(3, 0, 3)


class TestPassing:
    def test_worked_example_level_four(self):
        a = cfg(1, 1, 1)
        nodes, result = passing_history(a, 4, 3)
        assert result == Configuration(2, (1, 0, 2))
        shown = [(kind, pos, c) for kind, pos, c in nodes if pos <= 3]
        assert shown == [
            ("S", 3, cfg(1, 1, 1, 0, 3)),
            ("L", 2, cfg(1, 1, 1, 1, 2)),
            ("S", 1, cfg(1, 1, 2, 0, 2)),
            ("S", 0, cfg(1, 2, 1, 0, 2)),
            ("S", -1, cfg(3, 0, 1, 0, 2)),
        ]

    def test_no_node_above_meeting_column(self):
        for k in (2, 3, 4):
            for l in range(2, k + 1):
                for a in enumerate_configurations(k, 3, 4):
                    if a.is_zero or weight(a, k) >= l:
                        continue
                    nodes, _ = passing_history(a, k, l)
                    assert nodes and all(pos <= a.support_max + 1 for _, pos, _ in nodes)

    def test_unit_runs_pass_alike(self, monkeypatch):
        # A run length read as 0 is raised to one move, so runs cut to single moves take the probe down the same way.
        expected = passing_history(cfg(1, 1, 1), 4, 3)
        monkeypatch.setattr(moves, "_run_length", lambda vals, i, step, l, kl: 0)
        assert passing_history(cfg(1, 1, 1), 4, 3) == expected

    def test_result_matches_history(self):
        # pass_particle records no nodes; its result must still be the history's.
        for k in range(1, 5):
            for l in range(1, k + 1):
                for a in enumerate_configurations(k, 3, 5, max_weight=l - 1):
                    assert pass_particle(a, k, l) == passing_history(a, k, l)[1], (k, l, a)

    @pytest.mark.parametrize("d", [-40, -7, -1, 3])
    def test_translation_invariant(self, d):
        # Every probe ends below the lowest column it passes, so each pass grows the buffer at its low margin.
        for k in range(2, 5):
            for l in range(2, k + 1):
                for a in enumerate_configurations(k, 3, 5, max_weight=l - 1):
                    b = a.shifted(d)
                    assert pass_particle(b, k, l) == pass_particle(a, k, l).shifted(d), (k, l, a)
                    nodes, result = passing_history(a, k, l)
                    moved = [(kind, pos + d, c.shifted(d)) for kind, pos, c in nodes]
                    assert passing_history(b, k, l) == (moved, result.shifted(d)), (k, l, a)

    def test_result_at_far_offset_is_shifted(self):
        # The probe drops four columns above the content wherever it lies, and the stop test keeps the lowest
        # occupied column instead of reading every column below the probe.
        for k, l, a in ((4, 3, cfg(1, 1, 1)), (5, 4, cfg(1, 2, 1, 1)), (3, 3, cfg(1, 0, 0, 1))):
            d = -10**6
            assert pass_particle(a.shifted(d), k, l) == pass_particle(a, k, l).shifted(d)
            nodes, result = passing_history(a, k, l)
            moved = [(kind, pos + d, c.shifted(d)) for kind, pos, c in nodes]
            assert passing_history(a.shifted(d), k, l) == (moved, result.shifted(d))

    def test_negative_column_detected(self, monkeypatch):
        # One forged sighting at column 3, above the content and below the probe, moves a unit out of empty
        # column 4.  Every later sighting is honest, so the fault must be caught on that first move.
        honest, forged = moves._sight, iter([(7, True)])
        monkeypatch.setattr(moves, "_sight", lambda *args: next(forged, None) or honest(*args))
        with pytest.raises(InternalCheckError, match="column 4 driven negative"):
            pass_particle(cfg(1, 1, 1), 4, 3)

    def test_worked_example_level_five(self):
        result = pass_particle(cfg(1, 2, 1, 1), 5, 4)
        assert result == Configuration(3, (2, 1, 2))

    def test_zero_passes_to_zero(self):
        assert pass_particle(ZERO, 4, 3) == ZERO

    def test_rejects_heavy_input(self):
        with pytest.raises(AdmissibilityError):
            pass_particle(cfg(1, 2), 4, 3)

    def test_heaviest_probe_is_triple_shift(self):
        for k in (2, 3, 4):
            for a in enumerate_configurations(k, 3, 4):
                if weight(a, k) >= k:
                    continue
                assert pass_particle(a, k, k) == a.shifted(3)

    def test_light_probe_is_double_shift(self):
        # When probe and cargo weights fit inside the level together, passing
        # is a plain two-column shift.
        for k, l in ((4, 2), (5, 2), (5, 3)):
            for a in enumerate_configurations(k, 3, 4):
                if weight(a, k) >= min(l, k - l + 1):
                    continue
                assert pass_particle(a, k, l) == a.shifted(2)

    def test_commutes_with_right_move(self):
        for k, l in ((3, 2), (3, 3), (4, 3)):
            for a in enumerate_configurations(k, 3, 4):
                w = weight(a, k)
                if a.is_zero or w >= l:
                    continue
                assert pass_particle(right_move(a, k, w), k, l) == right_move(
                    pass_particle(a, k, l), k, w
                )

    def test_two_free_particles_shift_by_phase(self):
        # A light particle at the bottom gains exactly the phase shift when a
        # heavy one overtakes it.
        for k, l, lp in ((4, 3, 2), (4, 3, 1), (5, 4, 3), (3, 3, 1)):
            for c_light in range(1, lp + 1):
                light = build_free_configuration(lp, [c_light], k)
                start = Configuration(0, tuple(light.get(j) for j in range(12)) + (l,))  # l units at column 12
                cur = start
                for _ in range(l * 20):
                    cur = left_move(cur, k, l)
                top = cur.support_max
                upper = Configuration(top - 1, (cur.get(top - 1), cur.get(top)))
                assert upper.length() == lp
                assert upper.energy() == light.energy() + phase(k, l, lp)


@pytest.mark.usefixtures("rigged_debug")
class TestPassingDebug(TestPassing):
    """The passing tests again, each probe re-dropped from one column higher."""

    def test_redrop_disagreement_detected(self, monkeypatch):
        honest = moves._descend

        def column_dependent(a, k, l, probe_column, record):
            nodes, result = honest(a, k, l, probe_column, record)
            return nodes, result.shifted(probe_column % 2)

        monkeypatch.setattr(moves, "_descend", column_dependent)
        with pytest.raises(InternalCheckError, match="placement column"):
            pass_particle(cfg(1, 1, 1), 4, 3)
