"""Property tests of the move kernels against plain-list references.

The references below apply the definitions directly: they recompute S and L
from a list of columns at every step, move one unit per step, and share no
code with ``rigged.moves``.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigged import identities, moves
from rigged.bijection import iota, kappa
from rigged.configuration import ZERO, Configuration, enumerate_configurations
from rigged.moves import (
    highest_particle,
    left_move,
    left_sweeps,
    lowest_particle,
    particle_positions,
    pass_particle,
    passing_history,
    right_move,
    separate_highest,
)

MAX_LEVEL, MAX_WIDTH, MAX_OFFSET = 8, 40, 10


@st.composite
def admissible(draw, min_level=1, max_level=MAX_LEVEL, max_width=MAX_WIDTH):
    """(k, configuration): a random nonzero (k, 3)-admissible configuration."""
    k = draw(st.integers(min_level, max_level))
    width = draw(st.integers(1, max_width))
    offset = draw(st.integers(-MAX_OFFSET, MAX_OFFSET))
    counts: list[int] = []
    for j in range(width):
        counts.append(draw(st.integers(1 if j == 0 else 0, k - sum(counts[-2:]))))
    return k, Configuration(offset, tuple(counts))


def heavy():
    """``admissible`` at levels 16 to 64 and widths up to 12, where a run of moves at one sighting is long."""
    return admissible(min_level=16, max_level=64, max_width=12)


# A lone weight-64 particle below, or above, dense lighter content that it crosses.
RISING_64 = (64, Configuration(0, (64, 0, 0) + (20,) * 9))
FALLING_64 = (64, Configuration(0, (20,) * 9 + (0, 0, 0, 64)))
# A lone weight-8 particle above content at k = 11 whose L two windows below the particle's sighting ends some of
# its runs of left moves before any other bound does.
LONE_8 = (11, Configuration(0, (5, 2, 3, 3, 0, 0, 0, 8)))
# At k = 6, the L two windows above the sighting ends a run of right moves before any other bound does.
FAR_L_6 = (6, Configuration(0, (3, 2, 1, 2, 1, 3)))


@st.composite
def gapped(draw):
    """(k, configuration): dense admissible blocks separated by 4-30 zero columns.

    Dense rows hardly ever hold an isolated particle; these hold several, so
    the maps cross the gaps in free flight.
    """
    k = draw(st.integers(1, MAX_LEVEL))
    counts: list[int] = []
    for b in range(draw(st.integers(2, 4))):
        if b:
            counts += [0] * draw(st.integers(4, 30))
        block: list[int] = []
        for j in range(draw(st.integers(1, 6))):
            block.append(draw(st.integers(1 if j == 0 else 0, k - sum(block[-2:]))))
        counts += block
    return k, Configuration(draw(st.integers(-MAX_OFFSET, MAX_OFFSET)), tuple(counts))


def _window_values(cols: list[int]):
    """(index, S, L) at every index of ``cols`` whose four-column window fits inside it."""
    for i in range(1, len(cols) - 2):
        s = cols[i] + cols[i + 1]
        yield i, s, cols[i - 1] + 2 * s + cols[i + 2]


def reference_weight(cols: list[int], k: int) -> int:
    return max(max(s, big - k, 0) for _, s, big in _window_values(cols))


def reference_particles(a: Configuration, k: int, l: int, side: str) -> list[tuple[int, str]]:
    """(column, kind) of every weight-l particle, nearest the side's end first, by the definition.

    Each step recomputes S and L over the whole list and takes the highest
    (``side="right"``) or lowest sighting, then cuts off every column at or
    above it, or at or below the column after it.
    """
    pad = 3
    cols = [0] * pad + list(a.counts) + [0] * pad
    found = []
    while True:
        hits = [(i, "S" if s == l else "L") for i, s, big in _window_values(cols) if s == l or big == k + l]
        if not hits:
            return found
        i, kind = hits[-1] if side == "right" else hits[0]
        found.append((a.offset - pad + i, kind))
        if side == "right":
            cols[i:] = [0] * (len(cols) - i)
        else:
            cols[: i + 2] = [0] * (i + 2)


def reference_transfer(a: Configuration, column: int, side: str) -> Configuration:
    """``a`` with one unit moved from ``column`` to the next column (right) or back (left)."""
    pad = 3
    cols = [0] * pad + list(a.counts) + [0] * pad
    i = column - a.offset + pad
    unit = 1 if side == "right" else -1
    cols[i] -= unit
    cols[i + 1] += unit
    return Configuration(a.offset - pad, tuple(cols))


@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(1, k), st.lists(st.integers(0, k), min_size=9, max_size=9), st.sampled_from([-1, 1])
)))
@example((2, 2, [0, 0, 0, 0, 0, 1, 0, 0, 0], 1))  # the column runs out first
@settings(max_examples=300, deadline=None)
def test_run_length_counts_single_moves(case):
    # The run at window 4 of a plain list, made one unit move right (step -1) or left (step +1) at a time while
    # the column it takes from is nonempty and the sums it raises stay below their bounds: S and L one window
    # on, L two windows on.  Whether or not the list is admissible.
    k, l, cols, step = case
    vals, i, moved = cols[:], 4, 0
    source, near, far = i + (step > 0), i - step, i - 2 * step

    def big(w):
        return vals[w - 1] + 2 * (vals[w] + vals[w + 1]) + vals[w + 2]

    while vals[source] and vals[near] + vals[near + 1] < l and big(near) < k + l and big(far) < k + l:
        vals[source] -= 1
        vals[source - step] += 1
        moved += 1
    assert max(moves._run_length(cols, i, step, l, k + l), 0) == moved


@st.composite
def capped(draw):
    """(k, w, l, configuration): a case of ``admissible`` or ``gapped``, its weight w and a cap l in w..k."""
    k, a = draw(st.one_of(admissible(), gapped()))
    w = reference_weight([0] * 3 + list(a.counts) + [0] * 3, k)
    return k, w, draw(st.one_of(st.just(w), st.integers(w, k))), a


@given(capped())
@settings(max_examples=150, deadline=None)
def test_single_moves_match_reference(case):
    k, w, l, a = case
    right = reference_particles(a, k, l, "right")
    left = reference_particles(a, k, l, "left")
    assert particle_positions(a, k, l, "right") == [p for p, _ in right]
    assert particle_positions(a, k, l, "left") == [p for p, _ in left]
    for found, expected in ((highest_particle(a, k, l), right), (lowest_particle(a, k, l), left)):
        assert (None if found is None else (found.position, found.kind, found.weight)) == (
            (*expected[0], l) if expected else None
        )
    if l == w:
        assert right_move(a, k, l) == reference_transfer(a, right[0][0], "right")
        assert left_move(a, k, l) == reference_transfer(a, left[0][0], "left")


def reference_separation(a: Configuration, k: int, l: int):
    """(steps, (position, upper count), surplus, remainder) by the definition, one unit per step."""
    pad = 3
    cols = [0] * pad + list(a.counts) + [0] * pad
    base = a.offset - pad  # column of cols[0]
    steps = 0
    while True:
        top = max(i for i, c in enumerate(cols) if c)
        i, kind = next(
            (i, "S" if s == l else "L")
            for i, s, big in reversed(list(_window_values(cols)))
            if s == l or big == k + l
        )
        if kind == "S" and cols[i] > 0 and top <= i + 1:
            position, upper = base + i, cols[i]
            energy = position * upper + (position + 1) * (l - upper)
            return steps, (position, upper), energy - steps, Configuration(base, tuple(cols[:i]))
        cols[i] -= 1
        cols[i + 1] += 1
        assert cols[i] >= 0
        if i + 1 + pad >= len(cols):
            cols.extend([0] * pad)
        steps += 1


@given(st.one_of(admissible(), gapped(), heavy()))
@example(RISING_64)
@example(FAR_L_6)
@settings(max_examples=120, deadline=None)
def test_separation_matches_reference(case):
    check_separation_chain(*case)


def check_separation_chain(k: int, cur: Configuration) -> None:
    """``separate_highest`` against ``reference_separation`` on every particle of the chain that iota reads, heaviest
    first."""
    while cur != ZERO:
        l = reference_weight([0] * 3 + list(cur.counts) + [0] * 3, k)
        sep = separate_highest(cur, k, l)
        steps, free, surplus, remainder = reference_separation(cur, k, l)
        assert (sep.steps, sep.free.position, sep.free.upper_count, sep.free.weight, sep.surplus) == (
            steps, *free, l, surplus
        ), (k, cur)
        assert sep.remainder == remainder, (k, cur)
        cur = remainder


@given(st.one_of(admissible(), gapped(), heavy()))
@example(RISING_64)
@example(FALLING_64)
@settings(max_examples=120, deadline=None)
def test_kappa_inverts_iota(case):
    k, a = case
    assert kappa(iota(a, k), k) == a


def reference_iota(a: Configuration, k: int) -> tuple[tuple[int, int], ...]:
    """Parts of iota(a, k) from the separation chain, with rho_i = s_i - sum_{j>i} A(w_i, w_j)."""

    def phase_shift(l, lp):
        return 2 * min(l, lp) + max(l + lp - k, 0)

    chain, cur = [], a
    while cur != ZERO:
        l = reference_weight([0] * 3 + list(cur.counts) + [0] * 3, k)
        _, _, surplus, cur = reference_separation(cur, k, l)
        chain.append((l, surplus))
    return tuple(
        (w, s - sum(phase_shift(w, v) for v, _ in chain[i + 1 :])) for i, (w, s) in enumerate(chain)
    )


@given(st.one_of(admissible(), gapped(), heavy()))
@example(RISING_64)
@example(FAR_L_6)
@settings(max_examples=100, deadline=None)
def test_iota_matches_reference(case):
    k, a = case
    assert iota(a, k).parts == reference_iota(a, k)


def reference_passing(a: Configuration, k: int, l: int) -> tuple[list[tuple[str, int, Configuration]], Configuration]:
    """(nodes, result) of passing a weight-l probe down through ``a``, by the definition, one unit per step.

    The probe starts as l units five columns above the top of ``a``.  Each step recomputes S and L over the
    whole list and moves one unit left at the lowest sighting.  The first time the sighting reaches a column,
    the pass stops if nothing lies below it, the two columns above the probe are empty and what lies above
    them weighs less than l; otherwise, at column top + 1 or lower, it records (kind, column, configuration).
    """
    top = a.support_max
    pad = 4
    cols = [0] * pad + list(a.counts) + [0] * 4 + [l] + [0] * pad
    base = a.offset - pad  # column of cols[0]
    nodes, last = [], None
    while True:
        i, kind = next((i, "S" if s == l else "L") for i, s, big in _window_values(cols) if s == l or big == k + l)
        if i != last:
            last = i
            rest = cols[i + 2 :]
            if not any(cols[:i]) and not any(rest[:2]) and reference_weight([0] * 3 + rest + [0] * 3, k) < l:
                return nodes, Configuration(base + i + 2, tuple(rest))
            if base + i <= top + 1:
                nodes.append((kind, base + i, Configuration(base, tuple(cols))))
        cols[i] += 1
        cols[i + 1] -= 1
        assert cols[i + 1] >= 0
        if i < 3:
            cols[:0] = [0] * pad
            base -= pad
            last += pad


@st.composite
def passing(draw):
    """(k, l, configuration): a case of ``admissible``, ``gapped`` or ``heavy`` of weight below k, and a probe weight above it."""
    k, a = draw(st.one_of(admissible(), gapped(), heavy()))
    w = reference_weight([0] * 3 + list(a.counts) + [0] * 3, k)
    assume(w < k)
    return k, draw(st.integers(w + 1, k)), a


@given(passing())
@example((64, 64, Configuration(0, (20,) * 9)))
@example((LONE_8[0], 8, Configuration(0, LONE_8[1].counts[:4])))
@settings(max_examples=120, deadline=None)
def test_passing_matches_reference(case):
    k, l, a = case
    nodes, result = reference_passing(a, k, l)
    assert passing_history(a, k, l) == (nodes, result)
    assert pass_particle(a, k, l) == result


def test_cached_iota_matches_iota(debug_off):
    # The grid's cached map builds each image from its remainder's image, and shifts it to the configuration's offset.
    identities._iota.cache_clear()
    for k in (1, 2, 3):
        for a in enumerate_configurations(k, 3, 8):
            for d in (0, -(10**6), -2, 3, 10**6):
                assert identities._image(a.shifted(d), k) == iota(a.shifted(d), k)
    identities._iota.cache_clear()


def test_translates_share_one_cache_entry(debug_off):
    identities._iota.cache_clear()
    a = Configuration(0, (1, 0, 2, 1))
    identities._image(a, 3)
    misses = identities._iota.cache_info().misses
    for d in (-(10**6), -2, 3, 10**6):
        identities._image(a.shifted(d), 3)
    assert identities._iota.cache_info().misses == misses
    identities._iota.cache_clear()


MAX_SWEEPS = 120


@st.composite
def settling(draw):
    """(k, l, m, t, b) as the inverse map builds b: free weight-l particles above a lighter part."""
    k = draw(st.integers(1, 5))
    counts: list[int] = []
    for j in range(draw(st.integers(0, 6))):
        counts.append(draw(st.integers(1 if j == 0 else 0, k - sum(counts[-2:]))))
    w = reference_weight([0] * 3 + counts + [0] * 3, k) if counts else 0
    assume(w < k)
    l = draw(st.integers(w + 1, k))
    offset = draw(st.integers(-3, 3))
    # The inverse map starts the lowest free particle at energy l * (top + 3)
    # plus its extra settling sweeps (at most t), and each higher one at
    # least A(l, l) above the one below it.  Gaps of up to 8l more let the
    # particles fall freely side by side, as pairs clear for every residue
    # (gap 5l - 1 and up) or not.
    t = draw(st.integers(0, MAX_SWEEPS))
    lowest = (l * (offset + len(counts) + 2) if counts else 0) + draw(st.integers(0, t))
    energies = [lowest]
    for _ in range(draw(st.integers(0, 2))):
        energies.append(energies[-1] + 2 * l + max(2 * l - k, 0) + draw(st.integers(0, 8 * l)))
    # Superpose the lighter part and the free particles (energy d: column
    # d // l holds l - d % l, the next column the rest) on a plain list.
    base = min(offset, lowest // l)
    cols = [0] * (energies[-1] // l + 2 - base)
    for j, c in enumerate(counts):
        cols[offset + j - base] += c
    for d in energies:
        j, rem = divmod(d, l)
        cols[j - base] += l - rem
        cols[j + 1 - base] += rem
    return k, l, len(energies), t, Configuration(base, tuple(cols))


def reference_scan(cols: list[int], k: int, l: int) -> list[int]:
    """Indices a full bottom-up scan of a copy of ``cols`` sights, cutting each sighted particle's two columns off the copy."""
    cut, positions = cols[:], []
    for i in range(1, len(cut) - 2):
        s = cut[i] + cut[i + 1]
        if s == l or cut[i - 1] + 2 * s + cut[i + 2] == k + l:
            positions.append(i)
            cut[i] = cut[i + 1] = 0
    return positions


def reference_left_moves(cols: list[int], positions: list[int]) -> None:
    """One unit left move at each of ``positions``, in place."""
    for i in positions:
        cols[i] += 1
        cols[i + 1] -= 1
        assert cols[i + 1] >= 0


def reference_sweeps(b: Configuration, k: int, l: int, times: int, m: int) -> Configuration:
    """``times`` sweeps, each a full bottom-up scan of a cut copy, then one left move per sighting."""
    # A sighting moves down by at most two windows per sweep.
    pad = 2 * times + 4
    cols = [0] * pad + list(b.counts) + [0] * 4
    base = b.offset - pad
    for _ in range(times):
        positions = reference_scan(cols, k, l)
        assert len(positions) == m
        reference_left_moves(cols, positions)
    return Configuration(base, tuple(cols))


@given(settling())
@settings(max_examples=150, deadline=None)
def test_left_sweeps_match_full_scans(case):
    k, l, m, t, b = case
    assert left_sweeps(b, k, l, t) == reference_sweeps(b, k, l, t, m)


@given(st.one_of(admissible(), gapped()), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_sightings_stay_within_two_windows_below(case, times):
    # The locality the ``rigged.moves`` docstring's settling argument uses: after a full left sweep at the
    # configuration's weight, every particle a full scan sights lies in window q - 2, q - 1 or q of some sighting q
    # of that sweep.
    k, a = case
    pad = 2 * times + 4
    cols = [0] * pad + list(a.counts) + [0] * 4
    l = reference_weight(cols, k)
    last = reference_scan(cols, k, l)
    for _ in range(times):
        reference_left_moves(cols, last)
        assert reference_weight(cols, k) == l
        found = reference_scan(cols, k, l)
        assert len(found) == len(last) and found[0] > 2
        assert set(found) <= {q - d for q in last for d in (0, 1, 2)}, (last, found)
        last = found


def every_configuration(k: int, width: int):
    """Every nonzero (k, 3)-admissible configuration at offset 0 with support at most ``width`` columns."""

    def grow(counts):
        if counts and counts[-1]:
            yield Configuration(0, tuple(counts))
        if len(counts) < width:
            for c in range(0 if counts else 1, k - sum(counts[-2:]) + 1):
                yield from grow(counts + [c])

    yield from grow([])


def exhaustive_cases():
    """(k, configuration) for every ``every_configuration`` at k <= 4 of support <= 7 columns and at k = 5 of <= 6."""
    for k, width in ((1, 7), (2, 7), (3, 7), (4, 7), (5, 6)):
        for a in every_configuration(k, width):
            yield k, a


def test_separation_chain_matches_reference_exhaustively(debug_off):
    # Every rise and run that ``_float_off`` makes on these configurations and their remainders, without
    # RIGGED_DEBUG, so that no replay stands in for the comparison.
    for k, a in exhaustive_cases():
        check_separation_chain(k, a)


# Two corner cases of sweeps, kept as inputs: sightings four windows apart, and a second sweep that sights window j
# with column j - 1 occupied and no sighting at j - 1.
SWEEP_EXAMPLES = ((1, Configuration(0, (1, 0, 0, 0, 1))), (3, Configuration(0, (1, 0, 2, 0, 1, 2))))


def test_sweep_matches_cut_scan_and_moves(debug_off):
    # ``left_sweeps`` settles one particle at a time, lowest first; ``times`` sweeps must leave what ``times`` full
    # scans of a cut copy and their left moves leave, for every configuration of ``exhaustive_cases``, at its weight.
    # Without RIGGED_DEBUG, so that no replay stands in for the comparison.
    cases = list(exhaustive_cases()) + list(SWEEP_EXAMPLES)
    for k, a in cases:
        cols = [0] * 3 + list(a.counts) + [0] * 3
        l = reference_weight(cols, k)
        m = len(reference_scan(cols, k, l))
        for times in (1, 2, 4, 9, 17):
            assert left_sweeps(a, k, l, times) == reference_sweeps(a, k, l, times, m), (k, a, times)


@given(st.one_of(admissible(), gapped(), heavy()), st.integers(0, 40))
@example(FALLING_64, 260)  # about 250 sweeps carry the particle through the content
@example(LONE_8, 30)
@settings(max_examples=150, deadline=None)
@pytest.mark.usefixtures("debug_off")
def test_left_sweeps_match_reference_without_debug(case, times):
    # Without RIGGED_DEBUG nothing replays the settle, which moves one particle at a time by runs and falls.
    k, a = case
    cols = [0] * 3 + list(a.counts) + [0] * 3
    l = reference_weight(cols, k)
    m = len(reference_scan(cols, k, l))
    assert left_sweeps(a, k, l, times) == reference_sweeps(a, k, l, times, m)


@st.composite
def falling(draw):
    """(k, l, configuration, times): isolated weight-l particles above an optional static column, of weight l."""
    l = draw(st.integers(1, 6))
    k = draw(st.integers(max(l, 3), 8))
    floor = draw(st.one_of(st.none(), st.integers(0, 8)))
    e = l * draw(st.integers(12, 20)) + draw(st.integers(0, l - 1))
    energies = [e]
    for _ in range(draw(st.integers(0, 3))):
        energies.append(energies[-1] + draw(st.integers(4 * l, 8 * l)))
    cols = [0] * (energies[-1] // l + 2)
    if floor is not None:
        cols[floor] = draw(st.integers(1, 3))
    for e in energies:
        j, rem = divmod(e, l)
        cols[j] += l - rem
        cols[j + 1] += rem
    # Each particle's two columns hold it, with three empty columns on each side.
    for e in energies:
        p = (e - 1) // l
        assume(cols[p] + cols[p + 1] == l and not any(cols[max(p - 3, 0) : p] + cols[p + 2 : p + 5]))
    assume(reference_weight([0] * 3 + cols + [0] * 3, k) == l)
    return k, l, Configuration(0, tuple(cols)), draw(st.integers(2, energies[0]))


@given(falling())
@example((6, 6, Configuration(0, (1,) + (0,) * 11 + (6, 0, 0, 0, 2, 4)), 5))  # a pair 5l - 2 apart
@settings(max_examples=150, deadline=None)
@pytest.mark.usefixtures("debug_off")
def test_fall_keeps_three_zero_columns(case):
    # Particles that start three zero columns clear fall in one step while two zero columns stay between each and
    # the nearest occupied column below it, or the particle settled below it: ``times`` sweeps must still leave what
    # full scans and their moves leave.
    k, l, a, times = case
    m = len(reference_scan([0] * 3 + list(a.counts) + [0] * 3, k, l))
    assert left_sweeps(a, k, l, times) == reference_sweeps(a, k, l, times, m)
