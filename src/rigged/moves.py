"""Quasi-particle moves on admissible configurations.

A configuration of weight exactly l carries weight-l particles at the columns
where S hits l or L hits k + l.  The elementary right move transfers one unit
from the highest such column to its right neighbour (energy +1); the left
move mirrors it at the lowest such column (energy -1).  Cutting the sequence
off just below (or above) a located particle and repeating locates all of
them, which is what makes "move the c-th particle" well defined.

All moves run on one substrate, the padded mutable column buffer
``_Scratch``, which no other module touches: the maps call ``_peel``,
``_detach`` and ``_drop_groups``.  Moves locate particles with list scans.
``_sight`` walks the windows up or down from a given index to the nearest
sighting.  ``_cut_scan`` repeats ``_sight`` over every window and cuts each
sighted particle off a copy by zeroing its two columns, so each sighting
locates the next particle: every window it reads afterwards lies on the near
side of the cut.  A single move copies a configuration into a buffer, sights
the end particle and bumps two columns.  The long-running procedures keep one
buffer for their whole run, which ``_Scratch.grow`` pads wherever a particle
nears its margin:

- Floating the highest particle free by right moves (``_float_off``), one
  run of them (below) per sighting.  A unit moved from column i to i + 1
  raises only the windows that weigh column i + 1 above column i: the
  3-window and S at i + 1 and L at i + 1 and i + 2.  Every other window
  loses value or keeps it, so re-checking these four after the run is as
  strong as re-checking everything after every move, and the inline walk to
  the next sighting starts just above them.  The forward map peels every
  particle off one buffer this way: once a particle is free, zeroing its two
  columns leaves the remainder in place.  The remainder weighs at most the
  peeled particle, so its weight steps down from there, one downward
  ``_sight`` per step, and the float starts at the first sighting.
  ``separate_highest`` and the forward-map memo float only the highest
  particle, through ``_detach``.
- Settling a group of weight-l particles as t full bottom-up left sweeps
  would (``_settle``): each sweep cut-scans every window from below and
  moves each sighted particle left once.  ``_settle`` moves the particles one
  at a time instead, lowest first, each making all t of its moves before the
  next one starts, after one cut-scan has located them.  While a particle
  moves, the particles above it stay where they are, and the settled one
  just below it is cut off at its last sighting c as the cut-scan cuts it:
  columns c and c + 1 are zeroed in place, and restored once the particle
  is done, and no window at or below c is read.  The particle is then alone.
  A left move at its sighting q keeps S and L at q, raises only S and L at
  q - 1 and L at q - 2, and lowers or keeps every other sum, so its next
  sighting is the lowest window from q - 2 up, at most q.  Its moves are
  runs and falls (below), and no bound of a window at or below c counts.
  Why the order is right, as far as it is proven: in the sweeps, each
  sighting of a particle lies at q - 2, q - 1 or q of its sighting q in the
  sweep before, so sightings never rise.  The particle below, sighted at p
  in sweep s, later moves only at or below p.  Those moves change no column
  that the cut-scan reads above the cut at p, so that particle may make all
  its moves first.  Two steps are not proven: that the particles above may
  still stand where they started, and that the cut may stay at the last
  sighting of the particle below instead of following its sightings.  Both
  were checked against t sweeps for t in {1, 2, 4, 9, 17, 40} on every
  configuration at its weight of support up to 12, 10, 9, 7, 6 and 5
  columns at k = 1 to 6 (69,240 cases), and on 13,990 random drops of up to
  five free particles onto lighter content at k <= 8, t <= 80.  Settling the
  highest particle first fails on some of the same configurations.  Where
  it is cheap the kernel checks the order as it goes: each particle must
  still be the first sighting above the cut when it starts, and once all
  have settled, nothing may be sighted above the last and the first must be
  the lowest sighting.  Restoring the cut rests on a third step, checked but
  not proven either: no particle moves a unit into the cut's two columns,
  which only a sighting at window c + 1 could do, so the restore raises
  InternalCheckError if either column is nonzero.  RIGGED_DEBUG=1 replays
  every settle as t sweeps of ``move_all``, each a cut-scan of every window.
- Passing a heavy probe down through a lighter configuration from far above,
  one run of left moves (below) in place per sighting.

Runs.  A unit right move at window i keeps S and L at i and raises S and L
at i + 1 and L at i + 2 by one each; every other S and L falls or stays.  A
left move is the mirror image, at i - 1 and i - 2.  Each kernel moves at the
sighting nearest the end the unit moves towards, so no window on that side
of i sights, and only the raised ones can start to.  The next move is
therefore again at i until one of the three raised sums reaches its bound or
the column the unit leaves (i for a right move, i + 1 for a left one) runs
out: q = min(units left there, l - S, k + l - L, k + l - L') moves, read
once from the windows the move raises (``_run_length``; ``_settle`` compares
the same bounds in line).  Each kernel makes those q moves in one step.  The
sums a run raises only rise during it, so one re-check at its end is as
strong as one per move.  RIGGED_DEBUG=1 replays every run of the float and
the probe one move at a time on a copy, as the unit moves they made before
runs, each only once ``_sight`` from two windows on sights window i
(``_unit_moves_agree``); a settle's runs are replayed with the whole settle.

Free flight.  Alone, a weight-l particle of energy e sits where
``_free_columns`` lays it out: column e // l holds l - e mod l, the next
column the rest.  A left sweep sights it at column (e - 1) // l and a right
scan at e // l, and the unit transfer there yields the layout of energy
e - 1 or e + 1.  Beside other content it moves the same way while two zero
columns part it from the content it moves towards.  Take a settling
particle.  Sighted by S at q, it holds all l units in columns q and q + 1.
Let columns q - 1 and q - 2 be empty, and let x be the nearest occupied
column below them, with column c + 1 of the cut counted as occupied.  While
its lower column stays at x + 3 or above, the particle moves as the free
particle of its energy does.  Windows that read only columns at or below x
are unchanged, so they sight nothing, as before.  Windows that read only the
particle and empty columns sight it where the free particle is sighted, and
none lower.  Only window x + 1 reads both, and its L, a_x + a_(x+3), is below
k + l: a_(x+3) <= l, and a_x = k would put S at x at k >= l, which weight at
most l allows only as a sighting below the particle's.  Clearance above is
not needed, because no window at or below the particle's sighting reads a
column above it.  So ``_settle`` makes the moves down to that clearance in
one step.  Reflecting the columns, a_j -> a_(-j), takes S and L at j to S
and L at -j - 1, so right moves at the highest sighting are left moves at
the lowest, reflected, and the argument reflects with them: a particle that
S sights at i, with columns i + 2 and i + 3 empty, rises as the free
particle does until its upper column is n - 3, n the nearest occupied column
above it.  ``_float_off`` makes that rise in one step, and RIGGED_DEBUG=1
compares every rise with the same moves made one at a time by
``right_move``, which scans every window.

Input is validated once at entry.  Termination caps are generous
over-estimates that only trip on internal bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import configuration
from .configuration import (
    ZERO,
    AdmissibilityError,
    Configuration,
    InternalCheckError,
    _check_ints,
    _check_nonnegative,
    _weight,
    _window_maxima,
    check_level,
)
from .phases import _table


class MoveError(ValueError):
    """A move was requested that the configuration cannot perform."""


@dataclass(frozen=True, slots=True)
class ParticleSighting:
    """Column where a weight-l particle is detected, and by which functional."""

    position: int
    kind: str  # "S" or "L"; "S" preferred when both bounds are attained
    weight: int


@dataclass(frozen=True, slots=True)
class FreeParticle:
    """A weight-l particle occupying two adjacent columns with nothing above."""

    position: int
    upper_count: int
    weight: int

    def __post_init__(self) -> None:
        if not 1 <= self.upper_count <= self.weight:
            raise ValueError(f"free particle needs 1 <= c <= l, got c={self.upper_count}, l={self.weight}")

    @property
    def energy(self) -> int:
        j, c, l = self.position, self.upper_count, self.weight
        return j * c + (j + 1) * (l - c)


@dataclass(frozen=True, slots=True)
class Separation:
    """Outcome of floating the highest particle free by right moves."""

    steps: int
    free: FreeParticle
    surplus: int  # free.energy - steps; stable once the particle is free
    remainder: Configuration


def _free_columns(e: int, l: int) -> tuple[int, tuple[int, ...]]:
    """Lower column and column counts of a free weight-l particle of energy ``e``.

    Column j = e // l holds c = l - (e mod l) in 1..l, column j + 1 the rest.
    """
    j, rem = divmod(e, l)
    return j, (l - rem, rem) if rem else (l,)


class _Scratch:
    """Mutable column buffer that every move loop runs on.  Internal only.

    Keeps at least four zero columns of margin on both sides so window reads
    never go out of range, and doubles on the side that runs short (``grow``).
    """

    __slots__ = ("lo", "vals")

    MARGIN = 4

    def __init__(self, a: Configuration):
        m = self.MARGIN
        self.lo = a.offset - m
        self.vals = [0] * m + list(a.counts) + [0] * m

    def grow(self, j: int) -> int:
        """Pad ``vals`` until index ``j`` has ``MARGIN`` columns on each side; returns how far indices moved up."""
        vals, m = self.vals, self.MARGIN
        if j < m:
            pad = max(m - j, len(vals))
            vals[:0] = [0] * pad
            self.lo -= pad
            return pad
        if j >= len(vals) - m:
            vals.extend([0] * max(j + m + 1 - len(vals), len(vals)))
        return 0

    def bump(self, col: int, delta: int) -> None:
        j = col - self.lo
        j += self.grow(j)
        self.vals[j] += delta
        if self.vals[j] < 0:
            raise InternalCheckError(f"column {col} driven negative")

    def to_configuration(self, lo: int | None = None, hi: int | None = None) -> Configuration:
        """The buffer as a configuration, keeping only columns in [lo, hi]."""
        a = 0 if lo is None else max(0, lo - self.lo)
        b = len(self.vals) if hi is None else max(a, hi - self.lo + 1)
        return Configuration._trusted(self.lo + a, tuple(self.vals[a:b]))

    def transfer(self, col: int, step: int) -> None:
        """Move one unit from column ``col`` right (``step=-1``) or from ``col + 1`` left (``step=+1``)."""
        self.bump(col, step)
        self.bump(col + 1, -step)


def _sight(vals: list[int], l: int, kl: int, j: int, step: int) -> tuple[int, bool] | None:
    """Nearest window from index ``j`` on, walking by ``step``, where S = l or L = kl.

    ``j`` must be a window index, 1 <= j <= len(vals) - 3, or where the walk
    stops (0 down, len(vals) - 2 up).  Returns (index, S attained), or None
    past the end of ``vals`` or for ``l = 0``.  S is tested first, so S counts as attained when both are.
    """
    if l:
        stop = 0 if step < 0 else len(vals) - 2
        while j != stop:
            s = vals[j] + vals[j + 1]
            if s == l:
                return j, True
            if 2 * s + vals[j - 1] + vals[j + 2] == kl:
                return j, False
            j += step
    return None


def _run_length(vals: list[int], i: int, step: int, l: int, kl: int) -> int:
    """Unit moves at window ``i``, right (``step=-1``) or left (``step=+1``), that keep the sighting there.

    Each raises S and L at i - step and L at i - 2 * step by one and takes one unit from column i (right) or
    i + 1 (left), so the run lasts until one of those sums reaches its bound or that column runs out
    (module docstring).
    """
    j, h = i - step, i - 2 * step
    s = vals[j] + vals[j + 1]
    # The least of the four, compared in line: a ``min`` call made the float's loop measurably slower.
    q = vals[i + (step > 0)]
    if l - s < q:
        q = l - s
    r = kl - vals[j - 1] - 2 * s - vals[j + 2]
    if r < q:
        q = r
    r = kl - vals[h - 1] - 2 * (vals[h] + vals[h + 1]) - vals[h + 2]
    return r if r < q else q


def _unit_moves_agree(before: list[int], after: list[int], i: int, q: int, step: int, l: int, kl: int) -> bool:
    """Whether q unit moves at window i, right (``step=-1``) or left (``step=+1``), take ``before`` to ``after``.

    The run replayed one move at a time on ``before``, in place, as the kernels moved before runs: each move is
    made only once ``_sight`` from two windows on, towards i, sights window i (RIGGED_DEBUG=1).
    """
    for _ in range(q):
        found = _sight(before, l, kl, i - 2 * step, step)
        if found is None or found[0] != i:
            return False
        before[i] += step
        before[i + 1] -= step
    return before == after


def _stepped_weight(vals: list[int], k: int, l: int, top: int) -> tuple[int, tuple[int, bool]]:
    """Weight of the buffer ``vals``, nonzero with highest occupied index ``top``, given that it is at most ``l``.

    The weight is l exactly when some window has S = l or L = k + l, so it
    steps down from l until a downward ``_sight`` from the top sights a
    particle, and returns that sighting too.  A nonzero buffer has weight at least 1.
    """
    while True:
        found = _sight(vals, l, k + l, top + 1, -1)
        if found is not None:
            return l, found
        l -= 1
        if not l:
            raise InternalCheckError(f"no particle sighted in a nonzero buffer below index {top + 1}")


def _cut_scan(vals: list[int], l: int, kl: int, step: int, j: int | None = None) -> list[int]:
    """Windows, walked down (``step=-1``) or up (``step=+1``), that sight a particle once the earlier ones are cut off.

    The walk starts at window ``j``, by default the end it walks from.  Each
    sighting cuts its particle off a copy of ``vals`` by zeroing its two
    columns, and the next ``_sight`` starts one window on.  ``l = 0`` sights
    nothing.
    """
    vals, found = vals[:], []
    if j is None:
        j = len(vals) - 3 if step < 0 else 1
    while (hit := _sight(vals, l, kl, j, step)) is not None:
        j = hit[0]
        found.append(j)
        vals[j] = vals[j + 1] = 0
        j += step
    return found


def _side_step(side: str) -> int:
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return -1 if side == "right" else +1


def _leaves_class(vals: list[int], k: int, l: int) -> bool:
    """True unless the buffer ``vals`` is (k, 3)-admissible of weight at most ``l`` (one window pass)."""
    s_max, t_max, l_max = _window_maxima(vals)
    return t_max > k or s_max > l or l_max > k + l


def _require_weight_at_most(a: Configuration, k: int, l: int) -> int:
    check_level(k, l)
    w = _weight(a, k)
    if w > l:
        raise AdmissibilityError(f"{a} has weight {w}, above the cap l={l}")
    return w


def _require_weight_exact(a: Configuration, k: int, l: int) -> None:
    w = _require_weight_at_most(a, k, l)
    if l < 1:
        raise MoveError("no weight-0 particle to move")
    if w < l:
        raise MoveError(f"{a} has weight {w} < l={l}; no weight-{l} particle to move")


def _end_particle(a: Configuration, k: int, l: int, step: int) -> ParticleSighting | None:
    """The highest (``step=-1``) or lowest (``step=+1``) weight-l particle."""
    _require_weight_at_most(a, k, l)
    sc = _Scratch(a)
    found = _sight(sc.vals, l, k + l, len(sc.vals) - 3 if step < 0 else 1, step)
    return None if found is None else ParticleSighting(sc.lo + found[0], "S" if found[1] else "L", l)


def highest_particle(a: Configuration, k: int, l: int) -> ParticleSighting | None:
    """Largest column carrying a weight-l particle, or None if the weight is < l."""
    return _end_particle(a, k, l, -1)


def lowest_particle(a: Configuration, k: int, l: int) -> ParticleSighting | None:
    """Smallest column carrying a weight-l particle, or None if the weight is < l."""
    return _end_particle(a, k, l, +1)


def _end_move(a: Configuration, k: int, l: int, step: int) -> Configuration:
    """The unit transfer at the highest (``step=-1``) or lowest (``step=+1``) weight-l particle."""
    _require_weight_exact(a, k, l)
    sc = _Scratch(a)
    i, _ = _sight(sc.vals, l, k + l, len(sc.vals) - 3 if step < 0 else 1, step)
    sc.transfer(sc.lo + i, step)
    return sc.to_configuration()


def right_move(a: Configuration, k: int, l: int) -> Configuration:
    """Move the highest weight-l particle one step right; energy +1, length fixed."""
    return _end_move(a, k, l, -1)


def left_move(a: Configuration, k: int, l: int) -> Configuration:
    """Move the lowest weight-l particle one step left; energy -1, length fixed."""
    return _end_move(a, k, l, +1)


def particle_positions(a: Configuration, k: int, l: int, side: str = "right") -> list[int]:
    """Columns of all weight-l particles, located by repeated cut-off.

    ``side="right"`` cuts everything at or above each sighting and returns
    descending positions; ``side="left"`` cuts at or below (plus one column)
    and returns ascending positions.  Both procedures find the same number of
    particles.
    """
    _require_weight_at_most(a, k, l)
    step = _side_step(side)
    sc = _Scratch(a)
    return [sc.lo + j for j in _cut_scan(sc.vals, l, k + l, step)]


def move_cth(a: Configuration, k: int, l: int, c: int, side: str = "right") -> Configuration:
    """Apply the raw unit transfer at the c-th weight-l particle.

    Only safe inside the composite orders that the move calculus permits; the
    result is checked and an out-of-order call surfaces as a MoveError.
    """
    _check_ints("particle index", c)
    if c < 1:
        raise MoveError(f"particle index must be positive, got {c}")
    positions = particle_positions(a, k, l, side)
    if len(positions) < c:
        raise MoveError(f"{a} holds {len(positions)} weight-{l} particles, no particle #{c}")
    sc = _Scratch(a)
    sc.transfer(positions[c - 1], _side_step(side))
    if _leaves_class(sc.vals, k, l):
        raise MoveError(
            f"moving particle #{c} of {a} {side} leaves the admissible class; "
            "composite move order violated"
        )
    return sc.to_configuration()


def move_all(a: Configuration, k: int, l: int, side: str = "right", times: int = 1) -> Configuration:
    """Move every weight-l particle once (bottom-up composite), ``times`` times.

    One sweep applies the unit transfer at each located particle; the
    positions of the not-yet-moved particles are unaffected by the earlier
    transfers in the same sweep, so they are computed once per sweep.
    """
    _require_weight_at_most(a, k, l)
    _check_nonnegative("times", times)
    step = _side_step(side)
    sc = _Scratch(a)
    vals = sc.vals
    for _ in range(times):
        positions = [sc.lo + j for j in _cut_scan(vals, l, k + l, step)]
        if not positions:
            break
        for p in positions:
            sc.transfer(p, step)
        if _leaves_class(vals, k, l):
            raise InternalCheckError(f"sweep left the admissible class at {sc.to_configuration()}")
    return sc.to_configuration()


def free_particle(a: Configuration, k: int, l: int) -> FreeParticle | None:
    """The highest particle as a free particle, or None if it is not free.

    Free means: located by S with a nonzero upper column and nothing anywhere
    above its two columns.
    """
    p = highest_particle(a, k, l)
    c = 0 if p is None or p.kind == "L" or a.support_max > p.position + 1 else a.get(p.position)
    return FreeParticle(p.position, c, l) if c else None


def separate_highest(a: Configuration, k: int, l: int) -> Separation:
    """Right-move until the highest weight-l particle floats free, then detach it.

    Returns the move count t, the free particle, the surplus d - t (already
    stable at the first free moment), and the remainder with the particle's
    two columns and everything above them dropped.
    """
    if a.is_zero:
        raise MoveError("the zero configuration holds no particle to separate")
    _require_weight_exact(a, k, l)
    _, s, column, upper, remainder = _detach(a, k, l)
    fp = FreeParticle(column, upper, l)
    return Separation(fp.energy - s, fp, s, remainder)


def _float_off(
    sc: _Scratch, k: int, l: int, top: int, length: int, energy: int, origin: Configuration
) -> tuple[int, int, int]:
    """(weight, surplus, index i) of the highest particle of ``sc``, floated free by right moves to i and i + 1 in place.

    The nonzero buffer holds its content from index ``MARGIN`` to ``top`` and weighs at most ``l``, from which
    ``_stepped_weight`` steps down to the weight and sights the particle (RIGGED_DEBUG=1 recomputes the weight).
    ``length`` and ``energy`` are the buffer's; the surplus is the free particle's energy less the moves.  Each
    run of moves at one sighting is one step, which re-checks the four windows it raises, then walks down as
    ``_sight`` does.  A particle two zero columns below the content above it rises to three columns below that
    content in one step.  RIGGED_DEBUG=1 replays both move by move, a rise by ``right_move`` (module
    docstring).  ``origin`` names the input in errors.
    """
    vals, debug = sc.vals, configuration._DEBUG
    l, found = _stepped_weight(vals, k, l, top)
    if debug:
        s_max, _, l_max = _window_maxima(vals[sc.MARGIN - 2 : top + 3])
        if max(s_max, l_max - k) != l:
            raise InternalCheckError(
                f"remainder weight {max(s_max, l_max - k)} disagrees with the stepped weight {l}, from {origin}"
            )
    # Energy rises by one per move but stays below length * (c + 2), c the
    # column of ``top``, while the support cannot outgrow the free position,
    # so this cap is unreachable except through a bug.
    cap = length * (sc.lo + top + 2) - energy + 2
    kl = k + l
    i, by_s = found
    t = 0
    while True:
        if not i:  # window 0 is never read: the walk ends there when it sights nothing
            raise InternalCheckError(f"weight fell below l={l} after {t} right moves from {origin}")
        if by_s and vals[i] and top <= i + 1:
            return l, l * (sc.lo + i) + vals[i + 1] - t, i
        rise = 0
        if by_s and not (vals[i + 2] or vals[i + 3]):
            # Two zero columns below the content at column n: rise until the
            # particle's upper column is n - 3, at energy l * (n - 3).
            n = i + 4
            while not vals[n]:
                n += 1
            e = i * vals[i] + (i + 1) * vals[i + 1]
            rise = l * (n - 3) - e
        if rise > 0:
            before = sc.to_configuration() if debug else None
            vals[i] = vals[i + 1] = 0
            j, counts = _free_columns(e + rise, l)
            vals[j : j + len(counts)] = counts
            if before is not None:
                for _ in range(rise):
                    before = right_move(before, k, l)
                if before != sc.to_configuration():
                    raise InternalCheckError(
                        f"free rise of {rise} right moves from column {sc.lo + i} disagrees with "
                        f"single moves, from {origin}"
                    )
            t += rise
            j = n - 2
        else:
            # The run of right moves at window i (module docstring), at least one so that a fault still moves
            # and is caught; it can be longer only if column i holds more than one unit.
            q = _run_length(vals, i, -1, l, kl) if vals[i] > 1 else 1
            if q < 1:
                q = 1
            if i + 1 > top:
                top = i + 1
                sc.grow(top)
            before = vals[:] if debug else None
            vals[i] -= q
            vals[i + 1] += q
            if vals[i] < 0:
                raise InternalCheckError(f"column {sc.lo + i} driven negative")
            # Re-check the four windows the run raised (module docstring).  Windows
            # from i + 3 up read neither column and held no sighting before, so the
            # next walk starts at i + 2.
            b, c, d = vals[i + 1], vals[i + 2], vals[i + 3]
            if b + c + d > k or b + c > l or vals[i] + d + 2 * (b + c) > kl or b + vals[i + 4] + 2 * (c + d) > kl:
                raise InternalCheckError(
                    f"right move at column {sc.lo + i} left the weight-{l} admissible class, from {origin}"
                )
            if before is not None and not _unit_moves_agree(before, vals, i, q, -1, l, kl):
                raise InternalCheckError(
                    f"run of {q} right moves at column {sc.lo + i} disagrees with single moves, from {origin}"
                )
            t += q
            j = i + 2
        if t > cap:
            raise InternalCheckError(f"no free particle after {cap} right moves from {origin}")
        # Walk down from window j, holding its columns j - 1 to j + 2 in a, b, x and y.
        b, x, y = vals[j], vals[j + 1], vals[j + 2]
        while j:
            a = vals[j - 1]
            s = b + x
            if s == l or 2 * s + a + y == kl:
                break
            b, x, y = a, b, x
            j -= 1
        i, by_s = j, s == l


def _peel(a: Configuration, k: int) -> list[tuple[int, int]]:
    """(weight, surplus) of every particle of ``a``, heaviest first, all on one buffer.

    Each particle floats free by right moves (``_float_off``); the remainder
    is what lies below its free position, so zeroing its two columns in place
    leaves the remainder in the buffer.  The next particle weighs at most l,
    the weight just peeled.  Length and energy are updated, not re-summed;
    RIGGED_DEBUG=1 re-sums them.  The level ``k`` has been checked by the caller.
    """
    l = _weight(a, k)
    sc = _Scratch(a)
    vals, bottom = sc.vals, sc.MARGIN
    top = len(vals) - bottom - 1
    length, energy = a.length(), a.energy()
    peeled = []
    while top >= bottom:
        if configuration._DEBUG and (sum(vals), sum((sc.lo + j) * c for j, c in enumerate(vals))) != (length, energy):
            raise InternalCheckError(f"running length {length} and energy {energy} disagree with the buffer, from {a}")
        l, s, i = _float_off(sc, k, l, top, length, energy, a)
        peeled.append((l, s))
        length, energy = length - l, energy - s
        vals[i] = vals[i + 1] = 0
        top = i - 1
        while top >= bottom and not vals[top]:
            top -= 1
    return peeled


def _detach(a: Configuration, k: int, l: int) -> tuple[int, int, int, int, Configuration]:
    """(weight, surplus, column, upper count, remainder below it) of the highest particle of ``a``, floated free.

    ``a`` is nonzero and admissible of weight at most ``l``.
    """
    sc = _Scratch(a)
    l, s, i = _float_off(sc, k, l, len(sc.vals) - sc.MARGIN - 1, a.length(), a.energy(), a)
    return l, s, sc.lo + i, sc.vals[i], sc.to_configuration(a.offset, sc.lo + i - 1)


def build_free_configuration(l: int, energies: list[int], k: int) -> Configuration:
    """Superpose free weight-l particles at the given energies.

    Each energy d determines a unique column j = d // l and upper count
    c = l - (d mod l) in 1..l (``_free_columns``).  Energies must descend by
    at least the self-phase A(l, l) so the particles neither collide nor
    interact.
    """
    check_level(k, l)
    if l < 1:
        raise ValueError("free particles need positive weight")
    _check_ints("energy", *energies)
    gap = _table(k)[l][l]
    for d, d_next in zip(energies, energies[1:]):
        if d - d_next < gap:
            raise ValueError(
                f"free-particle energies must descend by at least {gap}, got {d} then {d_next}"
            )
    if not energies:
        return ZERO
    lo = energies[-1] // l
    vals = [0] * (energies[0] // l + 2 - lo)
    for d in energies:
        j, counts = _free_columns(d - l * lo, l)
        vals[j : j + len(counts)] = counts
    return Configuration._trusted(lo, tuple(vals))


def _settle(sc: _Scratch, k: int, l: int, times: int, expected: int | None, start: int = 1) -> None:
    """Apply ``times`` full bottom-up left sweeps to the weight-l particles in ``sc``, in place, lowest particle first.

    A cut-scan of the windows from index ``start`` up, none below which may sight a particle, locates the
    particles; ``expected``, if given, is how many it must find.  Each then makes all ``times`` of its left moves
    with the one below cut off at its last sighting: a run of moves at one sighting or, once two zero columns
    clear it below, a fall, in one step (module docstring).  Each must still be the first sighting above the cut
    when it starts; once all have settled, nothing may be sighted above the last and the first must be the lowest
    sighting.  RIGGED_DEBUG=1 compares the result with ``times`` sweeps of ``move_all``.
    """
    if not times:
        return
    before = sc.to_configuration() if configuration._DEBUG else None
    vals, m, kl = sc.vals, sc.MARGIN, k + l
    found = [sc.lo + p for p in _cut_scan(vals, l, kl, +1, start)]
    start += sc.lo
    if expected is not None and len(found) != expected:
        raise InternalCheckError(f"expected {expected} weight-{l} particles before settling, found {len(found)}")
    c, cut = -2, (0, 0)  # the cut, index -2 while there is none, and its two columns
    for col in found:
        i, left = col - sc.lo, times
        if c >= 0:
            # The cut-scan before settling found this particle at i: it must still be the first sighting above the cut.
            hit = _sight(vals, l, kl, c + 1, +1)
            if hit is None or hit[0] != i:
                raise InternalCheckError(
                    f"weight-{l} particle at column {col} is not the first sighting above the one settled below it"
                )
        while True:
            if i < m:  # never once a cut exists: the cut is a settled particle's index, at least m, and i > c
                i += sc.grow(i)
            if not left:
                break
            s = vals[i] + vals[i + 1]
            if s == l and not (vals[i - 1] or vals[i - 2]):
                # Fall while the particle stays two zero columns above the nearest occupied column x below it, or
                # above column c + 1 of the cut, reading columns only down to where it could land.
                e = i * s + vals[i + 1]
                stop = (e - left) // l - 2
                x = i - 3 if i - 3 > c + 1 else c + 1
                while x >= stop and x > c + 1 and not vals[x]:
                    x -= 1
                d = left if x < stop else min(left, e - l * (x + 3))
                if d > 0:
                    vals[i] = vals[i + 1] = 0
                    j, counts = _free_columns(e - d, l)
                    vals[j : j + len(counts)] = counts
                    left -= d
                    i = (e - d - 1) // l
                    continue
            # The run of left moves at window i: the least of the units in column i + 1 and the room left in S and L
            # at i - 1 and L at i - 2, windows below the cut not counted, compared in line as ``_run_length`` does.
            q = vals[i + 1]
            if left < q:
                q = left
            if i - 1 > c:
                s = vals[i - 1] + vals[i]
                if l - s < q:
                    q = l - s
                r = kl - vals[i - 2] - 2 * s - vals[i + 1]
                if r < q:
                    q = r
                if i - 2 > c:
                    r = kl - vals[i - 3] - 2 * (vals[i - 2] + vals[i - 1]) - vals[i]
                    if r < q:
                        q = r
            if q < 1:  # at least one, so that a fault still moves and is caught
                q = 1
            r = vals[i + 1] - q
            if r < 0:
                raise InternalCheckError(f"column {sc.lo + i + 1} driven negative")
            vals[i] += q
            vals[i + 1] = r
            left -= q
            # Window i still sights, and none below i - 2 can (module docstring).
            j = i - 2 if i - 2 > c else c + 1
            while j < i:
                s = vals[j] + vals[j + 1]
                if s == l or 2 * s + vals[j - 1] + vals[j + 2] == kl:
                    break
                j += 1
            i = j
        if c >= 0:
            # The cut's two columns come back as they were cut: no unit may have moved into them (module docstring).
            if vals[c] or vals[c + 1]:
                raise InternalCheckError(
                    f"weight-{l} particle sighted at column {col} moved units into the cut at column {sc.lo + c}"
                )
            vals[c], vals[c + 1] = cut
        else:
            first = sc.lo + i
        c, cut = i, (vals[i], vals[i + 1])
        vals[c] = vals[c + 1] = 0
    if c >= 0:
        if _sight(vals, l, kl, c + 1, +1) is not None:
            raise InternalCheckError(f"a weight-{l} particle is sighted above the last one settled")
        vals[c], vals[c + 1] = cut
        # Windows below both ``start`` and the first particle's last sighting less two read unmoved columns.
        hit = _sight(vals, l, kl, max(1, min(start, first - 2) - sc.lo), +1)
        if hit is None or hit[0] != first - sc.lo:
            raise InternalCheckError(f"the first weight-{l} particle settled is not the lowest sighting")
    if before is not None and move_all(before, k, l, "left", times) != sc.to_configuration():
        raise InternalCheckError(
            f"settling {len(found)} weight-{l} particles by {times} sweeps disagrees with full cut-scan sweeps, "
            f"from {before}"
        )


def left_sweeps(b: Configuration, k: int, l: int, times: int) -> Configuration:
    """Apply ``times`` full bottom-up left sweeps to the weight-l particles of ``b`` (see ``_settle``)."""
    _require_weight_at_most(b, k, l)
    _check_nonnegative("times", times)
    sc = _Scratch(b)
    _settle(sc, k, l, times, None)
    return sc.to_configuration()


def _drop_groups(base: Configuration, k: int, groups: Iterable[tuple[int, list[int]]], extra: int) -> Configuration:
    """``base`` with each group (l, ascending surpluses) of weight-l particles dropped in and settled, in turn.

    Each group starts free at energies surplus + t, t the fewest sweeps that put it three columns clear above
    the lighter content so far, plus ``extra``; t sweeps (``_settle``) bring each particle down to its surplus.
    """
    sc = _Scratch(base)
    vals = sc.vals
    top = -3 if base.is_zero else base.support_max  # -3 starts groups on an empty base at columns >= 0
    for l, surpluses in groups:
        t = max(0, l * (top + 3) - surpluses[0]) + extra
        # The group's free particles lie A(l, l) >= 2l apart, in empty columns: grow once, then write them.
        vals.extend([0] * ((surpluses[-1] + t) // l + 2 + sc.MARGIN - sc.lo - len(vals)))
        for s in surpluses:
            j, counts = _free_columns(s + t, l)
            j -= sc.lo
            vals[j : j + len(counts)] = counts
        # Windows up to the old top read only lighter content, which sights no weight-l particle.
        _settle(sc, k, l, t, len(surpluses), top - sc.lo + 1)
        top = (surpluses[-1] + t) // l + 1  # sweeps only lower the top
        while not vals[top - sc.lo]:
            top -= 1
    return sc.to_configuration(hi=top)


# -- passing a heavy probe ---------------------------------------------------


def _descend(
    a: Configuration, k: int, l: int, probe_column: int, record: bool
) -> tuple[list[tuple[str, int, Configuration]], Configuration]:
    """Drop a weight-l probe from ``probe_column`` through nonzero ``a`` by runs of left moves.

    Records a node the first time the probe's position reaches each column
    from top + 1 (``top`` is the highest column of ``a``) down, unless
    ``record`` is off; nodes above that depend on ``probe_column``.  Stops as
    soon as the probe sits fully below the rest with a two-column gap; what
    lies above it then is the passed configuration.  RIGGED_DEBUG=1 replays
    each run move by move (``_unit_moves_agree``).
    """
    top, low = a.support_max, a.support_min
    sc = _Scratch(a)
    sc.bump(probe_column, l)
    vals, kl, debug = sc.vals, k + l, configuration._DEBUG
    nodes: list[tuple[str, int, Configuration]] = []
    last_pos: int | None = None
    cap = l * (probe_column - low + 3 * (a.length() + 2) + 10) + 10
    moved = 0
    while moved <= cap:
        found = _sight(vals, l, kl, 1 if last_pos is None else last_pos - 2 - sc.lo, +1)
        if found is None:
            raise InternalCheckError("probe vanished during descent")
        i = found[0]
        pos, kind = sc.lo + i, "S" if found[1] else "L"
        if pos != last_pos:
            last_pos = pos
            # Stop once the probe is isolated: nothing below it, a two-column
            # gap above it, and everything above too light to interact.  The
            # isolated state is not part of the recorded history.
            if not (low < pos or vals[i + 2] or vals[i + 3]):
                rest = sc.to_configuration(lo=pos + 2)
                if _weight(rest, k) < l:
                    return nodes, rest
            if record and pos <= top + 1:
                nodes.append((kind, pos, sc.to_configuration()))
        if low > pos:  # a move at window i fills column i, the lowest a run can reach
            low = pos
        if i < sc.MARGIN:
            i += sc.grow(i)
        # The run of left moves at window i, at least one so that a fault still moves and is caught; it can
        # be longer only if column i + 1 holds more than one unit.
        q = _run_length(vals, i, +1, l, kl) if vals[i + 1] > 1 else 1
        if q < 1:
            q = 1
        before = vals[:] if debug else None
        vals[i] += q
        vals[i + 1] -= q
        if vals[i + 1] < 0:
            raise InternalCheckError(f"column {pos + 1} driven negative")
        if before is not None and not _unit_moves_agree(before, vals, i, q, +1, l, kl):
            raise InternalCheckError(f"run of {q} left moves at column {pos} disagrees with single moves")
        moved += q
    raise InternalCheckError(f"probe failed to pass {a} within {cap} moves")


def _pass(a: Configuration, k: int, l: int, record: bool) -> tuple[list[tuple[str, int, Configuration]], Configuration]:
    """``passing_history``, with the nodes left empty unless ``record`` is on; RIGGED_DEBUG=1 re-drops the probe."""
    check_level(k, l)
    if l < 1:
        raise ValueError("the probe needs positive weight")
    w = _weight(a, k)
    if w >= l:
        raise AdmissibilityError(f"passing needs weight below l={l}, but {a} has weight {w}")
    if a.is_zero:
        return [], ZERO
    probe_column = a.support_max + 4
    nodes, result = _descend(a, k, l, probe_column, record)
    if configuration._DEBUG:
        nodes2, result2 = _descend(a, k, l, probe_column + 1, record)
        if result2 != result:
            raise InternalCheckError(f"passing result depends on the placement column: {result} vs {result2}")
        if nodes2 != nodes:
            raise InternalCheckError("passing history depends on the placement column")
    return nodes, result


def passing_history(a: Configuration, k: int, l: int) -> tuple[list[tuple[str, int, Configuration]], Configuration]:
    """Pass a weight-l probe through ``a`` and return (nodes, result).

    Nodes are (kind, position, configuration) triples, one per position the
    probe visits on its way down from the meeting column top + 1 (``top`` is
    the highest occupied column of ``a``).  Nodes and result are independent
    of where the probe was dropped from; with RIGGED_DEBUG=1 that
    independence is rechecked from one column higher.
    """
    return _pass(a, k, l, True)


def pass_particle(a: Configuration, k: int, l: int) -> Configuration:
    """What a configuration of weight below l becomes after a weight-l probe passes it (no history recorded)."""
    return _pass(a, k, l, False)[1]
