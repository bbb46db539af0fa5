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
sighting.  ``_cut_scan`` scans given windows in order and cuts each sighted
particle off a copy by zeroing its two columns, so each sighting locates the
next particle: every window it reads afterwards lies on the near side of the
cut.  A single move copies a configuration into a buffer, sights the end
particle and bumps two columns.  The long-running procedures keep one buffer
for their whole run:

- Floating the highest particle free by right moves (``_float_free``).
  A unit moved from column i to i + 1 raises only the windows that weigh
  column i + 1 above column i: the 3-window and S at i + 1 and L at i + 1
  and i + 2.  Every other window loses value or keeps it, so re-checking
  these four is as strong as re-checking everything, and the inline walk to
  the next sighting starts just above them.  The forward map peels every
  particle off one buffer this way: once a particle is free, zeroing its two
  columns leaves the remainder in place.  The remainder weighs at most the
  peeled particle, so its weight steps down from there, one downward
  ``_sight`` per step, and the float starts at the first sighting.
- Settling particles with full bottom-up left sweeps (``_settle``), each one
  pass of ``_sweep``: the first over every window that may sight a particle,
  each later one over only the windows q - 2, q - 1 and q of each sighting q
  of the previous sweep.  That is exact.  Weight at most l means S <= l and
  L <= k + l everywhere, and a cut only lowers window sums, so only a window
  whose uncut S or L attains its bound can be sighted.  The left move at q
  raises S and L at q - 1 and L at q - 2, keeps S and L at q and S at q +- 2,
  and lowers S and L at q + 1 and L at q + 2 by one.  So no window w outside
  every {q - 2, q - 1, q} rose, and a sum of w at its bound but unsighted was
  masked by a cut at a sighting q' < w: it read column q' or q' + 1, so it is
  S or L at q' + 1 or L at q' + 2, which the move at q' lowered.
  The pass cuts nothing: a cut at c zeroes columns c and c + 1, which of the
  later windows only c + 1 and c + 2 read, so it reads them there as zero.
  It moves each sighting c when found, as no later window reads columns c
  and c + 1 unmasked.  Isolation (below) is judged on the columns before the
  sweep, and a sighting p can be isolated only if the one before lies below
  p - 4: with columns p - 3 to p - 1 empty, window p - 3 or p - 2 sights
  nothing, window p - 1 only with l units in column p, which leaves window p
  nothing to sight, and window p - 4 only with l units in column p - 4, which
  window p - 5 sights first.  RIGGED_DEBUG=1 compares each sweep with a full
  cut-scan made before it.
- Passing a heavy probe down through a lighter configuration from far above,
  one unit left move in place per step; only a move at the buffer's low
  margin goes through ``bump``, which grows the buffer.

Free flight.  A weight-l particle is *isolated* when all l of its units lie
in two adjacent columns with three zero columns on each side.  A window
reads four adjacent columns, so no window reads both it and anything else,
and a window that reads only the rest reads the same values as if the
particle were absent.  Alone, the particle of energy e sits where
``build_free_configuration`` lays it out: column e // l holds l - e mod l,
the next column the rest.  A left sweep sights it at column (e - 1) // l
and a right scan at e // l, and the unit transfer there yields the layout
of energy e - 1 or e + 1.  So while it stays isolated a run of moves is one
arithmetic step.  It stays isolated as long as it keeps three zero columns
from the nearest occupied column in the direction it moves: content it
moves away from only falls further behind.  Content that never moves caps
the run at the last energy keeping that clearance.  In a sweep the particle
below may itself be an isolated particle falling at the same rate; their
column gap then only depends on the residue of the energies mod l, so a
pair clear for every residue (energy gap at least 5l - 1) never constrains
the fall, and any other pair can fall until the upper energy is a multiple
of l.  ``_settle`` jumps when every sighting of a sweep is isolated, and
``_float_free`` jumps when the particle it is floating is isolated below
lighter content.  RIGGED_DEBUG=1 compares every jump with the same moves made
one at a time by ``move_all`` and ``right_move``, which scan every window.

Input is validated once at entry.  Termination caps are generous
over-estimates that only trip on internal bugs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from .configuration import (
    ZERO,
    AdmissibilityError,
    Configuration,
    _check_ints,
    _check_nonnegative,
    _window_maxima,
    check_level,
    weight,
)
from .phases import phase


class MoveError(ValueError):
    """A move was requested that the configuration cannot perform."""


class InternalCheckError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


def _debug_enabled() -> bool:
    return os.environ.get("RIGGED_DEBUG", "") == "1"


@dataclass(frozen=True)
class ParticleSighting:
    """Column where a weight-l particle is detected, and by which functional."""

    position: int
    kind: str  # "S" or "L"; "S" preferred when both bounds are attained
    weight: int


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    never go out of range, and doubles on the side that runs short.
    """

    __slots__ = ("lo", "vals")

    MARGIN = 4

    def __init__(self, a: Configuration):
        m = self.MARGIN
        self.lo = a.offset - m
        self.vals = [0] * m + list(a.counts) + [0] * m

    def bump(self, col: int, delta: int) -> None:
        j = col - self.lo
        m = self.MARGIN
        if j < m:
            pad = max(m - j, len(self.vals))
            self.vals[:0] = [0] * pad
            self.lo -= pad
            j += pad
        elif j >= len(self.vals) - m:
            self.vals.extend([0] * max(j + m + 1 - len(self.vals), len(self.vals)))
        self.vals[j] += delta
        if self.vals[j] < 0:
            raise InternalCheckError(f"column {col} driven negative")

    def place(self, e: int, l: int) -> None:
        """Add a free weight-l particle of energy ``e``."""
        j, counts = _free_columns(e, l)
        for c in counts:
            self.bump(j, c)
            j += 1

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

    ``j`` must be a window index, 1 <= j <= len(vals) - 3.  Returns (index, S
    attained), or None past the end of ``vals`` or for ``l = 0``.  S is tested
    first, so S counts as attained when both are.
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


def _cut_scan(vals: list[int], windows: Iterable[int], l: int, kl: int) -> list[int]:
    """Indices of ``windows``, scanned in order, that sight a particle once the earlier ones are cut off.

    Each sighting cuts its particle off a copy of ``vals`` by zeroing its two
    columns.  ``l = 0`` sights nothing.
    """
    if not l:
        return []
    vals, found = vals[:], []
    for j in windows:
        s = vals[j] + vals[j + 1]
        if s == l or 2 * s + vals[j - 1] + vals[j + 2] == kl:
            found.append(j)
            vals[j] = vals[j + 1] = 0
    return found


def _sweep(vals: list[int], last: Iterable[int], l: int, kl: int, lo: int) -> tuple[list[int], bool]:
    """One left sweep in place over the windows q - 2, q - 1 and q of each q >= 3 of ascending ``last``.

    Returns the indices ``_cut_scan`` of those windows would sight, each moved left when sighted, and whether
    each was isolated (module docstring).  ``a``, ``b``, ``x`` and ``y`` hold the masked columns j - 1 to j + 2
    of window j; ``lo`` names columns in errors.
    """
    found, isolated = [], True
    c = j = -9  # the last sighting and the next window to read
    for q in last:
        if j < q - 2:  # a jump, so no sighting at j - 1 and none but one at j - 2 masks a column
            j = q - 2
            a, b, x = (0 if c == j - 2 else vals[j - 1]), vals[j], vals[j + 1]
        while j <= q:
            y = vals[j + 2]
            s = b + x
            if s == l or 2 * s + a + y == kl:
                if isolated:
                    isolated = c < j - 4 and s == l and not (a or y or vals[j - 2] or vals[j + 3] or vals[j - 3] or vals[j + 4])
                if not x:
                    raise InternalCheckError(f"column {lo + j + 1} driven negative")
                vals[j] += 1
                vals[j + 1] = x - 1
                found.append(j)
                c = j
                b = x = 0
            a, b, x = b, x, y
            j += 1
    return found, isolated


def _every_window(vals: list[int], step: int) -> range:
    """Every window index of ``vals``, descending (``step=-1``) or ascending (``step=+1``)."""
    return range(len(vals) - 3, 0, -1) if step < 0 else range(1, len(vals) - 2)


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
    w = weight(a, k)
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
    return [sc.lo + j for j in _cut_scan(sc.vals, _every_window(sc.vals, step), l, k + l)]


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
        positions = [sc.lo + j for j in _cut_scan(vals, _every_window(vals, step), l, k + l)]
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
    _require_weight_at_most(a, k, l)
    if a.is_zero:
        return None
    sc = _Scratch(a)
    top = len(sc.vals) - sc.MARGIN - 1
    found = _sight(sc.vals, l, k + l, top, -1)
    if found is None:
        return None
    i, by_s = found
    c = sc.vals[i]
    return FreeParticle(sc.lo + i, c, l) if by_s and c and top <= i + 1 else None


def _float_free(sc: _Scratch, k: int, l: int, top: int, length: int, energy: int, origin: Configuration, debug: bool,
                found: tuple[int, bool] | None) -> tuple[int, int]:
    """Right-move the highest weight-l particle in place until it floats free, replaying each jump under ``debug``.

    ``top`` is the buffer index of the highest occupied column, ``found`` the
    downward ``_sight`` of the particle from there, the buffer has weight
    exactly l, and ``length`` and ``energy`` are the buffer's.  Returns the
    move count and the index of the free particle's lower column.  Each move
    re-checks the four windows it raises, then walks down as ``_sight`` does.
    An isolated particle below lighter content rises to four columns below it
    in one step (module docstring).  ``origin`` names the input in errors.
    """
    vals = sc.vals
    # Energy rises by one per move but stays below length * (c + 2), c the
    # column of ``top``, while the support cannot outgrow the free position,
    # so this cap is unreachable except through a bug.
    cap = length * (sc.lo + top + 2) - energy + 2
    kl = k + l
    i, by_s = found or (0, False)  # window 0 is never read: index 0 stands for no sighting
    t = 0
    while True:
        if not i:
            raise InternalCheckError(f"weight fell below l={l} after {t} right moves from {origin}")
        if by_s and vals[i] and top <= i + 1:
            return t, i
        rise = 0
        if by_s and not (vals[i - 1] or vals[i + 2] or vals[i - 2] or vals[i + 3] or vals[i - 3] or vals[i + 4]):
            # Isolated below lighter content at column n: rise until the
            # particle's upper column is n - 4, at energy l * (n - 4).
            n = i + 5
            while not vals[n]:
                n += 1
            e = i * vals[i] + (i + 1) * vals[i + 1]
            rise = l * (n - 4) - e
        if rise > 0:
            before = sc.to_configuration() if debug else None
            vals[i] = vals[i + 1] = 0
            sc.place(e + rise + l * sc.lo, l)
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
            vals[i] -= 1
            vals[i + 1] += 1
            if vals[i] < 0:
                raise InternalCheckError(f"column {sc.lo + i} driven negative")
            if i + 1 > top:
                top = i + 1
                if top + sc.MARGIN >= len(vals):
                    vals.extend([0] * len(vals))
            # Re-check the four windows the move raised (module docstring).  Windows
            # from i + 3 up read neither column and held no sighting before, so the
            # next walk starts at i + 2.
            b, c, d = vals[i + 1], vals[i + 2], vals[i + 3]
            if b + c + d > k or b + c > l or vals[i] + d + 2 * (b + c) > kl or b + vals[i + 4] + 2 * (c + d) > kl:
                raise InternalCheckError(
                    f"right move at column {sc.lo + i} left the weight-{l} admissible class, from {origin}"
                )
            j = i + 2
            t += 1
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


def separate_highest(a: Configuration, k: int, l: int) -> Separation:
    """Right-move until the highest weight-l particle floats free, then detach it.

    Returns the move count t, the free particle, the surplus d - t (already
    stable at the first free moment), and the remainder with the particle's
    two columns and everything above them dropped.
    """
    if a.is_zero:
        raise MoveError("the zero configuration holds no particle to separate")
    _require_weight_exact(a, k, l)
    sc = _Scratch(a)
    top = len(sc.vals) - sc.MARGIN - 1
    t, i = _float_free(sc, k, l, top, a.length(), a.energy(), a, _debug_enabled(), _sight(sc.vals, l, k + l, top, -1))
    fp = FreeParticle(sc.lo + i, sc.vals[i], l)
    return Separation(t, fp, fp.energy - t, sc.to_configuration(hi=fp.position - 1))


def _float_off(
    sc: _Scratch, k: int, l: int, top: int, length: int, energy: int, origin: Configuration, debug: bool
) -> tuple[int, int, int]:
    """(weight, surplus, index i) of the highest particle of ``sc``, floated free to indices i and i + 1 in place.

    The nonzero buffer holds its content from index ``MARGIN`` to ``top`` and weighs at most ``l``, from which
    ``_stepped_weight`` steps down (RIGGED_DEBUG=1 recomputes the weight).  The surplus is the energy less the moves.
    """
    l, found = _stepped_weight(sc.vals, k, l, top)
    if debug:
        s_max, _, l_max = _window_maxima(sc.vals[sc.MARGIN - 2 : top + 3])
        if max(s_max, l_max - k) != l:
            raise InternalCheckError(
                f"remainder weight {max(s_max, l_max - k)} disagrees with the stepped weight {l}, from {origin}"
            )
    t, i = _float_free(sc, k, l, top, length, energy, origin, debug, found)
    return l, l * (sc.lo + i) + sc.vals[i + 1] - t, i


def _peel(a: Configuration, k: int) -> list[tuple[int, int]]:
    """(weight, surplus) of every particle of ``a``, heaviest first, all on one buffer.

    Each particle floats free by right moves (``_float_off``); the remainder
    is what lies below its free position, so zeroing its two columns in place
    leaves the remainder in the buffer.  The next particle weighs at most l,
    the weight just peeled.  Length and energy are updated, not re-summed;
    RIGGED_DEBUG=1 re-sums them.
    """
    l = weight(a, k)
    sc = _Scratch(a)
    vals, bottom = sc.vals, sc.MARGIN
    top = len(vals) - bottom - 1
    length, energy = a.length(), a.energy()
    debug = _debug_enabled()
    peeled = []
    while top >= bottom:
        if debug and (sum(vals), sum((sc.lo + j) * c for j, c in enumerate(vals))) != (length, energy):
            raise InternalCheckError(f"running length {length} and energy {energy} disagree with the buffer, from {a}")
        l, s, i = _float_off(sc, k, l, top, length, energy, a, debug)
        peeled.append((l, s))
        length, energy = length - l, energy - s
        vals[i] = vals[i + 1] = 0
        top = i - 1
        while top >= bottom and not vals[top]:
            top -= 1
    return peeled


def _detach(a: Configuration, k: int, debug: bool) -> tuple[int, int, Configuration]:
    """(weight, surplus, remainder below it) of the highest particle of a nonzero admissible ``a``, floated free."""
    sc = _Scratch(a)
    # An admissible configuration has weight at most k: S and L - k are each at most a 3-window sum.
    l, s, i = _float_off(sc, k, k, len(sc.vals) - sc.MARGIN - 1, a.length(), a.energy(), a, debug)
    return l, s, sc.to_configuration(a.offset, sc.lo + i - 1)


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
    gap = phase(k, l, l)
    for d, d_next in zip(energies, energies[1:]):
        if d - d_next < gap:
            raise ValueError(
                f"free-particle energies must descend by at least {gap}, got {d} then {d_next}"
            )
    result = ZERO
    for d in energies:
        result = result.superposed(Configuration._trusted(*_free_columns(d, l)))
    return result


def _fall(vals: list[int], l: int, found: list[int], energies: list[int], left: int) -> int:
    """Sweeps, at most ``left``, that the isolated particles sighted at ``found`` fall freely.

    ``energies`` are theirs in buffer indices, ascending like ``found``.  Each
    particle must stay three zero columns above the nearest occupied column
    below it (module docstring), so only columns down to where the particle
    could land are read, and no column of a sighted particle: the particle
    sighted below at q holds a unit in column q + 1 until its left move there,
    so the read ends at q + 1, and the columns may hold this sweep's moves.
    """
    d = left
    for n, (p, e) in enumerate(zip(found, energies)):
        c, stop, below = p - 4, max((e - d) // l - 3, 0), found[n - 1] + 1 if n else -1
        while c > below and c >= stop and not vals[c]:
            c -= 1
        if c < stop:
            continue
        if c == below:
            if e - energies[n - 1] < 5 * l - 1:
                d = min(d, e % l)
        else:
            d = min(d, e - l * (c + 4))
    return d


def _settle(sc: _Scratch, k: int, l: int, times: int, expected: int | None, debug: bool, start: int = 1) -> None:
    """Apply ``times`` full bottom-up left sweeps to the weight-l particles in ``sc``, in place (``_sweep``).

    The first sweep reads the windows from index ``start`` up, none below which may sight a particle.  When
    every sighting of a sweep is isolated, the particles fall on by as many sweeps as keeps them isolated,
    counting that one, in one step (module docstring).  With ``debug`` every sweep is compared with a
    cut-scan of every window, and every fall with as many sweeps of ``move_all``.
    """
    vals, m, kl = sc.vals, sc.MARGIN, k + l
    found, left = range(start + 2, len(vals) - 2), times
    while left > 0:
        full = _cut_scan(vals, _every_window(vals, +1), l, kl) if debug else None
        found, isolated = _sweep(vals, found, l, kl, sc.lo)
        if full is not None and full != found:
            raise InternalCheckError(
                f"sweep sighted weight-{l} particles at {[sc.lo + p for p in found]}, "
                f"the full scan at {[sc.lo + p for p in full]}"
            )
        if expected is not None and len(found) != expected:
            raise InternalCheckError(
                f"expected {expected} weight-{l} particles during sweep, found {len(found)}"
            )
        if found and found[0] < m:
            pad = len(vals)
            vals[:0] = [0] * pad
            sc.lo -= pad
            found = [p + pad for p in found]
        if isolated:
            # Each particle has made this sweep's move: its energy before the sweep is one more.
            energies = [p * vals[p] + (p + 1) * vals[p + 1] + 1 for p in found]
            d = _fall(vals, l, found, energies, left)
            if d > 1:
                before = sc.to_configuration() if debug else None
                lo = sc.lo
                for p in found:
                    vals[p] = vals[p + 1] = 0
                for e in energies:
                    sc.place(e - d + l * lo, l)
                if before is not None and move_all(before, k, l, "left", d - 1) != sc.to_configuration():
                    raise InternalCheckError(
                        f"free fall of {d} sweeps of weight-{l} particles at {[lo + p for p in found]} "
                        "disagrees with single sweeps"
                    )
                # The last of the d sweeps sighted each particle at (e - d) // l.
                found = [(e - d) // l + lo - sc.lo for e in energies]
                left -= d
                continue
        left -= 1


def left_sweeps(b: Configuration, k: int, l: int, times: int, expected: int | None = None) -> Configuration:
    """Apply ``times`` full bottom-up left sweeps to the weight-l particles of ``b`` (see ``_settle``).

    ``expected``, when given, is the number of particles every sweep must sight.
    """
    _require_weight_at_most(b, k, l)
    _check_nonnegative("times", times)
    sc = _Scratch(b)
    _settle(sc, k, l, times, expected, _debug_enabled())
    return sc.to_configuration()


def _drop_groups(
    base: Configuration, k: int, groups: Iterable[tuple[int, list[int]]], extra: int, debug: bool
) -> Configuration:
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
        _settle(sc, k, l, t, len(surpluses), debug, top - sc.lo + 1)
        top = (surpluses[-1] + t) // l + 1  # sweeps only lower the top
        while not vals[top - sc.lo]:
            top -= 1
    return sc.to_configuration(hi=top)


# -- passing a heavy probe ---------------------------------------------------


def _descend(a: Configuration, k: int, l: int, probe_column: int, record: bool) -> tuple[list[tuple[str, int, Configuration]], Configuration]:
    """Drop a weight-l probe from ``probe_column`` through nonzero ``a`` by left moves.

    Records a node the first time the probe's position reaches each column
    from top + 1 (``top`` is the highest column of ``a``) down, unless
    ``record`` is off; nodes above that depend on ``probe_column``.  Stops as
    soon as the probe sits fully below the rest with a two-column gap; what
    lies above it then is the passed configuration.
    """
    top = a.support_max
    sc = _Scratch(a)
    sc.bump(probe_column, l)
    vals, kl = sc.vals, k + l
    nodes: list[tuple[str, int, Configuration]] = []
    last_pos: int | None = None
    min0 = min(0, a.support_min if not a.is_zero else 0)
    cap = l * (probe_column - min0 + 3 * (a.length() + 2) + 10) + 10
    for _ in range(cap + 1):
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
            if not (any(vals[:i]) or vals[i + 2] or vals[i + 3]):
                rest = sc.to_configuration(lo=pos + 2)
                if weight(rest, k) < l:
                    return nodes, rest
            if record and pos <= top + 1:
                nodes.append((kind, pos, sc.to_configuration()))
        if i < sc.MARGIN:
            sc.transfer(pos, +1)
            continue
        vals[i] += 1
        vals[i + 1] -= 1
        if vals[i + 1] < 0:
            raise InternalCheckError(f"column {pos + 1} driven negative")
    raise InternalCheckError(f"probe failed to pass {a} within {cap} moves")


def _pass(a: Configuration, k: int, l: int, record: bool, debug: bool) -> tuple[list[tuple[str, int, Configuration]], Configuration]:
    """``passing_history``, with the nodes left empty unless ``record`` is on; ``debug`` re-drops the probe."""
    check_level(k, l)
    if l < 1:
        raise ValueError("the probe needs positive weight")
    w = weight(a, k)
    if w >= l:
        raise AdmissibilityError(f"passing needs weight below l={l}, but {a} has weight {w}")
    if a.is_zero:
        return [], ZERO
    probe_column = max(3, a.support_max + 4)
    nodes, result = _descend(a, k, l, probe_column, record)
    if debug:
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
    return _pass(a, k, l, True, _debug_enabled())


def pass_particle(a: Configuration, k: int, l: int) -> Configuration:
    """What a configuration of weight below l becomes after a weight-l probe passes it (no history recorded)."""
    return _pass(a, k, l, False, _debug_enabled())[1]
