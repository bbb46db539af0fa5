"""Executable verification of the combinatorial identities.

Every check compares two quantities produced by deliberately disjoint code
paths (enumeration against series algebra, forward map against membership
predicates) and reports the outcome with a minimal witness on failure.  All
comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, Iterable

from .bijection import EMPTY, RiggedPartition, _counts, _surpluses, iota, kappa
from .characters import (
    RestrictedSet,
    _fits_ceilings,
    _floor_difference_sets,
    _member,
    chi_closed,
    config_sum,
    enumerate_rigged,
    floor_for,
    initial_columns_set,
    rigged_sum,
    weighted_config_sum,
)
from . import configuration
from .configuration import ZERO, Configuration, InternalCheckError, _check_ints, _check_nonnegative, _weight
from .configuration import check_level, enumerate_configurations
from .moves import _detach, _drop_groups, pass_particle, passing_history, right_move
from .phases import _load, _quadratic_form, _rise, _table
from .qseries import QPolynomial, _over_one_minus


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Outcome of one identity or property check: it passes exactly when it carries no mismatch witness."""

    name: str
    parameters: dict
    lhs: str | None = None
    rhs: str | None = None
    first_mismatch: str | None = None

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "first_mismatch": self.first_mismatch,
        }

    def __str__(self) -> str:
        params = " ".join(f"{key}={val}" for key, val in self.parameters.items())
        status = "PASS" if self.passed else f"FAIL ({self.first_mismatch})"
        return f"{self.name} {params}: {status}"


@lru_cache(maxsize=None)
def _iota(counts: tuple[int, ...], k: int) -> RiggedPartition:
    """Cached ``iota(Configuration(0, counts), k)`` for admissible canonical ``counts``.

    The key is the translation class: every configuration reads its image
    through ``_image``, which shifts this one.  A miss floats only the
    highest particle free (``moves._detach``) and looks up what lies below it,
    which the grid has usually mapped already.  Its new part is checked
    against the first part of that image only: the check is inductive, since
    every image in the cache passed it against its own first part when it was
    built, and a shift keeps the order, so the whole partition is as ordered
    as ``RiggedPartition`` demands.
    """
    if not counts:
        return EMPTY
    # An admissible configuration has weight at most k: S and L - k are each at most a 3-window sum.
    l, surplus, _, _, rest = _detach(Configuration._trusted(0, counts), k, k)
    tail = _image(rest, k)
    return RiggedPartition._prepended((l, surplus - _load(_table(k)[l], _counts(tail.parts, k))), tail)


def _image(a: Configuration, k: int) -> RiggedPartition:
    """``iota(a, k)`` for an admissible ``a``, read from the cached image of its translate to offset 0.

    Shifting a configuration by d columns raises each weight-w rigging by
    w * d (``RiggedPartition._shifted``).  RIGGED_DEBUG=1 compares every
    shifted image with ``iota``.
    """
    rp = _iota(a.counts, k)
    d = a.offset
    if not d:
        return rp
    shifted = rp._shifted(d)
    if configuration._DEBUG:
        expected = iota(a, k)
        if shifted != expected:
            raise InternalCheckError(f"image of {a} shifted from offset 0 is {shifted}, iota gives {expected}")
    return shifted


def _inverse(parts: tuple[tuple[int, int], ...], k: int, memo: dict[tuple, Configuration]) -> Configuration:
    """``kappa`` of the rigged partition with ``parts``, memoized in ``memo``, which must map () to ZERO.

    A miss settles only the heaviest weight group, as ``kappa``'s loop does,
    on the configuration of the lighter groups, which is looked up the same
    way.  A lone group settles on the empty buffer: that is ``kappa``'s own
    case, where its rigging translation keeps the cost independent of the
    riggings, so it goes to ``kappa``.  A heavier group's sweep count reads
    only its riggings relative to the columns below it, which that
    translation leaves unchanged.  RIGGED_DEBUG=1 compares every miss with
    ``kappa``.
    """
    c = memo.get(parts)
    if c is not None:
        return c
    l, n = parts[0][0], 1
    while n < len(parts) and parts[n][0] == l:
        n += 1
    if n == len(parts):
        c = kappa(RiggedPartition._trusted(parts), k)
    else:
        lighter = parts[n:]
        group = _surpluses(k, reversed(parts[:n]), _counts(lighter, k))
        c = _drop_groups(_inverse(lighter, k, memo), k, [group], 0)
        if configuration._DEBUG:
            expected = kappa(RiggedPartition._trusted(parts), k)
            if c != expected:
                raise InternalCheckError(f"inverse memo settles {parts} to {c}, kappa to {expected}")
    memo[parts] = c
    return c


def _poly_mismatch(lhs: QPolynomial, rhs: QPolynomial) -> str | None:
    """Smallest degree where two polynomials disagree, or None."""
    if lhs == rhs:
        return None
    for d in range(max(len(lhs.coeffs), len(rhs.coeffs))):
        if lhs.coefficient(d) != rhs.coefficient(d):
            return f"q^{d}: {lhs.coefficient(d)} vs {rhs.coefficient(d)}"
    return f"truncation orders differ: {lhs.order} vs {rhs.order}"


def _poly_report(name: str, parameters: dict, lhs: QPolynomial, rhs: QPolynomial) -> VerifyReport:
    return VerifyReport(name, parameters, str(lhs), str(rhs), first_mismatch=_poly_mismatch(lhs, rhs))


def _set_mismatch(lhs: set, rhs: set) -> str | None:
    diff = lhs.symmetric_difference(rhs)
    if not diff:
        return None
    witness = min(diff, key=lambda rp: rp.sort_key())
    side = "enumeration only" if witness in lhs else "predicate only"
    return f"{witness} in {side}"


def verify_roundtrip(k: int, N: int) -> VerifyReport:
    """Forward and inverse maps invert each other on every boundary-N configuration.

    Also checks degree and length preservation, non-negative riggings,
    injectivity, and that the image is exactly the boundary-restricted family
    of rigged partitions.
    """
    check_level(k)
    count = 0
    image: set[RiggedPartition] = set()
    # Configurations of every image and lighter-group suffix met so far, and E0 of every particle
    # content met so far, for this report only.
    memo = {(): ZERO}
    ground: dict[tuple[int, ...], int] = {}
    witness = None
    for a in enumerate_configurations(k, 3, N):
        count += 1
        rp = _image(a, k)
        back = _inverse(rp.parts, k, memo)
        if back != a:
            witness = f"{a}: inverse map returns {back}"
            break
        riggings = rp.riggings
        if any(r < 0 for r in riggings):
            witness = f"{a}: negative rigging in {rp}"
            break
        weights = rp.weights
        base = ground.get(weights)
        if base is None:
            base = ground[weights] = _quadratic_form(k, _counts(rp.parts, k))
        energy = a.energy()
        if energy != base + sum(riggings):
            witness = f"{a}: energy {energy} != E0+E1 of {rp}"
            break
        if a.length() != sum(weights):
            witness = f"{a}: length {a.length()} != |{rp}|"
            break
        if rp in image:
            witness = f"{a}: image {rp} duplicated"
            break
        image.add(rp)
    if witness is None:
        predicate = set(enumerate_rigged(k, k, N))
        witness = _set_mismatch(image, predicate)
    return VerifyReport("roundtrip", {"k": k, "N": N, "configurations": count}, first_mismatch=witness)


def _gordon_rhs(k: int, max_degree: int, window: int) -> QPolynomial:
    """Series side: the sum over m of q^ground(m) / prod_l (q)_{m_l}, cut at ``max_degree``.

    The walk fixes m_1, m_2, ... in turn, carrying 1 / prod (q)_{m_l} over the fixed weights as one list cut
    to the degrees still reachable; raising the current m_l to v divides that list in place by (1 - q^v).
    """
    total = [0] * (max_degree + 1)
    m = [0] * (k + 1)

    def rec(j: int, g: int, term: list[int]) -> None:
        """Add the term of every fitting vector extending m_1..m_{j-1}, whose Q is ``g`` and 1 / prod (q)_{m_l} ``term``."""
        term = term[: max_degree + 1 - g]
        if j > k:
            total[g : g + len(term)] = map(add, total[g : g + len(term)], term)
            return
        while g <= max_degree:
            rec(j + 1, g, term)
            g += _rise(k, j, m, window)
            m[j] += 1
            _over_one_minus(term, m[j], exact=False)
        m[j] = 0

    rec(1, 0, [1] + [0] * max_degree)
    return QPolynomial._trusted(tuple(total), max_degree)


def verify_gordon(k: int, max_degree: int) -> VerifyReport:
    """Window-3 character identity: enumeration equals the fermionic series."""
    lhs = config_sum(k, 3, max_degree=max_degree)
    rhs = _gordon_rhs(k, max_degree, window=3)
    return _poly_report("gordon", {"k": k, "max_degree": max_degree}, lhs, rhs)


def verify_gordon_r2(k: int, max_degree: int) -> VerifyReport:
    """Window-2 (classical Gordon) identity; columns start at 1 on the sum side."""
    lhs = config_sum(k, 2, a0=0, max_degree=max_degree)
    rhs = _gordon_rhs(k, max_degree, window=2)
    return _poly_report("gordon-r2", {"k": k, "max_degree": max_degree}, lhs, rhs)


def _chi_combination(chi: Callable[[int, int], QPolynomial], a: int, b: int) -> QPolynomial:
    """The four-term combination of floor characters ``chi(a, b)`` of columns (a, b)."""
    if b > 0:
        return chi(a, b) - chi(a - 1, b + 2) - chi(a, b - 1) + chi(a - 1, b + 1)
    return chi(a, 0) - chi(a - 1, 2)


def _chi_combination_cases(chi: Callable[[int, int], QPolynomial], a: int, b: int) -> QPolynomial:
    """The same combination written as an explicit four-way case split."""
    if a > 0 and b > 0:
        return chi(a, b) - chi(a - 1, b + 2) - chi(a, b - 1) + chi(a - 1, b + 1)
    if a > 0:
        return chi(a, 0) - chi(a - 1, 2)
    if b > 0:
        return chi(0, b) - chi(0, b - 1)
    return chi(0, 0)


def verify_polynomial_identity(k: int, l: int, a: int, b: int, N: int) -> VerifyReport:
    """Finite character identity for fixed initial columns and boundary.

    Both sides of the case split read one memo, so each distinct closed
    character is computed once per report.
    """
    check_level(k, l)
    if l < 1 or a < 0 or b < 0 or a + b > l or N < 0:
        raise ValueError(f"need 1 <= l <= k, 0 <= a, 0 <= b, a + b <= l, N >= 0; got {(k, l, a, b, N)}")
    lhs = weighted_config_sum(k, l, a, b, N)
    chi = lru_cache(maxsize=None)(lambda x, y: chi_closed(k, l, x, y, N))
    rhs = _chi_combination(chi, a, b)
    params = {"k": k, "l": l, "a": a, "b": b, "N": N}
    split = _poly_mismatch(rhs, _chi_combination_cases(chi, a, b))
    if split is not None:
        return VerifyReport("polynomial", params, str(lhs), str(rhs), first_mismatch=f"case split disagrees, {split}")
    return _poly_report("polynomial", params, lhs, rhs)


def _init_image(k: int, l: int, a: int, b: int, N: int) -> set[RiggedPartition]:
    """Forward-map image of the boundary-N configurations of weight <= l with (a_0, a_1) = (a, b)."""
    return {_image(cfg, k) for cfg in enumerate_configurations(k, 3, N, a0=a, a1=b, max_weight=l)}


def verify_init(k: int, l: int, a: int, b: int, N: int) -> VerifyReport:
    """The forward image of the (a_0, a_1) = (a, b) family equals its predicate set."""
    check_level(k, l)
    image = _init_image(k, l, a, b, N)
    rset = initial_columns_set(a, b, l, k, boundary=N)
    predicate = {rp for rp in enumerate_rigged(k, l, N, rset.floor) if _member(rp, rset, k)}
    witness = _set_mismatch(image, predicate)
    params = {"k": k, "l": l, "a": a, "b": b, "N": N, "size": len(image)}
    if witness is None and l == k:
        # Outside floor(a, b) both sides are empty: the image equals the predicate set, which lies inside it.
        inside, outside = _floor_difference_sets(a, b, k, N)
        for rp in enumerate_rigged(k, l, N, inside.floor):
            if (_member(rp, inside, k) and not any(_member(rp, s, k) for s in outside)) != (rp in image):
                witness = f"{rp}: difference form disagrees with the image"
                break
    return VerifyReport("init-image", params, first_mismatch=witness)


def verify_init_cover(k: int, l: int, N: int) -> VerifyReport:
    """The column families partition the whole boundary-restricted family."""
    check_level(k, l)
    pairs = [(a, b) for a in range(l + 1) for b in range(l + 1 - a)]
    sets = {(a, b): initial_columns_set(a, b, l, k, boundary=N) for a, b in pairs}
    images = {(a, b): _init_image(k, l, a, b, N) for a, b in pairs}
    witness = None
    for rp in enumerate_rigged(k, l, N):
        hits = [(a, b) for a, b in pairs if _member(rp, sets[(a, b)], k)]
        if len(hits) != 1:
            witness = f"{rp} lies in {len(hits)} families: {hits}"
            break
        if rp not in images[hits[0]]:
            witness = f"{rp} claimed by {hits[0]} but not in that image"
            break
    return VerifyReport("init-cover", {"k": k, "l": l, "N": N, "pairs": len(pairs)}, first_mismatch=witness)


def verify_boundary(k: int, l: int, N: int) -> VerifyReport:
    """Boundary confinement corresponds exactly to the rigging ceilings."""
    check_level(k, l)
    _check_nonnegative("boundary", N)
    witness = None
    checked = 0
    for cfg in enumerate_configurations(k, 3, N + 3, max_weight=l):
        checked += 1
        inside = cfg.support_max is None or cfg.support_max <= N
        fits = _fits_ceilings(_image(cfg, k), k, N)
        if inside != fits:
            witness = f"{cfg}: support inside boundary {inside} but ceilings {fits}"
            break
    return VerifyReport("boundary", {"k": k, "l": l, "N": N, "configurations": checked}, first_mismatch=witness)


def verify_recursion(l: int, k: int, N: int) -> VerifyReport:
    """Level-l column families decompose through the level-(l-1) families.

    For a + b < l the family splits off the members whose lowest weight-l
    rigging floats above 2l - 2a - b from those pinned exactly there with a
    smaller second column; for a + b = l every smaller-or-equal first column
    contributes, pinned at l - a.
    """
    check_level(k, l)
    if l < 1:
        raise ValueError("recursion needs l >= 1")
    witness = None
    level_sets = {
        (a, b): initial_columns_set(a, b, l, k, boundary=N)
        for a in range(l + 1)
        for b in range(l + 1 - a)
    }
    sub_sets = {
        (a, b): initial_columns_set(a, b, l - 1, k)
        for a in range(l)
        for b in range(l - a)
    }
    universe = list(enumerate_rigged(k, l, N))
    for rp in universe:
        if witness:
            break
        bar = rp.drop_weight(l)
        m_l = rp.multiplicity(l)
        low = rp.min_rigging(l)
        for (a, b), rset in level_sets.items():
            lhs = _member(rp, rset, k)
            if a + b < l:
                pin = 2 * l - 2 * a - b
                hits = 0
                if _member(bar, sub_sets[(a, b)], k) and (m_l == 0 or (low is not None and low >= pin)):
                    hits += 1
                for c in range(b):
                    if _member(bar, sub_sets[(a, c)], k) and m_l >= 1 and low == pin:
                        hits += 1
            else:
                pin = l - a
                hits = 0
                for c in range(a + 1):
                    for d in range(l - c):
                        if _member(bar, sub_sets[(c, d)], k) and m_l >= 1 and low == pin:
                            hits += 1
            if hits > 1:
                witness = f"{rp}: recursion terms overlap at (a,b)=({a},{b})"
                break
            if lhs != (hits == 1):
                witness = f"{rp}: recursion disagrees at (a,b)=({a},{b})"
                break
    return VerifyReport("recursion", {"l": l, "k": k, "N": N, "universe": len(universe)}, first_mismatch=witness)


def verify_shift(k: int, l: int, samples: Iterable[Configuration]) -> VerifyReport:
    """Passing a weight-l probe shifts every rigging by its phase and commutes with the right move.

    The expected image raises every weight-w rigging of the sample's image by the same A(l, w), which keeps
    the order, so it is built trusted.
    """
    check_level(k, l)
    witness = None
    checked = 0
    row = _table(k)[l]
    for a in samples:
        checked += 1
        w = _weight(a, k)
        if w >= l:
            raise ValueError(f"shift samples must have weight below l={l}, got {a} of weight {w}")
        rp = _image(a, k)
        passed = pass_particle(a, k, l)
        expected = RiggedPartition._trusted(tuple([(wi, ri + row[wi]) for wi, ri in rp.parts]))
        actual = _image(passed, k)
        if actual != expected:
            witness = f"{a}: riggings shift to {actual.riggings}, expected {expected.riggings}"
            break
        if a.positively_supported and not passed.is_zero and passed.support_min < 2:
            witness = f"{a}: passed result {passed} dips below column 2"
            break
        if not a.is_zero:
            lhs = pass_particle(right_move(a, k, w), k, l)
            rhs = right_move(passed, k, w)
            if lhs != rhs:
                witness = f"{a}: passing does not commute with the right move"
                break
    return VerifyReport("shift", {"k": k, "l": l, "samples": checked}, first_mismatch=witness)


def verify_fermionic_floor(k: int, l: int, N: int) -> VerifyReport:
    """Closed-form floor characters match brute-force enumeration."""
    check_level(k, l)
    witness = None
    for a in range(k + 1):
        if witness:
            break
        for b in range(k + 1 - a):
            closed = chi_closed(k, l, a, b, N)
            brute = rigged_sum(k, RestrictedSet(floor_for(a, b, k, k), (), l, N))
            mismatch = _poly_mismatch(closed, brute)
            if mismatch is not None:
                witness = f"(a,b)=({a},{b}): {mismatch}"
                break
    return VerifyReport("fermionic-floor", {"k": k, "l": l, "N": N}, first_mismatch=witness)


def shift_sample_space(k: int, l: int, width: int) -> list[Configuration]:
    """All positively supported admissible configurations of weight < l within the width."""
    _check_nonnegative("width", width)
    check_level(k)
    _check_ints("weight bound", l)
    if l < 1:  # no configuration has a negative weight
        return []
    return list(enumerate_configurations(k, 3, width - 1, max_weight=min(l - 1, k)))


#: The seven-step right-move chain of the weight-3 showcase configuration.
GOLDEN_CHAIN = tuple(
    Configuration(0, counts)
    for counts in [
        (3, 0, 0, 1),
        (2, 1, 0, 1),
        (1, 2, 0, 1),
        (1, 1, 1, 1),
        (1, 0, 2, 1),
        (1, 0, 1, 2),
        (1, 0, 0, 3),
    ]
)

#: The five nodes a weight-3 probe visits while passing (1,1,1) at level 4.
GOLDEN_PASS_NODES = (
    ("S", 3, Configuration(0, (1, 1, 1, 0, 3))),
    ("L", 2, Configuration(0, (1, 1, 1, 1, 2))),
    ("S", 1, Configuration(0, (1, 1, 2, 0, 2))),
    ("S", 0, Configuration(0, (1, 2, 1, 0, 2))),
    ("S", -1, Configuration(0, (3, 0, 1, 0, 2))),
)


def verify_golden() -> VerifyReport:
    """Fixed worked values: the showcase move chain, its image, and a passing history."""
    witness = None
    start = GOLDEN_CHAIN[0]
    chain = [start]
    for _ in range(6):
        chain.append(right_move(chain[-1], 3, 3))
    if tuple(chain) != GOLDEN_CHAIN:
        witness = f"move chain diverges: {[str(c) for c in chain]}"
    if witness is None:
        image = _image(start, 3)
        if image != RiggedPartition.of((3, 1), (0, 0)):
            witness = f"image of {start} is {image}"
    if witness is None:
        nodes, result = passing_history(Configuration(0, (1, 1, 1)), 4, 3)
        if tuple(nodes) != GOLDEN_PASS_NODES:
            witness = f"passing nodes diverge: {[(kd, p, str(c)) for kd, p, c in nodes]}"
        elif result != Configuration(2, (1, 0, 2)):
            witness = f"passing result is {result}"
    return VerifyReport("golden", {}, first_mismatch=witness)


def verify_all(k_max: int = 3, n_max: int = 6, max_degree: int = 20) -> list[VerifyReport]:
    """The full verification grid; defaults match the acceptance grid."""
    _check_ints("verify_all argument", k_max, n_max, max_degree)
    if k_max < 1:
        raise ValueError(f"level cap k must be at least 1, got {k_max}")
    reports: list[VerifyReport] = []
    for k in range(1, min(k_max, 3) + 1):
        reports.append(verify_roundtrip(k, 8))
    for k in range(1, min(k_max + 1, 4) + 1):
        reports.append(verify_gordon(k, max_degree))
    for k in range(1, min(k_max, 3) + 1):
        reports.append(verify_gordon_r2(k, max_degree))
    for k in range(1, min(k_max, 3) + 1):
        for l in range(1, k + 1):
            for N in range(n_max + 1):
                for a in range(l + 1):
                    for b in range(l + 1 - a):
                        reports.append(verify_polynomial_identity(k, l, a, b, N))
    for k in range(1, min(k_max, 3) + 1):
        for l in range(1, k + 1):
            for a in range(l + 1):
                for b in range(l + 1 - a):
                    reports.append(verify_init(k, l, a, b, n_max))
            reports.append(verify_init_cover(k, l, n_max))
            reports.append(verify_boundary(k, l, n_max))
            reports.append(verify_recursion(l, k, min(n_max, 4)))
            reports.append(verify_fermionic_floor(k, l, min(n_max, 4)))
    for k in range(2, min(k_max + 1, 4) + 1):
        for l in range(2, k + 1):
            reports.append(verify_shift(k, l, shift_sample_space(k, l, 6)))
    reports.append(verify_golden())
    return reports
