import itertools
import operator
import os
import random
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigged
from rigged.configuration import (
    ZERO,
    AdmissibilityError,
    Configuration,
    check_level,
    enumerate_configurations,
    is_admissible,
    l_functional,
    s_functional,
    weight,
)


def cfg(*counts, offset=0):
    return Configuration(offset, counts)


def count_admissible_oracle(k: int, r: int, ncols: int) -> int:
    """Independent window-constraint counter over fixed-length sequences."""

    @lru_cache(maxsize=None)
    def go(i: int, tail: tuple[int, ...]) -> int:
        if i == ncols:
            return 1
        return sum(go(i + 1, (tail + (v,))[-(r - 1):]) for v in range(k - sum(tail) + 1))

    return go(0, (0,) * (r - 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_admissible(Configuration(0, (1,)), 2, 4),
        lambda: is_admissible(Configuration(0, (1,)), 2, 1),
        lambda: list(enumerate_configurations(2, 4, 3)),
        lambda: list(enumerate_configurations(2, 0, None, max_energy=3)),
    ],
    ids=["is_admissible r=4", "is_admissible r=1", "enumerate r=4", "enumerate r=0"],
)
def test_window_size_validated(call):
    with pytest.raises(ValueError, match="window size r must be 2 or 3"):
        call()


# Every integer argument of the public entries: (id, the call with v in that argument, whether a negative v is rejected).
INTEGER_ARGUMENTS = [
    ("check_level k", lambda v: check_level(v), False),
    ("check_level l", lambda v: check_level(3, v), False),
    ("weight k", lambda v: weight(cfg(1, 1), v), False),
    ("is_admissible k", lambda v: is_admissible(cfg(1, 1), v), False),
    ("is_admissible r", lambda v: is_admissible(cfg(1, 1), 3, v), False),
    ("enumerate r", lambda v: list(enumerate_configurations(2, v, 2)), False),
    ("enumerate k", lambda v: list(enumerate_configurations(v, 3, 2)), False),
    ("enumerate N", lambda v: list(enumerate_configurations(2, 3, v)), False),
    ("enumerate a0", lambda v: list(enumerate_configurations(2, 3, 2, a0=v)), False),
    ("enumerate a1", lambda v: list(enumerate_configurations(2, 3, 2, a1=v)), False),
    ("enumerate max_energy", lambda v: list(enumerate_configurations(2, 3, None, max_energy=v)), False),
    ("enumerate max_weight", lambda v: list(enumerate_configurations(2, 3, 2, max_weight=v)), False),
]


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(call, v, id=f"{name}={v!r}") for name, call, count in INTEGER_ARGUMENTS for v in (2.0, True, -1)[: 2 + count]],
)
def test_integer_arguments_checked(call, value):
    # A float or bool is never truncated: 2.0 and True would pass every range check as 2 and 1.
    with pytest.raises(ValueError, match="must be non-negative" if value == -1 else rf"got (l=)?{value!r}\b"):
        call(value)


class TestCanonicalForm:
    def test_trimming(self):
        assert Configuration(0, (0, 0, 3, 0, 0, 1, 0)) == Configuration(2, (3, 0, 0, 1))

    def test_zero_is_unique(self):
        assert Configuration(5, (0, 0)) == ZERO
        assert ZERO.is_zero and ZERO.offset == 0 and ZERO.counts == ()

    def test_trimming_idempotent(self):
        a = Configuration(-1, (0, 2, 1, 0))
        assert Configuration(a.offset, a.counts) == a

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Configuration(0, (1, -1))

    def test_get_outside_window(self):
        a = cfg(3, 0, 0, 1)
        assert a.get(-1) == 0 and a.get(4) == 0 and a[0] == 3 and a[3] == 1

    @given(st.integers(-6, 6), st.lists(st.integers(0, 4), max_size=9))
    @settings(deadline=None)
    def test_text_roundtrip(self, offset, counts):
        a = Configuration(offset, tuple(counts))
        assert Configuration.from_text(a.to_text()) == a

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3"])
    def test_constructor_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="offset must be an integer"):
            Configuration(value, (1,))
        with pytest.raises(ValueError, match="count must be an integer"):
            Configuration(0, (1, value))

    @pytest.mark.parametrize("delta", [0.5, True])
    def test_shift_rejects_non_integers(self, delta):
        for a in (cfg(1, 2, offset=3), ZERO):
            with pytest.raises(ValueError, match="shift must be an integer"):
                a.shifted(delta)

    def test_text_without_offset(self):
        assert Configuration.from_text("3,0,0,1") == cfg(3, 0, 0, 1)
        assert Configuration.from_text("0:") == ZERO
        assert Configuration.from_text("-1:3,0,1") == cfg(3, 0, 1, offset=-1)

    def test_zero_json_form(self):
        assert ZERO.to_json_dict() == {"offset": 0, "counts": []}

    def test_to_json_dict_literal(self):
        assert cfg(2, 0, 1, offset=-3).to_json_dict() == {"offset": -3, "counts": [2, 0, 1]}

    def test_reflect_and_shift(self):
        a = cfg(1, 2, offset=3)
        assert a.shifted(2) == cfg(1, 2, offset=5)


class TestFunctionals:
    def test_s_examples(self):
        assert s_functional(cfg(3, 0, 0, 1), 0) == 3
        assert s_functional(ZERO, 7) == 0
        assert s_functional(cfg(1, 2, 1, 1), 1) == 3

    def test_l_examples(self):
        assert l_functional(cfg(3, 0, 0, 1), 0) == 6
        assert l_functional(ZERO, -3) == 0
        assert l_functional(cfg(1, 1, 1, 1), 1) == 6

    @pytest.mark.parametrize("column", [5.5, 0.5, 2.0, True])
    def test_column_must_be_an_integer(self, column):
        # A float column is never read: outside the stored window it once read as zero.
        a = cfg(1, 1)
        for read in (a.get, a.__getitem__, lambda j: s_functional(a, j), lambda j: l_functional(a, j)):
            with pytest.raises(ValueError, match="column must be an integer"):
                read(column)

    def test_energy_and_length(self):
        assert cfg(3, 0, 0, 1).energy() == 3
        assert ZERO.energy() == 0
        assert cfg(1, 2, 1, 1).energy() == 7
        assert cfg(3, 0, 0, 1).length() == 4
        assert ZERO.length() == 0
        assert cfg(1, 1, 1).length() == 3

    @pytest.mark.parametrize("offset", [-(10**15), -37, -1, 0, 1, 6, 10**12])
    def test_energy_and_length_match_column_sums(self, offset):
        rng = random.Random(offset)
        rows = [(c,) for c in range(1, 5)] + [
            tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 14))) for _ in range(60)
        ]
        for counts in rows:
            a = Configuration(offset, counts)
            assert a.energy() == sum((offset + j) * c for j, c in enumerate(counts)), (offset, counts)
            assert a.length() == sum(counts), (offset, counts)
        assert Configuration(offset, (0, 0)) == ZERO and ZERO.energy() == ZERO.length() == 0


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible(cfg(3, 0, 0, 1), 3, 3)
        assert not is_admissible(cfg(1, 0, 1), 1, 3)
        assert is_admissible(cfg(1, 1, 1), 4, 3)

    def test_window_two(self):
        assert is_admissible(cfg(1, 0, 1), 1, 2)
        assert not is_admissible(cfg(1, 1), 1, 2)

    def test_weight_examples(self):
        assert weight(cfg(3, 0, 0, 1), 3) == 3
        assert weight(ZERO, 5) == 0
        assert weight(cfg(1, 1, 1), 4) == 2

    def test_weight_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            weight(cfg(2, 2), 3)

    def test_weight_zero_iff_zero(self):
        for k in (1, 2, 3):
            for a in enumerate_configurations(k, 3, 4):
                assert (weight(a, k) == 0) == a.is_zero

    def test_weight_bounds_attained(self):
        # S stays under the weight and L under k + weight, with equality somewhere.
        for k in (2, 3):
            for a in enumerate_configurations(k, 3, 5):
                if a.is_zero:
                    continue
                w = weight(a, k)
                lo, hi = a.support_min - 2, a.support_max + 2
                s_vals = [s_functional(a, j) for j in range(lo, hi)]
                l_vals = [l_functional(a, j) for j in range(lo, hi)]
                assert max(s_vals) <= w
                assert max(l_vals) <= k + w
                assert max(s_vals) == w or max(l_vals) == k + w

    def test_level_validation(self):
        with pytest.raises(ValueError):
            check_level(0)
        with pytest.raises(ValueError):
            check_level(3, 4)
        check_level(3, 3)


def reference_window_maxima(a: Configuration) -> tuple[int, int, int, int]:
    """Largest 2-window, 3-window, S and L, window by window through ``get``."""
    if a.is_zero:
        return 0, 0, 0, 0
    cols = range(a.support_min - 3, a.support_max + 2)
    return (
        max(a.get(j) + a.get(j + 1) for j in cols),
        max(a.get(j) + a.get(j + 1) + a.get(j + 2) for j in cols),
        max(s_functional(a, j) for j in cols),
        max(l_functional(a, j) for j in cols),
    )


@st.composite
def levelled_configurations(draw):
    """A level k and a (k, 3)-admissible configuration, sometimes bumped by one unit."""
    k = draw(st.integers(1, 8))
    counts: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        counts.append(draw(st.integers(0, k - sum(counts[-2:]))))
    if counts and draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] += 1
    return k, Configuration(draw(st.integers(-10, 10)), tuple(counts))


class TestWindowPass:
    @given(levelled_configurations())
    @settings(deadline=None, max_examples=300)
    def test_matches_window_by_window_reference(self, case):
        k, a = case
        two, three, s_max, l_max = reference_window_maxima(a)
        assert is_admissible(a, k, 2) == (two <= k)
        assert is_admissible(a, k, 3) == (three <= k)
        if three > k:
            with pytest.raises(AdmissibilityError):
                weight(a, k)
        else:
            assert weight(a, k) == max(s_max, l_max - k, 0)


class TestEnumeration:
    def test_filtered_example(self):
        got = set(enumerate_configurations(1, 3, 3, a0=1, a1=0))
        assert got == {cfg(1), cfg(1, 0, 0, 1)}

    def test_tiny_boundary(self):
        assert set(enumerate_configurations(1, 3, 0)) == {ZERO, cfg(1)}

    def test_count_example(self):
        assert sum(1 for _ in enumerate_configurations(1, 3, 3)) == 6

    @pytest.mark.parametrize("k,r,N", [(1, 3, 6), (2, 3, 5), (3, 3, 4), (1, 2, 6), (2, 2, 5)])
    def test_count_against_oracle(self, k, r, N):
        got = sum(1 for _ in enumerate_configurations(k, r, N))
        assert got == count_admissible_oracle(k, r, N + 1)

    def test_no_duplicates_and_all_admissible(self):
        seen = list(enumerate_configurations(2, 3, 4))
        assert len(seen) == len(set(seen))
        assert all(is_admissible(a, 2, 3) and a.positively_supported for a in seen)

    def test_unsatisfiable_constraints_empty(self):
        assert list(enumerate_configurations(1, 3, 3, a0=2)) == []
        assert list(enumerate_configurations(1, 3, 0, a1=1)) == []

    def test_energy_cap(self):
        capped = set(enumerate_configurations(1, 3, None, max_energy=3))
        assert capped == {a for a in enumerate_configurations(1, 3, 3) if a.energy() <= 3}

    def test_needs_some_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_configurations(1, 3, None))

    @pytest.mark.parametrize("k,r", [(k, r) for k in (1, 2, 3) for r in (2, 3)] + [(4, 3)])
    def test_matches_product_oracle(self, k, r):
        """Full yielded list, order included, against a filtered itertools.product.

        Up to k = 3 a cap l < k makes the S and L bounds imply the 3-window bound; k = 4 runs at small sizes
        so that the 3-window term of the capped ``_next_column`` is needed too.
        """

        @lru_cache(maxsize=None)
        def rows(limit: int, max_energy: int | None) -> list[tuple[Configuration, int, int]]:
            """Each admissible row with its largest S and largest L, read off the zero-padded columns."""
            # Under the cap, column i > 0 holds at most max_energy // i units;
            # the filter below still checks every bound.
            ranges = [
                range(k + 1 if max_energy is None or i == 0 else min(k, max_energy // i) + 1)
                for i in range(limit + 1)
            ]
            found = []
            for row in itertools.product(*ranges):
                if max_energy is not None and sum(map(operator.mul, range(limit + 1), row)) > max_energy:
                    continue
                if any(sum(row[j : j + r]) > k for j in range(limit + 1)):
                    continue
                p = (0, 0, 0) + row + (0, 0, 0)
                s_max = max(p[j] + p[j + 1] for j in range(len(p) - 1))
                l_max = max(p[j - 1] + 2 * p[j] + 2 * p[j + 1] + p[j + 2] for j in range(1, len(p) - 2))
                found.append((Configuration(0, row), s_max, l_max))
            return found

        caps = (None, *range(k + 1)) if r == 3 else (None,)
        sizes, energies = (range(6), range(13)) if k < 4 else (range(4), range(8))
        for N in (None, *sizes):
            for max_energy in (None, -1, *energies):
                if N is None and max_energy is None:
                    continue
                limit = min(b for b in (N, max_energy) if b is not None)
                family = rows(limit, max_energy) if limit >= 0 else []
                for a0 in (None, -1, *range(k + 2)):
                    for a1 in (None, -1, *range(k + 2)):
                        pinned = [
                            (a, s_max, l_max) for a, s_max, l_max in family
                            if (a0 is None or a.get(0) == a0) and (a1 is None or a.get(1) == a1)
                        ]
                        for l in caps:
                            expected = [
                                a for a, s_max, l_max in pinned if l is None or (s_max <= l and l_max <= k + l)
                            ]
                            got = list(
                                enumerate_configurations(k, r, N, a0=a0, a1=a1, max_energy=max_energy, max_weight=l)
                            )
                            assert got == expected, (N, a0, a1, max_energy, l)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_leaves_are_canonical(self, k):
        """Every yielded configuration, the zero one included, is already what the validating constructor makes."""
        zero_seen = 0
        for r in (2, 3):
            for N in range(7):
                for a0, a1 in ((None, None), (0, None), (None, 0), (1, 0), (0, 1), (k, None)):
                    for max_energy in (None, 5):
                        for l in (None, *range(k + 1)) if r == 3 else (None,):
                            for c in enumerate_configurations(k, r, N, a0, a1, max_energy, l):
                                assert c == Configuration(c.offset, c.counts), (c.offset, c.counts)
                                zero_seen += c == ZERO and c.to_text() == "0:"
        assert zero_seen

    def test_weight_cap_errors(self):
        with pytest.raises(ValueError, match="r = 3"):
            list(enumerate_configurations(2, 2, 4, max_weight=1))
        for l in (-1, 3):
            with pytest.raises(ValueError, match="weight cap must satisfy"):
                list(enumerate_configurations(2, 3, 4, max_weight=l))


@pytest.mark.parametrize("value, on", [("1", True), (None, False), ("0", False)], ids=["1", "unset", "0"])
def test_debug_switch_read_at_import(value, on):
    # A fresh interpreter reads RIGGED_DEBUG when rigged.configuration is imported; only the value 1 turns the
    # double computations on.
    src = str(Path(rigged.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items() if key != "RIGGED_DEBUG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if value is not None:
        env["RIGGED_DEBUG"] = value
    script = "import rigged; print(rigged.configuration._DEBUG)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{on}\n", "")
