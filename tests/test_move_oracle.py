"""Property tests of the move kernel against a plain-list reference.

The reference below applies the definitions directly: it recomputes S and L
from a list of columns at every step, moves one unit per step, and shares no
code with ``rigged.moves``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rigged.bijection import iota, kappa
from rigged.configuration import ZERO, Configuration
from rigged.moves import separate_highest

MAX_LEVEL, MAX_WIDTH, MAX_OFFSET = 8, 40, 10


@st.composite
def admissible(draw):
    """(k, configuration): a random nonzero (k, 3)-admissible configuration."""
    k = draw(st.integers(1, MAX_LEVEL))
    width = draw(st.integers(1, MAX_WIDTH))
    offset = draw(st.integers(-MAX_OFFSET, MAX_OFFSET))
    counts: list[int] = []
    for j in range(width):
        counts.append(draw(st.integers(1 if j == 0 else 0, k - sum(counts[-2:]))))
    return k, Configuration(offset, tuple(counts))


def _window_values(cols: list[int]):
    """(index, S, L) at every index of ``cols`` whose four-column window fits inside it."""
    for i in range(1, len(cols) - 2):
        s = cols[i] + cols[i + 1]
        yield i, s, cols[i - 1] + 2 * s + cols[i + 2]


def reference_weight(cols: list[int], k: int) -> int:
    return max(max(s, big - k, 0) for _, s, big in _window_values(cols))


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


@given(admissible())
@settings(max_examples=80, deadline=None)
def test_separation_matches_reference(case):
    # Every particle of the chain that iota reads, heaviest first.
    k, cur = case
    while cur != ZERO:
        l = reference_weight([0] * 3 + list(cur.counts) + [0] * 3, k)
        sep = separate_highest(cur, k, l)
        steps, free, surplus, remainder = reference_separation(cur, k, l)
        assert sep.steps == steps
        assert (sep.free.position, sep.free.upper_count, sep.free.weight) == (*free, l)
        assert sep.surplus == surplus
        assert sep.remainder == remainder
        cur = remainder


@given(admissible())
@settings(max_examples=80, deadline=None)
def test_kappa_inverts_iota(case):
    k, a = case
    assert kappa(iota(a, k), k) == a
