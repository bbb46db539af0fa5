"""Pairwise energy shifts between quasi-particles.

When a particle of weight l overtakes one of weight l' the lighter particle's
energy jumps by A(l, l') = 2 min(l, l') + max(l + l' - k, 0).  The window-2
theory uses the k-independent companion G(l, l') = 2 min(l, l').
"""

from __future__ import annotations


def phase(k: int, l: int, lp: int) -> int:
    """Energy shift A(l, l') at level k."""
    if not (1 <= l <= k and 1 <= lp <= k):
        raise ValueError(f"weights must lie in 1..k={k}, got ({l}, {lp})")
    return 2 * min(l, lp) + max(l + lp - k, 0)


def gordon_phase(l: int, lp: int) -> int:
    """Energy shift 2 min(l, l') for the window-2 theory."""
    if l < 1 or lp < 1:
        raise ValueError(f"weights must be positive, got ({l}, {lp})")
    return 2 * min(l, lp)
