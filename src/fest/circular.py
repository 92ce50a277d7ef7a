"""Circular-string support: turns and unrolled queries.

A circular string is stored in canonical order, so positions, point edits
and in-range queries are the linear ones.  A range with i > j wraps through
the seam: it is [i..n] followed by [1..j].  The operations that keep symbol
order work on those two stored pieces (`Forest._pieces`); only `extract`
and `reverse` of a wrapped range turn the string (`rotate_to_front`), and
`reverse` turns it back.  The public `rotate` moves nothing: the canonical
string is rotation-invariant.

"Unrolled" queries treat a string as its infinite self-concatenation.  By
the periodicity bound, two unrollings agreeing on their first
|s1| + |s2| - gcd(|s1|, |s2|) symbols agree forever, so every unrolled
comparison is capped at cap_length = |s1| + |s2|.  An unrolled prefix is
fingerprinted in place by `Forest._fp`, from the pieces of at most one turn
and a geometric sum over the copies, and read by `Forest._symbols`.
`lcp_omega` runs the linear lcp's pipeline (`compare.lcp_pipeline`) with
the cap as its full length.
"""

from __future__ import annotations

import enum

from . import splaycore as sc
from .compare import Order, lcp_pipeline
from .errors import RangeError, UsageError


class OmegaLength(enum.Enum):
    """Marker for an unbounded common-prefix length."""

    INFINITE = "INFINITE"


INFINITE = OmegaLength.INFINITE


def _require_circular(s) -> int:
    if s.mode != "circular":
        raise UsageError(f"{s!r} is not circular")
    return s.tree.size


def _check_pos(s, i) -> None:
    n = s.tree.size
    if not 1 <= i <= n:
        raise RangeError(f"position {i} outside [1, {n}]")


def cap_length(s1, s2) -> int:
    """Probe cap for unrolled comparisons of the two strings."""
    return s1.tree.size + s2.tree.size


# ------------------------------------------------------------------ turns

def rotate(s, i: int) -> None:
    """Validate a public rotation; it moves no symbol.

    The canonical string is invariant under rotation, and a circular string
    is always stored in canonical order.
    """
    n = _require_circular(s)
    if not 1 <= i <= n:
        raise RangeError(f"rotation point {i} outside [1, {n}]")


def rotate_to_front(forest, s, i: int) -> None:
    """Turn s so that position i > 1 comes first: a split and a swapped join.

    If the join raises, the pieces are joined back as they were, which
    fixes no node, so s is either turned or untouched.
    """
    ctx = forest.ctx
    left, right = sc.split(s.tree, i - 1, ctx, forest.stats)
    try:
        s.tree.root = sc.join(right, left, ctx, forest.stats)
    except BaseException:
        # `left` is rooted at its last node, so this join walks no spine.
        s.tree.root = sc.join(left, right, ctx, forest.stats)
        raise


# ------------------------------------------------------- unrolled queries

def equal_omega(forest, s1, i1: int, s2, i2: int, l: int) -> bool:
    """Whether the unrolled strings agree on their first l symbols (whp).

    l is capped at |s1| + |s2|: agreement that far implies agreement forever.
    """
    _require_circular(s1)
    _require_circular(s2)
    _check_pos(s1, i1)
    _check_pos(s2, i2)
    if l < 0:
        raise RangeError("negative length")
    if l == 0:
        return True
    l = min(l, cap_length(s1, s2))
    k1 = forest._fp(s1, i1, l)
    k2 = forest._fp(s2, i2, l)
    forest.stats.equal_tests += 1
    return k1 == k2


def equal_omega_omega(forest, s1, i1: int, l1: int,
                      s2, i2: int, l2: int) -> bool:
    """Whether the unrollings of two unrolled substrings coincide (whp).

    Reduces to comparing the l2-fold copy of one window against the l1-fold
    copy of the other, all in fingerprint space.
    """
    _require_circular(s1)
    _require_circular(s2)
    _check_pos(s1, i1)
    _check_pos(s2, i2)
    if l1 < 1 or l2 < 1:
        raise RangeError("window lengths must be at least 1")
    k1 = forest._fp(s1, i1, l1)
    k2 = forest._fp(s2, i2, l2)
    ctx = forest.ctx
    p = ctx.modulus
    d1 = pow(ctx.base, l1, p)
    d2 = pow(ctx.base, l2, p)
    forest.stats.equal_tests += 1
    return k1 * ctx.geomsum(d1, l2 - 1) % p \
        == k2 * ctx.geomsum(d2, l1 - 1) % p


def lcp_omega(forest, s1, i1: int, s2, i2: int):
    """Longest common prefix of two unrolled strings, plus their order.

    Returns (INFINITE, EQUAL) when the unrollings coincide; otherwise the
    finite length (strictly below |s1| + |s2|) and the strict order.  Runs
    the linear lcp's pipeline with the cap as its full length and total.
    """
    _require_circular(s1)
    _require_circular(s2)
    _check_pos(s1, i1)
    _check_pos(s2, i2)
    cap = cap_length(s1, s2)
    out = lcp_pipeline(forest, s1, i1, s2, i2, cap, cap)
    return (INFINITE, Order.EQUAL) if out is None else out
