"""Circular-string support: turns, wrapped fingerprints, unrolled queries.

A circular string is stored in canonical order, so positions, point edits
and in-range queries are the linear ones.  A range with i > j wraps through
the seam: it is [i..n] followed by [1..j].  The operations that keep symbol
order work on those two stored pieces; only `extract` and `reverse` of a
wrapped range turn the string (`rotate_to_front`), and `reverse` turns it
back.  The public `rotate` moves nothing: the canonical string is
rotation-invariant.

"Unrolled" queries treat a string as its infinite self-concatenation.  By
the periodicity bound, two unrollings agreeing on their first
|s1| + |s2| - gcd(|s1|, |s2|) symbols agree forever, so every unrolled
comparison is capped at cap_length = |s1| + |s2|.  An unrolled prefix is
fingerprinted in place from at most two pieces per copy and a geometric
sum over the copies (`_omega_fp`); it moves no symbol, so both operands may
be one string.  `lcp_omega` runs the linear lcp's pipeline
(`compare.lcp_pipeline`) with the cap as its full length.
"""

from __future__ import annotations

import enum
from functools import partial

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


# -------------------------------------------------- wrapped fingerprints

def _slice_fp(forest, s, q: int, length: int) -> int:
    """Fingerprint of the circular slice of `length` symbols from q."""
    if length == 0:
        return 0
    n = s.tree.size
    ctx = forest.ctx
    if q + length - 1 <= n:
        return sc.isolate(s.tree, q, q + length - 1, ctx, forest.stats).fp
    tail = length - (n - q + 1)
    f_head = sc.isolate(s.tree, q, n, ctx, forest.stats).fp
    f_tail = sc.isolate(s.tree, 1, tail, ctx, forest.stats).fp
    return (f_head * ctx.pw[tail] + f_tail) % ctx.modulus


def _omega_fp(forest, s, i: int, length: int) -> int:
    """Fingerprint of the unrolled string from i, via seam splices.

    Moves no symbol, so both probe targets may live in one tree.
    """
    n = s.tree.size
    copies, part = divmod(length, n)
    part_fp = _slice_fp(forest, s, i, part)
    if copies == 0:
        return part_fp
    turn_fp = _slice_fp(forest, s, i, n)
    ctx = forest.ctx
    p = ctx.modulus
    geo = ctx.geomsum(ctx.pw[n], copies - 1)
    return (turn_fp * geo % p * ctx.pw[part] + part_fp) % p


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
    k1 = _omega_fp(forest, s1, i1, l)
    k2 = _omega_fp(forest, s2, i2, l)
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
    k1 = _omega_fp(forest, s1, i1, l1)
    k2 = _omega_fp(forest, s2, i2, l2)
    ctx = forest.ctx
    p = ctx.modulus
    d1 = pow(ctx.base, l1, p)
    d2 = pow(ctx.base, l2, p)
    forest.stats.equal_tests += 1
    return k1 * ctx.geomsum(d1, l2 - 1) % p \
        == k2 * ctx.geomsum(d2, l1 - 1) % p


def _omega_read(forest, s, i: int, t0: int, t1: int) -> list[int]:
    """Symbols t0..t1 (1-based) of the unrolled string starting at i.

    Reads at most one turn of s, in at most two stored pieces, and repeats
    it when the read is longer than s.
    """
    n = s.tree.size
    length = t1 - t0 + 1
    q = (i + t0 - 2) % n + 1
    end = q + min(length, n) - 1
    out = forest._read(s.tree, q, min(end, n))
    if end > n:
        out += forest._read(s.tree, 1, end - n)
    if length > n:
        out = (out * (length // n + 1))[:length]
    return out


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

    def side(s, i):
        return s, i, partial(_omega_fp, forest, s, i)

    def read(t0, t1):
        return (_omega_read(forest, s1, i1, t0, t1),
                _omega_read(forest, s2, i2, t0, t1))

    out = lcp_pipeline(forest, (side(s1, i1), side(s2, i2)), cap, cap, read)
    return (INFINITE, Order.EQUAL) if out is None else out
