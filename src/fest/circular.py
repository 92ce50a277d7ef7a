"""Circular-string support: rotations, wrapped ranges, and unrolled queries.

A circular handle stores some linearization of its canonical string; the
1-based field `start` records which canonical position sits at stored
position 1 (canonical index i lives at stored position
((n + i - start) mod n) + 1).  Operations take canonical indices; a range
with i > j wraps around the seam.

Ranges are made physically contiguous before use: a canonical-linear range
whose stored image crosses the seam triggers a re-rotation to start 1, and a
wrapped range triggers a re-rotation that puts its first symbol at stored
position 1.  Rotations never change the canonical string.

"Unrolled" queries treat a string as its infinite self-concatenation.  By
the periodicity bound, two unrollings agreeing on their first
|s1| + |s2| - gcd(|s1|, |s2|) symbols agree forever, so every unrolled
comparison is capped at cap_length = |s1| + |s2|.  An unrolled prefix is
fingerprinted in place from at most two stored slices per copy and a
geometric sum over the copies (`_omega_fp`); it never re-rotates, so both
operands may be one string.  `lcp_omega` runs the linear lcp's pipeline
(`compare.lcp_pipeline`) with the cap as its full length.
"""

from __future__ import annotations

import enum
from functools import partial

from . import splaycore as sc
from .compare import LcpProbes, Order, lcp_pipeline
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


# ------------------------------------------------------- coordinate mapping

def stored_point(s, i: int) -> int:
    """Stored position of canonical index i."""
    _check_pos(s, i)
    return (i - s.start) % s.tree.size + 1


def insert_point(s, i: int, block: int = 1) -> tuple[int, int]:
    """(stored slot, new start) for inserting `block` symbols at index i."""
    n = s.tree.size
    if not 1 <= i <= n + 1:
        raise RangeError(f"insert position {i} outside [1, {n + 1}]")
    if n == 0:
        return 1, 1
    r = s.start
    q = i - r + 1 if i >= r else n + 1 + i - r
    if q == 1:
        new_start = i
    elif i < r:
        new_start = r + block
    else:
        new_start = r
    return q, new_start


def delete_point(s, i: int) -> tuple[int, int]:
    """(stored position, new start) for deleting the symbol at index i."""
    n = s.tree.size
    _check_pos(s, i)
    r = s.start
    q = i - r + 1 if i >= r else n + 1 + i - r
    if n == 1:
        new_start = 1
    elif i < r:
        new_start = r - 1
    elif i == r:
        new_start = r if r <= n - 1 else 1
    else:
        new_start = r
    return q, new_start


# ------------------------------------------------------------- re-rotation

def _tree_rotate(forest, s, q: int) -> None:
    """Make stored position q the new stored front (split + swapped join)."""
    if q == 1:
        return
    left, right = sc.split(s.tree, q - 1, forest.cfg, forest.stats)
    s.tree.root = sc.join(right, left, forest.cfg, forest.stats)


def rotate(forest, s, i: int) -> None:
    """Public rotation: the stored string becomes stored[i..] stored[..i-1].

    The canonical string is unchanged; only the internal linearization and
    the start offset move.
    """
    n = _require_circular(s)
    if not 1 <= i <= n:
        raise RangeError(f"rotation point {i} outside [1, {n}]")
    new_start = (s.start - 1 + i - 1) % n + 1
    _tree_rotate(forest, s, i)
    s.start = new_start


def rotate_to_front(forest, s, target: int) -> None:
    """Re-rotate so canonical index `target` sits at stored position 1."""
    n = s.tree.size
    if n == 0:
        s.start = 1
        return
    q = (target - s.start) % n + 1
    _tree_rotate(forest, s, q)
    s.start = target


# ------------------------------------------------------------ range guard

def resolve_range(forest, s, i: int, j: int) -> tuple[int, int]:
    """Stored endpoints of the canonical range i..j, re-rotating if needed.

    i > j denotes the wrapped range through the seam (never empty); its
    length is n - i + 1 + j.
    """
    n = s.tree.size
    _check_pos(s, i)
    _check_pos(s, j)
    if i <= j:
        length = j - i + 1
        a = (i - s.start) % n + 1
        if a + length - 1 <= n:
            return a, a + length - 1
        rotate_to_front(forest, s, 1)
        return i, j
    length = n - i + 1 + j
    rotate_to_front(forest, s, i)
    return 1, length


def extract_range(forest, s, i: int, j: int) -> tuple[int, int, int]:
    """Stored endpoints plus the remainder's new start for an extraction.

    The string is first re-rotated so the range begins at stored position 1;
    the remainder keeps canonical order, restarting at 1 when the extracted
    range wrapped or reached the canonical end.
    """
    n = s.tree.size
    _check_pos(s, i)
    _check_pos(s, j)
    length = j - i + 1 if i <= j else n - i + 1 + j
    rotate_to_front(forest, s, i)
    remainder = n - length
    new_start = i if (i <= j and i <= remainder) else 1
    return 1, length, new_start


# -------------------------------------------------- wrapped fingerprints

def _slice_fp(forest, s, q: int, length: int) -> int:
    """Fingerprint of the stored circular slice [q, q+length)."""
    if length == 0:
        return 0
    n = s.tree.size
    cfg = forest.cfg
    if q + length - 1 <= n:
        return sc.isolate(s.tree, q, q + length - 1, cfg, forest.stats).fp
    tail = length - (n - q + 1)
    f_head = sc.isolate(s.tree, q, n, cfg, forest.stats).fp
    f_tail = sc.isolate(s.tree, 1, tail, cfg, forest.stats).fp
    return (f_head * cfg.pw[tail] + f_tail) % cfg.modulus


def _omega_fp(forest, s, i: int, length: int) -> int:
    """Fingerprint of the unrolled string from canonical i, via seam splices.

    Never moves the rotation, so both probe targets may live in one tree.
    """
    n = s.tree.size
    q = (i - s.start) % n + 1
    copies, part = divmod(length, n)
    part_fp = _slice_fp(forest, s, q, part)
    if copies == 0:
        return part_fp
    turn_fp = _slice_fp(forest, s, q, n)
    cfg = forest.cfg
    p = cfg.modulus
    geo = forest.ctx.geomsum(cfg.pw[n], copies - 1)
    return (turn_fp * geo % p * cfg.pw[part] + part_fp) % p


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


def _omega_symbol(forest, s, i: int, t: int) -> int:
    """t-th symbol (1-based) of the unrolled string starting at canonical i."""
    n = s.tree.size
    return forest.access(s, (i + t - 2) % n + 1)


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
    rec = LcpProbes()
    forest.stats.lcp_calls += 1
    forest.stats.last_lcp = rec
    if s1 is s2 and i1 == i2:
        return INFINITE, Order.EQUAL
    cap = cap_length(s1, s2)

    def side(s, i):
        a = (i - s.start) % s.tree.size + 1
        return s, a, partial(_omega_fp, forest, s, i)

    def symbols(t):
        return (_omega_symbol(forest, s1, i1, t),
                _omega_symbol(forest, s2, i2, t))

    out = lcp_pipeline(forest, (side(s1, i1), side(s2, i2)), cap, cap,
                       symbols, rec)
    if out is None:
        return INFINITE, Order.EQUAL
    forest.stats.lcp_squaring_probes += rec.squaring
    return out
