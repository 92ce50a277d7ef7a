"""Comparison results and the one lcp pipeline behind `lcp` and `lcp_omega`.

The pipeline compares two sides, each a string unrolled from a stored
start, exactly at both ends and by prefix fingerprints in between.  Within
one turn a side is the plain suffix, so `lcp` and `lcp_omega` differ only
in the full length they pass.  It reads the first `READ_WIDTH` symbols of
each side, where most lcps end; past them it runs a border probe, one
mid-scale probe, repeated squaring for an upper bound and an exponential
search that stops once its bracket is at most `READ_WIDTH` wide, and then
reads that bracket.  Each stage starts from the longest length the earlier
ones showed equal and stops below the shortest they showed unequal, so no
length is probed twice.  Every probe and read runs in place: it isolates a
range of its side's own tree, which only splays, so no symbol ever leaves
its string.  (The paper moves each probe range into a tree of its own.  In
place, the probes of one side stay within about the lcp's length of each
other, which the dynamic finger bound of splay trees argues makes each
cost O(log lcp) amortized after the first.)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

#: K, the number of symbols read exactly at each end of an lcp: the first
#: K before any fingerprint, and the search's last bracket of at most K.
READ_WIDTH = 64


class Order(enum.Enum):
    """Lexicographic relation between two suffixes."""

    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


def order_of(a: int, b: int) -> Order:
    if a < b:
        return Order.LESS
    if a > b:
        return Order.GREATER
    return Order.EQUAL


@dataclass
class LcpProbes:
    """Per-call probe counts for one longest-common-prefix computation."""

    border: int = 0     # the full-overlap screening probe
    threshold: int = 0  # the single mid-scale screening probe
    squaring: int = 0   # repeated-squaring upper-bound probes
    search: int = 0     # exponential + binary search probes
    reads: int = 0      # exact reads of the head and of the last bracket

    @property
    def total(self) -> int:
        return self.border + self.threshold + self.squaring + self.search \
            + self.reads


def ceil_pow_two_thirds(n: int) -> int:
    """ceil((log2 n)^(2/3)), at least 1; exponent of the mid-scale probe."""
    if n < 2:
        return 1
    return max(1, math.ceil(math.log2(n) ** (2.0 / 3.0)))


def squaring_upper_bound(eq_at, lo: int, cap: int, rec: LcpProbes):
    """(lo, upper): the longest length known equal, and the first length of
    the squaring sequence 2, 4, 16, ... that mismatches, capped at cap.

    eq_at(lo) must hold and eq_at(cap) must not, so lengths up to lo and cap
    itself are never probed; each equal probe raises lo.  upper is a
    certified upper bound on the match length because a mismatch verdict is
    never wrong.
    """
    length = 2
    while True:
        length *= length
        if length >= cap:
            return lo, cap
        if length > lo:
            rec.squaring += 1
            if not eq_at(length):
                return lo, length
            lo = length


def exponential_search(eq_at, lo: int, hi: int, rec: LcpProbes):
    """(lo, hi), at most READ_WIDTH apart, with eq_at(lo) and not eq_at(hi),
    given that both hold of the lo and hi passed in.

    Doubles from 2·lo to bracket the answer, then bisects the bracket until
    it is narrow enough to read.
    """
    t = 2 * lo
    while t < hi and hi - lo > READ_WIDTH:
        rec.search += 1
        if eq_at(t):
            lo = t
            t *= 2
        else:
            hi = t
            break
    while hi - lo > READ_WIDTH:
        mid = (lo + hi) // 2
        rec.search += 1
        if eq_at(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _mismatch(pair, before: int):
    """(before + k, order) at the first index k where the two equally long
    symbol lists of pair differ, or None when they agree."""
    u, v = pair
    if u != v:
        for k, (a, b) in enumerate(zip(u, v)):
            if a != b:
                return before + k, order_of(a, b)
    return None


def lcp_pipeline(forest, s1, i1: int, s2, i2: int, full: int, total: int):
    """(length, order) of the longest common prefix of s1 unrolled from
    stored position i1 and s2 unrolled from i2, or None when both are one
    (string, start) or their first `full` symbols agree.

    Probes fingerprint prefixes with `forest._fp` and reads take symbols
    with `forest._symbols`, both in place.  total sets the mid-scale probe,
    min(2^ceil((log2 total)^(2/3)), full).  Every call counts as one lcp in
    forest.stats and leaves its probe record in stats.last_lcp.
    """
    stats = forest.stats
    rec = LcpProbes()
    stats.lcp_calls += 1
    stats.last_lcp = rec
    if s1 is s2 and i1 == i2:
        return None
    fp = forest._fp
    symbols = forest._symbols

    def eq_at(t):
        return fp(s1, i1, t) == fp(s2, i2, t)

    def read(t0, t1):
        """The two sides' symbols t0..t1, as two lists."""
        t = t1 - t0 + 1
        return symbols(s1, i1 + t0 - 1, t), symbols(s2, i2 + t0 - 1, t)

    # Head: the first K symbols, read exactly; then the border probe at
    # `full`.
    lo = min(full, READ_WIDTH)
    rec.reads += 1
    head = _mismatch(read(1, lo), 0)
    if head is not None:
        return head
    if lo == full:
        return None
    rec.border += 1
    if eq_at(full):
        return None

    # A crude upper bound: one mid-scale probe, then repeated squaring from
    # the longest length known equal.  After a match, or when the head read
    # already covers mid, the squaring runs up to `full`; after a mismatch
    # it runs up to `mid`, and only while the bracket is wider than K.  At
    # mid == full the border probe already failed, so there is no probe.
    # The search then narrows any bracket wider than K.
    mid = min(1 << ceil_pow_two_thirds(total), full)
    mid_equal = mid <= lo
    if lo < mid < full:
        rec.threshold += 1
        mid_equal = eq_at(mid)
    if mid_equal:
        lo, upper = squaring_upper_bound(eq_at, max(lo, mid), full, rec)
    else:
        upper = mid
    if upper - lo > READ_WIDTH:
        if not mid_equal:
            lo, upper = squaring_upper_bound(eq_at, lo, upper, rec)
        lo, upper = exponential_search(eq_at, lo, upper, rec)
    stats.lcp_squaring_probes += rec.squaring  # 0 on the earlier returns

    # Tail: read the last bracket.  upper is a genuine mismatch, so the
    # read finds one: were lo a collision and lo+1..upper equal, fp(upper)
    # would collide too.
    rec.reads += 1
    tail = _mismatch(read(lo + 1, upper), lo)
    assert tail is not None
    return tail

