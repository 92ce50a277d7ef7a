"""The public dynamic-string API: a registry of strings over shared context.

Every string is one self-adjusting tree; all strings share one fingerprint
context, `Forest.ctx` (so substring fingerprints compare across strings),
which also holds the optional symbol involution.  Indices are 1-based
throughout.

The unrolled queries (`equal_omega`, `equal_omega_omega`, `lcp_omega`)
treat a circular string as its infinite self-concatenation.  By the
periodicity bound, two unrollings that agree on their first
|s1| + |s2| - gcd(|s1|, |s2|) symbols agree forever, so every unrolled
comparison is capped at |s1| + |s2|.

A Forest is single-threaded: queries splay, so even reads mutate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import circular as _circ
from . import splaycore as sc
from .compare import LcpProbes, Order, lcp_pipeline, order_of
from .errors import DomainError, HandleError, RangeError, UsageError
from .fingerprint import FingerprintContext

LINEAR = "linear"
CIRCULAR = "circular"

#: Symbols are unsigned 32-bit codes; signs and wide alphabets are encoded
#: by the caller.  Always far below the fingerprint modulus.
MAX_SYMBOL = 1 << 32


@dataclass
class ForestStats(sc.TreeStats):
    """Cumulative instrumentation, plus the latest per-lcp probe record."""

    finds: int = 0
    equal_tests: int = 0
    lcp_calls: int = 0
    lcp_squaring_probes: int = 0
    mapped_refreshes: int = 0
    last_lcp: LcpProbes | None = None


class DynString:
    """Handle to one dynamic string.  Valid only within its owning forest.

    The tree holds the string in canonical order, circular strings too.
    """

    __slots__ = ("id", "mode", "tree", "alive")

    def __init__(self, id: int, mode: str, root):
        self.id = id
        self.mode = mode
        self.tree = sc.Tree(root)
        self.alive = True

    @property
    def length(self) -> int:
        return self.tree.size

    def __len__(self):
        return self.tree.size

    def __repr__(self):
        state = "" if self.alive else " destroyed"
        return f"<DynString #{self.id} {self.mode} n={self.tree.size}{state}>"


def _as_symbols(w) -> list[int]:
    syms = [ord(c) for c in w] if isinstance(w, str) else list(w)
    for c in syms:
        if not isinstance(c, int) or not 0 <= c < MAX_SYMBOL:
            raise DomainError(f"symbol {c!r} outside [0, 2^32)")
    return syms


class Forest:
    """Registry of dynamic strings sharing one fingerprint context.

    seed drives the random fingerprint base, so failures replay exactly;
    with seed=None it is drawn at random and recorded in `ctx.seed`.
    involution, when given, is a symbol self-inverse mapping used by map(),
    kept as `ctx.fmap`.
    """

    def __init__(self, seed: int | None = None, involution=None):
        self.ctx = FingerprintContext(seed=seed, involution=involution)
        self.stats = ForestStats()
        self._strings: dict[int, DynString] = {}
        self._next_id = 0

    @property
    def total_length(self) -> int:
        """The number of symbols over all live strings."""
        return sum(s.tree.size for s in self._strings.values())

    def live_handles(self):
        return list(self._strings.values())

    # ------------------------------------------------------------ registry

    def _register(self, root, mode: str) -> DynString:
        s = DynString(self._next_id, mode, root)
        self._next_id += 1
        self._strings[s.id] = s
        return s

    def _destroy(self, s: DynString) -> None:
        del self._strings[s.id]
        s.alive = False
        s.tree = sc.Tree(None)

    def _check(self, s) -> None:
        if not isinstance(s, DynString) or not s.alive \
                or self._strings.get(s.id) is not s:
            raise HandleError(f"stale or foreign handle {s!r}")

    # ----------------------------------------------------------- creation

    def make_string(self, w, mode: str = LINEAR) -> DynString:
        """New dynamic string with the content of w, built in linear time."""
        if mode not in (LINEAR, CIRCULAR):
            raise UsageError(f"unknown mode {mode!r}")
        syms = _as_symbols(w)
        s = self._register(sc.build_balanced(syms, self.ctx), mode)
        return s

    # ------------------------------------------------------------ queries

    def access(self, s: DynString, i: int) -> int:
        """The symbol at position i."""
        self._check(s)
        node = sc.find(s.tree, i, self.ctx, self.stats)
        self.stats.finds += 1
        return node.char

    def retrieve(self, s: DynString, i: int, j: int) -> list[int]:
        """The substring from i to j as a plain symbol list.

        For linear strings i = j + 1 yields the empty list.  For circular
        strings i > j denotes the wrapped range.
        """
        self._check(s)
        if s.mode == LINEAR and i == j + 1 and 1 <= i <= s.length + 1:
            return []
        self._wraps(s, i, j)
        return self._symbols(s, i, (j - i) % s.length + 1)

    def equal(self, s1: DynString, i1: int, s2: DynString, i2: int,
              l: int) -> bool:
        """Whether the two length-l ranges match; a False is always genuine."""
        self._check(s1)
        self._check(s2)
        if l < 0:
            raise RangeError("negative length")
        if l == 0:
            return True
        for s, i in ((s1, i1), (s2, i2)):
            n = s.length
            if s.mode == LINEAR:
                if not (1 <= i and i + l - 1 <= n):
                    raise RangeError(
                        f"range [{i}, {i + l - 1}] outside [1, {n}]")
            else:
                self._point(s, i)
                if l > n:
                    raise RangeError(
                        f"range length {l} exceeds circle size {n}")
        return self._same(s1, i1, s2, i2, l)

    # ------------------------------------------------------------- edits

    def substitute(self, s: DynString, i: int, c: int) -> None:
        """Overwrite the symbol at position i."""
        self._check(s)
        (c,) = _as_symbols([c])
        ctx = self.ctx
        node = sc.find(s.tree, i, ctx, self.stats)
        self.stats.finds += 1
        node.char = c
        sc.pull(node, ctx.base, ctx.modulus, ctx.pw, ctx.fmap)

    def insert(self, s: DynString, i: int, c: int) -> None:
        """Insert symbol c so it lands at position i; appending uses i = n+1.

        A split before i, then two joins."""
        self._check(s)
        (c,) = _as_symbols([c])
        n = s.length
        if not 1 <= i <= n + 1:
            raise RangeError(f"insert position {i} outside [1, {n + 1}]")
        ctx = self.ctx
        ctx.reserve(n + 1)
        node = sc.Node(c)
        sc.pull(node, ctx.base, ctx.modulus, ctx.pw, ctx.fmap)
        left, right = sc.split(s.tree, i - 1, ctx, self.stats)
        s.tree.root = sc.join(left, sc.join(node, right, ctx, self.stats),
                              ctx, self.stats)

    def delete(self, s: DynString, i: int) -> None:
        """Remove the symbol at position i: `extract`'s cut of i..i."""
        self._check(s)
        self._point(s, i)
        self.stats.finds += 1
        self._cut(s.tree, i, i)

    # ----------------------------------------------- splicing and slicing

    def introduce(self, s1: DynString, i: int, s2: DynString) -> None:
        """Splice all of s2 into s1 before position i, destroying s2.

        s2's last symbol is splayed to its root, s1 is split before i and
        the three pieces are joined.  Only descents raise, all before the
        first link, so a fault leaves both strings as they were, s2 alive.
        """
        self._check(s1)
        self._check(s2)
        if s1 is s2:
            raise UsageError("cannot introduce a string into itself")
        if not 1 <= i <= s1.length + 1:
            raise RangeError(
                f"introduce position {i} outside [1, {s1.length + 1}]")
        ctx = self.ctx
        m = s2.length
        if m:
            ctx.reserve(s1.length + m)
            sub = sc.find(s2.tree, m, ctx, self.stats)
            left, right = sc.split(s1.tree, i - 1, ctx, self.stats)
            s1.tree.root = sc.join(left, sc.join(sub, right, ctx, self.stats),
                                   ctx, self.stats)
        self._destroy(s2)

    def drop(self, s: DynString) -> None:
        """Destroy s and its symbols in O(1); the handle dies."""
        self._check(s)
        self._destroy(s)

    def extract(self, s: DynString, i: int, j: int) -> DynString:
        """Remove the range i..j from s and hand it back as a new string.

        The new handle is always linear, also when s is circular.  A
        wrapped range is turned to the front first; what remains of s,
        j+1..i-1, is then in canonical order.

        The range is cut out by `_cut`.  If that raises, a turned string
        is turned back, so s is as it was.
        """
        self._check(s)
        a, b, back = self._turned(s, i, j)
        try:
            mid = self._cut(s.tree, a, b)
        except BaseException:
            if back:
                _circ.rotate_to_front(self, s, back)
            raise
        return self._register(mid, LINEAR)

    # ------------------------------------------------------ lazy range ops

    def reverse(self, s: DynString, i: int, j: int) -> None:
        """Reverse the substring i..j in place, lazily.

        A wrapped range is turned to the front, reversed, and turned back.
        The whole circle from i is the whole string's reversal once the
        string is turned to 2i - 1, so nothing turns back.
        """
        self._check(s)
        if i == j + 1 and self._wraps(s, i, j):
            n = s.length
            front = (2 * i - 2) % n + 1
            if front > 1:
                _circ.rotate_to_front(self, s, front)
            i, j = 1, n
        a, b, back = self._turned(s, i, j)
        try:
            if back:
                # The turn back splits at the node now at j + 1, which the
                # reversal moves to n - i + 1.  Splayed first, it stays
                # within two levels of the root, and the turn back meets
                # only fixed nodes: it calls no involution, so it cannot
                # fail once the range is reversed.
                sc.find(s.tree, j + 1, self.ctx, self.stats)
            y = sc.isolate(s.tree, a, b, self.ctx, self.stats)
            y.rev = not y.rev
            sc.repull_ancestors_from(y.parent, self.ctx)
        finally:
            if back:
                _circ.rotate_to_front(self, s, back)

    def map(self, s: DynString, i: int, j: int) -> None:
        """Apply the forest involution to every symbol in i..j, lazily.

        A wrapped range is mapped in its two pieces; i = j + 1 is the whole
        circle, one piece.
        """
        self._check(s)
        ctx = self.ctx
        if ctx.fmap is None:
            raise UsageError("forest has no involution configured")
        self._wraps(s, i, j)
        n = s.length
        t = (j - i) % n + 1
        pieces = list(self._pieces(s, 1 if t == n else i, t))
        # A map-flagged subtree must be fresh; the flags go on only once
        # every piece has been refreshed.
        for y in pieces:
            self.stats.mapped_refreshes += sc.refresh_mapped(y, ctx)
        for y in pieces:
            y.map = not y.map
            sc.repull_ancestors_from(y.parent, ctx)

    # --------------------------------------------------- circular/omega ops

    def rotate(self, s: DynString, i: int) -> None:
        """Validate a rotation of a circular string, which moves no symbol:
        the canonical string is rotation-invariant."""
        self._check_circular((s, i))

    def equal_omega(self, s1: DynString, i1: int, s2: DynString, i2: int,
                    l: int) -> bool:
        """Whether the length-l prefixes of the two unrolled strings match
        (whp); l is capped at |s1| + |s2|, since agreement that far is
        agreement forever."""
        self._check_circular((s1, i1), (s2, i2))
        if l < 0:
            raise RangeError("negative length")
        if l == 0:
            return True
        return self._same(s1, i1, s2, i2, min(l, s1.length + s2.length))

    def equal_omega_omega(self, s1: DynString, i1: int, l1: int,
                          s2: DynString, i2: int, l2: int) -> bool:
        """Whether the unrollings of two unrolled substrings coincide (whp).

        Reduces to comparing the l2-fold copy of one window against the
        l1-fold copy of the other, all in fingerprint space.
        """
        self._check_circular((s1, i1), (s2, i2))
        if l1 < 1 or l2 < 1:
            raise RangeError("window lengths must be at least 1")
        k1 = self._fp(s1, i1, l1)
        k2 = self._fp(s2, i2, l2)
        ctx = self.ctx
        p = ctx.modulus
        d1 = pow(ctx.base, l1, p)
        d2 = pow(ctx.base, l2, p)
        self.stats.equal_tests += 1
        return k1 * ctx.geomsum(d1, l2 - 1) % p \
            == k2 * ctx.geomsum(d2, l1 - 1) % p

    def lcp_omega(self, s1: DynString, i1: int, s2: DynString, i2: int):
        """Longest common prefix of the two unrolled strings, plus their
        order: (INFINITE, EQUAL) when the unrollings coincide, else a length
        below the cap |s1| + |s2| and the strict order.  Runs the linear
        lcp's pipeline with the cap as its full length and total."""
        self._check_circular((s1, i1), (s2, i2))
        cap = s1.length + s2.length
        out = lcp_pipeline(self, s1, i1, s2, i2, cap, cap)
        return (_circ.INFINITE, Order.EQUAL) if out is None else out

    # ------------------------------------------------------------- the lcp

    def lcp(self, s1: DynString, i1: int, s2: DynString, i2: int
            ) -> tuple[int, Order]:
        """Length of the longest common prefix of two suffixes, plus their
        lexicographic order.  Exact below `compare.READ_WIDTH`, correct whp
        above it.  It moves no symbol out of its string; it only splays.
        """
        self._check(s1)
        self._check(s2)
        self._point(s1, i1)
        self._point(s2, i2)
        n1 = s1.length
        n2 = s2.length
        m1 = n1 - i1 + 1
        m2 = n2 - i2 + 1
        out = lcp_pipeline(self, s1, i1, s2, i2, min(m1, m2), n1 + n2)
        if out is None:  # one suffix is a prefix of the other
            return min(m1, m2), order_of(m1, m2)
        return out

    # ----------------------------------------------------------- internals

    def _point(self, s, i) -> None:
        """Validate position i of s."""
        n = s.tree.size
        if not 1 <= i <= n:
            raise RangeError(f"position {i} outside [1, {n}]")

    def _check_circular(self, *points) -> None:
        """Validate the (string, position) operands of a circular query in
        the oracle's order: every handle, then every mode, then every
        position."""
        for s, _ in points:
            self._check(s)
        for s, _ in points:
            if s.mode != CIRCULAR:
                raise UsageError(f"{s!r} is not circular")
        for s, i in points:
            self._point(s, i)

    def _same(self, s1, i1, s2, i2, t) -> bool:
        """Whether s1 unrolled from i1 and s2 from i2 have one fingerprint
        over their first t symbols: one equality test."""
        k1 = self._fp(s1, i1, t)
        k2 = self._fp(s2, i2, t)
        self.stats.equal_tests += 1
        return k1 == k2

    def _wraps(self, s, i, j) -> bool:
        """Validate the range i..j of s; True when it wraps through the
        seam, which only a circular range with i > j does."""
        n = s.length
        if s.mode == CIRCULAR and 1 <= j < i <= n:
            return True
        if not 1 <= i <= j <= n:
            raise RangeError(f"range [{i}, {j}] outside [1, {n}]")
        return False

    def _pieces(self, s, i, t):
        """Isolate the t <= n symbols from stored position i and yield the
        subtree roots that hold them in order: none for t = 0, [i..i+t-1],
        or [i..n] then [1..i+t-1-n] when the range wraps through the seam.

        The second isolate runs when the second piece is asked for, so a
        caller reads each piece before asking for the next.  For t < n the
        first piece survives it, because its splay rises from the left of
        node i-1; at t = n it does not.
        """
        if t == 0:
            return
        n = s.tree.size
        end = i + t - 1
        if end <= n:
            yield sc.isolate(s.tree, i, end, self.ctx, self.stats)
        else:
            yield sc.isolate(s.tree, i, n, self.ctx, self.stats)
            yield sc.isolate(s.tree, 1, end - n, self.ctx, self.stats)

    def _turned(self, s, i, j) -> tuple[int, int, int | None]:
        """(a, b, back): the range i..j sits at a..b once a wrapped range
        has been turned to the front, and turning to `back` undoes that;
        back is None when nothing turned."""
        if not self._wraps(s, i, j):
            return i, j, None
        n = s.length
        _circ.rotate_to_front(self, s, i)
        return 1, n - i + 1 + j, n - i + 2

    def _fp(self, s, i, t) -> int:
        """Fingerprint of the first t symbols of s unrolled from stored
        position i, taken in place: the pieces of at most one turn folded
        by concatenation, and past one turn a geometric sum over the copies
        of the turn.  It moves no symbol, so both operands of a comparison
        may be one string.
        """
        ctx = self.ctx
        p = ctx.modulus
        pw = ctx.pw
        n = s.tree.size
        copies, part = (0, t) if t <= n else divmod(t, n)
        fp = 0
        for y in self._pieces(s, i, part):
            fp = (fp * pw[y.size] + y.fp) % p
        if not copies:
            return fp
        turn = 0
        for y in self._pieces(s, i, n):
            turn = (turn * pw[y.size] + y.fp) % p
        geo = ctx.geomsum(pw[n], copies - 1)
        return (turn * geo % p * pw[part] + fp) % p

    def _symbols(self, s, i, t) -> list[int]:
        """The first t symbols of s unrolled from stored position i: at most
        one turn, read from (i-1) mod n + 1, then repeated."""
        n = s.tree.size
        out = []
        for y in self._pieces(s, (i - 1) % n + 1, min(t, n)):
            out += sc.inorder_symbols(y, self.ctx, self.stats)
        if t > n:
            out = (out * (t // n + 1))[:t]
        return out

    def _cut(self, tree, a, b):
        """Cut ranks a..b out of tree, close the gap and return the root of
        the cut piece.

        Two splits cut the range out and a join closes the gap; the left
        piece is rooted at its last node, so that join walks no spine and
        cannot raise.  If a split raises, the pieces are joined back the
        same way, so the tree is as it was.
        """
        ctx = self.ctx
        left, rest = None, tree.root
        try:
            left, rest = sc.split(tree, a - 1, ctx, self.stats)
            mid, right = sc.split(sc.Tree(rest), b - a + 1, ctx, self.stats)
        except BaseException:
            tree.root = sc.join(left, rest, ctx, self.stats)
            raise
        tree.root = sc.join(left, right, ctx, self.stats)
        return mid
