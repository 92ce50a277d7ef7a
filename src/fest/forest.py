"""The public dynamic-string API: a registry of strings over shared context.

Every string is one self-adjusting tree; all strings share one fingerprint
context (so substring fingerprints compare across strings) and one optional
symbol involution.  Indices are 1-based throughout.

A Forest is single-threaded: queries splay, so even reads mutate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import circular as _circ
from . import splaycore as sc
from .compare import LcpProbes, Order, ceil_pow_two_thirds, \
    exponential_search, order_of, squaring_upper_bound
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

    def reset(self):
        self.rotations = 0
        self.fixes = 0
        self.finds = 0
        self.equal_tests = 0
        self.lcp_calls = 0
        self.lcp_squaring_probes = 0
        self.mapped_refreshes = 0
        self.last_lcp = None


class DynString:
    """Handle to one dynamic string.  Valid only within its owning forest."""

    __slots__ = ("id", "mode", "start", "tree", "alive")

    def __init__(self, id: int, mode: str, root):
        self.id = id
        self.mode = mode
        self.start = 1
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
    involution, when given, is a symbol self-inverse mapping used by map().
    With audit=True every public operation re-verifies all aggregates of the
    trees it touched (slow; for tests).
    """

    def __init__(self, seed: int | None = None, involution=None,
                 audit: bool = False):
        self.ctx = FingerprintContext(seed=seed)
        fmap = None if involution is None else sc.validate_involution(involution)
        self.cfg = sc.TreeConfig(self.ctx.base, self.ctx.modulus, fmap)
        self.stats = ForestStats()
        self.audit = audit
        self._strings: dict[int, DynString] = {}
        self._next_id = 0
        self.total_length = 0

    @property
    def involution(self):
        return self.cfg.fmap

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

    def _after(self, *touched) -> None:
        if self.audit:
            for s in touched:
                if s.alive:
                    sc.verify_tree(s.tree.root, self.cfg)

    # ----------------------------------------------------------- creation

    def make_string(self, w, mode: str = LINEAR) -> DynString:
        """New dynamic string with the content of w, built in linear time."""
        if mode not in (LINEAR, CIRCULAR):
            raise UsageError(f"unknown mode {mode!r}")
        syms = _as_symbols(w)
        s = self._register(sc.build_balanced(syms, self.cfg), mode)
        self.total_length += len(syms)
        self._after(s)
        return s

    # ------------------------------------------------------------ queries

    def access(self, s: DynString, i: int) -> int:
        """The symbol at position i (canonical coordinates)."""
        self._check(s)
        q = _circ.stored_point(s, i) if s.mode == CIRCULAR else i
        self.stats.finds += 1
        node = sc.find(s.tree, q, self.cfg, self.stats)
        self._after(s)
        return node.char

    def retrieve(self, s: DynString, i: int, j: int) -> list[int]:
        """The substring from i to j as a plain symbol list.

        For linear strings i = j + 1 yields the empty list.  For circular
        strings i > j denotes the wrapped range.
        """
        self._check(s)
        if s.mode == LINEAR:
            if i == j + 1 and 1 <= i <= s.length + 1:
                return []
            a, b = self._linear_range(s, i, j)
        else:
            a, b = _circ.resolve_range(self, s, i, j)
        y = sc.isolate(s.tree, a, b, self.cfg, self.stats)
        out = sc.inorder_symbols(y, self.cfg, self.stats)
        self._after(s)
        return out

    def equal(self, s1: DynString, i1: int, s2: DynString, i2: int,
              l: int) -> bool:
        """Whether the two length-l ranges match; a False is always genuine."""
        self._check(s1)
        self._check(s2)
        if l < 0:
            raise RangeError("negative length")
        if l == 0:
            return True
        fp1 = self._range_fp(s1, i1, l)
        fp2 = self._range_fp(s2, i2, l)
        self.stats.equal_tests += 1
        self._after(s1, s2)
        return fp1 == fp2

    # ------------------------------------------------------------- edits

    def substitute(self, s: DynString, i: int, c: int) -> None:
        """Overwrite the symbol at position i."""
        self._check(s)
        (c,) = _as_symbols([c])
        q = _circ.stored_point(s, i) if s.mode == CIRCULAR else i
        self.stats.finds += 1
        node = sc.find(s.tree, q, self.cfg, self.stats)
        node.char = c
        cfg = self.cfg
        sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
        self._after(s)

    def insert(self, s: DynString, i: int, c: int) -> None:
        """Insert symbol c so it lands at position i; appending uses i = n+1."""
        self._check(s)
        (c,) = _as_symbols([c])
        n = s.length
        if s.mode == CIRCULAR:
            q, new_start = _circ.insert_point(s, i)
        else:
            if not 1 <= i <= n + 1:
                raise RangeError(f"insert position {i} outside [1, {n + 1}]")
            q, new_start = i, 1
        cfg = self.cfg
        cfg.reserve(n + 1)
        node = sc.Node(c)
        tree = s.tree
        if n == 0:
            sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
            tree.root = node
        elif q == n + 1:
            # Append: the old root becomes the new node's left subtree.
            sc.find(tree, n, cfg, self.stats)
            old = tree.root
            node.left = old
            old.parent = node
            sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
            tree.root = node
        else:
            sc.find(tree, q, cfg, self.stats)
            x = tree.root
            node.left = x.left
            if node.left is not sc.NULL:
                node.left.parent = node
            x.left = sc.NULL
            sc.pull(x, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
            node.right = x
            x.parent = node
            sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
            tree.root = node
        s.start = new_start
        self.total_length += 1
        self._after(s)

    def delete(self, s: DynString, i: int) -> None:
        """Remove the symbol at position i."""
        self._check(s)
        if s.mode == CIRCULAR:
            q, new_start = _circ.delete_point(s, i)
        else:
            if not 1 <= i <= s.length:
                raise RangeError(f"position {i} outside [1, {s.length}]")
            q, new_start = i, 1
        self.stats.finds += 1
        x = sc.find(s.tree, q, self.cfg, self.stats)
        left = x.left if x.left is not sc.NULL else None
        right = x.right if x.right is not sc.NULL else None
        if left is not None:
            left.parent = None
        if right is not None:
            right.parent = None
        s.tree.root = sc.join(left, right, self.cfg, self.stats)
        s.start = new_start
        self.total_length -= 1
        self._after(s)

    # ----------------------------------------------- splicing and slicing

    def introduce(self, s1: DynString, i: int, s2: DynString) -> None:
        """Splice all of s2 into s1 before position i, destroying s2."""
        self._check(s1)
        self._check(s2)
        if s1 is s2:
            raise UsageError("cannot introduce a string into itself")
        if s2.mode == CIRCULAR:
            _circ.rotate_to_front(self, s2, 1)
        m = s2.length
        if s1.mode == CIRCULAR:
            q, new_start = _circ.insert_point(s1, i, block=m)
        else:
            if not 1 <= i <= s1.length + 1:
                raise RangeError(
                    f"introduce position {i} outside [1, {s1.length + 1}]")
            q, new_start = i, 1
        self.cfg.reserve(s1.length + m)
        sub = s2.tree.root
        self._destroy(s2)
        if sub is not None:
            point = sc.isolate(s1.tree, q, q - 1, self.cfg, self.stats)
            sc.attach(point, sub, self.cfg, s1.tree)
        s1.start = new_start
        self._after(s1)

    def drop(self, s: DynString) -> None:
        """Destroy s and its symbols in O(1); the handle dies."""
        self._check(s)
        self.total_length -= s.length
        self._destroy(s)

    def extract(self, s: DynString, i: int, j: int) -> DynString:
        """Remove the range i..j from s and hand it back as a new string.

        The new handle is always linear, also when s is circular.
        """
        self._check(s)
        if s.mode == CIRCULAR:
            a, b, new_start = _circ.extract_range(self, s, i, j)
        else:
            a, b = self._linear_range(s, i, j)
            new_start = 1
        y = sc.isolate(s.tree, a, b, self.cfg, self.stats)
        sc.detach(y, self.cfg, s.tree)
        s.start = new_start
        out = self._register(y, LINEAR)
        self._after(s, out)
        return out

    # ------------------------------------------------------ lazy range ops

    def reverse(self, s: DynString, i: int, j: int) -> None:
        """Reverse the substring i..j in place, lazily."""
        self._check(s)
        if s.mode == CIRCULAR:
            a, b = _circ.resolve_range(self, s, i, j)
        else:
            a, b = self._linear_range(s, i, j)
        y = sc.isolate(s.tree, a, b, self.cfg, self.stats)
        y.rev = not y.rev
        sc.repull_ancestors_from(y.parent, self.cfg)
        self._after(s)

    def map(self, s: DynString, i: int, j: int) -> None:
        """Apply the forest involution to every symbol in i..j, lazily."""
        self._check(s)
        if self.cfg.fmap is None:
            raise UsageError("forest has no involution configured")
        if s.mode == CIRCULAR:
            a, b = _circ.resolve_range(self, s, i, j)
        else:
            a, b = self._linear_range(s, i, j)
        y = sc.isolate(s.tree, a, b, self.cfg, self.stats)
        # A map-flagged subtree must be fresh; the flag goes on only once
        # the refresh has completed.
        self.stats.mapped_refreshes += sc.refresh_mapped(y, self.cfg)
        y.map = not y.map
        sc.repull_ancestors_from(y.parent, self.cfg)
        self._after(s)

    # --------------------------------------------------- circular/omega ops

    def rotate(self, s: DynString, i: int) -> None:
        """Re-linearize a circular string to begin at stored position i."""
        self._check(s)
        _circ.rotate(self, s, i)
        self._after(s)

    def circular_fp(self, s: DynString, i: int, j: int):
        """Fingerprint of the wrapped stored range without physical rotation."""
        self._check(s)
        out = _circ.circular_fp(self, s, i, j)
        self._after(s)
        return out

    def equal_omega(self, s1: DynString, i1: int, s2: DynString, i2: int,
                    l: int) -> bool:
        """Whether the length-l prefixes of the two unrolled strings match."""
        self._check(s1)
        self._check(s2)
        out = _circ.equal_omega(self, s1, i1, s2, i2, l)
        self._after(s1, s2)
        return out

    def equal_omega_omega(self, s1: DynString, i1: int, l1: int,
                          s2: DynString, i2: int, l2: int) -> bool:
        """Whether the unrollings of two unrolled substrings coincide."""
        self._check(s1)
        self._check(s2)
        out = _circ.equal_omega_omega(self, s1, i1, l1, s2, i2, l2)
        self._after(s1, s2)
        return out

    def lcp_omega(self, s1: DynString, i1: int, s2: DynString, i2: int):
        """Longest common prefix of the two unrolled strings; may be infinite."""
        self._check(s1)
        self._check(s2)
        out = _circ.lcp_omega(self, s1, i1, s2, i2)
        self._after(s1, s2)
        return out

    # ------------------------------------------------------------- the lcp

    def lcp(self, s1: DynString, i1: int, s2: DynString, i2: int
            ) -> tuple[int, Order]:
        """Length of the longest common prefix of two suffixes, plus their
        lexicographic order.  Correct whp; both strings are restored before
        returning.
        """
        self._check(s1)
        self._check(s2)
        if s1.mode == CIRCULAR:
            _circ.rotate_to_front(self, s1, 1)
        if s2.mode == CIRCULAR and s2 is not s1:
            _circ.rotate_to_front(self, s2, 1)
        n1 = s1.length
        n2 = s2.length
        if not 1 <= i1 <= n1:
            raise RangeError(f"suffix start {i1} outside [1, {n1}]")
        if not 1 <= i2 <= n2:
            raise RangeError(f"suffix start {i2} outside [1, {n2}]")
        rec = LcpProbes()
        self.stats.lcp_calls += 1
        self.stats.last_lcp = rec
        same = s1 is s2
        if same and i1 == i2:
            return n1 - i1 + 1, Order.EQUAL
        if same and i1 > i2:
            length, order = self._lcp_impl(s1, i2, s2, i1, rec)
            result = length, order.flipped()
        else:
            result = self._lcp_impl(s1, i1, s2, i2, rec)
        self.stats.lcp_squaring_probes += rec.squaring
        self._after(s1, s2)
        return result

    def _lcp_impl(self, s1, i1, s2, i2, rec) -> tuple[int, Order]:
        n1 = s1.length
        n2 = s2.length
        m1 = n1 - i1 + 1
        m2 = n2 - i2 + 1
        min_suffix = min(m1, m2)
        same = s1 is s2

        def eq_direct(t):
            a = self._tree_range_fp(s1.tree, i1, i1 + t - 1)
            b = self._tree_range_fp(s2.tree, i2, i2 + t - 1)
            return a == b

        # Border: the shorter suffix is a full prefix of the longer.
        rec.border += 1
        if eq_direct(min_suffix):
            if m1 == m2:
                return min_suffix, Order.EQUAL
            return min_suffix, Order.LESS if m1 < m2 else Order.GREATER
        # Border: mismatch already within the first two symbols.
        two_equal = False
        if min_suffix > 2:
            rec.border += 1
            two_equal = eq_direct(2)
        if not two_equal:
            a = self.access(s1, i1)
            b = self.access(s2, i2)
            if a != b:
                return 0, order_of(a, b)
            return 1, order_of(self.access(s1, i1 + 1),
                               self.access(s2, i2 + 1))

        # Step 1: a crude upper bound via one mid-scale probe, then repeated
        # squaring (run inside extracted windows when the probe mismatched).
        total = n1 + n2
        mid_scale = 1 << ceil_pow_two_thirds(total)
        if mid_scale >= min_suffix:
            mid_scale = min_suffix
            mid_equal = False  # the border probe already failed there
        else:
            rec.threshold += 1
            mid_equal = eq_direct(mid_scale)
        # The windows go back in `finally`: an exception or interrupt raised
        # mid-search must not leave symbols outside their strings.
        if mid_equal:
            upper = squaring_upper_bound(eq_direct, min_suffix, rec)
        else:
            windows = self._take_windows(s1, i1, s2, i2, mid_scale)
            try:
                upper = squaring_upper_bound(windows.eq_at, mid_scale, rec)
            finally:
                windows.put_back()

        # Steps 2-4: search inside windows of the certified bound, restore.
        windows = self._take_windows(s1, i1, s2, i2, upper)
        try:
            length = exponential_search(windows.eq_at, upper, rec)
        finally:
            windows.put_back()

        a = self.access(s1, i1 + length)
        b = self.access(s2, i2 + length)
        return length, order_of(a, b)

    def _take_windows(self, s1, i1, s2, i2, size) -> "_Windows":
        return _Windows(self, s1, i1, s2, i2, size)

    # ----------------------------------------------------------- internals

    def _linear_range(self, s, i, j):
        if not 1 <= i <= j <= s.length:
            raise RangeError(f"range [{i}, {j}] outside [1, {s.length}]")
        return i, j

    def _range_fp(self, s, i, l) -> int:
        """Fingerprint of a length-l range, resolving circular coordinates."""
        if s.mode == LINEAR:
            if not (1 <= i and i + l - 1 <= s.length):
                raise RangeError(
                    f"range [{i}, {i + l - 1}] outside [1, {s.length}]")
            a, b = i, i + l - 1
        else:
            n = s.length
            if not 1 <= i <= n:
                raise RangeError(f"position {i} outside [1, {n}]")
            if l > n:
                raise RangeError(f"range length {l} exceeds circle size {n}")
            j = (i - 1 + l - 1) % n + 1
            a, b = _circ.resolve_range(self, s, i, j)
        return self._tree_range_fp(s.tree, a, b)

    def _tree_range_fp(self, tree, a, b) -> int:
        y = sc.isolate(tree, a, b, self.cfg, self.stats)
        return y.fp

    def _tree_range_fp_power(self, tree, a, b) -> tuple[int, int]:
        y = sc.isolate(tree, a, b, self.cfg, self.stats)
        return y.fp, self.cfg.pw[y.size]

    def _extract_window(self, tree, a, b) -> sc.Tree:
        y = sc.isolate(tree, a, b, self.cfg, self.stats)
        sc.detach(y, self.cfg, tree)
        return sc.Tree(y)

    def _reintroduce_window(self, tree, pos, window: sc.Tree) -> None:
        point = sc.isolate(tree, pos, pos - 1, self.cfg, self.stats)
        sc.attach(point, window.root, self.cfg, tree)


class _Windows:
    """Working windows for the suffix search: extracted range copies.

    Handles the same-string overlapping case with one combined window, the
    same-string disjoint case with extraction order that keeps coordinates
    stable, and the two-string case.  put_back() restores both strings; if
    the second extraction raises, the first window is put back at once.
    """

    def __init__(self, forest: Forest, s1, i1, s2, i2, size):
        self.forest = forest
        self.s1 = s1
        self.i1 = i1
        self.s2 = s2
        self.i2 = i2
        self.size = size
        self.overlap = s1 is s2 and i1 + size > i2
        if self.overlap:
            self.delta = i2 - i1
            self.w = forest._extract_window(s1.tree, i1, i2 + size - 1)
        elif s1 is s2:
            self.w2, self.w1 = self._take_two(s2, i2, s1, i1)
        else:
            self.w1, self.w2 = self._take_two(s1, i1, s2, i2)

    def _take_two(self, sa, ia, sb, ib):
        """Extract a then b; if b raises, a goes back before re-raising."""
        f = self.forest
        size = self.size
        wa = f._extract_window(sa.tree, ia, ia + size - 1)
        try:
            return wa, f._extract_window(sb.tree, ib, ib + size - 1)
        except BaseException:
            f._reintroduce_window(sa.tree, ia, wa)
            raise

    def eq_at(self, t: int) -> bool:
        f = self.forest
        if self.overlap:
            a = f._tree_range_fp(self.w, 1, t)
            b = f._tree_range_fp(self.w, self.delta + 1, self.delta + t)
        else:
            a = f._tree_range_fp(self.w1, 1, t)
            b = f._tree_range_fp(self.w2, 1, t)
        return a == b

    def put_back(self) -> None:
        f = self.forest
        if self.overlap:
            f._reintroduce_window(self.s1.tree, self.i1, self.w)
        else:
            f._reintroduce_window(self.s1.tree, self.i1, self.w1)
            f._reintroduce_window(self.s2.tree, self.i2, self.w2)
