"""The public dynamic-string API: a registry of strings over shared context.

Every string is one self-adjusting tree; all strings share one fingerprint
context (so substring fingerprints compare across strings) and one optional
symbol involution.  Indices are 1-based throughout.

A Forest is single-threaded: queries splay, so even reads mutate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
        if s1 is s2 and i1 == i2:
            return n1 - i1 + 1, Order.EQUAL
        result = self._lcp_impl(s1, i1, s2, i2, rec)
        self.stats.lcp_squaring_probes += rec.squaring
        self._after(s1, s2)
        return result

    def _lcp_impl(self, s1, i1, s2, i2, rec) -> tuple[int, Order]:
        m1 = s1.length - i1 + 1
        m2 = s2.length - i2 + 1

        def side(s, i):
            return s, i, partial(self._prefix_fp, s.tree, i)

        def symbols(t):
            return self.access(s1, i1 + t - 1), self.access(s2, i2 + t - 1)

        out = lcp_pipeline(self, (side(s1, i1), side(s2, i2)), min(m1, m2),
                           s1.length + s2.length, symbols, rec)
        if out is None:  # the shorter suffix is a prefix of the longer
            return min(m1, m2), order_of(m1, m2)
        return out

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
            a = i
        else:
            n = s.length
            if not 1 <= i <= n:
                raise RangeError(f"position {i} outside [1, {n}]")
            if l > n:
                raise RangeError(f"range length {l} exceeds circle size {n}")
            j = (i - 1 + l - 1) % n + 1
            a, _ = _circ.resolve_range(self, s, i, j)
        return self._prefix_fp(s.tree, a, l)

    def _prefix_fp(self, tree, a, t) -> int:
        """Fingerprint of the t symbols from stored position a."""
        y = sc.isolate(tree, a, a + t - 1, self.cfg, self.stats)
        return y.fp

    def _extract_window(self, tree, a, b) -> sc.Tree:
        y = sc.isolate(tree, a, b, self.cfg, self.stats)
        sc.detach(y, self.cfg, tree)
        return sc.Tree(y)

    def _reintroduce_window(self, tree, pos, window: sc.Tree) -> None:
        point = sc.isolate(tree, pos, pos - 1, self.cfg, self.stats)
        sc.attach(point, window.root, self.cfg, tree)
