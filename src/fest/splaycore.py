"""Self-adjusting order-statistic tree whose nodes carry string fingerprints.

Each node stores one symbol plus aggregates over its subtree's in-order
symbol sequence: node count and four fingerprints (forward, reversed,
involution-mapped, mapped-and-reversed).  Two lazy flags defer subtree
reversal (`rev`) and symbol mapping (`map`): a set flag means the subtree's
logical content is the stored content transformed, but the transformation
has not been pushed down yet.

The base power b^size that the Karp-Rabin concatenation
fp(uv) = fp(u)*b^|v| + fp(v) needs depends on the size alone, so it is read
from the table `pw` of the forest's `FingerprintContext`, which the
functions here take as `cfg`, and not stored per node.  The table must
cover every tree built over the context: `build_balanced` reserves its
length, and a caller that makes a tree longer than the table (an insert, a
splice of two trees) calls `cfg.reserve` first.

Stored aggregates of a node always describe the subtree *before* that
node's own pending flags are applied, with every descendant interpreted
through its own flags.  `pull` therefore reads children through their
flags, and `fix` materializes a node's own flags by one level.

One exception is a splay in progress: rotations only relink, so the
aggregates of the nodes on the access path are stale until `splay` returns.
`splay` pulls every demoted node after its step and pulls the splayed node
last, so no caller ever sees a stale size, `fp` or `fprev`.

The other is the mapped pair (`mfp`, `mfprev`), which only `map` reads.
With an involution configured, `pull` keeps size, `fp` and `fprev`
and marks the mapped pair stale (`mfp = mfprev = None`); `refresh_mapped`
recomputes the stale pairs of a subtree, children first, right before a
`map` flag is set on it.  Two invariants hold between public operations:

* no fresh node has a stale child, so a fresh node's subtree is all fresh;
* a node with the `map` flag, and its whole subtree, is fresh.

So `pull` and `fix` only read the mapped pair of a child whose `map` flag
is set, which is fresh.  Every refresh clears a mark that one earlier pull
set, so the mapped work never exceeds one recomputation per pull, the cost
of keeping the pair eager, and the O(log n) amortized bounds stay.  Without
an involution the mapped pair aliases `fp`/`fprev` and is never stale.

Strings are spliced by `split` and `join` alone; `isolate` gathers a
non-empty rank range i..j (i <= j) into one subtree, read or flagged in place.

All descents and splays are iterative; trees can degrade to long spines and
recursion would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError
from .fingerprint import FingerprintContext


class Node:
    """One symbol plus subtree aggregates (size and four fingerprints) and
    lazy flags.  The subtree's base power is `cfg.pw[size]`.

    Freshly constructed nodes hold placeholder aggregates; every creation
    site must pull() before the node is read.
    """

    __slots__ = ("char", "left", "right", "parent", "size",
                 "fp", "fprev", "mfp", "mfprev", "rev", "map")

    def __init__(self, char: int):
        self.char = char
        self.left = NULL
        self.right = NULL
        self.parent = None
        self.size = 1
        self.fp = char
        self.fprev = char
        self.mfp = char
        self.mfprev = char
        self.rev = False
        self.map = False

    def __repr__(self):
        return (f"<Node char={self.char} size={self.size}"
                f"{' rev' if self.rev else ''}{' map' if self.map else ''}>")


# Shared immutable stand-in for absent children: size 0, neutral fingerprints,
# flags clear.  `pull` reads it without branching; `fix` and the
# rotation code must never write to it.
NULL = Node.__new__(Node)
NULL.char = 0
NULL.left = None
NULL.right = None
NULL.parent = None
NULL.size = 0
NULL.fp = 0
NULL.fprev = 0
NULL.mfp = 0
NULL.mfprev = 0
NULL.rev = False
NULL.map = False


@dataclass
class TreeStats:
    """Exact instrumentation counters (not sampled)."""

    rotations: int = 0
    fixes: int = 0


class Tree:
    """Mutable root holder, so restructuring helpers can update it in place."""

    __slots__ = ("root",)

    def __init__(self, root: Node | None = None):
        self.root = root

    @property
    def size(self) -> int:
        return self.root.size if self.root is not None else 0


def effective_fps(x: Node) -> tuple[int, int, int, int]:
    """(fp, fprev, mfp, mfprev) of x's subtree with x's own flags applied.

    The mapped pair of a stale x comes back as None in whichever slots it
    lands; x is never both stale and map-flagged.
    """
    fp, fprev, mfp, mfprev = x.fp, x.fprev, x.mfp, x.mfprev
    if x.rev:
        fp, fprev = fprev, fp
        mfp, mfprev = mfprev, mfp
    if x.map:
        fp, mfp = mfp, fp
        fprev, mfprev = mfprev, fprev
    return fp, fprev, mfp, mfprev


def pull(x: Node, b: int, p: int, pw: list, fmap: dict | None) -> None:
    """Recompute size, fp and fprev of x from its children.

    Children are read through their pending flags, so pull is correct even
    while descendants carry unmaterialized reversals or mappings.  The
    children's base powers come from the table pw.  With an involution, x's
    mapped pair is marked stale for `refresh_mapped`; without one it aliases
    fp and fprev.
    """
    l = x.left
    r = x.right
    ls = l.size
    rs = r.size
    x.size = ls + 1 + rs
    lp = pw[ls]
    rp = pw[rs]
    if l.map:
        lfp = l.mfp
        lfprev = l.mfprev
    else:
        lfp = l.fp
        lfprev = l.fprev
    if l.rev:
        lfp, lfprev = lfprev, lfp
    if r.map:
        rfp = r.mfp
        rfprev = r.mfprev
    else:
        rfp = r.fp
        rfprev = r.fprev
    if r.rev:
        rfp, rfprev = rfprev, rfp
    c = x.char
    fp = ((lfp * b + c) * rp + rfp) % p
    fprev = ((rfprev * b + c) * lp + lfprev) % p
    x.fp = fp
    x.fprev = fprev
    if fmap is None:
        x.mfp = fp
        x.mfprev = fprev
    else:
        x.mfp = x.mfprev = None


def refresh_mapped(y: Node, cfg: FingerprintContext) -> int:
    """Recompute every stale mapped pair in y's subtree; return how many.

    Collects the stale nodes in pre-order, descending only into stale
    children (a fresh node has no stale descendant), then refreshes them in
    reverse, so children come before parents and an exception part-way
    leaves both invariants intact.  Children are read through their flags,
    as in `pull`.
    """
    if y.mfp is not None:
        return 0
    b = cfg.base
    p = cfg.modulus
    pw = cfg.pw
    fmap = cfg.fmap
    stale = []
    stack = [y]
    while stack:
        x = stack.pop()
        stale.append(x)
        if x.left.mfp is None:
            stack.append(x.left)
        if x.right.mfp is None:
            stack.append(x.right)
    for x in reversed(stale):
        l = x.left
        r = x.right
        if l.map:
            lm = l.fp
            lmrev = l.fprev
        else:
            lm = l.mfp
            lmrev = l.mfprev
        if l.rev:
            lm, lmrev = lmrev, lm
        if r.map:
            rm = r.fp
            rmrev = r.fprev
        else:
            rm = r.mfp
            rmrev = r.mfprev
        if r.rev:
            rm, rmrev = rmrev, rm
        c = x.char
        fc = fmap.get(c, c)
        x.mfp = ((lm * b + fc) * pw[r.size] + rm) % p
        x.mfprev = ((rmrev * b + fc) * pw[l.size] + lmrev) % p
    return len(stale)


def fix(x: Node, fmap: dict | None, stats: TreeStats) -> None:
    """Materialize x's pending flags one level, pushing them to children.

    Idempotent when both flags are clear.  The tree's logical content is
    unchanged.  Applied to every node inspected while descending from the
    root, so all structural changes happen on flag-free nodes.
    """
    if x.rev:
        x.rev = False
        l = x.left
        r = x.right
        x.left = r
        x.right = l
        if l is not NULL:
            l.rev = not l.rev
        if r is not NULL:
            r.rev = not r.rev
        x.fp, x.fprev = x.fprev, x.fp
        x.mfp, x.mfprev = x.mfprev, x.mfp
        stats.fixes += 1
    if x.map:
        # Map the symbol first: a raising involution leaves x untouched.
        c = x.char
        if fmap is not None:
            c = fmap.get(c, c)
        x.map = False
        x.char = c
        l = x.left
        r = x.right
        if l is not NULL:
            l.map = not l.map
        if r is not NULL:
            r.map = not r.map
        x.fp, x.mfp = x.mfp, x.fp
        x.fprev, x.mfprev = x.mfprev, x.fprev
        stats.fixes += 1


def _rotate(x: Node, par: Node) -> None:
    """Relink the edge between x and its parent; x moves up one level.

    Only links change: the aggregates of x and par are left stale, and
    splay pulls them once the whole step is done.
    """
    g = par.parent
    if par.left is x:
        sub = x.right
        par.left = sub
        x.right = par
    else:
        sub = x.left
        par.right = sub
        x.left = par
    if sub is not NULL:
        sub.parent = par
    par.parent = x
    x.parent = g
    if g is not None:
        if g.left is par:
            g.left = x
        else:
            g.right = x


def splay(x: Node, cfg: FingerprintContext, stats: TreeStats,
          forbid_final_zigzig: bool = False) -> None:
    """Move x up until it is the root.

    Callers must have fixed x and all its ancestors, which holds whenever x
    was reached by descending from the root.

    Aggregates on the access path are stale until splay returns.  After
    each step the nodes it demoted are pulled, the deeper one first; their
    children are off the access path or were pulled in an earlier step.
    x itself is pulled last, once, and only if it moved.

    With forbid_final_zigzig, a last two-edge step in the zig-zig shape is
    replaced by two bottom-up single rotations, so the node previously at
    the root ends as a child (not grandchild) of x.
    """
    par = x.parent
    if par is None:
        return
    b = cfg.base
    p = cfg.modulus
    pw = cfg.pw
    f = cfg.fmap
    rotations = 0
    while par is not None:
        g = par.parent
        if g is None:
            _rotate(x, par)
            pull(par, b, p, pw, f)
            rotations += 1
            break
        if (g.left is par) == (par.left is x) \
                and not (forbid_final_zigzig and g.parent is None):
            # zig-zig: g ends below par, par below x.
            _rotate(par, g)
            _rotate(x, par)
            pull(g, b, p, pw, f)
            pull(par, b, p, pw, f)
        else:
            # zig-zag, or the rewritten final zig-zig (g ends above par):
            # rotate x up twice.
            _rotate(x, par)
            _rotate(x, g)
            pull(par, b, p, pw, f)
            pull(g, b, p, pw, f)
        rotations += 2
        par = x.parent
    pull(x, b, p, pw, f)
    stats.rotations += rotations


def descend_to_rank(root: Node, i: int, cfg: FingerprintContext,
                    stats: TreeStats) -> Node:
    """Walk down to the node of in-order rank i, fixing every visited node."""
    fmap = cfg.fmap
    x = root
    while True:
        if x.rev or x.map:
            fix(x, fmap, stats)
        ls = x.left.size
        if i <= ls:
            x = x.left
        elif i == ls + 1:
            return x
        else:
            i -= ls + 1
            x = x.right


def find(tree: Tree, i: int, cfg: FingerprintContext, stats: TreeStats) -> Node:
    """Select the node of rank i and splay it to the root."""
    if not 1 <= i <= tree.size:
        raise RangeError(f"rank {i} outside [1, {tree.size}]")
    x = descend_to_rank(tree.root, i, cfg, stats)
    splay(x, cfg, stats)
    tree.root = x
    return x


#: `select` splays only a node deeper than SHALLOW * n.bit_length().  At 1
#: it would splay most nodes, since a balanced tree is n.bit_length() levels
#: deep; 3 saves barely more rotations than 2.
SHALLOW = 2


def select(tree: Tree, i: int, cfg: FingerprintContext,
           stats: TreeStats) -> Node:
    """Select the node of rank i; splay it to the root only when it lies
    deeper than SHALLOW * n.bit_length().

    A descent and its fixes change no subtree size, so an access that does
    not splay costs its depth, O(log n), and leaves the potential of the
    access lemma as it was.  Its depth is counted up the parent links, at
    most SHALLOW * n.bit_length() + 1 of them.
    """
    n = tree.size
    if not 1 <= i <= n:
        raise RangeError(f"rank {i} outside [1, {n}]")
    x = descend_to_rank(tree.root, i, cfg, stats)
    a = x
    for _ in range(SHALLOW * n.bit_length() + 1):
        a = a.parent
        if a is None:
            return x
    splay(x, cfg, stats)
    tree.root = x
    return x


def isolate(tree: Tree, i: int, j: int, cfg: FingerprintContext, stats: TreeStats):
    """Restructure so the ranks i..j form one subtree; return its root.

    The returned node has at most two ancestors: it is the root (i = 1,
    j = n), a child of the root (one-sided case), or the left child of the
    root's right child (general case).  Its own flags are clear on return.
    Ranges are non-empty, i <= j; an empty one is a `split` point.
    """
    n = tree.size
    if not (1 <= i <= j <= n):
        raise RangeError(f"range [{i}, {j}] outside [1, {n}]")
    if i == 1 and j == n:
        y = tree.root
        fix(y, cfg.fmap, stats)
        return y
    if i == 1:
        find(tree, j + 1, cfg, stats)
        y = tree.root.left
    elif j == n:
        find(tree, i - 1, cfg, stats)
        y = tree.root.right
    else:
        find(tree, j + 1, cfg, stats)
        x = descend_to_rank(tree.root, i - 1, cfg, stats)
        splay(x, cfg, stats, forbid_final_zigzig=True)
        tree.root = x
        y = x.right.left
    fix(y, cfg.fmap, stats)
    return y


def repull_ancestors_from(a: Node | None, cfg: FingerprintContext) -> None:
    """Recompute aggregates up an ancestor chain (≤ 2 nodes after isolate)."""
    b = cfg.base
    p = cfg.modulus
    pw = cfg.pw
    f = cfg.fmap
    while a is not None:
        pull(a, b, p, pw, f)
        a = a.parent


def join(left: Node | None, right: Node | None, cfg: FingerprintContext,
         stats: TreeStats) -> Node | None:
    """Concatenate two trees; all of right goes after all of left.

    Its walk down left's right spine, the only step that can raise, comes
    before any link; a left tree rooted at its last node has no spine.
    """
    if left is None:
        return right
    if right is None:
        return left
    fmap = cfg.fmap
    x = left
    while True:
        if x.rev or x.map:
            fix(x, fmap, stats)
        if x.right is NULL:
            break
        x = x.right
    splay(x, cfg, stats)
    x.right = right
    right.parent = x
    pull(x, cfg.base, cfg.modulus, cfg.pw, fmap)
    return x


def split(tree: Tree, k: int, cfg: FingerprintContext,
          stats: TreeStats) -> tuple[Node | None, Node | None]:
    """Split after rank k: returns (ranks 1..k, ranks k+1..n); for
    0 < k < n the left one is rooted at its last node."""
    n = tree.size
    if not 0 <= k <= n:
        raise RangeError(f"split point {k} outside [0, {n}]")
    if k == 0:
        return None, tree.root
    if k == n:
        return tree.root, None
    x = find(tree, k, cfg, stats)
    right = x.right
    x.right = NULL
    right.parent = None
    pull(x, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
    return x, right


def build_balanced(symbols, cfg: FingerprintContext) -> Node | None:
    """Build a perfectly balanced tree over the symbols, in one linear pass.

    Reserves the power table for the new tree first.  Aggregates are filled
    bottom-up as the recursion (depth O(log n)) returns, i.e. in post-order;
    one `refresh_mapped` then fills the mapped pairs, so every node of a new
    tree is fresh.
    """
    syms = symbols if isinstance(symbols, list) else list(symbols)
    cfg.reserve(len(syms))
    b = cfg.base
    p = cfg.modulus
    pw = cfg.pw
    f = cfg.fmap

    def rec(lo: int, hi: int) -> Node:
        mid = (lo + hi) // 2
        node = Node(syms[mid])
        if lo < mid:
            child = rec(lo, mid - 1)
            node.left = child
            child.parent = node
        if mid < hi:
            child = rec(mid + 1, hi)
            node.right = child
            child.parent = node
        pull(node, b, p, pw, f)
        return node

    if not syms:
        return None
    root = rec(0, len(syms) - 1)
    refresh_mapped(root, cfg)
    return root


def inorder_symbols(root: Node | None, cfg: FingerprintContext,
                    stats: TreeStats) -> list[int]:
    """Logical symbol sequence of the subtree, fixing nodes as visited."""
    if root is None:
        return []
    fmap = cfg.fmap
    out = []
    stack = []
    push = stack.append
    pop = stack.pop
    emit = out.append
    cur = root
    while True:
        while cur is not NULL:
            if cur.rev or cur.map:
                fix(cur, fmap, stats)
            push(cur)
            cur = cur.left
        if not stack:
            return out
        cur = pop()
        emit(cur.char)
        cur = cur.right


def logical_symbols(root: Node | None, fmap: dict | None) -> list[int]:
    """Logical symbol sequence without mutating the tree.

    Pending flags are applied functionally while walking, so this is safe to
    call mid-verification without disturbing stored state.
    """
    if root is None:
        return []
    out = []
    # (node, rev_acc, map_acc, emitted)
    stack = [(root, False, False, False)]
    while stack:
        x, racc, macc, emitted = stack.pop()
        if x is NULL:
            continue
        if emitted:
            c = x.char
            if macc and fmap is not None:
                c = fmap.get(c, c)
            out.append(c)
            continue
        r = racc ^ x.rev
        m = macc ^ x.map
        first, second = (x.right, x.left) if r else (x.left, x.right)
        stack.append((second, r, m, False))
        stack.append((x, r, m, True))
        stack.append((first, r, m, False))
    return out


def tree_height(root: Node | None) -> int:
    """Number of levels (0 for the empty tree)."""
    if root is None:
        return 0
    best = 0
    stack = [(root, 1)]
    while stack:
        x, h = stack.pop()
        if h > best:
            best = h
        if x.left is not NULL:
            stack.append((x.left, h + 1))
        if x.right is not NULL:
            stack.append((x.right, h + 1))
    return best


def verify_tree(root: Node | None, cfg: FingerprintContext) -> None:
    """Audit every stored field against a full bottom-up recomputation.

    The power table must cover the tree's size and hold b^k at every k.
    Size, fp and fprev are checked on every node, the mapped pair on every
    fresh node, and so are both mapped-pair invariants (see the module
    docstring).  Raises AssertionError naming the first inconsistent node.
    Read-only.
    """
    if root is None:
        return
    if root.parent is not None:
        raise AssertionError("root has a parent link")
    b = cfg.base
    p = cfg.modulus
    pw = cfg.pw
    fmap = cfg.fmap
    if len(pw) <= root.size:
        raise AssertionError(
            f"power table covers {len(pw) - 1} < tree size {root.size}")
    if pw[0] != 1 or any(pw[k] != pw[k - 1] * b % p
                         for k in range(1, root.size + 1)):
        raise AssertionError("power table is not b^k mod p")
    # Iterative post-order: children checked before the parent.
    stack = [(root, False)]
    while stack:
        x, ready = stack.pop()
        if not ready:
            stack.append((x, True))
            for child in (x.left, x.right):
                if child is not NULL:
                    if child.parent is not x:
                        raise AssertionError(f"bad parent link under {x!r}")
                    stack.append((child, False))
            continue
        l = x.left
        r = x.right
        if x.size != l.size + 1 + r.size:
            raise AssertionError(f"size mismatch at {x!r}")
        stale = x.mfp is None
        if stale != (x.mfprev is None):
            raise AssertionError(f"half-stale mapped pair at {x!r}")
        if stale and (fmap is None or x.map):
            raise AssertionError(f"stale mapped pair at {x!r}")
        if not stale and (l.mfp is None or r.mfp is None):
            raise AssertionError(f"fresh node over a stale child at {x!r}")
        lfp, lfprev, lmfp, lmfprev = effective_fps(l)
        rfp, rfprev, rmfp, rmfprev = effective_fps(r)
        c = x.char
        lp = pw[l.size]
        rp = pw[r.size]
        want_fp = ((lfp * b + c) * rp + rfp) % p
        want_fprev = ((rfprev * b + c) * lp + lfprev) % p
        if x.fp != want_fp:
            raise AssertionError(f"fp mismatch at {x!r}")
        if x.fprev != want_fprev:
            raise AssertionError(f"fprev mismatch at {x!r}")
        if stale:
            continue
        fc = fmap.get(c, c) if fmap is not None else c
        want_mfp = ((lmfp * b + fc) * rp + rmfp) % p
        want_mfprev = ((rmfprev * b + fc) * lp + lmfprev) % p
        if x.mfp != want_mfp:
            raise AssertionError(f"mfp mismatch at {x!r}")
        if x.mfprev != want_mfprev:
            raise AssertionError(f"mfprev mismatch at {x!r}")
