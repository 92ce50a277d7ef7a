"""Structural and algebraic tests for the enhanced splay tree core."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fest.errors import RangeError, UsageError
from fest.fingerprint import FingerprintContext, validate_involution
from fest import splaycore as sc


CTX = FingerprintContext(seed=5)

DNA = {ord("A"): ord("T"), ord("T"): ord("A"),
       ord("C"): ord("G"), ord("G"): ord("C")}


def make_cfg(fmap=None):
    return FingerprintContext(seed=5, involution=fmap)


def make_tree(symbols, fmap=None, shuffle_seed=None):
    """Balanced tree over symbols, optionally scrambled by random finds."""
    cfg = make_cfg(fmap)
    stats = sc.TreeStats()
    tree = sc.Tree(sc.build_balanced(list(symbols), cfg))
    if shuffle_seed is not None and tree.size:
        rng = random.Random(shuffle_seed)
        for _ in range(2 * tree.size):
            sc.find(tree, rng.randrange(1, tree.size + 1), cfg, stats)
    return tree, cfg, stats


def codes(text):
    return [ord(c) for c in text]


def content(tree, cfg):
    return sc.logical_symbols(tree.root, cfg.fmap)


def ancestor_count(node):
    n = 0
    while node.parent is not None:
        node = node.parent
        n += 1
    return n


# ---------------------------------------------------------------- pull / fix

def test_leaf_node_conventions():
    cfg = make_cfg(DNA)
    x = sc.Node(ord("A"))
    sc.pull(x, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
    assert x.size == 1
    cfg.reserve(x.size)
    assert cfg.pw[x.size] == cfg.base
    assert x.fp == ord("A")
    assert x.fprev == ord("A")
    # pull leaves the mapped pair stale; refresh_mapped fills it in
    assert x.mfp is None and x.mfprev is None
    assert sc.refresh_mapped(x, cfg) == 1
    assert x.mfp == ord("T")
    assert x.mfprev == ord("T")
    assert sc.refresh_mapped(x, cfg) == 0


def test_pull_without_involution_aliases_mapped_pair():
    cfg = make_cfg()
    x = sc.Node(ord("A"))
    sc.pull(x, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
    assert (x.mfp, x.mfprev) == (x.fp, x.fprev) == (ord("A"), ord("A"))
    assert sc.refresh_mapped(x, cfg) == 0


def test_pull_three_node_tree_matches_eval():
    cfg = make_cfg()
    cfg.reserve(3)
    mid = sc.Node(2)
    l = sc.Node(1)
    r = sc.Node(3)
    mid.left = l
    mid.right = r
    l.parent = r.parent = mid
    for n in (l, r, mid):
        sc.pull(n, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
    assert mid.fp == CTX.eval([1, 2, 3])
    assert mid.fprev == CTX.eval([3, 2, 1])
    assert cfg.pw[mid.size] == pow(CTX.base, 3, CTX.modulus)


def test_reserve_extends_the_power_table():
    cfg = make_cfg()
    assert cfg.pw == [1]
    cfg.reserve(5)
    cfg.reserve(3)  # never shrinks
    cfg.reserve(17)
    assert cfg.pw == [pow(CTX.base, k, CTX.modulus) for k in range(18)]


def test_verify_tree_rejects_a_short_or_wrong_power_table():
    tree, cfg, stats = make_tree(range(20), shuffle_seed=4)
    sc.verify_tree(tree.root, cfg)
    short = make_cfg()
    short.reserve(19)
    with pytest.raises(AssertionError, match="power table covers"):
        sc.verify_tree(tree.root, short)
    cfg.pw[7] += 1
    with pytest.raises(AssertionError, match="power table"):
        sc.verify_tree(tree.root, cfg)


def test_fix_is_noop_on_clear_flags():
    tree, cfg, stats = make_tree(codes("GATTACA"))
    before = content(tree, cfg)
    sc.fix(tree.root, cfg.fmap, stats)
    assert stats.fixes == 0
    assert content(tree, cfg) == before
    sc.verify_tree(tree.root, cfg)


def test_fix_double_reverse_restores_content():
    tree, cfg, stats = make_tree(codes("abcdef"), shuffle_seed=1)
    original = content(tree, cfg)
    tree.root.rev = True
    assert content(tree, cfg) == original[::-1]
    tree.root.rev = False
    assert content(tree, cfg) == original


def test_rev_plus_map_is_reverse_complement():
    tree, cfg, stats = make_tree(codes("ACGT"), fmap=DNA)
    tree.root.rev = True
    tree.root.map = True
    got = sc.inorder_symbols(tree.root, cfg, stats)
    want = [DNA[c] for c in reversed(codes("ACGT"))]
    assert got == want == codes("ACGT")  # ACGT is its own reverse complement
    sc.verify_tree(tree.root, cfg)


def test_fix_materializes_without_changing_content():
    tree, cfg, stats = make_tree(codes("ACGTTGCA"), fmap=DNA, shuffle_seed=3)
    tree.root.rev = True
    sc.refresh_mapped(tree.root, cfg)  # a map flag needs a fresh subtree
    tree.root.map = True
    want = content(tree, cfg)
    sc.fix(tree.root, cfg.fmap, stats)
    assert stats.fixes == 2
    assert content(tree, cfg) == want
    sc.verify_tree(tree.root, cfg)


def test_verify_tree_audits_mapped_pair_invariants():
    tree, cfg, stats = make_tree(codes("ACGTTGCAAC"), fmap=DNA)
    sc.verify_tree(tree.root, cfg)  # a bulk build is fresh throughout
    child = tree.root.left
    child.mfp = child.mfprev = None
    with pytest.raises(AssertionError, match="fresh node over a stale child"):
        sc.verify_tree(tree.root, cfg)
    tree.root.mfp = tree.root.mfprev = None
    sc.verify_tree(tree.root, cfg)  # stale over stale is allowed
    tree.root.map = True
    with pytest.raises(AssertionError, match="stale mapped pair"):
        sc.verify_tree(tree.root, cfg)
    tree.root.map = False
    assert sc.refresh_mapped(tree.root, cfg) == 2
    tree.root.mfprev ^= 1
    with pytest.raises(AssertionError, match="mfprev mismatch"):
        sc.verify_tree(tree.root, cfg)


# ------------------------------------------------------------------- splay

def test_splay_on_root_is_noop():
    tree, cfg, stats = make_tree([1, 2, 3, 4, 5])
    root = tree.root
    base = stats.rotations
    sc.splay(root, cfg, stats)
    assert stats.rotations == base
    assert tree.root is root


def left_spine(symbols, cfg):
    """Build a left spine: deepest node holds the first symbol."""
    cfg.reserve(len(symbols))
    stats = sc.TreeStats()
    root = None
    for c in symbols:
        node = sc.Node(c)
        sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
        if root is not None:
            node.left = root
            root.parent = node
        sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
        root = node
    return sc.Tree(root), stats


def test_modified_final_zigzig_keeps_old_root_as_child():
    # Left spine c(b(a)): splaying `a` with the modification performs two
    # single rotations, leaving the old root as the new root's child.
    cfg = make_cfg()
    tree, stats = left_spine([1, 2, 3], cfg)
    deepest = tree.root.left.left
    sc.splay(deepest, cfg, stats, forbid_final_zigzig=True)
    tree.root = deepest
    assert stats.rotations == 2
    assert deepest.right is not sc.NULL
    assert deepest.right.char == 3          # former root is now a child
    assert deepest.right.left.char == 2     # middle node hangs off it
    assert sc.logical_symbols(tree.root, None) == [1, 2, 3]
    sc.verify_tree(tree.root, cfg)


def test_standard_zigzig_demotes_old_root_two_levels():
    cfg = make_cfg()
    tree, stats = left_spine([1, 2, 3], cfg)
    deepest = tree.root.left.left
    sc.splay(deepest, cfg, stats)
    tree.root = deepest
    assert deepest.right.char == 2
    assert deepest.right.right.char == 3    # old root is a grandchild
    sc.verify_tree(tree.root, cfg)


#: An involution on every symbol the property tests draw.
FLIP = {c: c ^ 1 for c in range(256)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_splay_preserves_inorder_and_aggregates(symbols, rnd):
    # Pending rev/map flags on isolated ranges make later splays run over
    # flagged nodes; isolate covers forbid_final_zigzig.
    # Ancestors are repulled only after a flag toggle, so a stale aggregate
    # left by a splay reaches verify_tree.
    tree, cfg, stats = make_tree(symbols, fmap=FLIP)
    want = list(symbols)
    n = len(want)
    for _ in range(20):
        i = rnd.randrange(1, n + 1)
        j = rnd.randrange(i, n + 1)
        kind = rnd.randrange(4)
        if kind == 0:
            sc.find(tree, i, cfg, stats)
        elif kind == 1:
            sc.isolate(tree, i, j, cfg, stats)
        else:
            y = sc.isolate(tree, i, j, cfg, stats)
            if kind == 2:
                y.rev = not y.rev
                want[i - 1:j] = want[i - 1:j][::-1]
            else:
                sc.refresh_mapped(y, cfg)
                y.map = not y.map
                want[i - 1:j] = [FLIP[c] for c in want[i - 1:j]]
            sc.repull_ancestors_from(y.parent, cfg)
        assert content(tree, cfg) == want
        sc.verify_tree(tree.root, cfg)


# -------------------------------------------------------------------- find

def test_find_selects_by_rank():
    tree, cfg, stats = make_tree(codes("abc"))
    node = sc.find(tree, 2, cfg, stats)
    assert node.char == ord("b")
    assert tree.root is node


def test_find_after_whole_reverse():
    tree, cfg, stats = make_tree(codes("abc"))
    tree.root.rev = True
    assert sc.find(tree, 1, cfg, stats).char == ord("c")


def test_find_twice_second_is_rotation_free():
    tree, cfg, stats = make_tree(list(range(32)), shuffle_seed=7)
    sc.find(tree, 17, cfg, stats)
    before = stats.rotations
    sc.find(tree, 17, cfg, stats)
    assert stats.rotations == before


def test_find_range_errors():
    tree, cfg, stats = make_tree([1, 2, 3])
    with pytest.raises(RangeError):
        sc.find(tree, 0, cfg, stats)
    with pytest.raises(RangeError):
        sc.find(tree, 4, cfg, stats)


def test_select_splays_only_below_the_depth_limit():
    # On the left spine that finds in rank order leave, rank k lies at
    # depth n - k.
    n = 64
    tree, cfg, stats = make_tree(list(range(n)))
    for i in range(1, n + 1):
        sc.find(tree, i, cfg, stats)
    limit = sc.SHALLOW * n.bit_length()
    root, rotations = tree.root, stats.rotations
    x = sc.select(tree, n - limit, cfg, stats)
    assert x.char == n - limit - 1 and ancestor_count(x) == limit
    assert tree.root is root and stats.rotations == rotations
    x = sc.select(tree, n - limit - 1, cfg, stats)
    assert x.char == n - limit - 2 and tree.root is x
    assert stats.rotations > rotations
    assert content(tree, cfg) == list(range(n))
    sc.verify_tree(tree.root, cfg)


# ----------------------------------------------------------------- isolate

def test_isolate_whole_range_returns_root():
    tree, cfg, stats = make_tree([5, 6, 7])
    y = sc.isolate(tree, 1, 3, cfg, stats)
    assert y is tree.root


def test_isolate_mississippi_tail():
    tree, cfg, stats = make_tree(codes("mississippi"), shuffle_seed=2)
    y = sc.isolate(tree, 9, 11, cfg, stats)
    assert sc.logical_symbols(y, None) == codes("ppi")
    assert ancestor_count(y) <= 2
    sc.verify_tree(tree.root, cfg)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_isolate_matches_slice_with_two_ancestors_max(data):
    symbols = data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=48))
    n = len(symbols)
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(i, n))
    seed = data.draw(st.integers(0, 2**16))
    tree, cfg, stats = make_tree(symbols, shuffle_seed=seed)
    y = sc.isolate(tree, i, j, cfg, stats)
    assert sc.logical_symbols(y, None) == symbols[i - 1:j]
    assert ancestor_count(y) <= 2
    assert content(tree, cfg) == symbols
    sc.verify_tree(tree.root, cfg)


def test_isolate_range_errors():
    tree, cfg, stats = make_tree([1, 2, 3])
    with pytest.raises(RangeError):
        sc.isolate(tree, 0, 2, cfg, stats)
    with pytest.raises(RangeError):
        sc.isolate(tree, 1, 4, cfg, stats)
    with pytest.raises(RangeError):
        sc.isolate(tree, 5, 4, cfg, stats)
    with pytest.raises(RangeError):  # empty ranges are split points
        sc.isolate(tree, 2, 1, cfg, stats)


# -------------------------------------------------------------- join / split

def test_join_with_empty_sides():
    tree, cfg, stats = make_tree([1, 2])
    assert sc.join(None, tree.root, cfg, stats) is tree.root
    assert sc.join(tree.root, None, cfg, stats) is tree.root
    assert sc.join(None, None, cfg, stats) is None


def test_join_concatenates():
    t1, cfg, stats = make_tree(codes("ab"))
    t2, _, _ = make_tree(codes("cd"))
    cfg.reserve(4)
    root = sc.join(t1.root, t2.root, cfg, stats)
    assert sc.logical_symbols(root, None) == codes("abcd")
    sc.verify_tree(root, cfg)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=24),
       st.lists(st.integers(0, 255), max_size=24))
def test_join_matches_list_concatenation(a, b):
    cfg = make_cfg()
    stats = sc.TreeStats()
    cfg.reserve(len(a) + len(b))
    root = sc.join(sc.build_balanced(a, cfg), sc.build_balanced(b, cfg),
                   cfg, stats)
    assert sc.logical_symbols(root, None) == a + b
    sc.verify_tree(root, cfg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_then_join_roundtrip(data):
    symbols = data.draw(st.lists(st.integers(0, 255), min_size=1, max_size=32))
    k = data.draw(st.integers(0, len(symbols)))
    tree, cfg, stats = make_tree(symbols, shuffle_seed=11)
    left, right = sc.split(tree, k, cfg, stats)
    assert sc.logical_symbols(left, None) == symbols[:k]
    assert sc.logical_symbols(right, None) == symbols[k:]
    tree.root = sc.join(left, right, cfg, stats)
    assert content(tree, cfg) == symbols
    sc.verify_tree(tree.root, cfg)


def splice_by_split_join(tree, want, cfg, stats, i):
    # Forest.insert's splice: split before rank i, then join the left piece,
    # the node and the right piece.  The left piece is rooted at its last
    # node, so its join walks no spine.
    n = tree.size
    cfg.reserve(n + 1)
    node = sc.Node(99)
    sc.pull(node, cfg.base, cfg.modulus, cfg.pw, cfg.fmap)
    left, right = sc.split(tree, i - 1, cfg, stats)
    if 1 < i <= n:
        assert left.right is sc.NULL
    tree.root = sc.join(left, sc.join(node, right, cfg, stats), cfg, stats)
    assert content(tree, cfg) == want[:i - 1] + [99] + want[i - 1:]
    sc.verify_tree(tree.root, cfg)


def test_isolate_attach_point_between_ranks():
    # The point between ranks i - 1 and i is the split at i - 1; a node
    # spliced there lands at rank i, for every i in 1..n + 1.
    symbols = list(range(10))
    for i in range(1, 12):
        tree, cfg, stats = make_tree(symbols, shuffle_seed=i)
        splice_by_split_join(tree, symbols, cfg, stats, i)


def test_isolate_attach_point_in_empty_tree():
    splice_by_split_join(sc.Tree(None), [], make_cfg(), sc.TreeStats(), 1)


# ----------------------------------------------------------- build_balanced

def test_build_empty():
    assert sc.build_balanced([], make_cfg()) is None


def test_build_seven_symbols_is_perfect():
    cfg = make_cfg()
    root = sc.build_balanced(list(range(1, 8)), cfg)
    assert sc.tree_height(root) == 3
    assert root.char == 4  # rank 4 at the root
    sc.verify_tree(root, cfg)


def test_build_heights_up_to_1024():
    cfg = make_cfg()
    for n in list(range(1, 70)) + [127, 128, 255, 511, 512, 1000, 1024]:
        root = sc.build_balanced(list(range(n)), cfg)
        assert sc.tree_height(root) <= math.ceil(math.log2(n + 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=64))
def test_build_fingerprint_matches_eval(symbols):
    cfg = make_cfg()
    root = sc.build_balanced(symbols, cfg)
    got = root.fp if root is not None else 0
    assert got == CTX.eval(symbols)
    got_rev = root.fprev if root is not None else 0
    assert got_rev == CTX.eval(symbols[::-1])


def test_involution_validation():
    assert validate_involution({1: 2, 2: 1, 5: 5}) == {1: 2, 2: 1, 5: 5}
    with pytest.raises(UsageError):
        validate_involution({1: 2, 2: 3})
    with pytest.raises(UsageError):
        validate_involution({1: 2})
