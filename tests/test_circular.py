"""Circular-mode and unrolled-query tests, validated against the oracle."""

import random

import pytest

from fest import CIRCULAR, Forest, INFINITE, Order, RangeError, UsageError
from fest.oracle import OracleForest
from fest import splaycore as sc


def codes(text):
    return [ord(c) for c in text]


def text(symbols):
    return "".join(chr(c) for c in symbols)


def stored(s):
    """The tree's in-order symbols: a circular string's canonical order."""
    return sc.logical_symbols(s.tree.root, None)


def canonical(forest, s):
    return forest.retrieve(s, 1, s.length) if s.length else []


@pytest.fixture
def forest():
    return Forest(seed=23)


# ------------------------------------------------------------------ rotate

def test_rotate_at_one_is_noop(forest):
    s = forest.make_string("abcdef", mode=CIRCULAR)
    forest.rotate(s, 1)
    assert text(stored(s)) == "abcdef"


def test_rotate_mississippi(forest):
    s = forest.make_string("mississippi", mode=CIRCULAR)
    forest.rotate(s, 9)
    assert text(stored(s)) == "mississippi"
    assert text(canonical(forest, s)) == "mississippi"


def test_rotate_round_trip(forest):
    # rotate only validates: the stored order stays canonical, and no node
    # moves.
    rng = random.Random(0)
    w = [rng.randrange(256) for _ in range(17)]
    s = forest.make_string(w, mode=CIRCULAR)
    for _ in range(20):
        root = s.tree.root
        rotations = forest.stats.rotations
        forest.rotate(s, rng.randint(1, 17))
        assert s.tree.root is root
        assert forest.stats.rotations == rotations
        assert stored(s) == w
    for i in (0, 18):
        with pytest.raises(RangeError):
            forest.rotate(s, i)
    assert canonical(forest, s) == w


def test_rotate_requires_circular(forest):
    s = forest.make_string("abc")
    with pytest.raises(UsageError):
        forest.rotate(s, 1)


def test_start_maps_indices(forest):
    w = codes("abcdef")
    s = forest.make_string(w, mode=CIRCULAR)
    forest.rotate(s, 4)
    assert stored(s) == w
    for i in range(1, 7):
        assert forest.access(s, i) == w[i - 1]


# ----------------------------------------------------------- wrapped ranges

def test_wrapping_retrieve(forest):
    s = forest.make_string("abcdef", mode=CIRCULAR)
    assert text(forest.retrieve(s, 5, 2)) == "efab"
    assert text(canonical(forest, s)) == "abcdef"


def test_wrapped_extract(forest):
    s = forest.make_string("abcdef", mode=CIRCULAR)
    t = forest.extract(s, 5, 2)
    assert text(canonical(forest, t)) == "efab"
    assert t.mode == "linear"
    assert text(canonical(forest, s)) == "cd"


def test_extract_suffix_and_prefix_start_bookkeeping(forest):
    oracle = OracleForest()
    for i, j in ((4, 6), (1, 3), (2, 5), (1, 6), (6, 6), (5, 2), (4, 3)):
        w = codes("abcdef")
        s = forest.make_string(w, mode=CIRCULAR)
        o = oracle.make_string(w, mode=CIRCULAR)
        piece = forest.extract(s, i, j)
        opiece = oracle.extract(o, i, j)
        assert canonical(forest, piece) == opiece.symbols
        assert canonical(forest, s) == o.symbols
        assert stored(s) == o.symbols


def test_wrapped_reverse_and_map_match_oracle():
    forest = Forest(seed=29, involution={1: 2, 2: 1})
    oracle = OracleForest(involution={1: 2, 2: 1})
    rng = random.Random(1)
    w = [rng.randint(1, 3) for _ in range(24)]
    s = forest.make_string(w, mode=CIRCULAR)
    o = oracle.make_string(w, mode=CIRCULAR)
    for _ in range(120):
        i = rng.randint(1, 24)
        j = rng.randint(1, 24)
        if rng.random() < 0.5:
            forest.reverse(s, i, j)
            oracle.reverse(o, i, j)
        else:
            forest.map(s, i, j)
            oracle.map(o, i, j)
        assert canonical(forest, s) == o.symbols
        assert stored(s) == o.symbols


def test_circular_edits_match_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(2)
    w = [rng.randrange(16) for _ in range(12)]
    s = forest.make_string(w, mode=CIRCULAR)
    o = oracle.make_string(w, mode=CIRCULAR)
    for _ in range(300):
        n = s.length
        op = rng.randrange(5)
        if op == 0 and n:
            forest.rotate(s, rng.randint(1, n))  # canonical no-op
        elif op == 1 and n:
            i, c = rng.randint(1, n), rng.randrange(16)
            forest.substitute(s, i, c)
            oracle.substitute(o, i, c)
        elif op == 2 and n < 40:
            i, c = rng.randint(1, n + 1), rng.randrange(16)
            forest.insert(s, i, c)
            oracle.insert(o, i, c)
        elif op == 3 and n > 1:
            i = rng.randint(1, n)
            forest.delete(s, i)
            oracle.delete(o, i)
        elif op == 4 and n:
            i = rng.randint(1, n)
            assert forest.access(s, i) == oracle.access(o, i)
        assert canonical(forest, s) == o.symbols
        assert stored(s) == o.symbols


def test_introduce_circular_donor_uses_canonical_form(forest):
    s1 = forest.make_string("xy")
    s2 = forest.make_string("abcdef", mode=CIRCULAR)
    forest.rotate(s2, 4)  # canonical, and stored, is still abcdef
    forest.introduce(s1, 2, s2)
    assert text(canonical(forest, s1)) == "xabcdefy"


def test_introduce_into_circular_matches_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(3)
    for start_rot in range(1, 7):
        w = codes("abcdef")
        s = forest.make_string(w, mode=CIRCULAR)
        o = oracle.make_string(w, mode=CIRCULAR)
        forest.rotate(s, start_rot)
        donor = forest.make_string("PQ")
        donor_o = oracle.make_string("PQ")
        i = rng.randint(1, 7)
        forest.introduce(s, i, donor)
        oracle.introduce(o, i, donor_o)
        assert canonical(forest, s) == o.symbols


# ---------------------------------------------------------------- unrolled

def test_equal_omega_same_word_different_power(forest):
    s1 = forest.make_string("ab", mode=CIRCULAR)
    s2 = forest.make_string("abab", mode=CIRCULAR)
    for l in (0, 1, 2, 3, 7, 100, 10**9):
        assert forest.equal_omega(s1, 1, s2, 1, l)


def test_equal_omega_shifted(forest):
    s1 = forest.make_string("ab", mode=CIRCULAR)
    s2 = forest.make_string("ba", mode=CIRCULAR)
    assert forest.equal_omega(s1, 1, s2, 2, 4)
    assert not forest.equal_omega(s1, 1, s2, 1, 4)


def test_equal_omega_cap_is_lossless(forest):
    rng = random.Random(5)
    for _ in range(150):
        w1 = [rng.randrange(2) for _ in range(rng.randint(1, 6))]
        w2 = [rng.randrange(2) for _ in range(rng.randint(1, 6))]
        s1 = forest.make_string(w1, mode=CIRCULAR)
        s2 = forest.make_string(w2, mode=CIRCULAR)
        cap = len(w1) + len(w2)
        i1 = rng.randint(1, len(w1))
        i2 = rng.randint(1, len(w2))
        for l in (cap + 1, 2 * cap, 5 * cap + 3):
            assert forest.equal_omega(s1, i1, s2, i2, l) == \
                forest.equal_omega(s1, i1, s2, i2, cap)


def test_equal_omega_matches_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(6)
    for _ in range(300):
        w1 = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
        w2 = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
        s1 = forest.make_string(w1, mode=CIRCULAR)
        s2 = forest.make_string(w2, mode=CIRCULAR)
        o1 = oracle.make_string(w1, mode=CIRCULAR)
        o2 = oracle.make_string(w2, mode=CIRCULAR)
        i1 = rng.randint(1, len(w1))
        i2 = rng.randint(1, len(w2))
        l = rng.randint(0, 4 * (len(w1) + len(w2)))
        assert forest.equal_omega(s1, i1, s2, i2, l) == \
            oracle.equal_omega(o1, i1, o2, i2, l)


def test_equal_omega_same_handle(forest):
    s = forest.make_string("abab", mode=CIRCULAR)
    assert forest.equal_omega(s, 1, s, 3, 50)
    assert not forest.equal_omega(s, 1, s, 2, 50)
    oracle = OracleForest()
    o = oracle.make_string("abab", mode=CIRCULAR)
    rng = random.Random(7)
    for _ in range(60):
        i1, i2 = rng.randint(1, 4), rng.randint(1, 4)
        l = rng.randint(0, 20)
        assert forest.equal_omega(s, i1, s, i2, l) == \
            oracle.equal_omega(o, i1, o, i2, l)


def test_equal_omega_leaves_rotation_untouched(forest):
    s1 = forest.make_string("abcdef", mode=CIRCULAR)
    s2 = forest.make_string("fedcba", mode=CIRCULAR)
    forest.rotate(s1, 3)
    before = stored(s1)
    forest.equal_omega(s1, 4, s2, 2, 30)
    assert stored(s1) == before == codes("abcdef")


def test_equal_omega_omega_powers_of_same_word(forest):
    s = forest.make_string("ab", mode=CIRCULAR)
    assert forest.equal_omega_omega(s, 1, 2, s, 1, 4)
    assert forest.equal_omega_omega(s, 1, 2, s, 1, 6)


def test_equal_omega_omega_distinguishes_shifts(forest):
    s1 = forest.make_string("ab", mode=CIRCULAR)
    s2 = forest.make_string("ba", mode=CIRCULAR)
    assert not forest.equal_omega_omega(s1, 1, 2, s2, 1, 2)
    assert forest.equal_omega_omega(s1, 1, 2, s2, 2, 2)


def test_equal_omega_omega_properties(forest):
    rng = random.Random(8)
    for _ in range(150):
        w = [rng.randrange(2) for _ in range(rng.randint(1, 6))]
        s = forest.make_string(w, mode=CIRCULAR)
        i = rng.randint(1, len(w))
        l = rng.randint(1, 10)
        assert forest.equal_omega_omega(s, i, l, s, i, l)  # reflexive
        # Doubling the window keeps the described word when the window is a
        # whole number of turns (it is v^k vs v^2k for the conjugate v).
        turns = rng.randint(1, 3) * len(w)
        assert forest.equal_omega_omega(s, i, turns, s, i, 2 * turns)


def test_equal_omega_omega_symmetry(forest):
    rng = random.Random(13)
    for _ in range(100):
        w1 = [rng.randrange(2) for _ in range(rng.randint(1, 5))]
        w2 = [rng.randrange(2) for _ in range(rng.randint(1, 5))]
        s1 = forest.make_string(w1, mode=CIRCULAR)
        s2 = forest.make_string(w2, mode=CIRCULAR)
        i1, i2 = rng.randint(1, len(w1)), rng.randint(1, len(w2))
        l1, l2 = rng.randint(1, 8), rng.randint(1, 8)
        assert forest.equal_omega_omega(s1, i1, l1, s2, i2, l2) == \
            forest.equal_omega_omega(s2, i2, l2, s1, i1, l1)


def test_equal_omega_omega_matches_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(9)
    for _ in range(250):
        w1 = [rng.randrange(2) for _ in range(rng.randint(1, 6))]
        w2 = [rng.randrange(2) for _ in range(rng.randint(1, 6))]
        s1 = forest.make_string(w1, mode=CIRCULAR)
        s2 = forest.make_string(w2, mode=CIRCULAR)
        o1 = oracle.make_string(w1, mode=CIRCULAR)
        o2 = oracle.make_string(w2, mode=CIRCULAR)
        i1, i2 = rng.randint(1, len(w1)), rng.randint(1, len(w2))
        l1, l2 = rng.randint(1, 12), rng.randint(1, 12)
        got = forest.equal_omega_omega(s1, i1, l1, s2, i2, l2)
        want = oracle.equal_omega_omega(o1, i1, l1, o2, i2, l2)
        assert got == want


def test_lcp_omega_same_word_rotations(forest):
    s1 = forest.make_string("abcabc", mode=CIRCULAR)
    s2 = forest.make_string("cabcab", mode=CIRCULAR)
    assert forest.lcp_omega(s1, 1, s2, 2) == (INFINITE, Order.EQUAL)


def test_lcp_omega_basic(forest):
    s1 = forest.make_string("ab", mode=CIRCULAR)
    s2 = forest.make_string("aba", mode=CIRCULAR)
    assert forest.lcp_omega(s1, 1, s2, 1) == (3, Order.GREATER)


def test_lcp_omega_finite_below_cap(forest):
    rng = random.Random(10)
    for _ in range(150):
        w1 = [rng.randrange(2) for _ in range(rng.randint(1, 7))]
        w2 = [rng.randrange(2) for _ in range(rng.randint(1, 7))]
        s1 = forest.make_string(w1, mode=CIRCULAR)
        s2 = forest.make_string(w2, mode=CIRCULAR)
        got, order = forest.lcp_omega(s1, rng.randint(1, len(w1)),
                                      s2, rng.randint(1, len(w2)))
        if got is not INFINITE:
            assert got <= len(w1) + len(w2) - 1
            assert order is not Order.EQUAL


def test_lcp_omega_matches_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(11)
    for _ in range(250):
        w1 = [rng.randrange(2) for _ in range(rng.randint(1, 8))]
        w2 = [rng.randrange(2) for _ in range(rng.randint(1, 8))]
        s1 = forest.make_string(w1, mode=CIRCULAR)
        s2 = forest.make_string(w2, mode=CIRCULAR)
        o1 = oracle.make_string(w1, mode=CIRCULAR)
        o2 = oracle.make_string(w2, mode=CIRCULAR)
        i1, i2 = rng.randint(1, len(w1)), rng.randint(1, len(w2))
        assert forest.lcp_omega(s1, i1, s2, i2) == \
            oracle.lcp_omega(o1, i1, o2, i2)
        assert canonical(forest, s1) == w1
        assert canonical(forest, s2) == w2


def test_lcp_omega_same_handle_matches_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(12)
    for _ in range(120):
        w = [rng.randrange(2) for _ in range(rng.randint(2, 10))]
        s = forest.make_string(w, mode=CIRCULAR)
        o = oracle.make_string(w, mode=CIRCULAR)
        i1, i2 = rng.randint(1, len(w)), rng.randint(1, len(w))
        assert forest.lcp_omega(s, i1, s, i2) == oracle.lcp_omega(o, i1, o, i2)
        assert canonical(forest, s) == w


def test_lcp_omega_same_position_counts_as_an_lcp(forest):
    # like Forest.lcp's own shortcut, it counts a call with no probes
    a = forest.make_string("abcab", mode=CIRCULAR)
    b = forest.make_string("abd", mode=CIRCULAR)
    forest.lcp_omega(a, 1, b, 1)
    assert forest.stats.last_lcp.total > 0
    assert forest.lcp_omega(a, 3, a, 3) == (INFINITE, Order.EQUAL)
    assert forest.stats.lcp_calls == 2
    assert forest.stats.last_lcp.total == 0


def test_omega_ops_require_circular(forest):
    lin = forest.make_string("ab")
    circ = forest.make_string("ab", mode=CIRCULAR)
    with pytest.raises(UsageError):
        forest.equal_omega(lin, 1, circ, 1, 2)
    with pytest.raises(UsageError):
        forest.equal_omega_omega(circ, 1, 2, lin, 1, 2)
    with pytest.raises(UsageError):
        forest.lcp_omega(lin, 1, lin, 1)


def test_lcp_on_circular_handles_uses_canonical_suffixes(forest):
    oracle = OracleForest()
    w1 = codes("bananaba")
    w2 = codes("anan")
    s1 = forest.make_string(w1, mode=CIRCULAR)
    s2 = forest.make_string(w2, mode=CIRCULAR)
    forest.rotate(s1, 5)
    o1 = oracle.make_string(w1, mode=CIRCULAR)
    o2 = oracle.make_string(w2, mode=CIRCULAR)
    assert forest.lcp(s1, 2, s2, 1) == oracle.lcp(o1, 2, o2, 1)
    assert canonical(forest, s1) == w1
