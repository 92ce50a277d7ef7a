"""Behavioral tests for the public dynamic-string API (linear strings)."""

import math
import random
from collections import Counter

import pytest

from fest import CIRCULAR, INFINITE, LINEAR, FingerprintContext, Forest, \
    HandleError, Order, RangeError, UsageError
from fest import compare as fest_compare
from fest import forest as fest_forest
from fest import splaycore as sc
from fest.oracle import OracleForest


DNA = {ord("A"): ord("T"), ord("T"): ord("A"),
       ord("C"): ord("G"), ord("G"): ord("C")}


def codes(text):
    return [ord(c) for c in text]


def text(symbols):
    return "".join(chr(c) for c in symbols)


def full(forest, s):
    return forest.retrieve(s, 1, s.length) if s.length else []


@pytest.fixture
def forest():
    return Forest(seed=11, involution=DNA)


# ------------------------------------------------------------ make / access

def test_make_empty_string(forest):
    s = forest.make_string("")
    assert s.length == 0
    assert full(forest, s) == []


def test_make_mississippi(forest):
    s = forest.make_string("mississippi")
    assert s.length == 11
    assert text(forest.retrieve(s, 1, 11)) == "mississippi"


def test_make_string_fingerprint_matches_eval(forest):
    rng = random.Random(0)
    for _ in range(25):
        w = [rng.randrange(256) for _ in range(rng.randrange(0, 100))]
        s = forest.make_string(w)
        want = forest.ctx.eval(w)
        if w:
            assert s.tree.root.fp == want
            assert forest.ctx.pw[s.length] == pow(forest.ctx.base, len(w),
                                                  forest.ctx.modulus)


def test_access_basic(forest):
    s = forest.make_string("abc")
    assert forest.access(s, 2) == ord("b")
    with pytest.raises(RangeError):
        forest.access(s, 0)
    with pytest.raises(RangeError):
        forest.access(s, 4)


def test_access_after_full_reverse(forest):
    s = forest.make_string("abc")
    forest.reverse(s, 1, 3)
    assert forest.access(s, 1) == ord("c")


def test_access_matches_source(forest):
    rng = random.Random(1)
    w = [rng.randrange(256) for _ in range(64)]
    s = forest.make_string(w)
    for _ in range(64):
        i = rng.randint(1, 64)
        assert forest.access(s, i) == w[i - 1]


# ------------------------------------------------------------------ retrieve

def test_retrieve_full_and_tail(forest):
    s = forest.make_string("mississippi")
    assert text(forest.retrieve(s, 9, 11)) == "ppi"
    assert text(forest.retrieve(s, 1, 11)) == "mississippi"


def test_retrieve_empty_range(forest):
    s = forest.make_string("abc")
    assert forest.retrieve(s, 2, 1) == []
    assert forest.retrieve(s, 4, 3) == []


def test_retrieve_random_slices(forest):
    rng = random.Random(2)
    w = [rng.randrange(256) for _ in range(80)]
    s = forest.make_string(w)
    for _ in range(60):
        i = rng.randint(1, 80)
        j = rng.randint(i, 80)
        assert forest.retrieve(s, i, j) == w[i - 1:j]


# -------------------------------------------------------------------- edits

def test_substitute(forest):
    s = forest.make_string("abc")
    forest.substitute(s, 2, ord("X"))
    assert forest.access(s, 2) == ord("X")
    assert text(full(forest, s)) == "aXc"


def test_substitute_identity_keeps_fingerprint(forest):
    s = forest.make_string("abcdef")
    before = s.tree.root.fp
    forest.substitute(s, 3, forest.access(s, 3))
    forest.access(s, 1)  # splay around; fingerprint of the root must agree
    y = sc.isolate(s.tree, 1, 6, forest.ctx, forest.stats)
    assert y.fp == before


def test_insert_into_empty_and_append(forest):
    s = forest.make_string("")
    forest.insert(s, 1, ord("x"))
    assert text(full(forest, s)) == "x"
    forest.insert(s, s.length + 1, ord("y"))  # append idiom
    assert text(full(forest, s)) == "xy"
    forest.insert(s, 1, ord("w"))
    assert text(full(forest, s)) == "wxy"


def test_delete_to_empty_and_inverse(forest):
    s = forest.make_string("a")
    forest.delete(s, 1)
    assert s.length == 0
    s2 = forest.make_string("abcdef")
    forest.insert(s2, 3, ord("Z"))
    forest.delete(s2, 3)
    assert text(full(forest, s2)) == "abcdef"


def test_edit_sequences_match_oracle(forest):
    oracle = OracleForest(involution=DNA)
    rng = random.Random(3)
    s = forest.make_string("seed")
    o = oracle.make_string("seed")
    for _ in range(400):
        n = s.length
        op = rng.randrange(3)
        if op == 0 and n:
            i, c = rng.randint(1, n), rng.randrange(256)
            forest.substitute(s, i, c)
            oracle.substitute(o, i, c)
        elif op == 1 and n < 64:
            i, c = rng.randint(1, n + 1), rng.randrange(256)
            forest.insert(s, i, c)
            oracle.insert(o, i, c)
        elif op == 2 and n:
            i = rng.randint(1, n)
            forest.delete(s, i)
            oracle.delete(o, i)
        assert full(forest, s) == o.symbols


# -------------------------------------------------- introduce and extract

def test_introduce_append_concatenates(forest):
    s1 = forest.make_string("ab")
    s2 = forest.make_string("cd")
    forest.introduce(s1, s1.length + 1, s2)
    assert text(full(forest, s1)) == "abcd"
    assert not s2.alive


def test_introduce_at_front(forest):
    s = forest.make_string("mississi")
    t = forest.make_string("ppi")
    forest.introduce(s, 1, t)
    assert text(full(forest, s)) == "ppimississi"


def test_introduce_destroys_donor_handle(forest):
    s1 = forest.make_string("ab")
    s2 = forest.make_string("cd")
    forest.introduce(s1, 1, s2)
    for op in (lambda: forest.access(s2, 1),
               lambda: forest.introduce(s1, 1, s2),
               lambda: forest.retrieve(s2, 1, 1),
               lambda: forest.extract(s2, 1, 1)):
        with pytest.raises(HandleError):
            op()


def test_introduce_same_handle_rejected(forest):
    s = forest.make_string("ab")
    with pytest.raises(UsageError):
        forest.introduce(s, 1, s)


def test_foreign_handle_rejected(forest):
    other = Forest(seed=3)
    s = other.make_string("ab")
    with pytest.raises(HandleError):
        forest.access(s, 1)


def test_extract_whole_string(forest):
    s = forest.make_string("abc")
    t = forest.extract(s, 1, 3)
    assert s.length == 0
    assert text(full(forest, t)) == "abc"


def test_extract_mississippi(forest):
    s = forest.make_string("mississippi")
    t = forest.extract(s, 9, 11)
    assert text(full(forest, s)) == "mississi"
    assert text(full(forest, t)) == "ppi"


def test_splices_match_oracle(forest):
    oracle = OracleForest(involution=DNA)
    rng = random.Random(4)
    strings = []
    for k in range(4):
        w = [rng.randrange(256) for _ in range(rng.randint(1, 24))]
        strings.append((forest.make_string(w), oracle.make_string(w)))
    for _ in range(200):
        if len(strings) >= 2 and rng.random() < 0.5:
            (s1, o1), (s2, o2) = rng.sample(strings, 2)
            i = rng.randint(1, s1.length + 1)
            forest.introduce(s1, i, s2)
            oracle.introduce(o1, i, o2)
            strings = [(s, o) for s, o in strings if s.alive]
        else:
            s, o = rng.choice(strings)
            if not s.length:
                continue
            i = rng.randint(1, s.length)
            j = rng.randint(i, s.length)
            strings.append((forest.extract(s, i, j), oracle.extract(o, i, j)))
        for s, o in strings:
            assert full(forest, s) == o.symbols


# -------------------------------------------------------------------- equal

def test_equal_same_range(forest):
    s = forest.make_string("dynamic")
    assert forest.equal(s, 2, s, 2, 4)


def test_equal_period_two(forest):
    s = forest.make_string("abab")
    assert forest.equal(s, 1, s, 3, 2)
    assert not forest.equal(s, 1, s, 2, 2)


def test_equal_matches_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(5)
    w1 = [rng.randrange(4) for _ in range(50)]
    w2 = [rng.randrange(4) for _ in range(60)]
    s1, s2 = forest.make_string(w1), forest.make_string(w2)
    o1, o2 = oracle.make_string(w1), oracle.make_string(w2)
    for _ in range(300):
        pick = rng.random() < 0.5
        sa, oa = (s1, o1) if pick else (s2, o2)
        sb, ob = (s2, o2) if rng.random() < 0.5 else (sa, oa)
        l = rng.randint(0, min(sa.length, sb.length))
        i1 = rng.randint(1, sa.length - l + 1)
        i2 = rng.randint(1, sb.length - l + 1)
        got = forest.equal(sa, i1, sb, i2, l)
        want = oracle.equal(oa, i1, ob, i2, l)
        assert got == want  # one-sided: at p = 2^61-1 collisions never occur here
        if not got:
            assert not want


def test_equal_range_errors(forest):
    s = forest.make_string("abc")
    with pytest.raises(RangeError):
        forest.equal(s, 1, s, 1, -1)
    with pytest.raises(RangeError):
        forest.equal(s, 2, s, 1, 3)


# ------------------------------------------------------------ reverse / map

def test_reverse_single_symbol_is_identity(forest):
    s = forest.make_string("abc")
    forest.reverse(s, 2, 2)
    assert text(full(forest, s)) == "abc"


def test_reverse_twice_restores(forest):
    s = forest.make_string("dynamic")
    forest.reverse(s, 2, 6)
    forest.reverse(s, 2, 6)
    assert text(full(forest, s)) == "dynamic"


def test_map_twice_restores(forest):
    s = forest.make_string("ACGTAC")
    forest.map(s, 2, 5)
    forest.map(s, 2, 5)
    assert text(full(forest, s)) == "ACGTAC"


def test_map_is_complement(forest):
    s = forest.make_string("AACG")
    forest.map(s, 1, 4)
    assert text(full(forest, s)) == "TTGC"


def test_reverse_plus_map_is_reverse_complement(forest):
    s = forest.make_string("AAGCT")
    forest.reverse(s, 1, 5)
    forest.map(s, 1, 5)
    assert text(full(forest, s)) == "AGCTT"


def test_map_without_involution_rejected():
    forest = Forest(seed=1)
    s = forest.make_string("abc")
    with pytest.raises(UsageError):
        forest.map(s, 1, 2)


def test_reverse_map_commute_on_disjoint_ranges(forest):
    rng = random.Random(6)
    w = [rng.choice(codes("ACGT")) for _ in range(40)]
    a = forest.make_string(w)
    b = forest.make_string(w)
    forest.reverse(a, 3, 10)
    forest.map(a, 20, 30)
    forest.map(b, 20, 30)
    forest.reverse(b, 3, 10)
    assert full(forest, a) == full(forest, b)


def test_lazy_ops_interleaved_with_edits_match_oracle(forest):
    oracle = OracleForest(involution=DNA)
    rng = random.Random(7)
    w = [rng.choice(codes("ACGT")) for _ in range(60)]
    s = forest.make_string(w)
    o = oracle.make_string(w)
    for _ in range(400):
        n = s.length
        op = rng.randrange(5)
        if op == 0:
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            forest.reverse(s, i, j)
            oracle.reverse(o, i, j)
        elif op == 1:
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            forest.map(s, i, j)
            oracle.map(o, i, j)
        elif op == 2:
            i = rng.randint(1, n)
            c = rng.choice(codes("ACGT"))
            forest.substitute(s, i, c)
            oracle.substitute(o, i, c)
        elif op == 3 and n < 100:
            i = rng.randint(1, n + 1)
            c = rng.choice(codes("ACGT"))
            forest.insert(s, i, c)
            oracle.insert(o, i, c)
        elif op == 4 and n > 1:
            i = rng.randint(1, n)
            forest.delete(s, i)
            oracle.delete(o, i)
        assert full(forest, s) == o.symbols


# ------------------------------------------------------------- range walker

@pytest.mark.parametrize("mode", [LINEAR, CIRCULAR])
def test_walker_fingerprints_and_reads_every_unrolled_prefix(mode):
    # Every start i and every t in 0..3n, on strings of n = 1..6 with
    # pending flags.  This covers t = n with i > 1, where the second
    # isolate splits the first piece, and t a multiple of n, where no part
    # follows the whole turns.
    rng = random.Random(19)
    forest, oracle = Forest(seed=19, involution=FLIP), \
        OracleForest(involution=FLIP)
    for n in range(1, 7):
        w = [rng.randrange(8) for _ in range(n)]
        s, o = forest.make_string(w, mode), oracle.make_string(w, mode)
        for op in ("map", "reverse", "map"):
            i, j = sorted(rng.choices(range(1, n + 1), k=2))
            for f, t in ((forest, s), (oracle, o)):
                getattr(f, op)(t, i, j)
        for i in range(1, n + 1):
            for t in range(3 * n + 1):
                want = oracle._omega_prefix(o, i, t)
                assert forest._fp(s, i, t) == forest.ctx.eval(want), (n, i, t)
                sc.verify_tree(s.tree.root, forest.ctx)
                assert forest._symbols(s, i, t) == want, (n, i, t)
                sc.verify_tree(s.tree.root, forest.ctx)


# ---------------------------------------------------------------------- lcp

def test_lcp_identical_suffixes(forest):
    s = forest.make_string("dynamic")
    assert forest.lcp(s, 3, s, 3) == (5, Order.EQUAL)


def test_lcp_basic(forest):
    a = forest.make_string("abcd")
    b = forest.make_string("abce")
    assert forest.lcp(a, 1, b, 1) == (3, Order.LESS)
    assert forest.lcp(b, 1, a, 1) == (3, Order.GREATER)


def test_lcp_prefix_rule_on_runs(forest):
    s = forest.make_string("a" * 1000)
    assert forest.lcp(s, 1, s, 2) == (999, Order.GREATER)
    assert forest.lcp(s, 2, s, 1) == (999, Order.LESS)


def test_lcp_restores_content(forest):
    rng = random.Random(8)
    w1 = [rng.randrange(3) for _ in range(500)]
    w2 = w1[:400] + [rng.randrange(3) for _ in range(200)]
    s1, s2 = forest.make_string(w1), forest.make_string(w2)
    forest.lcp(s1, 1, s2, 1)
    assert full(forest, s1) == w1
    assert full(forest, s2) == w2


def test_lcp_matches_oracle_randomized(forest):
    oracle = OracleForest()
    rng = random.Random(9)
    for trial in range(40):
        n1 = rng.randint(1, 120)
        n2 = rng.randint(1, 120)
        w1 = [rng.randrange(3) for _ in range(n1)]
        w2 = [rng.randrange(3) for _ in range(n2)]
        if rng.random() < 0.5:  # plant a shared prefix region
            k = rng.randint(0, min(n1, n2))
            w2[:k] = w1[:k]
        s1, s2 = forest.make_string(w1), forest.make_string(w2)
        o1, o2 = oracle.make_string(w1), oracle.make_string(w2)
        for _ in range(6):
            i1 = rng.randint(1, n1)
            i2 = rng.randint(1, n2)
            assert forest.lcp(s1, i1, s2, i2) == oracle.lcp(o1, i1, o2, i2)
            assert full(forest, s1) == w1
            assert full(forest, s2) == w2


def test_lcp_same_string_overlaps_match_oracle(forest):
    oracle = OracleForest()
    rng = random.Random(10)
    w = ([1, 2, 3, 1, 2] * 60)[:280]
    s = forest.make_string(w)
    o = oracle.make_string(w)
    for _ in range(40):
        i1 = rng.randint(1, len(w))
        i2 = rng.randint(1, len(w))
        assert forest.lcp(s, i1, s, i2) == oracle.lcp(o, i1, o, i2)
        assert full(forest, s) == w


def test_lcp_squaring_probe_budget(forest):
    rng = random.Random(11)
    for length in (4, 64, 900):
        shared = [rng.randrange(256) for _ in range(length)]
        w1 = shared + [1] + [rng.randrange(256) for _ in range(40)]
        w2 = shared + [2] + [rng.randrange(256) for _ in range(40)]
        s1, s2 = forest.make_string(w1), forest.make_string(w2)
        got = forest.lcp(s1, 1, s2, 1)
        assert got == (length, Order.LESS)
        budget = 2 + math.ceil(math.log2(math.log2(max(length, 2)))) \
            if length > 2 else 2
        assert forest.stats.last_lcp.squaring <= budget


def test_lcp_squaring_probe_budget_sweep(forest):
    # the bound must hold for every match length, not just round ones
    rng = random.Random(12)
    for length in list(range(2, 40)) + [63, 64, 65, 200, 255, 256, 257]:
        shared = [rng.randrange(256) for _ in range(length)]
        w1 = shared + [5] + [rng.randrange(256) for _ in range(20)]
        w2 = shared + [9] + [rng.randrange(256) for _ in range(20)]
        s1, s2 = forest.make_string(w1), forest.make_string(w2)
        assert forest.lcp(s1, 1, s2, 1) == (length, Order.LESS)
        budget = 2 + math.ceil(math.log2(math.log2(max(length, 2)))) \
            if length > 2 else 2
        assert forest.stats.last_lcp.squaring <= budget, \
            (length, forest.stats.last_lcp)


def _record_probe_lengths(monkeypatch):
    """Log the length of every prefix fingerprint an lcp takes, one entry per
    side."""
    lengths = []
    fp = fest_forest.Forest._fp

    def logged_fp(self, s, i, t):
        lengths.append(t)
        return fp(self, s, i, t)

    monkeypatch.setattr(fest_forest.Forest, "_fp", logged_fp)
    return lengths


def _check_probed_once(forest, lengths, query, args, want):
    lengths.clear()
    assert query(*args) == want
    twice = {t for t, k in Counter(lengths).items() if k != 2}
    assert not twice, (want, sorted(lengths))
    rec = forest.stats.last_lcp
    if want[0] >= 2:
        assert rec.squaring + rec.search \
            <= 2 * math.ceil(math.log2(want[0] + 1)), (want, rec)


def test_lcp_never_probes_a_length_twice(monkeypatch):
    # Each stage starts from the longest length known equal and stops below
    # the shortest known unequal, so every length is probed once, by one
    # fingerprint per side.
    forest, oracle = Forest(seed=13), OracleForest()
    lengths = _record_probe_lengths(monkeypatch)
    rng = random.Random(13)
    for length in [*range(1, 301), *rng.sample(range(301, 5001), 30)]:
        shared = [rng.randrange(256) for _ in range(length)]
        w1 = shared + [1] + [rng.randrange(256)
                             for _ in range(rng.randrange(40))]
        w2 = shared + [2] + [rng.randrange(256)
                             for _ in range(rng.randrange(40))]
        s1, s2 = forest.make_string(w1), forest.make_string(w2)
        _check_probed_once(forest, lengths, forest.lcp, (s1, 1, s2, 1),
                           (length, Order.LESS))
        forest.drop(s1)
        forest.drop(s2)
    for same, i1, i2 in [(False, 1, 1), (False, 680, 1), (False, 5, 200),
                         (True, 1, 21), (True, 1, 301), (True, 650, 2)]:
        for length in (2, 10, 40, 300):
            w1 = [rng.randrange(256) for _ in range(700)]
            w2 = w1 if same else [rng.randrange(256) for _ in range(700)]
            # Copy forwards: on one handle i2 lies ahead of i1, so no symbol
            # is written after it has been read.
            for k in range(length + 1):
                w2[(i2 - 1 + k) % 700] = w1[(i1 - 1 + k) % 700] ^ (k == length)
            s1 = forest.make_string(w1, CIRCULAR)
            o1 = oracle.make_string(w1, CIRCULAR)
            s2, o2 = (s1, o1) if same else (forest.make_string(w2, CIRCULAR),
                                            oracle.make_string(w2, CIRCULAR))
            want = oracle.lcp_omega(o1, i1, o2, i2)
            assert want[0] == length
            _check_probed_once(forest, lengths, forest.lcp_omega,
                               (s1, i1, s2, i2), want)


def _small_modulus_forest(seed, p, base=None):
    """A forest fingerprinting modulo the prime p, before any string; the
    base is drawn from the seed unless given."""
    forest = Forest(seed=seed)
    forest.ctx = FingerprintContext(seed=seed, modulus=p, base=base)
    return forest


def test_equal_collides_for_exactly_the_bases_the_law_gives():
    # 1·0^k and 0^k·1 fingerprint to b^k and 1, so they collide exactly
    # when b is a root of x^k - 1, which has gcd(k, p - 1) roots mod p:
    # 42 for k = 84 = 2²·3·7, since 8190 = 2·3²·5·7·13.
    p, k = 8191, 84
    u, v = [1] + [0] * k, [0] * k + [1]
    colliding = 0
    for b in range(1, p):
        forest = _small_modulus_forest(0, p, b)
        s1, s2 = forest.make_string(u), forest.make_string(v)
        colliding += forest.equal(s1, 1, s2, 1, k + 1)
    assert colliding == math.gcd(k, p - 1) == 42


def test_equalities_have_no_false_negatives_at_a_small_modulus():
    # Every query compares ranges or unrollings that truly coincide, so each
    # must answer True under every base.  Some lengths make a geometric sum
    # vanish mod p for some bases: 1 + d + ... + d^(c-1) = 0 when d^c = 1
    # and d != 1, which b^3 with c = 30 and b^30 with c = 3 do for many b.
    p = 8191
    z = [1, 2, 3]
    vanished = 0
    for b in range(1, p):
        forest = _small_modulus_forest(0, p, b)
        ab = forest.make_string([1, 2], CIRCULAR)
        zz = forest.make_string(z * 2, CIRCULAR)
        z29 = forest.make_string(z * 29, CIRCULAR)
        z1 = forest.make_string([2, 3, 1], CIRCULAR)
        for query in [
                # ab against abab: windows of different lengths over one
                # period, the longer one unrolled from two copies.
                ("equal_omega_omega", ab, 1, 2, ab, 1, 4),
                ("equal_omega_omega", ab, 2, 2, ab, 2, 6),
                ("equal_omega_omega", zz, 2, 3, z29, 5, 90),
                ("equal_omega_omega", z29, 1, 30, zz, 4, 3),
                ("equal_omega_omega", z1, 3, 6, z29, 1, 87),
                ("equal_omega", zz, 1, zz, 4, 6),
                ("equal_omega", zz, 2, z1, 1, 9),
                ("equal_omega", z29, 1, z1, 3, 90),
                ("equal_omega", z29, 7, zz, 1, 200),
                ("equal", z29, 2, z29, 5, 84),
                ("equal", zz, 5, z1, 1, 3)]:
            assert getattr(forest, query[0])(*query[1:]), (b, query)
        vanished += forest.ctx.geomsum(pow(b, 3, p), 29) == 0
    assert vanished  # so the sweep met vanishing geometric sums


def test_lcp_reads_past_a_collision_at_a_small_modulus():
    # At p = 8191, b^8190 = 1 for every base b (Fermat), so 1·0^8190 and
    # 0^8190·1 share a fingerprint, and so do their full-length prefixes.
    p = 8191
    u, v = [1] + [0] * (p - 1), [0] * (p - 1) + [1]
    for seed in range(3):
        forest = _small_modulus_forest(seed, p)
        s1, s2 = forest.make_string(u), forest.make_string(v)
        assert forest.equal(s1, 1, s2, 1, p)
        assert forest.lcp(s1, 1, s2, 1) == (0, Order.GREATER)


def test_lcps_never_under_report_at_a_small_modulus():
    # u and v differ by +1 at L + 1 and -1 at L + 1 + d, so every prefix
    # holding both differences collides when b^d = 1, which happens for
    # gcd(d, 8190) of the 8190 bases; half of the pairs differ once more,
    # further on.  A collision may lengthen an lcp, never shorten it, and an
    # lcp below READ_WIDTH is read exactly.
    p = 8191
    longer = 0
    for seed in range(60):
        rng = random.Random(seed)
        forest, oracle = _small_modulus_forest(seed, p), OracleForest()
        length = int(2 ** rng.uniform(0, 12))
        d = rng.choice([630, 2730, 4095, 8190])
        e = int(2 ** rng.uniform(0, 12))
        u = [rng.randrange(4) for _ in range(length + d + e + 60)]
        v = list(u)
        u[length] += 1
        v[length + d] += 1
        if rng.random() < 0.5:
            u[length + d + e] += 1
        for mode, query in ((LINEAR, "lcp"), (CIRCULAR, "lcp_omega")):
            s1, s2 = forest.make_string(u, mode), forest.make_string(v, mode)
            o1, o2 = oracle.make_string(u, mode), oracle.make_string(v, mode)
            for i in rng.sample(range(1, length + 2), min(4, length + 1)):
                got = getattr(forest, query)(s1, i, s2, i)
                want = getattr(oracle, query)(o1, i, o2, i)
                if want[0] < fest_compare.READ_WIDTH:
                    assert got == want, (seed, mode, i)
                assert got[0] is INFINITE or want[0] is not INFINITE \
                    and got[0] >= want[0], (seed, mode, i, got, want)
                longer += got != want
    assert longer  # so the sweep met collisions


def test_deep_spines_never_recurse():
    # descents, traversals, and audits must stay iterative on long spines
    forest = Forest(seed=14)
    n = 30_000
    s = forest.make_string([1] * n)
    for i in range(1, n, 997):  # sorted accesses degrade the shape
        forest.access(s, i)
    assert forest.retrieve(s, 1, n) == [1] * n
    sc.verify_tree(s.tree.root, forest.ctx)
    assert sc.logical_symbols(s.tree.root, None) == [1] * n


def test_lcp_range_errors(forest):
    s = forest.make_string("abc")
    with pytest.raises(RangeError):
        forest.lcp(s, 0, s, 1)
    with pytest.raises(RangeError):
        forest.lcp(s, 1, s, 4)


class InjectedFault(Exception):
    """Stands in for an error or interrupt arriving mid-search."""


def _lcp_fault_case(case):
    """(forest, oracle, query name, args for both) for one fault scenario."""
    rng = random.Random(30)
    forest, oracle = Forest(seed=30), OracleForest()
    if case.startswith("omega-"):
        same, i1, i2, length = _OMEGA_FAULT_CASES[case]
        return _omega_fault_case(rng, forest, oracle, same, i1, i2, length)
    if case.startswith("same-"):
        if case == "same-overlap":
            w, i2 = ([1, 2, 3] * 200)[:599] + [9], 4
        else:
            at = 100 if case == "same-disjoint-100" else 10
            half = [rng.randrange(4) for _ in range(300)]
            w, i2 = half + half[:at] + [half[at] ^ 1] + half[at + 1:], 301
        s, o = forest.make_string(w), oracle.make_string(w)
        return forest, oracle, "lcp", (s, 1, s, i2), (o, 1, o, i2)
    at = {"linear-301": 301, "linear-11": 11, "linear-101": 101}[case]
    w1 = [rng.randrange(4) for _ in range(600)]
    w2 = list(w1)
    w2[at - 1] = (w1[at - 1] + 1) % 4
    s1, s2 = forest.make_string(w1), forest.make_string(w2)
    o1, o2 = oracle.make_string(w1), oracle.make_string(w2)
    return forest, oracle, "lcp", (s1, 1, s2, 1), (o1, 1, o2, 1)


#: case -> (one string?, i1, i2, length) for lcp_omega on 700-symbol
#: strings whose unrollings from i1 and i2 agree on exactly `length`
#: symbols.  At 10 the head read ends the lcp; at 100 it reaches the
#: squaring, the search and the tail read.  From 680 the probe ranges of
#: one side cross the seam, so each probe fingerprints two stored pieces.
#: On one string, a shift of 20 makes the two sides' ranges overlap and a
#: shift of 300 keeps them disjoint, so one tree is probed from two starts.
_OMEGA_FAULT_CASES = {"omega-lcp-10": (False, 1, 1, 10),
                      "omega-seam": (False, 680, 1, 10),
                      "omega-seam-100": (False, 680, 1, 100),
                      "omega-same-overlap": (True, 1, 21, 10),
                      "omega-same-disjoint": (True, 1, 301, 10),
                      "omega-same-disjoint-100": (True, 1, 301, 100)}


def _omega_fault_case(rng, forest, oracle, same, i1, i2, length):
    w1 = [rng.randrange(4) for _ in range(700)]
    w2 = w1 if same else [rng.randrange(4) for _ in range(700)]
    # Copy forwards: on one handle i2 lies ahead of i1, so no symbol is
    # written after it has been read.
    for k in range(length + 1):
        w1[(i1 - 1 + k) % 700] = w2[(i2 - 1 + k) % 700] ^ (k == length)
    s1, o1 = forest.make_string(w1, CIRCULAR), oracle.make_string(w1, CIRCULAR)
    s2, o2 = (s1, o1) if same else (forest.make_string(w2, CIRCULAR),
                                    oracle.make_string(w2, CIRCULAR))
    return forest, oracle, "lcp_omega", (s1, i1, s2, i2), (o1, i1, o2, i2)


#: case -> the lcp stages it reaches.  Together the cases reach them all.
_FAULT_STAGES = {
    "linear-301": {"squaring", "search", "tail"},
    "linear-101": {"squaring", "search", "tail"},
    "linear-11": set(),
    "same-overlap": {"squaring", "search", "tail"},
    "same-disjoint": set(),
    "same-disjoint-100": {"squaring", "search", "tail"},
    "omega-lcp-10": set(),
    "omega-seam": set(),
    "omega-seam-100": {"squaring", "search", "tail"},
    "omega-same-overlap": set(),
    "omega-same-disjoint": set(),
    "omega-same-disjoint-100": {"squaring", "search", "tail"},
}


@pytest.mark.parametrize("case", _FAULT_STAGES)
def test_lcp_restores_strings_after_a_fault(monkeypatch, case):
    # The k-th fault point raises, for every k until the query completes.
    # Fault points are the probes made through squaring_upper_bound or
    # exponential_search, which the lcp pipeline looks up in fest.compare,
    # and every exact read of symbols.
    forest, oracle, name, args, oracle_args = _lcp_fault_case(case)
    want = getattr(oracle, name)(*oracle_args)
    before = {s.id: full(forest, s) for s in forest.live_handles()}
    points = [0]
    fault_at = [0]

    def tick():
        points[0] += 1
        if points[0] == fault_at[0]:
            raise InjectedFault

    def faulty(fn):
        def patched(eq_at, *args):
            def probe(t):
                tick()
                return eq_at(t)
            return fn(probe, *args)
        return patched

    def ticking(fn):
        def patched(*args):
            tick()
            return fn(*args)
        return patched

    for helper in ("squaring_upper_bound", "exponential_search"):
        monkeypatch.setattr(fest_compare, helper,
                            faulty(getattr(fest_compare, helper)))
    monkeypatch.setattr(fest_forest.Forest, "_symbols",
                        ticking(fest_forest.Forest._symbols))
    while True:
        fault_at[0] += 1
        points[0] = 0
        try:
            got = getattr(forest, name)(*args)
            break
        except InjectedFault:
            for s in forest.live_handles():
                sc.verify_tree(s.tree.root, forest.ctx)
            assert {s.id: full(forest, s)
                    for s in forest.live_handles()} == before, fault_at[0]
    assert got == want
    rec = forest.stats.last_lcp
    reached = {stage for stage, hit in [("squaring", rec.squaring),
                                        ("search", rec.search),
                                        ("tail", rec.reads == 2)] if hit}
    # so every stage the case reaches had faults injected
    assert rec.reads and reached == _FAULT_STAGES[case], (reached, rec)
    fault_at[0] = 0  # retrieve reads through the ticking _symbols too
    assert {s.id: full(forest, s) for s in forest.live_handles()} == before


class _FaultyInvolution(dict):
    """An involution table whose get raises at its fault_at-th call."""

    fault_at = 0
    calls = 0

    def get(self, key, default=None):
        self.calls += 1
        if self.calls == self.fault_at:
            raise InjectedFault
        return super().get(key, default)


FLIP = {c: c ^ 1 for c in range(8)}


def _scrambled_map_case(mode=LINEAR):
    """A 500-symbol string with stale mapped pairs and pending flags."""
    rng = random.Random(41)
    forest = Forest(seed=41, involution=FLIP)
    w = [rng.randrange(8) for _ in range(500)]
    s = forest.make_string(w, mode)
    for _ in range(300):
        forest.access(s, rng.randint(1, 500))
    for _ in range(12):
        i, j = sorted(rng.sample(range(1, 501), 2))
        if rng.random() < 0.5:
            forest.map(s, i, j)
            w[i - 1:j] = [FLIP[c] for c in w[i - 1:j]]
        else:
            forest.reverse(s, i, j)
            w[i - 1:j] = w[i - 1:j][::-1]
    if mode == CIRCULAR:
        # Flags the right spine of [451..500], which a turn's join walks.
        forest.map(s, 451, 500)
        w[450:] = [FLIP[c] for c in w[450:]]
    table = _FaultyInvolution(FLIP)
    forest.ctx.fmap = table
    return forest, s, w, table


def _walk_involution_faults(mode, op, *args):
    """Run op(s, *args) on the scrambled case with its k-th involution
    lookup raising, for every k the op reaches.  Each fault must leave the
    content as it was and every invariant intact; a second call then
    completes the op.  Returns the last k and the op's mapped refreshes."""
    k = 0
    while True:
        k += 1
        forest, s, w, table = _scrambled_map_case(mode)
        oracle = OracleForest(involution=FLIP)
        o = oracle.make_string(w, mode)
        getattr(oracle, op)(o, *args)
        before = forest.stats.mapped_refreshes
        table.fault_at = k
        try:
            getattr(forest, op)(s, *args)
        except InjectedFault:
            table.fault_at = 0
            sc.verify_tree(s.tree.root, forest.ctx)
            assert full(forest, s) == w, (op, k)
            getattr(forest, op)(s, *args)
        else:
            break
        sc.verify_tree(s.tree.root, forest.ctx)
        assert full(forest, s) == o.symbols, (op, k)
    return k, forest.stats.mapped_refreshes - before


def test_map_leaves_string_intact_after_an_involution_fault():
    # The k-th involution lookup raises, in the descents' fixes and in the
    # refresh of stale mapped pairs.  The flag is set only once the refresh
    # has completed, so a fault leaves the content as it was and both
    # invariants intact.
    k, refreshed = _walk_involution_faults(LINEAR, "map", 40, 460)
    assert k > refreshed > 50  # so the walk had faults injected
    # A wrapped map flags its two pieces only once both are refreshed.
    k, refreshed = _walk_involution_faults(CIRCULAR, "map", 460, 40)
    assert k > refreshed > 20
    # A wrapped reverse turns the string, reverses and turns back; the
    # turn back runs also when a fault cuts the reversal short, and cannot
    # fault itself.  The whole circle turns once and needs no turn back.
    for i, j in ((320, 131), (300, 299)):
        k, _ = _walk_involution_faults(CIRCULAR, "reverse", i, j)
        assert k > 5
    # A wrapped extract turns back when a split after its turn faults.
    k, _ = _walk_involution_faults(CIRCULAR, "extract", 260, 240)
    assert k > 5
    # extract joins its pieces back when its second split faults; insert
    # faults only in its split, before the node is linked.
    k, _ = _walk_involution_faults(LINEAR, "extract", 100, 400)
    assert k > 5
    k, _ = _walk_involution_faults(LINEAR, "insert", 250, 7)
    assert k > 5
    # delete is extract's cut of one symbol: its closing join walks no
    # spine, so a fault in a split leaves the string whole.
    faults = sum(_walk_involution_faults(LINEAR, "delete", i)[0] - 1
                 for i in (2, 100, 250, 400, 499))
    assert faults > 5


def test_introduce_keeps_the_donor_after_an_involution_fault():
    # introduce splays the donor's last symbol to its root and splits the
    # receiver before the donor dies.  Both descents' fixes look up the
    # involution (the donor's too, once it is mapped), and a fault in
    # either leaves both strings as they were and the donor alive.
    k = 0
    while True:
        k += 1
        forest, s, w, table = _scrambled_map_case()
        oracle = OracleForest(involution=FLIP)
        o = oracle.make_string(w)
        for f, t in ((forest, s), (oracle, o)):
            f.map(t, 100, 400)
        donor, o_donor = forest.make_string([3, 4, 5, 6, 7]), \
            oracle.make_string([3, 4, 5, 6, 7])
        for f, t in ((forest, donor), (oracle, o_donor)):
            f.map(t, 1, 5)
        table.fault_at = table.calls + k
        try:
            forest.introduce(s, 106, donor)
        except InjectedFault:
            table.fault_at = 0
            assert donor.alive, k
            for t, mirror in ((s, o), (donor, o_donor)):
                sc.verify_tree(t.tree.root, forest.ctx)
                assert full(forest, t) == mirror.symbols, k
            assert forest.total_length == 505
        else:
            break
    table.fault_at = 0
    oracle.introduce(o, 106, o_donor)
    assert not donor.alive and forest.live_handles() == [s]
    sc.verify_tree(s.tree.root, forest.ctx)
    assert full(forest, s) == o.symbols
    assert k > 1  # so the walk had faults injected


# ------------------------------------------------------------------- stats

def test_find_on_root_costs_no_rotations(forest):
    s = forest.make_string("abcdefgh")
    forest.access(s, 5)
    before = forest.stats.rotations
    forest.access(s, 5)
    assert forest.stats.rotations == before


def test_a_find_counts_only_at_a_valid_position(forest):
    s = forest.make_string("ACGT")
    for call in (lambda: forest.access(s, 9), lambda: forest.access(s, 0),
                 lambda: forest.substitute(s, 9, 65),
                 lambda: forest.delete(s, 9)):
        with pytest.raises(RangeError):
            call()
    assert forest.stats.finds == 0
    forest.access(s, 2)
    forest.substitute(s, 2, 65)
    forest.delete(s, 2)
    assert forest.stats.finds == 3


def test_comparisons_count_one_test_and_lcps_one_call(forest):
    """An answered equality adds one equal test and an lcp one lcp call,
    the same-position shortcut too; an empty equality and a rejected call
    add nothing."""
    f = forest
    u = f.make_string("ACGTACGT")
    a = f.make_string("ACGTAC", mode=CIRCULAR)
    b = f.make_string("GTACAC", mode=CIRCULAR)
    cases = [  # method, args, error, equal tests added, lcp calls added
        (f.equal, (u, 1, u, 5, 4), None, 1, 0),
        (f.equal, (a, 5, b, 1, 4), None, 1, 0),
        (f.equal_omega, (a, 3, b, 1, 50), None, 1, 0),
        (f.equal_omega_omega, (a, 1, 2, b, 3, 4), None, 1, 0),
        (f.equal, (u, 1, u, 5, 0), None, 0, 0),
        (f.equal_omega, (a, 1, b, 1, 0), None, 0, 0),
        (f.lcp, (u, 1, u, 5), None, 0, 1),
        (f.lcp, (u, 3, u, 3), None, 0, 1),
        (f.lcp_omega, (a, 1, b, 3), None, 0, 1),
        (f.lcp_omega, (a, 2, a, 2), None, 0, 1),
        (f.equal, (u, 6, u, 1, 4), RangeError, 0, 0),
        (f.equal, (u, 1, a, 1, 7), RangeError, 0, 0),
        (f.equal, (u, 1, u, 1, -1), RangeError, 0, 0),
        (f.equal_omega, (a, 1, u, 1, 3), UsageError, 0, 0),
        (f.equal_omega, (a, 7, b, 1, 3), RangeError, 0, 0),
        (f.equal_omega, (a, 1, b, 1, -1), RangeError, 0, 0),
        (f.equal_omega_omega, (u, 1, 1, b, 1, 1), UsageError, 0, 0),
        (f.equal_omega_omega, (a, 1, 0, b, 1, 1), RangeError, 0, 0),
        (f.lcp, (u, 9, u, 1), RangeError, 0, 0),
        (f.lcp_omega, (a, 1, u, 1), UsageError, 0, 0),
        (f.lcp_omega, (a, 0, b, 1), RangeError, 0, 0),
    ]
    stats = f.stats
    for method, args, error, tests, calls in cases:
        before = stats.equal_tests, stats.lcp_calls
        if error is None:
            method(*args)
        else:
            with pytest.raises(error):
                method(*args)
        added = stats.equal_tests - before[0], stats.lcp_calls - before[1]
        assert added == (tests, calls), (method.__name__, args)


def test_total_length_tracking(forest):
    s1 = forest.make_string("abcd")
    s2 = forest.make_string("xy")
    assert forest.total_length == 6
    forest.insert(s1, 1, 65)
    forest.delete(s2, 1)
    assert forest.total_length == 6
    forest.introduce(s1, 1, s2)
    assert forest.total_length == 6
    forest.extract(s1, 1, 2)
    assert forest.total_length == 6


def test_drop_kills_the_handle_and_its_length(forest):
    s = forest.make_string("abcdef")
    t = forest.make_string("xy")
    rotations = forest.stats.rotations
    forest.drop(s)
    assert not s.alive
    assert forest.total_length == 2
    assert forest.stats.rotations == rotations  # no restructuring
    assert forest.live_handles() == [t]
    for call in (lambda: forest.drop(s), lambda: forest.access(s, 1),
                 lambda: forest.drop(Forest(seed=3).make_string("ab"))):
        with pytest.raises(HandleError):
            call()
    assert full(forest, t) == codes("xy")


# --------------------------------------------------------- the power table

def test_power_table_holds_base_powers(forest):
    s = forest.make_string(range(50))
    forest.insert(s, 3, 7)
    forest.introduce(s, 1, forest.make_string("abc"))
    b, p = forest.ctx.base, forest.ctx.modulus
    assert len(forest.ctx.pw) == s.length + 1
    assert all(w == pow(b, k, p) for k, w in enumerate(forest.ctx.pw))


def test_strings_longer_than_any_before_match_oracle():
    # The table grows with the longest string, never with the total, and
    # every insert or introduce that passes the longest string reserves
    # before it links; queries on the longer strings agree with the oracle.
    rng = random.Random(12)
    forest, oracle = Forest(seed=12, involution=DNA), OracleForest(
        involution=DNA)
    pairs = [(forest.make_string(w, mode), oracle.make_string(w, mode))
             for w, mode in (("ACG", CIRCULAR), ("TTA", LINEAR),
                             ("GA", CIRCULAR), ("C", LINEAR))]
    longest = 3
    for step in range(60):
        (s, o), (s2, o2) = rng.sample(pairs, 2)
        if step % 3 == 0 and s2.length:
            i = rng.randint(1, s.length + 1)
            forest.introduce(s, i, s2)
            oracle.introduce(o, i, o2)
            pairs.remove((s2, o2))
            w = [rng.choice(codes("ACGT")) for _ in range(rng.randint(1, 4))]
            mode = rng.choice([LINEAR, CIRCULAR])
            pairs.append((forest.make_string(w, mode),
                          oracle.make_string(w, mode)))
        else:
            c = rng.choice(codes("ACGT"))
            i = rng.randint(1, s.length + 1)
            forest.insert(s, i, c)
            oracle.insert(o, i, c)
        longest = max(longest, s.length)
        assert len(forest.ctx.pw) == longest + 1
        assert forest.total_length > longest or len(pairs) == 1
        for a, b in pairs:
            sc.verify_tree(a.tree.root, forest.ctx)
            assert full(forest, a) == b.symbols
        (s, o), (s2, o2) = rng.sample(pairs, 2)
        i1, i2 = rng.randint(1, s.length), rng.randint(1, s2.length)
        assert forest.lcp(s, i1, s2, i2) == oracle.lcp(o, i1, o2, i2)
        l = rng.randint(0, min(s.length - i1, s2.length - i2) + 1)
        assert forest.equal(s, i1, s2, i2, l) == oracle.equal(o, i1, o2, i2, l)
        if s.mode == s2.mode == CIRCULAR:
            assert forest.lcp_omega(s, i1, s2, i2) == \
                oracle.lcp_omega(o, i1, o2, i2)
