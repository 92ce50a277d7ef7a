"""Property-based differential testing: random op sequences vs the oracle.

Complements the big seeded acceptance runs with hypothesis-shrinkable
counterexamples: when something diverges, hypothesis minimizes the failing
operation sequence instead of leaving a 100k-line script to bisect.
"""

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from fest import CIRCULAR, Forest
from fest.errors import FestError
from fest.oracle import OracleForest

INVOLUTION = {0: 3, 3: 0, 1: 2, 2: 1}

ops = st.sampled_from([
    "make", "makec", "access", "retrieve", "sub", "ins", "del", "intro",
    "extract", "equal", "lcp", "rev", "map", "rotate", "eqw", "eqww", "lcpw",
])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(ops, st.integers(0, 2**30)), max_size=60))
def test_random_sequences_agree_with_oracle(script):
    import random
    forest = Forest(seed=5, involution=INVOLUTION)
    oracle = OracleForest(involution=INVOLUTION)
    pairs = [(forest.make_string([1, 2, 3]), oracle.make_string([1, 2, 3]))]

    def pick():
        return pairs[rnd.randrange(len(pairs))]

    for verb, salt in script:
        rnd = random.Random(salt)
        s, o = pick()
        n = s.length
        try:
            if verb == "make" and len(pairs) < 8:
                w = [rnd.randrange(4) for _ in range(rnd.randrange(0, 9))]
                pairs.append((forest.make_string(w), oracle.make_string(w)))
            elif verb == "makec" and len(pairs) < 8:
                w = [rnd.randrange(4) for _ in range(rnd.randrange(1, 7))]
                pairs.append((forest.make_string(w, mode=CIRCULAR),
                              oracle.make_string(w, mode=CIRCULAR)))
            elif verb == "access" and n:
                i = rnd.randint(1, n)
                assert forest.access(s, i) == oracle.access(o, i)
            elif verb == "retrieve" and n:
                i, j = rnd.randint(1, n), rnd.randint(1, n)
                if s.mode != CIRCULAR and i > j:
                    i, j = j, i
                assert forest.retrieve(s, i, j) == oracle.retrieve(o, i, j)
            elif verb == "sub" and n:
                i, c = rnd.randint(1, n), rnd.randrange(4)
                forest.substitute(s, i, c)
                oracle.substitute(o, i, c)
            elif verb == "ins" and n < 40:
                i, c = rnd.randint(1, n + 1), rnd.randrange(4)
                forest.insert(s, i, c)
                oracle.insert(o, i, c)
            elif verb == "del" and n:
                i = rnd.randint(1, n)
                forest.delete(s, i)
                oracle.delete(o, i)
            elif verb == "intro" and len(pairs) >= 2:
                s2, o2 = pick()
                if s2 is s:
                    continue
                i = rnd.randint(1, n + 1)
                forest.introduce(s, i, s2)
                oracle.introduce(o, i, o2)
                pairs[:] = [(a, b) for a, b in pairs if a.alive]
            elif verb == "extract" and n:
                i, j = rnd.randint(1, n), rnd.randint(1, n)
                if s.mode != CIRCULAR and i > j:
                    i, j = j, i
                pairs.append((forest.extract(s, i, j),
                              oracle.extract(o, i, j)))
            elif verb == "equal" and n:
                s2, o2 = pick()
                if not s2.length:
                    continue
                l = rnd.randint(0, min(n, s2.length))
                i1 = rnd.randint(1, n - l + 1) if s.mode != CIRCULAR \
                    else rnd.randint(1, n)
                i2 = rnd.randint(1, s2.length - l + 1) \
                    if s2.mode != CIRCULAR else rnd.randint(1, s2.length)
                got = forest.equal(s, i1, s2, i2, l)
                want = oracle.equal(o, i1, o2, i2, l)
                assert got == want
            elif verb == "lcp" and n:
                s2, o2 = pick()
                if not s2.length:
                    continue
                i1, i2 = rnd.randint(1, n), rnd.randint(1, s2.length)
                assert forest.lcp(s, i1, s2, i2) == oracle.lcp(o, i1, o2, i2)
            elif verb in ("rev", "map") and n:
                i, j = rnd.randint(1, n), rnd.randint(1, n)
                if s.mode != CIRCULAR and i > j:
                    i, j = j, i
                if verb == "rev":
                    forest.reverse(s, i, j)
                    oracle.reverse(o, i, j)
                else:
                    forest.map(s, i, j)
                    oracle.map(o, i, j)
            elif verb == "rotate" and n and s.mode == CIRCULAR:
                forest.rotate(s, rnd.randint(1, n))
            elif verb == "eqw" and n and s.mode == CIRCULAR:
                s2, o2 = pick()
                if s2.mode != CIRCULAR or not s2.length:
                    continue
                l = rnd.randint(0, 3 * (n + s2.length))
                i1, i2 = rnd.randint(1, n), rnd.randint(1, s2.length)
                assert forest.equal_omega(s, i1, s2, i2, l) == \
                    oracle.equal_omega(o, i1, o2, i2, l)
            elif verb == "eqww" and n and s.mode == CIRCULAR:
                s2, o2 = pick()
                if s2.mode != CIRCULAR or not s2.length:
                    continue
                l1, l2 = rnd.randint(1, 9), rnd.randint(1, 9)
                i1, i2 = rnd.randint(1, n), rnd.randint(1, s2.length)
                assert forest.equal_omega_omega(s, i1, l1, s2, i2, l2) == \
                    oracle.equal_omega_omega(o, i1, l1, o2, i2, l2)
            elif verb == "lcpw" and n and s.mode == CIRCULAR:
                s2, o2 = pick()
                if s2.mode != CIRCULAR or not s2.length:
                    continue
                i1, i2 = rnd.randint(1, n), rnd.randint(1, s2.length)
                assert forest.lcp_omega(s, i1, s2, i2) == \
                    oracle.lcp_omega(o, i1, o2, i2)
        except FestError:
            raise
        # after every step, all live strings match symbol for symbol
        for a, b in pairs:
            got = forest.retrieve(a, 1, a.length) if a.length else []
            assert got == b.symbols


def test_binary_alphabet_stress():
    # Two-symbol strings make long shared prefixes the norm, which drives
    # the lcp upper-bound and search machinery much harder than byte data.
    from fest.cli import run_script
    from fest.oracle import WorkloadConfig, WorkloadWeights, random_workload
    cfg = WorkloadConfig(alphabet=2, max_length=1500, max_circular_length=128,
                         initial_length=128)
    weights = WorkloadWeights(lcp=12.0, equal=10.0, map=4.0)
    lines = random_workload(500, 8000, weights, cfg)
    result = run_script(lines, seed=0, involution={0: 1, 1: 0}, shadow=True)
    assert result.exit_code == 0, result.error
    assert result.collisions == 0


def test_sequential_access_spines_stay_consistent():
    import random
    from fest import splaycore as sc
    forest = Forest(seed=13)
    w = [random.Random(1).randrange(4) for _ in range(1500)]
    s = forest.make_string(w)
    for i in range(1, len(w) + 1):  # drives the tree into a spine
        assert forest.access(s, i) == w[i - 1]
    sc.verify_tree(s.tree.root, forest.ctx)
    forest.reverse(s, 1, len(w))
    assert forest.retrieve(s, 1, len(w)) == w[::-1]
    sc.verify_tree(s.tree.root, forest.ctx)


def test_equal_right_after_reverse_reads_effective_fingerprint():
    # The range root handed out by the restructure can carry a fresh lazy
    # flag from an earlier reversal; reading its fingerprint must reflect
    # the logical (reversed) content.
    forest = Forest(seed=2)
    s = forest.make_string("abc")
    t = forest.make_string("ba")
    forest.reverse(s, 1, 2)  # s = "bac"
    assert forest.equal(s, 1, t, 1, 2)
    assert not forest.equal(s, 2, t, 1, 2)


def test_lazy_toggle_refreshes_enclosing_fingerprints():
    # A reversal of an inner range must propagate into the aggregates of
    # the (at most two) nodes above it, or whole-string comparisons break.
    forest = Forest(seed=2)
    s = forest.make_string("abcdef")
    forest.reverse(s, 2, 4)  # "adcbef"
    expect = forest.make_string("adcbef")
    assert forest.equal(s, 1, expect, 1, 6)


def test_introduce_into_empty_string():
    forest = Forest(seed=1)
    empty = forest.make_string("")
    donor = forest.make_string("xyz")
    forest.introduce(empty, 1, donor)
    assert forest.retrieve(empty, 1, 3) == [ord(c) for c in "xyz"]


def test_introduce_empty_donor_destroys_it():
    forest = Forest(seed=1)
    target = forest.make_string("ab")
    donor = forest.make_string("")
    forest.introduce(target, 2, donor)
    assert not donor.alive
    assert forest.retrieve(target, 1, 2) == [ord("a"), ord("b")]


def test_fresh_forest_counters_are_zero():
    stats = Forest(seed=1).stats
    assert (stats.rotations, stats.fixes, stats.finds, stats.equal_tests,
            stats.lcp_calls, stats.lcp_squaring_probes) == (0,) * 6
    assert stats.last_lcp is None


def test_empty_circular_string_round_trip():
    forest = Forest(seed=1)
    s = forest.make_string("ab", mode=CIRCULAR)
    piece = forest.extract(s, 1, 2)
    assert s.length == 0 and s.tree.root is None
    forest.introduce(s, 1, piece)
    assert forest.retrieve(s, 1, 2) == [ord("a"), ord("b")]


# ------------------------------------------------------------ error paths

#: Stand-ins for the first and second handle in drawn arguments.
FIRST, SECOND = object(), object()


def _position(rnd, n):
    """A boundary or out-of-range position for a length-n string."""
    return rnd.choice([-1, 0, 1, n, n + 1, n + 2, rnd.randint(1, n + 1)])


def _length(rnd, n):
    return rnd.choice([-1, 0, 1, n, n + 1, 2 * n + 1, rnd.randint(0, n)])


def _symbol(rnd):
    return rnd.choice([-1, 2**32, "x", rnd.randrange(4)])


def _error_call(rnd, n, n2):
    """(method, args) for one call of any verb, mostly with bad arguments."""
    name = rnd.choice([
        "make_string", "access", "retrieve", "substitute", "insert",
        "delete", "introduce", "extract", "equal", "lcp", "reverse", "map",
        "rotate", "equal_omega", "equal_omega_omega", "lcp_omega", "drop"])
    i, j, i2 = _position(rnd, n), _position(rnd, n), _position(rnd, n2)
    if name == "make_string":
        args = ([rnd.randrange(4), _symbol(rnd)],
                rnd.choice(["linear", CIRCULAR, "spiral"]))
    elif name == "drop":
        args = (FIRST,)
    elif name in ("access", "delete", "rotate"):
        args = (FIRST, i)
    elif name in ("retrieve", "extract", "reverse", "map"):
        args = (FIRST, i, j)
    elif name in ("substitute", "insert"):
        args = (FIRST, i, _symbol(rnd))
    elif name == "introduce":
        args = (FIRST, i, SECOND)
    elif name in ("equal", "equal_omega"):
        args = (FIRST, i, SECOND, i2, _length(rnd, n))
    elif name in ("lcp", "lcp_omega"):
        args = (FIRST, i, SECOND, i2)
    else:
        args = (FIRST, i, _length(rnd, n), SECOND, i2, _length(rnd, n2))
    return name, args


def _outcome(target, name, args, first, second):
    """The answer of the call, or the FestError subclass it raised."""
    bound = [first if a is FIRST else second if a is SECOND else a
             for a in args]
    try:
        return "ok", getattr(target, name)(*bound)
    except FestError as exc:
        return "error", type(exc)


@seed(20240505)
@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2**30), min_size=1, max_size=40))
@example(salts=[517, 27071, 27071, 0])  # three drops empty one system
def test_error_paths_agree_with_oracle(salts):
    # Invalid positions, lengths and symbols, stale and foreign handles, and
    # map without an involution: both sides raise the same FestError
    # subclass and no live string changes.
    import random
    from fest import splaycore as sc
    systems = []
    for involution in (INVOLUTION, None):
        forest = Forest(seed=5, involution=involution)
        oracle = OracleForest(involution=involution)
        pairs = [(forest.make_string(w, mode), oracle.make_string(w, mode))
                 for w, mode in (([1, 2, 3, 0], "linear"),
                                 ([2, 1], CIRCULAR), ([], "linear"))]
        systems.append((forest, oracle, pairs, []))

    for salt in salts:
        rnd = random.Random(salt)
        forest, oracle, pairs, dead = rnd.choice(systems)
        if not pairs:  # every string was dropped: start afresh on both sides
            pairs.append((forest.make_string([1, 2]),
                          oracle.make_string([1, 2])))
        # Live pairs mostly; else a destroyed one or one from either system.
        (s, o), (s2, o2) = [
            rnd.choice(rnd.choice([pairs, pairs, pairs, dead,
                                   rnd.choice(systems)[2]]) or pairs)
            for _ in range(2)]
        name, args = _error_call(rnd, o.length, o2.length)
        got = _outcome(forest, name, args, s, s2)
        want = _outcome(oracle, name, args, o, o2)
        if got[0] == want[0] == "ok" and name in ("make_string", "extract"):
            pairs.append((got[1], want[1]))
        else:
            assert got == want, (name, args)
        for f, _, live, gone in systems:
            gone += [p for p in live if not p[1].alive]
            live[:] = [p for p in live if p[1].alive]
            for a, b in live:
                assert a.alive
                assert (f.retrieve(a, 1, a.length) if a.length
                        else []) == b.symbols
                sc.verify_tree(a.tree.root, f.ctx)
