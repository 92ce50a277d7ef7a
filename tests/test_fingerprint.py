"""Unit and property tests for the rolling-hash arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fest.errors import DomainError, UsageError
from fest.fingerprint import DEFAULT_MODULUS, FingerprintContext


def naive_fp(symbols, base, modulus):
    """Independent Horner-loop oracle for eval()."""
    acc = 0
    for c in symbols:
        acc = (acc * base + c) % modulus
    return acc


def naive_geomsum(d, k, modulus):
    """Independent k+1-term loop oracle for geomsum()."""
    total = 0
    term = 1
    for _ in range(k + 1):
        total = (total + term) % modulus
        term = term * d % modulus
    return total


@pytest.fixture
def ctx():
    return FingerprintContext(seed=7)


def test_eval_empty(ctx):
    assert ctx.eval([]) == 0


def test_eval_small_modulus_example():
    ctx = FingerprintContext(modulus=101, base=7)
    assert ctx.eval([1, 2]) == 9


def test_eval_single_symbol(ctx):
    assert ctx.eval([5]) == 5


def test_eval_rejects_out_of_domain():
    ctx = FingerprintContext(modulus=101, base=7)
    with pytest.raises(DomainError):
        ctx.eval([101])
    with pytest.raises(DomainError):
        ctx.eval([-1])


def test_eval_matches_naive_oracle(ctx):
    rng = random.Random(1)
    for _ in range(200):
        s = [rng.randrange(0, 1 << 20) for _ in range(rng.randrange(0, 64))]
        assert ctx.eval(s) == naive_fp(s, ctx.base, ctx.modulus)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=64),
       st.lists(st.integers(0, 255), max_size=64))
def test_concat_matches_eval_of_concatenation(u, v):
    # fp(uv) = fp(u)·b^|v| + fp(v), with b^|v| read from the power table.
    ctx = FingerprintContext(seed=11)
    ctx.reserve(len(v))
    assert (ctx.eval(u) * ctx.pw[len(v)] + ctx.eval(v)) % ctx.modulus \
        == ctx.eval(u + v)


def test_power_table_tracks_length(ctx):
    # reserve(n) grows pw to the longest n asked for, never beyond.
    rng = random.Random(3)
    longest = 0
    for _ in range(50):
        n = rng.randrange(0, 1024)
        ctx.reserve(n)
        longest = max(longest, n)
        assert len(ctx.pw) == longest + 1
        assert ctx.pw[n] == pow(ctx.base, n, ctx.modulus)


def test_geomsum_base_cases(ctx):
    assert ctx.geomsum(12345, 0) == 1
    small = FingerprintContext(modulus=101, base=7)
    assert small.geomsum(2, 3) == 15  # 8 + 4 + 2 + 1


def test_geomsum_matches_naive_oracle(ctx):
    rng = random.Random(5)
    for _ in range(100):
        d = rng.randrange(ctx.modulus)
        k = rng.randrange(0, 10_000)
        assert ctx.geomsum(d, k) == naive_geomsum(d, k, ctx.modulus)


def test_geomsum_rejects_negative_count(ctx):
    with pytest.raises(UsageError):
        ctx.geomsum(2, -1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=16),
       st.integers(1, 256))
def test_geomsum_k_fold_matches_eval_expansion(u, k):
    # fp(u^k) = fp(u)·(1 + d + ... + d^(k-1)) with d = b^|u|.
    ctx = FingerprintContext(seed=17)
    ctx.reserve(len(u))
    geo = ctx.geomsum(ctx.pw[len(u)], k - 1)
    assert ctx.eval(u) * geo % ctx.modulus == ctx.eval(u * k)


def test_collision_soundness_is_one_sided(ctx):
    # Distinct fingerprints of equal-length strings imply distinct strings.
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randrange(1, 16)
        s = [rng.randrange(4) for _ in range(n)]
        t = [rng.randrange(4) for _ in range(n)]
        if ctx.eval(s) != ctx.eval(t):
            assert s != t


def test_context_base_is_seed_deterministic():
    assert FingerprintContext(seed=42).base == FingerprintContext(seed=42).base
    assert FingerprintContext(seed=1).base != FingerprintContext(seed=2).base


def test_context_rejects_composite_modulus():
    with pytest.raises(UsageError):
        FingerprintContext(modulus=100)


def test_default_modulus_is_m61():
    assert DEFAULT_MODULUS == (1 << 61) - 1


def test_default_seed_is_drawn_and_replays():
    from fest import Forest
    a, b = Forest(), Forest()
    assert a.ctx.seed != b.ctx.seed
    assert a.ctx.base != b.ctx.base
    replay = Forest(seed=a.ctx.seed)
    assert replay.ctx.base == a.ctx.base
    answers = []
    for f in (a, replay):
        s = f.make_string("abracadabra")
        t = f.make_string("abracadabrx")
        answers.append((f._fp(s, 1, 11), f.lcp(s, 1, t, 1),
                        f.equal(s, 1, s, 8, 4)))
    assert answers[0] == answers[1]
