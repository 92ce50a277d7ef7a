"""Unit and property tests for the rolling-hash arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fest.errors import DomainError, UsageError
from fest.fingerprint import DEFAULT_MODULUS, EMPTY_FP, FingerprintContext, Fp


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
    assert ctx.eval([]) == Fp(0, 1, 0)
    assert ctx.eval([]) == EMPTY_FP


def test_eval_small_modulus_example():
    ctx = FingerprintContext(modulus=101, base=7)
    assert ctx.eval([1, 2]) == Fp(9, 49, 2)


def test_eval_single_symbol(ctx):
    got = ctx.eval([5])
    assert got == Fp(5, ctx.base, 1)


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
        got = ctx.eval(s)
        assert got.fp == naive_fp(s, ctx.base, ctx.modulus)
        assert got.power == pow(ctx.base, len(s), ctx.modulus)
        assert got.length == len(s)


def test_concat_identity(ctx):
    x = ctx.eval([3, 1, 4])
    assert ctx.concat(EMPTY_FP, x) == x
    assert ctx.concat(x, EMPTY_FP) == x


def test_concat_two_singletons(ctx):
    assert ctx.concat(ctx.eval([1]), ctx.eval([2])) == ctx.eval([1, 2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=64),
       st.lists(st.integers(0, 255), max_size=64))
def test_concat_matches_eval_of_concatenation(u, v):
    ctx = FingerprintContext(seed=11)
    assert ctx.concat(ctx.eval(u), ctx.eval(v)) == ctx.eval(u + v)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=32),
       st.lists(st.integers(0, 255), max_size=32),
       st.lists(st.integers(0, 255), max_size=32))
def test_concat_is_associative(u, v, w):
    ctx = FingerprintContext(seed=13)
    a, b, c = ctx.eval(u), ctx.eval(v), ctx.eval(w)
    assert ctx.concat(ctx.concat(a, b), c) == ctx.concat(a, ctx.concat(b, c))


def test_power_field_tracks_length(ctx):
    rng = random.Random(3)
    for _ in range(50):
        s = [rng.randrange(256) for _ in range(rng.randrange(0, 1024))]
        assert ctx.eval(s).power == pow(ctx.base, len(s), ctx.modulus)


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


def test_power_fp_single_copy(ctx):
    x = ctx.eval([9, 8, 7])
    assert ctx.power_fp(x, 1) == x


def test_power_fp_zero_copies(ctx):
    assert ctx.power_fp(ctx.eval([1, 2]), 0) == EMPTY_FP


def test_power_fp_small_expansion(ctx):
    u = [1, 2]
    assert ctx.power_fp(ctx.eval(u), 3) == ctx.eval(u * 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 255), st.integers(1, 256))
def test_power_fp_matches_eval_expansion(c, k):
    ctx = FingerprintContext(seed=17)
    assert ctx.power_fp(ctx.eval([c]), k) == ctx.eval([c] * k)


def test_collision_soundness_is_one_sided(ctx):
    # Distinct fingerprints of equal-length strings imply distinct strings.
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randrange(1, 16)
        s = [rng.randrange(4) for _ in range(n)]
        t = [rng.randrange(4) for _ in range(n)]
        if ctx.eval(s).fp != ctx.eval(t).fp:
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
        answers.append((f._prefix_fp(s.tree, 1, 11), f.lcp(s, 1, t, 1),
                        f.equal(s, 1, s, 8, 4)))
    assert answers[0] == answers[1]
