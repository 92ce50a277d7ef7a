"""Rolling-hash arithmetic over a prime field: one context per forest.

A string s[1..n] is summarized by the residue
(s[1]*b^(n-1) + s[2]*b^(n-2) + ... + s[n]) mod p for a random base b.
Two residues compose by the Karp-Rabin concatenation
fp(uv) = fp(u)*b^|v| + fp(v), whose base power comes from the context's
table `pw`, and k copies of u by fp(u) * (1 + d + ... + d^(k-1)) with
d = b^|u| (`geomsum`).  The same context holds the symbol involution that
the trees' mapped fingerprints use.
"""

from __future__ import annotations

import random

from .errors import DomainError, UsageError

#: 2^61 - 1, a Mersenne prime.  Large enough that 61x61-bit products fit in
#: native Python ints cheaply, and far above any desk-scale collection size.
DEFAULT_MODULUS = (1 << 61) - 1


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 2^64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_involution(pairs) -> dict:
    """Build and check a symbol involution table; raises on violations."""
    table = dict(pairs)
    for a, b in table.items():
        if table.get(b, b) != a:
            raise UsageError(f"mapping is not an involution at {a} <-> {b}")
    return table


class FingerprintContext:
    """A forest's arithmetic: the modulus, the random base, the symbol
    involution and the table of base powers.

    The seed is recorded so failing runs can be replayed with the same base.
    With seed=None a 64-bit seed is drawn from the operating system's
    CSPRNG, so the default base cannot be predicted from the input, as the
    whp bound assumes.  `random.SystemRandom` is the generator behind
    `secrets`; importing `secrets` itself would load OpenSSL's hash bindings
    (about 3.7 MiB of resident memory) for no other use.

    fmap is a dict applying the symbol involution (absent keys map to
    themselves) or None when no involution is configured, in which case the
    mapped fingerprints alias the plain ones and cost nothing to maintain.

    pw[k] = b^k mod p for k = 0 .. the longest tree reserved so far; it only
    grows, one entry per symbol of that tree.
    """

    __slots__ = ("modulus", "base", "seed", "fmap", "pw")

    def __init__(self, seed: int | None = None,
                 modulus: int = DEFAULT_MODULUS, base: int | None = None,
                 involution=None):
        if not _is_prime(modulus):
            raise UsageError(f"modulus {modulus} is not prime")
        if seed is None:
            seed = random.SystemRandom().getrandbits(64)
        if base is None:
            base = random.Random(seed).randrange(1, modulus)
        if not 1 <= base <= modulus - 1:
            raise UsageError(f"base {base} outside [1, {modulus - 1}]")
        self.modulus = modulus
        self.base = base
        self.seed = seed
        self.fmap = None if involution is None \
            else validate_involution(involution)
        self.pw = [1]

    def __repr__(self):
        return (f"FingerprintContext(seed={self.seed}, "
                f"modulus={self.modulus}, base={self.base})")

    def reserve(self, n: int) -> None:
        """Extend pw so that pw[n] exists."""
        pw = self.pw
        k = len(pw)
        if k > n:
            return
        b = self.base
        p = self.modulus
        x = pw[-1]
        for _ in range(n + 1 - k):
            x = x * b % p
            pw.append(x)

    def eval(self, symbols) -> int:
        """Fingerprint a concrete symbol sequence by Horner evaluation."""
        p = self.modulus
        b = self.base
        acc = 0
        for c in symbols:
            if not 0 <= c < p:
                raise DomainError(f"symbol {c} outside [0, {p})")
            acc = (acc * b + c) % p
        return acc

    def geomsum(self, d: int, k: int) -> int:
        """(d^k + d^(k-1) + ... + 1) mod p in O(log k) multiplications.

        Uses the doubling recurrence rather than the closed form, which would
        need a modular inverse.
        """
        if k < 0:
            raise UsageError("geomsum needs k >= 0")
        p = self.modulus
        d %= p
        acc = 1        # multiplier accumulated from odd steps
        tail = 0       # sum accumulated from even steps, scaled by acc
        # geomsum(d, 2k+1) = (d+1) * geomsum(d^2, k)
        # geomsum(d, 2k)   = d * geomsum(d, 2k-1) + 1
        while k > 0:
            if k % 2:
                acc = acc * (d + 1) % p
                d = d * d % p
                k //= 2
            else:
                tail = (tail + acc) % p
                # d here is the current level's ratio; absorb one term
                acc = acc * d % p
                k -= 1
        return (acc + tail) % p
