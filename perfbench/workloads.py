"""The four workloads: their inputs, op mixes and independent checks.

Every input is drawn from one `random.Random` made from the workload seed;
fest receives only the generated symbols, positions and scripts, never the
seed.  Each round runs a fixed multiset of op units in a seeded shuffle, so
every round has the same share of each op kind and the class medians do not
drift with the seed.  Answers are checked after the timer stops, against a
plain-list mirror (edit_mix, lcp_planted), the planted lcp length
(lcp_planted), `OracleForest` (omega) or a `--shadow-oracle` replay
(cli_script).
"""

from __future__ import annotations

import gc
import random
import sys

from fest import CIRCULAR, INFINITE, Forest, Order
from fest import cli
from fest.oracle import OracleForest, WorkloadConfig, WorkloadWeights, \
    random_workload

#: Fixed fingerprint seed: the base is not a workload input.
FINGERPRINT_SEED = 1
#: A symbol involution over bytes, so `map` works everywhere.
INVOLUTION = {c: 255 - c for c in range(256)}
#: Builds per run, at least this many and for at least this long; setup_s
#: is their median.
SETUP_BUILDS = 3
SETUP_SECONDS = 1.5


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """An integer in [lo, hi] whose logarithm is uniform."""
    return min(hi, max(lo, int(lo * (hi / lo) ** rng.random())))


def order(a: int, b: int) -> Order:
    return Order.LESS if a < b else Order.GREATER if a > b else Order.EQUAL


def list_lcp(a: list, i: int, b: list, j: int):
    """(length, order) of the suffixes a[i..] and b[j..], by a direct scan."""
    la = len(a) - i + 1
    lb = len(b) - j + 1
    m = min(la, lb)
    k = 0
    while k < m and a[i - 1 + k] == b[j - 1 + k]:
        k += 1
    if k < m:
        return k, order(a[i - 1 + k], b[j - 1 + k])
    return k, order(la, lb)


def apply_range(m: list, kind: str, i: int, j: int) -> None:
    """Reverse or map the mirror range i..j in place."""
    if kind == "reverse":
        m[i - 1:j] = m[i - 1:j][::-1]
    else:
        m[i - 1:j] = [INVOLUTION[c] for c in m[i - 1:j]]


def units(mix) -> list[str]:
    return [name for name, count in mix for _ in range(count)]


class Workload:
    """One workload: set-up, rounds of op units, and a full-state check."""

    name = ""
    #: Measured rounds whose counters the traced run reports.
    trace_rounds = 1
    #: Rounds between two full content checks.
    verify_every = 8

    def prepare(self, rec) -> None:
        raise NotImplementedError

    def run_round(self, rec) -> None:
        raise NotImplementedError

    def verify(self, rec) -> None:
        """Compare the full contents of every string with the judge."""

    def mechanism(self, rec) -> list[str]:
        """Ways in which the run missed the mechanism it exists for."""
        return []

    def build(self, rec, inputs) -> None:
        """Build the initial strings repeatedly, each timed; keep the last."""
        builds = 0
        while builds < SETUP_BUILDS or sum(rec.setup_s) < SETUP_SECONDS:
            self.forest = None
            gc.collect()
            f = Forest(seed=FINGERPRINT_SEED, involution=INVOLUTION)
            rec.setup_start()
            handles = [f.make_string(symbols, mode)
                       for symbols, mode in inputs]
            rec.setup_stop()
            self.forest = f
            self.handles = handles
            builds += 1
        rec.bind(self.forest.stats)


# --------------------------------------------------------------- edit_mix

class EditMix(Workload):
    """Point edits and short queries on one 2^17-symbol string.

    Positions are two-thirds uniform and one third near a drifting cursor.
    The lcps are on random bytes, so they stop at the border probe.
    """

    name = "edit_mix"
    trace_rounds = 24
    verify_every = 16
    N = 1 << 17
    MIX = [("access", 210), ("retrieve", 80), ("substitute", 210),
           ("insert", 80), ("delete", 80), ("cutpaste", 40), ("revmap", 40),
           ("equal", 120), ("lcp", 60)]

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.symbols = [rng.randrange(256) for _ in range(self.N)]
        self.cursor = self.N // 2

    def prepare(self, rec):
        self.build(rec, [(self.symbols, "linear")])
        (self.s,) = self.handles
        self.m = list(self.symbols)

    def run_round(self, rec):
        plan = units(self.MIX)
        self.rng.shuffle(plan)
        for unit in plan:
            getattr(self, "_" + unit)(rec)

    def _pos(self, n: int) -> int:
        rng = self.rng
        if rng.random() < 2 / 3:
            return rng.randint(1, n)
        self.cursor = min(max(self.cursor + rng.randint(-256, 256), 1), n)
        return min(max(self.cursor + rng.randint(-16, 16), 1), n)

    def _access(self, rec):
        i = self._pos(len(self.m))
        got = rec.call("access", self.forest.access, self.s, i)
        rec.expect(got == self.m[i - 1], "access", i)

    def _retrieve(self, rec):
        l = log_uniform(self.rng, 1, 64)
        i = self._pos(len(self.m) - l + 1)
        got = rec.call("retrieve", self.forest.retrieve, self.s, i, i + l - 1)
        rec.expect(got == self.m[i - 1:i - 1 + l], "retrieve", i, l)

    def _substitute(self, rec):
        i = self._pos(len(self.m))
        c = self.rng.randrange(256)
        rec.call("substitute", self.forest.substitute, self.s, i, c)
        self.m[i - 1] = c

    def _insert(self, rec):
        i = self._pos(len(self.m) + 1)
        c = self.rng.randrange(256)
        rec.call("insert", self.forest.insert, self.s, i, c)
        self.m.insert(i - 1, c)

    def _delete(self, rec):
        i = self._pos(len(self.m))
        rec.call("delete", self.forest.delete, self.s, i)
        del self.m[i - 1]

    def _cutpaste(self, rec):
        m = self.m
        l = log_uniform(self.rng, 1, 4096)
        i = self._pos(len(m) - l + 1)
        t = rec.call("extract", self.forest.extract, self.s, i, i + l - 1)
        rec.expect(t.length == l, "extract", i, l)
        piece = m[i - 1:i - 1 + l]
        del m[i - 1:i - 1 + l]
        k = self._pos(len(m) + 1)
        rec.call("introduce", self.forest.introduce, self.s, k, t)
        m[k - 1:k - 1] = piece

    def _revmap(self, rec):
        # Two independent ranges: a map right after a reverse of the same
        # range finds it at the root, and the class median would fall
        # between the two populations.
        m = self.m
        for kind in ("reverse", "map"):
            l = log_uniform(self.rng, 1, 4096)
            i = self._pos(len(m) - l + 1)
            j = i + l - 1
            rec.call(kind, getattr(self.forest, kind), self.s, i, j)
            apply_range(m, kind, i, j)

    def _equal(self, rec):
        m = self.m
        l = log_uniform(self.rng, 1, 64)
        i1 = self._pos(len(m) - l + 1)
        i2 = i1 if self.rng.random() < 0.25 else \
            self.rng.randint(1, len(m) - l + 1)
        got = rec.call("equal", self.forest.equal, self.s, i1, self.s, i2, l)
        rec.expect(got == (m[i1 - 1:i1 - 1 + l] == m[i2 - 1:i2 - 1 + l]),
                   "equal", i1, i2, l)

    def _lcp(self, rec):
        n = len(self.m)
        i1 = self._pos(n)
        i2 = self.rng.randint(1, n - 1)
        i2 += i2 >= i1
        got = rec.call("lcp", self.forest.lcp, self.s, i1, self.s, i2)
        want = list_lcp(self.m, i1, self.m, i2)
        rec.expect(got == want, "lcp", i1, i2)
        rec.lcp_length(want[0])

    def verify(self, rec):
        got = self.forest.retrieve(self.s, 1, self.s.length)
        rec.expect_state(got == self.m, "edit_mix contents")


# ------------------------------------------------------------ lcp_planted

class LcpPlanted(Workload):
    """lcps whose length is planted at a log-uniform distance.

    s and t hold the same 2^16 random bytes and receive the same edits, so
    they differ only where a substitute plants a mismatch just before an lcp
    (and removes it just after).  u is periodic with a short period q, and
    its suffix pairs lie a multiple of q apart.  Each round plants one
    mismatch in every octave of [1, 2^14] on each pair.
    """

    name = "lcp_planted"
    trace_rounds = 48
    N = 1 << 16
    U = 1 << 15
    OCTAVES = 14
    MIX = [("equal", 20), ("access", 20), ("retrieve", 10), ("revmap", 4),
           ("cutpaste", 4), ("insert", 4), ("delete", 4)]

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.text = [rng.randrange(256) for _ in range(self.N)]
        self.q = rng.randint(3, 48)
        period = [rng.randrange(256) for _ in range(self.q)]
        self.periodic = [period[x % self.q] for x in range(self.U)]
        self.answers: list[int] = []

    def prepare(self, rec):
        self.build(rec, [(self.text, "linear"), (self.text, "linear"),
                         (self.periodic, "linear")])
        self.s, self.t, self.u = self.handles
        self.ms = list(self.text)
        self.mt = list(self.text)
        self.mu = list(self.periodic)

    def run_round(self, rec):
        plan = units(self.MIX)
        plan += [f"plant_st:{k}" for k in range(self.OCTAVES)]
        plan += [f"plant_u:{k}" for k in range(self.OCTAVES)]
        self.rng.shuffle(plan)
        for unit in plan:
            name, _, arg = unit.partition(":")
            if arg:
                getattr(self, "_" + name)(rec, int(arg))
            else:
                getattr(self, "_" + name)(rec)

    def _ell(self, octave: int) -> int:
        return min(1 << self.OCTAVES, int(2 ** (octave + self.rng.random())))

    def _planted_lcp(self, rec, h, mh, a, b, p, ell):
        """Plant a mismatch at p in h, check lcp(a, b) = ell, remove it."""
        f = self.forest
        orig = mh[p - 1]
        c = (orig + self.rng.randint(1, 255)) % 256
        rec.call("substitute", f.substitute, h, p, c)
        mh[p - 1] = c
        (h1, i1, s1), (h2, i2, s2) = a, b
        if self.rng.random() < 0.5:
            (h1, i1, s1), (h2, i2, s2) = (h2, i2, s2), (h1, i1, s1)
        got = rec.call("lcp", f.lcp, h1, i1, h2, i2)
        want = ell, order(orig if s1 else c, orig if s2 else c)
        rec.expect(got == want, "planted lcp", i1, i2, ell)
        rec.lcp_length(ell)
        self.answers.append(got[0])
        rec.call("substitute", f.substitute, h, p, orig)
        mh[p - 1] = orig

    def _plant_st(self, rec, octave):
        ell = self._ell(octave)
        i = self.rng.randint(1, len(self.ms) - ell)
        # (handle, start, whether its symbol at the mismatch is the original)
        self._planted_lcp(rec, self.t, self.mt, (self.s, i, True),
                          (self.t, i, False), i + ell, ell)

    def _plant_u(self, rec, octave):
        ell = self._ell(octave)
        q = self.q
        room = len(self.mu) - ell - 1
        d = q * log_uniform(self.rng, 1, max(1, room // 2 // q))
        i = self.rng.randint(1, len(self.mu) - d - ell)
        j = i + d
        self._planted_lcp(rec, self.u, self.mu, (self.u, i, True),
                          (self.u, j, False), j + ell, ell)

    def _equal(self, rec):
        rng = self.rng
        l = log_uniform(rng, 1, 1 << self.OCTAVES)
        r = rng.random()
        if r < 0.4:
            h1, m1, h2, m2 = self.s, self.ms, self.t, self.mt
            i1 = i2 = rng.randint(1, len(m1) - l + 1)
        elif r < 0.6:
            h1, m1, h2, m2 = self.s, self.ms, self.t, self.mt
            i1 = rng.randint(1, len(m1) - l)
            i2 = i1 + 1
        else:
            h1 = h2 = self.u
            m1 = m2 = self.mu
            d = self.q * rng.randint(1, max(1, (len(m1) - l) // 2 // self.q))
            i1 = rng.randint(1, len(m1) - l - d + 1)
            i2 = i1 + d
        got = rec.call("equal", self.forest.equal, h1, i1, h2, i2, l)
        rec.expect(got == (m1[i1 - 1:i1 - 1 + l] == m2[i2 - 1:i2 - 1 + l]),
                   "equal", i1, i2, l)

    def _pick(self):
        return self.rng.choice(((self.s, self.ms), (self.t, self.mt),
                                (self.u, self.mu)))

    def _access(self, rec):
        h, m = self._pick()
        i = self.rng.randint(1, len(m))
        got = rec.call("access", self.forest.access, h, i)
        rec.expect(got == m[i - 1], "access", i)

    def _retrieve(self, rec):
        h, m = self._pick()
        l = log_uniform(self.rng, 1, 64)
        i = self.rng.randint(1, len(m) - l + 1)
        got = rec.call("retrieve", self.forest.retrieve, h, i, i + l - 1)
        rec.expect(got == m[i - 1:i - 1 + l], "retrieve", i, l)

    def _both(self):
        """The two shared-text strings, which every edit keeps equal."""
        return ((self.s, self.ms), (self.t, self.mt))

    def _revmap(self, rec):
        for kind in ("reverse", "map"):
            l = log_uniform(self.rng, 1, 4096)
            i = self.rng.randint(1, len(self.ms) - l + 1)
            j = i + l - 1
            for h, m in self._both():
                rec.call(kind, getattr(self.forest, kind), h, i, j)
                apply_range(m, kind, i, j)

    def _cutpaste(self, rec):
        l = log_uniform(self.rng, 1, 4096)
        i = self.rng.randint(1, len(self.ms) - l + 1)
        k = self.rng.randint(1, len(self.ms) - l + 1)
        for h, m in self._both():
            w = rec.call("extract", self.forest.extract, h, i, i + l - 1)
            rec.expect(w.length == l, "extract", i, l)
            piece = m[i - 1:i - 1 + l]
            del m[i - 1:i - 1 + l]
            rec.call("introduce", self.forest.introduce, h, k, w)
            m[k - 1:k - 1] = piece

    def _insert(self, rec):
        i = self.rng.randint(1, len(self.ms) + 1)
        c = self.rng.randrange(256)
        for h, m in self._both():
            rec.call("insert", self.forest.insert, h, i, c)
            m.insert(i - 1, c)

    def _delete(self, rec):
        i = self.rng.randint(1, len(self.ms))
        for h, m in self._both():
            rec.call("delete", self.forest.delete, h, i)
            del m[i - 1]

    def verify(self, rec):
        f = self.forest
        for h, m in ((self.s, self.ms), (self.t, self.mt), (self.u, self.mu)):
            rec.expect_state(f.retrieve(h, 1, h.length) == m,
                             "lcp_planted contents")
        rec.expect_state(self.ms == self.mt, "s and t share their text")

    def mechanism(self, rec):
        out = [f"no {probe} probes" for probe in ("squaring", "search")
               if not rec.counts[probe]]
        if not self.answers or min(self.answers) != 1 \
                or max(self.answers) < 1 << 13:
            out.append("planted lcps do not span 1 .. 2^13")
        return out


# ------------------------------------------------------------------ omega

class Omega(Workload):
    """Unrolled queries over 32 circular strings with short periods.

    Four families repeat one random primitive period each, of 3, 5, 8 and
    12 symbols.  The strings' lengths climb geometrically from 2^8 to 2^12
    (rounded to whole periods), each starts at a random phase, and every
    third one carries one defect.  Pairs at aligned phases unroll
    identically (INFINITE) unless a defect intervenes, which gives long
    finite answers.  Every edit of a round is undone, last first, at the
    round's end, so the strings are the same at the start of every round.
    """

    name = "omega"
    trace_rounds = 48
    PERIODS = (3, 5, 8, 12)
    STRINGS = 32
    # ":s" draws a same-handle pair, ":d" a distinct-handle pair (30 / 70).
    MIX = [("lcp_omega:s", 12), ("lcp_omega:d", 28), ("equal_omega:s", 9),
           ("equal_omega:d", 21), ("equal_omega_omega:s", 6),
           ("equal_omega_omega:d", 14), ("equal:s", 4), ("equal:d", 10),
           ("rotate", 16), ("extract", 8), ("reverse", 8), ("map", 8),
           ("substitute", 8), ("insert", 8), ("access", 16),
           ("retrieve", 16)]

    def __init__(self, rng: random.Random):
        self.rng = rng
        families = len(self.PERIODS)
        periods = []
        for q in self.PERIODS:
            while True:
                p = [rng.randrange(256) for _ in range(q)]
                if all(p != p[d:] + p[:d] for d in range(1, q)):  # primitive
                    break
            periods.append(p)
        self.inputs = []
        self.phase = []
        for k in range(self.STRINGS):
            p = periods[k % families]
            q = len(p)
            n = q * max(1, round(2 ** (8 + 4 * k / (self.STRINGS - 1)) / q))
            ph = rng.randrange(q)
            w = [p[(ph + x) % q] for x in range(n)]
            if k % 3 == 0:
                x = rng.randrange(n)
                w[x] = (w[x] + rng.randint(1, 255)) % 256
            self.inputs.append(w)
            self.phase.append(ph)
        self.kinds = {"same": 0, "distinct": 0, "inf": 0, "finite": 0}

    def prepare(self, rec):
        self.build(rec, [(w, CIRCULAR) for w in self.inputs])
        self.oracle = OracleForest(involution=INVOLUTION)
        self.o = [self.oracle.make_string(w, CIRCULAR) for w in self.inputs]

    def run_round(self, rec):
        plan = units(self.MIX)
        self.rng.shuffle(plan)
        self.undo = []
        for unit in plan:
            name, _, pair = unit.partition(":")
            if pair:
                getattr(self, "_" + name)(rec, pair == "s")
            else:
                getattr(self, "_" + name)(rec)
        while self.undo:
            kind, k, *args = self.undo.pop()
            self._edit(rec, kind, k, *args)

    def _edit(self, rec, kind, k, *args):
        """Apply one mutation to string k and to its oracle twin."""
        h, o = self.handles[k], self.o[k]
        if kind == "introduce":
            i, w, ow = args
            rec.call(kind, self.forest.introduce, h, i, w)
            self.oracle.introduce(o, i, ow)
        else:
            rec.call(kind, getattr(self.forest, kind), h, *args)
            getattr(self.oracle, kind)(o, *args)

    def _pair(self, same: bool):
        """Two string indices and aligned-or-not start positions."""
        rng = self.rng
        families = len(self.PERIODS)
        k1 = rng.randrange(self.STRINGS)
        if same:
            k2 = k1
        elif rng.random() < 0.75:
            k2 = (k1 + families * rng.randint(
                1, self.STRINGS // families - 1)) % self.STRINGS
        else:
            k2 = (k1 + rng.randint(1, families - 1)) % self.STRINGS
        n1, n2 = len(self.o[k1]), len(self.o[k2])
        i1 = rng.randint(1, n1)
        q = self.PERIODS[k1 % families]
        if k1 % families == k2 % families and rng.random() < 0.7:
            r = (self.phase[k1] + i1 - 1 - self.phase[k2]) % q
            i2 = r + 1 + q * rng.randrange(n2 // q)
            if same and i2 == i1:
                i2 = (i1 - 1 + q) % n1 + 1
        else:
            i2 = rng.randint(1, n2)
        return k1, i1, k2, i2

    def _lcp_omega(self, rec, same):
        k1, i1, k2, i2 = self._pair(same)
        got = rec.call("lcp_omega", self.forest.lcp_omega, self.handles[k1],
                       i1, self.handles[k2], i2)
        want = self.oracle.lcp_omega(self.o[k1], i1, self.o[k2], i2)
        rec.expect(got == want, "lcp_omega", k1, i1, k2, i2)
        if want[0] is not INFINITE:
            rec.lcp_length(want[0])
        self.kinds["same" if same else "distinct"] += 1
        self.kinds["inf" if want[0] is INFINITE else "finite"] += 1

    def _equal_omega(self, rec, same):
        k1, i1, k2, i2 = self._pair(same)
        n = len(self.o[k1]) + len(self.o[k2])
        l = log_uniform(self.rng, 1, 2 * n)
        got = rec.call("equal_omega", self.forest.equal_omega,
                       self.handles[k1], i1, self.handles[k2], i2, l)
        want = self.oracle.equal_omega(self.o[k1], i1, self.o[k2], i2, l)
        rec.expect(got == want, "equal_omega", k1, i1, k2, i2, l)

    def _equal_omega_omega(self, rec, same):
        k1, i1, k2, i2 = self._pair(same)
        rng = self.rng
        n1, n2 = len(self.o[k1]), len(self.o[k2])
        q = self.PERIODS[k1 % len(self.PERIODS)]
        if rng.random() < 0.6:
            l1 = q * rng.randint(1, 2 * n1 // q)
            l2 = q * rng.randint(1, 2 * n2 // q)
        else:
            l1 = rng.randint(1, 2 * n1)
            l2 = rng.randint(1, 2 * n2)
        got = rec.call("equal_omega_omega", self.forest.equal_omega_omega,
                       self.handles[k1], i1, l1, self.handles[k2], i2, l2)
        want = self.oracle.equal_omega_omega(self.o[k1], i1, l1, self.o[k2],
                                             i2, l2)
        rec.expect(got == want, "equal_omega_omega", k1, i1, l1, k2, i2, l2)

    def _equal(self, rec, same):
        k1, i1, k2, i2 = self._pair(same)
        l = self.rng.randint(1, min(len(self.o[k1]), len(self.o[k2])))
        got = rec.call("equal", self.forest.equal, self.handles[k1], i1,
                       self.handles[k2], i2, l)
        want = self.oracle.equal(self.o[k1], i1, self.o[k2], i2, l)
        rec.expect(got == want, "equal", k1, i1, k2, i2, l)

    def _one(self):
        k = self.rng.randrange(self.STRINGS)
        return k, len(self.o[k])

    def _rotate(self, rec):
        k, n = self._one()
        self._edit(rec, "rotate", k, self.rng.randint(1, n))

    def _extract(self, rec):
        k, n = self._one()
        l = self.rng.randint(1, n // 2)
        i = self.rng.randint(1, n - l + 1)
        w = rec.call("extract", self.forest.extract, self.handles[k], i,
                     i + l - 1)
        rec.expect(w.length == l, "extract", i, l)
        ow = self.oracle.extract(self.o[k], i, i + l - 1)
        self.undo.append(("introduce", k, i, w, ow))

    def _reverse(self, rec):
        k, n = self._one()
        i, j = self.rng.randint(1, n), self.rng.randint(1, n)
        self._edit(rec, "reverse", k, i, j)
        self.undo.append(("reverse", k, i, j))

    def _map(self, rec):
        k, n = self._one()
        i, j = self.rng.randint(1, n), self.rng.randint(1, n)
        self._edit(rec, "map", k, i, j)
        self.undo.append(("map", k, i, j))

    def _substitute(self, rec):
        k, n = self._one()
        i = self.rng.randint(1, n)
        orig = self.oracle.access(self.o[k], i)
        self._edit(rec, "substitute", k, i,
                   (orig + self.rng.randint(1, 255)) % 256)
        self.undo.append(("substitute", k, i, orig))

    def _insert(self, rec):
        k, n = self._one()
        i = self.rng.randint(1, n + 1)
        self._edit(rec, "insert", k, i, self.rng.randrange(256))
        self.undo.append(("delete", k, i))

    def _access(self, rec):
        k, n = self._one()
        i = self.rng.randint(1, n)
        got = rec.call("access", self.forest.access, self.handles[k], i)
        rec.expect(got == self.oracle.access(self.o[k], i), "access", i)

    def _retrieve(self, rec):
        k, n = self._one()
        i = self.rng.randint(1, n)
        j = (i - 1 + self.rng.randint(2, 64) - 1) % n + 1
        got = rec.call("retrieve", self.forest.retrieve, self.handles[k], i, j)
        rec.expect(got == self.oracle.retrieve(self.o[k], i, j),
                   "retrieve", i, j)

    def verify(self, rec):
        for h, o in zip(self.handles, self.o):
            rec.expect_state(self.forest.retrieve(h, 1, h.length) == o.symbols,
                             "omega contents")

    def mechanism(self, rec):
        return [f"no {k} lcp_omega pair" for k, v in self.kinds.items()
                if v == 0]


# ------------------------------------------------------------- cli_script

#: Op kind of each verb, for the per-class latencies.
VERB_KIND = {
    "MAKEN": "make_string", "MAKECN": "make_string", "ACCESS": "access",
    "RETRIEVE": "retrieve", "SUB": "substitute", "INS": "insert",
    "DEL": "delete", "INTRO": "introduce", "EXTRACT": "extract",
    "EQUAL": "equal", "LCP": "lcp", "REV": "reverse", "MAP": "map",
    "ROTATE": "rotate", "EQW": "equal_omega", "EQWW": "equal_omega_omega",
    "LCPW": "lcp_omega",
}
QUERY_VERBS = {"ACCESS", "RETRIEVE", "EQUAL", "LCP", "EQW", "EQWW", "LCPW"}


class _Lines:
    """In-memory stand-in for stdout: one entry per printed line."""

    def __init__(self):
        self.lines: list[str] = []
        self.write = self.lines.append


class CliScript(Workload):
    """random_workload scripts replayed in process through cli.run_script.

    A run draws SCRIPTS scripts and replays one per round, in turn, each on
    a fresh ScriptRunner: a script's opening MAKEN/MAKECN block is the
    set-up, every later line is one op.  Lines are fed by a generator,
    which stops the clock when the runner asks for the next line and checks
    the line's printed output against an untimed --shadow-oracle replay of
    the same script.  Several scripts per run keep the rare slow lines of
    any one script from setting op_p99_us.
    """

    name = "cli_script"
    trace_rounds = 20
    verify_every = 4
    SCRIPTS = 4
    OPENING = 64
    OPS = 2000

    def __init__(self, rng: random.Random):
        config = WorkloadConfig(alphabet=256, max_length=2048,
                                max_strings=128, initial_strings=self.OPENING,
                                initial_length=1024)
        self.scripts = [random_workload(rng.randrange(1 << 30),
                                        self.OPENING + self.OPS,
                                        WorkloadWeights(), config)
                        for _ in range(self.SCRIPTS)]
        self.verbs = [[line.split(None, 1)[0] for line in script]
                      for script in self.scripts]
        self.turn = 0

    def prepare(self, rec):
        self.expected = []
        self.final = []
        for script, verbs in zip(self.scripts, self.verbs):
            shadow = _Lines()
            result = cli.run_script(script, seed=FINGERPRINT_SEED,
                                    involution=INVOLUTION, shadow=True,
                                    out=shadow)
            rec.expect_state(result.exit_code == 0,
                             f"shadow replay exit {result.exit_code}: "
                             f"{result.error}")
            printed = iter(shadow.lines)
            self.expected.append([[next(printed, None)]
                                  if v in QUERY_VERBS else [] for v in verbs])
            rec.expect_state(next(printed, None) is None,
                             "shadow replay printed extra lines")
            self.final.append({name: o.symbols for name, o in
                               result.runner.oracle_handles.items()
                               if o.alive})

    def run_round(self, rec):
        k = self.turn % self.SCRIPTS
        self.turn += 1
        out = _Lines()
        result = rec.guard(cli.run_script, self._feed(rec, k, out),
                           seed=FINGERPRINT_SEED, involution=INVOLUTION,
                           out=out)
        rec.expect_state(result.exit_code == 0,
                         f"replay exit {result.exit_code}: {result.error}")
        self.last = k, result.runner

    def _feed(self, rec, k, out):
        # Resumed by ScriptRunner.run, whose frame holds the runner; its
        # forest's counters are read around each line.
        runner = sys._getframe(1).f_locals.get("self")
        if not isinstance(runner, cli.ScriptRunner):
            raise RuntimeError("run_script no longer feeds lines one by one")
        script, verbs, expected = \
            self.scripts[k], self.verbs[k], self.expected[k]
        rec.bind(runner.forest.stats)
        rec.setup_start()
        for line in script[:self.OPENING]:
            yield line
        rec.setup_stop()
        for n in range(self.OPENING, len(script)):
            before = len(out.lines)
            rec.start()
            yield script[n]
            rec.stop(VERB_KIND[verbs[n]])
            got = out.lines[before:]
            rec.expect(got == expected[n], script[n][:60])
            if verbs[n] in ("LCP", "LCPW") and got:
                length = got[0].split()[0]
                if length != "INF":
                    rec.lcp_length(int(length))

    def verify(self, rec):
        """The last replay's strings against the shadow oracle's."""
        k, runner = self.last
        got = {name: runner.forest.retrieve(h, 1, h.length) if h.length
               else [] for name, h in runner.handles.items() if h.alive}
        rec.expect_state(got == self.final[k], "cli_script contents")

    def mechanism(self, rec):
        return [f"script {k} lacks verb {v}"
                for k, verbs in enumerate(self.verbs)
                for v in sorted(set(VERB_KIND) - set(verbs))]


WORKLOADS = {w.name: w for w in (EditMix, LcpPlanted, Omega, CliScript)}
