"""Brute-force reference implementation and random workload generator.

OracleForest mirrors the public Forest API on plain symbol lists, with
symbol-by-symbol comparisons and no hashing, so its query answers are exact
ground truth.  Every operation costs O(n) by design.  The error taxonomy is
identical to the real API.

random_workload emits deterministic, replayable scripts in the line-oriented
command grammar understood by the CLI, over-weighting boundary indices where
off-by-one bugs live.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .circular import INFINITE
from .compare import Order, order_of
from .errors import DomainError, HandleError, RangeError, UsageError
from .fingerprint import validate_involution
from .forest import CIRCULAR, LINEAR, MAX_SYMBOL


class OracleString:
    """Plain symbol-array string; canonical order, no rotation state."""

    __slots__ = ("id", "mode", "symbols", "alive")

    def __init__(self, id: int, mode: str, symbols: list[int]):
        self.id = id
        self.mode = mode
        self.symbols = symbols
        self.alive = True

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __repr__(self):
        state = "" if self.alive else " destroyed"
        return f"<OracleString #{self.id} {self.mode} n={len(self.symbols)}{state}>"


def _as_symbols(w) -> list[int]:
    syms = [ord(c) for c in w] if isinstance(w, str) else list(w)
    for c in syms:
        if not isinstance(c, int) or not 0 <= c < MAX_SYMBOL:
            raise DomainError(f"symbol {c!r} outside [0, 2^32)")
    return syms


class OracleForest:
    """Reference semantics for every public operation, on plain arrays."""

    def __init__(self, involution=None):
        self.fmap = None if involution is None else \
            validate_involution(involution)
        self._strings: dict[int, OracleString] = {}
        self._next_id = 0

    def _register(self, symbols, mode) -> OracleString:
        s = OracleString(self._next_id, mode, symbols)
        self._next_id += 1
        self._strings[s.id] = s
        return s

    def _destroy(self, s) -> None:
        del self._strings[s.id]
        s.alive = False
        s.symbols = []

    def _check(self, s) -> None:
        if not isinstance(s, OracleString) or not s.alive \
                or self._strings.get(s.id) is not s:
            raise HandleError(f"stale or foreign handle {s!r}")

    # ------------------------------------------------------------- helpers

    def _point(self, s, i) -> int:
        if not 1 <= i <= len(s.symbols):
            raise RangeError(f"position {i} outside [1, {len(s.symbols)}]")
        return i - 1

    def _range_indices(self, s, i, j) -> list[int]:
        """0-based positions of the range i..j (wrapped when circular i > j)."""
        n = len(s.symbols)
        if s.mode == LINEAR:
            if not 1 <= i <= j <= n:
                raise RangeError(f"range [{i}, {j}] outside [1, {n}]")
            return list(range(i - 1, j))
        if not (1 <= i <= n and 1 <= j <= n):
            raise RangeError(f"range [{i}, {j}] outside [1, {n}]")
        if i <= j:
            return list(range(i - 1, j))
        return list(range(i - 1, n)) + list(range(0, j))

    def _take(self, s, i, l) -> list[int]:
        """Symbols of the length-l range starting at i (wrap if circular)."""
        n = len(s.symbols)
        if s.mode == LINEAR:
            if not (1 <= i and i + l - 1 <= n):
                raise RangeError(f"range [{i}, {i + l - 1}] outside [1, {n}]")
            return s.symbols[i - 1:i - 1 + l]
        if not 1 <= i <= n:
            raise RangeError(f"position {i} outside [1, {n}]")
        if l > n:
            raise RangeError(f"range length {l} exceeds circle size {n}")
        return [s.symbols[(i - 1 + t) % n] for t in range(l)]

    def _omega_prefix(self, s, i, l) -> list[int]:
        n = len(s.symbols)
        return [s.symbols[(i - 1 + t) % n] for t in range(l)]

    # ------------------------------------------------------------- surface

    def make_string(self, w, mode: str = LINEAR) -> OracleString:
        if mode not in (LINEAR, CIRCULAR):
            raise UsageError(f"unknown mode {mode!r}")
        return self._register(_as_symbols(w), mode)

    def access(self, s, i) -> int:
        self._check(s)
        return s.symbols[self._point(s, i)]

    def retrieve(self, s, i, j) -> list[int]:
        self._check(s)
        if s.mode == LINEAR and i == j + 1 and 1 <= i <= len(s.symbols) + 1:
            return []
        return [s.symbols[k] for k in self._range_indices(s, i, j)]

    def substitute(self, s, i, c) -> None:
        self._check(s)
        (c,) = _as_symbols([c])
        s.symbols[self._point(s, i)] = c

    def insert(self, s, i, c) -> None:
        self._check(s)
        (c,) = _as_symbols([c])
        if not 1 <= i <= len(s.symbols) + 1:
            raise RangeError(
                f"insert position {i} outside [1, {len(s.symbols) + 1}]")
        s.symbols.insert(i - 1, c)

    def delete(self, s, i) -> None:
        self._check(s)
        del s.symbols[self._point(s, i)]

    def introduce(self, s1, i, s2) -> None:
        self._check(s1)
        self._check(s2)
        if s1 is s2:
            raise UsageError("cannot introduce a string into itself")
        if not 1 <= i <= len(s1.symbols) + 1:
            raise RangeError(
                f"introduce position {i} outside [1, {len(s1.symbols) + 1}]")
        s1.symbols[i - 1:i - 1] = s2.symbols
        self._destroy(s2)

    def drop(self, s) -> None:
        self._check(s)
        self._destroy(s)

    def extract(self, s, i, j) -> OracleString:
        self._check(s)
        idxs = self._range_indices(s, i, j)
        piece = [s.symbols[k] for k in idxs]
        drop = set(idxs)
        if s.mode == CIRCULAR and i > j:
            # Wrapped extraction: the remainder restarts after the range.
            s.symbols = s.symbols[j:i - 1]
        else:
            s.symbols = [c for k, c in enumerate(s.symbols) if k not in drop]
        return self._register(piece, LINEAR)

    def equal(self, s1, i1, s2, i2, l) -> bool:
        self._check(s1)
        self._check(s2)
        if l < 0:
            raise RangeError("negative length")
        if l == 0:
            return True
        return self._take(s1, i1, l) == self._take(s2, i2, l)

    def lcp(self, s1, i1, s2, i2) -> tuple[int, Order]:
        self._check(s1)
        self._check(s2)
        a = s1.symbols[self._point(s1, i1):]
        b = s2.symbols[self._point(s2, i2):]
        m = min(len(a), len(b))
        l = 0
        while l < m and a[l] == b[l]:
            l += 1
        if l < m:
            return l, order_of(a[l], b[l])
        if len(a) == len(b):
            return l, Order.EQUAL
        return l, Order.LESS if len(a) < len(b) else Order.GREATER

    def reverse(self, s, i, j) -> None:
        self._check(s)
        idxs = self._range_indices(s, i, j)
        vals = [s.symbols[k] for k in reversed(idxs)]
        for k, v in zip(idxs, vals):
            s.symbols[k] = v

    def map(self, s, i, j) -> None:
        self._check(s)
        if self.fmap is None:
            raise UsageError("no involution configured")
        f = self.fmap
        for k in self._range_indices(s, i, j):
            c = s.symbols[k]
            s.symbols[k] = f.get(c, c)

    def rotate(self, s, i) -> None:
        """Canonical content is rotation-invariant, so this is a no-op."""
        self._check(s)
        if s.mode != CIRCULAR:
            raise UsageError(f"{s!r} is not circular")
        if not 1 <= i <= len(s.symbols):
            raise RangeError(
                f"rotation point {i} outside [1, {len(s.symbols)}]")

    # --------------------------------------------------- unrolled queries

    def _require_circular(self, s):
        if s.mode != CIRCULAR:
            raise UsageError(f"{s!r} is not circular")

    def equal_omega(self, s1, i1, s2, i2, l) -> bool:
        self._check(s1)
        self._check(s2)
        self._require_circular(s1)
        self._require_circular(s2)
        self._point(s1, i1)
        self._point(s2, i2)
        if l < 0:
            raise RangeError("negative length")
        l = min(l, len(s1.symbols) + len(s2.symbols))
        return self._omega_prefix(s1, i1, l) == self._omega_prefix(s2, i2, l)

    def equal_omega_omega(self, s1, i1, l1, s2, i2, l2) -> bool:
        self._check(s1)
        self._check(s2)
        self._require_circular(s1)
        self._require_circular(s2)
        self._point(s1, i1)
        self._point(s2, i2)
        if l1 < 1 or l2 < 1:
            raise RangeError("window lengths must be at least 1")
        need = l1 + l2 - math.gcd(l1, l2)
        n1 = len(s1.symbols)
        n2 = len(s2.symbols)
        for t in range(need):
            a = s1.symbols[(i1 - 1 + (t % l1)) % n1]
            b = s2.symbols[(i2 - 1 + (t % l2)) % n2]
            if a != b:
                return False
        return True

    def lcp_omega(self, s1, i1, s2, i2):
        self._check(s1)
        self._check(s2)
        self._require_circular(s1)
        self._require_circular(s2)
        self._point(s1, i1)
        self._point(s2, i2)
        cap = len(s1.symbols) + len(s2.symbols)
        a = self._omega_prefix(s1, i1, cap + 1)
        b = self._omega_prefix(s2, i2, cap + 1)
        l = 0
        while l < cap and a[l] == b[l]:
            l += 1
        if l == cap:
            return INFINITE, Order.EQUAL
        return l, order_of(a[l], b[l])


# ------------------------------------------------------------- workloads

@dataclass
class WorkloadWeights:
    """Relative frequencies of each operation kind in a random script."""

    make: float = 3.0
    make_circular: float = 1.5
    access: float = 10.0
    retrieve: float = 6.0
    substitute: float = 9.0
    insert: float = 9.0
    delete: float = 9.0
    introduce: float = 2.0
    extract: float = 4.0
    equal: float = 8.0
    lcp: float = 5.0
    reverse: float = 5.0
    map: float = 4.0
    rotate: float = 2.5
    equal_omega: float = 2.0
    equal_omega_omega: float = 1.0
    lcp_omega: float = 1.5


@dataclass
class WorkloadConfig:
    """Shape knobs for random scripts."""

    alphabet: int = 256
    max_length: int = 10_000
    max_circular_length: int = 512
    max_strings: int = 32
    initial_strings: int = 6
    initial_length: int = 48
    boundary_bias: float = 0.2
    retrieve_span: int = 48


@dataclass
class _Mirror:
    name: str
    length: int
    mode: str


def random_workload(seed: int, op_count: int,
                    weights: WorkloadWeights | None = None,
                    config: WorkloadConfig | None = None) -> list[str]:
    """Deterministic script of op_count commands, replayable by the CLI.

    Generation tracks only lengths, modes, and liveness, so it is cheap; the
    indices it draws are always valid, with boundary values over-weighted
    (roughly one draw in five picks an extreme index).
    """
    weights = weights or WorkloadWeights()
    config = config or WorkloadConfig()
    rng = random.Random(seed)
    lines: list[str] = []
    live: list[_Mirror] = []
    counter = 0

    def idx(lo, hi):
        if hi < lo:
            raise ValueError("empty index range")
        if rng.random() < config.boundary_bias:
            return rng.choice([lo, hi, min(lo + 1, hi), max(hi - 1, lo)])
        return rng.randint(lo, hi)

    def fresh_name():
        nonlocal counter
        counter += 1
        return f"s{counter}"

    def emit_make(mode):
        cap = config.max_circular_length if mode == CIRCULAR \
            else config.initial_length * 2
        n = idx(1, max(1, min(cap, config.initial_length)))
        codes = [rng.randrange(config.alphabet) for _ in range(n)]
        name = fresh_name()
        verb = "MAKECN" if mode == CIRCULAR else "MAKEN"
        lines.append(f"{verb} {name} {n} " + " ".join(map(str, codes)))
        live.append(_Mirror(name, n, mode))

    def cap_of(s):
        return config.max_circular_length if s.mode == CIRCULAR \
            else config.max_length

    def pair_positions(s):
        """(i, j) for a range op; circular strings may wrap."""
        if s.mode == CIRCULAR:
            return idx(1, s.length), idx(1, s.length)
        i = idx(1, s.length)
        j = idx(i, min(s.length, i + config.retrieve_span))
        return i, j

    def range_len(s, i, j):
        if s.mode == LINEAR or i <= j:
            return j - i + 1
        return s.length - i + 1 + j

    for _ in range(max(0, config.initial_strings)):
        if len(live) < config.max_strings:
            emit_make(CIRCULAR if rng.random() < 0.25 else LINEAR)

    kind_weights = [(k, getattr(weights, k)) for k in vars(weights)
                    if getattr(weights, k) > 0]
    needs_circular = {"rotate", "equal_omega", "equal_omega_omega",
                      "lcp_omega"}

    while len(lines) < op_count:
        nonempty = [s for s in live if s.length > 0]
        circ = [s for s in nonempty if s.mode == CIRCULAR]
        insertable = [s for s in live if s.length < cap_of(s)]
        can_make = len(live) < config.max_strings
        candidates = []
        for kind, w in kind_weights:
            if kind in ("make", "make_circular"):
                ok = can_make
            elif kind == "insert":
                ok = bool(insertable)
            elif kind == "introduce":
                ok = len(live) >= 2
            elif kind == "extract":
                ok = bool(nonempty) and can_make
            elif kind in needs_circular:
                ok = bool(circ)
            else:
                ok = bool(nonempty)
            if ok:
                candidates.append((kind, w))
        if not candidates:
            emit_make(LINEAR)
            continue
        total = sum(w for _, w in candidates)
        r = rng.random() * total
        kind = candidates[-1][0]
        for k, w in candidates:
            r -= w
            if r <= 0:
                kind = k
                break

        if kind == "make":
            emit_make(LINEAR)
        elif kind == "make_circular":
            emit_make(CIRCULAR)
        elif kind == "access":
            s = rng.choice(nonempty)
            lines.append(f"ACCESS {s.name} {idx(1, s.length)}")
        elif kind == "retrieve":
            s = rng.choice(nonempty)
            i, j = pair_positions(s)
            lines.append(f"RETRIEVE {s.name} {i} {j}")
        elif kind == "substitute":
            s = rng.choice(nonempty)
            lines.append(f"SUB {s.name} {idx(1, s.length)} "
                         f"{rng.randrange(config.alphabet)}")
        elif kind == "insert":
            s = rng.choice(insertable)
            lines.append(f"INS {s.name} {idx(1, s.length + 1)} "
                         f"{rng.randrange(config.alphabet)}")
            s.length += 1
        elif kind == "delete":
            s = rng.choice(nonempty)
            lines.append(f"DEL {s.name} {idx(1, s.length)}")
            s.length -= 1
        elif kind == "introduce":
            target = rng.choice(live)
            donors = [s for s in live
                      if s is not target
                      and target.length + s.length <= cap_of(target)]
            if not donors:
                continue
            donor = rng.choice(donors)
            lines.append(f"INTRO {target.name} {idx(1, target.length + 1)} "
                         f"{donor.name}")
            target.length += donor.length
            live.remove(donor)
        elif kind == "extract":
            s = rng.choice(nonempty)
            i, j = pair_positions(s)
            name = fresh_name()
            lines.append(f"EXTRACT {s.name} {i} {j} {name}")
            taken = range_len(s, i, j)
            s.length -= taken
            live.append(_Mirror(name, taken, LINEAR))
        elif kind == "equal":
            s1 = rng.choice(nonempty)
            s2 = rng.choice(nonempty) if rng.random() < 0.7 else s1
            lmax = min(s1.length, s2.length)
            l = idx(0, lmax)
            i1 = idx(1, s1.length if s1.mode == CIRCULAR
                     else s1.length - l + 1)
            i2 = idx(1, s2.length if s2.mode == CIRCULAR
                     else s2.length - l + 1)
            lines.append(f"EQUAL {s1.name} {i1} {s2.name} {i2} {l}")
        elif kind == "lcp":
            s1 = rng.choice(nonempty)
            s2 = s1 if rng.random() < 0.35 else rng.choice(nonempty)
            i1 = idx(1, s1.length)
            if s1 is s2 and rng.random() < 0.6:
                # encourage overlapping same-string suffix pairs
                i2 = min(s1.length, i1 + idx(1, max(1, s1.length // 8)))
            else:
                i2 = idx(1, s2.length)
            lines.append(f"LCP {s1.name} {i1} {s2.name} {i2}")
        elif kind == "reverse":
            s = rng.choice(nonempty)
            i, j = pair_positions(s)
            lines.append(f"REV {s.name} {i} {j}")
        elif kind == "map":
            s = rng.choice(nonempty)
            i, j = pair_positions(s)
            lines.append(f"MAP {s.name} {i} {j}")
        elif kind == "rotate":
            s = rng.choice(circ)
            lines.append(f"ROTATE {s.name} {idx(1, s.length)}")
        elif kind == "equal_omega":
            s1 = rng.choice(circ)
            s2 = rng.choice(circ) if rng.random() < 0.7 else s1
            l = idx(0, 2 * (s1.length + s2.length))
            lines.append(f"EQW {s1.name} {idx(1, s1.length)} "
                         f"{s2.name} {idx(1, s2.length)} {l}")
        elif kind == "equal_omega_omega":
            s1 = rng.choice(circ)
            s2 = rng.choice(circ) if rng.random() < 0.7 else s1
            l1 = idx(1, 2 * s1.length)
            l2 = idx(1, 2 * s2.length)
            # keep the pair compatible-ish sometimes so True answers occur
            if rng.random() < 0.4:
                l2 = l1 * rng.choice([1, 2, 3])
            lines.append(f"EQWW {s1.name} {idx(1, s1.length)} {l1} "
                         f"{s2.name} {idx(1, s2.length)} {l2}")
        elif kind == "lcp_omega":
            s1 = rng.choice(circ)
            s2 = rng.choice(circ) if rng.random() < 0.7 else s1
            lines.append(f"LCPW {s1.name} {idx(1, s1.length)} "
                         f"{s2.name} {idx(1, s2.length)}")
    return lines[:op_count]
