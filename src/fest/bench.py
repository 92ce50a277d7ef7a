"""Benchmark harness for amortized-cost trends at desk scale.

For each size n it runs a fixed random mixed workload of 10*n operations on
one string of length about n and reports exact instrumentation counters
(rotations, fixes, probe counts) plus wall time.  Counters are deterministic
given the seed; wall time is reported but never gated, because amortized
constants are machine-dependent.

Each lcp runs on a planted pair: a block of log-uniform length is copied
out of the string into a scratch string, followed by one symbol that
differs from the original's next symbol, so the lcp is exactly the block
length.  Blocks reach 4096 symbols, far past the exact read of the first
`compare.READ_WIDTH`, so the squaring and search phases run.  The scratch
string is dropped after the query.  The plant and the drop are left out of
the row's counters and time, so a row counts the lcp's own work and the
ops on the string, whose cost depends on n; the plant's depends only on
the block length.

`--json FILE` also writes the rows, exact counters and time per op, as
JSON for a benchmark ledger.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import random
import sys
import time
from dataclasses import dataclass

from .forest import Forest


@dataclass
class BenchRow:
    n: int
    ops: int
    rotations_per_op: float
    fixes_per_op: float
    time_us_per_op: float
    lcp_calls: int
    lcp_probes_mean: float
    lcp_probes_max: int


def run_row(n: int, seed: int, ops_factor: int = 10) -> BenchRow:
    """One workload row: mixed point ops, equality probes, reversals, lcps."""
    forest = Forest(seed=seed)
    rng = random.Random(seed * 1_000_003 + n)
    s = forest.make_string([rng.randrange(256) for _ in range(n)])
    ops = ops_factor * n
    stats = forest.stats
    rot0 = stats.rotations
    fix0 = stats.fixes
    plant_rot = plant_fix = 0  # setup and cleanup of the planted lcps
    plant_s = 0.0
    probe_totals = []
    lo, hi = n // 2 + 1, 2 * n  # keep the length near n
    t0 = time.perf_counter()
    for _ in range(ops):
        r = rng.random()
        size = s.length
        if r < 0.35:
            forest.access(s, rng.randint(1, size))
        elif r < 0.60:
            forest.substitute(s, rng.randint(1, size), rng.randrange(256))
        elif r < 0.70:
            if size < hi:
                forest.insert(s, rng.randint(1, size + 1), rng.randrange(256))
            else:
                forest.delete(s, rng.randint(1, size))
        elif r < 0.80:
            if size > lo:
                forest.delete(s, rng.randint(1, size))
            else:
                forest.insert(s, rng.randint(1, size + 1), rng.randrange(256))
        elif r < 0.90:
            l = rng.randint(0, min(64, size))
            forest.equal(s, rng.randint(1, size - l + 1), s,
                         rng.randint(1, size - l + 1), l)
        elif r < 0.96:
            i, j = sorted((rng.randint(1, size), rng.randint(1, size)))
            forest.reverse(s, i, j)
        else:
            t1 = time.perf_counter()
            r1, f1 = stats.rotations, stats.fixes
            i, copy = _plant(forest, s, rng)
            t2 = time.perf_counter()
            r2, f2 = stats.rotations, stats.fixes
            forest.lcp(s, i, copy, 1)
            probe_totals.append(stats.last_lcp.total)
            t3 = time.perf_counter()
            forest.drop(copy)
            plant_rot += r2 - r1
            plant_fix += f2 - f1
            plant_s += t2 - t1 + time.perf_counter() - t3
    elapsed = time.perf_counter() - t0
    return BenchRow(
        n=n,
        ops=ops,
        rotations_per_op=(stats.rotations - rot0 - plant_rot) / ops,
        fixes_per_op=(stats.fixes - fix0 - plant_fix) / ops,
        time_us_per_op=(elapsed - plant_s) / ops * 1e6,
        lcp_calls=len(probe_totals),
        lcp_probes_mean=(sum(probe_totals) / len(probe_totals)
                         if probe_totals else 0.0),
        lcp_probes_max=max(probe_totals, default=0),
    )


def _plant(forest, s, rng):
    """A new string `copy` holding s[i..i+L-1] plus a differing symbol.

    L is drawn log-uniformly from [1, min(|s| - 1, 4096)]: an octave, then
    a length within it.  Returns (i, copy); lcp(s, i, copy, 1) is exactly L.
    """
    upper = min(s.length - 1, 4096)
    octave = rng.randrange(upper.bit_length())
    block = rng.randint(1 << octave, min(upper, (2 << octave) - 1))
    i = rng.randint(1, s.length - block)
    symbols = forest.retrieve(s, i, i + block)
    symbols[-1] = (symbols[-1] + 1 + rng.randrange(255)) % 256
    return i, forest.make_string(symbols)


def run_suite(sizes, seed: int = 0, ops_factor: int = 10) -> list[BenchRow]:
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    return [run_row(n, seed, ops_factor) for n in sizes]


def time_make_string(n: int, seed: int = 0) -> float:
    """Seconds for one bulk build of a random length-n string (gc paused)."""
    forest = Forest(seed=seed)
    rng = random.Random(seed + n)
    symbols = [rng.randrange(256) for _ in range(n)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        forest.make_string(symbols)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def format_report(rows: list[BenchRow]) -> str:
    header = ("n\tops\trotations_per_op\tfixes_per_op\ttime_us_per_op"
              "\tlcp_calls\tlcp_probes_mean\tlcp_probes_max")
    out = [header]
    for r in rows:
        out.append(f"{r.n}\t{r.ops}\t{r.rotations_per_op:.4f}"
                   f"\t{r.fixes_per_op:.4f}\t{r.time_us_per_op:.3f}"
                   f"\t{r.lcp_calls}\t{r.lcp_probes_mean:.3f}"
                   f"\t{r.lcp_probes_max}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fest-bench",
        description="Amortized-cost trend report (tab-separated).")
    parser.add_argument("--sizes",
                        default="1024,2048,4096,8192,16384,32768,65536",
                        help="comma-separated ascending workload sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops-factor", type=int, default=10,
                        help="operations per unit of size (default 10)")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the rows to FILE as JSON")
    args = parser.parse_args(argv)
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        print("fest-bench: --sizes must be comma-separated integers",
              file=sys.stderr)
        return 1
    rows = run_suite(sizes, seed=args.seed, ops_factor=args.ops_factor)
    print(format_report(rows))
    if args.json:
        doc = {"seed": args.seed, "ops_factor": args.ops_factor,
               "rows": [dataclasses.asdict(r) for r in rows]}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
