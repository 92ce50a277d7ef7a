"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  Tolerances are pinned here, not configurable.
"""

import math
import multiprocessing
import random
import subprocess
import sys
from contextlib import contextmanager

from fest import CIRCULAR, Forest, INFINITE, Order
from fest.bench import run_suite, time_make_string
from fest.cli import run_script
from fest.fingerprint import FingerprintContext
from fest.oracle import OracleForest, WorkloadConfig, WorkloadWeights, \
    random_workload
from fest import splaycore as sc


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {label}", flush=True)
        raise
    print(f"ACCEPTANCE {num} PASS: {label}", flush=True)


def standard_involution() -> dict:
    """Deterministic random pairing over the byte alphabet."""
    rng = random.Random(99)
    pool = list(range(256))
    rng.shuffle(pool)
    table = {}
    for a, b in zip(pool[0::2], pool[1::2]):
        table[a] = b
        table[b] = a
    return table


DNA = {ord("A"): ord("T"), ord("T"): ord("A"),
       ord("C"): ord("G"), ord("G"): ord("C")}


# ---------------------------------------------------------------- criterion 1

def _differential_seed(seed: int):
    lines = random_workload(seed, 100_000)
    result = run_script(lines, seed=seed, involution=standard_involution(),
                        shadow=True)
    return seed, result.exit_code, result.collisions, result.error


def test_criterion_1_differential_suite():
    with criterion(1, "10 seeds x 1e5 mixed ops match the oracle, "
                      "zero collisions"):
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(10, multiprocessing.cpu_count())) as pool:
            results = pool.map(_differential_seed, range(10))
        for seed, code, collisions, error in results:
            assert code == 0, f"seed {seed}: {error}"
            assert collisions == 0, f"seed {seed}: {collisions} collisions"


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_aggregate_audit():
    with criterion(2, "full aggregate recomputation after each of 1e4 ops"):
        config = WorkloadConfig(max_length=1024, max_circular_length=256,
                                initial_length=64)
        lines = random_workload(77, 10_000, config=config)
        from fest.cli import ScriptRunner
        runner = ScriptRunner(seed=77, involution=standard_involution(),
                              shadow=False, out=None)
        # verify_tree after every line, on every live string it names
        for line_no, line in enumerate(lines, 1):
            runner.run_line(line, line_no)
            for tok in line.split()[1:]:
                s = runner.handles.get(tok)
                if s is not None and s.alive:
                    sc.verify_tree(s.tree.root, runner.forest.ctx)
        assert runner.ops == 10_000


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_isolate_contract():
    with criterion(3, "isolate yields the exact slice at depth <= 2 "
                      "over 1e4 random ranges"):
        cfg = FingerprintContext(seed=31)
        stats = sc.TreeStats()
        rng = random.Random(31)
        checked = 0
        while checked < 10_000:
            n = rng.randint(1, 300)
            symbols = [rng.randrange(256) for _ in range(n)]
            tree = sc.Tree(sc.build_balanced(symbols, cfg))
            for _ in range(2 * min(n, 32)):  # scramble the shape
                sc.find(tree, rng.randint(1, n), cfg, stats)
            for _ in range(25):
                i = rng.randint(1, n)
                j = rng.randint(i, n)
                y = sc.isolate(tree, i, j, cfg, stats)
                depth = 0
                anc = y.parent
                while anc is not None:
                    depth += 1
                    anc = anc.parent
                assert depth <= 2, (n, i, j, depth)
                assert sc.logical_symbols(y, None) == symbols[i - 1:j]
                checked += 1
                if checked % 1000 == 0:
                    sc.verify_tree(tree.root, cfg)
                if checked >= 10_000:
                    break


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_bulk_load_shape_and_timing():
    with criterion(4, "balanced builds: height bound for n in 1..1024, "
                      "linear-time ratio at n = 2^20"):
        cfg = FingerprintContext(seed=41)
        for n in range(1, 1025):
            root = sc.build_balanced(list(range(n)), cfg)
            assert sc.tree_height(root) <= math.ceil(math.log2(n + 1)), n
        # Best of 3: the first large build of a process often runs slow.
        t1, t2 = (min(time_make_string(n, seed=41) for _ in range(3))
                  for n in (1 << 20, 1 << 21))
        ratio = t2 / t1
        assert 1.6 <= ratio <= 2.6, (t1, t2, ratio)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_lcp_probe_bound_and_restoration():
    with criterion(5, "planted-prefix lcp: squaring probes within budget, "
                      "operands restored"):
        rng = random.Random(51)
        forest = Forest(seed=51)
        for length in (4, 64, 4096):
            budget = 2 + math.ceil(math.log2(math.log2(length))) + 1
            for trial in range(12):
                shared = [rng.randrange(256) for _ in range(length)]
                pre1 = [rng.randrange(256) for _ in range(rng.randint(0, 40))]
                pre2 = [rng.randrange(256) for _ in range(rng.randint(0, 40))]
                tail1 = [1] + [rng.randrange(256)
                               for _ in range(rng.randint(0, 200))]
                tail2 = [2] + [rng.randrange(256)
                               for _ in range(rng.randint(0, 200))]
                w1 = pre1 + shared + tail1
                w2 = pre2 + shared + tail2
                s1 = forest.make_string(w1)
                s2 = forest.make_string(w2)
                got = forest.lcp(s1, len(pre1) + 1, s2, len(pre2) + 1)
                assert got == (length, Order.LESS), (length, trial, got)
                assert forest.stats.last_lcp.squaring <= budget, \
                    (length, forest.stats.last_lcp)
                assert forest.retrieve(s1, 1, len(w1)) == w1
                assert forest.retrieve(s2, 1, len(w2)) == w2
            # same-string overlapping planted prefix
            period = length // 2 + 1
            w = ([rng.randrange(256) for _ in range(period)]
                 * (length // period + 3))[:length + period + 30]
            s = forest.make_string(w)
            got = forest.lcp(s, 1, s, period + 1)
            oracle = OracleForest()
            o = oracle.make_string(w)
            assert got == oracle.lcp(o, 1, o, period + 1)
            assert forest.retrieve(s, 1, len(w)) == w


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_lazy_operation_laws():
    with criterion(6, "1e4 reversals/mappings with edits: double ops cancel, "
                      "reverse+map is oracle reverse-complement"):
        forest = Forest(seed=61, involution=DNA)
        oracle = OracleForest(involution=DNA)
        rng = random.Random(61)
        bases = [ord(c) for c in "ACGT"]
        w = [rng.choice(bases) for _ in range(120)]
        s = forest.make_string(w)
        o = oracle.make_string(w)
        ops = 0
        while ops < 10_000:
            n = s.length
            r = rng.random()
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            if r < 0.30:
                forest.reverse(s, i, j)
                oracle.reverse(o, i, j)
                ops += 1
            elif r < 0.60:
                forest.map(s, i, j)
                oracle.map(o, i, j)
                ops += 1
            elif r < 0.70:
                # double application cancels: content identical afterwards
                op = forest.reverse if rng.random() < 0.5 else forest.map
                before = forest.retrieve(s, 1, n)
                op(s, i, j)
                op(s, i, j)
                assert forest.retrieve(s, 1, n) == before
                ops += 2
            elif r < 0.80:
                # reverse + map == reverse complementation, per the oracle
                forest.reverse(s, i, j)
                forest.map(s, i, j)
                oracle.reverse(o, i, j)
                oracle.map(o, i, j)
                ops += 2
            elif r < 0.90 and n < 400:
                c = rng.choice(bases)
                pos = rng.randint(1, n + 1)
                forest.insert(s, pos, c)
                oracle.insert(o, pos, c)
                ops += 1
            else:
                c = rng.choice(bases)
                forest.substitute(s, i, c)
                oracle.substitute(o, i, c)
                ops += 1
            assert forest.retrieve(s, 1, s.length) == o.symbols


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_omega_algebra():
    with criterion(7, "geomsum against naive oracles; omega queries "
                      "match expansion on 1e4 instances"):
        ctx = FingerprintContext(seed=71)
        rng = random.Random(71)
        p = ctx.modulus
        for _ in range(100):
            d = rng.randrange(p)
            k = rng.randrange(0, 10_001)
            total, term = 0, 1
            for _ in range(k + 1):
                total = (total + term) % p
                term = term * d % p
            assert ctx.geomsum(d, k) == total
        for _ in range(300):
            u = [rng.randrange(256) for _ in range(rng.randint(1, 16))]
            k = rng.randint(1, 256)
            ctx.reserve(len(u))
            geo = ctx.geomsum(ctx.pw[len(u)], k - 1)
            assert ctx.eval(u) * geo % p == ctx.eval(u * k)

        forest = Forest(seed=72)
        oracle = OracleForest()
        checked = 0
        infinite_seen = 0
        while checked < 10_000:
            w1 = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.25:
                w2 = list(w1) * rng.randint(1, 2)  # force shared omega words
                k = rng.randrange(len(w2))
                w2 = w2[k:] + w2[:k]
            else:
                w2 = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
            s1 = forest.make_string(w1, mode=CIRCULAR)
            s2 = forest.make_string(w2, mode=CIRCULAR)
            o1 = oracle.make_string(w1, mode=CIRCULAR)
            o2 = oracle.make_string(w2, mode=CIRCULAR)
            i1 = rng.randint(1, len(w1))
            i2 = rng.randint(1, len(w2))
            l = rng.randint(0, 3 * (len(w1) + len(w2)))
            l1 = rng.randint(1, 10)
            l2 = rng.randint(1, 10)
            assert forest.equal_omega(s1, i1, s2, i2, l) == \
                oracle.equal_omega(o1, i1, o2, i2, l)
            assert forest.equal_omega_omega(s1, i1, l1, s2, i2, l2) == \
                oracle.equal_omega_omega(o1, i1, l1, o2, i2, l2)
            got = forest.lcp_omega(s1, i1, s2, i2)
            want = oracle.lcp_omega(o1, i1, o2, i2)
            assert got == want
            if got[0] is INFINITE:
                infinite_seen += 1
            checked += 3
        assert infinite_seen > 50  # the workload must hit infinite cases


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_amortized_trend():
    with criterion(8, "rotations/op ratio <= 1.35 between size doublings "
                      "(2^10..2^16)"):
        rows = run_suite([1 << k for k in range(10, 17)], seed=81)
        for a, b in zip(rows, rows[1:]):
            ratio = b.rotations_per_op / a.rotations_per_op
            assert ratio <= 1.35, (a.n, b.n, ratio)


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_cli_conformance(tmp_path):
    with criterion(9, "CLI reproduces the splice scenario; shadow mode "
                      "exits 0 on the differential corpus"):
        script = tmp_path / "scenario.fest"
        script.write_text("MAKE s mississippi\n"
                          "EXTRACT s 9 11 t\n"
                          "INTRO s 1 t\n"
                          "RETRIEVE s 1 11\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fest.cli", "--shadow-oracle",
             str(script)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ppimississi\n"

        # the same engine the differential corpus runs through, via the CLI
        corpus = tmp_path / "corpus.fest"
        corpus.write_text(
            "\n".join(random_workload(91, 20_000,
                                      WorkloadWeights(map=0.0))) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fest.cli", "--shadow-oracle", "--seed",
             "91", str(corpus)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
