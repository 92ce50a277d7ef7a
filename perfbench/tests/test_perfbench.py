"""Tests of the benchmark itself: its checkers, counters, tracing and exits.

    python3 -m pytest perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fest import Forest  # noqa: E402


def corrupt_lcp(out):
    length = out[0] + 1 if isinstance(out[0], int) else 1  # also INFINITE
    return length, out[1]


def corrupt_equal(out):
    return not out


def corrupt_retrieve(out):
    return [(out[0] + 1) % 256] + out[1:]


@pytest.mark.parametrize("workload, method, corrupt", [
    ("lcp_planted", "lcp", corrupt_lcp),
    ("edit_mix", "equal", corrupt_equal),
    ("edit_mix", "retrieve", corrupt_retrieve),
    ("omega", "lcp_omega", corrupt_lcp),
    ("omega", "equal_omega", corrupt_equal),
])
def test_a_wrong_answer_is_a_failed_op(monkeypatch, workload, method,
                                       corrupt):
    original = getattr(Forest, method)

    def wrong(self, *args):
        return corrupt(original(self, *args))

    monkeypatch.setattr(Forest, method, wrong)
    result = worker.run_workload(workload, seed=3, seconds=0, trace=False,
                                 rounds=1)
    assert result["failed"] > 1  # one per wrong answer, not one fault
    assert not result["correct"]


def test_cli_checker_compares_printed_lines(monkeypatch):
    # Answers turn wrong only after the shadow replay, so it is the check
    # of each printed line that has to catch them.
    wl = workloads.CliScript(random.Random("perfbench/cli_script/3"))
    shadow_calls = sum(verbs.count("LCP") for verbs in wl.verbs)
    original = Forest.lcp
    calls = []

    def wrong_after_shadow(self, *args):
        out = original(self, *args)
        calls.append(1)
        return corrupt_lcp(out) if len(calls) > shadow_calls else out

    monkeypatch.setattr(Forest, "lcp", wrong_after_shadow)
    result = worker.run_workload("cli_script", seed=3, seconds=0,
                                 trace=False, rounds=1)
    assert result["failed"] > 1
    assert not result["correct"]


def test_correct_runs_report_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = worker.run_workload("omega", seed=2, seconds=0, trace=trace,
                                     rounds=1)
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


def layer_counts(workload, seed):
    result = worker.run_workload(workload, seed, seconds=0, trace=True,
                                 rounds=2)
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "calls/op", "ratio")}


@pytest.mark.parametrize("workload", ["omega", "lcp_planted"])
def test_layer_counters_repeat_for_a_seed_and_differ_across_seeds(workload):
    first = layer_counts(workload, 5)
    assert layer_counts(workload, 5) == first
    assert layer_counts(workload, 6) != first


def wrapped_names():
    return [(owner, attr, getattr(owner, attr))
            for _, owners in tracing.targets() for owner, attr in owners]


def test_traced_run_restores_every_wrapped_name(monkeypatch):
    before = wrapped_names()
    with tracing.Tracer():
        assert all(getattr(o, a) is not f for o, a, f in before)
    assert all(getattr(o, a) is f for o, a, f in before)
    worker.run_workload("omega", seed=1, seconds=0, trace=True, rounds=1)
    assert all(getattr(o, a) is f for o, a, f in before)

    def broken(self, *args):
        raise RuntimeError("injected")

    monkeypatch.setattr(Forest, "rotate", broken)
    before = wrapped_names()
    result = worker.run_workload("omega", seed=1, seconds=0, trace=True,
                                 rounds=1)
    assert not result["correct"] and result["failed"] == 1
    assert all(getattr(o, a) is f for o, a, f in before)


def test_tracing_covers_the_layer_boundaries():
    names = {name for name, _ in tracing.targets()}
    for name in ("splaycore.isolate", "splaycore.descend_to_rank",
                 "splaycore.splay", "compare.exponential_search",
                 "circular.rotate_to_front", "fingerprint.geomsum",
                 "forest.lcp", "cli.run_line"):
        assert name in names
    assert not {"splaycore.pull", "splaycore.fix"} & names
    owners = dict(tracing.targets())["compare.squaring_upper_bound"]
    assert {m.__name__ for m, _ in owners} == {
        "fest.compare", "fest.forest", "fest.circular"}


def test_run_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "omega",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
