"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh, single-threaded interpreter.  The loop is
closed: one caller issues the next op only when the previous one returned.
Each public call into fest is timed on its own, and its answer is checked
after the clock stops.

Timeline of a run, the same on every run:
  1. set-up: the workload's initial strings are built at least 3 times and
     for at least 1.5 s (cli_script: once per round), each build timed;
     setup_s is the median;
  2. gc.collect() and gc.freeze(), so the cyclic collector never rescans
     the set-up heap; the collector stays enabled for the rest of the run;
  3. one warm-up round, checked but not timed;
  4. measured rounds until --seconds have passed (at least MIN_ROUNDS, and
     in the traced run at least the workload's trace_rounds), with an
     untimed gc.collect() after each round and a full content check every
     few rounds and at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fest  # noqa: E402

if not Path(fest.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"fest imported from {fest.__file__}, not {ROOT / 'src'}")

from tracing import Tracer, fold  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

perf_counter_ns = time.perf_counter_ns

MIN_ROUNDS = 8
CLASSES = ("read", "edit", "splice", "range", "equal", "lcp")
CLASS_OF = {
    "access": "read", "retrieve": "read",
    "substitute": "edit", "insert": "edit", "delete": "edit",
    "make_string": "splice", "introduce": "splice", "extract": "splice",
    "rotate": "splice",
    "reverse": "range", "map": "range",
    "equal": "equal", "equal_omega": "equal", "equal_omega_omega": "equal",
    "lcp": "lcp", "lcp_omega": "lcp",
}
COUNTERS = ("ops", "rotations", "fixes", "finds", "equal_tests", "lcps",
            "border", "threshold", "squaring", "search")
#: Per-layer span metrics: metric prefix -> traced span names.
SPAN_GROUPS = {
    "splaycore.descend": ("splaycore.descend_to_rank",),
    "splaycore.splay": ("splaycore.splay",),
    "splaycore.isolate": ("splaycore.isolate",),
    "splaycore.join_split": ("splaycore.join", "splaycore.split"),
    "splaycore.attach_detach": ("splaycore.attach", "splaycore.detach"),
    "splaycore.inorder_symbols": ("splaycore.inorder_symbols",),
    "compare.squaring_upper_bound": ("compare.squaring_upper_bound",),
    "compare.exponential_search": ("compare.exponential_search",),
    "circular.rotate_to_front": ("circular.rotate_to_front",),
    "fingerprint.geomsum": ("fingerprint.geomsum",),
}
#: Layers whose total self time per op is reported.
LAYERS = ("splaycore", "circular", "forest", "cli")
#: Ops whose spans go verbatim into the trace file.
RAW_SPAN_OPS = 50


class Abort(Exception):
    """An op raised, so the strings may be damaged: the run stops."""


class Recorder:
    """Times ops, counts attempts and failures, and folds counters/spans."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.stats = None
        self.measuring = False
        self.counting = False
        self.samples = {c: [] for c in CLASSES}
        self.round_ns = 0
        self.round_ops = 0
        self.rates: list[float] = []
        self.setup_s: list[float] = []
        self.build_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.state_ok = True
        self.notes: list[str] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.span_calls: dict[str, int] = {}
        self.span_self_ns: dict[str, int] = {}
        self.span_ops = 0
        self.raw_spans: list = []
        self.useful = 0
        self.window_symbols = 0
        self._op_windows = 0

    def bind(self, stats) -> None:
        """Read counters from this ForestStats from now on."""
        self.stats = stats

    # ------------------------------------------------------------ one op

    def start(self) -> None:
        st = self.stats
        self._snap = (st.rotations, st.fixes, st.finds, st.equal_tests,
                      st.lcp_calls)
        if self.tracer is not None:
            self.tracer.take()
        self._t0 = perf_counter_ns()

    def stop(self, kind: str) -> None:
        dt = perf_counter_ns() - self._t0
        self.attempted += 1
        if self.measuring:
            self.samples[CLASS_OF[kind]].append(dt)
            self.round_ns += dt
            self.round_ops += 1
        if self.counting:
            self._count(kind)
        if self.tracer is not None:
            self._fold_spans(kind, self.tracer.take())

    def call(self, kind: str, fn, *args):
        """Time one public call into fest and return its answer."""
        self.start()
        try:
            out = fn(*args)
        except Exception as exc:  # the run reports the fault and stops
            self.fault(kind, exc)
        self.stop(kind)
        return out

    def _count(self, kind: str) -> None:
        st = self.stats
        r, f, n, e, l = self._snap
        c = self.counts
        c["ops"] += 1
        c["rotations"] += st.rotations - r
        c["fixes"] += st.fixes - f
        c["finds"] += st.finds - n
        c["equal_tests"] += st.equal_tests - e
        if CLASS_OF[kind] == "lcp":
            c["lcps"] += 1
            if st.lcp_calls != l:
                p = st.last_lcp
                c["border"] += p.border
                c["threshold"] += p.threshold
                c["squaring"] += p.squaring
                c["search"] += p.search

    def _fold_spans(self, kind: str, spans: list) -> None:
        agg = fold(spans)
        is_lcp = CLASS_OF[kind] == "lcp"
        self._op_windows = agg.get("splaycore.detach", (0, 0, 0))[2] \
            if is_lcp else 0
        if self.counting:
            for name, (calls, _, _) in agg.items():
                self.span_calls[name] = self.span_calls.get(name, 0) + calls
        if self.measuring:
            self.span_ops += 1
            for name, (_, self_ns, _) in agg.items():
                self.span_self_ns[name] = \
                    self.span_self_ns.get(name, 0) + self_ns
            if len(self.raw_spans) < RAW_SPAN_OPS:
                self.raw_spans.append({"op": kind, "spans": spans})

    def lcp_length(self, length: int) -> None:
        """Note a finite lcp answer, for the window fill of its op."""
        if self.counting and self._op_windows:
            self.useful += length
            self.window_symbols += self._op_windows

    # ---------------------------------------------------------- outcomes

    def expect(self, ok: bool, what: str, *detail) -> None:
        """An answer check: a wrong answer is a failed op."""
        if not ok:
            self.failed += 1
            self._note(f"wrong answer: {what} {detail}")

    def expect_state(self, ok: bool, what: str) -> None:
        """A check of whole contents or of the run itself."""
        if not ok:
            self.state_ok = False
            self._note(f"check failed: {what}")

    def fault(self, kind: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        self.state_ok = False
        self._note(f"{kind} raised:\n" + "".join(
            traceback.format_exception(exc)))
        raise Abort(kind) from exc

    def guard(self, fn, *args, **kwargs):
        """Call the benchmark's own driver of fest; a raise is a fault."""
        try:
            return fn(*args, **kwargs)
        except Abort:
            raise
        except Exception as exc:  # the run reports the fault and stops
            self.fault(getattr(fn, "__name__", "call"), exc)

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)
            print(f"perfbench: {text}", file=sys.stderr)

    # ---------------------------------------------------- rounds, set-up

    def end_round(self) -> None:
        if self.measuring and self.round_ops:
            self.rates.append(self.round_ops / (self.round_ns / 1e9))
        self.round_ns = 0
        self.round_ops = 0

    def setup_start(self) -> None:
        if self.tracer is not None:
            self.tracer.take()
        self._setup_t0 = perf_counter_ns()

    def setup_stop(self) -> None:
        self.setup_s.append((perf_counter_ns() - self._setup_t0) / 1e9)
        if self.tracer is not None:
            agg = fold(self.tracer.take())
            ns = agg.get("splaycore.build_balanced", (0, 0, 0))[1]
            self.build_s.append(ns / 1e9)


def drive(wl, rec: Recorder, seconds: float, trace: bool,
          rounds: int | None) -> int:
    """Set up, warm up, then run measured rounds; returns their number.

    With rounds given, exactly that many measured rounds run and all are
    counted.  Otherwise rounds run until `seconds` have passed; the traced
    run counts the first wl.trace_rounds of them, so its counters repeat
    exactly for a seed, and the untraced run counts them all.
    """
    wl.prepare(rec)
    gc.collect()
    gc.freeze()
    wl.run_round(rec)
    rec.end_round()
    gc.collect()
    counted = rounds if rounds is not None else \
        wl.trace_rounds if trace else None
    rec.measuring = True
    rec.counting = True
    done = 0
    deadline = time.perf_counter() + seconds
    while True:
        if done == counted:
            rec.counting = False
        if rounds is not None:
            if done == rounds:
                break
        elif done >= max(counted or 0, MIN_ROUNDS) \
                and time.perf_counter() >= deadline:
            break
        wl.run_round(rec)
        rec.end_round()
        done += 1
        gc.collect()
        if wl.verify_every and done % wl.verify_every == 0:
            wl.verify(rec)
    rec.measuring = rec.counting = False
    wl.verify(rec)
    return done


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(rec: Recorder) -> dict:
    every = sorted(v for c in CLASSES for v in rec.samples[c])
    out = {
        "ops_per_s": (statistics.median(rec.rates), "1/s"),
        "op_p50_us": (statistics.median(every) / 1e3, "us"),
        "op_p99_us": (percentile(every, 0.99) / 1e3, "us"),
    }
    for c in CLASSES:
        out[f"{c}_p50_us"] = (statistics.median(rec.samples[c]) / 1e3, "us")
    out["setup_s"] = (statistics.median(rec.setup_s), "s")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rss_peak_mib"] = (rss_kib / 1024, "MiB")
    return out


def per_layer(rec: Recorder) -> dict:
    c = rec.counts
    ops = max(c["ops"], 1)
    lcps = max(c["lcps"], 1)
    span_ops = max(rec.span_ops, 1)
    out = {
        "splaycore.rotations_per_op": (c["rotations"] / ops, "count"),
        "splaycore.fixes_per_op": (c["fixes"] / ops, "count"),
        "forest.finds_per_op": (c["finds"] / ops, "count"),
        "forest.equal_tests_per_op": (c["equal_tests"] / ops, "count"),
    }
    for probe in ("border", "threshold", "squaring", "search"):
        out[f"compare.{probe}_probes_per_lcp"] = (c[probe] / lcps, "count")
    for metric, names in SPAN_GROUPS.items():
        calls = sum(rec.span_calls.get(n, 0) for n in names)
        self_ns = sum(rec.span_self_ns.get(n, 0) for n in names)
        out[f"{metric}.calls_per_op"] = (calls / ops, "calls/op")
        out[f"{metric}.self_us_per_op"] = (self_ns / 1e3 / span_ops, "us/op")
    out["splaycore.build_balanced.s"] = (statistics.median(rec.build_s), "s")
    out["forest.window_fill"] = (
        rec.useful / rec.window_symbols if rec.window_symbols else 0.0,
        "ratio")
    for layer in LAYERS:
        self_ns = sum(ns for name, ns in rec.span_self_ns.items()
                      if name.startswith(layer + "."))
        out[f"{layer}.self_us_per_op"] = (self_ns / 1e3 / span_ops, "us/op")
    every = [v for cl in CLASSES for v in rec.samples[cl]]
    out["trace.op_p50_us"] = (statistics.median(every) / 1e3, "us")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rounds: int | None = None) -> dict:
    """One run: the result object, plus `extra` details for the log file."""
    wl = WORKLOADS[name](random.Random(f"perfbench/{name}/{seed}"))
    tracer = Tracer() if trace else None
    rec = Recorder(tracer)
    done = 0
    with tracer if tracer is not None else contextlib.nullcontext():
        try:
            done = drive(wl, rec, seconds, trace, rounds)
        except Abort:
            pass
    problems = wl.mechanism(rec)
    problems += [f"class {c} never ran" for c in CLASSES
                 if not rec.samples[c]]
    if not rec.setup_s or not rec.rates:
        problems.append("no set-up or no measured round")
    for p in problems:
        rec.expect_state(False, p)
    metrics = {}
    if not problems:
        table = per_layer(rec) if trace else end_to_end(rec)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    return {
        "correct": rec.failed == 0 and rec.state_ok,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
        "extra": {"rounds": done, "rates": rec.rates, "counts": rec.counts,
                  "samples": {c: len(v) for c, v in rec.samples.items()},
                  "notes": rec.notes, "raw_spans": rec.raw_spans},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    extra = result.pop("extra")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = extra.pop("raw_spans")
    (out_dir / f"{stem}.json").write_text(
        json.dumps({**result, **extra}, indent=1) + "\n")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(raw) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
