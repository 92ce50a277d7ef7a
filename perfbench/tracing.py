"""Spans at fest's layer boundaries, recorded by wrapping from outside.

The traced run replaces the public functions of each layer with a wrapper
that records one span (name, start, end, parent, weight) in memory.  Nothing
inside fest changes: module attributes are swapped, and so are the names that
`forest` and `circular` import from `compare`, the public `Forest` methods,
`FingerprintContext.geomsum` and `ScriptRunner.run_line`.  `pull` and `fix`
stay unwrapped because they run once per rotation (`_rotate` is private and
is never touched either).  Every wrapped name is restored on exit.

A span's self time is its duration minus the durations of its direct
children; `fold` derives it from the parent links.
"""

from __future__ import annotations

import inspect
import time

from fest import circular, cli, compare, fingerprint, forest, splaycore

#: Run once per rotation: wrapping them would measure the wrapper.
PER_ROTATION = {"pull", "fix"}


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and name not in PER_ROTATION]


def _public_methods(cls):
    return [name for name, obj in vars(cls).items()
            if inspect.isfunction(obj) and not name.startswith("_")]


def targets():
    """(span name, [(owner, attribute)...]) for every boundary traced.

    One span name may cover several owners: `forest.exponential_search` and
    `circular.exponential_search` are the same function as
    `compare.exponential_search`, reached through another module's globals.
    """
    out = []
    for module, layer in ((splaycore, "splaycore"), (circular, "circular")):
        for name in _public_functions(module):
            out.append((f"{layer}.{name}", [(module, name)]))
    for name in _public_functions(compare):
        owners = [(compare, name)]
        owners += [(m, name) for m in (forest, circular)
                   if getattr(m, name, None) is getattr(compare, name)]
        out.append((f"compare.{name}", owners))
    for name in _public_methods(forest.Forest):
        out.append((f"forest.{name}", [(forest.Forest, name)]))
    out.append(("fingerprint.geomsum",
                [(fingerprint.FingerprintContext, "geomsum")]))
    out.append(("cli.run_line", [(cli.ScriptRunner, "run_line")]))
    return out


def _detached_size(args):
    """Span weight of `detach`: the symbols it moves out of its tree, which
    inside an lcp are the symbols moved into a window."""
    return args[0].size


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list = []
        self.current = -1
        self._saved: list = []

    def __enter__(self):
        try:
            for name, owners in targets():
                owner0, attr0 = owners[0]
                original = getattr(owner0, attr0)
                weigh = _detached_size if name == "splaycore.detach" \
                    else None
                traced = self._wrap(name, original, weigh)
                for owner, attr in owners:
                    self._saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, traced)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def take(self) -> list:
        """Hand over the spans recorded since the last call."""
        spans = self.spans
        self.spans = []
        self.current = -1
        return spans

    def _wrap(self, name, fn, weigh):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            parent = tracer.current
            spans.append(None)
            tracer.current = idx
            weight = weigh(args) if weigh is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.current = parent
                spans[idx] = (name, t0, t1, parent, weight)

        traced.__wrapped__ = fn
        return traced


def fold(spans) -> dict:
    """name -> [calls, self ns, weight] over a list of closed spans."""
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict = {}
    for k, (name, t0, t1, _, weight) in enumerate(spans):
        agg = out.get(name)
        if agg is None:
            agg = out[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += t1 - t0 - child_ns[k]
        agg[2] += weight
    return out
