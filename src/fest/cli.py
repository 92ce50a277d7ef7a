"""Line-oriented command tool for replaying operation scripts.

One command per line, whitespace-separated:

    MAKE id literal          MAKEC id literal        (circular)
    MAKEN id n c1 .. cn      MAKECN id n c1 .. cn    (numeric codes)
    ACCESS id i              RETRIEVE id i j
    SUB id i c               INS id i c              DEL id i
    INTRO id1 i id2          EXTRACT id i j newid
    EQUAL id1 i1 id2 i2 l    LCP id1 i1 id2 i2
    REV id i j               MAP id i j              ROTATE id i
    EQW id1 i1 id2 i2 l      EQWW id1 i1 l1 id2 i2 l2
    LCPW id1 i1 id2 i2

Queries print exactly one line; mutations print nothing.  Character
arguments (SUB/INS) are a decimal code, or a single non-digit character.
Blank lines and lines starting with '#' are ignored.

With --shadow-oracle every command also runs against the exact reference
implementation; any divergence aborts with a report of the failing line and
both states.  Exit codes: 0 ok, 1 parse error, 2 runtime error, 3 shadow
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .circular import INFINITE
from .errors import FestError
from .forest import CIRCULAR, LINEAR, Forest
from .oracle import OracleForest
from .splaycore import validate_involution


class ScriptError(Exception):
    """Malformed script line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ShadowDivergence(Exception):
    """The real implementation and the oracle disagreed."""

    def __init__(self, line_no: int, report: str, collision: bool = False):
        super().__init__(f"line {line_no}: {report}")
        self.line_no = line_no
        self.collision = collision


def render_symbols(codes: list[int]) -> str:
    """Printable text when every code is a printable scalar, else '# codes'."""
    if all(32 <= c <= 0x10FFFF and c != 127 and not 0xD800 <= c <= 0xDFFF
           for c in codes):
        return "".join(chr(c) for c in codes)
    return "# " + " ".join(str(c) for c in codes)


def parse_involution_file(path: str) -> dict:
    """Read 'codeA codeB' pairs, one per line; '#' starts a comment."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ScriptError(line_no, f"expected two codes, got {raw!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ScriptError(line_no, f"non-numeric code in {raw!r}")
            if table.get(a, b) != b or table.get(b, a) != a:
                raise ScriptError(line_no, f"conflicting pair {a} {b}")
            table[a] = b
            table[b] = a
    return validate_involution(table)


def _int(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ScriptError(line_no, f"expected integer, got {tok!r}")


def _char(tok: str, line_no: int) -> int:
    if tok.isdigit():
        return int(tok)
    if len(tok) == 1:
        return ord(tok)
    raise ScriptError(line_no, f"expected symbol code or character, got {tok!r}")


_ARITY = {
    "MAKE": 2, "MAKEC": 2, "ACCESS": 2, "RETRIEVE": 3, "SUB": 3, "INS": 3,
    "DEL": 2, "INTRO": 3, "EXTRACT": 4, "EQUAL": 5, "LCP": 4, "REV": 3,
    "MAP": 3, "ROTATE": 2, "EQW": 5, "EQWW": 6, "LCPW": 4,
}

_MUTATORS = {"MAKE", "MAKEC", "MAKEN", "MAKECN", "SUB", "INS", "DEL",
             "INTRO", "EXTRACT", "REV", "MAP", "ROTATE"}

#: Queries that internally restructure and must restore their operands.
_RESTORING = {"LCP", "LCPW", "EQW", "EQWW"}


class ScriptRunner:
    """Executes script lines against a Forest, optionally shadowed."""

    def __init__(self, seed: int | None = None, involution=None,
                 shadow: bool = False,
                 check_full: bool = True, out=None):
        self.forest = Forest(seed=seed, involution=involution)
        self.oracle = OracleForest(involution=involution) if shadow else None
        self.check_full = check_full
        self.out = out
        self.handles = {}
        self.oracle_handles = {}
        self.collisions = 0
        self.ops = 0

    # ------------------------------------------------------------ plumbing

    def _emit(self, text: str) -> None:
        if self.out is not None:
            self.out.write(text + "\n")

    def _handle(self, name: str, line_no: int):
        try:
            return self.handles[name]
        except KeyError:
            raise ScriptError(line_no, f"unknown string id {name!r}")

    def _both(self, name: str, line_no: int):
        return self._handle(name, line_no), self.oracle_handles[name]

    def _full(self, s) -> list[int]:
        n = s.length
        return self.forest.retrieve(s, 1, n) if n else []

    def _check_contents(self, names, line_no: int, line: str) -> None:
        if self.oracle is None or not self.check_full:
            return
        for name in names:
            s = self.handles.get(name)
            o = self.oracle_handles.get(name)
            if s is None or not s.alive:
                continue
            got = self._full(s)
            want = o.symbols
            if got != want:
                raise ShadowDivergence(line_no, self._report(
                    line, name, got, want))

    def _report(self, line, name, got, want) -> str:
        return (f"content divergence after {line!r} on {name!r}\n"
                f"  forest: {got}\n"
                f"  oracle: {want}")

    def _compare(self, line, line_no, got, want, one_sided: bool = False):
        if got != want:
            collision = one_sided and bool(got) and not want
            if collision:
                self.collisions += 1
            raise ShadowDivergence(
                line_no,
                f"result divergence on {line!r}: forest={got!r} "
                f"oracle={want!r}" + (" (fingerprint collision)"
                                      if collision else ""),
                collision=collision)

    # ------------------------------------------------------------- running

    def run(self, lines) -> None:
        for line_no, raw in enumerate(lines, 1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.run_line(stripped, line_no)

    def run_line(self, line: str, line_no: int) -> None:
        toks = line.split()
        verb = toks[0].upper()
        args = toks[1:]
        if verb in ("MAKEN", "MAKECN"):
            if len(args) < 2:
                raise ScriptError(line_no, f"{verb} needs an id and a count")
            count = _int(args[1], line_no)
            if len(args) != 2 + count:
                raise ScriptError(
                    line_no, f"{verb} {args[0]}: expected {count} codes, "
                    f"got {len(args) - 2}")
        elif verb in _ARITY:
            if len(args) != _ARITY[verb]:
                raise ScriptError(
                    line_no,
                    f"{verb} takes {_ARITY[verb]} arguments, got {len(args)}")
        else:
            raise ScriptError(line_no, f"unknown command {verb!r}")
        self.ops += 1
        self._dispatch(verb, args, line, line_no)
        if verb in _MUTATORS or verb in _RESTORING:
            self._check_contents(self._touched(verb, args), line_no, line)

    def _touched(self, verb, args) -> list[str]:
        if verb in ("MAKE", "MAKEC", "MAKEN", "MAKECN", "ACCESS", "RETRIEVE",
                    "SUB", "INS", "DEL", "REV", "MAP", "ROTATE"):
            return [args[0]]
        if verb == "INTRO":
            return [args[0]]
        if verb == "EXTRACT":
            return [args[0], args[3]]
        if verb in ("EQUAL", "LCP"):
            return [args[0], args[2]]
        if verb == "EQW":
            return [args[0], args[2]]
        if verb == "EQWW":
            return [args[0], args[3]]
        if verb == "LCPW":
            return [args[0], args[2]]
        return []

    def _make(self, name, symbols, mode, line_no):
        if name in self.handles:
            raise ScriptError(line_no, f"string id {name!r} already exists")
        self.handles[name] = self.forest.make_string(symbols, mode)
        if self.oracle is not None:
            self.oracle_handles[name] = self.oracle.make_string(symbols, mode)

    def _dispatch(self, verb, args, line, line_no) -> None:
        fo = self.forest
        oc = self.oracle
        if verb in ("MAKE", "MAKEC"):
            self._make(args[0], args[1],
                       CIRCULAR if verb == "MAKEC" else LINEAR, line_no)
            return
        if verb in ("MAKEN", "MAKECN"):
            codes = [_int(t, line_no) for t in args[2:]]
            self._make(args[0], codes,
                       CIRCULAR if verb == "MAKECN" else LINEAR, line_no)
            return

        name = args[0]
        s = self._handle(name, line_no)
        o = self.oracle_handles.get(name) if oc is not None else None

        if verb == "ACCESS":
            i = _int(args[1], line_no)
            got = fo.access(s, i)
            if oc is not None:
                self._compare(line, line_no, got, oc.access(o, i))
            self._emit(render_symbols([got]))
        elif verb == "RETRIEVE":
            i, j = _int(args[1], line_no), _int(args[2], line_no)
            got = fo.retrieve(s, i, j)
            if oc is not None:
                self._compare(line, line_no, got, oc.retrieve(o, i, j))
            self._emit(render_symbols(got))
        elif verb == "SUB":
            i, c = _int(args[1], line_no), _char(args[2], line_no)
            fo.substitute(s, i, c)
            if oc is not None:
                oc.substitute(o, i, c)
        elif verb == "INS":
            i, c = _int(args[1], line_no), _char(args[2], line_no)
            fo.insert(s, i, c)
            if oc is not None:
                oc.insert(o, i, c)
        elif verb == "DEL":
            i = _int(args[1], line_no)
            fo.delete(s, i)
            if oc is not None:
                oc.delete(o, i)
        elif verb == "INTRO":
            i = _int(args[1], line_no)
            s2 = self._handle(args[2], line_no)
            fo.introduce(s, i, s2)
            if oc is not None:
                oc.introduce(o, i, self.oracle_handles[args[2]])
        elif verb == "EXTRACT":
            i, j = _int(args[1], line_no), _int(args[2], line_no)
            newname = args[3]
            if newname in self.handles:
                raise ScriptError(line_no,
                                  f"string id {newname!r} already exists")
            self.handles[newname] = fo.extract(s, i, j)
            if oc is not None:
                self.oracle_handles[newname] = oc.extract(o, i, j)
        elif verb == "EQUAL":
            i1 = _int(args[1], line_no)
            s2, i2 = self._handle(args[2], line_no), _int(args[3], line_no)
            l = _int(args[4], line_no)
            got = fo.equal(s, i1, s2, i2, l)
            if oc is not None:
                want = oc.equal(o, i1, self.oracle_handles[args[2]], i2, l)
                self._compare(line, line_no, got, want, one_sided=True)
            self._emit("TRUE" if got else "FALSE")
        elif verb == "LCP":
            i1 = _int(args[1], line_no)
            s2, i2 = self._handle(args[2], line_no), _int(args[3], line_no)
            got = fo.lcp(s, i1, s2, i2)
            if oc is not None:
                want = oc.lcp(o, i1, self.oracle_handles[args[2]], i2)
                self._compare(line, line_no, got, want)
            self._emit(f"{got[0]} {got[1].value}")
        elif verb == "REV":
            i, j = _int(args[1], line_no), _int(args[2], line_no)
            fo.reverse(s, i, j)
            if oc is not None:
                oc.reverse(o, i, j)
        elif verb == "MAP":
            i, j = _int(args[1], line_no), _int(args[2], line_no)
            fo.map(s, i, j)
            if oc is not None:
                oc.map(o, i, j)
        elif verb == "ROTATE":
            i = _int(args[1], line_no)
            fo.rotate(s, i)
            if oc is not None:
                oc.rotate(o, i)
        elif verb == "EQW":
            i1 = _int(args[1], line_no)
            s2, i2 = self._handle(args[2], line_no), _int(args[3], line_no)
            l = _int(args[4], line_no)
            got = fo.equal_omega(s, i1, s2, i2, l)
            if oc is not None:
                want = oc.equal_omega(o, i1, self.oracle_handles[args[2]],
                                      i2, l)
                self._compare(line, line_no, got, want, one_sided=True)
            self._emit("TRUE" if got else "FALSE")
        elif verb == "EQWW":
            i1, l1 = _int(args[1], line_no), _int(args[2], line_no)
            s2 = self._handle(args[3], line_no)
            i2, l2 = _int(args[4], line_no), _int(args[5], line_no)
            got = fo.equal_omega_omega(s, i1, l1, s2, i2, l2)
            if oc is not None:
                want = oc.equal_omega_omega(
                    o, i1, l1, self.oracle_handles[args[3]], i2, l2)
                self._compare(line, line_no, got, want, one_sided=True)
            self._emit("TRUE" if got else "FALSE")
        elif verb == "LCPW":
            i1 = _int(args[1], line_no)
            s2, i2 = self._handle(args[2], line_no), _int(args[3], line_no)
            got = fo.lcp_omega(s, i1, s2, i2)
            if oc is not None:
                want = oc.lcp_omega(o, i1, self.oracle_handles[args[2]], i2)
                self._compare(line, line_no, got, want)
            length = "INF" if got[0] is INFINITE else str(got[0])
            self._emit(f"{length} {got[1].value}")
        else:  # pragma: no cover - arity table guards this
            raise ScriptError(line_no, f"unknown command {verb!r}")


@dataclass
class RunResult:
    exit_code: int
    error: str | None
    collisions: int
    ops: int
    runner: ScriptRunner


def run_script(lines, *, seed: int | None = None, involution=None,
               shadow: bool = False, check_full: bool = True,
               out=None) -> RunResult:
    """Run script lines; returns the exit code instead of raising.

    seed=None draws the fingerprint seed at random; a divergence report
    names the seed and base so that the run can be replayed.
    """
    runner = ScriptRunner(seed=seed, involution=involution, shadow=shadow,
                          check_full=check_full, out=out)
    try:
        runner.run(lines)
    except ScriptError as exc:
        return RunResult(1, str(exc), runner.collisions, runner.ops, runner)
    except ShadowDivergence as exc:
        ctx = runner.forest.ctx
        return RunResult(3, f"{exc}\n  replay with --seed {ctx.seed} "
                         f"(base {ctx.base})", runner.collisions, runner.ops,
                         runner)
    except FestError as exc:
        return RunResult(2, f"{type(exc).__name__}: {exc}",
                         runner.collisions, runner.ops, runner)
    return RunResult(0, None, runner.collisions, runner.ops, runner)


def format_stats(runner: ScriptRunner) -> str:
    """Counters as `key<TAB>number` lines under one `#` header line."""
    forest = runner.forest
    st = forest.stats
    per_op = st.rotations / runner.ops if runner.ops else 0.0
    lines = [
        "# instrumentation",
        f"seed\t{forest.ctx.seed}",
        f"base\t{forest.ctx.base}",
        f"ops\t{runner.ops}",
        f"rotations\t{st.rotations}",
        f"rotations_per_op\t{per_op:.4f}",
        f"fixes\t{st.fixes}",
        f"finds\t{st.finds}",
        f"equal_tests\t{st.equal_tests}",
        f"lcp_calls\t{st.lcp_calls}",
        f"lcp_squaring_probes\t{st.lcp_squaring_probes}",
        f"mapped_refreshes\t{st.mapped_refreshes}",
    ]
    p = st.last_lcp
    if p is not None:
        lines += [f"last_lcp_border\t{p.border}",
                  f"last_lcp_threshold\t{p.threshold}",
                  f"last_lcp_squaring\t{p.squaring}",
                  f"last_lcp_search\t{p.search}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fest",
        description="Replay a dynamic-string operation script.")
    parser.add_argument("script", nargs="?",
                        help="script file (default: stdin)")
    # A string default goes through type=int, so a bad FEST_SEED is
    # reported like a bad --seed.
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("FEST_SEED"),
                        help="seed for the fingerprint base RNG (default: "
                             "drawn at random; --stats prints it)")
    parser.add_argument("--involution",
                        default=os.environ.get("FEST_INVOLUTION"),
                        help="file of 'codeA codeB' involution pairs")
    parser.add_argument("--shadow-oracle", action="store_true",
                        help="run the exact reference alongside and compare")
    parser.add_argument("--stats", action="store_true",
                        help="print instrumentation counters to stderr")
    args = parser.parse_args(argv)

    involution = None
    if args.involution:
        try:
            involution = parse_involution_file(args.involution)
        except (OSError, ScriptError, FestError) as exc:
            print(f"fest: involution file: {exc}", file=sys.stderr)
            return 1

    if args.script:
        try:
            with open(args.script, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            print(f"fest: {exc}", file=sys.stderr)
            return 1
    else:
        lines = sys.stdin.readlines()

    result = run_script(lines, seed=args.seed, involution=involution,
                        shadow=args.shadow_oracle, out=sys.stdout)
    if result.error is not None:
        print(f"fest: {result.error}", file=sys.stderr)
    if args.stats:
        print(format_stats(result.runner), file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
