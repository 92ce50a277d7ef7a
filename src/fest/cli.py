"""Line-oriented command tool for replaying operation scripts.

One command per line, whitespace-separated:

    MAKE id literal          MAKEC id literal        (circular)
    MAKEN id n c1 .. cn      MAKECN id n c1 .. cn    (numeric codes)
    ACCESS id i              RETRIEVE id i j
    SUB id i c               INS id i c              DEL id i
    INTRO id1 i id2          EXTRACT id i j newid    DROP id
    EQUAL id1 i1 id2 i2 l    LCP id1 i1 id2 i2
    REV id i j               MAP id i j              ROTATE id i
    EQW id1 i1 id2 i2 l      EQWW id1 i1 l1 id2 i2 l2
    LCPW id1 i1 id2 i2

Queries print exactly one line; mutations print nothing.  Character
arguments (SUB/INS) are an integer code, or a single non-digit character.
A new id (MAKE*, EXTRACT) may reuse the id of a dropped or introduced
string; any other use of such an id is a HandleError.
Blank lines and lines starting with '#' are ignored.  Each verb is one
`_VERBS` entry naming a method that `Forest` and `OracleForest` share.

With --shadow-oracle every command also runs against the exact reference
implementation, failing commands included: both must answer alike or raise
the same error class, and leave the strings the command names alike.  Any
divergence aborts with a report of the failing line and both states.
Fingerprints err only towards "equal", so an equality the oracle denies, or
an lcp longer than the oracle's, is reported as a fingerprint collision.
Exit codes: 0 ok, 1 parse error, 2 runtime error, 3 shadow divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .circular import INFINITE
from .errors import FestError
from .fingerprint import validate_involution
from .forest import CIRCULAR, LINEAR, Forest
from .oracle import OracleForest


class ScriptError(Exception):
    """Malformed script line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ShadowDivergence(Exception):
    """The real implementation and the oracle disagreed."""

    def __init__(self, line_no: int, report: str):
        super().__init__(f"line {line_no}: {report}")
        self.line_no = line_no


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


# Argument kinds: each turns its token(s) into one method argument.

def _id(runner, tok: str, line_no: int):
    try:
        return runner.handles[tok]
    except KeyError:
        raise ScriptError(line_no, f"unknown string id {tok!r}")


def _int(runner, tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ScriptError(line_no, f"expected integer, got {tok!r}")


def _char(runner, tok: str, line_no: int) -> int:
    """An integer code, signed like MAKEN's, or one non-digit character."""
    try:
        return int(tok)
    except ValueError:
        if len(tok) == 1:
            return ord(tok)
    raise ScriptError(line_no, f"expected symbol code or character, got {tok!r}")


def _codes(runner, toks: list[str], line_no: int) -> list[int]:
    """The codes after a count; the arity check has read the count."""
    return [_int(runner, tok, line_no) for tok in toks]


_KINDS = {"id": _id, "int": _int, "sym": _char, "codes": _codes,
          "lit": lambda runner, tok, line_no: tok}


def _truth(got: bool) -> str:
    return "TRUE" if got else "FALSE"


def _lcp_line(got) -> str:
    length = "INF" if got[0] is INFINITE else got[0]
    return f"{length} {got[1].value}"


def _reach(got) -> float:
    return math.inf if got[0] is INFINITE else got[0]


class _Verb(NamedTuple):
    method: str        # the same name on Forest and OracleForest
    kinds: tuple       # one converter per method argument, in order
    arity: int         # tokens after the verb
    new: int | None    # token index of the "new" id naming the returned string
    ids: tuple         # positions of the string-id arguments
    render: Callable | None        # None: the verb prints nothing
    one_sided: Callable | None     # how much agreement the answer claims
    checked: bool      # contents checked under --shadow-oracle on success
    mode: str | None   # appended to the MAKE family's arguments


def _verb(method, kinds, render=None, one_sided=None, checked=True,
          mode=None) -> _Verb:
    words = kinds.split()
    new = words.index("new") if "new" in words else None
    call = [w for w in words if w != "new"]
    return _Verb(method, tuple(_KINDS[w] for w in call), len(words), new,
                 tuple(i for i, w in enumerate(call) if w == "id"),
                 render, one_sided, checked, mode)


# Mutators, and the queries that restructure trees, are `checked`.
_VERBS = {
    "MAKE": _verb("make_string", "new lit", mode=LINEAR),
    "MAKEC": _verb("make_string", "new lit", mode=CIRCULAR),
    "MAKEN": _verb("make_string", "new codes", mode=LINEAR),
    "MAKECN": _verb("make_string", "new codes", mode=CIRCULAR),
    "ACCESS": _verb("access", "id int", lambda c: render_symbols([c]),
                    checked=False),
    "RETRIEVE": _verb("retrieve", "id int int", render_symbols,
                      checked=False),
    "SUB": _verb("substitute", "id int sym"),
    "INS": _verb("insert", "id int sym"),
    "DEL": _verb("delete", "id int"),
    "INTRO": _verb("introduce", "id int id"),
    "EXTRACT": _verb("extract", "id int int new"),
    "DROP": _verb("drop", "id"),
    "EQUAL": _verb("equal", "id int id int int", _truth, bool, checked=False),
    "LCP": _verb("lcp", "id int id int", _lcp_line, _reach),
    "REV": _verb("reverse", "id int int"),
    "MAP": _verb("map", "id int int"),
    "ROTATE": _verb("rotate", "id int"),
    "EQW": _verb("equal_omega", "id int id int int", _truth, bool),
    "EQWW": _verb("equal_omega_omega", "id int int id int int", _truth, bool),
    "LCPW": _verb("lcp_omega", "id int id int", _lcp_line, _reach),
}


class ScriptRunner:
    """Executes script lines against a Forest, optionally shadowed."""

    def __init__(self, seed: int | None = None, involution=None,
                 shadow: bool = False, out=None):
        self.forest = Forest(seed=seed, involution=involution)
        self.oracle = OracleForest(involution=involution) if shadow else None
        self.out = out
        self.handles = {}
        self.oracle_handles = {}
        self.collisions = 0
        self.ops = 0

    # ------------------------------------------------------------ plumbing

    def _check_contents(self, spec, toks, new, line_no: int, line: str):
        """Raise ShadowDivergence unless the strings the line names (its
        ids, and `new` unless None) hold the same contents on both sides."""
        for name in [toks[pos] for pos in spec.ids] + [new]:
            s = self.handles.get(name)
            if s is None or not s.alive:
                continue
            got = self.forest.retrieve(s, 1, s.length) if s.length else []
            want = self.oracle_handles[name].symbols
            if got != want:
                raise ShadowDivergence(
                    line_no, f"content divergence after {line!r} on {name!r}\n"
                    f"  forest: {got}\n"
                    f"  oracle: {want}")

    # ------------------------------------------------------------- running

    def run(self, lines) -> None:
        for line_no, raw in enumerate(lines, 1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.run_line(stripped, line_no)

    def run_line(self, line: str, line_no: int) -> None:
        verb, *toks = line.split()
        verb = verb.upper()
        spec = _VERBS.get(verb)
        if spec is None:
            raise ScriptError(line_no, f"unknown command {verb!r}")
        if spec.kinds[-1] is _codes:
            if len(toks) < 2:
                raise ScriptError(line_no, f"{verb} needs an id and a count")
            count = _int(self, toks[1], line_no)
            if len(toks) != 2 + count:
                raise ScriptError(
                    line_no, f"{verb} {toks[0]}: expected {count} codes, "
                    f"got {len(toks) - 2}")
            toks = [toks[0], toks[2:]]
        elif len(toks) != spec.arity:
            raise ScriptError(line_no, f"{verb} takes {spec.arity} "
                              f"arguments, got {len(toks)}")
        self.ops += 1
        name = None if spec.new is None else toks.pop(spec.new)
        args = []
        for kind, tok in zip(spec.kinds, toks):
            args.append(kind(self, tok, line_no))
        if name in self.handles and self.handles[name].alive:
            raise ScriptError(line_no, f"string id {name!r} already exists")
        if spec.mode is not None:
            args.append(spec.mode)
        if self.oracle is None:
            got = getattr(self.forest, spec.method)(*args)
        else:
            got = self._shadow(spec, toks, args, name, line, line_no)
        if name is not None:
            self.handles[name] = got
        if spec.render is not None and self.out is not None:
            self.out.write(spec.render(got) + "\n")
        if self.oracle is not None and spec.checked:
            self._check_contents(spec, toks, name, line_no, line)

    def _shadow(self, spec, toks, args, name, line, line_no):
        """`run_line`'s call on both sides, which must answer alike, or
        raise the same FestError subclass and leave the strings the line
        names alike."""
        oargs = list(args)
        for pos in spec.ids:
            oargs[pos] = self.oracle_handles[toks[pos]]
        err = oerr = None
        try:
            got = getattr(self.forest, spec.method)(*args)
        except FestError as exc:
            err = exc
        try:
            want = getattr(self.oracle, spec.method)(*oargs)
        except FestError as exc:
            oerr = exc
        if type(err) is not type(oerr):
            raise ShadowDivergence(line_no, f"error divergence on {line!r}: "
                                   f"forest={err!r} oracle={oerr!r}")
        if err is not None:
            self._check_contents(spec, toks, name, line_no, line)
            raise err
        if name is not None:
            self.oracle_handles[name] = want
        elif got != want:
            measure = spec.one_sided
            collision = measure is not None and measure(got) > measure(want)
            self.collisions += collision
            raise ShadowDivergence(
                line_no, f"result divergence on {line!r}: forest={got!r} "
                f"oracle={want!r}"
                + (" (fingerprint collision)" if collision else ""))
        return got


@dataclass
class RunResult:
    exit_code: int
    error: str | None
    collisions: int
    ops: int
    runner: ScriptRunner


def run_script(lines, *, seed: int | None = None, involution=None,
               shadow: bool = False, out=None) -> RunResult:
    """Run script lines; returns the exit code instead of raising.

    seed=None draws the fingerprint seed at random; a divergence report
    names the seed and base so that the run can be replayed.
    """
    runner = ScriptRunner(seed=seed, involution=involution, shadow=shadow,
                          out=out)
    code, error = 0, None
    try:
        runner.run(lines)
    except ScriptError as exc:
        code, error = 1, str(exc)
    except ShadowDivergence as exc:
        ctx = runner.forest.ctx
        code, error = 3, (f"{exc}\n  replay with --seed {ctx.seed} "
                          f"(base {ctx.base})")
    except FestError as exc:
        code, error = 2, f"{type(exc).__name__}: {exc}"
    return RunResult(code, error, runner.collisions, runner.ops, runner)


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
                  f"last_lcp_search\t{p.search}",
                  f"last_lcp_reads\t{p.reads}"]
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
