"""Script-protocol tests: grammar, output formats, exit codes, shadow mode."""

import inspect
import io
import re
import subprocess
import sys

import pytest

from fest import INFINITE, Forest, Order, RangeError, UsageError, cli
from fest.cli import ScriptRunner, ShadowDivergence, main, \
    parse_involution_file, render_symbols, run_script
from fest.fingerprint import FingerprintContext
from fest.oracle import OracleForest


def run_lines(lines, **kw):
    out = io.StringIO()
    result = run_script(lines, out=out, **kw)
    return result, out.getvalue()


def test_extract_retrieve_scenario():
    result, out = run_lines([
        "MAKE s mississippi",
        "EXTRACT s 9 11 t",
        "RETRIEVE t 1 3",
    ])
    assert result.exit_code == 0
    assert out == "ppi\n"


def test_reintroduce_scenario():
    result, out = run_lines([
        "MAKE s mississippi",
        "EXTRACT s 9 11 t",
        "INTRO s 1 t",
        "RETRIEVE s 1 11",
    ])
    assert result.exit_code == 0
    assert out == "ppimississi\n"


def test_lcp_output_format():
    result, out = run_lines([
        "MAKE a abcd",
        "MAKE b abce",
        "LCP a 1 b 1",
    ])
    assert result.exit_code == 0
    assert out == "3 LESS\n"


def test_empty_script():
    result, out = run_lines([])
    assert result.exit_code == 0
    assert out == ""


def test_comments_and_blank_lines_ignored():
    result, out = run_lines(["", "# nothing here", "MAKE s ab", "ACCESS s 1"])
    assert result.exit_code == 0
    assert out == "a\n"


def test_numeric_make_and_access_rendering():
    result, out = run_lines([
        "MAKEN s 3 7 65 66",
        "ACCESS s 1",
        "RETRIEVE s 1 3",
    ])
    assert result.exit_code == 0
    assert out == "# 7\n# 7 65 66\n"


def test_circular_commands_and_omega_formats():
    result, out = run_lines([
        "MAKEC a ab",
        "MAKEC b aba",
        "MAKECN c 2 97 98",
        "EQW a 1 c 1 10",
        "EQWW a 1 2 a 1 4",
        "LCPW a 1 b 1",
        "LCPW a 1 c 1",
        "ROTATE a 2",
        "RETRIEVE a 1 2",
    ])
    assert result.exit_code == 0
    assert out == "TRUE\nTRUE\n3 GREATER\nINF EQUAL\nab\n"


def test_parse_errors_carry_line_numbers():
    result, _ = run_lines(["MAKE s ab", "FROB s 1"])
    assert result.exit_code == 1
    assert "line 2" in result.error
    result, _ = run_lines(["MAKE s ab", "", "ACCESS s"])
    assert result.exit_code == 1
    assert "line 3" in result.error
    result, _ = run_lines(["MAKEN s 3 1 2"])
    assert result.exit_code == 1
    result, _ = run_lines(["ACCESS ghost 1"])
    assert result.exit_code == 1


def test_runtime_error_exit_code():
    result, _ = run_lines(["MAKE s ab", "ACCESS s 9"])
    assert result.exit_code == 2
    assert "RangeError" in result.error


def test_shadow_divergence_exit_code(monkeypatch):
    runner = ScriptRunner(shadow=True, out=None)
    runner.run(["MAKE s abab".strip()])
    monkeypatch.setattr(runner.forest, "access", lambda s, i: 0)
    with pytest.raises(ShadowDivergence):
        runner.run_line("ACCESS s 1", 2)


def test_shadow_content_divergence(monkeypatch):
    runner = ScriptRunner(shadow=True, out=None)
    runner.run(["MAKE s abab"])
    real = runner.forest.substitute
    monkeypatch.setattr(runner.forest, "substitute",
                        lambda s, i, c: real(s, i, c + 1))
    with pytest.raises(ShadowDivergence):
        runner.run_line("SUB s 1 120", 2)


def test_deterministic_output_bytes():
    lines = ["MAKE s tartar", "LCP s 1 s 4", "EQUAL s 1 s 4 3", "ACCESS s 2"]
    _, out1 = run_lines(lines, seed=9)
    _, out2 = run_lines(lines, seed=9)
    assert out1 == out2


def test_char_argument_forms():
    result, out = run_lines([
        "MAKE s abc",
        "SUB s 1 Z",
        "SUB s 2 66",
        "RETRIEVE s 1 3",
    ])
    assert result.exit_code == 0
    assert out == "ZBc\n"


def test_render_symbols_fallback():
    assert render_symbols([104, 105]) == "hi"
    assert render_symbols([3]) == "# 3"
    assert render_symbols([]) == ""


def test_involution_file_parsing(tmp_path):
    path = tmp_path / "pairs.inv"
    path.write_text("# watson-crick\n65 84\n67 71\n")
    table = parse_involution_file(str(path))
    assert table[65] == 84 and table[84] == 65
    bad = tmp_path / "bad.inv"
    bad.write_text("65 84\n65 67\n")
    with pytest.raises(Exception):
        parse_involution_file(str(bad))


def test_map_via_involution_file(tmp_path):
    path = tmp_path / "dna.inv"
    path.write_text("65 84\n67 71\n")
    script = tmp_path / "script.fest"
    script.write_text("MAKE s ACGT\nMAP s 1 4\nRETRIEVE s 1 4\n")
    out = io.StringIO()
    code = main(["--involution", str(path), str(script)])
    # main writes to sys.stdout; rerun through run_script for the output
    table = parse_involution_file(str(path))
    result, text = run_lines(script.read_text().splitlines(),
                             involution=table)
    assert code == 0
    assert result.exit_code == 0
    assert text == "TGCA\n"


def test_cli_subprocess_end_to_end(tmp_path):
    script = tmp_path / "s.fest"
    script.write_text(
        "MAKE s mississippi\nEXTRACT s 9 11 t\nINTRO s 1 t\n"
        "RETRIEVE s 1 11\nLCP s 1 s 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fest.cli", "--shadow-oracle", "--stats",
         "--seed", "17", str(script)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "ppimississi\n1 GREATER\n"
    header, *rows = proc.stderr.splitlines()
    assert header.startswith("#")
    stats = {}
    for row in rows:
        key, value = row.split("\t")
        assert key.isidentifier()
        float(value)  # every value is a plain number
        stats[key] = value
    assert stats["seed"] == "17"
    assert int(stats["base"]) == FingerprintContext(seed=17).base
    assert int(stats["rotations"]) > 0
    assert stats["mapped_refreshes"] == "0"
    assert {"last_lcp_border", "last_lcp_threshold", "last_lcp_squaring",
            "last_lcp_search", "last_lcp_reads"} <= stats.keys()


def test_cli_subprocess_env_seed(tmp_path):
    import os
    script = tmp_path / "s.fest"
    script.write_text("MAKE a ab\nMAKE b ab\nEQUAL a 1 b 1 2\n")
    env = dict(os.environ, FEST_SEED="123")
    proc = subprocess.run([sys.executable, "-m", "fest.cli", str(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "TRUE\n"


def test_cli_subprocess_bad_env_seed_is_a_usage_error(tmp_path):
    import os
    script = tmp_path / "s.fest"
    script.write_text("MAKE a ab\n")
    env = dict(os.environ, FEST_SEED="abc")
    proc = subprocess.run([sys.executable, "-m", "fest.cli", str(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "argument --seed: invalid int value: 'abc'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_subprocess_env_involution(tmp_path):
    import os
    pairs = tmp_path / "dna.inv"
    pairs.write_text("65 84\n67 71\n")
    script = tmp_path / "s.fest"
    script.write_text("MAKE s ACGT\nMAP s 1 4\nRETRIEVE s 1 4\n")
    env = dict(os.environ, FEST_INVOLUTION=str(pairs))
    proc = subprocess.run([sys.executable, "-m", "fest.cli", str(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "TGCA\n"


def test_cli_subprocess_parse_error_exit_code(tmp_path):
    script = tmp_path / "bad.fest"
    script.write_text("NONSENSE 1 2\n")
    proc = subprocess.run([sys.executable, "-m", "fest.cli", str(script)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "line 1" in proc.stderr


def test_cli_default_seed_is_drawn_and_reported(tmp_path):
    # No --seed and no FEST_SEED: the seed is drawn at random, and --stats
    # reports it so that the run can be replayed with the same base.
    import os
    script = tmp_path / "s.fest"
    script.write_text("MAKE a abab\nEQUAL a 1 a 3 2\n")
    env = {k: v for k, v in os.environ.items() if k != "FEST_SEED"}

    def stats(*flags):
        proc = subprocess.run(
            [sys.executable, "-m", "fest.cli", "--stats", *flags,
             str(script)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == "TRUE\n"
        return dict(row.split("\t") for row in proc.stderr.splitlines()[1:])

    first, second = stats(), stats()
    assert first["seed"] != second["seed"]
    assert int(first["base"]) == FingerprintContext(
        seed=int(first["seed"])).base
    assert stats("--seed", first["seed"])["base"] == first["base"]


def test_divergence_report_names_the_seed(monkeypatch):
    monkeypatch.setattr(Forest, "access", lambda self, s, i: 0)
    result = run_script(["MAKE s ab", "ACCESS s 1"], shadow=True)
    assert result.exit_code == 3
    ctx = result.runner.forest.ctx
    assert f"--seed {ctx.seed} (base {ctx.base})" in result.error


def test_verb_table_matches_forest_and_oracle():
    # Each verb calls one method by name on both sides, with one argument
    # per non-"new" kind, plus the mode for the MAKE family.
    for verb, spec in cli._VERBS.items():
        want = len(spec.kinds) + (spec.mode is not None)
        for side in (Forest, OracleForest):
            params = list(inspect.signature(
                getattr(side, spec.method)).parameters.values())[1:]
            assert [p.kind for p in params].count(
                inspect.Parameter.POSITIONAL_OR_KEYWORD) == want, (verb, side)
        assert re.search(rf"\b{verb} ", cli.__doc__), verb


@pytest.mark.parametrize("shadow", [False, True])
def test_drop_kills_the_handle(shadow):
    result, out = run_lines(["MAKE s ab", "MAKE t cd", "DROP s",
                             "ACCESS t 1", "ACCESS s 1"], shadow=shadow)
    assert result.exit_code == 2
    assert result.error.startswith("HandleError")
    assert out == "c\n"


@pytest.mark.parametrize("shadow", [False, True])
def test_a_dead_id_can_be_reused(shadow):
    # The ids of a dropped string and of an introduced donor are free again
    # for MAKE* and EXTRACT; any other use of a dead id is a HandleError.
    result, out = run_lines(["MAKE s ab", "DROP s", "MAKE s cd",
                             "MAKE t xy", "INTRO s 3 t", "MAKECN t 2 65 66",
                             "EXTRACT s 1 2 t2", "INTRO s 1 t2",
                             "EXTRACT t 2 1 t2", "RETRIEVE s 1 4",
                             "RETRIEVE t2 1 2"], shadow=shadow)
    assert result.exit_code == 0, result.error
    assert out == "cdxy\nBA\n"
    result, _ = run_lines(["MAKE s ab", "DROP s", "ACCESS s 1"],
                          shadow=shadow)
    assert result.exit_code == 2
    assert result.error.startswith("HandleError")
    result, _ = run_lines(["MAKE s ab", "MAKE s cd"], shadow=shadow)
    assert result.exit_code == 1
    assert "already exists" in result.error


@pytest.mark.parametrize("shadow", [False, True])
def test_a_signed_symbol_code_is_a_domain_error(shadow):
    # SUB and INS read a signed code as MAKEN does, so the forest rejects
    # it as a DomainError (exit 2), not the parser (exit 1).
    for line in ("SUB s 1 -3", "INS s 1 -3", "MAKEN t 1 -5"):
        result, _ = run_lines(["MAKE s ab", line], shadow=shadow)
        assert result.exit_code == 2, line
        assert result.error.startswith("DomainError"), line
    result, out = run_lines(["MAKE s ab", "SUB s 1 7", "INS s 1 +",
                             "SUB s 2 66", "RETRIEVE s 1 3"], shadow=shadow)
    assert result.exit_code == 0
    assert out == "+Bb\n"
    result, _ = run_lines(["MAKE s ab", "SUB s 1 xy"], shadow=shadow)
    assert result.exit_code == 1


def test_shadowed_runtime_error_keeps_its_exit_code():
    result, out = run_lines(["MAKE s ab", "ACCESS s 9"], shadow=True)
    assert result.exit_code == 2
    assert result.error.startswith("RangeError")
    assert out == ""


def test_shadowed_error_must_leave_contents_alone(monkeypatch):
    real = Forest.delete

    def delete(self, s, i):
        real(self, s, 1)
        raise RangeError(f"position {i} outside [1, {s.length}]")

    monkeypatch.setattr(Forest, "delete", delete)
    result, _ = run_lines(["MAKE s abab", "DEL s 9"], shadow=True)
    assert result.exit_code == 3
    assert "content divergence after 'DEL s 9' on 's'" in result.error


def _raise_usage(self, s, i):
    raise UsageError("patched")


def _raise_range(self, s, i):
    raise RangeError("patched")


@pytest.mark.parametrize("line,access", [
    pytest.param("ACCESS s 9", _raise_usage, id="other-class"),
    pytest.param("ACCESS s 1", _raise_range, id="forest-only"),
    pytest.param("ACCESS s 9", lambda self, s, i: 97, id="oracle-only"),
])
def test_shadow_compares_error_classes(monkeypatch, line, access):
    monkeypatch.setattr(Forest, "access", access)
    result, out = run_lines(["MAKE s ab", line], shadow=True)
    assert result.exit_code == 3
    assert f"error divergence on {line!r}" in result.error
    assert out == ""


def _off_by(delta):
    return lambda answer: (answer[0] + delta, answer[1])


@pytest.mark.parametrize("verb,method", [("LCP", "lcp"),
                                         ("LCPW", "lcp_omega")])
@pytest.mark.parametrize("wrong,collision", [
    # Over-reporting is what a collision does; anything else is a bug.
    pytest.param(_off_by(1), True, id="longer"),
    pytest.param(_off_by(-1), False, id="shorter"),
    pytest.param(lambda answer: (answer[0], Order.GREATER), False,
                 id="other-order"),
])
def test_lcp_divergence_is_labelled_by_direction(monkeypatch, verb, method,
                                                 wrong, collision):
    real = getattr(Forest, method)
    monkeypatch.setattr(Forest, method,
                        lambda self, *args: wrong(real(self, *args)))
    # lcp 3 either way ("abc"), and "abca" < "abcb".
    result, _ = run_lines(["MAKEC a abcab", "MAKEC b abcb",
                           f"{verb} a 1 b 1"], shadow=True)
    assert result.exit_code == 3
    assert result.collisions == int(collision)
    assert ("(fingerprint collision)" in result.error) == collision


@pytest.mark.parametrize("pair,answer,collision", [
    pytest.param(("abcab", "abcb"), (INFINITE, Order.EQUAL), True,
                 id="infinite-for-finite"),
    pytest.param(("ab", "abab"), (4, Order.LESS), False,
                 id="finite-for-infinite"),
])
def test_lcp_omega_infinite_divergence_is_labelled(monkeypatch, pair, answer,
                                                   collision):
    monkeypatch.setattr(Forest, "lcp_omega", lambda self, *args: answer)
    result, _ = run_lines([f"MAKEC a {pair[0]}", f"MAKEC b {pair[1]}",
                           "LCPW a 1 b 1"], shadow=True)
    assert result.exit_code == 3
    assert result.collisions == int(collision)


def test_a_real_equal_collision_is_labelled_at_a_small_modulus():
    # u = 1·0^84 and v = 0^84·1 differ by x^84 - 1, so their fingerprints
    # collide at every base b with b^84 = 1 (mod p).  No call is patched:
    # the forest's own EQUAL answers True and the oracle's False.
    p, k = 8191, 84
    b = next(b for b in range(2, p) if pow(b, k, p) == 1)
    runner = ScriptRunner(seed=0, shadow=True)
    runner.forest.ctx = FingerprintContext(seed=0, modulus=p, base=b)
    zeros = " ".join(["0"] * k)
    with pytest.raises(ShadowDivergence) as info:
        runner.run([f"MAKEN u {k + 1} 1 {zeros}",
                    f"MAKEN v {k + 1} {zeros} 1",
                    f"EQUAL u 1 v 1 {k + 1}"])
    assert str(info.value).endswith("(fingerprint collision)")
    assert runner.collisions == 1


@pytest.mark.parametrize("make,verb", [("MAKEN", "LCP"), ("MAKECN", "LCPW")])
def test_a_real_lcp_collision_is_labelled_at_a_small_modulus(make, verb):
    # u = 0^100·1·0^93 and v = 0^184·1·0^9 differ by x^9·(x^84 - 1), so at
    # a base with b^84 = 1 (mod p) their whole fingerprints collide: the
    # head read sees 64 zeros on both, the border probe matches, and the
    # forest answers (194, EQUAL), or (INF, EQUAL) unrolled, where the
    # oracle answers (100, GREATER).  No call is patched.
    p, k = 8191, 84
    b = next(b for b in range(2, p) if pow(b, k, p) == 1)
    assert b == 90
    runner = ScriptRunner(seed=0, shadow=True)
    runner.forest.ctx = FingerprintContext(seed=0, modulus=p, base=b)

    def word(zeros, rest):
        return " ".join(["0"] * zeros + ["1"] + ["0"] * rest)

    with pytest.raises(ShadowDivergence) as info:
        runner.run([f"{make} u 194 {word(100, 93)}",
                    f"{make} v 194 {word(184, 9)}",
                    f"{verb} u 1 v 1"])
    assert str(info.value).endswith("(fingerprint collision)")
    assert runner.collisions == 1
