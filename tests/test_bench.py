"""Benchmark harness tests: counter determinism and report shape."""

import pytest

from fest.bench import BenchRow, format_report, run_row, run_suite, \
    time_make_string


def counters(row: BenchRow):
    # everything except wall time must be reproducible
    return (row.n, row.ops, row.rotations_per_op, row.fixes_per_op,
            row.lcp_calls, row.lcp_probes_mean, row.lcp_probes_max)


def test_counters_are_deterministic_given_seed():
    a = run_row(256, seed=3, ops_factor=4)
    b = run_row(256, seed=3, ops_factor=4)
    assert counters(a) == counters(b)
    c = run_row(256, seed=4, ops_factor=4)
    assert counters(a) != counters(c)


def test_planted_lcps_reach_squaring_and_search():
    # A border-only lcp costs 2 probes; planted blocks need more.
    row = run_row(4096, seed=5, ops_factor=1)
    assert row.lcp_calls > 0
    assert row.lcp_probes_mean > 2
    assert row.lcp_probes_max > 8


def test_suite_requires_ascending_sizes():
    with pytest.raises(ValueError):
        run_suite([512, 256])


def test_report_is_tab_separated_with_header():
    rows = run_suite([64, 128], seed=1, ops_factor=2)
    text = format_report(rows)
    lines = text.splitlines()
    assert lines[0].startswith("n\tops\trotations_per_op")
    assert len(lines) == 3
    assert all(len(line.split("\t")) == 8 for line in lines)


def test_row_workload_keeps_length_near_n():
    row = run_row(128, seed=2, ops_factor=6)
    assert row.n == 128
    assert row.ops == 6 * 128
    assert row.rotations_per_op > 0


def test_time_make_string_returns_duration():
    assert time_make_string(4096, seed=5) > 0.0


def test_main_prints_report(capsys):
    from fest.bench import main
    assert main(["--sizes", "64,128", "--seed", "2", "--ops-factor", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n\t")
    assert main(["--sizes", "notanumber"]) == 1


def test_main_writes_json_rows(tmp_path, capsys):
    import json
    from fest.bench import main
    out = tmp_path / "rows.json"
    assert main(["--sizes", "64,128", "--seed", "2", "--ops-factor", "1",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["seed"], doc["ops_factor"]) == (2, 1)
    want = run_suite([64, 128], seed=2, ops_factor=1)
    assert [counters(BenchRow(**r)) for r in doc["rows"]] == \
        [counters(r) for r in want]
    assert all(r["time_us_per_op"] > 0 for r in doc["rows"])
