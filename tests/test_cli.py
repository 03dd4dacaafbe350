"""Experiment harness and CLI: reproducibility, formats, exit codes."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from arcnc import cli, engine, netgraph
from arcnc.cli import main
from arcnc.simulate import CSV_HEADER, run_trials, summarize, write_csv
from arcnc.topologies import TopologySpec


def sim_csv(tmp_path, name, extra):
    out = tmp_path / name
    rc = main(["sim", "--out", str(out), *extra])
    assert rc == 0
    return out.read_bytes()


def test_csv_bytes_reproducible(tmp_path):
    args = ["--topology", "combination", "--n", "6", "--m", "2", "--q", "2,4",
            "--trials", "20", "--seed", "11"]
    a = sim_csv(tmp_path, "a.csv", args)
    b = sim_csv(tmp_path, "b.csv", args)
    assert a == b
    assert a.splitlines()[0].decode() == CSV_HEADER


def test_workers_do_not_change_bytes(tmp_path):
    for topology in (
        ["--topology", "sparsified", "--n", "6", "--m", "2"],
        ["--topology", "rgg_cyclic", "--nodes", "12", "--sinks", "3", "--radius", "0.5"],
        ["--topology", "rgg_acyclic", "--nodes", "12", "--sinks", "3", "--radius", "0.5",
         "--mode", "both"],
    ):
        base = topology + ["--q", "2", "--trials", "12", "--seed", "3"]
        serial = sim_csv(tmp_path, "serial.csv", base)
        parallel = sim_csv(tmp_path, "parallel.csv", base + ["--workers", "3"])
        assert serial == parallel


def test_worker_pool_is_sized_to_the_trial_chunks(tmp_path, monkeypatch):
    # a forking pool starts every worker at once, so it must not outnumber
    # the chunks; this stand-in records the size and maps serially, so no
    # process is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    base = ["--topology", "shuttle", "--q", "2", "--seed", "3"]
    serial = sim_csv(tmp_path, "serial.csv", base + ["--trials", "3"])
    assert sim_csv(tmp_path, "pooled.csv", base + ["--trials", "3", "--workers", "8"]) == serial
    assert sizes == [3]
    empty = sim_csv(tmp_path, "empty.csv", base + ["--trials", "0", "--workers", "4"])
    assert empty.decode() == CSV_HEADER + "\n" and sizes == [3]


def test_random_topology_rows_reproducible(tmp_path):
    args = ["--topology", "rgg-acyclic", "--nodes", "14", "--sinks", "3",
            "--radius", "0.5", "--q", "4", "--trials", "10", "--seed", "5"]
    assert sim_csv(tmp_path, "r1.csv", args) == sim_csv(tmp_path, "r2.csv", args)


def test_row_and_summary_contents():
    spec = TopologySpec("combination", {"n": 4, "m": 2})
    rows = run_trials(spec, 2, 30, master_seed=1)
    assert len(rows) == 30
    assert all(r.topology == "combination(m=2,n=4):arcnc" for r in rows)
    assert all(r.family_params == "m=2;n=4" for r in rows)
    ok = [r for r in rows if r.success]
    assert ok, "expected at least one success"
    row = ok[0]
    assert row.t_n == max(v for v in row.sink_t_r)
    assert len(row.sink_t_r) == 6
    (summary,) = summarize(rows)
    assert summary.trials == 30
    assert summary.successes == len(ok)
    assert summary.t_avg_stderr is not None and summary.t_avg_stderr >= 0.0


def test_rlnc_rows():
    spec = TopologySpec("combination", {"n": 3, "m": 2})
    rows = run_trials(spec, 16, 40, master_seed=2, mode="rlnc")
    ok = [r for r in rows if r.success]
    assert ok and all(r.w_avg == 4.0 and r.t_n == 0 for r in ok)
    bad = [r for r in rows if not r.success]
    for r in bad:
        assert r.t_n is None and r.t_avg is None and r.w_avg is None
        assert all(v is None for v in r.sink_t_r)


def test_failure_rows_serialize(tmp_path):
    spec = TopologySpec("shuttle")
    rows = run_trials(spec, 2, 5, master_seed=1, t_max=0)
    assert all(not r.success for r in rows)
    path = tmp_path / "fail.csv"
    write_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",", 8)
    assert fields[4] == "0" and fields[5] == "" and fields[6] == ""
    assert json.loads(lines[1].split('"')[1]) == [None, None]


def test_bounds_cli(capsys):
    assert main(["bounds", "et", "--m", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "1.66667" in out and "0.6" in out
    assert main(["bounds", "rlnc-q", "--d", "120", "--j", "1", "--target", "0.99"]) == 0
    assert "32768" in capsys.readouterr().out
    assert main(["bounds", "umbrella", "--alpha", "29", "--beta", "3", "--q", "4",
                 "--epsilon", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "umbrella_gain_lb" in out
    assert main(["bounds", "et", "--m", "0", "--q", "2"]) == 2
    assert main(["bounds", "rlnc-q", "--d", "5", "--target", "0.9"]) == 2


def test_graph_cli(tmp_path, capsys):
    assert main(["graph", "--topology", "shuttle"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("->") == 10 and '"e10"' in dot
    out = tmp_path / "umbrella.dot"
    assert main(["graph", "--topology", "umbrella", "--alpha", "9", "--beta", "3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("[label=") >= 31
    assert main(["graph", "--topology", "combination", "--n", "4", "--m", "2"]) == 0
    assert capsys.readouterr().out.count("doublecircle") == 6
    rgg = ["graph", "--topology", "rgg-cyclic", "--nodes", "12", "--sinks", "3",
           "--radius", "0.5"]
    assert main(rgg + ["--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(rgg + ["--seed", "4"]) == 0
    assert capsys.readouterr().out == first and first.count("doublecircle") == 3
    assert main(rgg) == 2


def test_config_file_and_env_seed(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "family=combination\nn=4\nm=2\nq=2\ntrials=8\nseed=9\n"
    )
    out = tmp_path / "conf.csv"
    assert main(["sim", "--config", str(conf), "--out", str(out)]) == 0
    first = out.read_bytes()
    # explicit flags win over the config
    assert main(["sim", "--config", str(conf), "--out", str(out), "--trials", "4"]) == 0
    assert out.read_text().count("\n") == 1 + 4

    # the environment seed overrides both
    monkeypatch.setenv("ARCNC_SEED", "9")
    assert main(["sim", "--config", str(conf), "--out", str(out), "--seed", "1"]) == 0
    assert out.read_bytes() == first

    # a key with no flag is rejected, even on an otherwise valid config
    bad = tmp_path / "bad.conf"
    for line in ("wat=1", "summary_out=summary.txt"):
        bad.write_text(conf.read_text() + line + "\n")
        assert main(["sim", "--config", str(bad)]) == 2


def test_exit_codes(tmp_path):
    assert main(["sim", "--topology", "nonesuch", "--q", "2", "--trials", "1"]) == 2
    assert main(["sim", "--topology", "combination", "--m", "2", "--q", "2"]) == 2  # missing --n
    assert main(["sim", "--topology", "combination", "--n", "4", "--m", "2",
                 "--q", "6", "--trials", "1"]) == 2
    # every shuttle trial fails at t_max=0, tripping the failure-rate gate
    rc = main(["sim", "--topology", "shuttle", "--q", "2", "--trials", "5",
               "--t-max", "0", "--max-fail-rate", "0.5"])
    assert rc == 3


@pytest.mark.parametrize("flags", [
    ["--trials", "-3"],
    ["--t-max", "-1"],
    ["--max-fail-rate", "-1"],
    ["--max-fail-rate", "1.5"],
    ["--max-fail-rate", "nan"],
    ["--workers", "0"],
    ["--workers", "-2"],
])
def test_bad_run_limits_exit_2_before_any_trial(flags, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sim", "--topology", "shuttle", "--q", "2", "--trials", "2", "--out", str(out), *flags])
    assert rc == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flags[0] in captured.err


@pytest.mark.parametrize("line", ["trials=-1", "t_max=-2", "max_fail_rate=2", "workers=0"])
def test_bad_run_limits_from_config_exit_2(line, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"family=shuttle\nq=2\n{line}\n")
    out = tmp_path / "rows.csv"
    assert main(["sim", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_repro_negative_trials_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["repro", "shuttle-q-sweep", "--trials", "-1", "--out-dir", str(out_dir)]) == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --trials") and err.count("\n") == 1


def test_random_family_without_a_valid_instance_exits_2(capsys):
    rc = main(["sim", "--topology", "rgg_cyclic", "--nodes", "5", "--sinks", "4",
               "--radius", "0.01", "--q", "4", "--trials", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _wrong_first_row(monkeypatch):
    real = engine.sequential_decode

    def decode(dec, y, n):
        out = real(dec, y, n)
        out[0] ^= 1  # x_0[0], lane 0 of the packed x_0
        return out

    monkeypatch.setattr(engine, "sequential_decode", decode)
    return ["--topology", "shuttle", "--q", "2"]


def _mask_with_delay_free_cycle(monkeypatch):
    monkeypatch.setattr(netgraph, "validate_cycle_delay", lambda net, mask: False)
    return ["--topology", "rgg-cyclic", "--nodes", "10", "--sinks", "2", "--radius", "0.5",
            "--q", "2"]


def _decodability_fires_at_t0(monkeypatch):
    # every sink "decodes" at t=0, so the decoder solve meets a system with no solution
    monkeypatch.setattr(engine, "decodability_test", lambda cache, t: True)
    return ["--topology", "shuttle", "--q", "2"]


@pytest.mark.parametrize("fault", [_wrong_first_row, _mask_with_delay_free_cycle, _decodability_fires_at_t0])
def test_internal_check_failure_exits_4_and_names_the_trial(fault, monkeypatch, capsys):
    topology = fault(monkeypatch)
    rc = main(["sim", *topology, "--trials", "3", "--seed", "5"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: ") and err.count("\n") == 1
    assert "(seed=5, q=2, trial=0)" in err


def test_summary_table_follows_redirected_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["sim", "--topology", "shuttle", "--q", "2", "--trials", "2"])
    assert rc == 0
    lines = buf.getvalue().splitlines()
    assert lines[0].split()[:2] == ["topology", "q"]
    assert lines[2].startswith("shuttle")


def test_repro_preset(tmp_path):
    rc = main(["repro", "sparsified-flatness", "--trials", "3", "--seed", "2",
               "--out-dir", str(tmp_path), "--no-validate"])
    assert rc == 0
    data = (tmp_path / "sparsified-flatness.csv").read_text().splitlines()
    assert data[0] == CSV_HEADER
    assert len(data) == 1 + 4 * 3  # four n values, three trials each
    bounds = (tmp_path / "sparsified-flatness-bounds.csv").read_text()
    assert "sink_l_ub" in bounds
    assert main(["repro", "no-such-figure", "--out-dir", str(tmp_path)]) == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arcnc.cli", "bounds", "et", "--m", "2", "--q", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "et_ub" in proc.stdout
