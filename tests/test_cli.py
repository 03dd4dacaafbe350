"""Experiment harness and CLI: reproducibility, formats, exit codes."""

import concurrent.futures
import contextlib
import io
import itertools
import json
import re
import resource
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arcnc import cli, engine, netgraph, simulate, topologies
from arcnc.cli import main
from arcnc.simulate import CSV_HEADER, TrialError, run_trials, summarize, trial_rng, write_csv
from arcnc.topologies import TopologyError, TopologySpec, gen_rgg


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    base = ["--topology", "shuttle", "--q", "2", "--seed", "3"]
    serial = sim_csv(tmp_path, "serial.csv", base + ["--trials", "3"])
    assert sim_csv(tmp_path, "pooled.csv", base + ["--trials", "3", "--workers", "8"]) == serial
    assert sizes == [3]
    empty = sim_csv(tmp_path, "empty.csv", base + ["--trials", "0", "--workers", "4"])
    assert empty.decode() == CSV_HEADER + "\n" and sizes == [3]
    # nor may it outnumber the CPUs this process may run on: 7 trials at
    # --workers 5000 on 2 CPUs run in chunks of 4 and 3
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = sim_csv(tmp_path, "serial7.csv", base + ["--trials", "7"])
    assert sim_csv(tmp_path, "capped.csv", base + ["--trials", "7", "--workers", "5000"]) == serial
    assert sizes == [3, 2]
    # without an affinity call, the CPU count caps it
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert sim_csv(tmp_path, "one.csv", base + ["--trials", "7", "--workers", "5000"]) == serial
    assert sizes == [3, 2]


SHARED_NET_FAMILIES = (
    ["--topology", "rgg_acyclic", "--nodes", "12", "--sinks", "3", "--radius", "0.5"],
    ["--topology", "sparsified", "--n", "6", "--m", "2"],
)


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("topology", SHARED_NET_FAMILIES)
def test_mode_both_writes_the_arcnc_rows_then_the_rlnc_rows(topology, workers, tmp_path):
    # both modes of a trial share one network, yet per field size the rows
    # are exactly those of --mode arcnc followed by those of --mode rlnc, at
    # any --workers (7 trials in chunks of 3, 3 and 1 at --workers 3)
    base = topology + ["--trials", "7", "--seed", "5", "--workers", workers]
    both = sim_csv(tmp_path, "both.csv", base + ["--q", "2,4", "--mode", "both"]).splitlines()
    expect = [both[0]]
    for q in ("2", "4"):
        for mode in ("arcnc", "rlnc"):
            alone = sim_csv(tmp_path, f"{mode}{q}.csv", base + ["--q", q, "--mode", mode])
            expect += alone.splitlines()[1:]
    assert both == expect and len(both) == 1 + 2 * 2 * 7


@pytest.mark.parametrize("topology, per_trial", [(SHARED_NET_FAMILIES[0], True),
                                                 (SHARED_NET_FAMILIES[1], False)])
def test_mode_both_builds_one_network_per_trial(topology, per_trial, tmp_path, monkeypatch):
    # one network and one multicast rate per (q, trial) for a random family,
    # per q for a deterministic one, shared by the arcnc and rlnc runs
    calls = {"build_sweep": 0, "multicast_rate": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(simulate, "build_sweep")
    counted(netgraph, "multicast_rate")
    counted(engine, "multicast_rate")
    sim_csv(tmp_path, "both.csv", topology + ["--q", "2,4", "--trials", "5", "--mode", "both"])
    expect = 2 * 5 if per_trial else 2
    assert calls == {"build_sweep": expect, "multicast_rate": expect}


def test_mode_both_timings_count_the_shared_build_once(monkeypatch):
    # on a clock that only the build (5 ms) and the adaptive run (2 ms)
    # move, the arcnc row counts the build and its run; the rlnc row, read
    # off that run, counts nothing; the other fields equal an untimed batch's
    now = [0.0]
    monkeypatch.setattr(simulate.time, "perf_counter", lambda: now[0])
    build, run = simulate.build_sweep, engine.run

    def slow_build(*args, **kwargs):
        now[0] += 0.005
        return build(*args, **kwargs)

    def slow_run(*args, **kwargs):
        now[0] += 0.002
        return run(*args, **kwargs)

    monkeypatch.setattr(simulate, "build_sweep", slow_build)
    monkeypatch.setattr(engine, "run", slow_run)
    spec = TopologySpec("rgg_acyclic", {"nodes": 12, "sinks": 3, "radius": 0.5})
    timed = run_trials(spec, 4, 3, master_seed=5, mode="both", validate=False, timings=True)
    assert [r.runtime_ms for r in timed] == [7, 7, 7, 0, 0, 0]
    plain = run_trials(spec, 4, 3, master_seed=5, mode="both", validate=False)
    assert [r.to_csv().rsplit(",", 1)[0] for r in timed] == [r.to_csv().rsplit(",", 1)[0] for r in plain]


@pytest.mark.parametrize("topology", SHARED_NET_FAMILIES)
def test_mode_both_reads_the_one_shot_rows_off_the_adaptive_run(topology, tmp_path, monkeypatch):
    # with validation, at --t-max 0 and past it, where the adaptive run
    # fails at times: both's rlnc rows equal --mode rlnc's, which still
    # runs the engine stopped at t=0, and succeed iff t_n = 0; no second
    # engine runs under both
    for t_max in ("0", "64"):
        base = topology + ["--q", "2,4", "--trials", "12", "--seed", "9", "--t-max", t_max]
        alone = sim_csv(tmp_path, "rlnc.csv", base + ["--mode", "rlnc"]).splitlines()[1:]
        runs = []
        monkeypatch.setattr(engine, "run", lambda *a, _run=engine.run, **k: runs.append(k) or _run(*a, **k))
        both = sim_csv(tmp_path, "both.csv", base + ["--mode", "both"]).splitlines()[1:]
        monkeypatch.undo()
        assert len(runs) == 2 * 12 and all(k["t_max"] == int(t_max) for k in runs)
        arcnc = [line for q in (0, 1) for line in both[24 * q : 24 * q + 12]]
        rlnc = [line for q in (0, 1) for line in both[24 * q + 12 : 24 * q + 24]]
        assert rlnc == alone

        def fields(line):  # mode, family params, q, trial, success, t_n, ...
            return line.split(b":", 1)[1].split(b",")

        assert [fields(a)[5] == b"0" for a in arcnc] == [fields(r)[4] == b"1" for r in rlnc]
        if t_max == "0":
            assert {fields(a)[4] for a in arcnc} == {b"0", b"1"}


def test_mode_both_on_a_cyclic_family_exits_2(tmp_path, capsys):
    for topology in (["--topology", "shuttle"],
                     ["--topology", "rgg_cyclic", "--nodes", "12", "--sinks", "3", "--radius", "0.5"]):
        out = tmp_path / "rows.csv"
        rc = main(["sim", *topology, "--q", "2", "--trials", "3", "--mode", "both", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and not out.exists() and captured.out == ""
        assert captured.err == "error: one-shot baseline is restricted to acyclic networks\n"


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
    # sizes at which the exact alternating sums did not finish in a minute
    assert main(["bounds", "et", "--m", "2000", "--q", "2"]) == 0
    assert "et_ub  11.2989" in capsys.readouterr().out
    assert main(["bounds", "var", "--n", "2000", "--m", "1000", "--q", "2"]) == 0
    assert main(["bounds", "etn", "--d", str(10**400), "--q", "2", "--eta", "3"]) == 0
    assert "et_n_ub  1329" in capsys.readouterr().out
    # an int parameter of more than 15 digits prints as a mantissa and a power
    # of ten; in full, d = C(n, m) took thousands of characters or, past
    # 4300 digits, could not be printed at all
    for n, d in (("100000", "5.48725e+4255"), (str(10**400), "3.01543e+794264")):
        assert main(["bounds", "var", "--n", n, "--m", "2000", "--q", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 300 and f", d={d}," in lines[0]
    assert main(["bounds", "et", "--m", "0", "--q", "2"]) == 2
    assert main(["bounds", "rlnc-q", "--d", "5", "--target", "0.9"]) == 2
    capsys.readouterr()
    # a missing flag is named in a one-line message, not a TypeError's text
    for argv, missing in [
        (["et", "--m", "2"], "--q"),
        (["etn", "--d", "3"], "--q, --eta"),
        (["var", "--n", "3"], "--m, --q"),
        (["sparsified"], "--m, --q"),
        (["umbrella", "--alpha", "3"], "--beta, --q"),
        (["rlnc-q", "--j", "1"], "--d, --target"),
    ]:
        assert main(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bounds {argv[0]} needs {missing}\n"
    assert main(["bounds", "umbrella", "--alpha", "5", "--beta", "3", "--q", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: give --q-r (one-shot field size) or --epsilon")


_HOSTILE_SIZES = (0, -1, 1, 2000, 10**400)
_HOSTILE_QS = (1, 2, 3, 2**16, 10**400)
# the bounds flags that take no hostile value
_BOUNDS_FIXED = {"alpha": "5", "beta": "3", "target": "0.99"}


def test_bounds_hostile_values(capsys):
    # every bounds kind at hostile sizes and field sizes: exit 0 or 2 with at
    # most one stderr line, no traceback, each call under the ceiling (the
    # slowest, var at n = 10^400 and m = 2000, took about 0.9 s on a shared
    # 2-vCPU host, in the two exact C(n, m) of some 800,000 digits; the
    # rest took about 7 ms at most); a size past the float range of the
    # series exits 2 naming its flag
    ceiling_s = 2.0
    calls = 0
    for kind, needs in cli._BOUNDS_NEEDS.items():
        extra = {"umbrella": ["--epsilon", "0.01"]}.get(kind, [])
        hostile = [f for f in needs if f not in _BOUNDS_FIXED]
        if kind == "rlnc-q":
            hostile.append("eta")
        for values in itertools.product(
            *(_HOSTILE_QS if f == "q" else _HOSTILE_SIZES for f in hostile)
        ):
            flags = dict(_BOUNDS_FIXED, **dict(zip(hostile, map(str, values))))
            argv = ["bounds", kind, *extra]
            for f in dict.fromkeys([*needs, *hostile]):
                argv += [f"--{f}", flags[f]]
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            label = " ".join(a[:12] for a in argv)
            assert code in (0, 2), label
            assert err.count("\n") <= 1 and "Traceback" not in err, label
            assert elapsed < ceiling_s, label
            too_big = [f for f in ("m", "eta") if flags.get(f) == str(10**400)]
            if too_big:
                assert code == 2 and re.search(rf"\b{too_big[0]}\b", err), label
            calls += 1
    assert calls > 300


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
    ["--q", "2,2"],  # would run the batch twice
])
def test_bad_run_limits_exit_2_before_any_trial(flags, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sim", "--topology", "shuttle", "--q", "2", "--trials", "2", "--out", str(out), *flags])
    assert rc == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flags[0] in captured.err


@pytest.mark.parametrize("q_list, entry", [("2,,4", "''"), ("abc", "'abc'"), ("2,", "''")])
def test_non_integer_q_entry_exits_2_naming_flag_and_entry(q_list, entry, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["sim", "--topology", "shuttle", "--q", q_list, "--trials", "2", "--out", str(out)])
    assert rc == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --q entry {entry} is not an integer\n"


def test_unwritable_out_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    # the CSV is written after the last trial, so a path it cannot be
    # written to is refused before the first one
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    for out in (tmp_path / "missing" / "rows.csv", tmp_path):
        rc = main(["sim", "--topology", "shuttle", "--q", "2", "--trials", "300", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --out ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_failed_run_keeps_an_existing_csv(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rows.csv"
    out.write_text("kept\n")

    def failing_trials(*args, **kwargs):
        raise TrialError("trial 0 broke")

    monkeypatch.setattr(cli, "run_trials", failing_trials)
    assert main(["sim", "--topology", "shuttle", "--q", "2", "--trials", "3", "--out", str(out)]) == 4
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("line", ["trials=-1", "t_max=-2", "max_fail_rate=2", "workers=0", "q=4,2,4"])
def test_bad_run_limits_from_config_exit_2(line, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"family=shuttle\nq=2\n{line}\n")
    out = tmp_path / "rows.csv"
    assert main(["sim", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# graph reads its seed from --seed alone, and repro reads no config file
BAD_SEEDS = [("sim", "--seed", "-3"), ("sim", "ARCNC_SEED", "-5"), ("sim", "ARCNC_SEED", "abc"),
             ("sim", "config", "-1"), ("sim", "config", "abc"),
             ("repro", "--seed", "-3"), ("repro", "ARCNC_SEED", "-5"), ("repro", "ARCNC_SEED", "abc"),
             ("graph", "--seed", "-3")]


@pytest.mark.parametrize("command, source, value", BAD_SEEDS)
def test_bad_seed_exits_2_naming_its_source(command, source, value, tmp_path, capsys, monkeypatch):
    # a seed that is not a non-negative integer is refused before any file is
    # written, naming the flag, config key or variable it came from
    out = tmp_path / "out"
    argv = {
        "sim": ["sim", "--topology", "shuttle", "--q", "2", "--trials", "2", "--out", str(out)],
        "repro": ["repro", "shuttle-q-sweep", "--trials", "2", "--out-dir", str(out)],
        "graph": ["graph", "--topology", "shuttle", "--out", str(out)],
    }[command]
    if source == "--seed":
        argv += ["--seed", value]
        named = f"--seed must be a non-negative integer, got {value}"
    elif source == "ARCNC_SEED":
        monkeypatch.setenv("ARCNC_SEED", value)
        named = f"ARCNC_SEED must be a non-negative integer, got {value if value != 'abc' else repr(value)}"
    else:
        conf = tmp_path / "run.conf"
        conf.write_text(f"seed={value}\n")
        argv += ["--config", str(conf)]
        named = ("config key 'seed' must be a non-negative integer, got -1" if value == "-1"
                 else "config key 'seed' must be an integer, got 'abc'")
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {named}\n"


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["sim", "graph"])
def test_bad_radius_exits_2_naming_the_flag(command, radius, tmp_path, capsys):
    # a radius that is not positive and finite is refused before any graph is
    # drawn: nan would reject every draw, inf would connect every pair
    out = tmp_path / "out"
    argv = [command, "--topology", "rgg_cyclic", "--nodes", "25", "--sinks", "12",
            f"--radius={radius}", "--seed", "1", "--out", str(out)]
    if command == "sim":
        argv += ["--trials", "2"]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --radius must be a positive finite number, got {float(radius)}\n"


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
def test_bad_radius_from_config_exits_2_naming_the_key(radius, tmp_path, capsys):
    # the same check as the flag's, but the message names the config key
    conf = tmp_path / "run.conf"
    conf.write_text(f"family=rgg_cyclic\nnodes=25\nsinks=12\nradius={radius}\nq=2\ntrials=2\n")
    out = tmp_path / "rows.csv"
    assert main(["sim", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: config key 'radius' must be a positive finite number, got {float(radius)}\n"
    )


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

    def decode(field, m, hists, x, sinks):
        # x_0[0], lane 0 of the packed x_0: every sink's decoded x_0 disagrees
        return real(field, m, hists, [x[0] ^ 1, *x[1:]], sinks)

    monkeypatch.setattr(engine, "sequential_decode", decode)
    return ["--topology", "shuttle", "--q", "2"]


def _mask_with_delay_free_cycle(monkeypatch):
    monkeypatch.setattr(netgraph, "zero_init_mask", lambda net: frozenset())
    return ["--topology", "rgg-cyclic", "--nodes", "10", "--sinks", "2", "--radius", "0.5",
            "--q", "2"]


def _decodability_fires_at_t0(monkeypatch):
    # every sink "decodes" at t=0, so the decoder solve meets a system with no solution
    monkeypatch.setattr(engine, "decodability_test", lambda sink, rows: True)
    return ["--topology", "shuttle", "--q", "2"]


@pytest.mark.parametrize("fault", [_wrong_first_row, _mask_with_delay_free_cycle, _decodability_fires_at_t0])
def test_internal_check_failure_exits_4_and_names_the_trial(fault, monkeypatch, capsys):
    topology = fault(monkeypatch)
    rc = main(["sim", *topology, "--trials", "3", "--seed", "5"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: internal check failed: ") and err.count("\n") == 1
    assert "(seed=5, q=2, trial=0)" in err


def test_trace_script_exits_1_on_a_wrong_stream(monkeypatch, capsys):
    # CI runs the script as an end-to-end decode check and relies on its exit code
    script = str(Path(__file__).resolve().parents[1] / "scripts" / "trace_shuttle.py")
    monkeypatch.setattr(sys, "argv", ["trace_shuttle.py", "--q", "2", "--seed", "7"])
    runpy.run_path(script, run_name="__main__")  # returns: exit status 0
    assert capsys.readouterr().out.count("exact=True") == 2
    _wrong_first_row(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(script, run_name="__main__")
    # a message as the exit code: the interpreter prints it and exits 1
    assert str(exc.value.code).startswith("error: sequential decoding at sink 1 disagreed")


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


def test_repro_groups_sink_sweeps_from_the_specs():
    sizes = {name: [len(specs) for specs, _ in simulate.sink_sweeps(points)]
             for name, points in cli._figure_presets().items()}
    assert sizes.pop("rgg-acyclic") == sizes.pop("rgg-cyclic") == [11]
    assert sizes.pop("rgg-node-sweep") == [1] * 16
    assert all(set(groups) == {1} for groups in sizes.values())

    # a change of field size, family or any parameter but sinks ends a sweep
    def rgg(family, sinks, radius=0.4):
        return TopologySpec(family, {"nodes": 12, "sinks": sinks, "radius": radius})

    points = [(rgg("rgg_acyclic", 2), 4), (rgg("rgg_acyclic", 3), 4), (rgg("rgg_acyclic", 4), 2),
              (rgg("rgg_cyclic", 4), 2), (rgg("rgg_cyclic", 5, 0.5), 2), (rgg("rgg_cyclic", 2, 0.5), 2)]
    assert [(len(specs), q) for specs, q in simulate.sink_sweeps(points)] == [(2, 4), (1, 2), (1, 2), (2, 2)]


@pytest.mark.parametrize("family", ["rgg_acyclic", "rgg_cyclic"])
def test_sink_sweep_rows_equal_its_points_run_alone(family):
    specs = [TopologySpec(family, {"nodes": 14, "sinks": s, "radius": 0.5}) for s in (4, 2, 6, 2)]
    for mode in ("arcnc", "both") if family == "rgg_acyclic" else ("arcnc",):
        swept = run_trials(specs, 4, 5, master_seed=3, mode=mode)
        alone = [row for spec in specs for row in run_trials(spec, 4, 5, master_seed=3, mode=mode)]
        assert len(swept) == len(alone) == 4 * 5 * (2 if mode == "both" else 1)
        assert [r.to_csv() for r in swept] == [r.to_csv() for r in alone]


def _first_point_without_an_instance(points, trials, seed, attempts):
    """(trial, message) of the first point that gen_rgg finds no instance
    for, running every trial of one point before the next point."""
    for spec, q in points:
        p = spec.params
        for trial in range(trials):
            try:
                gen_rgg(p["nodes"], p["sinks"], p["radius"], spec.family == "rgg_cyclic",
                        trial_rng(seed, q, trial, stream=1), max_attempts=attempts)
            except TopologyError as exc:
                return trial, str(exc)
    return None


@pytest.mark.parametrize("order", [(2, 6), (6, 2)])
def test_a_sink_sweep_without_an_instance_names_the_first_such_point(order, tmp_path, monkeypatch, capsys):
    # two candidates per trial at seed 1: the 6-sink point finds no
    # instance in trial 0 and the 2-sink point none in trial 2, so the sweep
    # meets the 6-sink point's failure first, yet names the first point in
    # preset order that has none, as running point by point does
    monkeypatch.setattr(topologies, "MAX_ATTEMPTS", 2)
    points = [(TopologySpec("rgg_acyclic", {"nodes": 10, "sinks": s, "radius": 0.4}), 4) for s in order]
    by_sinks = {spec.params["sinks"]: [(spec, q)] for spec, q in points}
    assert _first_point_without_an_instance(by_sinks[6], 4, 1, 2)[0] == 0
    assert _first_point_without_an_instance(by_sinks[2], 4, 1, 2)[0] == 2
    _, message = _first_point_without_an_instance(points, 4, 1, 2)
    assert f"sinks={order[0]}," in message
    monkeypatch.setattr(cli, "_figure_presets", lambda: {"tiny": points})
    rc = main(["repro", "tiny", "--trials", "4", "--seed", "1", "--no-validate", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == f"error: {message}\n" and captured.out == ""
    assert not (tmp_path / "tiny.csv").exists()


def test_a_serial_run_imports_no_process_pool(tmp_path):
    code = ("import sys; from arcnc.cli import main; "
            "rc = main(['sim', '--topology', 'shuttle', '--trials', '2', '--out', sys.argv[1]]); "
            "print(rc, 'multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "rows.csv")],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False False"


def _cap_address_space():
    # runs in the child alone: 2 GiB of address space, far below what any
    # of the oversized topologies below would take to build
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["sim", "--topology", "combination", "--n", "40", "--m", "20"], "--n/--m"),
        (["graph", "--topology", "umbrella", "--alpha", "2000001", "--beta", "2000000"], "--alpha/--beta"),
        (["sim", "--topology", "rgg_cyclic", "--nodes", "200000", "--sinks", "3", "--radius", "0.4"], "--nodes"),
    ],
)
def test_oversized_topology_exits_2_before_it_allocates(argv, flags):
    # checked from the parameters: one line naming the flags, no MemoryError
    # traceback, and no time spent building (about 0.3 s, mostly imports)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "arcnc.cli", *argv], capture_output=True, text=True,
                          preexec_fn=_cap_address_space, timeout=60)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 2 and proc.stdout == ""
    assert re.fullmatch(f"error: {flags} too large: [^\n]*\n", proc.stderr), proc.stderr
    assert elapsed < 3


@pytest.mark.parametrize("command", [["sim", "--trials", "2"], ["graph"]])
def test_a_topology_that_runs_out_of_memory_exits_2(command, monkeypatch, capsys):
    # inside the size budget a build can still run out of memory: one line,
    # exit 2, no traceback
    def build(n, m):
        raise MemoryError

    monkeypatch.setattr(topologies, "gen_combination", build)
    assert main([*command, "--topology", "combination", "--n", "6", "--m", "3"]) == 2
    assert capsys.readouterr().err == "error: topology too large\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "arcnc.cli", "bounds", "et", "--m", "2", "--q", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "et_ub" in proc.stdout
