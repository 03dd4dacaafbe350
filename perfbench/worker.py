"""One workload in one fresh process, driven through `arcnc.cli.main`.

Started by run.py, never by hand. The process prints nothing of its own
on standard output: file descriptor 1 is pointed at /dev/null before the
package is imported (cli._print_summary binds sys.stdout at import, so
contextlib.redirect_stdout would not catch the summary tables) and the one
JSON result line goes to a duplicate of the original descriptor.

A round runs the workload's commands once with one seed and writes their
CSVs. Round 0 always uses seed 0, whose CSV digest is pinned in
digests.json; later rounds use seeds derived from --seed, and their CSVs get
structural checks and a printed digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_SEED = 0
T_MAX = 64  # `sim` default; a decoded sink's t_r never exceeds it


class Command:
    """One `arcnc` invocation of a round and the CSV it must write."""

    def __init__(self, argv, csv_name, rows_per_q, qs, modes, point_count=1):
        self.argv = argv
        self.csv_name = csv_name
        self.qs = qs
        self.modes = modes
        self.expected_rows = rows_per_q * len(qs) * len(modes) * point_count

    def argv_for(self, seed: int, out_dir: str) -> list[str]:
        out = os.path.join(out_dir, self.csv_name)
        tail = ["--seed", str(seed)]
        if self.argv[0] == "repro":
            tail += ["--out-dir", out_dir]
        else:
            tail += ["--out", out]
        return [*self.argv, *tail]


def _sim(topology: list[str], q: str, trials: int, name: str, *flags, modes=("arcnc",)):
    argv = ["sim", *topology, "--q", q, "--trials", str(trials), *flags]
    return Command(argv, name, trials, q.split(","), modes)


# Trial counts are set so one round takes about 0.5-7 s on the reference
# machine of README.md.
WORKLOADS = {
    "validate-decode": {
        "fields": (2, 4, 256),
        "commands": (
            _sim(["--topology", "combination", "--n", "16", "--m", "2"], "2,256", 3,
                 "combination.csv"),
            _sim(["--topology", "umbrella", "--alpha", "29", "--beta", "3"], "4", 3,
                 "umbrella.csv"),
        ),
    },
    "wide-rank": {
        "fields": (2,),
        "commands": (
            _sim(["--topology", "combination", "--n", "12", "--m", "6"], "2", 6,
                 "combination.csv", "--no-validate"),
        ),
    },
    "rgg-sweep": {
        "fields": (4,),
        "commands": (
            Command(["repro", "rgg-cyclic", "--no-validate", "--trials", "8"],
                    "rgg-cyclic.csv", 8, ["4"], ("arcnc",), point_count=11),
            _sim(["--topology", "rgg_acyclic", "--nodes", "25", "--sinks", "6",
                  "--radius", "0.4"], "4", 16, "rgg-acyclic.csv",
                 "--mode", "both", "--no-validate", modes=("arcnc", "rlnc")),
        ),
    },
}

CSV_HEADER = b"topology,family_params,q,trial,success,t_n,t_avg,w_avg,sink_t_r_json,runtime_ms"


# On a shared 2-vCPU machine the speed of the same code drifts by tens of
# percent from one minute to the next, and CPU time drifts with wall time.
# So each round is bracketed by slices of a fixed calibration loop: small
# NumPy calls driven from Python, the mix of the package's hot paths, and
# no arcnc code. The host factor is the mean slice time over
# CALIBRATION_REF_S, a typical slice time on the reference machine of
# README.md; the round's time is divided by it.
CALIBRATION_REF_S = 0.025
CALIBRATION_SHARE = 0.03  # slices on each side, as a share of the last round


def host_factor(slices: int) -> float:
    import numpy as np

    exp = np.arange(512, dtype=np.int64)
    log = np.arange(256, dtype=np.int64)
    row = np.arange(1, 9, dtype=np.int64)
    total = 0.0
    for _ in range(slices):
        start = time.perf_counter()
        acc = 0
        for i in range(5000):
            prod = np.where(row == 0, 0, exp[log[row] + (i & 255)])
            acc ^= int(np.bitwise_xor.reduce(prod))
        total += time.perf_counter() - start
    return total / slices / CALIBRATION_REF_S


def logged_round(cli, workload, seed: int, out_dir: str, log: list):
    """run_round between two calibrations; appends its record to log and
    returns the error, if any."""
    slices = 1
    if log and log[-1]["wall_s"]:
        slices = max(1, round(log[-1]["wall_s"] * CALIBRATION_SHARE / CALIBRATION_REF_S))
    before = host_factor(slices)
    wall, trials, digest, error = run_round(cli, workload, seed, out_dir)
    host = (before + host_factor(slices)) / 2
    log.append({"seed": seed, "wall_s": wall, "trials": trials, "sha256": digest,
                "host_factor": host})
    return error


def round_seed(seed: int, index: int) -> int:
    return PINNED_SEED if index == 0 else seed * 1000 + index


def check_csv(data: bytes, cmd: Command) -> str | None:
    """Structural check of one CSV; returns a reason when it fails.

    Fields are taken by position from the right: the topology column holds
    unquoted commas (`combination(m=2,n=16):arcnc`), so csv.reader would
    split it. Only the quoted sink list, the next field from the right,
    contains commas as well, and it is the last one to open with `,"`.
    """
    lines = data.split(b"\n")
    if lines[0] != CSV_HEADER or lines[-1] != b"":
        return "bad header or missing final newline"
    rows = lines[1:-1]
    if len(rows) != cmd.expected_rows:
        return f"{len(rows)} rows, expected {cmd.expected_rows}"
    seen = {}
    for raw in rows:
        line = raw.decode()
        cut = line.rfind(',"')
        left, right = line[:cut], line[cut + 1 :]
        sinks_json, runtime = right.rsplit(",", 1)
        topo, _params, q, trial, success, t_n, _t_avg, _w_avg = left.rsplit(",", 7)
        mode = topo.rsplit(":", 1)[1]
        if runtime != "0" or q not in cmd.qs or mode not in cmd.modes:
            return f"unexpected row {line!r}"
        sinks = json.loads(json.loads(sinks_json))
        if success == "1":
            bad = not t_n.isdigit() or int(t_n) > T_MAX or max(sinks) != int(t_n)
        else:
            bad = success != "0" or t_n != ""
        if bad:
            return f"inconsistent row {line!r}"
        key = (topo, q)
        if int(trial) != seen.get(key, 0):
            return f"trial index out of order in {line!r}"
        seen[key] = int(trial) + 1
    return None


def run_round(cli, workload, seed: int, out_dir: str):
    """Run every command of one round; returns (wall_s, trials, digest, error)."""
    os.makedirs(out_dir, exist_ok=True)
    commands = WORKLOADS[workload]["commands"]
    start = time.perf_counter()
    for cmd in commands:
        rc = cli.main(cmd.argv_for(seed, out_dir))
        if rc != 0:
            return None, 0, None, f"exit code {rc} from {cmd.argv[0]} (seed {seed})"
    wall = time.perf_counter() - start
    digest = hashlib.sha256()
    trials = 0
    for cmd in commands:
        with open(os.path.join(out_dir, cmd.csv_name), "rb") as fh:
            data = fh.read()
        reason = check_csv(data, cmd)
        if reason is not None:
            return wall, 0, None, f"{cmd.csv_name} (seed {seed}): {reason}"
        digest.update(cmd.csv_name.encode() + b"\0" + data)
        trials += cmd.expected_rows
    return wall, trials, digest.hexdigest(), None


def pinned_digest(workload: str) -> str:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)[workload]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    sys.stdout.flush()
    result_fd = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    sys.path.insert(0, args.src)

    import numpy
    import arcnc
    from arcnc import cli
    from arcnc.gf import GF

    if not os.path.abspath(arcnc.__file__).startswith(args.src + os.sep):
        print(f"error: imported arcnc from {arcnc.__file__}, not {args.src}", file=sys.stderr)
        return 2
    if args.mode != "trace":
        for q in WORKLOADS[args.workload]["fields"]:
            GF.for_q(q)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    try:
        if args.mode == "run":
            out.update(measure(cli, args))
        elif args.mode == "trace":
            out.update(trace(cli, GF, args))
    finally:
        shutil.rmtree(args.out_dir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with os.fdopen(result_fd, "w") as fh:
        fh.write(json.dumps(out) + "\n")
    return 0


def _pinned_round(cli, args, log):
    error = logged_round(cli, args.workload, PINNED_SEED, args.out_dir, log)
    if error is None and log[-1]["sha256"] != pinned_digest(args.workload):
        error = f"seed {PINNED_SEED} CSV digest {log[-1]['sha256']} differs from digests.json"
        log[-1]["trials"] = 0
    return error


def measure(cli, args) -> dict:
    """Rounds until the next one would overrun --seconds (at least three)."""
    per_round = sum(c.expected_rows for c in WORKLOADS[args.workload]["commands"])
    rounds = []
    attempted = per_round
    started = time.perf_counter()
    try:
        error = _pinned_round(cli, args, rounds)
        while error is None:
            spent = time.perf_counter() - started
            if len(rounds) >= 3 and spent * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
            attempted += per_round
            error = logged_round(cli, args.workload, round_seed(args.seed, len(rounds)),
                                args.out_dir, rounds)
    except Exception as exc:  # a crash of the program under test fails its round
        error = f"{type(exc).__name__}: {exc}"
    return {"rounds": rounds, "attempted": attempted, "error": error}


def trace(cli, GF, args) -> dict:
    """One traced round with the first --seed round seed, the same round
    untraced for the overhead ratio and byte equality, then the pinned round.
    Both rounds of the ratio are divided by their host factor."""
    from tracing import Tracer

    seed = round_seed(args.seed, 1)
    per_round = sum(c.expected_rows for c in WORKLOADS[args.workload]["commands"])
    rounds = []
    attempted = 0
    error = None
    tracer = Tracer()
    try:
        traced_host = host_factor(1)
        tracer.install()
        try:
            with tracer:
                for q in WORKLOADS[args.workload]["fields"]:
                    GF.for_q(q)
                attempted += per_round
                _, _, traced_digest, error = run_round(cli, args.workload, seed, args.out_dir)
        finally:
            tracer.uninstall()
        traced_host = (traced_host + host_factor(1)) / 2
        if error is None:
            attempted += per_round
            error = logged_round(cli, args.workload, seed, args.out_dir, rounds)
            if error is None and rounds[0]["sha256"] != traced_digest:
                error = "traced and untraced rounds wrote different CSV bytes"
        if error is None:
            attempted += per_round
            error = _pinned_round(cli, args, rounds)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    if error is None and tracer.self_sum_ns() != tracer.wall_ns:
        error = f"span self times sum to {tracer.self_sum_ns()} ns, traced wall is {tracer.wall_ns} ns"
    metrics = {}
    if rounds:
        untraced = rounds[0]["wall_s"] / rounds[0]["host_factor"]
        metrics = tracer.metrics(tracer.wall_ns / 1e9 / traced_host / untraced)
    return {"rounds": rounds, "attempted": attempted, "error": error, "trace": metrics,
            "missing_layers": tracer.missing}


if __name__ == "__main__":
    sys.exit(main())
