"""arcnc benchmark: seeded sweep workloads through the `arcnc` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate-decode --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload wide-rank --seed 1 --seconds 30 --trace 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
the same metrics by name with their units, the provenance of the run and
the CSV digest of every round. Exit code 0 when every round ran and every
output check passed, 1 when one failed, 2 when the checkout has no
`src/arcnc` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
# Processes that only import and build the fields, for a median setup_s.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def spawn(args, mode: str, src: str) -> dict:
    out_dir = os.path.join(os.getcwd(), ".perfbench_tmp", f"{os.getpid()}-{mode}")
    env = {k: v for k, v in os.environ.items() if k not in ("ARCNC_SEED", "PYTHONPATH")}
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--src", src, "--out-dir", out_dir,
        "--spawned-ns", str(time.monotonic_ns()),
    ]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def provenance(src: str, seed: int, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    git_sha = None
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        git_sha = proc.stdout.decode().strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "arcnc", "__init__.py")):
        print("error: no src/arcnc here; run from the root of an arcnc checkout",
              file=sys.stderr)
        return 2

    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = spawn(args, "trace", src)
            metrics = result["trace"]
        else:
            probes = [spawn(args, "setup", src) for _ in range(SETUP_PROBES)]
            result = spawn(args, "run", src)
            setups = [p["setup_s"] for p in probes + [result]]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(os.getcwd(), ".perfbench_tmp"), ignore_errors=True)

    rounds = result["rounds"]
    error = result["error"]
    attempted = result["attempted"]
    if not args.trace:
        done = [r for r in rounds if r["trials"]]
        rates = [r["trials"] / r["wall_s"] * r["host_factor"] for r in done]
        metrics = {
            "trials_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    failed = attempted - sum(r["trials"] for r in rounds) if error else 0

    print("provenance " + json.dumps(provenance(src, args.seed, result["numpy"])))
    for r in rounds:
        print(f"round seed={r['seed']} trials={r['trials']} wall_s={r['wall_s']} "
              f"host_factor={r['host_factor']} sha256={r['sha256']}")
    if result.get("missing_layers"):
        print("layers absent from this version: " + ", ".join(result["missing_layers"]))
    if error:
        print(f"error: {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace and done:
        print(f"trials_per_wall_s {sum(r['trials'] for r in done) / sum(r['wall_s'] for r in done)} 1/s")
        print(f"host_factor {statistics.median(r['host_factor'] for r in done)} ratio")
    print(f"error_rate {failed / attempted if attempted else 1.0} ratio")
    print(json.dumps({"correct": error is None, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
