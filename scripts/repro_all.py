#!/usr/bin/env python3
"""Run every figure preset and collect the CSVs under one output directory.

Full fidelity (1000 trials per point, the presets run unvalidated) took 6.0
minutes on one core of a shared 2-vCPU host (Python 3.11, NumPy 2.4),
3.3 of them on the wide combination-n2m points; pass --trials 100 for a
quick pass with wider error bars.
"""

import argparse
import sys
import time

from arcnc.cli import _figure_presets, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="repro-out")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--figures", nargs="*", default=None,
                        help="subset of preset names (default: all)")
    args = parser.parse_args()

    names = args.figures if args.figures else sorted(_figure_presets())
    for name in names:
        started = time.time()
        print(f"== {name}")
        rc = cli_main([
            "repro", name,
            "--out-dir", args.out_dir,
            "--trials", str(args.trials),
            "--seed", str(args.seed),
            "--no-validate",
        ])
        if rc != 0:
            return rc
        print(f"   done in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
