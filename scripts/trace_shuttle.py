#!/usr/bin/env python3
"""Step through one adaptive run on the shuttle network with a full trace.

Prints every drawn coefficient, every edge symbol, and every acknowledgment,
then solves the decoders and recovers the source stream. Handy for seeing
the cyclic zero mask and the per-edge kernel freeze in action. Exits 1
when any sink's decoded stream differs from the source stream.
"""

import argparse
import sys

import numpy as np

from arcnc.engine import DecodeMismatch, Engine, decode_streams
from arcnc.topologies import gen_shuttle


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    net = gen_shuttle()
    print(net)
    print("zero mask:", sorted(f"({net.edge_label(a)},{net.edge_label(b)})" for a, b in net.zero_mask))
    eng = Engine(net, args.q, rng=np.random.default_rng(args.seed), tracing=True)
    t = 0
    while eng.done_t is None and t <= 64:
        eng.step(t)
        t += 1
    for line in eng.trace_lines:
        print(line)
    print(f"first decoding times: {eng.t_r}, kernel degrees: {eng.l_v}")

    for _ in range(10):  # keep data flowing so both sinks decode a window
        eng.step(eng.t_next)
    try:
        decoded = decode_streams(eng)
    except DecodeMismatch as err:
        sys.exit(f"error: {err}")
    for r, xs in decoded.items():
        print(f"sink {r}: decoded {len(xs)} messages with delay {eng.t_r[r]}, exact=True")


if __name__ == "__main__":
    main()
