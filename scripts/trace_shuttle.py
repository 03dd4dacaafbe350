#!/usr/bin/env python3
"""Step through one adaptive run on the shuttle network with a full trace.

Prints every drawn coefficient, every edge symbol, and every acknowledgment,
then solves the decoders and recovers the source stream. Handy for seeing
the cyclic zero mask and the per-edge kernel freeze in action. Exits 1
when any sink's decoded stream differs from the injected one.
"""

import argparse
import sys

import numpy as np

from arcnc.engine import Engine
from arcnc.polymatrix import pack, sequential_decode
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
    x_packed = [pack(eng.field.k, x) for x in eng.x]
    exact = True
    for r in eng.sink_order:
        dec = eng.build_decoder(r)
        decoded = sequential_decode(dec, dec.y_row, dec.blocks)
        ok = decoded == x_packed[: len(decoded)]
        exact &= ok
        print(f"sink {r}: decoded {len(decoded)} messages with delay {dec.t_r}, exact={ok}")
    if not exact:
        sys.exit(1)


if __name__ == "__main__":
    main()
