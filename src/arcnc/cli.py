"""Command-line experiment runner.

Subcommands: `sim` runs seeded trial batches and writes per-trial CSV plus
a summary table; `bounds` prints the closed-form bounds; `graph` exports a
topology as DOT; `repro` runs the named preset parameter sweeps. Exit codes:
0 on success, 2 on configuration errors (a random family that yields no
valid instance included), 3 when the failure rate exceeds --max-fail-rate,
4 when an internal check fails (a decode mismatch, the symbol identity, the
propagation fixpoint or the zero mask); that message names the
(seed, q, trial) to replay.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import metrics, rlnc
from .netgraph import to_dot
from .simulate import ResultRow, TrialError, run_trials, summarize, write_csv
from .topologies import FAMILIES, TopologyError, TopologySpec, build_topology


def _build_spec(args) -> TopologySpec:
    family = args.topology.replace("-", "_")
    if family not in FAMILIES:
        raise SystemExit(f"error: unknown topology {args.topology!r}")
    params = {}
    for key in FAMILIES[family]:
        val = getattr(args, key, None)
        if val is None:
            raise SystemExit(f"error: topology {family} needs --{key}")
        params[key] = val
    return TopologySpec(family, params)


def _master_seed(args) -> int:
    """ARCNC_SEED in the environment overrides --seed and a config seed; 0 by default."""
    env_seed = os.environ.get("ARCNC_SEED")
    return int(env_seed) if env_seed is not None else (args.seed or 0)


def _load_config(path: str) -> dict:
    conf = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"error: config line {line!r} is not key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            conf[key.replace("-", "_")] = val
    return conf


def _merge_config(args, conf: dict) -> None:
    casts = {
        "n": int, "m": int, "alpha": int, "beta": int, "nodes": int, "sinks": int,
        "radius": float, "seed": int, "trials": int, "t_max": int, "workers": int,
        "max_fail_rate": float, "q": str, "topology": str, "family": str,
        "mode": str, "out": str,
    }
    for key, raw in conf.items():
        dest = "topology" if key == "family" else key
        if dest not in casts:
            raise SystemExit(f"error: unknown config key {key!r}")
        if getattr(args, dest, None) is None:
            setattr(args, dest, casts[dest](raw))


def _parse_q_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        q = int(part)
        if q < 2 or q & (q - 1) or q > 1 << 16:
            raise SystemExit(f"error: q must be a power of two in [2, 2^16], got {q}")
        out.append(q)
    return out


def _print_summary(summaries, file=None) -> None:
    """Print the summary table to `file`, or to sys.stdout as it is at call time."""
    cols = f"{'topology':<44} {'q':>5} {'trials':>6} {'ok%':>6} {'t_avg':>8} {'+/-':>7} {'w_avg':>8} {'+/-':>7}"
    print(cols, file=file)
    print("-" * len(cols), file=file)
    for s in summaries:
        t_m = "-" if s.t_avg_mean is None else f"{s.t_avg_mean:.3f}"
        t_e = "-" if s.t_avg_stderr is None else f"{s.t_avg_stderr:.3f}"
        w_m = "-" if s.w_avg_mean is None else f"{s.w_avg_mean:.3f}"
        w_e = "-" if s.w_avg_stderr is None else f"{s.w_avg_stderr:.3f}"
        print(
            f"{s.topology:<44} {s.q:>5} {s.trials:>6} {100 * s.success_rate:>5.1f}% "
            f"{t_m:>8} {t_e:>7} {w_m:>8} {w_e:>7}",
            file=file,
        )


def _run_batch(spec, q, trials, seed, t_max, mode, validate, timings, workers) -> list[ResultRow]:
    # a picklable call of run_trials; the trial range is its last argument
    batch = partial(run_trials, spec, q, trials, seed, t_max, mode, validate, timings)
    chunk = max(1, math.ceil(trials / workers))
    ranges = [range(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    if len(ranges) <= 1:
        return batch()
    # a forking pool starts all its workers at the first submit: one per chunk
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        # map keeps the chunks in trial order, so the rows come out as in one serial run
        return [row for rows in pool.map(batch, ranges) for row in rows]


def cmd_sim(args) -> int:
    if args.config:
        _merge_config(args, _load_config(args.config))
    if args.topology is None:
        raise SystemExit("error: --topology is required (flag or config)")
    args.seed = _master_seed(args)
    args.trials = args.trials if args.trials is not None else 1000
    args.t_max = args.t_max if args.t_max is not None else 64
    args.mode = args.mode or "arcnc"
    args.workers = args.workers if args.workers is not None else 1
    limit = args.max_fail_rate if args.max_fail_rate is not None else 1.0
    if args.trials < 0:
        raise SystemExit(f"error: --trials must be at least 0, got {args.trials}")
    if args.t_max < 0:
        raise SystemExit(f"error: --t-max must be at least 0, got {args.t_max}")
    if not 0 <= limit <= 1:
        raise SystemExit(f"error: --max-fail-rate must lie in [0, 1], got {limit}")
    if args.workers < 1:
        raise SystemExit(f"error: --workers must be at least 1, got {args.workers}")
    q_list = _parse_q_list(args.q or "2")
    spec = _build_spec(args)
    modes = ("arcnc", "rlnc") if args.mode == "both" else (args.mode,)
    rows = []
    for q in q_list:
        for mode in modes:
            rows.extend(
                _run_batch(spec, q, args.trials, args.seed, args.t_max, mode,
                           not args.no_validate, args.timings, args.workers)
            )
    if args.out:
        write_csv(rows, args.out)
    _print_summary(summarize(rows))
    failures = sum(1 for r in rows if not r.success)
    if rows and failures / len(rows) > limit:
        print(f"failure rate {failures / len(rows):.3f} exceeds {limit}", file=sys.stderr)
        return 3
    return 0


def cmd_bounds(args) -> int:
    kind = args.kind
    reports = []
    try:
        if kind == "et":
            reports.append(metrics.BoundReport("et_ub", {"m": args.m, "q": args.q_int},
                                               metrics.et_ub(args.m, args.q_int)))
            reports.append(metrics.BoundReport("et_lb", {"m": args.m, "q": args.q_int},
                                               metrics.et_lb(args.m, args.q_int)))
        elif kind == "etn":
            reports.append(metrics.BoundReport(
                "et_n_ub", {"d": args.d, "q": args.q_int, "eta": args.eta},
                metrics.et_n_ub(args.d, args.q_int, args.eta)))
        elif kind == "var":
            reports.append(metrics.var_t_avg_ub(args.n, args.m, args.q_int))
        elif kind == "sparsified":
            reports.append(metrics.sparsified_bounds(args.m, args.q_int))
            if args.n is not None and args.epsilon is not None:
                reports.append(metrics.BoundReport(
                    "sparsified_rlnc_bits_lb",
                    {"n": args.n, "m": args.m, "epsilon": args.epsilon},
                    rlnc.rlnc_field_bits_sparsified(args.n, args.m, args.epsilon)))
        elif kind == "umbrella":
            out = metrics.umbrella_bounds(args.alpha, args.beta, args.q_int,
                                          q_r=args.q_r, epsilon=args.epsilon)
            reports.extend(out.values())
        elif kind == "rlnc-q":
            count = args.j if args.j is not None else args.eta
            if count is None:
                raise ValueError("give --j (encoding nodes) or --eta (random links)")
            bound_kind = "per_node" if args.j is not None else "per_link"
            q = rlnc.rlnc_min_q_for_target(args.d, count, args.target, bound_kind)
            reports.append(metrics.BoundReport(
                "rlnc_min_q", {"d": args.d, "count": count, "target": args.target,
                               "kind": bound_kind, "log2_q": int(math.log2(q))}, float(q)))
        else:
            raise ValueError(f"unknown bounds kind {kind!r}")
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in reports)
    for r in reports:
        inner = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in r.params.items())
        print(f"{r.name:<{width}}  {r.value:<14.6g} [{inner}]")
    return 0


def cmd_graph(args) -> int:
    spec = _build_spec(args)
    if spec.family.startswith("rgg") and args.seed is None:
        raise SystemExit("error: random geometric topologies need --seed")
    net = build_topology(spec, np.random.default_rng(args.seed))
    dot = to_dot(net, name=spec.family)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def _figure_presets() -> dict:
    qs = (2, 4, 16, 256)
    presets = {}
    presets["combination-fixed-m"] = [
        (TopologySpec("combination", {"n": n, "m": 2}), q)
        for q in qs
        for n in (4, 6, 8, 10, 12, 14, 16)
    ]
    presets["combination-n2m"] = [
        (TopologySpec("combination", {"n": 2 * m, "m": m}), q)
        for q in qs
        for m in (2, 3, 4, 5, 6)
    ]
    presets["shuttle-q-sweep"] = [
        (TopologySpec("shuttle"), q) for q in (2, 4, 8, 16, 64, 256)
    ]
    presets["umbrella-beta-sweep"] = [
        (TopologySpec("umbrella", {"alpha": 5, "beta": b}), 4) for b in range(3, 11)
    ]
    presets["umbrella-alpha-sweep"] = [
        (TopologySpec("umbrella", {"alpha": a, "beta": 3}), 4) for a in range(5, 30, 4)
    ]
    presets["sparsified-flatness"] = [
        (TopologySpec("sparsified", {"n": n, "m": 2}), 2) for n in (6, 12, 24, 48)
    ]
    presets["rgg-acyclic"] = [
        (TopologySpec("rgg_acyclic", {"nodes": 25, "sinks": s, "radius": 0.4}), 4)
        for s in range(2, 13)
    ]
    presets["rgg-cyclic"] = [
        (TopologySpec("rgg_cyclic", {"nodes": 25, "sinks": s, "radius": 0.4}), 4)
        for s in range(2, 13)
    ]
    presets["rgg-node-sweep"] = [
        (TopologySpec(fam, {"nodes": n, "sinks": 3, "radius": 0.4}), 4)
        for fam in ("rgg_acyclic", "rgg_cyclic")
        for n in range(10, 46, 5)
    ]
    return presets


def _bound_rows_for(preset: str, points) -> list[str]:
    rows = ["topology,q,bound,value"]
    for spec, q in points:
        if spec.family == "combination":
            n, m = spec.params["n"], spec.params["m"]
            rows.append(f"{spec.label()},{q},et_ub,{metrics.et_ub(m, q):.10g}")
            rows.append(f"{spec.label()},{q},et_lb,{metrics.et_lb(m, q):.10g}")
            rows.append(f"{spec.label()},{q},var_t_avg_ub,"
                        f"{metrics.var_t_avg_ub(n, m, q).value:.10g}")
        elif spec.family == "sparsified":
            m = spec.params["m"]
            rep = metrics.sparsified_bounds(m, q)
            rows.append(f"{spec.label()},{q},sink_l_ub,{rep.value:.10g}")
            rows.append(f"{spec.label()},{q},intermediate_l_ub,"
                        f"{rep.params['intermediate_l_ub']:.10g}")
        elif spec.family == "umbrella":
            out = metrics.umbrella_bounds(spec.params["alpha"], spec.params["beta"], q,
                                          epsilon=0.01)
            for rep in out.values():
                rows.append(f"{spec.label()},{q},{rep.name},{rep.value:.10g}")
    return rows


def cmd_repro(args) -> int:
    presets = _figure_presets()
    if args.figure not in presets:
        known = ", ".join(sorted(presets))
        print(f"error: unknown figure id {args.figure!r}; known: {known}", file=sys.stderr)
        return 2
    seed = _master_seed(args)
    trials = args.trials if args.trials is not None else 1000
    if trials < 0:
        raise SystemExit(f"error: --trials must be at least 0, got {trials}")
    os.makedirs(args.out_dir, exist_ok=True)
    points = presets[args.figure]
    rows = []
    for spec, q in points:
        rows.extend(run_trials(spec, q, trials, seed, mode="arcnc",
                               validate=not args.no_validate))
    out_csv = os.path.join(args.out_dir, f"{args.figure}.csv")
    write_csv(rows, out_csv)
    bound_rows = _bound_rows_for(args.figure, points)
    if len(bound_rows) > 1:
        with open(os.path.join(args.out_dir, f"{args.figure}-bounds.csv"), "w") as fh:
            fh.write("\n".join(bound_rows) + "\n")
    _print_summary(summarize(rows))
    print(f"wrote {out_csv}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arcnc")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_flags(p):
        p.add_argument("--topology", type=str, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--alpha", type=int, default=None)
        p.add_argument("--beta", type=int, default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--sinks", type=int, default=None)
        p.add_argument("--radius", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)

    sim = sub.add_parser("sim", help="run seeded trial batches")
    add_topology_flags(sim)
    sim.add_argument("--q", type=str, default=None, help="comma list of field sizes")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--t-max", dest="t_max", type=int, default=None)
    sim.add_argument("--mode", choices=("arcnc", "rlnc", "both"), default=None)
    sim.add_argument("--out", type=str, default=None, help="per-trial CSV path")
    sim.add_argument("--config", type=str, default=None, help="key=value config file")
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--max-fail-rate", dest="max_fail_rate", type=float, default=None)
    sim.add_argument("--timings", action="store_true",
                     help="record wall-clock runtime_ms (breaks byte reproducibility)")
    sim.add_argument("--no-validate", action="store_true",
                     help="skip end-to-end decode validation per trial")
    sim.set_defaults(func=cmd_sim)

    bounds = sub.add_parser("bounds", help="print closed-form bounds")
    bounds.add_argument("kind", choices=("et", "etn", "var", "sparsified", "umbrella", "rlnc-q"))
    bounds.add_argument("--m", type=int, default=None)
    bounds.add_argument("--q", dest="q_int", type=int, default=None)
    bounds.add_argument("--q-r", dest="q_r", type=int, default=None)
    bounds.add_argument("--n", type=int, default=None)
    bounds.add_argument("--d", type=int, default=None)
    bounds.add_argument("--eta", type=int, default=None)
    bounds.add_argument("--j", type=int, default=None)
    bounds.add_argument("--alpha", type=int, default=None)
    bounds.add_argument("--beta", type=int, default=None)
    bounds.add_argument("--epsilon", type=float, default=None)
    bounds.add_argument("--target", type=float, default=None)
    bounds.set_defaults(func=cmd_bounds)

    graph = sub.add_parser("graph", help="export a topology as DOT")
    add_topology_flags(graph)
    graph.add_argument("--out", type=str, default=None)
    graph.set_defaults(func=cmd_graph)

    repro = sub.add_parser("repro", help="run a named preset parameter sweep")
    repro.add_argument("figure", type=str)
    repro.add_argument("--out-dir", dest="out_dir", type=str, default="repro-out")
    repro.add_argument("--trials", type=int, default=None)
    repro.add_argument("--seed", type=int, default=None)
    repro.add_argument("--no-validate", action="store_true")
    repro.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except (ValueError, OSError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrialError, AssertionError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
