"""Seeded trial batches shared by the command line and the test suite.

Per-trial generators derive from (master_seed, q, trial, stream) through
numpy's SeedSequence, so a batch is reproducible byte for byte no matter
how trials are split across workers. Random-geometry families consume a
separate stream for the graph than for the protocol run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import engine, metrics, rlnc
from .netgraph import multicast_rate
from .topologies import TopologySpec, build_topology

__all__ = [
    "ResultRow",
    "SummaryRow",
    "TrialError",
    "trial_rng",
    "run_trials",
    "summarize",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = "topology,family_params,q,trial,success,t_n,t_avg,w_avg,sink_t_r_json,runtime_ms"


class TrialError(RuntimeError):
    """An internal check failed inside one trial; the message names the
    (seed, q, trial) that replays it."""


@dataclass
class ResultRow:
    topology: str
    family_params: str
    q: int
    trial: int
    success: bool
    t_n: int | None
    t_avg: float | None
    w_avg: float | None
    sink_t_r: list
    runtime_ms: int = 0

    def to_csv(self) -> str:
        def num(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return format(v, ".10g")
            return str(v)

        sink_json = json.dumps(self.sink_t_r, separators=(",", ":"))
        return ",".join(
            [
                self.topology,
                self.family_params,
                str(self.q),
                str(self.trial),
                "1" if self.success else "0",
                num(self.t_n),
                num(self.t_avg),
                num(self.w_avg),
                f'"{sink_json}"',
                str(self.runtime_ms),
            ]
        )


@dataclass
class SummaryRow:
    topology: str
    q: int
    trials: int
    successes: int
    t_avg_mean: float | None
    t_avg_stderr: float | None
    w_avg_mean: float | None
    w_avg_stderr: float | None

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


def trial_rng(master_seed: int, q: int, trial: int, stream: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(q, trial, stream))
    return np.random.default_rng(ss)


def _family_params(spec: TopologySpec) -> str:
    return ";".join(f"{k}={spec.params[k]}" for k in sorted(spec.params)) or "-"


def _trial_row(mode, net, rate, q, rng, t_max, validate) -> tuple:
    """The result fields of one trial of one mode, after the trial index."""
    if mode == "rlnc":
        ok = rlnc.rlnc_run(net, q, rng, m=rate)
        bits = math.ceil(math.log2(q))
        if ok:
            return True, 0, 0.0, float(bits), [0] * len(net.sinks)
        return False, None, None, None, [None] * len(net.sinks)
    tr = engine.run(net, q, t_max=t_max, rng=rng, m=rate, validate_decoding=validate)
    return (
        tr.success,
        tr.t_n,
        metrics.t_avg(tr) if tr.success else None,
        metrics.w_avg(tr, q) if tr.success else None,
        [tr.t_r.get(r) for r in tr.sink_order],
    )


def run_trials(
    spec: TopologySpec,
    q: int,
    trials: int,
    master_seed: int,
    t_max: int = 64,
    mode: str = "arcnc",
    validate: bool = True,
    timings: bool = False,
    trial_range=None,
) -> list[ResultRow]:
    """Run a seeded batch over one topology and one field size.

    mode 'arcnc' runs the adaptive code, 'rlnc' the one-shot baseline
    (acyclic networks only), and 'both' runs the two modes of each trial on
    one network, one multicast rate and one engine layout, and returns
    every arcnc row, then every rlnc row. trial_range restricts to a slice
    of the trial indices without changing any trial's seed. With timings, a
    row's runtime_ms counts its own run, and the first mode's row of a
    random-family trial also counts building that trial's network and
    multicast rate.
    """
    if mode not in ("arcnc", "rlnc", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    modes = ("arcnc", "rlnc") if mode == "both" else (mode,)
    random_family = spec.family.startswith("rgg")
    net = None if random_family else build_topology(spec)
    rate = None if net is None else multicast_rate(net)
    labels = {run_mode: f"{spec.label()}:{run_mode}" for run_mode in modes}
    params = _family_params(spec)
    rows = {run_mode: [] for run_mode in modes}
    indices = range(trials) if trial_range is None else trial_range
    for trial in indices:
        started = time.perf_counter()
        try:
            if random_family:
                graph_rng = trial_rng(master_seed, q, trial, stream=1)
                net = build_topology(spec, rng=graph_rng)
                rate = multicast_rate(net)
            for run_mode in modes:
                rng = trial_rng(master_seed, q, trial, stream=0)
                row = ResultRow(labels[run_mode], params, q, trial,
                                *_trial_row(run_mode, net, rate, q, rng, t_max, validate))
                if timings:
                    now = time.perf_counter()
                    row.runtime_ms = int(round((now - started) * 1000))
                    started = now
                rows[run_mode].append(row)
        except (engine.DecodeMismatch, AssertionError) as exc:
            raise TrialError(f"trial (seed={master_seed}, q={q}, trial={trial}): {exc}") from exc
    return [row for run_mode in modes for row in rows[run_mode]]


def summarize(rows) -> list[SummaryRow]:
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.topology, row.q), []).append(row)
    out = []
    for (topology, q), members in sorted(groups.items()):
        good = [r for r in members if r.success]
        t_vals = np.array([r.t_avg for r in good], dtype=float)
        w_vals = np.array([r.w_avg for r in good], dtype=float)

        def stats(vals):
            if vals.size == 0:
                return None, None
            mean = float(vals.mean())
            err = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            return mean, err

        tm, te = stats(t_vals)
        wm, we = stats(w_vals)
        out.append(SummaryRow(topology, q, len(members), len(good), tm, te, wm, we))
    return out


def write_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")
