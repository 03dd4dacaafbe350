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
    (acyclic networks only). trial_range restricts to a slice of the trial
    indices without changing any trial's seed.
    """
    if mode not in ("arcnc", "rlnc"):
        raise ValueError(f"unknown mode {mode!r}")
    random_family = spec.family.startswith("rgg")
    net = None if random_family else build_topology(spec)
    rate = None if net is None else multicast_rate(net)
    label = f"{spec.label()}:{mode}"
    params = _family_params(spec)
    rows = []
    indices = range(trials) if trial_range is None else trial_range
    for trial in indices:
        started = time.perf_counter()
        try:
            if random_family:
                graph_rng = trial_rng(master_seed, q, trial, stream=1)
                net_i = build_topology(spec, rng=graph_rng)
                rate_i = multicast_rate(net_i)
            else:
                net_i, rate_i = net, rate
            rng = trial_rng(master_seed, q, trial, stream=0)
            if mode == "rlnc":
                ok = rlnc.rlnc_run(net_i, q, rng, m=rate_i)
                bits = math.ceil(math.log2(q))
                rows.append(
                    ResultRow(
                        label,
                        params,
                        q,
                        trial,
                        ok,
                        0 if ok else None,
                        0.0 if ok else None,
                        float(bits) if ok else None,
                        [0] * len(net_i.sinks) if ok else [None] * len(net_i.sinks),
                    )
                )
            else:
                tr = engine.run(net_i, q, t_max=t_max, rng=rng, m=rate_i, validate_decoding=validate)
                rows.append(
                    ResultRow(
                        label,
                        params,
                        q,
                        trial,
                        tr.success,
                        tr.t_n,
                        metrics.t_avg(tr) if tr.success else None,
                        metrics.w_avg(tr, q) if tr.success else None,
                        [tr.t_r.get(r) for r in tr.sink_order],
                    )
                )
        except (engine.DecodeMismatch, AssertionError) as exc:
            raise TrialError(f"trial (seed={master_seed}, q={q}, trial={trial}): {exc}") from exc
        if timings:
            rows[-1].runtime_ms = int(round((time.perf_counter() - started) * 1000))
    return rows


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
