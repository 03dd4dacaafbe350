"""Seeded trial batches shared by the command line and the test suite.

Per-trial generators derive from (master_seed, q, trial, stream) through
numpy's SeedSequence, so a batch is reproducible byte for byte no matter
how trials are split across workers. Random-geometry families consume a
separate stream for the graph than for the protocol run. Neither stream
depends on the sink count, so the points of a sink sweep share each
trial's graph candidates, which one scan per trial serves; points that
take one graph share its layout and its max-flows, and those at one rate
its step 0 too. The one-shot baseline shares the adaptive run's draws, so
`--mode both` reads it off that run's step 0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import engine, metrics
from .netgraph import has_cycle, multicast_rates
from .topologies import TopologySpec, build_sweep, no_rgg_instance, sweep_key

__all__ = [
    "ResultRow",
    "SummaryRow",
    "TrialError",
    "trial_rng",
    "sink_sweeps",
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


def _one_shot_fields(success: bool, q: int, n_sinks: int) -> tuple:
    if success:
        return True, 0, 0.0, float(math.ceil(math.log2(q))), [0] * n_sinks
    return False, None, None, None, [None] * n_sinks


def _trial_rows(mode, net, rate, q, rng, t_max, validate, step0):
    """The result fields of one trial, mode by mode, after the trial index.

    Every mode runs the adaptive engine once. The one-shot baseline is that
    engine stopped at t=0, on the same draws, so its row succeeds iff every
    sink decoded at t=0: under 'rlnc' the engine runs step 0 alone,
    unvalidated, and under 'both' the row is read off the adaptive run.
    """
    if mode != "arcnc" and has_cycle(net):
        raise ValueError("one-shot baseline is restricted to acyclic networks")
    if mode == "rlnc":
        t_max, validate = 0, False
    tr = engine.run(net, q, t_max=t_max, rng=rng, m=rate, validate_decoding=validate, step0=step0)
    if mode != "rlnc":
        yield "arcnc", (
            tr.success,
            tr.t_n,
            metrics.t_avg(tr) if tr.success else None,
            metrics.w_avg(tr, q) if tr.success else None,
            [tr.t_r.get(r) for r in tr.sink_order],
        )
    if mode != "arcnc":
        yield "rlnc", _one_shot_fields(tr.t_n == 0, q, len(net.sinks))


def sink_sweeps(points) -> list[tuple[list[TopologySpec], int]]:
    """Consecutive (spec, q) points in sink sweeps: runs of one field size
    and one `sweep_key`, which `run_trials` runs on shared graphs. Every
    other point is a sweep of its own."""
    sweeps = []
    for spec, q in points:
        key = sweep_key(spec)
        if sweeps and key is not None and sweeps[-1][1] == q and sweep_key(sweeps[-1][0][0]) == key:
            sweeps[-1][0].append(spec)
        else:
            sweeps.append(([spec], q))
    return sweeps


def run_trials(
    spec,
    q: int,
    trials: int,
    master_seed: int,
    t_max: int = 64,
    mode: str = "arcnc",
    validate: bool = True,
    timings: bool = False,
    trial_range=None,
) -> list[ResultRow]:
    """Run a seeded batch over one topology, or one sink sweep, at one
    field size.

    spec is a TopologySpec or a list of them from `sink_sweeps`. A trial's
    graph stream is the same at every point of a sweep, so each trial
    builds the sweep's networks from one scan of it (`build_sweep`). The
    points that take one graph share its engine layout and cut each of its
    sinks once (`multicast_rates`), and those at one rate run step 0 once
    (`engine.Step0`, kept for one trial only); every point runs its own
    rank tests, acks and later steps. The rows come
    point by point, each point's as if run alone, and a point that has no
    instance in some trial raises TopologyError once the points before it
    have run every trial, so the error names the first such point.

    mode 'arcnc' runs the adaptive code, 'rlnc' the one-shot baseline
    (acyclic networks only), which is that code stopped at t=0, and 'both'
    runs the adaptive code once and reads the one-shot row off it (see
    `_trial_rows`); a point's rows are every arcnc row, then every rlnc
    row. trial_range restricts to a slice of the trial indices without
    changing any trial's seed. With timings, a row's runtime_ms counts its
    own derivation, and the first row of a random-family trial also counts
    building that trial's networks and multicast rates.
    """
    if mode not in ("arcnc", "rlnc", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    modes = ("arcnc", "rlnc") if mode == "both" else (mode,)
    specs = [spec] if isinstance(spec, TopologySpec) else list(spec)
    random_family = sweep_key(specs[0]) is not None
    nets = None if random_family else build_sweep(specs)
    rates = None if nets is None else multicast_rates(nets)
    labels = [{run_mode: f"{s.label()}:{run_mode}" for run_mode in modes} for s in specs]
    params = [_family_params(s) for s in specs]
    rows = [{run_mode: [] for run_mode in modes} for _ in specs]
    live = len(specs)  # the points still run: those before the first without an instance
    indices = range(trials) if trial_range is None else trial_range
    for trial in indices:
        started = time.perf_counter()
        try:
            if random_family:
                nets = build_sweep(specs[:live], trial_rng(master_seed, q, trial, stream=1))
                if None in nets:
                    live = nets.index(None)
                    if not live:
                        break
                    del nets[live:]
                rates = multicast_rates(nets)
            step0s = {}  # this trial's step 0 per graph and rate, when points may share it
            for k, (net, rate) in enumerate(zip(nets, rates)):
                rng = trial_rng(master_seed, q, trial, stream=0)
                step0 = step0s.setdefault((id(net.graph_cache), rate), engine.Step0()) if len(nets) > 1 else None
                for run_mode, fields in _trial_rows(mode, net, rate, q, rng, t_max, validate, step0):
                    row = ResultRow(labels[k][run_mode], params[k], q, trial, *fields)
                    if timings:
                        now = time.perf_counter()
                        row.runtime_ms = int(round((now - started) * 1000))
                        started = now
                    rows[k][run_mode].append(row)
        except (engine.DecodeMismatch, AssertionError) as exc:
            raise TrialError(f"trial (seed={master_seed}, q={q}, trial={trial}): {exc}") from exc
    if live < len(specs):
        raise no_rgg_instance(**specs[live].params)
    return [row for point in rows for run_mode in modes for row in point[run_mode]]


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
