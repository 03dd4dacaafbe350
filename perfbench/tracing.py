"""Per-layer spans recorded from outside the package.

`Tracer.install()` wraps the public functions listed in `LAYERS` and puts
each wrapper in every `arcnc` namespace that holds the original object, so
a name bound at import (`from .polymatrix import build_M`) is traced where
it is looked up, not only where it is defined. Methods are wrapped on their
class. Nothing under `src/` is edited.

Spans are aggregated in memory as they close (calls and self time per
name, with a parent stack so a span's self time excludes its child spans)
and turned into metrics once, at the end of the traced region. Scalar
`GF.mul` / `GF.inv` are deliberately left unwrapped: they run millions of
times per workload, a wrapper would cost more than the call, and their time
stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

# (defining module, qualified name); the span name is "<module>.<qualname>".
LAYERS = (
    ("cli", "main"),
    ("simulate", "run_trials"),
    ("simulate", "trial_rng"),
    ("simulate", "write_csv"),
    ("topologies", "build_topology"),
    ("netgraph", "multicast_rate"),
    ("netgraph", "min_cut"),
    ("gf", "GF.for_q"),
    ("gf", "GF.mul_vec"),
    ("gf", "GF.mul_arrays"),
    ("engine", "run"),
    ("engine", "Engine.step"),
    ("engine", "Engine.rng_slots"),
    ("engine", "Engine.build_decoder"),
    ("polymatrix", "decodability_test"),
    ("polymatrix", "RankCache.advance"),
    ("polymatrix", "RankCache.track_columns"),
    ("polymatrix", "solve_decoder"),
    ("polymatrix", "build_M"),
    ("polymatrix", "sequential_decode"),
    ("rlnc", "rlnc_run"),
    ("rlnc", "rank_gf"),
)

# Per-layer metrics in the order they are reported (BENCHMARK.json lists
# the same names). A layer that does not run on a workload reports 0.
METRIC_UNITS = {
    "cli.main.self_s": "s",
    "simulate.run_trials.self_s": "s",
    "simulate.trial_rng.calls": "count",
    "simulate.trial_rng.self_s": "s",
    "simulate.write_csv.self_s": "s",
    "simulate.write_csv.bytes": "bytes",
    "topologies.build_topology.calls": "count",
    "topologies.build_topology.self_s": "s",
    "netgraph.multicast_rate.calls": "count",
    "netgraph.min_cut.calls": "count",
    "netgraph.min_cut.self_s": "s",
    "gf.GF.for_q.self_s": "s",
    "gf.GF.mul_vec.calls": "count",
    "gf.GF.mul_arrays.calls": "count",
    "gf.vector.self_s": "s",
    "engine.Engine.step.calls": "count",
    "engine.Engine.step.self_s": "s",
    "engine.Engine.rng_slots.self_s": "s",
    "engine.slots_drawn": "count",
    "engine.validation_step_share": "ratio",
    "engine.run.calls": "count",
    "engine.run.self_s": "s",
    "engine.run.p50_ms": "ms",
    "engine.run.p90_ms": "ms",
    "engine.Engine.build_decoder.self_s": "s",
    "polymatrix.decodability_test.calls": "count",
    "polymatrix.decodability_test.fire_ratio": "ratio",
    "polymatrix.stage1_pass_ratio": "ratio",
    "polymatrix.RankCache.track_columns.self_s": "s",
    "polymatrix.RankCache.advance.self_s": "s",
    "polymatrix.solve_decoder.calls": "count",
    "polymatrix.solve_decoder.self_s": "s",
    "polymatrix.build_M.self_s": "s",
    "polymatrix.sequential_decode.self_s": "s",
    "rlnc.rlnc_run.calls": "count",
    "rlnc.rlnc_run.self_s": "s",
    "rlnc.rank_gf.self_s": "s",
    "trace.wall_s": "s",
    "trace.root_self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.calls = {}  # span name -> count
        self.self_ns = {}  # span name -> summed self time
        self.run_ns = []  # duration of every engine.run span
        self.slots_drawn = 0
        self.validation_steps = 0  # Engine.step calls after t_n was reached
        self.fired = 0  # decodability tests that returned True
        self.csv_bytes = 0
        self.missing = []  # layers this version of the package lacks
        self._stack = []  # child-time accumulator per open span
        self._patches = []  # (owner, attr, original)
        self._root_start = None
        self.wall_ns = 0
        self.root_self_ns = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        calls[name] = 0
        self_ns[name] = 0
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                stack[-1] += dur
                calls[name] += 1
                self_ns[name] += dur - child
            if hook is not None:
                hook(args, result, dur)
            return result

        span.__wrapped__ = fn
        return span

    def _hooks(self):
        def rng_slots(args, result, dur):
            self.slots_drawn += len(result)

        def decodability(args, result, dur):
            self.fired += bool(result)

        def engine_run(args, result, dur):
            self.run_ns.append(dur)

        def write_csv(args, result, dur):
            with open(args[1], "rb") as fh:
                self.csv_bytes += len(fh.read())

        return {
            "engine.Engine.rng_slots": rng_slots,
            "polymatrix.decodability_test": decodability,
            "engine.run": engine_run,
            "simulate.write_csv": write_csv,
        }

    def _wrap_step(self, fn):
        inner = self._wrap("engine.Engine.step", fn)

        def step(eng, *args, **kwargs):
            # run() stops stepping at t_n unless it extends the stream to
            # validate decoding, so a step on a finished engine is validation
            if eng.done_t is not None:
                self.validation_steps += 1
            return inner(eng, *args, **kwargs)

        return step

    def install(self) -> None:
        hooks = self._hooks()
        package = [m for n, m in sys.modules.items() if n == "arcnc" or n.startswith("arcnc.")]
        for mod_name, qualname in LAYERS:
            name = f"{mod_name}.{qualname}"
            try:
                owner, attr = _resolve(importlib.import_module(f"arcnc.{mod_name}"), qualname)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif name == "engine.Engine.step":
                wrapped = self._wrap_step(raw)
            else:
                wrapped = self._wrap(name, raw, hooks.get(name))
            if isinstance(owner, type):
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._patches.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- root span ------------------------------------------------------------

    def __enter__(self):
        self._stack.append(0)
        self._root_start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.wall_ns = time.perf_counter_ns() - self._root_start
        self.root_self_ns = self.wall_ns - self._stack.pop()
        return False

    # -- results ----------------------------------------------------------------

    def self_sum_ns(self) -> int:
        """Self time of every span plus the root's own time; equals the
        traced wall time when every span closed inside the root."""
        return sum(self.self_ns.values()) + self.root_self_ns

    def metrics(self, overhead_ratio: float) -> dict:
        c, s = self.calls, self.self_ns

        def calls(name):
            return c.get(name, 0)

        def secs(*names):
            return sum(s.get(n, 0) for n in names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        def pct(p):
            if not self.run_ns:
                return 0.0
            if len(self.run_ns) == 1:
                return self.run_ns[0] / 1e6
            return statistics.quantiles(self.run_ns, n=100, method="inclusive")[p - 1] / 1e6

        tests = calls("polymatrix.decodability_test")
        steps = calls("engine.Engine.step")
        values = {
            "simulate.write_csv.bytes": self.csv_bytes,
            "gf.vector.self_s": secs("gf.GF.mul_vec", "gf.GF.mul_arrays"),
            "engine.slots_drawn": self.slots_drawn,
            "engine.validation_step_share": ratio(self.validation_steps, steps),
            "engine.run.p50_ms": pct(50),
            "engine.run.p90_ms": pct(90),
            "polymatrix.decodability_test.fire_ratio": ratio(self.fired, tests),
            "polymatrix.stage1_pass_ratio": ratio(calls("polymatrix.RankCache.advance"), tests),
            "trace.wall_s": self.wall_ns / 1e9,
            "trace.root_self_s": self.root_self_ns / 1e9,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in METRIC_UNITS.items():
            if name in values:
                val = values[name]
            elif name.endswith(".calls"):
                val = calls(name[: -len(".calls")])
            else:
                val = secs(name[: -len(".self_s")])
            out[name] = {"value": val, "unit": unit}
        return out
