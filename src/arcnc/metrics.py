"""Closed-form delay/memory bounds and empirical statistics.

The alternating-sum bounds are evaluated in exact rational arithmetic and
returned as floats; every bound function is pure and deterministic. The
exhaustive distribution oracle replays the protocol engine over every
possible kernel draw sequence on a tiny network and returns exact decoding
time tables, which anchor the closed forms and the Monte Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import product
from math import comb

from .engine import SOURCE_IDENTITY, SOURCE_RANDOM, Engine, classify_nodes
from .netgraph import Network, multicast_rate
from .rlnc import rlnc_field_bits_umbrella

__all__ = [
    "BoundReport",
    "t_avg",
    "w_avg",
    "et_ub",
    "et_lb",
    "et_n_ub",
    "count_random_links",
    "var_t_avg_ub",
    "combination_decode_dist",
    "sparsified_Lr_cdf",
    "sparsified_bounds",
    "umbrella_bounds",
    "exact_dist_oracle",
]


@dataclass
class BoundReport:
    """A named bound value with the parameters that produced it."""

    name: str
    params: dict = dataclass_field(default_factory=dict)
    value: float = 0.0

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner}) = {self.value:.6g}"


# -- empirical statistics --------------------------------------------------------


def t_avg(trace_or_traces) -> float:
    """Mean first decoding time over sinks; for a batch, the mean of the
    per-run means."""
    if hasattr(trace_or_traces, "t_r"):
        traces = [trace_or_traces]
    else:
        traces = list(trace_or_traces)
    if not traces:
        raise ValueError("no traces given")
    vals = []
    for tr in traces:
        if not tr.success:
            raise ValueError("t_avg needs successful traces")
        vals.append(sum(tr.t_r[r] for r in tr.sink_order) / len(tr.sink_order))
    return sum(vals) / len(vals)


def w_avg(trace, q: int) -> float:
    """ceil(log2 q)-weighted mean of (L_v + 1) over every node, source
    included; an all-constant code gives exactly ceil(log2 q)."""
    if not trace.success:
        raise ValueError("w_avg needs a successful trace")
    if len(trace.l_v) != trace.num_nodes:
        raise ValueError("trace is missing per-node kernel degrees")
    bits = math.ceil(math.log2(q))
    return bits * sum(trace.l_v[v] + 1 for v in range(trace.num_nodes)) / trace.num_nodes


# -- closed-form bounds ------------------------------------------------------------


def _et_ub_frac(m: int, q: int) -> Fraction:
    return sum(
        (Fraction((-1) ** (k - 1) * comb(m, k), q**k - 1) for k in range(1, m + 1)),
        Fraction(0),
    )


def _et_lb_frac(m: int, q: int) -> Fraction:
    return sum(
        (Fraction((-1) ** (k - 1) * comb(m, k), q ** (k * m) - 1) for k in range(1, m + 1)),
        Fraction(0),
    )


def et_ub(m: int, q: int) -> float:
    """Upper bound on the expected per-sink first decoding time when the
    sink watches m independent uniformly coded streams:
    sum_k (-1)^(k-1) C(m,k) / (q^k - 1)."""
    if m < 1 or q < 2:
        raise ValueError("need m >= 1 and q >= 2")
    return float(_et_ub_frac(m, q))


def et_lb(m: int, q: int) -> float:
    """Matching lower bound: sum_k (-1)^(k-1) C(m,k) / (q^(k m) - 1)."""
    if m < 1 or q < 2:
        raise ValueError("need m >= 1 and q >= 2")
    return float(_et_lb_frac(m, q))


def et_n_ub(d: int, q: int, eta: int) -> float:
    """Upper bound on the expected global termination time with d sinks and
    eta randomly coded links:
    ceil(log_q d) - 1 + sum_k (-1)^(k-1) C(eta,k) d^k / (q^(ceil(log_q d) k) - 1).

    The derivation assumes d >= 2; for d = 1 the leading term turns into -1
    and the geometric tails start at t=0, so the value is clamped at 0.
    """
    if d < 1 or q < 2 or eta < 1:
        raise ValueError("need d >= 1, q >= 2, eta >= 1")
    if d == 1:
        total = Fraction(-1) + sum(
            (
                Fraction((-1) ** (k - 1) * comb(eta, k) * q**k, q**k - 1)
                for k in range(1, eta + 1)
            ),
            Fraction(0),
        )
        return max(0.0, float(total))
    t0 = 0
    while q**t0 < d:
        t0 += 1
    total = Fraction(t0 - 1) + sum(
        (
            Fraction((-1) ** (k - 1) * comb(eta, k) * d**k, q ** (t0 * k) - 1)
            for k in range(1, eta + 1)
        ),
        Fraction(0),
    )
    return float(total)


def count_random_links(net: Network, source_mode: str = SOURCE_RANDOM) -> int:
    """Number of links carrying randomly drawn coefficients, the eta of
    `et_n_ub`: out-edges of coding nodes and of the source, less the m
    source out-edges that relay the source symbols in identity mode, m
    being the multicast rate."""
    coding, _ = classify_nodes(net)
    eta = sum(len(net.out_edges[v]) for v in coding) + len(net.out_edges[net.source])
    if source_mode == SOURCE_IDENTITY:
        eta -= multicast_rate(net)
    return eta


def var_t_avg_ub(n: int, m: int, q: int) -> BoundReport:
    """Upper bound on the variance of the sink-averaged first decoding time
    in an (n, m) combination network.

    Assembles (ET^2)_UB, the pairwise correlation bound rho_UB (max over the
    shared-parent counts), and the overlap count Delta = d - 1 - C(n-m, m),
    which collapses the n > 2m / n = 2m / n < 2m cases since C(a, m) = 0 for
    a < m.
    """
    if not 1 <= m <= n or q < 2:
        raise ValueError("need 1 <= m <= n and q >= 2")
    d = comb(n, m)
    et_ub_f = _et_ub_frac(m, q)
    et2_ub = et_ub_f + 2 * sum(
        (
            Fraction((-1) ** (k - 1) * comb(m, k)) * Fraction(q**k, q**k - 1) ** 2
            for k in range(1, m + 1)
        ),
        Fraction(0),
    )
    if m == 1:
        rho_ub = Fraction(0)
    else:
        rho_ub = max(et_ub_f * _et_ub_frac(m - lam, q) for lam in range(1, m))
    delta = d - 1 - comb(n - m, m)
    et_lb_f = _et_lb_frac(m, q)
    value = et2_ub / d + Fraction(delta, d) * rho_ub - Fraction(delta + 1, d) * et_lb_f**2
    case = "n>2m" if n > 2 * m else ("n=2m" if n == 2 * m else "n<2m")
    return BoundReport(
        "var_t_avg_ub",
        {
            "n": n,
            "m": m,
            "q": q,
            "d": d,
            "delta": delta,
            "delta_over_d": float(Fraction(delta, d)),
            "et2_ub": float(et2_ub),
            "rho_ub": float(rho_ub),
            "case": case,
        },
        float(value),
    )


def combination_decode_dist(m: int, q: int, t: int) -> float:
    """P(T_r >= t) for one combination-network sink:
    1 - prod_{l=1..m} (1 - q^(-t l))."""
    if m < 1 or q < 2 or t < 0:
        raise ValueError("need m >= 1, q >= 2, t >= 0")
    if t == 0:
        return 1.0
    prod = 1.0
    for l in range(1, m + 1):
        prod *= 1.0 - 1.0 / q ** (t * l)
    return 1.0 - prod


def sparsified_Lr_cdf(m: int, q: int, t: int) -> float:
    """Pr{L_r < t} for an interior sink of a sparsified combination network
    with the full 2(m-1) related sinks: Q(t) * (1 - q^(-t))^(2m-2)."""
    if m < 1 or q < 2 or t < 0:
        raise ValueError("need m >= 1, q >= 2, t >= 0")
    if t == 0:
        return 0.0
    prod = 1.0
    for l in range(1, m + 1):
        prod *= 1.0 - q ** (-t * l)
    return prod * (1.0 - q ** (-t)) ** (2 * m - 2)


def sparsified_bounds(m: int, q: int) -> BoundReport:
    """Memory bounds for the sparsified combination network: an interior
    sink's expected kernel degree is below ET_UB(3m-2, q) and an
    intermediate node's below ET_UB(2m, q); both are independent of n."""
    if m < 1 or q < 2:
        raise ValueError("need m >= 1 and q >= 2")
    return BoundReport(
        "sparsified_memory",
        {"m": m, "q": q, "intermediate_l_ub": et_ub(2 * m, q)},
        et_ub(3 * m - 2, q),
    )


def umbrella_bounds(
    alpha: int,
    beta: int,
    q: int,
    q_r: int | None = None,
    epsilon: float | None = None,
) -> dict[str, BoundReport]:
    """Memory bounds and the memory gain for an (alpha, beta) umbrella.

    Returns the per-sink expected-degree bound for ordinary top-layer sinks,
    the average-memory upper bound for the adaptive code (integer
    constraints ignored; this is an asymptotic statement), the one-shot
    code's bit lower bound, and the gain lower bound with its two
    asymptotic regimes (1 when beta dominates; the closed form when alpha
    dominates).
    """
    if alpha < 3 or alpha % 2 == 0 or beta < 2 or q < 2:
        raise ValueError("need odd alpha >= 3, beta >= 2, q >= 2")
    if q_r is not None:
        log2_qr = math.log2(q_r)
    elif epsilon is not None:
        log2_qr = rlnc_field_bits_umbrella(beta, epsilon)
    else:
        raise ValueError("give q_r or epsilon")
    n_nodes = 2 * alpha + 6 * beta - 5
    layer1 = (2 * q + 1) / (q * q - 1)
    w_arcnc = (
        math.log2(q) * ((2 * alpha - 5) / n_nodes) * ((q * q + 2 * q) / (q * q - 1))
        + log2_qr * 6 * beta / n_nodes
    )
    gain_lb = log2_qr / w_arcnc
    gain_wide = (q * q - 1) / (q * q + 2 * q) * log2_qr / math.log2(q)
    base = {"alpha": alpha, "beta": beta, "q": q, "log2_qr": log2_qr, "n_nodes": n_nodes}
    return {
        "layer1_l_ub": BoundReport("umbrella_layer1_l_ub", {"q": q}, layer1),
        "w_avg_arcnc_ub": BoundReport("umbrella_w_avg_arcnc_ub", dict(base), w_arcnc),
        "rlnc_bits_lb": BoundReport("umbrella_rlnc_bits_lb", dict(base), log2_qr),
        "gain_lb": BoundReport("umbrella_gain_lb", dict(base), gain_lb),
        "gain_wide_asymptote": BoundReport(
            "umbrella_gain_wide_asymptote", {**base, "narrow_asymptote": 1.0}, gain_wide
        ),
    }


# -- exhaustive oracle ---------------------------------------------------------------


def exact_dist_oracle(
    net: Network,
    q: int,
    horizon: int,
    source_mode: str = SOURCE_RANDOM,
    max_slots: int = 16,
) -> dict[int, list[float]]:
    """Exact per-sink P(T_r >= t) tables by enumerating every kernel draw
    sequence with equal weight, t = 0..horizon+1.

    All weights are powers of 1/q, so for q = 2^k the returned floats are
    exact dyadic rationals. Raises when a step would need more than
    max_slots simultaneous draws, and for a negative horizon.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    base = Engine(net, q, rng=None, source_mode=source_mode)
    p_eq = {r: [0.0] * (horizon + 1) for r in base.sink_order}

    def replay(prefix) -> Engine:
        # a fresh engine stepped through one branch's draws; m is passed so
        # no branch reruns max-flow
        eng = Engine(net, q, rng=None, m=base.m, source_mode=source_mode)
        for t, draws in enumerate(prefix):
            eng.step(t, draws=draws)
        return eng

    def recurse(eng: Engine, prefix: list, weight: float) -> None:
        t = len(prefix)
        slots = eng.rng_slots(t)
        if len(slots) > max_slots:
            raise ValueError(
                f"{len(slots)} draws per step is too large to enumerate exactly"
            )
        w = weight / (q ** len(slots))
        for assignment in product(range(q), repeat=len(slots)):
            child = replay(prefix)
            newly = child.step(t, draws=assignment)
            for r in newly:
                p_eq[r][t] += w
            if child.done_t is None and t < horizon:
                recurse(child, prefix + [assignment], w)

    recurse(base, [], 1.0)
    tables = {}
    for r in base.sink_order:
        tail = [1.0]
        for t in range(horizon + 1):
            tail.append(tail[-1] - p_eq[r][t])
        tables[r] = tail
    return tables
