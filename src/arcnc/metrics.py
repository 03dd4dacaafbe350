"""Closed-form delay/memory bounds, the one-shot code's field-size bounds,
and empirical statistics.

The alternating-sum bounds are evaluated as series of positive float terms,
which agree with the exact rational sums to about 1e-15 at any size; every
bound function is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from math import comb

from .engine import SOURCE_IDENTITY, SOURCE_RANDOM, classify_nodes
from .netgraph import Network, multicast_rate

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
    "rlnc_field_bits_umbrella",
    "rlnc_field_bits_sparsified",
    "rlnc_min_q_for_target",
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

def _inv_pow(q: int, e: int, a: int = 1) -> float:
    """a * q^(-e) as a float, 0.0 without forming q^e once that lies below
    the least subnormal float."""
    if e * (q.bit_length() - 1) - a.bit_length() > 1100:
        return 0.0
    return a / q**e


def _series(m: int, q: int, s: int = 1, a: int = 1, weighted: bool = False) -> float:
    """sum_{j>=1} w_j [1 - (1 - a q^(-s j))^m], w_j = j + 1 if weighted else 1,
    summed until a term no longer moves the total. Each 1/(q^s - 1) is
    sum_{j>=1} q^(-s j), so the alternating sums below fold into this series
    of positive terms, the expected maximum of m i.i.d. geometrics."""
    total = 0.0
    j = 1
    while True:
        x = _inv_pow(q, s * j, a)
        term = 1.0 if x == 1.0 else -math.expm1(m * math.log1p(-x))
        if weighted:
            term *= j + 1
        if total + term == total:
            return total
        total += term
        j += 1


def _check(name: str, m: int, q: int) -> None:
    # m must convert to a float for the series
    if not 1 <= m < 2**1023 or q < 2:
        raise ValueError(f"need 1 <= {name} < 2**1023 and q >= 2")


def et_ub(m: int, q: int) -> float:
    """Upper bound on the expected per-sink first decoding time when the
    sink watches m independent uniformly coded streams:
    sum_k (-1)^(k-1) C(m,k) / (q^k - 1) = sum_{j>=1} [1 - (1 - q^(-j))^m]."""
    _check("m", m, q)
    return _series(m, q)


def et_lb(m: int, q: int) -> float:
    """Matching lower bound: sum_k (-1)^(k-1) C(m,k) / (q^(k m) - 1)
    = sum_{j>=1} [1 - (1 - q^(-j m))^m]."""
    _check("m", m, q)
    return _series(m, q, s=m)


def et_n_ub(d: int, q: int, eta: int) -> float:
    """Upper bound on the expected global termination time with d sinks and
    eta randomly coded links:
    ceil(log_q d) - 1 + sum_k (-1)^(k-1) C(eta,k) d^k / (q^(ceil(log_q d) k) - 1),
    whose sum is sum_{j>=1} [1 - (1 - d q^(-ceil(log_q d) j))^eta].

    The derivation assumes d >= 2. For d = 1 the leading term turns into -1
    and the geometric tails start at t=0, which leaves et_ub(eta, q).
    """
    _check("eta", eta, q)
    if d < 1:
        raise ValueError("need d >= 1")
    if d == 1:
        return et_ub(eta, q)
    t0 = 0
    while q**t0 < d:
        t0 += 1
    return t0 - 1 + _series(eta, q, s=t0, a=d)


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
    ub = et_ub(m, q)
    d = comb(n, m)
    # sum_k (-1)^(k-1) C(m,k) (q^k / (q^k - 1))^2
    #   = 1 + sum_{j>=1} (j+1) [1 - (1 - q^(-j))^m]
    et2_ub = ub + 2 * (1 + _series(m, q, weighted=True))
    # ET_UB grows with m, so the max over shared-parent counts lam sits at lam = 1
    rho_ub = ub * et_ub(m - 1, q) if m > 1 else 0.0
    delta = d - 1 - comb(n - m, m)
    # int / int true divisions: d may lie past the float range
    value = et2_ub * (1 / d) + delta / d * rho_ub - (delta + 1) / d * et_lb(m, q) ** 2
    case = "n>2m" if n > 2 * m else ("n=2m" if n == 2 * m else "n<2m")
    return BoundReport(
        "var_t_avg_ub",
        {
            "n": n,
            "m": m,
            "q": q,
            "d": d,
            "delta": delta,
            "delta_over_d": delta / d,
            "et2_ub": et2_ub,
            "rho_ub": rho_ub,
            "case": case,
        },
        value,
    )


def _keep_prob(m: int, q: int, t: int) -> float:
    """prod_{l=1..m} (1 - q^(-t l)), 0.0 at t = 0."""
    return math.prod(1.0 - _inv_pow(q, t * l) for l in range(1, m + 1))


def combination_decode_dist(m: int, q: int, t: int) -> float:
    """P(T_r >= t) for one combination-network sink:
    1 - prod_{l=1..m} (1 - x_l) with x_l = q^(-t l), summed as the positive
    series sum_l x_l prod_{i<l} (1 - x_i), which keeps its relative accuracy
    where the product lies within rounding of 1. The x_l fall geometrically,
    so the sum stops once a term no longer moves it."""
    if m < 1 or q < 2 or t < 0:
        raise ValueError("need m >= 1, q >= 2, t >= 0")
    total, keep = 0.0, 1.0
    for l in range(1, m + 1):
        x = _inv_pow(q, t * l)
        if total + x * keep == total:
            break
        total += x * keep
        keep *= 1.0 - x
    return total


def sparsified_Lr_cdf(m: int, q: int, t: int) -> float:
    """Pr{L_r < t} for an interior sink of a sparsified combination network
    with the full 2(m-1) related sinks: Q(t) * (1 - q^(-t))^(2m-2)."""
    if m < 1 or q < 2 or t < 0:
        raise ValueError("need m >= 1, q >= 2, t >= 0")
    return _keep_prob(m, q, t) * (1.0 - _inv_pow(q, t)) ** (2 * m - 2)


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


def rlnc_field_bits_umbrella(beta: int, epsilon: float) -> float:
    """Lower bound on ceil(log2 q) for the one-shot code on an umbrella:
    -log2(1 - (1-eps)^(1/(2*beta)))."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return -math.log2(1.0 - (1.0 - epsilon) ** (1.0 / (2 * beta)))


def rlnc_field_bits_sparsified(n: int, m: int, epsilon: float) -> float:
    """Lower bound on log2 q for the one-shot code on a sparsified
    combination network: log2(1 + (n-m+1)/(1 - sqrt(1-eps)))."""
    if n < m:
        raise ValueError("need n >= m")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    return math.log2(1.0 + (n - m + 1) / (1.0 - math.sqrt(1.0 - epsilon)))


def rlnc_min_q_for_target(
    d: int, eta_or_j: int, target: float, bound_kind: str = "per_node"
) -> int:
    """Smallest power-of-two field size meeting a success-probability target.

    bound_kind 'per_link' uses (1 - d/q)^eta >= target with eta random-coded
    links; 'per_node' uses (1 - d/(q-1))^(j+1) >= target with j encoding
    nodes. Both forms appear in the analysis, so the caller must name one.
    """
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    if bound_kind not in ("per_link", "per_node"):
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    if d < 1 or not 0 <= eta_or_j < 2**1023:
        raise ValueError("need d >= 1 and 0 <= eta (or j) < 2**1023")
    for k in range(1, 64):
        q = 1 << k
        if bound_kind == "per_link":
            ok = q > d and (1.0 - d / q) ** eta_or_j >= target
        else:
            ok = q - 1 > d and (1.0 - d / (q - 1)) ** (eta_or_j + 1) >= target
        if ok:
            return q
    raise ValueError("no power-of-two field below 2^64 meets the target")


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
        if q_r < 2:
            raise ValueError("need q_r >= 2")
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
