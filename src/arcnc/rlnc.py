"""One-shot random linear code baseline and its field-size requirements.

The baseline draws every coefficient once, at t=0, over an acyclic network;
a run succeeds when the constant kernel matrix at every sink has full rank.
It is the adaptive engine stopped at t=0: the same draws in the same slot
order, the same propagation and the same rank test.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import run
from .netgraph import Network, has_cycle
from .polymatrix import rank_gf  # noqa: F401  perfbench/tracing.py resolves the rlnc.rank_gf layer here

__all__ = [
    "check_acyclic",
    "rlnc_run",
    "rlnc_field_bits_umbrella",
    "rlnc_field_bits_sparsified",
    "rlnc_min_q_for_target",
]


def check_acyclic(net: Network) -> None:
    """Raise ValueError on a network with a directed cycle, which the
    one-shot baseline does not cover."""
    if has_cycle(net):
        raise ValueError("one-shot baseline is restricted to acyclic networks")


def rlnc_run(
    net: Network,
    q: int,
    rng: np.random.Generator,
    m: int | None = None,
) -> bool:
    """One-shot constant-kernel run; True iff every sink sees full rank."""
    check_acyclic(net)
    return run(net, q, t_max=0, rng=rng, m=m, validate_decoding=False).success


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
