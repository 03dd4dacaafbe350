"""Generators for the five network families used in the experiments.

A `TopologySpec` is a family name and its parameters. Deterministic
families (combination, sparsified, umbrella, shuttle) are pure functions of
their parameters; random geometric graphs are pure functions of (parameters,
generator state), and the caller passes the generator. Node 0 is always the
source.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

import numpy as np

from .netgraph import Network

__all__ = [
    "TopologyError",
    "TopologySpec",
    "build_topology",
    "gen_combination",
    "gen_sparsified",
    "gen_umbrella",
    "gen_shuttle",
    "gen_rgg",
    "FAMILIES",
    "SHUTTLE_EXAMPLE_KERNELS",
]

# family -> the parameter names its generator takes
FAMILIES = {
    "combination": ("n", "m"),
    "sparsified": ("n", "m"),
    "umbrella": ("alpha", "beta"),
    "shuttle": (),
    "rgg_acyclic": ("nodes", "sinks", "radius"),
    "rgg_cyclic": ("nodes", "sinks", "radius"),
}


def _fan_out(n: int, m: int, parent_sets) -> Network:
    """Source -> relays 1..n; one sink per set in `parent_sets(relays, m)`,
    fed by each relay of the set. Only the source ever codes."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    relays = range(1, n + 1)
    edges = [(0, i) for i in relays]
    sinks = []
    for parents in parent_sets(relays, m):
        sink = n + 1 + len(sinks)
        edges.extend((parent, sink) for parent in parents)
        sinks.append(sink)
    return Network.build(n + 1 + len(sinks), edges, 0, sinks)


def gen_combination(n: int, m: int) -> Network:
    """Source -> n relay intermediates; one sink per m-subset of them.

    d = C(n, m) sinks, each with min-cut m.
    """
    return _fan_out(n, m, combinations)


def gen_sparsified(n: int, m: int) -> Network:
    """Combination network thinned to consecutive windows: intermediates sit
    on a line and sink i attaches to intermediates i..i+m-1, so a sink is
    related to at most 2(m-1) other sinks."""
    return _fan_out(n, m, lambda relays, m: (relays[i : i + m] for i in range(n - m + 1)))


def gen_umbrella(alpha: int, beta: int) -> Network:
    """Ring-topped umbrella with a handle of (3 choose 2) combination blocks.

    Layer 1 holds 2*alpha nodes: alpha upper relays fed by the source and
    alpha lower nodes, lower node i fed by upper i and i+1 cyclically, so
    the upper dependency ring is an odd cycle and plain routing cannot work.
    The center lower node is the first shaded node; each of the beta-1
    handle layers hangs a 3-intermediate / 3-bottom combination block off
    the previous shaded node, with the middle bottom shaded next (except in
    the last layer). Must-decode nodes are the childless nodes plus the
    shaded nodes. Total node count is 1 + 2*alpha + 6*(beta-1).
    """
    if alpha < 3 or alpha % 2 == 0:
        raise ValueError(f"alpha must be odd and >= 3, got {alpha}")
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    edges = []
    upper = list(range(1, alpha + 1))
    lower = list(range(alpha + 1, 2 * alpha + 1))
    for u in upper:
        edges.append((0, u))
    for i in range(alpha):
        w = lower[i]
        edges.append((upper[i], w))
        edges.append((upper[(i + 1) % alpha], w))
    shaded = [lower[(alpha - 1) // 2]]
    next_id = 2 * alpha + 1
    for layer in range(2, beta + 1):
        src = shaded[-1]
        mids = [next_id, next_id + 1, next_id + 2]
        bottoms = [next_id + 3, next_id + 4, next_id + 5]
        next_id += 6
        for mid in mids:
            edges.append((src, mid))
        # bottoms take intermediate pairs {1,2}, {2,3}, {1,3}; the middle
        # slot ({2,3}) is the shaded source of the next layer
        for bottom, (a, b) in zip(bottoms, ((0, 1), (1, 2), (0, 2))):
            edges.append((mids[a], bottom))
            edges.append((mids[b], bottom))
        if layer < beta:
            shaded.append(bottoms[1])
    parents = {t for t, _ in edges}
    sinks = sorted({v for v in range(1, next_id) if v not in parents} | set(shaded))
    return Network.build(next_id, edges, 0, sinks, shaded=shaded)


def gen_shuttle() -> Network:
    """The 7-node, 10-edge cyclic worked example with two sinks of min-cut 2.

    Node ids: s=0, r1=1, r2=2, v1=3, v2=4, v3=5, v4=6. Edge insertion order
    yields the canonical labels e1..e10 under breadth-first indexing,
    and the three directed cycles are (e3,e5,e7), (e5,e8,e6,e9), and
    (e4,e6,e10).
    """
    s, r1, r2, v1, v2, v3, v4 = range(7)
    edges = [
        (s, r1),  # e1
        (s, r2),  # e2
        (r1, v4),  # e3
        (r2, v2),  # e4
        (v4, v1),  # e5
        (v2, v3),  # e6
        (v1, r1),  # e7
        (v1, v2),  # e8
        (v3, v4),  # e9
        (v3, r2),  # e10
    ]
    return Network.build(7, edges, s, (r1, r2))


# Worked kernel assignment for the shuttle over GF(2), keyed by adjacent
# pair (edge ids in insertion order, e1=0 .. e10=9), one coefficient per
# time step. Masked pairs carry their forced 0 at t=0. Injected into the
# engine it decodes both sinks at t=1 with kernel matrices
# F_r1(z) = [[1, 1], [0, z]] and F_r2(z) = [[0, z], [1, 1+z]].
SHUTTLE_EXAMPLE_KERNELS = {
    (0, 2): (1, 1),  # k_{e1,e3} = 1+z
    (6, 2): (0, 0),  # k_{e7,e3} = 0
    (1, 3): (1, 0),  # k_{e2,e4} = 1
    (9, 3): (0, 1),  # k_{e10,e4} = z
    (2, 4): (1, 1),  # k_{e3,e5} = 1+z
    (8, 4): (0, 1),  # k_{e9,e5} = z
    (3, 5): (1, 0),  # k_{e4,e6} = 1
    (7, 5): (0, 1),  # k_{e8,e6} = z
}


class TopologyError(RuntimeError):
    """A random family found no instance that meets its constraints."""


P_FORWARD_REMOVAL = 0.2
P_BACKWARD_REMOVAL = 0.8


def gen_rgg(
    num_nodes: int,
    num_sinks: int,
    radius: float,
    cyclic: bool,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> Network:
    """Random geometric graph on [0,1]^2 with the given connection radius.

    Node 1 (id 0) is the source and the highest-numbered nodes are sinks.
    Acyclic mode keeps only low-to-high directed edges. Cyclic mode starts
    from both directions, removes each low-to-high edge with probability
    P_FORWARD_REMOVAL and each high-to-low edge with probability
    P_BACKWARD_REMOVAL. Edges into the source are dropped either way (the
    model gives the source no inputs). Instances where some sink is
    unreachable are thrown away and regenerated, up to max_attempts.
    """
    if not 0 < num_sinks < num_nodes:
        raise ValueError(f"need 0 < num_sinks < num_nodes, got {num_sinks}, {num_nodes}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    sinks = list(range(num_nodes - num_sinks, num_nodes))
    upper = np.triu_indices(num_nodes, 1)  # pairs i < j in loop order
    for _ in range(max_attempts):
        pts = rng.random((num_nodes, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        near = d2[upper] <= radius * radius
        pairs = list(zip(upper[0][near].tolist(), upper[1][near].tolist()))
        if not cyclic:
            edges = pairs
        else:
            # one (forward, backward) coin pair per near pair, in pair order
            keep = (rng.random((len(pairs), 2)) >= (P_FORWARD_REMOVAL, P_BACKWARD_REMOVAL)).tolist()
            edges = []
            for (i, j), (keep_fwd, keep_bwd) in zip(pairs, keep):
                if keep_fwd:
                    edges.append((i, j))
                if keep_bwd and i != 0:
                    edges.append((j, i))
        try:
            return Network.build(num_nodes, edges, 0, sinks)
        except ValueError:
            continue
    raise TopologyError(
        f"no rgg instance with every sink reachable after {max_attempts} attempts "
        f"(nodes={num_nodes}, sinks={num_sinks}, radius={radius})"
    )


@dataclass
class TopologySpec:
    """Family name plus its parameters."""

    family: str
    params: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {tuple(FAMILIES)}")

    def label(self) -> str:
        """Stable id string, e.g. 'combination(n=16,m=2)'."""
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}({inner})"


def build_topology(spec: TopologySpec, rng: np.random.Generator | None = None) -> Network:
    """Instantiate a Network from a TopologySpec; the rgg families require `rng`."""
    p = spec.params
    if spec.family == "combination":
        return gen_combination(p["n"], p["m"])
    if spec.family == "sparsified":
        return gen_sparsified(p["n"], p["m"])
    if spec.family == "umbrella":
        return gen_umbrella(p["alpha"], p["beta"])
    if spec.family == "shuttle":
        return gen_shuttle()
    if rng is None:
        raise ValueError(f"{spec.family} needs an explicit rng")
    return gen_rgg(
        p["nodes"], p["sinks"], p["radius"], cyclic=(spec.family == "rgg_cyclic"), rng=rng
    )
