"""Adaptive random convolutional network coding for single-source multicast.

Kernels of the local convolutional code grow one coefficient per time step
until every sink can decode, so short codes live near the source and long
ones only where the topology demands them. The package bundles the protocol
engine, a one-shot random linear baseline, the closed-form delay and memory
bounds, deterministic and random topology generators, and a seeded
experiment CLI.
"""

from .engine import Engine, TraceResult, run
from .gf import GF
from .netgraph import Network, min_cut, multicast_rate
from .topologies import TopologySpec, build_topology

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "TraceResult",
    "run",
    "GF",
    "Network",
    "min_cut",
    "multicast_rate",
    "TopologySpec",
    "build_topology",
    "__version__",
]
