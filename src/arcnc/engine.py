"""Adaptive convolutional code engine for single-source multicast.

Time is discrete from t=0 and each step does four things: every active
coding node draws the next coefficient of each local kernel (pairs in the
zero mask draw 0 at t=0), global kernels and data symbols propagate in
edge-index order (the mask makes one pass well defined even around cycles),
undecoded sinks run the decodability test and newly decodable sinks
acknowledge, and acknowledgments cascade upward instantly so a node freezes
its kernels once every child has acknowledged. Kernel growth ends when the
last sink decodes; data keeps flowing afterwards so streams can be decoded
end to end.

Edge e at step t is one packed int `w[e][t]`: lanes 0..m-1 hold its column
f_e[t] and lane m its symbol y_e[t], so a kernel tap is one XOR or one
`GF.mul_lanes`, and sink rank caches read these words directly. `f` and `y`
are read-only views that unpack one edge's history when asked.

The source is a coding node fed by m imaginary input edges d_0..d_{m-1}
(engine-local ids after the network's edges): d_j carries the unit column
e_j at t=0, the zero column after, and the symbol x_t[j], so one
convolution gives every edge's column and symbol. In identity source mode
the first m source out-edges relay d_0..d_{m-1} instead of coding.

Single-parent nodes route instead of code: their kernel is pinned to 1 (or
to a bare unit delay z when the pair is masked) and never grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import GF
from .netgraph import Network, multicast_rate
from .polymatrix import (
    RankCache,
    SinkDecoder,
    build_M,
    decodability_test,
    sequential_decode,
    solve_decoder,
    unpack,
)

__all__ = [
    "DecodeMismatch",
    "Engine",
    "TraceResult",
    "run",
    "classify_nodes",
    "count_random_links",
    "SOURCE_RANDOM",
    "SOURCE_IDENTITY",
]

SOURCE_RANDOM = "random"
SOURCE_IDENTITY = "identity"


def classify_nodes(net: Network):
    """Split non-source nodes into coding nodes (draw random kernels) and
    relays (single parent, fixed kernel)."""
    coding, relays = [], []
    for v in range(net.num_nodes):
        if v == net.source or not net.out_edges[v]:
            continue
        if len(net.in_edges[v]) == 1:
            relays.append(v)
        elif len(net.in_edges[v]) >= 2:
            coding.append(v)
    return coding, relays


def count_random_links(net: Network, source_mode: str = SOURCE_RANDOM) -> int:
    """Number of links carrying randomly drawn coefficients (the eta of the
    success-probability bound): out-edges of coding nodes and of the source,
    less the m source out-edges that relay the source symbols in identity
    mode, m being the multicast rate."""
    coding, _ = classify_nodes(net)
    eta = sum(len(net.out_edges[v]) for v in coding) + len(net.out_edges[net.source])
    if source_mode == SOURCE_IDENTITY:
        eta -= multicast_rate(net)
    return eta


class _WordView:
    """Read-only view of packed edge words: view[e] unpacks edge e's history alone."""

    def __init__(self, words: list, unpack_word):
        self._words, self._unpack = words, unpack_word

    def __getitem__(self, e: int) -> list:
        return list(map(self._unpack, self._words[e]))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


class DecodeMismatch(RuntimeError):
    """A sink's sequential decode disagreed with the injected source stream."""


@dataclass
class TraceResult:
    """Outcome of one simulated run."""

    success: bool
    q: int
    m: int
    num_nodes: int
    sink_order: tuple
    t_r: dict
    l_v: dict
    t_n: int | None
    ack_log: list
    decode_checked: bool | None = None
    decoded: dict | None = None


class Engine:
    """One protocol run over one network; owns all mutable state."""

    def __init__(
        self,
        net: Network,
        q: int,
        rng: np.random.Generator | None = None,
        m: int | None = None,
        source_mode: str = SOURCE_RANDOM,
        inject: dict | None = None,
        validate_symbols: bool = False,
        tracing: bool = False,
    ):
        if source_mode not in (SOURCE_RANDOM, SOURCE_IDENTITY):
            raise ValueError(f"unknown source mode {source_mode!r}")
        self.net = net
        self.field = GF.for_q(q)
        self.q = q
        if m is None:
            m = multicast_rate(net)
        else:
            # callers that already computed the rate pass it in; reject values
            # the cut structure rules out without redoing the max-flows
            limit = min(len(net.in_edges[r]) for r in net.sinks)
            if not 1 <= m <= min(limit, len(net.out_edges[net.source])):
                raise ValueError(f"m={m} does not match the multicast rate")
        self.m = m
        self.rng = rng
        self.x_rng = rng.spawn(1)[0] if rng is not None else np.random.default_rng(0)
        self.validate_symbols = validate_symbols
        self.tracing = tracing
        self.trace_lines: list[str] = []

        self.coding_nodes, self.relay_nodes = classify_nodes(net)
        self.mask = net.zero_mask
        src = net.source
        # the source's inputs are m imaginary edges numbered after the real ones
        self.in_edges = list(net.in_edges)
        self.in_edges[src] = list(range(len(net.edges), len(net.edges) + m))
        relay_pairs = [pair for v in self.relay_nodes for pair in net.pairs[v]]
        if source_mode == SOURCE_IDENTITY:
            # the first m source edges relay the inputs; any further ones code.
            # The source's out-edges lead the edge order in insertion order.
            relay_pairs += zip(self.in_edges[src], net.out_edges[src])
        self.kernels: dict[tuple[int, int], list[int]] = {}
        self._relay_copy: dict[int, int] = {}  # plain relay out-edge -> in-edge
        for pair in relay_pairs:
            if pair in self.mask:
                self.kernels[pair] = [0, 1]
            else:
                self.kernels[pair] = [1]
                self._relay_copy[pair[1]] = pair[0]
        self.node_pairs = {
            src: [
                (e_in, e_out)
                for e_out in net.out_edges[src]
                if e_out not in self._relay_copy
                for e_in in self.in_edges[src]
            ]
        }
        self.node_pairs.update((v, net.pairs[v]) for v in self.coding_nodes)
        self.kernels.update((pair, []) for pairs in self.node_pairs.values() for pair in pairs)

        k = self.field.k
        self._colmask = colmask = (1 << m * k) - 1
        self.w: list[list[int]] = [[] for _ in range(len(net.edges) + m)]
        # columns recur (q^m at most), so their tuples are cached. No closure
        # refers to the engine, so it is freed without a cycle.
        self._column = column = lru_cache(maxsize=4096)(lambda col: tuple(unpack(k, col, m)))
        self.f = _WordView(self.w, lambda word: column(word & colmask))
        self.y = _WordView(self.w, lambda word: word >> m * k)
        self.x: list[tuple] = []
        # per edge in propagation order: its history and either the history
        # it relays or its taps; lists grow in place, so the plan stays current
        self._plan = [
            (self.w[e], self.w[self._relay_copy[e]], None) if e in self._relay_copy
            else (self.w[e], None, self._taps(e))
            for e in net.edge_order
        ]

        self.children = [sorted({net.head(e) for e in net.out_edges[v]}) for v in range(net.num_nodes)]
        self.acked = [False] * net.num_nodes
        self.must_decode = set(net.sinks)
        self.sink_order = tuple(sorted(net.sinks))
        self.t_r: dict[int, int] = {}
        self.ack_log: list[tuple[int, int]] = []
        self._sink_cache = {  # rank state of each undecoded sink, fed by its in-edges' words
            r: RankCache(self.field, m, [self.w[e] for e in net.in_edges[r]])
            for r in self.sink_order
        }
        self.t_next = 0
        self.done_t: int | None = None
        self.l_v: dict[int, int] | None = None
        self.inject: dict[tuple[int, int], list[int]] = {}
        if inject:
            self.inject_kernels(inject)

    # -- draw bookkeeping ---------------------------------------------------

    def inject_kernels(self, assignment: dict) -> None:
        """Test hook: pin local kernel coefficients instead of drawing them.

        Keys are adjacent pairs (e_in, e_out) of coding nodes; values are
        coefficient lists by time step. Pairs under the zero mask must start
        with 0; the source's pairs (over its imaginary inputs) and relay
        kernels cannot be overridden.
        """
        if self.t_next != 0:
            raise ValueError("kernels can only be injected before the first step")
        for pair, coeffs in assignment.items():
            if pair not in self.kernels or self.net.tail(pair[1]) not in self.coding_nodes:
                raise ValueError(f"cannot inject kernel for pair {pair}")
            coeffs = [self.field.validate(int(c)) for c in coeffs]
            if pair in self.mask and coeffs and coeffs[0] != 0:
                raise ValueError(f"pair {pair} is zero-masked at t=0")
            self.inject[pair] = coeffs

    def rng_slots(self, t: int) -> list[tuple[int, int]]:
        """Ordered draw slots for step t given the current stop state.

        One slot is one field element, the next coefficient of the local
        kernel of an adjacent pair (e_in, e_out): the source's pairs first
        (its coding out-edges in index order, inputs d_0..d_{m-1} within
        each), then coding nodes in ascending id, out-edge then in-edge in
        index order. Masked pairs are skipped at t=0 and injected pairs are
        never drawn. This is the only place the draw order is built: the
        one-shot baseline (`rlnc.rlnc_run`) is this engine stopped at t=0,
        and the exact enumeration oracle replays draws for these slots
        through `step`.
        """
        if self.done_t is not None:
            return []
        acked = self.acked
        head = self.net.head
        slots: list[tuple[int, int]] = []
        for pairs in self.node_pairs.values():
            for pair in pairs:
                # kernels toward an acknowledged child stay frozen: that
                # child's whole subtree has decoded and needs nothing new
                if acked[head(pair[1])]:
                    continue
                if t == 0 and pair in self.mask:
                    continue
                if pair in self.inject:
                    continue
                slots.append(pair)
        return slots

    def _apply_draws(self, t: int, slots, vals) -> None:
        """Append this step's draws, then forced zeros and injected values,
        to the local kernels. The trace lists coding-node draws, then one
        column per source edge that drew, then forced and injected values."""
        kernels = self.kernels
        lab = self.net.edge_label
        for pair, val in zip(slots, vals):
            kernels[pair].append(val)
        if self.tracing:
            src_draws: dict[int, list[int]] = {}
            for (e_in, e_out), val in zip(slots, vals):
                if self.net.tail(e_out) == self.net.source:
                    src_draws.setdefault(e_out, []).append(val)
                else:
                    self.trace_lines.append(f"t={t} draw {lab(e_in)}->{lab(e_out)} {val}")
            for e, col in src_draws.items():
                self.trace_lines.append(f"t={t} draw src->{lab(e)} {tuple(col)}")
        if self.done_t is not None:
            return
        acked = self.acked
        head = self.net.head
        for pairs in self.node_pairs.values():
            for pair in pairs:
                if acked[head(pair[1])]:
                    continue
                if pair in self.inject:
                    coeffs = self.inject[pair]
                    val = coeffs[t] if t < len(coeffs) else 0
                elif t == 0 and pair in self.mask:
                    val = 0  # masked pairs still gain their forced zero
                else:
                    continue
                kernels[pair].append(val)
                if self.tracing:
                    self.trace_lines.append(f"t={t} draw {lab(pair[0])}->{lab(pair[1])} {val}")

    # -- one time step --------------------------------------------------------

    def step(self, t: int, draws=None) -> list[int]:
        """Advance one time step; returns the sinks that newly decoded.

        draws, when given, are the values of `rng_slots(t)` in order and
        replace the rng's draws, so a run can be replayed slot for slot.
        """
        if t != self.t_next:
            raise ValueError(f"expected step {self.t_next}, got {t}")
        field = self.field
        m = self.m

        slots = self.rng_slots(t)
        if draws is not None:
            if len(draws) != len(slots):
                raise ValueError(f"expected {len(slots)} draws, got {len(draws)}")
            vals = [field.validate(int(v)) for v in draws]
        elif slots:
            if self.rng is None:
                raise ValueError("engine has no rng; pass explicit draws")
            vals = [int(v) for v in self.rng.integers(0, self.q, size=len(slots))]
        else:
            vals = []
        self._apply_draws(t, slots, vals)

        x_t = tuple(int(v) for v in self.x_rng.integers(0, self.q, size=m))
        self.x.append(x_t)
        w, k, sym_shift = self.w, field.k, m * field.k
        for j, d in enumerate(self.in_edges[self.net.source]):
            w[d].append((1 << j * k if t == 0 else 0) | x_t[j] << sym_shift)

        conv = self._conv
        for hist, relay_hist, taps in self._plan:
            hist.append(relay_hist[t] if relay_hist is not None else conv(taps, t))
        if self.tracing:
            lab = self.net.edge_label
            self.trace_lines.extend(f"t={t} sym {lab(e)} {w[e][t] >> sym_shift}" for e in self.net.edge_order)
        if self.validate_symbols:
            self._verify_step(t)

        newly = []
        if self.done_t is None:
            for r, cache in list(self._sink_cache.items()):  # undecoded sinks in sink order
                if decodability_test(cache, t):
                    self.t_r[r] = t
                    newly.append(r)
                    del self._sink_cache[r]  # nothing reads a decoded sink's rank state again
            self._propagate_acks(t)
            if not self._sink_cache:
                self.done_t = t
                self.l_v = self._snapshot_degrees()
        self.t_next += 1
        return newly

    def _taps(self, e: int) -> list:
        """(local kernel, input history) pairs that feed edge e."""
        kernels, tail = self.kernels, self.net.tail(e)
        return [(kernels[e_in, e], self.w[e_in]) for e_in in self.in_edges[tail] if (e_in, e) in kernels]

    def _conv(self, taps, t: int) -> int:
        """Word (column and symbol) of an edge at t: the convolution of its
        local kernels with its input edges' histories, given as its taps."""
        mul_lanes = self.field.mul_lanes
        word = 0
        for kernel, hist in taps:
            for i in range(min(t, len(kernel) - 1) + 1):
                c = kernel[i]
                if c:
                    word ^= hist[t - i] if c == 1 else mul_lanes(c, hist[t - i])
        return word

    def _verify_step(self, t: int) -> None:
        # the symbol identity on unpacked columns, with the scalar multiply
        mul = self.field.mul
        m = self.m
        for e in range(len(self.net.edges)):
            expect = 0
            for i, col in enumerate(self.f[e][: t + 1]):
                x_row = self.x[t - i]
                for j in range(m):
                    if col[j]:
                        expect ^= mul(col[j], x_row[j])
            if expect != self.y[e][t]:
                raise AssertionError(f"symbol identity broken on edge {e} at t={t}")
        # second pass: cyclic propagation must be a fixpoint of one sweep
        for e in self.net.edge_order:
            if self._conv(self._taps(e), t) != self.w[e][t]:
                raise AssertionError(f"propagation not a fixpoint on edge {e} at t={t}")

    def _propagate_acks(self, t: int) -> None:
        # least fixpoint: acks originate at decoded sinks and cascade upward
        changed = True
        while changed:
            changed = False
            for v in range(self.net.num_nodes):
                if self.acked[v]:
                    continue
                if v in self.must_decode and v not in self.t_r:
                    continue
                if all(self.acked[c] for c in self.children[v]):
                    self.acked[v] = True
                    self.ack_log.append((t, v))
                    if self.tracing:
                        self.trace_lines.append(f"t={t} ack n{v}")
                    changed = True

    def _degree(self, e: int) -> int:
        """Last step at which edge e's column is nonzero, -1 if none."""
        hist = self.w[e]
        return next((i for i in range(len(hist) - 1, -1, -1) if hist[i] & self._colmask), -1)

    def _snapshot_degrees(self) -> dict[int, int]:
        net = self.net
        return {
            v: max(map(self._degree, net.out_edges[v] if v == net.source else net.in_edges[v]), default=-1)
            for v in range(net.num_nodes)
        }

    # -- decoding ---------------------------------------------------------------

    def build_decoder(self, r: int) -> SinkDecoder:
        if r not in self.t_r:
            raise ValueError(f"sink {r} never decoded")
        words = [self.w[e] for e in self.net.in_edges[r]]
        t_r = self.t_r[r]
        m_rows = build_M(self.field, words, t_r + 1, self.m)
        d_matrix = solve_decoder(self.field, m_rows, self.m, len(words))
        # m x in_deg blocks F_0, F_1, ... from the cached column tuples
        colmask, column = self._colmask, self._column
        cols = [[column(word & colmask) for word in hist] for hist in words]
        blocks = [list(zip(*step_cols)) for step_cols in zip(*cols)]
        return SinkDecoder(self.field, self.m, len(words), t_r, d_matrix, blocks)

    def received_rows(self, r: int) -> list[list[int]]:
        shift = self.m * self.field.k
        ys = [[word >> shift for word in self.w[e]] for e in self.net.in_edges[r]]
        return [list(row) for row in zip(*ys)]


def run(
    net: Network,
    q: int,
    t_max: int = 64,
    rng: np.random.Generator | None = None,
    m: int | None = None,
    source_mode: str = SOURCE_RANDOM,
    inject: dict | None = None,
    validate_decoding: bool = True,
    validate_symbols: bool = False,
    stream_len: int | None = None,
    keep_streams: bool = False,
) -> TraceResult:
    """Run the protocol until every sink decodes or the horizon passes.

    A run that exhausts t_max is returned as a failure record (success
    probability estimates need those), not raised. On success the decoder of
    every sink is solved and a random source stream is recovered end to end;
    a mismatch raises, since the decodability test guarantees a solution.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    eng = Engine(net, q, rng=rng, m=m, source_mode=source_mode, inject=inject,
                 validate_symbols=validate_symbols)
    for t in range(t_max + 1):
        eng.step(t)
        if eng.done_t is not None:
            break
    success = eng.done_t is not None
    result = TraceResult(
        success, q, eng.m, net.num_nodes, eng.sink_order, dict(eng.t_r),
        dict(eng.l_v) if success else eng._snapshot_degrees(), eng.done_t, list(eng.ack_log),
    )
    if success and validate_decoding:
        max_tr = max(result.t_r.values())
        want = stream_len if stream_len is not None else eng.done_t + max_tr + 3
        while len(eng.x) < want:
            eng.step(eng.t_next)
        decoded = {}
        for r in eng.sink_order:
            x_hat = sequential_decode(eng.build_decoder(r), eng.received_rows(r))
            if x_hat != eng.x[: len(x_hat)]:
                raise DecodeMismatch(
                    f"sequential decoding at sink {r} disagreed with the injected stream"
                )
            decoded[r] = x_hat
        result.decode_checked = True
        if keep_streams:
            result.decoded = decoded
    return result
