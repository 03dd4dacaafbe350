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

Single-parent nodes route instead of code: their kernel is pinned to 1 (or
to a bare unit delay z when the pair is masked) and never grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

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
    success-probability bound): out-edges of coding nodes, plus the source's
    out-edges when the source codes randomly."""
    coding, _ = classify_nodes(net)
    eta = sum(len(net.out_edges[v]) for v in coding)
    if source_mode == SOURCE_RANDOM:
        eta += len(net.out_edges[net.source])
    return eta


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
        self.source_mode = source_mode
        self.validate_symbols = validate_symbols
        self.tracing = tracing
        self.trace_lines: list[str] = []

        self.coding_nodes, self.relay_nodes = classify_nodes(net)
        self.mask = net.zero_mask
        src = net.source
        self.src_out = sorted(net.out_edges[src], key=lambda e: net.edge_pos[e])
        by_pos = lambda e: net.edge_pos[e]
        self.node_pairs = {
            v: [
                (e_in, e_out)
                for e_out in sorted(net.out_edges[v], key=by_pos)
                for e_in in sorted(net.in_edges[v], key=by_pos)
            ]
            for v in self.coding_nodes
        }
        self.kernels: dict[tuple[int, int], list[int]] = {}
        for v in self.coding_nodes:
            for pair in self.node_pairs[v]:
                self.kernels[pair] = []
        self._relay_copy: dict[int, int] = {}  # plain relay out-edge -> in-edge
        for v in self.relay_nodes:
            e_in = net.in_edges[v][0]
            for e_out in net.out_edges[v]:
                if (e_in, e_out) in self.mask:
                    self.kernels[(e_in, e_out)] = [0, 1]
                else:
                    self.kernels[(e_in, e_out)] = [1]
                    self._relay_copy[e_out] = e_in

        self.f: list[list[tuple]] = [[] for _ in net.edges]
        self.y: list[list[int]] = [[] for _ in net.edges]
        self.x: list[tuple] = []

        self.children = [sorted({net.head(e) for e in net.out_edges[v]}) for v in range(net.num_nodes)]
        self.acked = [False] * net.num_nodes
        self.must_decode = set(net.sinks)
        self.sink_order = tuple(sorted(net.sinks))
        self.t_r: dict[int, int] = {}
        self.ack_log: list[tuple[int, int]] = []
        self._sink_blocks = {
            r: [] for r in self.sink_order
        }  # coefficient blocks of F_r while undecoded
        self._sink_cache = {
            r: RankCache(self.field, self.m, len(net.in_edges[r])) for r in self.sink_order
        }
        self.t_next = 0
        self.done_t: int | None = None
        self.frozen = False
        self.l_v: dict[int, int] | None = None
        self.inject: dict[tuple[int, int], list[int]] = {}
        if inject:
            self.inject_kernels(inject)

    # -- draw bookkeeping ---------------------------------------------------

    def inject_kernels(self, assignment: dict) -> None:
        """Test hook: pin local kernel coefficients instead of drawing them.

        Keys are adjacent pairs (e_in, e_out) of coding nodes; values are
        coefficient lists by time step. Pairs under the zero mask must start
        with 0; relay kernels cannot be overridden.
        """
        if self.t_next != 0:
            raise ValueError("kernels can only be injected before the first step")
        for pair, coeffs in assignment.items():
            if pair not in self.kernels or self.net.edges[pair[1]][0] in self.relay_nodes:
                raise ValueError(f"cannot inject kernel for pair {pair}")
            coeffs = [self.field.validate(int(c)) for c in coeffs]
            if pair in self.mask and coeffs and coeffs[0] != 0:
                raise ValueError(f"pair {pair} is zero-masked at t=0")
            self.inject[pair] = coeffs

    def rng_slots(self, t: int) -> list[tuple]:
        """Ordered draw slots for step t given the current stop state.

        One slot is one field element: first the source's out-edges in index
        order (m coefficients each, random source mode only), then coding
        nodes in ascending id with their (out-edge, in-edge) pairs in edge
        index order. Masked pairs are skipped at t=0 and injected pairs are
        never drawn. This is the only place the draw order is built: the
        one-shot baseline (`rlnc.rlnc_run`) is this engine stopped at t=0,
        and the exact enumeration oracle branches on these slots.
        """
        if self.frozen:
            return []
        acked = self.acked
        head = self.net.head
        slots: list[tuple] = []
        # identity mode pins the first m source edges to unit columns; any
        # further source edges draw like everything else
        src_drawn = self.src_out if self.source_mode == SOURCE_RANDOM else self.src_out[self.m :]
        for e in src_drawn:
            # kernels toward an acknowledged child stay frozen: that
            # child's whole subtree has decoded and needs nothing new
            if not acked[head(e)]:
                slots.extend(("src", e, i) for i in range(self.m))
        for v in self.coding_nodes:
            for pair in self.node_pairs[v]:
                if acked[head(pair[1])]:
                    continue
                if t == 0 and pair in self.mask:
                    continue
                if pair in self.inject:
                    continue
                slots.append(("k",) + pair)
        return slots

    def _apply_draws(self, t: int, slots, vals) -> dict[int, list[int]]:
        """Append this step's draws to the local kernels; returns the source columns, by edge."""
        src_cols: dict[int, list[int]] = {}
        for slot, val in zip(slots, vals):
            if slot[0] == "src":
                src_cols.setdefault(slot[1], [0] * self.m)[slot[2]] = val
            else:
                self.kernels[(slot[1], slot[2])].append(val)
                if self.tracing:
                    lab = self.net.edge_label
                    self.trace_lines.append(f"t={t} draw {lab(slot[1])}->{lab(slot[2])} {val}")
        if self.tracing:
            for e, col in src_cols.items():
                self.trace_lines.append(f"t={t} draw src->{self.net.edge_label(e)} {tuple(col)}")
        if self.frozen:
            return src_cols
        acked = self.acked
        head = self.net.head
        for v in self.coding_nodes:
            for pair in self.node_pairs[v]:
                if acked[head(pair[1])]:
                    continue
                if pair in self.inject:
                    coeffs = self.inject[pair]
                    val = coeffs[t] if t < len(coeffs) else 0
                elif t == 0 and pair in self.mask:
                    val = 0  # masked pairs still gain their forced zero
                else:
                    continue
                self.kernels[pair].append(val)
                if self.tracing:
                    lab = self.net.edge_label
                    self.trace_lines.append(f"t={t} draw {lab(pair[0])}->{lab(pair[1])} {val}")
        return src_cols

    # -- one time step --------------------------------------------------------

    def step(self, t: int, draws=None) -> list[int]:
        """Advance one time step; returns the sinks that newly decoded."""
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
        src_cols = self._apply_draws(t, slots, vals)

        self.x.append(tuple(int(v) for v in self.x_rng.integers(0, self.q, size=m)))

        zero_col = (0,) * m
        for e in self.net.edge_order:
            v = self.net.tail(e)
            relay_in = self._relay_copy.get(e)
            if relay_in is not None:
                col, sym = self.f[relay_in][t], self.y[relay_in][t]
            elif v == self.net.source:
                col, sym = self._source_edge(e, t, src_cols.get(e))
            elif not self.net.in_edges[v]:
                col, sym = zero_col, 0  # node unreachable from the source
            else:
                col, sym = self._conv_edge(e, v, t)
            self.f[e].append(col)
            self.y[e].append(sym)
            if self.tracing:
                self.trace_lines.append(f"t={t} sym {self.net.edge_label(e)} {sym}")
        if self.validate_symbols:
            self._verify_step(t)

        newly = []
        if not self.frozen:
            for r in self.sink_order:
                if r in self.t_r:
                    continue
                blocks = self._sink_blocks[r]
                blocks.append(list(zip(*(self.f[e][t] for e in self.net.in_edges[r]))))
                if decodability_test(field, blocks, t, self._sink_cache[r]):
                    self.t_r[r] = t
                    newly.append(r)
                    # nothing reads a decoded sink's rank state again
                    del self._sink_blocks[r], self._sink_cache[r]
            self._propagate_acks(t)
            if all(r in self.t_r for r in self.sink_order) and self.done_t is None:
                self.done_t = t
                self.l_v = self._snapshot_degrees()
                self.frozen = True
        self.t_next += 1
        return newly

    def _source_edge(self, e: int, t: int, drawn: list[int] | None):
        """Column and symbol of source edge e at t; `drawn` is None if e drew no column at t."""
        m = self.m
        pos = self.src_out.index(e)
        if self.source_mode == SOURCE_IDENTITY and pos < m:
            col = tuple(1 if i == pos else 0 for i in range(m)) if t == 0 else (0,) * m
        else:
            col = tuple(drawn) if drawn is not None else (0,) * m
        mul = self.field.mul
        sym = 0
        for i, f_col in enumerate(self.f[e]):  # coefficients 0..t-1
            x_row = self.x[t - i]
            for j in range(m):
                c = f_col[j]
                if c:
                    sym ^= mul(c, x_row[j])
        x0 = self.x[0]  # the fresh z^t coefficient pairs with x_0
        for j in range(m):
            c = col[j]
            if c:
                sym ^= mul(c, x0[j])
        return col, sym

    def _conv_edge(self, e: int, v: int, t: int):
        m = self.m
        mul = self.field.mul
        fnew = [0] * m
        sym = 0
        for e_in in self.net.in_edges[v]:
            kernel = self.kernels.get((e_in, e))
            if kernel is None:
                continue
            f_hist = self.f[e_in]
            y_hist = self.y[e_in]
            lim = min(t, len(kernel) - 1)
            for i in range(lim + 1):
                c = kernel[i]
                if not c:
                    continue
                col = f_hist[t - i]
                if c == 1:
                    for r_i in range(m):
                        fnew[r_i] ^= col[r_i]
                    sym ^= y_hist[t - i]
                else:
                    for r_i in range(m):
                        if col[r_i]:
                            fnew[r_i] ^= mul(c, col[r_i])
                    sym ^= mul(c, y_hist[t - i])
        return tuple(fnew), sym

    def _verify_step(self, t: int) -> None:
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
            v = self.net.tail(e)
            if v == self.net.source or not self.net.in_edges[v]:
                continue
            col, sym = self._conv_edge(e, v, t)
            if col != self.f[e][t] or sym != self.y[e][t]:
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

    def _snapshot_degrees(self) -> dict[int, int]:
        def degree_of(e: int) -> int:
            hist = self.f[e]
            for i in range(len(hist) - 1, -1, -1):
                if any(hist[i]):
                    return i
            return -1

        l_v = {}
        for v in range(self.net.num_nodes):
            if v == self.net.source:
                edges = self.net.out_edges[v]
            else:
                edges = self.net.in_edges[v]
            l_v[v] = max((degree_of(e) for e in edges), default=-1)
        return l_v

    # -- oracle support --------------------------------------------------------

    def clone(self) -> "Engine":
        """Independent copy for branch-and-enumerate callers; coefficient
        columns are shared (immutable tuples), containers are copied, and
        the clone gets a fixed message stream of its own."""
        dup = Engine.__new__(Engine)
        dup.__dict__.update(self.__dict__)
        dup.kernels = {k: list(v) for k, v in self.kernels.items()}
        dup.f = [list(h) for h in self.f]
        dup.y = [list(h) for h in self.y]
        dup.x = list(self.x)
        dup.acked = list(self.acked)
        dup.t_r = dict(self.t_r)
        dup.ack_log = list(self.ack_log)
        dup.trace_lines = list(self.trace_lines)
        dup._sink_blocks = {r: list(b) for r, b in self._sink_blocks.items()}
        dup._sink_cache = {r: c.clone() for r, c in self._sink_cache.items()}
        dup.l_v = dict(self.l_v) if self.l_v is not None else None
        dup.x_rng = np.random.default_rng(0)
        return dup

    # -- decoding ---------------------------------------------------------------

    def build_decoder(self, r: int) -> SinkDecoder:
        if r not in self.t_r:
            raise ValueError(f"sink {r} never decoded")
        in_edges = self.net.in_edges[r]
        t_r = self.t_r[r]
        blocks = [list(zip(*cols)) for cols in zip(*(self.f[e] for e in in_edges))]
        m_mat = build_M(blocks[: t_r + 1])
        d_matrix = solve_decoder(self.field, m_mat, self.m, in_deg=len(in_edges))
        return SinkDecoder(self.field, self.m, len(in_edges), t_r, d_matrix, blocks)

    def received_rows(self, r: int) -> list[list[int]]:
        return [list(row) for row in zip(*(self.y[e] for e in self.net.in_edges[r]))]


def run(
    net: Network,
    q: int,
    t_max: int = 64,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
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
        rng = np.random.default_rng(0 if seed is None else seed)
    eng = Engine(
        net,
        q,
        rng=rng,
        m=m,
        source_mode=source_mode,
        inject=inject,
        validate_symbols=validate_symbols,
    )
    for t in range(t_max + 1):
        eng.step(t)
        if eng.done_t is not None:
            break
    if eng.done_t is None:
        l_v = eng._snapshot_degrees()
        return TraceResult(
            False, q, eng.m, net.num_nodes, eng.sink_order, dict(eng.t_r), l_v, None,
            list(eng.ack_log),
        )

    result = TraceResult(
        True, q, eng.m, net.num_nodes, eng.sink_order, dict(eng.t_r), dict(eng.l_v),
        eng.done_t, list(eng.ack_log),
    )
    if validate_decoding:
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
