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
to a bare unit delay z when the pair is masked) and never grows. A plain
relay edge (kernel 1) carries its root edge's words at the same step, so it
shares the root's history list (`w[e] is w[root]`), and a step computes only
coded edges and masked relays.

What depends only on the network, m and the source mode (the coding/relay
split, relay kernels and roots, the draw order, the propagation plan,
children, parents and unacked-child counts) is built once and kept on the
network, so every trial of a batch and every branch of the exact oracle
reuses it; an engine builds only its histories, drawing kernels and rank
caches. Acks cascade by counting each node's unacked children, in the order
of repeated ascending sweeps over the node ids, and the draw list keeps only
the pairs whose child has not acked. So a step's work follows the coding
nodes and pairs still live, not the size of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

import numpy as np

from .gf import GF
from .netgraph import Network, multicast_rate
from .polymatrix import (
    RankCache,
    SinkDecoder,
    decodability_test,
    kernel_rows,
    pack,
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


class _Layout:
    """What an engine needs that depends only on (network, m, source mode).

    `_layout` builds it on first use and keeps it on the network, so it lives
    exactly as long as the network and every engine on that network shares
    it. It holds no per-trial state: its kernel lists are the fixed relay
    kernels, which never grow.
    """

    def __init__(self, net: Network, m: int, source_mode: str):
        # callers that already computed the rate pass it in; reject values
        # the cut structure rules out without redoing the max-flows
        limit = min(len(net.in_edges[r]) for r in net.sinks)
        if not 1 <= m <= min(limit, len(net.out_edges[net.source])):
            raise ValueError(f"m={m} does not match the multicast rate")
        edges, out_edges, pairs, mask = net.edges, net.out_edges, net.pairs, net.zero_mask
        src, n_edges = net.source, len(edges)
        self.sink_order = tuple(sorted(net.sinks))
        # the source's inputs are m imaginary edges numbered after the real ones
        self.in_edges = in_edges = list(net.in_edges)
        in_edges[src] = inputs = list(range(n_edges, n_edges + m))
        self.coding_nodes, relay_nodes = classify_nodes(net)

        # Draw order: the source's coding out-edges in index order, inputs
        # d_0..d_{m-1} within each, then coding nodes by id, out-edge then
        # in-edge in index order, so each coded edge's kernels are one run
        # of kernel ids. In identity mode the first m source edges relay the
        # inputs instead; the source's out-edges lead the edge order in
        # insertion order.
        n_relayed = m if source_mode == SOURCE_IDENTITY else 0
        src_coded = out_edges[src][n_relayed:]
        draw_pairs = [(d, e) for e in src_coded for d in inputs]
        draw_heads = [edges[e][1] for e in src_coded for _ in inputs]
        # computed edge -> (first kernel id, end kernel id, index of its
        # input edges in in_lists); a coding node's out-edges share one list
        computed = {e: (i * m, (i + 1) * m, 0) for i, e in enumerate(src_coded)}
        self.in_lists = [inputs]
        for v in self.coding_nodes:
            start, deg, j = len(draw_pairs), len(in_edges[v]), len(self.in_lists)
            self.in_lists.append([e_in for e_in, _ in pairs[v][:deg]])
            for i, e in enumerate(out_edges[v]):
                computed[e] = (start + i * deg, start + (i + 1) * deg, j)
                draw_heads += [edges[e][1]] * deg
            draw_pairs += pairs[v]
        self.draw_pairs, self.draw_heads = draw_pairs, draw_heads

        # relay kernels; a masked relay is computed (its kernel ids follow
        # the drawn ones), a plain one carries its in-edge's words
        copies = {}  # plain relay out-edge -> the in-edge it copies
        self.relay_kernels = relay_kernels = {}
        self.fixed_kernels = fixed = []
        relay_pairs = [pair for v in relay_nodes for pair in pairs[v]]
        relay_pairs += zip(inputs, out_edges[src][:n_relayed])
        for pair in relay_pairs:
            e_in, e_out = pair
            if pair in mask:
                kid = len(draw_pairs) + len(fixed)
                computed[e_out] = (kid, kid + 1, len(self.in_lists))
                self.in_lists.append([e_in])
                relay_kernels[pair] = [0, 1]
                fixed.append(relay_kernels[pair])
            else:
                relay_kernels[pair] = [1]
                copies[e_out] = e_in

        # one history per root edge: the inputs first, then each computed
        # edge in propagation order; a plain relay edge takes its root's
        self.hist_of = hist_of = [0] * n_edges + list(range(m))
        self.plan = plan = []  # kernel ids and inputs of each computed edge
        no_taps = (0, 0, 0)  # out-edges of a node without in-edges carry zeros
        for e in net.edge_order:
            if e in copies:
                hist_of[e] = hist_of[copies[e]]
            else:
                hist_of[e] = m + len(plan)
                plan.append(computed.get(e, no_taps))
        self.n_hists = m + len(plan)

        # the ack cascade: children, parents, and the nodes that ack at t=0
        # whatever is drawn, the childless non-sinks
        sinks = set(net.sinks)
        self.children = children = []
        self.parents = parents = [[] for _ in range(net.num_nodes)]
        self.leaves = leaves = []
        for v, outs in enumerate(out_edges):
            kids = sorted({edges[e][1] for e in outs}) if outs else []
            children.append(kids)
            for c in kids:
                parents[c].append(v)
            if not kids and v not in sinks:
                leaves.append(v)
        self.unacked = list(map(len, children))


def _layout(net: Network, m: int, source_mode: str) -> _Layout:
    """The engine layout of (net, m, source_mode), kept on the network."""
    layouts = vars(net).setdefault("_engine_layouts", {})
    lay = layouts.get((m, source_mode))
    if lay is None:
        lay = layouts[m, source_mode] = _Layout(net, m, source_mode)
    return lay


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
        self.m = m = multicast_rate(net) if m is None else m
        self._lay = lay = _layout(net, m, source_mode)
        self.rng = rng
        self.x_rng = rng.spawn(1)[0] if rng is not None else np.random.default_rng(0)
        self.validate_symbols = validate_symbols
        self.tracing = tracing
        self.trace_lines: list[str] = []
        self.mask = net.zero_mask
        self.in_edges = lay.in_edges
        self.children = lay.children

        k = self.field.k
        self._colmask = colmask = (1 << m * k) - 1
        self._hists: list[list[int]] = [[] for _ in range(lay.n_hists)]
        self.w: list[list[int]] = [self._hists[h] for h in lay.hist_of]
        self.f = _WordView(self.w, lambda word: tuple(unpack(k, word & colmask, m)))
        self.y = _WordView(self.w, lambda word: word >> m * k)
        self.x: list[tuple] = []
        self._drawn = drawn = [[] for _ in lay.draw_pairs]  # drawing kernels in draw order
        by_id = drawn + lay.fixed_kernels
        # (pair, kernel, child) in draw order for every pair whose child has
        # not acked and whose kernel is not injected
        self._live = list(zip(lay.draw_pairs, drawn, lay.draw_heads))
        # per computed edge in propagation order: its history, its kernels
        # and its input histories; lists grow in place, so the plan stays current
        in_hists = [[self.w[e] for e in ins] for ins in lay.in_lists]
        self._plan = [(self._hists[h], by_id[a:b], in_hists[j]) for h, (a, b, j) in enumerate(lay.plan, m)]

        self.acked = [False] * net.num_nodes
        self._unacked = list(lay.unacked)
        self.sink_order = lay.sink_order
        self.t_r: dict[int, int] = {}
        self.ack_log: list[tuple[int, int]] = []
        self._sink_cache = {  # rank state of each undecoded sink, fed by its in-edges' words
            r: RankCache(self.field, m, [self.w[e] for e in net.in_edges[r]])
            for r in self.sink_order
        }
        self._decoder_cache: dict[int, RankCache] = {}  # what solve_decoder reads, per decoded sink
        self.t_next = 0
        self.done_t: int | None = None
        self.l_v: dict[int, int] | None = None
        self.inject: dict[tuple[int, int], list[int]] = {}
        if inject:
            self.inject_kernels(inject)

    # -- draw bookkeeping ---------------------------------------------------

    @cached_property
    def kernels(self) -> dict[tuple[int, int], list[int]]:
        """Local kernel of every adjacent pair that has one, relays included,
        built on first use: the lists are the ones the engine grows."""
        kernels = dict(self._lay.relay_kernels)
        kernels.update(zip(self._lay.draw_pairs, self._drawn))
        return kernels

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
            if pair not in self.kernels or self.net.tail(pair[1]) not in self._lay.coding_nodes:
                raise ValueError(f"cannot inject kernel for pair {pair}")
            coeffs = [self.field.validate(int(c)) for c in coeffs]
            if pair in self.mask and coeffs and coeffs[0] != 0:
                raise ValueError(f"pair {pair} is zero-masked at t=0")
            self.inject[pair] = coeffs
        self._live = [d for d in self._live if d[0] not in self.inject]

    def rng_slots(self, t: int) -> list[tuple[int, int]]:
        """Ordered draw slots for step t given the current stop state.

        One slot is one field element, the next coefficient of the local
        kernel of an adjacent pair (e_in, e_out): the source's pairs first
        (its coding out-edges in index order, inputs d_0..d_{m-1} within
        each), then coding nodes in ascending id, out-edge then in-edge in
        index order. Pairs toward an acked child, masked pairs at t=0 and
        injected pairs are not drawn. This is the one draw order: the
        one-shot baseline (`rlnc.rlnc_run`) is this engine stopped at t=0,
        and the exact enumeration oracle replays draws for these slots
        through `step`. The order is laid out once per network; the engine
        keeps its live pairs in it and prunes them as acks land.
        """
        return [pair for pair, _, _ in self._draws(t)]

    def _draws(self, t: int) -> list:
        """(pair, kernel, child) of each slot of step t, in slot order."""
        if self.done_t is not None:
            return []
        if t or not self.mask:
            return self._live
        return [d for d in self._live if d[0] not in self.mask]

    def _apply_draws(self, t: int, vals) -> None:
        """Append this step's draws, then forced zeros and injected values,
        to the local kernels. The trace lists coding-node draws, then one
        column per source edge that drew, then forced and injected values."""
        draws = self._draws(t)
        for (_, kernel, _), val in zip(draws, vals):
            kernel.append(val)
        lab = self.net.edge_label
        if self.tracing:
            src_draws: dict[int, list[int]] = {}
            for ((e_in, e_out), _, _), val in zip(draws, vals):
                if self.net.tail(e_out) == self.net.source:
                    src_draws.setdefault(e_out, []).append(val)
                else:
                    self.trace_lines.append(f"t={t} draw {lab(e_in)}->{lab(e_out)} {val}")
            for e, col in src_draws.items():
                self.trace_lines.append(f"t={t} draw src->{lab(e)} {tuple(col)}")
        if self.done_t is not None or not (t == 0 and self.mask or self.inject):
            return  # nothing is forced: no masked pair at t=0, no injection
        acked = self.acked
        for pair, kernel, child in zip(self._lay.draw_pairs, self._drawn, self._lay.draw_heads):
            if acked[child]:
                continue
            if pair in self.inject:
                coeffs = self.inject[pair]
                val = coeffs[t] if t < len(coeffs) else 0
            elif t == 0 and pair in self.mask:
                val = 0  # masked pairs still gain their forced zero
            else:
                continue
            kernel.append(val)
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
            vals = self.rng.integers(0, self.q, size=len(slots)).tolist()
        else:
            vals = []
        self._apply_draws(t, vals)

        x_t = tuple(self.x_rng.integers(0, self.q, size=m).tolist())
        self.x.append(x_t)
        k, sym_shift = field.k, m * field.k
        for j, hist in enumerate(self._hists[:m]):  # the inputs d_0..d_{m-1}
            hist.append((1 << j * k if t == 0 else 0) | x_t[j] << sym_shift)

        conv = self._conv
        for hist, kernels, inputs in self._plan:
            hist.append(conv(zip(kernels, inputs), t))
        if self.tracing:
            lab, w = self.net.edge_label, self.w
            self.trace_lines.extend(f"t={t} sym {lab(e)} {w[e][t] >> sym_shift}" for e in self.net.edge_order)
        if self.validate_symbols:
            self._verify_step(t)

        newly = []
        if self.done_t is None:
            for r, cache in list(self._sink_cache.items()):  # undecoded sinks in sink order
                if decodability_test(cache, t):
                    self.t_r[r] = t
                    newly.append(r)
                    cache.keep_decoder()  # a decoded sink's rank state is read only for its decoder
                    self._decoder_cache[r] = self._sink_cache.pop(r)
            self._propagate_acks(t, newly)
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

    def _propagate_acks(self, t: int, newly: list[int]) -> None:
        """Ack every node whose children have all acked and that, if a sink,
        has decoded, in the order of repeated ascending sweeps over the node
        ids: a node that becomes ready above the one just acked acks in the
        same sweep, one below it in the next. Only newly decoded sinks (and,
        at t=0, childless non-sinks) can start a cascade."""
        unacked = self._unacked
        ready = [r for r in newly if not unacked[r]]
        if t == 0:
            ready += self._lay.leaves
        if not ready:
            return
        acked, parents, undecoded = self.acked, self._lay.parents, self._sink_cache
        next_sweep: list[int] = []
        while ready:
            heapify(ready)
            while ready:
                v = heappop(ready)
                acked[v] = True
                self.ack_log.append((t, v))
                if self.tracing:
                    self.trace_lines.append(f"t={t} ack n{v}")
                for u in parents[v]:
                    unacked[u] -= 1
                    if not unacked[u] and u not in undecoded:
                        if u > v:
                            heappush(ready, u)
                        else:
                            next_sweep.append(u)
            ready, next_sweep = next_sweep, []
        # kernels toward an acked child stay frozen: that child's whole
        # subtree has decoded and needs nothing new
        self._live = [d for d in self._live if not acked[d[2]]]

    def _snapshot_degrees(self) -> dict[int, int]:
        """L_v per node: the last step at which an edge into v (out of the
        source, for the source) has a nonzero column, -1 if none. Each
        distinct history's degree is found once."""
        colmask = self._colmask
        degree = [next((i for i in range(len(h) - 1, -1, -1) if h[i] & colmask), -1) for h in self._hists]
        net, hist_of = self.net, self._lay.hist_of
        feeds = list(net.in_edges)
        feeds[net.source] = net.out_edges[net.source]
        return {v: max((degree[hist_of[e]] for e in edges), default=-1) for v, edges in enumerate(feeds)}

    # -- decoding ---------------------------------------------------------------

    def build_decoder(self, r: int) -> SinkDecoder:
        """Decoder of sink r over every step run so far: D from the rank cache
        the sink decoded on, and one transposition of its in-edge words into
        the rows of F_r(z) and the received stream."""
        if r not in self.t_r:
            raise ValueError(f"sink {r} never decoded")
        words = [self.w[e] for e in self.net.in_edges[r]]
        field, m, blocks = self.field, self.m, len(words[0])
        *f_rows, y_row = kernel_rows(field, words, blocks, m + 1)
        d_rows = solve_decoder(self._decoder_cache[r])
        return SinkDecoder(field, m, len(words), self.t_r[r], d_rows, f_rows, y_row, blocks)


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
        k = eng.field.k
        x_packed = [pack(k, x) for x in eng.x]  # the source stream, packed once
        decoded = {}
        for r in eng.sink_order:
            dec = eng.build_decoder(r)
            x_hat = sequential_decode(dec, dec.y_row, dec.blocks)
            if x_hat != x_packed[: len(x_hat)]:
                raise DecodeMismatch(
                    f"sequential decoding at sink {r} disagreed with the injected stream"
                )
            decoded[r] = x_hat
        result.decode_checked = True
        if keep_streams:
            result.decoded = {r: [tuple(unpack(k, x, eng.m)) for x in xs] for r, xs in decoded.items()}
    return result
