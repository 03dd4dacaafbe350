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
`GF.mul_lanes`, and the sinks' rank rows are built from these words
directly. `f` and `y` are read-only views that unpack one edge's history
when asked.

The source is a coding node fed by m imaginary input edges d_0..d_{m-1}
(engine-local ids after the network's edges): d_j carries the unit column
e_j at t=0, the zero column after, and the symbol x_t[j], so one
convolution gives every edge's column and symbol. In identity source mode
the first m source out-edges relay d_0..d_{m-1} instead of coding.

Single-parent nodes route instead of code: their kernel is pinned to 1 (or
to a bare unit delay z when the pair is masked) and never grows. A plain
relay edge (kernel 1) carries its root edge's words at the same step, so it
shares the root's history list (`w[e] is w[root]`), and a step computes only
coded edges and masked relays, in one loop over the propagation plan, the
one convolution: a word's column and symbol share its taps, so the symbol
identity y_e[t] = sum_i f_e[i] x_{t-i} holds by linearity.

Coefficients are kept per coded edge (an out-edge of a coding node or a
coding source edge), not per adjacent pair: the edge holds one coefficient
row per step it drew, row t holding coefficient t of the local kernel from
each of its inputs. A step slices its draws into one row per live coded
edge (masked positions take a forced 0 at t=0) and convolves the rows with
the input histories; once an edge stops drawing, its rows are flattened
into their nonzero taps for the steps that follow. `kernels` is a per-pair
view built from the rows.

What depends only on the network, m and the source mode (the coding/relay
split, relay pairs and roots, the draw order and its t=0 part, the
propagation plan, children, parents and unacked-child counts, and L_v's
runs of histories) is built once and kept on the network, so every trial
of a batch and every branch of the exact oracle reuses it; an engine
builds only its histories, coefficient rows and one rank state (pivot
rows, their tags and a step count) per sink. A sink's state stops changing
when it decodes and is kept whole; its decoder reads the block-0 pivots.
Sink-side work follows the distinct histories, not the sinks: the layout
lists each sink in-edge's history, a getter of each sink's rows and the
distinct histories that feed a sink, a step builds each such history's
Toeplitz row once while any sink is undecoded and runs one rank test per
undecoded sink on the rows of its in-edges, and the decode check packs
streams over time: each such history builds one window per lag up to the
largest delay of the sinks it feeds, and every sink checks its whole
decoded stream at once from its histories' windows through D's columns.
L_v is one maximum over every node's run of histories.
Acks cascade by counting each node's unacked children, in the order of
repeated ascending sweeps over the node ids, and the live list keeps only
the coded edges whose child has not acked. So a step's work follows the
coding nodes and edges still live, not the size of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .gf import GF
from .netgraph import Network, multicast_rate
from .polymatrix import SinkRank, decodability_test, pack, sequential_decode, solve_decoder, unpack

__all__ = [
    "DecodeMismatch",
    "Engine",
    "TraceResult",
    "decode_streams",
    "run",
    "classify_nodes",
    "SOURCE_RANDOM",
    "SOURCE_IDENTITY",
]

SOURCE_RANDOM = "random"
SOURCE_IDENTITY = "identity"

# Coefficient rows of the computed edges that draw nothing, indexed after
# the coded edges' rows: a masked relay delays its one input by a step (row
# t holds the coefficient of lag t), and an out-edge of a node without
# in-edges carries zeros.
_FIXED_ROWS = (((0,), (1,)), ())
_MASKED_RELAY, _NO_INPUTS = -2, -1


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
    """A sink's sequential decode disagreed with the source stream."""


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


class _Layout:
    """What an engine needs that depends only on (network, m, source mode).

    `_layout` builds it on first use and keeps it on the network, so it lives
    exactly as long as the network and every engine on that network shares
    it. It holds no per-trial state.
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
        inputs = list(range(n_edges, n_edges + m))
        coding_nodes, relay_nodes = classify_nodes(net)

        # Draw order: the source's coding out-edges in index order, inputs
        # d_0..d_{m-1} within each, then coding nodes by id, out-edge then
        # in-edge in index order, so each coded edge's slots are one run. In
        # identity mode the first m source edges relay the inputs instead;
        # the source's out-edges lead the edge order in insertion order.
        n_relayed = m if source_mode == SOURCE_IDENTITY else 0
        src_coded = out_edges[src][n_relayed:]
        self.slots = slots = [(d, e) for e in src_coded for d in inputs]
        coded = list(src_coded)  # coded edges in draw order
        widths = [m] * len(coded)
        # computed edge -> (its rows: a coded edge's draw-order index, or
        # _MASKED_RELAY or _NO_INPUTS; index of its input edges in in_lists);
        # a coding node's out-edges share one input list
        computed = {e: (i, 0) for i, e in enumerate(coded)}
        self.in_lists = [inputs]
        for v in coding_nodes:
            deg, j = len(net.in_edges[v]), len(self.in_lists)
            self.in_lists.append([e_in for e_in, _ in pairs[v][:deg]])
            for e in out_edges[v]:
                computed[e] = (len(coded), j)
                coded.append(e)
            widths += [deg] * len(out_edges[v])
            slots += pairs[v]
        # coded edge i draws the slots cut_starts[i]:cut_ends[i], one per input
        self.cut_ends = list(accumulate(widths))
        self.cut_starts = [0, *self.cut_ends[:-1]]
        self.coded_heads = [edges[e][1] for e in coded]
        # the slots drawn at t=0, and the indices of the masked ones, which
        # are not drawn then and take a forced 0 instead
        self.slots0, self.zero_slots = [], []
        for i, pair in enumerate(slots):
            if pair in mask:
                self.zero_slots.append(i)
            else:
                self.slots0.append(pair)

        # relay pairs; a masked relay is computed (it delays its input one
        # step), a plain one carries its in-edge's words
        copies = {}  # plain relay out-edge -> the in-edge it copies
        self.relay_pairs = relay_pairs = [pair for v in relay_nodes for pair in pairs[v]]
        relay_pairs += zip(inputs, out_edges[src][:n_relayed])
        for pair in relay_pairs:
            e_in, e_out = pair
            if pair in mask:
                computed[e_out] = (_MASKED_RELAY, len(self.in_lists))
                self.in_lists.append([e_in])
            else:
                copies[e_out] = e_in

        # one history per root edge: the inputs first, then each computed
        # edge in propagation order; a plain relay edge takes its root's
        self.hist_of = hist_of = [0] * n_edges + list(range(m))
        self.plan = plan = []  # rows and inputs of each computed edge
        self.coded_plan = [0] * len(coded)  # each coded edge's place in the plan
        no_taps = (_NO_INPUTS, 0)  # out-edges of a node without in-edges carry zeros
        for e in net.edge_order:
            if e in copies:
                hist_of[e] = hist_of[copies[e]]
            else:
                hist_of[e] = m + len(plan)
                entry = computed.get(e, no_taps)
                if entry[0] >= 0:
                    self.coded_plan[entry[0]] = len(plan)
                plan.append(entry)
        self.n_hists = m + len(plan)
        # the history of each sink in-edge, sinks in sink order, the getter
        # of a sink's rows from the rows indexed by history, one row per
        # in-edge (a one-row slice for one in-edge, where itemgetter would
        # return the bare row), and the distinct histories that feed a sink
        self.sink_hists = sink_hists = {r: [hist_of[e] for e in net.in_edges[r]] for r in self.sink_order}
        self.sink_rows = {
            r: itemgetter(*hists) if len(hists) > 1 else itemgetter(slice(hists[0], hists[0] + 1))
            for r, hists in sink_hists.items()
        }
        self.fed_hists = sorted({h for hists in sink_hists.values() for h in hists})
        # L_v's runs: per node, the histories of the edges into it (out of the
        # source, for the source), each run opened by index n_hists, a -1
        # sentinel after the degrees, so no run is empty
        feeds = list(net.in_edges)
        feeds[src] = out_edges[src]
        runs, starts = [], []
        for v_edges in feeds:
            starts.append(len(runs))
            runs.append(self.n_hists)
            runs += [hist_of[e] for e in v_edges]
        self.degree_runs = np.array(runs), np.array(starts)

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
        self.tracing = tracing
        self.trace_lines: list[str] = []
        self.children = lay.children

        k = self.field.k
        self._colmask = colmask = (1 << m * k) - 1
        self._hists: list[list[int]] = [[] for _ in range(lay.n_hists)]
        self.w: list[list[int]] = [self._hists[h] for h in lay.hist_of]
        self.f = _WordView(self.w, lambda word: tuple(unpack(k, word & colmask, m)))
        self.y = _WordView(self.w, lambda word: word >> m * k)
        self.x: list[tuple] = []
        # one coefficient row per coded edge and step drawn: row t holds the
        # coefficient of lag t of each of its inputs' kernels
        self._rows: list[list[list[int]]] = [[] for _ in lay.coded_heads]
        by_id = self._rows + list(_FIXED_ROWS)
        # per computed edge in propagation order: its history, its rows and
        # its input histories; lists grow in place, so the plan stays current
        in_hists = [[self.w[e] for e in ins] for ins in lay.in_lists]
        self._plan = [(self._hists[h], by_id[c], in_hists[j]) for h, (c, j) in enumerate(lay.plan, m)]
        # the coded edges that still draw (ids in draw order), their slots,
        # and each one's rows with the slice of a step's draws it takes
        self._live = range(len(self._rows))
        self._slots = lay.slots
        self._cuts = list(zip(self._rows, lay.cut_starts, lay.cut_ends))
        self._stopped: list[int] = []  # coded edges that stopped drawing, plan entries not yet flattened
        self.acked = [False] * net.num_nodes
        self._unacked = list(lay.unacked)
        self.sink_order = lay.sink_order
        self.t_r: dict[int, int] = {}
        self.ack_log: list[tuple[int, int]] = []
        # row_h(t) of each sink-feeding history h at the last step, indexed
        # by history: the row of M_{r,t}^T of every sink in-edge on h
        self._sink_rows = [0] * lay.n_hists
        self._undecoded = {r: SinkRank(self.field, m) for r in lay.sink_order}  # in sink order
        self._decoded: dict[int, SinkRank] = {}  # as at t_r; solve_decoder reads the block-0 pivots
        self.t_next = 0
        self.done_t: int | None = None
        self.l_v: dict[int, int] | None = None

    # -- draw bookkeeping ---------------------------------------------------

    @property
    def kernels(self) -> dict[tuple[int, int], list[int]]:
        """Local kernel of every adjacent pair that has one, relays included,
        a view built from the coefficient rows on each access: the kernel of
        a coded edge's i-th input is column i of its rows."""
        lay = self._lay
        mask = self.net.zero_mask  # a masked relay delays by a step, a plain one copies
        kernels = {pair: [0, 1] if pair in mask else [1] for pair in lay.relay_pairs}
        for rows, start, end in zip(self._rows, lay.cut_starts, lay.cut_ends):
            for i, pair in enumerate(lay.slots[start:end]):
                kernels[pair] = [row[i] for row in rows]
        return kernels

    def _set_live(self, live: list) -> None:
        """Keep only the coded edges `live` drawing: their slots, and the
        slice of a step's draws each one's row takes. The next step
        flattens the rows of the edges dropped."""
        lay = self._lay
        self._stopped += set(self._live).difference(live)
        self._live, self._slots, self._cuts = live, [], []
        end = 0
        for i in live:
            start, end = end, end + lay.cut_ends[i] - lay.cut_starts[i]
            self._slots += lay.slots[lay.cut_starts[i] : lay.cut_ends[i]]
            self._cuts.append((self._rows[i], start, end))

    def rng_slots(self, t: int) -> list[tuple[int, int]]:
        """Ordered draw slots for step t given the current stop state.

        One slot is one field element, the next coefficient of the local
        kernel of an adjacent pair (e_in, e_out): the source's pairs first
        (its coding out-edges in index order, inputs d_0..d_{m-1} within
        each), then coding nodes in ascending id, out-edge then in-edge in
        index order. Pairs toward an acked child and masked pairs at t=0
        are not drawn. This is the one draw order: the one-shot baseline
        (`rlnc.rlnc_run`) is this engine stopped at t=0, and values for
        these slots passed to `step(t, draws=)` replay a run or pin its
        kernels, as the exact enumeration oracle does. The order is laid out
        once per network, one run of slots per coded edge; the engine keeps
        its live coded edges in it and prunes them as acks land.
        """
        if self.done_t is not None:
            return []
        return self._slots[:] if t else self._lay.slots0[:]

    def _apply_draws(self, t: int, slots: list, vals: list) -> None:
        """Append this step's row to each live coded edge, its slice of the
        draws, once at t=0 the masked slots have taken their forced 0. The
        trace lists coding-node draws, then one column per source edge that
        drew, then the forced zeros."""
        if self.done_t is not None:
            return
        zero_slots = () if t else self._lay.zero_slots
        if self.tracing:
            lab = self.net.edge_label
            src_draws: dict[int, list[int]] = {}
            for (e_in, e_out), val in zip(slots, vals):
                if self.net.tail(e_out) == self.net.source:
                    src_draws.setdefault(e_out, []).append(val)
                else:
                    self.trace_lines.append(f"t={t} draw {lab(e_in)}->{lab(e_out)} {val}")
            for e, col in src_draws.items():
                self.trace_lines.append(f"t={t} draw src->{lab(e)} {tuple(col)}")
            for i in zero_slots:
                e_in, e_out = self._lay.slots[i]
                self.trace_lines.append(f"t=0 draw {lab(e_in)}->{lab(e_out)} 0")
        if zero_slots:
            # nothing has acked before step 0 ends, so every slot is live
            vals = list(vals)
            for i in zero_slots:
                vals.insert(i, 0)
        for rows, start, end in self._cuts:
            rows.append(vals[start:end])

    # -- one time step --------------------------------------------------------

    def step(self, t: int, draws=None) -> list[int]:
        """Advance one time step; returns the sinks that newly decoded.

        draws, when given, are the values of `rng_slots(t)` in order and
        replace the rng's draws, so a run can be replayed slot for slot or
        its kernels pinned. This is the only way to set coefficients.
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
        self._apply_draws(t, slots, vals)

        x_t = tuple(self.x_rng.integers(0, self.q, size=m).tolist())
        self.x.append(x_t)
        k, sym_shift = field.k, m * field.k
        for j, hist in enumerate(self._hists[:m]):  # the inputs d_0..d_{m-1}
            hist.append((1 << j * k if t == 0 else 0) | x_t[j] << sym_shift)

        # a computed edge's word convolves its rows with its inputs: row i
        # with the inputs' words at t - i (a masked relay's row 1 waits for
        # t=1). Rows that no longer grow are flattened once into their
        # nonzero taps (coefficient, input history, lag), the plan entry
        # (history, taps, None), so a long frozen kernel costs one loop.
        plan = self._plan
        for i in self._stopped:
            at = self._lay.coded_plan[i]
            hist, rows, inputs = plan[at]
            plan[at] = hist, [(c, src, lag) for lag, row in enumerate(rows) for c, src in zip(row, inputs) if c], None
        self._stopped = []
        mul_lanes = field.mul_lanes
        lags = range(t, -1, -1)
        for hist, rows, inputs in plan:
            word = 0
            if inputs is None:
                for c, src, lag in rows:
                    word ^= src[t - lag] if c == 1 else mul_lanes(c, src[t - lag])
            else:
                for row, back in zip(rows, lags):
                    for c, src in zip(row, inputs):
                        if c:
                            word ^= src[back] if c == 1 else mul_lanes(c, src[back])
            hist.append(word)
        if self.tracing:
            lab, w = self.net.edge_label, self.w
            self.trace_lines.extend(f"t={t} sym {lab(e)} {w[e][t] >> sym_shift}" for e in self.net.edge_order)

        newly = []
        if self.done_t is None:
            # each sink-feeding history's row once, whatever sinks it feeds:
            # its columns f_h[t], ..., f_h[0] in blocks of m lanes
            rows, hists, colmask = self._sink_rows, self._hists, self._colmask
            for h in self._lay.fed_hists:
                rows[h] = hists[h][t] & colmask | rows[h] << sym_shift
            sink_rows = self._lay.sink_rows
            for r, sink in self._undecoded.items():
                if decodability_test(sink, sink_rows[r](rows)):
                    newly.append(r)
            for r in newly:
                self.t_r[r] = t
                self._decoded[r] = self._undecoded.pop(r)
            self._propagate_acks(t, newly)
            if not self._undecoded:
                self.done_t = t
                self.l_v = self._snapshot_degrees()
                self._set_live([])  # nothing draws after t_n
        self.t_next += 1
        return newly

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
        acked, parents, undecoded = self.acked, self._lay.parents, self._undecoded
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
        heads = self._lay.coded_heads
        live = [i for i in self._live if not acked[heads[i]]]
        if len(live) < len(self._live):
            self._set_live(live)

    def _snapshot_degrees(self) -> dict[int, int]:
        """L_v per node: the last step at which an edge into v (out of the
        source, for the source) has a nonzero column, -1 if none. Each
        distinct history's degree is found once, by a backward scan, and
        every L_v from one maximum over the layout's runs of histories."""
        colmask = self._colmask
        degree = []
        for h in self._hists:
            i = len(h) - 1
            while i >= 0 and not h[i] & colmask:
                i -= 1
            degree.append(i)
        degree.append(-1)  # the sentinel opening every run
        runs, starts = self._lay.degree_runs
        return dict(enumerate(np.maximum.reduceat(np.array(degree)[runs], starts).tolist()))


def decode_streams(eng: Engine) -> dict[int, list[int]]:
    """Decode every sink over the steps run so far; returns the packed
    x_t each sink recovered, in sink order. A stream that disagrees with the
    source stream raises `DecodeMismatch`, naming the first such sink."""
    for r in eng.sink_order:
        if r not in eng.t_r:
            raise ValueError(f"sink {r} never decoded")
    k = eng.field.k
    x_packed = [pack(k, x) for x in eng.x]  # the source stream, packed once
    sink_hists = eng._lay.sink_hists
    sinks = [(eng.t_r[r], hists, solve_decoder(eng._decoded[r])) for r, hists in sink_hists.items()]
    bad = sequential_decode(eng.field, eng.m, eng._hists, x_packed, sinks)
    for r, t in zip(eng.sink_order, bad):
        if t is not None:
            raise DecodeMismatch(f"sequential decoding at sink {r} disagreed with the source stream")
    n = len(x_packed)
    return {r: x_packed[: n - eng.t_r[r]] for r in eng.sink_order}


def run(
    net: Network,
    q: int,
    t_max: int = 64,
    rng: np.random.Generator | None = None,
    m: int | None = None,
    source_mode: str = SOURCE_RANDOM,
    validate_decoding: bool = True,
) -> TraceResult:
    """Run the protocol until every sink decodes or the horizon passes.

    A run that exhausts t_max is returned as a failure record (success
    probability estimates need those), not raised. On success with
    validate_decoding the decoder of every sink is solved and a random source
    stream is recovered end to end; a mismatch raises `DecodeMismatch`,
    since the decodability test guarantees a solution. That decode reads
    every sink's symbol lanes, so it is also the run-time check that they
    carry the symbols the columns promise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    eng = Engine(net, q, rng=rng, m=m, source_mode=source_mode)
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
        want = eng.done_t + max(result.t_r.values()) + 3
        while len(eng.x) < want:
            eng.step(eng.t_next)
        decode_streams(eng)
        result.decode_checked = True
    return result
