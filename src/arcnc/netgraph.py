"""Directed multigraph network model.

A Network is immutable after construction: nodes are 0..num_nodes-1, edges
are (tail, head) pairs identified by position (multi-edges allowed, unit
capacity each), one source, and a set of must-decode sinks. Construction
assigns the deterministic breadth-first edge order, lists the adjacent
pairs through every node once in that order, as plain (e_in, e_out)
tuples of edge ids, and from them derives the zero-initialization mask
that puts at least one unit delay on every directed cycle, certified by
the edge order: every unmasked pair increases in it, as the engine's one
sweep needs, so the order is topological on the unmasked pairs and no
delay-free cycle passes.

The multicast rate is the smallest source-sink max-flow. Each max-flow
starts from the paths of one depth-first pass back from its sink, augments
them by searches that also run backward from the sink, and stops at a cap,
the running minimum over the sinks already cut; see `min_cut`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

__all__ = [
    "Network",
    "index_edges",
    "zero_init_mask",
    "all_zero_fallback",
    "has_cycle",
    "min_cut",
    "multicast_rate",
    "to_dot",
]


class Network:
    """Directed multigraph with a single source and a set of sinks.

    Use Network.build(); the raw constructor performs no validation or
    edge indexing.
    """

    def __init__(self, num_nodes, edges, source, sinks, shaded=()):
        self.num_nodes = num_nodes
        self.edges = [(int(t), int(h)) for t, h in edges]
        self.source = source
        self.sinks = tuple(sinks)
        self.shaded = frozenset(shaded)
        self.in_edges = [[] for _ in range(num_nodes)]
        self.out_edges = [[] for _ in range(num_nodes)]
        for e, (t, h) in enumerate(self.edges):
            self.out_edges[t].append(e)
            self.in_edges[h].append(e)
        self.edge_order: list[int] = []
        self.edge_pos: list[int] = []
        # pairs[v]: adjacent pairs (e_in, e_out) through v, e_in entering v and
        # e_out leaving it, ordered by e_out's then e_in's index
        self.pairs: list[list[tuple[int, int]]] = []
        self.zero_mask: frozenset[tuple[int, int]] = frozenset()

    @classmethod
    def build(cls, num_nodes, edges, source, sinks, shaded=(), mask="indexed"):
        """Validate, assign the edge order, list the adjacent pairs, and
        compute the zero mask and certify it against the edge order.

        mask 'indexed' derives the minimal-delay mask from the edge order;
        'all_zero' masks every adjacent pair (a unit delay per hop), which
        needs no topology knowledge at all.
        """
        net = cls(num_nodes, edges, source, sinks, shaded)
        for e in net.in_edges[source]:
            raise ValueError(f"source has incoming edge {net.edges[e]}")
        if not net.sinks:
            raise ValueError("network needs at least one sink")
        reach = net.reachable_from_source()
        for r in net.sinks:
            if r not in reach:
                raise ValueError(f"sink {r} unreachable from source")
        net.edge_order = index_edges(net)
        net.edge_pos = [0] * len(net.edges)
        for pos, e in enumerate(net.edge_order):
            net.edge_pos[e] = pos
        # index_edges lists each node's out-edges together in insertion
        # order, so only the in-edges need sorting into position order, and
        # only where there are pairs and two in-edges or more
        by_pos = net.edge_pos.__getitem__
        for ins, outs in zip(net.in_edges, net.out_edges):
            if outs and len(ins) > 1:
                ins = sorted(ins, key=by_pos)
            net.pairs.append([(e_in, e_out) for e_out in outs for e_in in ins])
        if mask == "indexed":
            net.zero_mask = zero_init_mask(net)
        elif mask == "all_zero":
            net.zero_mask = all_zero_fallback(net)
        else:
            raise ValueError(f"unknown mask mode {mask!r}")
        # an unmasked pair that does not increase is read before it is computed
        pos, zero_mask = net.edge_pos, net.zero_mask
        for pairs in net.pairs:
            for pair in pairs:
                if pos[pair[0]] >= pos[pair[1]] and pair not in zero_mask:
                    raise AssertionError("zero mask leaves a delay-free cycle")
        return net

    def reachable_from_source(self) -> set[int]:
        seen = {self.source}
        queue = deque([self.source])
        while queue:
            v = queue.popleft()
            for e in self.out_edges[v]:
                h = self.edges[e][1]
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
        return seen

    def tail(self, e: int) -> int:
        return self.edges[e][0]

    def head(self, e: int) -> int:
        return self.edges[e][1]

    def edge_label(self, e: int) -> str:
        """1-based label following the assigned order, e.g. 'e3'."""
        return f"e{self.edge_pos[e] + 1}"

    def __repr__(self) -> str:
        return (
            f"Network({self.num_nodes} nodes, {len(self.edges)} edges, "
            f"source={self.source}, sinks={list(self.sinks)})"
        )


def index_edges(net: Network) -> list[int]:
    """Deterministic edge order: one breadth-first pass from the source.

    Dequeuing a node indexes all of its out-edges consecutively, in
    insertion order, so the source's out-edges come first. Each indexed
    edge takes one off its head's pending count (its in-degree on an
    acyclic graph, 1 on a cyclic one), and a node is queued when its count
    reaches 0, ties of one dequeue step in ascending id. On a cyclic graph
    this is plain breadth-first order, which yields the shuttle example's
    canonical labels. Nodes the pass never dequeues follow: on a cyclic
    graph, those the source cannot reach, in node-id order; on an acyclic
    graph, Kahn's order, smallest ready id first, which is node-id order
    whenever ids are topological. So every node of a DAG is indexed after
    its in-edges, every adjacent pair increases and the zero mask is empty;
    on a cyclic graph any total order keeps the mask covering every cycle.
    """
    edges, out_edges = net.edges, net.out_edges
    acyclic = not has_cycle(net)
    pending = [len(ins) for ins in net.in_edges] if acyclic else [1] * net.num_nodes
    dequeued = [False] * net.num_nodes
    order = []

    def dequeue(v: int) -> list[int]:  # the heads whose count reaches 0
        dequeued[v] = True
        ready = []
        for e in out_edges[v]:
            order.append(e)
            h = edges[e][1]
            pending[h] -= 1
            if pending[h] == 0:
                ready.append(h)
        return ready

    queue = deque([net.source])
    while queue:
        queue.extend(sorted(dequeue(queue.popleft())))
    left = [v for v in range(net.num_nodes) if not dequeued[v]]
    if not acyclic:
        for v in left:
            dequeue(v)
        return order
    heap = [v for v in left if pending[v] == 0]  # ascending, so already a heap
    while heap:
        for h in dequeue(heappop(heap)):
            heappush(heap, h)
    return order


def zero_init_mask(net: Network) -> frozenset[tuple[int, int]]:
    """Adjacent pairs whose t=0 kernel coefficient is forced to zero:
    exactly those with index(e_in) >= index(e_out)."""
    pos = net.edge_pos
    return frozenset((e_in, e_out) for ps in net.pairs for e_in, e_out in ps if pos[e_in] >= pos[e_out])


def all_zero_fallback(net: Network) -> frozenset[tuple[int, int]]:
    """Mask every adjacent pair: a unit delay per hop, valid on any graph."""
    return frozenset(p for ps in net.pairs for p in ps)


def has_cycle(net: Network) -> bool:
    """True iff the network contains any directed cycle: Kahn's test, which
    peels off nodes without pending in-edges and gets stuck on a cycle."""
    edges, indeg = net.edges, list(map(len, net.in_edges))
    queue = deque(v for v, d in enumerate(indeg) if d == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for e in net.out_edges[v]:
            h = edges[e][1]
            indeg[h] -= 1
            if indeg[h] == 0:
                queue.append(h)
    return seen != net.num_nodes


def _disjoint_paths(net: Network, sink: int, bound: int) -> tuple[set[int], int]:
    """Up to `bound` source-sink paths from one depth-first pass back from
    the sink that enters no node twice: the edges they use and their number.
    The paths share no node but the source and the sink, so they are a
    feasible flow under unit edge capacities."""
    source, edges, in_edges = net.source, net.edges, net.in_edges
    used: set[int] = set()
    flow = 0
    seen = {sink}
    path: list[int] = []  # the edges from the sink back to the node on top
    stack = [iter(in_edges[sink])]
    while stack and flow < bound:
        for e in stack[-1]:
            u = edges[e][0]
            if u == source:  # a path: take its edges, go on from the sink
                used.update(path)
                used.add(e)
                flow += 1
                del path[:], stack[1:]
                break
            if u not in seen:
                seen.add(u)
                path.append(e)
                stack.append(iter(in_edges[u]))
                break
        else:  # every edge into the node on top tried
            stack.pop()
            if path:
                path.pop()
    return used, flow


def min_cut(net: Network, sink: int, cap: int | None = None) -> int:
    """Max-flow value from the source to the sink under unit edge capacities,
    capped at `cap` when one is given: the result is min(max-flow, cap). A
    cap below 1 raises ValueError, as a sink the source cannot reach does.

    One depth-first pass back from the sink comes first and never enters a
    node twice (`_disjoint_paths`); on a combination network it finds every
    path. Breadth-first shortest augmenting paths (Edmonds-Karp) then
    augment the flow it found, each search also backward from the sink on
    the network's own adjacency: an edge without flow is crossed from its
    head to its tail (`in_edges`), an edge with flow from its tail to its
    head (`out_edges`), cancelling that unit. A sink then reaches the source
    in a few hops even when the source reaches most of the graph before it.
    The paths differ from a source-side search's, but the max-flow value is
    unique. Augmenting stops once the flow reaches the smallest of the
    sink's in-degree, the source's out-degree and the cap; the degrees
    bound every cut.
    """
    source = net.source
    if sink == source:
        raise ValueError("sink equals source")
    edges, out_edges, in_edges = net.edges, net.out_edges, net.in_edges
    bound = min(len(in_edges[sink]), len(out_edges[source]))
    if cap is not None:
        if cap < 1:
            raise ValueError(f"cap {cap} below 1")
        bound = min(bound, cap)
    used, flow = _disjoint_paths(net, sink, bound)  # the edges that carry a unit of flow
    while flow < bound:
        # nxt[v]: edge on the path from a reached node v toward the sink
        nxt = {sink: -1}
        queue = deque([sink])
        while queue:
            v = queue.popleft()
            for e in in_edges[v]:
                u = edges[e][0]
                if u not in nxt and e not in used:
                    nxt[u] = e
                    queue.append(u)
            if source in nxt:
                break  # path found: skip v's out-edges
            for e in out_edges[v]:
                u = edges[e][1]
                if u not in nxt and e in used:
                    nxt[u] = e
                    queue.append(u)
        if source not in nxt:
            break
        u = source
        while u != sink:
            e = nxt[u]
            used ^= {e}
            t, h = edges[e]
            u = h if t == u else t
        flow += 1
    if flow == 0:
        raise ValueError(f"sink {sink} unreachable from source")
    return flow


def multicast_rate(net: Network) -> int:
    """Source symbol rate: the smallest min-cut over all sinks.

    Each sink's max-flow is capped at the running minimum over the sinks
    before it, since only the minimum is used: a capped cut is
    min(cut, cap), so the result equals the uncapped minimum. A sink whose
    flow reaches the cap skips the last search, the one that finds no
    path; on a random geometric graph that search walks back from the
    sink over most of the graph. Every sink still gets one `min_cut` call.
    """
    rate = None
    for r in net.sinks:
        rate = min_cut(net, r, rate)
    return rate


def to_dot(net: Network, name: str = "network") -> str:
    """Graphviz rendering; node shapes mark source, sinks, and relays, and
    masked adjacent pairs are listed in the graph label."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for v in range(net.num_nodes):
        if v == net.source:
            shape = "box"
        elif v in net.sinks:
            shape = "doublecircle"
        else:
            shape = "ellipse"
        fill = ' style=filled fillcolor=gray80' if v in net.shaded else ""
        lines.append(f'  n{v} [label="{v}" shape={shape}{fill}];')
    for e in net.edge_order:
        t, h = net.edges[e]
        lines.append(f'  n{t} -> n{h} [label="{net.edge_label(e)}"];')
    if net.zero_mask:
        masked = sorted((net.edge_pos[e_in], net.edge_pos[e_out]) for e_in, e_out in net.zero_mask)
        note = ", ".join(f"(e{i + 1},e{o + 1})" for i, o in masked)
        lines.append(f'  label="zero mask: {note}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
