"""Network model: indexing, masks, cycle coverage, and min-cut."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc import netgraph
from arcnc.netgraph import (
    Network,
    all_zero_fallback,
    has_cycle,
    index_edges,
    min_cut,
    multicast_rate,
    to_dot,
    zero_init_mask,
)
from arcnc.engine import run
from arcnc.topologies import gen_combination, gen_rgg, gen_shuttle, gen_sparsified, gen_umbrella
from oracles import adjacent_pairs, delay_free_cycle_ref, index_edges_ref, min_cut_ref, validate_cycle_delay


def all_paths(net, src, dst, allowed):
    """Every simple edge-path src -> dst using only `allowed` edge ids."""
    out = []

    def walk(v, used_edges, used_nodes):
        if v == dst:
            out.append(tuple(used_edges))
            return
        for e in net.out_edges[v]:
            h = net.head(e)
            if e in allowed and e not in used_edges and h not in used_nodes:
                walk(h, used_edges + [e], used_nodes | {h})

    walk(src, [], {src})
    return out


def max_disjoint_paths(net, sink, allowed=None):
    """Brute-force max edge-disjoint path packing; oracle for min_cut."""
    if allowed is None:
        allowed = set(range(len(net.edges)))
    best = 0
    for path in all_paths(net, net.source, sink, allowed):
        best = max(best, 1 + max_disjoint_paths(net, sink, allowed - set(path)))
    return best


def random_net(rng, cyclic):
    """Small random network with a reachable sink (<= 8 edges)."""
    while True:
        n = int(rng.integers(3, 6))
        n_edges = int(rng.integers(2, 9))
        edges = []
        for _ in range(n_edges):
            t = int(rng.integers(0, n))
            h = int(rng.integers(1, n))
            if t == h:
                continue
            if not cyclic and t > h:
                t, h = h, t
            if h == 0:
                continue
            edges.append((t, h))
        if not edges:
            continue
        sink = n - 1
        try:
            return Network.build(n, edges, 0, (sink,))
        except ValueError:
            continue


def test_min_cut_examples():
    net = gen_shuttle()
    assert min_cut(net, 1) == 2 and min_cut(net, 2) == 2
    chain = Network.build(3, [(0, 1), (1, 2)], 0, (2,))
    assert min_cut(chain, 2) == 1
    for n, m in ((4, 2), (5, 3)):
        comb = gen_combination(n, m)
        assert all(min_cut(comb, r) == m for r in comb.sinks)
    # in-degree 3 and source out-degree 3 above a cut of 2 ({0->1, 4->5}):
    # the degree bound is not the answer, a failed search must end the flow
    narrow = Network.build(
        6, [(0, 1), (0, 2), (0, 3), (1, 5), (1, 5), (2, 4), (3, 4), (4, 5)], 0, (5,)
    )
    assert min_cut(narrow, 5) == 2 == max_disjoint_paths(narrow, 5)


def test_min_cut_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for i in range(120):
        net = random_net(rng, cyclic=bool(i % 2))
        sink = net.sinks[0]
        assert min_cut(net, sink) == max_disjoint_paths(net, sink)


def test_min_cut_cancels_flow_on_a_ladder():
    # s->a->b->e->t and s->c->d->t with the rung a->d: the first shortest
    # augmenting path is s->a->d->t, and the second exists only by sending
    # flow back across the rung (s->c->d, d->a, a->b->e->t). The depth-first
    # pass goes back along e->t first and finds both paths without the rung;
    # test_min_cut_augments_past_a_blocking_first_path makes it block
    s, a, b, e, t, c, d = range(7)
    ladder = Network.build(
        7, [(s, a), (s, c), (a, b), (b, e), (e, t), (c, d), (d, t), (a, d)], s, (t,)
    )
    assert min_cut(ladder, t) == 2 == max_disjoint_paths(ladder, t)


def test_min_cut_cancels_flow_on_a_mirrored_ladder():
    # the ladder above with every edge reversed, from t to s: searching back
    # from the sink s, the first shortest path is t->d->a->s over the
    # reversed rung, and the second exists only by crossing that rung's flow
    # (s<-c<-d, then d->a cancelled, a<-b<-e<-t). The depth-first pass goes
    # back along b->a first and finds both paths without the rung
    s, a, b, e, t, c, d = range(7)
    ladder = Network.build(
        7, [(a, s), (c, s), (b, a), (e, b), (t, e), (d, c), (t, d), (d, a)], t, (s,)
    )
    assert min_cut(ladder, s) == 2 == max_disjoint_paths(ladder, s)


def test_min_cut_augments_past_a_blocking_first_path():
    # s->a->t and s->b->t with the rung a->b. Back from t, the depth-first
    # pass enters b first (b->t is t's first in-edge) and a through the rung
    # (a->b is b's first), so its one path is s->a->b->t; a is then taken
    # and a->t leads nowhere. The second unit exists only by cancelling the
    # rung: t<-a, a->b crossed back, b<-s. (Breadth-first searches alone
    # would take s->b->t and s->a->t and cancel nothing.)
    s, a, b, t = range(4)
    net = Network.build(4, [(s, a), (a, b), (s, b), (b, t), (a, t)], s, (t,))
    assert netgraph._disjoint_paths(net, t, 2) == ({0, 1, 3}, 1)
    assert min_cut(net, t) == 2 == max_disjoint_paths(net, t) == min_cut_ref(net, t)
    for cap in (1, 2, 3):
        assert min_cut(net, t, cap) == min(2, cap)


def test_multicast_rate_cuts_each_sink_once(monkeypatch):
    calls = []

    def counting_min_cut(net, sink, cap=None):
        calls.append(sink)
        return min_cut(net, sink, cap)

    monkeypatch.setattr(netgraph, "min_cut", counting_min_cut)
    net = gen_combination(12, 6)
    assert multicast_rate(net) == 6
    assert len(net.sinks) == 924 and calls == list(net.sinks)


@st.composite
def multigraphs(draw):
    """Source 0 with no in-edges and up to 12 nodes, acyclic or not; edges
    may repeat and close directed cycles, and one to four sinks are drawn
    among the nodes the source reaches. Either mask mode."""
    n = draw(st.integers(2, 12))
    acyclic = draw(st.booleans())
    edges = [(0, draw(st.integers(1, n - 1)))]
    for _ in range(draw(st.integers(0, 40))):
        t = draw(st.integers(0, n - 1))
        h = draw(st.integers(1, n - 1))
        if acyclic and t > h:
            t, h = h, t
        if t != h:
            edges.append((t, h))
    for _ in range(draw(st.integers(0, 3))):
        edges.append(draw(st.sampled_from(edges)))  # multi-edges
    reach = sorted(Network(n, edges, 0, (1,)).reachable_from_source() - {0})
    sinks = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=4, unique=True))
    mask = draw(st.sampled_from(("indexed", "all_zero")))
    return Network.build(n, edges, 0, sinks, mask=mask)


def check_cuts_against_reference(net):
    """min_cut uncapped and at every cap up to one past the cut, and
    multicast_rate, against the source-side reference."""
    cuts = [min_cut_ref(net, r) for r in net.sinks]
    for r, cut in zip(net.sinks, cuts):
        assert min_cut(net, r) == cut
        for cap in range(1, cut + 2):
            assert min_cut(net, r, cap) == min(cut, cap)
    assert multicast_rate(net) == min(cuts)


def _rgg(n, n_sinks, radius, cyclic, seed):
    return gen_rgg(n, n_sinks, radius, cyclic, np.random.default_rng(seed))


# The paper's families and seeded random geometric graphs, by name; each
# test builds only the network it is given.
NAMED_NETWORKS = {
    "combination(12,6)": partial(gen_combination, 12, 6),
    "combination(16,2)": partial(gen_combination, 16, 2),
    "sparsified(10,3)": partial(gen_sparsified, 10, 3),
    "umbrella(29,3)": partial(gen_umbrella, 29, 3),
    "shuttle": gen_shuttle,
}
NAMED_NETWORKS.update(
    {
        f"rgg_{'cyclic' if cyclic else 'acyclic'}({n})-seed{seed}": partial(
            _rgg, n, n_sinks, radius, cyclic, seed
        )
        for n, n_sinks, radius in ((12, 4, 0.5), (25, 8, 0.4), (40, 12, 0.3))
        for cyclic in (False, True)
        for seed in range(4)
    }
)


@pytest.mark.parametrize("name", list(NAMED_NETWORKS))
def test_min_cut_matches_source_side_reference(name):
    check_cuts_against_reference(NAMED_NETWORKS[name]())


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_min_cut_matches_source_side_reference_on_multigraphs(net):
    check_cuts_against_reference(net)


def check_pairs_against_walk(net, rng):
    """Masks and the cycle checks built from `Network.pairs` against the
    generator walk: the same plain tuples, each listed under its node in
    position order, out-edge position first, then in-edge position; the
    node cycle check against the depth-first reference on an empty mask."""
    walk = list(adjacent_pairs(net))
    stored = [p for pairs in net.pairs for p in pairs]
    assert sorted(stored) == sorted(walk)
    assert all(type(p) is tuple for p in stored + list(net.zero_mask))
    assert has_cycle(net) == delay_free_cycle_ref(net, frozenset())
    pos = net.edge_pos
    for v, pairs in enumerate(net.pairs):
        assert all(net.head(e_in) == v == net.tail(e_out) for e_in, e_out in pairs)
        assert pairs == sorted(pairs, key=lambda p: (pos[p[1]], pos[p[0]]))
    assert zero_init_mask(net) == frozenset(p for p in walk if pos[p[0]] >= pos[p[1]])
    assert all_zero_fallback(net) == frozenset(walk)
    thinned = frozenset(p for p in walk if rng.random() < 0.5)
    for mask in (net.zero_mask, frozenset(walk), frozenset(), thinned):
        assert validate_cycle_delay(net, mask) == (not delay_free_cycle_ref(net, mask))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(0, 2**32 - 1))
def test_stored_pairs_match_generator_walk(net, seed):
    check_pairs_against_walk(net, np.random.default_rng(seed))


def test_stored_pairs_match_generator_walk_on_shuttle():
    shuttle = gen_shuttle()
    rng = np.random.default_rng(5)
    for mask in ("indexed", "all_zero"):
        net = Network.build(shuttle.num_nodes, shuttle.edges, 0, shuttle.sinks, mask=mask)
        for _ in range(20):
            check_pairs_against_walk(net, rng)


def test_min_cut_unreachable_raises():
    net = Network.build(4, [(0, 1), (1, 2), (3, 2)], 0, (2,))
    with pytest.raises(ValueError):
        min_cut(net, 3)
    with pytest.raises(ValueError, match="cap 0 below 1"):
        min_cut(net, 2, 0)


def test_multicast_rate():
    assert multicast_rate(gen_shuttle()) == 2
    assert multicast_rate(gen_combination(4, 2)) == 2
    assert multicast_rate(gen_umbrella(5, 2)) == 2


def test_index_edges_shuttle_reproduces_canonical_labels():
    net = gen_shuttle()
    expected = [(0, 1), (0, 2), (1, 6), (2, 4), (6, 3), (4, 5), (3, 1), (3, 4), (5, 6), (5, 2)]
    assert [net.edges[e] for e in net.edge_order] == expected
    assert [net.edge_label(e) for e in net.edge_order] == [f"e{i}" for i in range(1, 11)]


def test_index_edges_source_edges_first():
    star = Network.build(4, [(0, 1), (0, 2), (0, 3)], 0, (1, 2, 3))
    assert [star.edge_pos[e] for e in range(3)] == [0, 1, 2]


def test_index_edges_dequeue_order_property():
    # edges indexed in tail-dequeue order: positions of one tail's edges
    # form a consecutive run in insertion order
    rng = np.random.default_rng(7)
    for i in range(60):
        net = random_net(rng, cyclic=bool(i % 2))
        by_tail = {}
        for pos, e in enumerate(net.edge_order):
            by_tail.setdefault(net.tail(e), []).append((pos, e))
        for tail, entries in by_tail.items():
            positions = [p for p, _ in entries]
            assert positions == list(range(positions[0], positions[0] + len(positions)))
            assert [e for _, e in entries] == sorted(e for _, e in entries)


def check_index_edges_against_reference(net):
    """The one-pass order against the two-loop reference. They agree on a
    cyclic graph and on an acyclic one whose ids are topological; on other
    DAGs the reference can index a node's out-edge before its in-edge, and
    the one-pass order must keep every adjacent pair increasing."""
    order = index_edges(net)
    assert order == net.edge_order and sorted(order) == list(range(len(net.edges)))
    if has_cycle(net) or all(t < h for t, h in net.edges):
        assert order == index_edges_ref(net)
    else:
        assert all(net.edge_pos[e_in] < net.edge_pos[e_out] for e_in, e_out in adjacent_pairs(net))


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_index_edges_matches_reference_on_multigraphs(net):
    check_index_edges_against_reference(net)


@pytest.mark.parametrize("name", list(NAMED_NETWORKS))
def test_index_edges_matches_reference_on_named_networks(name):
    net = NAMED_NETWORKS[name]()
    assert net.edge_order == index_edges_ref(net)


@st.composite
def relabelled_dags(draw):
    """Acyclic multigraphs drawn with topological ids, then with every node
    but the source relabelled by a random permutation, so ids no longer
    follow the edges; nodes the source cannot reach may feed ones it can."""
    n = draw(st.integers(2, 12))
    edges = [(0, draw(st.integers(1, n - 1)))]
    for _ in range(draw(st.integers(0, 40))):
        t, h = sorted((draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))))
        if t != h:
            edges.append((t, h))
    for _ in range(draw(st.integers(0, 3))):
        edges.append(draw(st.sampled_from(edges)))
    label = [0] + draw(st.permutations(range(1, n)))
    edges = [(label[t], label[h]) for t, h in edges]
    reach = sorted(Network(n, edges, 0, (1,)).reachable_from_source() - {0})
    sinks = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=4, unique=True))
    return Network.build(n, edges, 0, sinks)


@settings(max_examples=300, deadline=None)
@given(relabelled_dags())
def test_dag_with_arbitrary_ids_has_increasing_pairs_and_empty_mask(net):
    assert not has_cycle(net)
    assert all(net.edge_pos[e_in] < net.edge_pos[e_out] for e_in, e_out in adjacent_pairs(net))
    assert net.zero_mask == frozenset()


def test_unreachable_feeder_does_not_mask_a_dag():
    # node 2 cannot be reached but feeds 4, and 4 feeds the lower id 3: the
    # pass stalls at 4, and the rest must follow Kahn's order (2, 4, 3), not
    # node-id order (2, 3, 4), or the pair (4->3, 3->5) is masked and relay
    # 3's kernel is a pure delay that a one-shot code cannot use
    net = Network.build(6, [(0, 1), (1, 4), (2, 4), (4, 3), (3, 5), (0, 5)], 0, (5,))
    assert [net.edges[e] for e in net.edge_order] == [
        (0, 1), (0, 5), (1, 4), (2, 4), (4, 3), (3, 5)
    ]
    assert net.zero_mask == frozenset()
    # the one-shot baseline: the engine stopped at t=0
    wins = sum(
        run(net, 16, t_max=0, rng=np.random.default_rng(seed), validate_decoding=False).success
        for seed in range(40)
    )
    assert wins >= 30


def test_dag_order_is_topological_and_mask_empty():
    rng = np.random.default_rng(13)
    for _ in range(80):
        net = random_net(rng, cyclic=False)
        for e_in, e_out in adjacent_pairs(net):
            assert net.edge_pos[e_in] < net.edge_pos[e_out]
        assert net.zero_mask == frozenset()


def test_zero_mask_shuttle():
    net = gen_shuttle()
    labels = {(net.edge_pos[a] + 1, net.edge_pos[b] + 1) for a, b in net.zero_mask}
    assert labels == {(7, 3), (10, 4), (9, 5), (8, 6)}
    assert all(e_in != e_out for e_in, e_out in net.zero_mask)
    assert zero_init_mask(net) == net.zero_mask


def test_validate_cycle_delay():
    net = gen_shuttle()
    assert validate_cycle_delay(net, net.zero_mask)
    # dropping (e9, e5) keeps the middle cycle covered through (e8, e6)
    e9 = net.edge_order[8]
    e5 = net.edge_order[4]
    reduced = frozenset(p for p in net.zero_mask if p != (e9, e5))
    assert validate_cycle_delay(net, reduced)

    two_cycle = Network.build(3, [(0, 1), (1, 2), (2, 1)], 0, (2,))
    assert not validate_cycle_delay(two_cycle, frozenset())
    assert has_cycle(two_cycle) and not has_cycle(gen_combination(3, 2))


def edge_order_certified(net, mask):
    """The certificate `Network.build` checks: every adjacent pair outside
    `mask` increases in edge order."""
    pos = net.edge_pos
    return all(pos[e_in] < pos[e_out] for e_in, e_out in adjacent_pairs(net) if (e_in, e_out) not in mask)


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.integers(0, 2**32 - 1))
def test_edge_order_certificate_rules_out_delay_free_cycles(net, seed):
    # every built net carries the certificate, under either mask mode; on
    # random sub-masks and supersets of its mask, a certified mask leaves
    # no delay-free cycle for the Kahn pass or the depth-first search
    rng = np.random.default_rng(seed)
    walk = list(adjacent_pairs(net))
    for mode in ("indexed", "all_zero"):
        built = Network.build(net.num_nodes, net.edges, net.source, net.sinks, mask=mode)
        assert edge_order_certified(built, built.zero_mask)
        masks = [built.zero_mask, frozenset()]
        for share in (0.3, 0.7):
            masks.append(frozenset(p for p in built.zero_mask if rng.random() < share))
            masks.append(built.zero_mask | frozenset(p for p in walk if rng.random() < share))
        for mask in masks:
            if edge_order_certified(built, mask):
                assert validate_cycle_delay(built, mask)
                assert not delay_free_cycle_ref(built, mask)


def test_build_rejects_a_mask_that_leaves_a_pair_decreasing(monkeypatch):
    # the empty mask on the cyclic shuttle: its cycles are delay-free; an
    # acyclic net needs no mask, so it still builds
    monkeypatch.setattr(netgraph, "zero_init_mask", lambda net: frozenset())
    with pytest.raises(AssertionError, match="delay-free cycle"):
        gen_shuttle()
    assert gen_combination(3, 2).zero_mask == frozenset()


def test_all_zero_fallback():
    net = gen_shuttle()
    fallback = all_zero_fallback(net)
    assert len(fallback) == 12
    assert validate_cycle_delay(net, fallback)
    rng = np.random.default_rng(3)
    for i in range(40):
        rand = random_net(rng, cyclic=bool(i % 2))
        assert validate_cycle_delay(rand, all_zero_fallback(rand))


def test_build_rejects_source_inputs_and_unreachable_sinks():
    with pytest.raises(ValueError):
        Network.build(2, [(0, 1), (1, 0)], 0, (1,))
    with pytest.raises(ValueError):
        Network.build(3, [(0, 1)], 0, (2,))
    with pytest.raises(ValueError):
        Network.build(2, [(0, 1)], 0, ())


def test_all_zero_mask_mode():
    net = Network.build(3, [(0, 1), (1, 2)], 0, (2,), mask="all_zero")
    assert len(net.zero_mask) == 1
    with pytest.raises(ValueError):
        Network.build(3, [(0, 1), (1, 2)], 0, (2,), mask="bogus")


def test_multi_edges_are_distinct():
    net = Network.build(3, [(0, 1), (0, 1), (1, 2), (1, 2)], 0, (2,))
    assert min_cut(net, 2) == 2
    assert len(list(adjacent_pairs(net))) == 4


def test_to_dot_contents():
    net = gen_shuttle()
    dot = to_dot(net)
    assert dot.count("doublecircle") == 2
    assert "shape=box" in dot
    assert '"e10"' in dot and "zero mask" in dot
    umb = gen_umbrella(9, 3)
    assert to_dot(umb).count("fillcolor") == len(umb.shaded)
