"""Topology generators: counts, structure, and randomness contracts."""

import math
from itertools import product

import numpy as np
import pytest

from arcnc.cli import _figure_presets
from arcnc.engine import run
from arcnc.netgraph import has_cycle, min_cut, multicast_rate
from arcnc.simulate import trial_rng
from arcnc.topologies import (
    MAX_NETWORK_SIZE,
    TopologyError,
    TopologySpec,
    _comb_capped,
    build_sweep,
    build_topology,
    gen_combination,
    gen_rgg,
    gen_shuttle,
    gen_sparsified,
    gen_umbrella,
    rgg_instances,
)
from oracles import gen_rgg_ref


def test_combination_counts():
    net = gen_combination(4, 2)
    assert net.num_nodes == 11 and len(net.sinks) == 6
    assert all(min_cut(net, r) == 2 for r in net.sinks)
    parent_sets = {tuple(sorted(net.tail(e) for e in net.in_edges[r])) for r in net.sinks}
    assert len(parent_sets) == 6  # one sink per distinct 2-subset

    assert len(gen_combination(16, 2).sinks) == 120

    relay_only = gen_combination(5, 1)
    assert len(relay_only.sinks) == 5
    assert all(len(relay_only.in_edges[r]) == 1 for r in relay_only.sinks)
    with pytest.raises(ValueError):
        gen_combination(3, 4)


def test_sparsified_structure():
    net = gen_sparsified(5, 2)
    assert len(net.sinks) == 4
    related = []
    for r in net.sinks:
        mine = {net.tail(e) for e in net.in_edges[r]}
        related.append(
            sum(
                1
                for r2 in net.sinks
                if r2 != r and mine & {net.tail(e) for e in net.in_edges[r2]}
            )
        )
    assert max(related) == 2  # 2(m-1) for interior sinks
    assert sorted(related) == [1, 1, 2, 2]

    single = gen_sparsified(3, 3)
    assert len(single.sinks) == 1

    net10 = gen_sparsified(10, 3)
    assert len(net10.sinks) == 8
    for inter in range(1, 11):
        fed = sum(1 for e in net10.out_edges[inter] if net10.head(e) in net10.sinks)
        assert fed <= 3  # each intermediate feeds at most m sinks


def test_umbrella_counts_and_structure():
    net = gen_umbrella(9, 3)
    assert net.num_nodes == 31  # 2*alpha + 6*beta - 5
    for alpha, beta in product((3, 5, 9), (2, 3, 5)):
        n = gen_umbrella(alpha, beta)
        assert n.num_nodes == 2 * alpha + 6 * beta - 5
        assert len(n.shaded) == beta - 1
        assert all(min_cut(n, r) == 2 for r in n.sinks)
        assert multicast_rate(n) == 2
        # shaded nodes are exactly the must-decode nodes with children
        assert set(n.shaded) == {r for r in n.sinks if n.out_edges[r]}
        # every sink is childless or shaded
        assert set(n.sinks) == {v for v in range(1, n.num_nodes) if not n.out_edges[v]} | set(
            n.shaded
        )

    with pytest.raises(ValueError):
        gen_umbrella(4, 3)
    with pytest.raises(ValueError):
        gen_umbrella(1, 3)
    with pytest.raises(ValueError):
        gen_umbrella(5, 1)


def test_umbrella_only_source_and_shaded_code():
    net = gen_umbrella(5, 3)
    multi_parent_with_children = {
        v
        for v in range(1, net.num_nodes)
        if len(net.in_edges[v]) >= 2 and net.out_edges[v]
    }
    assert multi_parent_with_children == set(net.shaded)


def test_umbrella_routing_is_infeasible():
    # each upper-ring node relays one source symbol; with alpha odd some
    # lower sink must see the same symbol twice (odd cycle has no 2-coloring)
    alpha = 3
    for colors in product(range(2), repeat=alpha):
        ok = all(colors[i] != colors[(i + 1) % alpha] for i in range(alpha))
        assert not ok


def test_shuttle_cycle_census():
    net = gen_shuttle()
    label = {net.edge_label(e): e for e in range(10)}

    def cycles():
        found = set()

        def walk(start, v, used):
            for e in net.out_edges[v]:
                h = net.head(e)
                if h == start:
                    cyc = frozenset(used + [e])
                    found.add(cyc)
                elif all(net.tail(x) != h for x in used) and h != start:
                    walk(start, h, used + [e])

        for v in range(net.num_nodes):
            walk(v, v, [])
        return found

    expected = {
        frozenset({label["e3"], label["e5"], label["e7"]}),
        frozenset({label["e5"], label["e8"], label["e6"], label["e9"]}),
        frozenset({label["e4"], label["e6"], label["e10"]}),
    }
    assert cycles() == expected


def test_rgg_acyclic_properties():
    rng = np.random.default_rng(42)
    net = gen_rgg(25, 4, 0.4, cyclic=False, rng=rng)
    assert not has_cycle(net)
    assert net.sinks == tuple(range(21, 25))
    assert all(t < h for t, h in net.edges)
    # deterministic rebuild from the same seed
    again = gen_rgg(25, 4, 0.4, cyclic=False, rng=np.random.default_rng(42))
    assert again.edges == net.edges


def test_rgg_cyclic_edge_retention_rates():
    # radius > sqrt(2) puts every node pair in range, so each forward slot
    # survives w.p. 0.8 and each backward slot w.p. 0.2, independent of the
    # sampled positions
    fwd_kept = fwd_total = bwd_kept = bwd_total = 0
    for seed in range(500):
        net = gen_rgg(12, 2, 1.5, cyclic=True, rng=np.random.default_rng(seed))
        present = set()
        for t, h in net.edges:
            present.add((t, h))
        for i in range(12):
            for j in range(i + 1, 12):
                fwd_total += 1
                fwd_kept += (i, j) in present
                if i != 0:
                    bwd_total += 1
                    bwd_kept += (j, i) in present
    assert abs(fwd_kept / fwd_total - 0.8) < 0.03
    assert abs(bwd_kept / bwd_total - 0.2) < 0.03


def test_rgg_source_never_gains_inputs_and_rejection_cap():
    for seed in range(30):
        net = gen_rgg(15, 3, 0.45, cyclic=True, rng=np.random.default_rng(seed))
        assert not net.in_edges[0]
    with pytest.raises(RuntimeError):
        gen_rgg(10, 3, 0.01, cyclic=False, rng=np.random.default_rng(0), max_attempts=50)
    with pytest.raises(ValueError):
        gen_rgg(5, 5, 0.4, cyclic=False, rng=np.random.default_rng(0))


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_rgg_rejects_a_radius_that_is_not_positive_and_finite(radius):
    # refused before the first draw: nan would reject all 10,000 attempts
    # and inf would connect every pair
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="radius"):
        gen_rgg(10, 3, radius, cyclic=True, rng=rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_topology_spec_roundtrip_and_dispatch():
    spec = TopologySpec("combination", {"n": 4, "m": 2})
    assert build_topology(spec).num_nodes == 11

    rgg = TopologySpec("rgg_cyclic", {"nodes": 12, "sinks": 2, "radius": 0.4})
    net1 = build_topology(rgg, np.random.default_rng(3))
    net2 = build_topology(rgg, np.random.default_rng(3))
    assert net1.edges == net2.edges

    assert build_topology(TopologySpec("shuttle")).num_nodes == 7
    with pytest.raises(ValueError):
        TopologySpec("mystery")
    with pytest.raises(ValueError):
        build_topology(TopologySpec("rgg_acyclic", {"nodes": 10, "sinks": 2, "radius": 0.4}))
    assert "combination(m=2,n=4)" == spec.label()


@pytest.mark.parametrize("cyclic", [True, False])
def test_rgg_matches_pair_loop_reference(cyclic):
    # one coin-flip draw per attempt builds the nets of the scalar-flip loop,
    # rejected attempts included, and leaves the rng in the same state
    for seed, sinks in product(range(25), (2, 6, 12)):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        net = gen_rgg(25, sinks, 0.4, cyclic=cyclic, rng=rng)
        ref = gen_rgg_ref(25, sinks, 0.4, cyclic=cyclic, rng=rng_ref)
        assert net.edges == ref.edges and net.sinks == ref.sinks
        assert rng.random() == rng_ref.random()


def _assert_same_network(net, ref):
    assert net.edges == ref.edges and net.sinks == ref.sinks
    assert net.edge_order == ref.edge_order and net.pairs == ref.pairs
    assert net.zero_mask == ref.zero_mask
    # each network keeps its own engine layout: a run matches the reference's
    mine = run(net, 4, rng=np.random.default_rng(1), validate_decoding=False)
    theirs = run(ref, 4, rng=np.random.default_rng(1), validate_decoding=False)
    assert (mine.t_r, mine.l_v, mine.t_n) == (theirs.t_r, theirs.l_v, theirs.t_n)


@pytest.mark.parametrize("radius", [0.35, 0.45, 0.6])
@pytest.mark.parametrize("family", ["rgg_acyclic", "rgg_cyclic"])
def test_sink_sweep_networks_match_the_reference_point_by_point(family, radius):
    # per trial, each point of a sweep gets the network the pair-loop
    # reference builds alone on a fresh copy of the trial's graph stream;
    # the sink counts come in no order and repeat, so points take
    # candidates out of turn and share them
    counts = (5, 2, 9, 3, 9, 12)
    specs = [TopologySpec(family, {"nodes": 20, "sinks": s, "radius": radius}) for s in counts]
    for trial in range(4):
        nets = build_sweep(specs, trial_rng(7, 4, trial, stream=1))
        assert len(set(map(id, nets))) == len(nets)
        for s, net in zip(counts, nets):
            ref = gen_rgg_ref(20, s, radius, family == "rgg_cyclic", trial_rng(7, 4, trial, stream=1))
            _assert_same_network(net, ref)


@pytest.mark.parametrize("cyclic", [False, True])
def test_rgg_instances_take_sink_sets_that_are_not_nested(cyclic):
    # each set gets the first candidate that reaches all of its sinks, and
    # the scan draws no further than the set that waits longest
    sink_sets = [(19, 4), (7, 8, 9), (15,), (4, 19), (3, 11, 16, 18)]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        nets = rgg_instances(20, 0.4, cyclic, sink_sets, rng)
        states = []
        for sinks, net in zip(sink_sets, nets):
            ref_rng = np.random.default_rng(seed)
            ref = gen_rgg_ref(20, None, 0.4, cyclic, ref_rng, sinks=list(sinks))
            _assert_same_network(net, ref)
            states.append(ref_rng.random())
        assert rng.random() in states


def test_sink_sweep_refuses_specs_that_are_not_one():
    rgg = TopologySpec("rgg_acyclic", {"nodes": 12, "sinks": 2, "radius": 0.4})
    for specs in (
        [rgg, TopologySpec("rgg_cyclic", {"nodes": 12, "sinks": 3, "radius": 0.4})],
        [rgg, TopologySpec("rgg_acyclic", {"nodes": 12, "sinks": 3, "radius": 0.5})],
        [TopologySpec("shuttle"), TopologySpec("shuttle")],
    ):
        with pytest.raises(ValueError, match="not a sink sweep"):
            build_sweep(specs, np.random.default_rng(0))
    with pytest.raises(ValueError, match="explicit rng"):
        build_sweep([rgg])
    (shuttle,) = build_sweep([TopologySpec("shuttle")])
    assert shuttle.edges == gen_shuttle().edges
    # a sink count past the node count is refused before the first draw
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="num_sinks"):
        build_sweep([rgg, TopologySpec("rgg_acyclic", {"nodes": 12, "sinks": 12, "radius": 0.4})], rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_size_budget_caps_the_binomial_and_admits_every_preset():
    # the running product equals C(n, m) up to the budget and stops past it,
    # also where C(n, m) itself has thousands of digits
    for n in range(1, 40):
        for m in range(1, n + 1):
            c = math.comb(n, m)
            assert _comb_capped(n, m) == (c if c <= MAX_NETWORK_SIZE else MAX_NETWORK_SIZE + 1)
    assert _comb_capped(10**400, 5 * 10**399) == MAX_NETWORK_SIZE + 1
    for points in _figure_presets().values():
        for spec, _ in points:
            assert build_sweep([spec], np.random.default_rng(0))[0] is not None


def test_size_budget_rejects_sizes_past_it_naming_the_flags():
    side = math.isqrt(MAX_NETWORK_SIZE)  # --nodes squared is the rgg size
    with pytest.raises(TopologyError):  # at the budget: past the check, no candidate drawn
        gen_rgg(side, 2, 0.4, cyclic=False, rng=np.random.default_rng(0), max_attempts=0)
    over = [
        (lambda: gen_rgg(side + 1, 2, 0.4, cyclic=True, rng=np.random.default_rng(0)), "--nodes"),
        (lambda: gen_combination(40, 20), "--n/--m"),
        (lambda: gen_combination(MAX_NETWORK_SIZE, 1), "--n/--m"),  # n relays and n sinks
        (lambda: gen_sparsified(MAX_NETWORK_SIZE // 2, 2), "--n/--m"),
        (lambda: gen_umbrella(MAX_NETWORK_SIZE // 3 | 1, 2), "--alpha/--beta"),
    ]
    for build, flags in over:
        with pytest.raises(ValueError, match=f"^{flags} too large"):
            build()
