"""One-shot baseline: trial-for-trial equivalence and field-size bounds.

The baseline is the adaptive engine stopped at t=0,
`run(..., t_max=0, validate_decoding=False)`, which `run_trials` runs
under mode 'rlnc'."""

import math

import numpy as np
import pytest

from arcnc.engine import SOURCE_IDENTITY, SOURCE_RANDOM, classify_nodes, run
from arcnc.gf import GF
from arcnc.metrics import rlnc_field_bits_sparsified, rlnc_field_bits_umbrella, rlnc_min_q_for_target
from arcnc.netgraph import Network, has_cycle, multicast_rate
from arcnc.simulate import run_trials
from arcnc.topologies import TopologySpec, gen_combination, gen_rgg, gen_umbrella
from oracles import mul_arrays, rank_gf_ref


def rlnc_run_ref(net, q, rng, m=None, source_mode=SOURCE_RANDOM):
    """Standalone one-shot run: its own slot order, constant propagation in
    edge order and a NumPy rank per sink, sharing no code with the engine."""
    if has_cycle(net):
        raise ValueError("one-shot baseline is restricted to acyclic networks")
    field = GF.for_q(q)
    if m is None:
        m = multicast_rate(net)
    coding, relays = classify_nodes(net)
    by_pos = lambda e: net.edge_pos[e]
    src_out = sorted(net.out_edges[net.source], key=by_pos)

    slots = []
    src_drawn = src_out if source_mode == SOURCE_RANDOM else src_out[m:]
    for e in src_drawn:
        slots.extend(("src", e, i) for i in range(m))
    for v in coding:
        for e_out in sorted(net.out_edges[v], key=by_pos):
            for e_in in sorted(net.in_edges[v], key=by_pos):
                slots.append(("k", e_in, e_out))
    vals = [int(v) for v in rng.integers(0, q, size=len(slots))] if slots else []

    src_cols = {e: [0] * m for e in src_out}
    kernel = {}
    for v in relays:
        e_in = net.in_edges[v][0]
        for e_out in net.out_edges[v]:
            kernel[(e_in, e_out)] = 1
    for slot, val in zip(slots, vals):
        if slot[0] == "src":
            src_cols[slot[1]][slot[2]] = val
        else:
            kernel[(slot[1], slot[2])] = val

    f = [None] * len(net.edges)
    for e in net.edge_order:
        v = net.tail(e)
        if v == net.source:
            pos = src_out.index(e)
            if source_mode == SOURCE_IDENTITY and pos < m:
                col = np.zeros(m, dtype=np.int64)
                col[pos] = 1
            else:
                col = np.array(src_cols[e], dtype=np.int64)
        else:
            col = np.zeros(m, dtype=np.int64)
            for e_in in net.in_edges[v]:
                c = kernel.get((e_in, e), 0)
                if c:
                    col ^= mul_arrays(field, c, f[e_in])
        f[e] = col
    for r in net.sinks:
        mat = np.array([f[e] for e in net.in_edges[r]], dtype=np.int64).T
        if rank_gf_ref(field, mat) != m:
            return False
    return True


def one_shot(net, q, rng, m=None, source_mode=SOURCE_RANDOM) -> bool:
    """The one-shot run: True iff every sink has full rank at t=0."""
    return run(net, q, t_max=0, rng=rng, m=m, source_mode=source_mode, validate_decoding=False).success


def _wide_sink_net():
    """Rate 2, with a coding node and a sink that has three in-edges."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (3, 5), (2, 5)]
    return Network.build(6, edges, 0, (4, 5))


def test_matches_adaptive_run_truncated_at_zero():
    # same generator stream, trial for trial: the one-shot run succeeds iff
    # the whole adaptive run ends at t_n = 0, the reading of --mode both
    for net in (gen_combination(3, 2), gen_rgg(12, 3, 0.5, cyclic=False, rng=np.random.default_rng(1))):
        for q in (2, 4):
            for i in range(150):
                ok = one_shot(net, q, np.random.default_rng((q, i)))
                adaptive = run(net, q, rng=np.random.default_rng((q, i)), validate_decoding=False)
                assert ok == (adaptive.t_n == 0)


def test_matches_standalone_reference_trial_for_trial():
    nets = {
        "combination(3,2)": gen_combination(3, 2),
        "rgg(12,3)": gen_rgg(12, 3, 0.5, cyclic=False, rng=np.random.default_rng(1)),
        "umbrella(5,3)": gen_umbrella(5, 3),
        "wide-sink": _wide_sink_net(),
    }
    wide = nets["wide-sink"]
    assert multicast_rate(wide) == 2 and max(len(wide.in_edges[r]) for r in wide.sinks) == 3
    for name, net in nets.items():
        for mode in (SOURCE_RANDOM, SOURCE_IDENTITY):
            outcomes = set()
            for q in (2, 4):
                for i in range(100):
                    ref = rlnc_run_ref(net, q, np.random.default_rng((q, i)), source_mode=mode)
                    ok = one_shot(net, q, np.random.default_rng((q, i)), source_mode=mode)
                    assert ok == ref, (name, mode, q, i)
                    outcomes.add(ok)
            assert outcomes == {True, False}, (name, mode)


def test_cyclic_network_rejected():
    for mode in ("rlnc", "both"):
        with pytest.raises(ValueError, match="^one-shot baseline is restricted to acyclic networks$"):
            run_trials(TopologySpec("shuttle"), 2, 1, 0, mode=mode)


def test_large_field_succeeds_often():
    net = gen_combination(3, 2)
    wins = sum(one_shot(net, 256, np.random.default_rng(i)) for i in range(1000))
    assert wins / 1000 >= 0.97  # floor (1 - 3/256)^3 ~ 0.965


def test_small_field_large_network_rarely_succeeds():
    net = gen_combination(16, 2)
    wins = sum(one_shot(net, 2, np.random.default_rng(i), m=2) for i in range(300))
    assert wins / 300 < 0.05


def test_identity_mode_rate_one_relay_network():
    # with m=1 the single pinned unit column reaches the first relay's sink
    # deterministically; the others ride random draws
    net = gen_combination(4, 1)
    first_sink = net.sinks[0]
    for i in range(50):
        ref = rlnc_run_ref(net, 2, np.random.default_rng(i), source_mode=SOURCE_IDENTITY)
        tr = run(net, 2, t_max=0, rng=np.random.default_rng(i),
                 source_mode=SOURCE_IDENTITY, validate_decoding=False)
        assert ref == tr.success
        assert first_sink in tr.t_r  # pinned stream always decodes at once


def test_umbrella_bits_bound():
    assert rlnc_field_bits_umbrella(3, 0.01) == pytest.approx(9.2228, abs=1e-3)
    # bound falls toward zero as the reliability demand vanishes
    relax = [rlnc_field_bits_umbrella(3, e) for e in (0.9, 0.99, 0.9999, 0.999999)]
    assert all(a > b for a, b in zip(relax, relax[1:]))
    assert relax[-1] < 0.2
    assert rlnc_field_bits_umbrella(10, 0.01) > rlnc_field_bits_umbrella(3, 0.01)
    with pytest.raises(ValueError):
        rlnc_field_bits_umbrella(3, 1.5)
    with pytest.raises(ValueError):
        rlnc_field_bits_umbrella(0, 0.1)


def test_sparsified_bits_bound():
    assert rlnc_field_bits_sparsified(10, 3, 0.01) == pytest.approx(10.6411, abs=1e-3)
    # n = m: single sink, smallest bound over n
    base = rlnc_field_bits_sparsified(3, 3, 0.01)
    for n in (4, 6, 10):
        assert rlnc_field_bits_sparsified(n, 3, 0.01) > base
    # doubling the sink count adds about one bit for small epsilon
    a = rlnc_field_bits_sparsified(9, 2, 0.01)   # n-m+1 = 8
    b = rlnc_field_bits_sparsified(17, 2, 0.01)  # n-m+1 = 16
    assert b - a == pytest.approx(1.0, abs=0.05)
    with pytest.raises(ValueError):
        rlnc_field_bits_sparsified(2, 3, 0.01)


def test_min_q_known_anchors():
    q = rlnc_min_q_for_target(120, 1, 0.99, "per_node")
    assert q == 2**15 and math.log2(q) >= 15
    assert rlnc_min_q_for_target(25, 10, 0.99, "per_node") == 2**15
    assert rlnc_min_q_for_target(1, 2, 0.99, "per_link") <= 2**9
    with pytest.raises(ValueError):
        rlnc_min_q_for_target(5, 2, 1.2, "per_link")
    with pytest.raises(ValueError):
        rlnc_min_q_for_target(5, 2, 0.9, "per_edge")


def test_bits_bounds_monotone_in_epsilon():
    for eps_hi, eps_lo in ((0.5, 0.01), (0.1, 0.001)):
        assert rlnc_field_bits_umbrella(4, eps_lo) > rlnc_field_bits_umbrella(4, eps_hi)
        assert rlnc_field_bits_sparsified(8, 2, eps_lo) > rlnc_field_bits_sparsified(8, 2, eps_hi)
    assert rlnc_min_q_for_target(40, 3, 0.999, "per_link") >= rlnc_min_q_for_target(
        40, 3, 0.9, "per_link"
    )
    assert rlnc_min_q_for_target(80, 3, 0.99, "per_link") >= rlnc_min_q_for_target(
        40, 3, 0.99, "per_link"
    )
