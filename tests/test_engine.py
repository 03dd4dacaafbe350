"""Protocol engine: golden cyclic trace, stopping, invariants, decoding,
the live draw list and counted acks against full scans, the kernel view
against per-pair bookkeeping, and the shared per-network layout."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc.engine import (
    SOURCE_IDENTITY,
    SOURCE_RANDOM,
    Engine,
    classify_nodes,
    decode_streams,
    run,
)
from arcnc.metrics import count_random_links
from arcnc.netgraph import Network, multicast_rate
from arcnc.polymatrix import pack
from arcnc.topologies import (
    SHUTTLE_EXAMPLE_KERNELS as SHUTTLE_GOLDEN,
    gen_combination,
    gen_rgg,
    gen_shuttle,
    gen_sparsified,
    gen_umbrella,
)
from oracles import (
    PairKernelsRef,
    build_decoder_ref,
    check_words,
    checking_words,
    children_of,
    degrees_ref,
    f_of,
    kernels_of,
    pinned_draws,
    propagate_acks_ref,
    propagate_ref,
    rng_slots_ref,
    sink_decode_ref,
    y_of,
)


def golden_engine(steps=2, kernels=SHUTTLE_GOLDEN, **kw):
    """The shuttle in identity mode, every coding kernel pinned (the
    paper's example by default) and replayed through `step(t, draws=)`."""
    net = gen_shuttle()
    eng = Engine(net, 2, rng=np.random.default_rng(kw.pop("seed", 0)), source_mode=SOURCE_IDENTITY, **kw)
    for t in range(steps):
        eng.step(t, draws=pinned_draws(eng, t, kernels))
    return net, eng


def test_golden_shuttle_kernel_matrices():
    net, eng = golden_engine(steps=2)
    check_words(eng)
    f = f_of(eng)
    # F_{r1}(z) = [[1, 1], [0, z]] over in-edges (e1, e7)
    assert f[0] == [(1, 0), (0, 0)]
    assert f[6] == [(1, 0), (0, 1)]
    # F_{r2}(z) = [[0, z], [1, 1+z]] over in-edges (e2, e10)
    assert f[1] == [(0, 1), (0, 0)]
    assert f[9] == [(0, 1), (1, 1)]
    assert eng.t_r == {1: 1, 2: 1}
    assert eng.done_t == 1
    assert eng.l_v == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


def test_golden_shuttle_symbols():
    net, eng = golden_engine(steps=2)
    x, y = eng.x, y_of(eng)
    # at t=0 the first sink sees only the first source symbol, the second
    # sink only the second one: neither can decode yet
    assert y[0][0] == x[0][0] and y[6][0] == x[0][0]
    assert y[1][0] == x[0][1] and y[9][0] == x[0][1]
    assert eng.ack_log == [] or all(t >= 1 for t, _ in eng.ack_log)
    # the middle-cycle edge carries x_{1,1} + x_{2,0} at t=1 even though its
    # second parent's symbol is computed later in the sweep
    assert y[4][1] == x[1][0] ^ x[0][1]


def test_golden_shuttle_stream_recovery_with_delay_one():
    net, eng = golden_engine(steps=50, seed=5)
    check_words(eng)
    assert eng.done_t == 1
    assert eng.t_r == {1: 1, 2: 1}
    decoded = decode_streams(eng)
    for r in (1, 2):
        assert len(decoded[r]) == 49  # exactly one step behind 50 received


def test_golden_trace_dump_is_stable():
    net, eng = golden_engine(steps=1, tracing=True)
    assert "t=0 draw e1->e3 1" in eng.trace_lines
    assert "t=0 draw e7->e3 0" in eng.trace_lines
    sym_lines = [l for l in eng.trace_lines if l.startswith("t=0 sym")]
    assert len(sym_lines) == 10


def test_random_source_trace_is_stable():
    # the golden trace runs in identity mode, so it draws no source columns;
    # this one pins the random source's lines and their place in the trace
    eng = Engine(gen_shuttle(), 4, rng=np.random.default_rng(7), tracing=True)
    while eng.done_t is None:
        eng.step(eng.t_next)
    assert eng.done_t == 3
    assert "t=0 draw src->e1 (3, 2)" in eng.trace_lines
    assert "t=0 draw src->e2 (2, 3)" in eng.trace_lines
    digest = hashlib.sha256("\n".join(eng.trace_lines).encode()).hexdigest()
    assert digest == "0da6b6870413d5988fe48cd0d1693879b059911b7d94933630f6d81ea27c6dfe"


def test_random_trace_on_cyclic_rgg_is_stable():
    # seven coding nodes here have in- and out-degree >= 2, where the shuttle
    # has none, so this pins the order of `Network.pairs` within a node
    net = gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(0))
    eng = Engine(net, 2, rng=np.random.default_rng(1), tracing=True)
    while eng.done_t is None:
        eng.step(eng.t_next)
    assert eng.done_t == 4 and len(eng.trace_lines) == 516
    digest = hashlib.sha256("\n".join(eng.trace_lines).encode()).hexdigest()
    assert digest == "b22e0f4b6b67dba96f9d652e68874097353124c8b0df9bfbf0910d3f032189f2"


def test_all_zero_assignment_never_decodes():
    zeros = {pair: [0, 0, 0, 0] for pair in SHUTTLE_GOLDEN}
    net, eng = golden_engine(steps=4, kernels=zeros, seed=1)
    assert eng.t_r == {}
    assert eng.done_t is None


def test_replay_guards():
    # step(t, draws=) is the only way to set coefficients; a rejected step
    # leaves the engine untouched
    eng = Engine(gen_shuttle(), 4, rng=None)
    n = len(eng.rng_slots(0))
    with pytest.raises(ValueError, match="expected step 0"):
        eng.step(1, draws=[0] * n)
    for draws in ([0] * (n + 1), [0] * (n - 1)):
        with pytest.raises(ValueError, match=f"expected {n} draws"):
            eng.step(0, draws=draws)
    for bad in (4, -1):
        with pytest.raises(ValueError, match=r"GF\(4\)"):
            eng.step(0, draws=[0] * (n - 1) + [bad])
    with pytest.raises(ValueError, match="no rng"):
        eng.step(0)
    assert eng.t_next == 0 and eng.x == [] and kernels_of(eng) == kernels_of(Engine(gen_shuttle(), 4))


def test_pinned_values_land_in_their_kernels():
    net = gen_shuttle()
    eng = Engine(net, 4, rng=None)
    rng = np.random.default_rng(3)
    assert not set(eng.rng_slots(0)) & net.zero_mask  # masked pairs are not slots at t=0
    while eng.done_t is None:
        t = eng.t_next
        assert t < 64, "run did not decode"
        slots = eng.rng_slots(t)
        draws = rng.integers(0, 4, size=len(slots)).tolist()
        eng.step(t, draws=draws)
        kernels = kernels_of(eng)
        assert [kernels[pair][t] for pair in slots] == draws
    assert all(kernels[pair][0] == 0 for pair in net.zero_mask)


def test_relays_route_instead_of_code():
    net = gen_shuttle()
    eng = Engine(net, 2, rng=np.random.default_rng(0))
    coding, relays = classify_nodes(net)
    assert sorted(relays) == [3, 5]  # v1 and v3
    assert sorted(coding) == [1, 2, 4, 6]
    kernels = kernels_of(eng)
    for pair in ((4, 6), (4, 7), (5, 8), (5, 9)):
        assert kernels[pair] == [1]

    comb = gen_combination(5, 2)
    coding, relays = classify_nodes(comb)
    assert coding == []  # only the source codes
    assert sorted(relays) == [1, 2, 3, 4, 5]
    assert count_random_links(comb) == 5  # the n source arcs

    umb = gen_umbrella(5, 3)
    coding, _ = classify_nodes(umb)
    assert set(coding) == set(umb.shaded)


def test_eta_counts():
    assert count_random_links(gen_shuttle()) == 6
    assert count_random_links(gen_shuttle(), SOURCE_IDENTITY) == 4
    assert count_random_links(gen_combination(3, 2)) == 3
    assert count_random_links(gen_combination(4, 2), SOURCE_IDENTITY) == 2


def test_symbol_identity_and_fixpoint_on_many_traces():
    # Eq-style identity y_{e,t} = sum_i x_{t-i} f_{e,i} and propagation
    # against the reference convolution, checked on every engine the runs step
    for net, q in [
        (gen_shuttle(), 2),
        (gen_shuttle(), 4),
        (gen_combination(4, 2), 2),
        (gen_sparsified(6, 2), 4),
        (gen_umbrella(5, 3), 4),
        (gen_rgg(14, 3, 0.5, cyclic=True, rng=np.random.default_rng(2)), 4),
    ]:
        for seed in range(5):
            with checking_words() as engines:
                tr = run(net, q, rng=np.random.default_rng(seed))
            assert tr.success and len(engines) == 1


def test_per_edge_freezing_keeps_growing_toward_slow_children():
    # two sinks behind one coding node: the fast child's kernels freeze as
    # soon as it decodes, the slow child's keep growing
    edges = [(0, 1), (0, 1), (1, 2), (1, 3), (1, 3)]
    net = Network.build(4, edges, 0, (2, 3))
    assert multicast_rate(net) == 1
    found = False
    for seed in range(200):
        eng = Engine(net, 2, rng=np.random.default_rng(seed))
        for t in range(20):
            eng.step(t)
            if eng.done_t is not None:
                break
        t2, t3 = eng.t_r[2], eng.t_r[3]
        if t2 < t3:
            found = True
            kernels = kernels_of(eng)
            assert len(kernels[(0, 2)]) == t2 + 1  # frozen at the ack
            assert len(kernels[(0, 3)]) == t3 + 1  # kept growing
    assert found


def test_stopping_is_absorbing_and_kernels_freeze():
    net = gen_sparsified(6, 2)
    eng = Engine(net, 2, rng=np.random.default_rng(3))
    m = multicast_rate(net)
    children = children_of(net)
    stopped_at = {}
    kernel_len_at_stop = {}
    for t in range(30):
        eng.step(t)
        kernels = kernels_of(eng)
        for v in range(net.num_nodes):
            stopped = all(eng.acked[c] for c in children[v])
            if stopped and v not in stopped_at:
                stopped_at[v] = t
                kernel_len_at_stop[v] = {
                    pair: len(kernel)
                    for pair, kernel in kernels.items()
                    if net.tail(pair[1]) == v
                }
            if v in stopped_at:
                assert stopped  # absorbing
        if eng.done_t is not None:
            break
    for _ in range(3):
        eng.step(eng.t_next)
    kernels = kernels_of(eng)
    for v, lens in kernel_len_at_stop.items():
        for pair, length in lens.items():
            assert len(kernels[pair]) == length


def test_always_true_termination_invariants():
    nets = [
        (gen_shuttle(), 2),
        (gen_combination(6, 2), 2),
        (gen_sparsified(8, 2), 2),
        (gen_umbrella(5, 3), 2),
    ]
    for net, q in nets:
        m = multicast_rate(net)
        for i in range(300):
            tr = run(net, q, rng=np.random.default_rng((55, q, i)), m=m,
                     validate_decoding=False)
            if not tr.success:
                continue
            assert tr.t_n == max(tr.t_r.values())
            assert max(tr.l_v.values()) <= tr.t_n
            assert all(tr.l_v[v] <= tr.t_n for v in tr.l_v)


def test_degree_equalities_hold_in_generic_position():
    """T_N = max L_v and L_r >= T_r: exact for q=16 on this seeded batch.

    Over GF(2) these equalities fail with small probability (a
    freshly decodable sink can have an all-zero top coefficient block), so
    they are generic-position facts, not invariants; the companion test
    below pins the counterexample.
    """
    nets = [gen_shuttle(), gen_combination(6, 2), gen_sparsified(8, 2), gen_umbrella(5, 3)]
    for net in nets:
        m = multicast_rate(net)
        for i in range(150):
            tr = run(net, 16, rng=np.random.default_rng((77, i)), m=m,
                     validate_decoding=False)
            assert tr.success
            assert tr.t_n == max(tr.t_r.values()) == max(tr.l_v.values())
            assert all(tr.l_v[r] >= tr.t_r[r] for r in tr.sink_order)


def test_degree_equalities_fail_sometimes_at_q2_but_decoding_survives():
    net = gen_shuttle()
    violations = 0
    total = 0
    for i in range(400):
        tr = run(net, 2, rng=np.random.default_rng((1234, i)), m=2)
        if not tr.success:
            continue
        total += 1
        if any(tr.l_v[r] < tr.t_r[r] for r in tr.sink_order):
            violations += 1
            assert tr.decode_checked  # the decoder is still exact
    assert 0 < violations < 0.2 * total


def test_success_probability_beats_group_bound_on_combination():
    # success frequency by time t stays above (1 - d/q^(t+1))^eta - 3 sigma
    # wherever q^(t+1) > d
    net = gen_combination(3, 2)
    d, eta = 3, count_random_links(net)
    assert eta == 3
    trials = 3000
    for q, t in ((2, 1), (2, 2), (4, 0), (4, 1)):
        assert q ** (t + 1) > d
        wins = 0
        for i in range(trials):
            tr = run(net, q, t_max=t, rng=np.random.default_rng((41, q, i)), m=2,
                     validate_decoding=False)
            wins += tr.success
        bound = (1 - d / q ** (t + 1)) ** eta
        sigma = (bound * (1 - bound) / trials) ** 0.5
        assert wins / trials >= bound - 3 * sigma


def test_group_bound_fails_on_masked_cyclic_shuttle():
    """The grouped-extension-field bound does not transfer to the masked
    shuttle: at t=0 the first sink's two in-streams are proportional (its
    feedback kernel coefficient is forced to zero), so no draw decodes,
    while the formula would claim a positive floor for q > 2.
    """
    net = gen_shuttle()
    d, eta, q = 2, count_random_links(net), 4
    bound_t0 = (1 - d / q) ** eta
    assert bound_t0 > 0
    for i in range(400):
        tr = run(net, q, t_max=0, rng=np.random.default_rng((31, i)), m=2,
                 validate_decoding=False)
        assert not tr.success


def test_fallback_mask_still_decodes_with_larger_delay():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]
    plain = Network.build(6, edges, 0, (4, 5))
    slow = Network.build(6, edges, 0, (4, 5), mask="all_zero")
    t_plain, t_slow = [], []
    for i in range(120):
        a = run(plain, 4, rng=np.random.default_rng((9, i)), validate_decoding=False)
        b = run(slow, 4, rng=np.random.default_rng((9, i)), validate_decoding=False)
        assert b.success
        if a.success:
            t_plain.append(a.t_n)
        t_slow.append(b.t_n)
    assert np.mean(t_slow) > np.mean(t_plain)


def test_fallback_mask_on_cyclic_net_decodes():
    net_default = gen_shuttle()
    net = Network.build(7, net_default.edges, 0, (1, 2), mask="all_zero")
    assert len(net.zero_mask) == 12
    with checking_words() as engines:
        tr = run(net, 4, rng=np.random.default_rng(4))
    assert tr.success and tr.decode_checked and len(engines) == 1


def test_horizon_zero_failure_record():
    net = gen_shuttle()
    tr = run(net, 2, t_max=0, rng=np.random.default_rng(0))
    assert not tr.success and tr.t_n is None and tr.t_r == {}


def test_m_mismatch_rejected():
    net = gen_combination(4, 2)
    with pytest.raises(ValueError):
        Engine(net, 2, rng=np.random.default_rng(0), m=3)


def test_identity_source_pins_first_m_edges():
    # first m source edges carry fixed unit columns; the rest draw and grow
    net = gen_combination(4, 2)
    eng = Engine(net, 4, rng=np.random.default_rng(8), source_mode=SOURCE_IDENTITY)
    for t in range(30):
        eng.step(t)
        if eng.done_t is not None:
            break
    assert eng.done_t is not None
    f = f_of(eng)
    assert f[0][0] == (1, 0) and all(not any(c) for c in f[0][1:])
    assert f[1][0] == (0, 1) and all(not any(c) for c in f[1][1:])


def test_run_is_deterministic_for_a_seed():
    net = gen_umbrella(5, 3)
    a = run(net, 4, rng=np.random.default_rng(77))
    b = run(net, 4, rng=np.random.default_rng(77))
    assert a.t_r == b.t_r and a.l_v == b.l_v and a.t_n == b.t_n


def test_sink_with_children_acks_only_after_subtree():
    # shaded umbrella nodes must not release their parents before their own
    # descendants decode
    net = gen_umbrella(5, 3)
    eng = Engine(net, 4, rng=np.random.default_rng(13))
    children = children_of(net)
    for t in range(40):
        eng.step(t)
        for v in net.shaded:
            if eng.acked[v]:
                assert all(eng.acked[c] for c in children[v])
                assert v in eng.t_r
        if eng.done_t is not None:
            break
    assert eng.done_t is not None


def test_kernel_degree_tracks_stream_degree():
    # memory sizing guideline: local kernel degree stays within the node's
    # stored stream degree (deterministic for these seeds; random
    # cancellations can break it in principle)
    net = gen_umbrella(5, 3)
    m = multicast_rate(net)
    for i in range(40):
        eng = Engine(net, 16, rng=np.random.default_rng((21, i)), m=m)
        for t in range(40):
            eng.step(t)
            if eng.done_t is not None:
                break
        kernels = kernels_of(eng)
        for v in list(net.shaded):
            k_deg = -1
            for pair, coeffs in kernels.items():
                if net.tail(pair[1]) == v:
                    nz = [i for i, c in enumerate(coeffs) if c]
                    k_deg = max(k_deg, nz[-1] if nz else -1)
            assert k_deg <= eng.l_v[v]


def test_decoded_sinks_keep_their_rank_state_frozen():
    # a sink keeps its whole rank state when it decodes, as it stood at t_r:
    # the step count it decoded at and the block-0 pivots its decoder reads,
    # unchanged by every later step; the undecoded ones keep theirs, fed
    # through the last step, and decoding still works afterwards
    net = gen_umbrella(5, 3)
    for i in range(10):
        eng = Engine(net, 2, rng=np.random.default_rng((23, i)))
        frozen = {}  # sink -> its basis and tags when it decoded
        while eng.done_t is None:
            eng.step(eng.t_next)
            assert eng.t_next < 64, "run did not decode"
            undecoded = {r for r in eng.sink_order if r not in eng.t_r}
            assert set(eng._undecoded) == undecoded
            for r in undecoded:
                assert eng._undecoded[r].steps == eng.t_next
            for r, t_r in eng.t_r.items():
                kept = eng._decoded[r]
                frozen.setdefault(r, (dict(kept.basis), dict(kept.tags)))
                assert kept.steps == t_r + 1
                assert set(range(eng.m)) <= set(kept.basis) and set(kept.basis) == set(kept.tags)
                assert (kept.basis, kept.tags) == frozen[r]
        assert eng._undecoded == {}
        for _ in range(max(eng.t_r.values()) + 3):
            eng.step(eng.t_next)
        for r, t_r in eng.t_r.items():
            kept = eng._decoded[r]
            assert kept.steps == t_r + 1 and (kept.basis, kept.tags) == frozen[r]
        decoded = decode_streams(eng)
        for r in eng.sink_order:
            dec = build_decoder_ref(eng, r)
            x_hat = sink_decode_ref(dec, dec.y_row, dec.blocks)
            assert x_hat == decoded[r] == [pack(eng.field.k, x) for x in eng.x[: len(x_hat)]]


REPLAY_NETS = {
    "shuttle": gen_shuttle,
    "rgg_cyclic": lambda: gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(0)),
    "umbrella": lambda: gen_umbrella(5, 3),
}


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize(
    "name, source_mode",
    [
        ("shuttle", SOURCE_RANDOM),
        ("shuttle", SOURCE_IDENTITY),
        ("rgg_cyclic", SOURCE_RANDOM),
        ("umbrella", SOURCE_RANDOM),
    ],
)
def test_trial_equals_its_replay(name, source_mode, q):
    # the exact oracle rests on this: feeding a trial's draws, slot by slot,
    # to a fresh rng-less engine reproduces the trial
    net = REPLAY_NETS[name]()
    for i in range(5):
        a = Engine(net, q, rng=np.random.default_rng((61, q, i)),
                   source_mode=source_mode, tracing=True)
        b = Engine(net, q, rng=None, m=a.m, source_mode=source_mode, tracing=True)
        t = 0
        while a.done_t is None or t <= a.done_t + 2:
            assert t < 64, "run did not decode"
            slots = a.rng_slots(t)
            a.step(t)
            assert b.rng_slots(t) == slots
            b.step(t, draws=pinned_draws(b, t, kernels_of(a)))
            t += 1
        assert kernels_of(b) == kernels_of(a)
        assert f_of(b) == f_of(a)
        assert b.t_r == a.t_r
        assert b.ack_log == a.ack_log
        assert b.done_t == a.done_t
        assert b.l_v == a.l_v
        # symbols differ: the replay has a message stream of its own
        no_sym = [[line for line in eng.trace_lines if line.split()[1] != "sym"] for eng in (a, b)]
        assert no_sym[1] == no_sym[0]


PROPAGATION_NETS = {
    "shuttle": gen_shuttle,
    "umbrella": lambda: gen_umbrella(5, 3),
    "combination": lambda: gen_combination(4, 2),
    "sparsified": lambda: gen_sparsified(6, 3),
    "rgg_cyclic": lambda: gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(0)),
    "rgg_acyclic": lambda: gen_rgg(12, 3, 0.5, cyclic=False, rng=np.random.default_rng(1)),
    # every pair masked, so the relays v1 and v3 are masked relays
    "shuttle_all_zero": lambda: Network.build(7, gen_shuttle().edges, 0, (1, 2), mask="all_zero"),
    # a masked relay whose input, a source edge, is nonzero at t=0
    "line_all_zero": lambda: Network.build(3, [(0, 1), (1, 2)], 0, (2,), mask="all_zero"),
}


@pytest.mark.parametrize("source_mode", [SOURCE_RANDOM, SOURCE_IDENTITY])
@pytest.mark.parametrize("q", [2, 4, 16, 256])
@pytest.mark.parametrize("name", sorted(PROPAGATION_NETS))
def test_packed_words_match_list_propagation(name, q, source_mode):
    # the packed words, unpacked by f_of and y_of, equal the tuple/list
    # convolution on the same kernels and stream, past t_n as well (frozen
    # kernels, relays and the source's inputs included)
    net = PROPAGATION_NETS[name]()
    for i in range(2):
        eng = Engine(net, q, rng=np.random.default_rng((67, q, i)), source_mode=source_mode)
        while eng.done_t is None or eng.t_next <= eng.done_t + 2:
            assert eng.t_next < 64, "run did not decode"
            eng.step(eng.t_next)
        f_ref, y_ref = propagate_ref(eng)
        assert f_of(eng) == f_ref and y_of(eng) == y_ref


@pytest.mark.parametrize("source_mode", [SOURCE_RANDOM, SOURCE_IDENTITY])
@pytest.mark.parametrize("q", [2, 4, 256])
@pytest.mark.parametrize("name", sorted(PROPAGATION_NETS))
def test_degree_snapshot_matches_unpacked_columns(name, q, source_mode):
    # L_v of success records (read at t_n) and of horizon-exhausted failure
    # records (read at t_max) against the degrees of the unpacked columns;
    # all-zero draws give a failure record on every net whose sinks need coding
    net = PROPAGATION_NETS[name]()
    kinds = set()
    for seed in range(3):
        for t_max in (0, 1, 63):
            rng = np.random.default_rng((79, q, seed))
            tr = run(net, q, t_max=t_max, rng=rng, source_mode=source_mode, validate_decoding=False)
            eng = Engine(net, q, rng=np.random.default_rng((79, q, seed)), source_mode=source_mode)
            while eng.t_next <= t_max and eng.done_t is None:
                eng.step(eng.t_next)
            assert tr.l_v == degrees_ref(eng) == eng._snapshot_degrees()
            if tr.success:
                assert eng.l_v == tr.l_v
            kinds.add(tr.success)
    assert True in kinds
    eng = Engine(net, q, source_mode=source_mode)
    for t in range(3):
        eng.step(t, draws=[0] * len(eng.rng_slots(t)))
    assert eng._snapshot_degrees() == degrees_ref(eng)


def test_degree_snapshot_reads_sentinel_and_shared_history():
    # node 5 has no feeding edge, so its run holds only the sentinel and
    # L_5 = -1; leaf 3 is fed only by relay 1's two plain edges, which share
    # the history of 0->1 with 1->4, so L_3 is that history's degree. Both
    # on success records (read at t_n) and on records that hit t_max
    net = Network.build(6, [(0, 1), (0, 2), (1, 3), (1, 3), (1, 4), (2, 4)], 0, (4,))
    kinds = set()
    for seed in range(20):
        for t_max in (0, 1, 4):
            rng = np.random.default_rng((97, seed))
            tr = run(net, 2, t_max=t_max, rng=rng, validate_decoding=False)
            eng = Engine(net, 2, rng=np.random.default_rng((97, seed)))
            while eng.t_next <= t_max and eng.done_t is None:
                eng.step(eng.t_next)
            assert eng.w[2] is eng.w[3] is eng.w[4] is eng.w[0]
            degree = max((t for t, col in enumerate(f_of(eng)[0]) if any(col)), default=-1)
            assert tr.l_v == degrees_ref(eng) == eng._snapshot_degrees()
            assert tr.l_v[5] == -1 and tr.l_v[3] == degree
            kinds.add(tr.success)
    assert kinds == {True, False}


@pytest.mark.parametrize("name", sorted(PROPAGATION_NETS))
def test_fixpoint_check_does_not_read_the_plan(name):
    # a computed word the plan loop got wrong fails the propagation half of
    # the check, even one that keeps the symbol identity: adding d_0's t=0
    # word adds the unit column e_0 together with x_0[0]
    net = PROPAGATION_NETS[name]()
    eng = Engine(net, 4, rng=np.random.default_rng(83))
    for t in range(3):
        eng.step(t)
        d0 = eng.w[len(net.edges)][0]
        for hist, _, _ in eng._plan:
            hist[-1] ^= d0
            with pytest.raises(AssertionError, match="^propagation disagrees"):
                check_words(eng)
            hist[-1] ^= d0
        check_words(eng)


@pytest.mark.parametrize("name", sorted(PROPAGATION_NETS))
def test_symbol_identity_check_reads_the_source_stream(name):
    # the converse: a source symbol changed after the step that sent it
    # breaks the symbol identity, the half checked first; in identity mode
    # the first source edge carries x_t[0] with the unit column e_0
    net = PROPAGATION_NETS[name]()
    eng = Engine(net, 4, rng=np.random.default_rng(83), source_mode=SOURCE_IDENTITY)
    for t in range(3):
        eng.step(t)
        x_t = eng.x[t]
        eng.x[t] = (x_t[0] ^ 1, *x_t[1:])
        with pytest.raises(AssertionError, match="^symbol identity broken"):
            check_words(eng)
        eng.x[t] = x_t
        check_words(eng)


# -- live draw list and counted ack cascade against the full scans ------------


def check_draws_and_acks(net, q, source_mode, seed, pinned=None, steps=12):
    """Step an engine, with the kernels in `pinned` pinned, and compare, at
    every step, its draw slots (plain tuples) with the full scan and its
    acks with the repeated sweeps of `tests/oracles.py`."""
    eng = Engine(net, q, rng=np.random.default_rng(seed), source_mode=source_mode)
    acked, ack_log, decoded = [False] * net.num_nodes, [], set()
    for t in range(steps):
        done = eng.done_t is not None
        slots = eng.rng_slots(t)
        assert slots == rng_slots_ref(net, eng.m, source_mode, t, acked, done)
        assert all(type(p) is tuple for p in slots)
        decoded.update(eng.step(t, draws=pinned_draws(eng, t, pinned or {}, eng.rng)))
        if not done:  # a finished run acks nothing more
            propagate_acks_ref(net, decoded, acked, ack_log, t)
        assert eng.ack_log == ack_log and eng.acked == acked
    return eng


@st.composite
def protocol_nets(draw):
    """Source 0 and up to 9 nodes, acyclic or cyclic, with multi-edges,
    sinks that have children, childless non-sinks, nodes the source cannot
    reach and, under the all-zero mask, every pair masked."""
    n = draw(st.integers(3, 9))
    acyclic = draw(st.booleans())
    edges = [(0, 1)]
    for _ in range(draw(st.integers(2, 16))):
        t, h = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
        if t != h and not (acyclic and t > h):
            edges.append((t, h))
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a multi-edge
    reach = sorted(Network(n, edges, 0, (1,)).reachable_from_source() - {0})
    sinks = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=4, unique=True))
    return Network.build(n, edges, 0, sinks, mask=draw(st.sampled_from(("indexed", "all_zero"))))


@settings(max_examples=200, deadline=None)
@given(
    protocol_nets(),
    st.sampled_from((2, 4)),
    st.sampled_from((SOURCE_RANDOM, SOURCE_IDENTITY)),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_live_draws_and_counted_acks_match_full_scans(net, q, source_mode, seed, data):
    # pinned kernels of any length; a masked pair's t=0 value is never read,
    # since the pair is no slot at t=0
    coding, _ = classify_nodes(net)
    pinned = {}
    candidates = [pair for v in coding for pair in net.pairs[v]]
    if candidates and data.draw(st.booleans()):
        for pair in data.draw(st.lists(st.sampled_from(candidates), max_size=4, unique=True)):
            pinned[pair] = data.draw(st.lists(st.integers(0, q - 1), max_size=4))
    check_draws_and_acks(net, q, source_mode, seed, pinned)


def test_live_draws_and_counted_acks_match_on_pinned_nets():
    # each case the random nets may miss: masked pairs on a cycle with
    # pinned kernels, sinks with children, a childless non-sink (node 4
    # below) and a sink whose child acks before it decodes
    dead_end = Network.build(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (3, 1)], 0, (3,))
    assert not dead_end.out_edges[4] and dead_end.zero_mask
    umb = gen_umbrella(5, 3)
    assert any(umb.out_edges[r] for r in umb.sinks)
    for seed in range(6):
        for mode in (SOURCE_RANDOM, SOURCE_IDENTITY):
            check_draws_and_acks(gen_shuttle(), 2, mode, seed, SHUTTLE_GOLDEN if mode == SOURCE_IDENTITY else None)
            check_draws_and_acks(umb, 4, mode, seed, steps=20)
            eng = check_draws_and_acks(dead_end, 2, mode, seed)
            assert (0, 4) in eng.ack_log  # the dead end acks at t=0


# -- the per-network layout holds no per-trial state ---------------------------


def plain_relay_roots(net, m, source_mode):
    """Plain relay edge -> the edge at the top of its chain of plain relays."""
    _, relays = classify_nodes(net)
    copies = {p[1]: p[0] for v in relays for p in net.pairs[v] if p not in net.zero_mask}
    if source_mode == SOURCE_IDENTITY:
        copies.update((e, len(net.edges) + j) for j, e in enumerate(net.out_edges[net.source][:m]))
    roots = {}
    for e in copies:
        root = e
        while root in copies:
            root = copies[root]
        roots[e] = root
    return roots


def step_past_done(engines, extra=2):
    """Step the engines in turn, one step each, until all are 2 steps past t_n."""
    while any(eng.done_t is None or eng.t_next <= eng.done_t + extra for eng in engines):
        for eng in engines:
            assert eng.t_next < 64, "run did not decode"
            eng.step(eng.t_next)


@pytest.mark.parametrize("name", sorted(PROPAGATION_NETS))
def test_shared_layout_holds_no_per_trial_state(name):
    shared = PROPAGATION_NETS[name]()
    m = multicast_rate(shared)
    # a batch on one network equals a fresh network per trial
    for i in range(3):
        a = run(shared, 4, rng=np.random.default_rng((71, i)), m=m)
        b = run(PROPAGATION_NETS[name](), 4, rng=np.random.default_rng((71, i)), m=m)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    # engines on the shared network, two q values and both source modes,
    # stepped interleaved, equal engines on fresh networks stepped alone
    cases = [(q, mode, seed) for q in (2, 4) for mode in (SOURCE_RANDOM, SOURCE_IDENTITY) for seed in (1, 2)]
    together = [Engine(shared, q, rng=np.random.default_rng((73, seed)), source_mode=mode) for q, mode, seed in cases]
    step_past_done(together)
    for eng, (q, mode, seed) in zip(together, cases):
        alone = Engine(PROPAGATION_NETS[name](), q, rng=np.random.default_rng((73, seed)), source_mode=mode)
        step_past_done([alone])
        while alone.t_next < eng.t_next:
            alone.step(alone.t_next)
        assert eng.w == alone.w and kernels_of(eng) == kernels_of(alone)
        assert (eng.t_r, eng.ack_log, eng.acked, eng.l_v) == (alone.t_r, alone.ack_log, alone.acked, alone.l_v)
        roots = plain_relay_roots(shared, m, mode)
        assert all(eng.w[e] is eng.w[root] for e, root in roots.items())
        computed = [e for e in range(len(eng.w)) if e not in roots]
        assert len({id(eng.w[e]) for e in computed}) == len(computed)
        f_ref, y_ref = propagate_ref(eng)
        assert f_of(eng) == f_ref and y_of(eng) == y_ref


# -- the kernel view against per-pair bookkeeping -------------------------------

KERNEL_NETS = {
    "shuttle": gen_shuttle,
    "umbrella": lambda: gen_umbrella(5, 3),
    "rgg_cyclic": lambda: gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(0)),
    "shuttle_all_zero": lambda: Network.build(7, gen_shuttle().edges, 0, (1, 2), mask="all_zero"),
    # two sinks behind one coding node: the edges toward the sink that
    # decodes first freeze while the others keep drawing
    "two_children": lambda: Network.build(4, [(0, 1), (0, 1), (1, 2), (1, 3), (1, 3)], 0, (2, 3)),
}


@pytest.mark.parametrize("source_mode", [SOURCE_RANDOM, SOURCE_IDENTITY])
@pytest.mark.parametrize(
    "name, q, freezes",
    [("shuttle", 2, False), ("shuttle", 4, False), ("shuttle", 8, False), ("umbrella", 4, True),
     ("rgg_cyclic", 2, False), ("rgg_cyclic", 4, False), ("shuttle_all_zero", 4, False),
     ("two_children", 2, True)],
)
def test_kernel_view_matches_per_pair_bookkeeping(name, q, freezes, source_mode):
    # after every step, past t_n too, the kernels read from the coefficient
    # rows equal one list per pair fed each slot's value: for a run on the
    # engine's rng (the same values drawn from a twin rng) and for its
    # replay through step(t, draws=); on the nets that freeze, some runs
    # freeze edges at an ack before t_n
    net = KERNEL_NETS[name]()
    frozen = 0
    for seed in range(6):
        a = Engine(net, q, rng=np.random.default_rng((89, seed)), source_mode=source_mode)
        b = Engine(net, q, rng=None, m=a.m, source_mode=source_mode)
        twin = np.random.default_rng((89, seed))
        book = PairKernelsRef(net, a.m, source_mode)
        while a.done_t is None or a.t_next <= a.done_t + 2:
            t = a.t_next
            assert t < 64, "run did not decode"
            slots = a.rng_slots(t)
            vals = twin.integers(0, q, size=len(slots)).tolist() if slots else []
            a.step(t)
            b.step(t, draws=vals)
            book.record(t, slots, vals)
            assert kernels_of(a) == book.kernels == kernels_of(b)
        # a drawing pair whose kernel stopped short of t_n froze at an ack
        frozen += any(len(book.kernels[pair]) <= a.done_t for pair in book.drawing)
    assert frozen or not freezes
