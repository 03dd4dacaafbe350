"""Sink-side work done once per distinct history: the rows of the sinks'
rank tests, built once per history and step, and the decode check's
time-packed windows, built once per history and lag, each against the
per-sink computation it replaces. And step 0's histories done once per
graph and rate in a trial of a sink sweep: every point that starts from a
shared step 0 against an engine built alone on the same (seed, q, trial),
at every step, and the sweep's nested rates against `multicast_rate`."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcnc import netgraph
from arcnc.engine import SOURCE_IDENTITY, SOURCE_RANDOM, Engine, Step0, decode_streams
from arcnc.gf import GF
from arcnc.netgraph import Network, multicast_rate, multicast_rates
from arcnc.polymatrix import kernel_rows
from arcnc.simulate import run_trials, trial_rng
from arcnc.topologies import (
    TopologySpec,
    build_sweep,
    build_topology,
    gen_combination,
    gen_rgg,
    gen_shuttle,
    gen_umbrella,
)
from oracles import RankCache, build_decoder_ref, build_M_ref, rank_gf_ref, sink_decode_ref
from test_netgraph import multigraphs
from test_sequential_decode import sink_blocks

# relay 1 feeds sink 3 twice with one history and sink 4 once; relay 2
# feeds both sinks, so every history feeds more than one sink
FED_TWICE = Network.build(5, [(0, 1), (0, 2), (1, 3), (1, 3), (2, 3), (1, 4), (2, 4)], 0, (3, 4))

SHARING_NETS = {
    "combination(6,3)": lambda: gen_combination(6, 3),
    "umbrella(5,3)": lambda: gen_umbrella(5, 3),
    "shuttle": gen_shuttle,
    "rgg_cyclic": lambda: gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(0)),
    "rgg_acyclic": lambda: gen_rgg(12, 3, 0.5, cyclic=False, rng=np.random.default_rng(1)),
    "fed_twice": lambda: FED_TWICE,
}


def sink_words(eng, r):
    return [eng.w[e] for e in eng.net.in_edges[r]]


class CountingRows(list):
    """The engine's row per history, counting the times each one is built."""

    def __init__(self, rows):
        super().__init__(rows)
        self.builds = [0] * len(rows)

    def __setitem__(self, h, row):
        self.builds[h] += 1
        super().__setitem__(h, row)


def check_rank_states(eng, refs, rows):
    """After step t: every sink-feeding history's row built once in the
    step, to its value from the history, and no other; each undecoded sink's
    pivots, tags and step count equal to its words-fed reference's, and its
    rank to M_{r,t}'s from scratch; each decoded sink's state frozen at
    t_r: pivots, tags and step count equal to its reference's, which is
    not fed after t_r."""
    t = eng.t_next - 1
    lay, field, m = eng._lay, eng.field, eng.m
    shift = m * field.k
    colmask = (1 << shift) - 1
    fed = {h for hists in lay.sink_hists.values() for h in hists}
    assert rows.builds == [int(h in fed) for h in range(len(eng._hists))]
    rows.builds = [0] * len(eng._hists)
    for h in fed:
        hist = eng._hists[h]
        assert rows[h] == sum((hist[c] & colmask) << (t - c) * shift for c in range(t + 1))
    for r, ref in refs.items():
        t_r = eng.t_r.get(r)
        if t_r is not None and t_r < t:
            assert ref.t_last == t_r  # decoded before this step
            continue
        ref.advance(t)
        assert ref.rows == [rows[h] for h in lay.sink_hists[r]]
        assert ref.rank_last == rank_gf_ref(field, build_M_ref(sink_blocks(eng, r)))
        if t_r is None:
            sink = eng._undecoded[r]
            assert sink.steps == t + 1
            # so its rank is M_{r,t}'s too
            assert sink.basis == ref.sink.basis and sink.tags == ref.sink.tags
        else:
            assert ref.fired[t]
    for r, t_r in eng.t_r.items():
        kept = eng._decoded[r]
        assert kept.steps == t_r + 1 == refs[r].sink.steps
        assert set(range(m)) <= set(kept.basis)
        assert kept.basis == refs[r].sink.basis and kept.tags == refs[r].sink.tags


def check_sharing(net, q, seed, extra=3, horizon=24, source_mode=SOURCE_RANDOM):
    """Step an engine and, at every step, compare its rows and each sink's
    rank state with words-fed references over the same words; then compare
    the decode check over per-history windows with every sink's own
    decode of its joint transposition, after the last step and again
    `extra` steps later."""
    eng = Engine(net, q, rng=np.random.default_rng(seed), source_mode=source_mode)
    rows = eng._sink_rows = CountingRows(eng._sink_rows)
    refs = {r: RankCache(eng.field, eng.m, sink_words(eng, r)) for r in eng.sink_order}
    while eng.done_t is None and eng.t_next <= horizon:
        eng.step(eng.t_next)
        check_rank_states(eng, refs, rows)
    if eng.done_t is None:
        return False
    for _ in range(2):
        decoded = decode_streams(eng)
        for r in eng.sink_order:
            dec = build_decoder_ref(eng, r)
            assert dec.blocks == len(sink_words(eng, r)[0]) == eng.t_next
            assert decoded[r] == sink_decode_ref(dec, dec.y_row, dec.blocks)
        for _ in range(extra):
            eng.step(eng.t_next)
            assert rows.builds == [0] * len(rows)  # no rank test after t_n
    return True


@pytest.mark.parametrize("q", [2, 4, 256])
@pytest.mark.parametrize("name", sorted(SHARING_NETS))
def test_shared_rows_and_transpositions_match_per_sink(name, q):
    net = SHARING_NETS[name]()
    decoded = [check_sharing(net, q, (89, q, i)) for i in range(3)]
    assert any(decoded)


@settings(max_examples=150, deadline=None)
@given(multigraphs(), st.sampled_from((2, 4, 256)), st.integers(0, 2**32 - 1))
@example(FED_TWICE, 2, 0)
def test_shared_rows_and_transpositions_match_per_sink_on_multigraphs(net, q, seed):
    check_sharing(net, q, seed)


RANK_NETS = {
    "combination(6,3)-q2": (lambda: gen_combination(6, 3), 2),
    "combination(6,3)-q4": (lambda: gen_combination(6, 3), 4),
    "umbrella(5,3)-q4": (lambda: gen_umbrella(5, 3), 4),
    "shuttle-q2": (gen_shuttle, 2),
    "rgg_cyclic(12,3,0.5)-q4": (lambda: gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(0)), 4),
}


@pytest.mark.parametrize("source_mode", [SOURCE_RANDOM, SOURCE_IDENTITY])
@pytest.mark.parametrize("name", sorted(RANK_NETS))
def test_sink_rank_matches_words_fed_reference(name, source_mode):
    # the engine's rows, one per history and step, and its sinks' rank
    # states against each sink's words-fed reference, in both source modes
    build, q = RANK_NETS[name]
    net = build()
    decoded = [check_sharing(net, q, (97, q, i), source_mode=source_mode) for i in range(3)]
    assert any(decoded)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 4, 8, 16, 256)), st.integers(1, 5), st.data())
def test_kernel_rows_is_the_or_of_spaced_histories(q, in_deg, data):
    # one history transposed alone (the step-by-step reference check's
    # residual rows), its lane c moved to lane c * in_deg + e, is its part
    # of the joint transposition (the per-sink oracle's rows); q = 8 has
    # k = 3, which does not divide a byte, and a history may appear twice
    field = GF.for_q(q)
    k = field.k
    length = data.draw(st.integers(1, 6))
    word_bits = data.draw(st.integers(1, 5)) * k
    hists = [
        data.draw(st.lists(st.integers(0, (1 << word_bits) - 1), min_size=length, max_size=length))
        for _ in range(in_deg)
    ]
    if in_deg > 1 and data.draw(st.booleans()):
        hists[-1] = hists[0]
    blocks = data.draw(st.integers(0, length))
    lanes = data.draw(st.integers(1, word_bits // k + 1))
    joint = kernel_rows(field, hists, blocks, lanes)
    parts = [kernel_rows(field, [hist], blocks, lanes) for hist in hists]
    mask = field.q - 1
    ored = [0] * lanes
    for e, part in enumerate(parts):
        spaced = [sum((row >> c * k & mask) << (c * in_deg + e) * k for c in range(blocks)) for row in part]
        ored = [row | p for row, p in zip(ored, spaced)]
    assert ored == joint


# -- step 0 shared by the points of a sink sweep ---------------------------------


def rgg_sweep(family, sinks, nodes=14, radius=0.45):
    return [TopologySpec(family, {"nodes": nodes, "sinks": s, "radius": radius}) for s in sinks]


def rank_states(eng):
    return {r: (s.basis, s.tags, s.steps) for r, s in [*eng._undecoded.items(), *eng._decoded.items()]}


def check_forked_sweep(specs, q, seed, trial, extra=2, horizon=24):
    """One trial of a sink sweep started as `run_trials` starts it (one
    scan, nested rates, one `Step0` per graph and rate), every engine
    stepped in turn, one step each, with a twin built alone on a fresh
    network from the same (seed, q, trial). At every step each engine's
    words, rows, t_r, ack log and rank states equal its twin's, and up to
    t_n they pass `check_rank_states`; the streams decode alike at the end.
    Returns how many engines started from another's step 0."""
    nets = build_sweep(specs, trial_rng(seed, q, trial, stream=1))
    rates = multicast_rates(nets)
    step0s, runs, forked = {}, [], 0

    def check(eng, twin, refs, rows):
        if eng.done_t is None or eng.done_t == eng.t_next - 1:
            check_rank_states(eng, refs, rows)
        assert eng.w == twin.w and eng._rows == twin._rows and eng.x == twin.x
        assert (eng.t_r, eng.ack_log, eng.done_t, eng.l_v) == (twin.t_r, twin.ack_log, twin.done_t, twin.l_v)
        assert rank_states(eng) == rank_states(twin)

    for spec, net, rate in zip(specs, nets, rates):
        twin = Engine(build_topology(spec, trial_rng(seed, q, trial, stream=1)), q,
                      rng=trial_rng(seed, q, trial, stream=0))
        assert twin.m == rate == multicast_rate(net)
        eng = Engine(net, q, rng=trial_rng(seed, q, trial, stream=0), m=rate)
        rows = eng._sink_rows = CountingRows(eng._sink_rows)
        refs = {r: RankCache(eng.field, eng.m, sink_words(eng, r)) for r in eng.sink_order}
        step0 = step0s.setdefault((id(net.graph_cache), rate), Step0())
        forked += step0.state is not None
        step0.start(eng)
        twin.step(0)
        check(eng, twin, refs, rows)
        runs.append((eng, twin, refs, rows))
    while any(eng.done_t is None or eng.t_next <= eng.done_t + extra for eng, *_ in runs):
        for eng, twin, refs, rows in runs:
            assert eng.t_next <= horizon, "run did not decode"
            eng.step(eng.t_next)
            twin.step(twin.t_next)
            check(eng, twin, refs, rows)
    for eng, twin, *_ in runs:
        assert decode_streams(eng) == decode_streams(twin)
    return forked


@pytest.mark.parametrize("q", [2, 4, 256])
@pytest.mark.parametrize("family", ["rgg_acyclic", "rgg_cyclic"])
def test_points_started_from_a_shared_step0_equal_points_run_alone(family, q):
    specs = rgg_sweep(family, (1, 2, 3, 4, 5))
    assert sum(check_forked_sweep(specs, q, 3, trial) for trial in range(8)) >= 8


@pytest.mark.parametrize("family, sinks, trial", [("rgg_acyclic", (1, 3, 5), 1), ("rgg_cyclic", (1, 4, 5), 0)])
def test_points_on_one_graph_at_different_rates_share_no_step0(family, sinks, trial):
    # every point of this trial takes the same candidate graph at its own rate
    specs = rgg_sweep(family, sinks)
    nets = build_sweep(specs, trial_rng(3, 4, trial, stream=1))
    assert len({id(net.graph_cache) for net in nets}) == 1
    assert len(set(multicast_rates(nets))) == len(specs)
    assert check_forked_sweep(specs, 4, 3, trial) == 0


@pytest.mark.parametrize("family", ["rgg_acyclic", "rgg_cyclic"])
def test_a_sweep_stopped_at_t0_equals_its_points_run_alone(family):
    specs = rgg_sweep(family, (1, 2, 3, 4, 5))
    for mode in ("arcnc", "both") if family == "rgg_acyclic" else ("arcnc",):
        swept = run_trials(specs, 4, 6, master_seed=3, t_max=0, mode=mode)
        alone = [row for spec in specs for row in run_trials(spec, 4, 6, master_seed=3, t_max=0, mode=mode)]
        assert [r.to_csv() for r in swept] == [r.to_csv() for r in alone]
        assert {r.success for r in swept} == {False, True}


def test_a_step0_refuses_another_graph_field_or_rng():
    specs = rgg_sweep("rgg_acyclic", (1, 2))
    nets = build_sweep(specs, trial_rng(3, 4, 0, stream=1))
    assert nets[0].graph_cache is nets[1].graph_cache
    m = multicast_rates(nets)[1]
    step0 = Step0()
    step0.start(Engine(nets[0], 4, rng=trial_rng(3, 4, 0, stream=0), m=m))
    other_graph = build_topology(specs[1], trial_rng(3, 4, 0, stream=1))
    for eng in (
        Engine(other_graph, 4, rng=trial_rng(3, 4, 0, stream=0), m=m),
        Engine(nets[1], 2, rng=trial_rng(3, 4, 0, stream=0), m=m),
        Engine(nets[1], 4, rng=trial_rng(3, 4, 1, stream=0), m=m),
    ):
        with pytest.raises(ValueError, match="step 0 was kept for another"):
            step0.start(eng)
    step0.start(Engine(nets[1], 4, rng=trial_rng(3, 4, 0, stream=0), m=m))


@pytest.mark.parametrize("family", ["rgg_acyclic", "rgg_cyclic"])
def test_sweep_rates_equal_multicast_rate_with_one_cut_per_graph_and_sink(family, monkeypatch):
    cuts = []

    def counting_min_cut(net, sink, cap=None):
        cuts.append((id(net.graph_cache), sink))
        return min_cut(net, sink, cap)

    min_cut = netgraph.min_cut
    specs = rgg_sweep(family, (3, 1, 5, 2, 4))  # rates are taken by ascending sink count
    for trial in range(6):
        nets = build_sweep(specs, trial_rng(5, 4, trial, stream=1))
        expect = [multicast_rate(net) for net in nets]
        monkeypatch.setattr(netgraph, "min_cut", counting_min_cut)
        assert multicast_rates(nets) == expect
        monkeypatch.undo()
        assert sorted(cuts) == sorted({(id(net.graph_cache), r) for net in nets for r in net.sinks})
        cuts.clear()
