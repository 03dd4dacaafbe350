"""Sink-side work done once per distinct history: the rows of the sinks'
rank tests, built once per history and step, and the decode check's
time-packed windows, built once per history and lag, each against the
per-sink computation it replaces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcnc.engine import SOURCE_IDENTITY, SOURCE_RANDOM, Engine, decode_streams
from arcnc.gf import GF
from arcnc.netgraph import Network
from arcnc.polymatrix import kernel_rows
from arcnc.topologies import gen_combination, gen_rgg, gen_shuttle, gen_umbrella
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
    rank to M_{r,t}'s from scratch; each decoded sink
    keeping exactly pivots 0..m-1, those of its reference at t_r."""
    t = eng.t_next - 1
    lay, field, m = eng._lay, eng.field, eng.m
    shift = m * field.k
    colmask = (1 << shift) - 1
    fed = {h for hists in lay.sink_hists.values() for h in hists}
    assert rows.builds == [int(h in fed) for h in range(lay.n_hists)]
    rows.builds = [0] * lay.n_hists
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
        assert kept.steps == t_r + 1
        assert list(kept.basis) == list(kept.tags) == list(range(m))
        assert kept.basis == {j: refs[r].sink.basis[j] for j in range(m)}
        assert kept.tags == {j: refs[r].sink.tags[j] for j in range(m)}


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
