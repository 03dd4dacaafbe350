"""Sink-side work done once per distinct history: the rank caches' shared
row cells and the decode check's per-history residual streams, each against
the per-sink computation it replaces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcnc.engine import Engine, decode_streams
from arcnc.gf import GF
from arcnc.netgraph import Network
from arcnc.polymatrix import RankCache, kernel_rows
from arcnc.topologies import gen_combination, gen_rgg, gen_shuttle, gen_umbrella
from oracles import build_decoder_ref, sink_decode_ref
from test_netgraph import multigraphs

# relay 1 feeds sink 3 twice with one history and sink 4 once; relay 2
# feeds both sinks, so every history feeds more than one sink cache
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


def check_sharing(net, q, seed, extra=3, horizon=24):
    """Step an engine and, at every step, compare each sink's rank cache with
    a standalone cache over the same words; then compare the decode check
    over per-history residuals with every sink's own decode of its joint
    transposition, after the last step and again `extra` steps later."""
    eng = Engine(net, q, rng=np.random.default_rng(seed))
    lay = eng._lay
    # one row cell per history that feeds a sink, whichever sinks it feeds
    cells = {id(cell): h for r, cache in eng._sink_cache.items() for h, cell in zip(lay.sink_hists[r], cache._rows)}
    assert sorted(cells.values()) == sorted({h for hists in lay.sink_hists.values() for h in hists})
    refs = {r: RankCache(eng.field, eng.m, sink_words(eng, r)) for r in eng.sink_order}
    while eng.done_t is None and eng.t_next <= horizon:
        t = eng.t_next
        eng.step(t)
        for r, ref in refs.items():
            if ref.t_last >= eng.t_r.get(r, t):
                continue  # decoded before this step
            ref.advance(t)
            cache = eng._sink_cache.get(r) or eng._decoder_cache[r]
            assert cache.t_last == ref.t_last == t
            assert cache.deltas == ref.deltas
            if r in eng.t_r:  # kept: the block-0 pivots only
                assert cache._basis == {j: ref._basis[j] for j in range(eng.m)}
            else:
                assert cache._basis == ref._basis
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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 4, 8, 16, 256)), st.integers(1, 5), st.data())
def test_kernel_rows_is_the_or_of_spaced_histories(q, in_deg, data):
    # one history transposed alone (the decode check's residual rows), its
    # lane c moved to lane c * in_deg + e, is its part of the joint
    # transposition (the per-sink oracle's rows); q = 8 has k = 3, which
    # does not divide a byte, and a history may appear twice
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


def test_cache_behind_its_shared_cell_raises():
    # caches that share a row cell advance in step, as the engine's do; one
    # left behind would read a later row, so it raises instead
    field = GF.for_q(4)
    hist = [1, 2, 3, 1, 2]
    cell = [-1, 0]
    ahead, behind = (RankCache(field, 1, [hist], [cell]) for _ in range(2))
    ahead.advance(2)
    with pytest.raises(ValueError, match="shares a row cell"):
        behind.advance(0)
    behind_private = RankCache(field, 1, [hist])
    behind_private.advance(2)
    assert behind_private.deltas == ahead.deltas
