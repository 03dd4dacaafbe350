"""The engine's decodability test checked network by network against ranks
computed from scratch.

On random small networks (multi-edges, directed cycles, sinks with more
in-edges than the multicast rate m), every step of an engine is replayed:
for each sink still undecoded before the step, the sink's coefficient blocks
F_0..F_t are rebuilt from `oracles.f_of`, and the sink must decode at t exactly when
rank(M_t) - rank(M_{t-1}) = m by `rank_gf_ref`. Whenever it decodes,
rank(F_0 | ... | F_t) = m must hold too: the engine does not test that
column-rank condition apart, because the rank step implies it. A sink that
decodes must also get a decoder D with M_t D = [I_m; 0], checked with
`oracles.mul_arrays` on the list-built M, where the column-copy
`solve_decoder_ref` must find a solution too; the engine reads D from the
rank cache the sink decoded on. The decoder's packed rows of F_r(z)
(`oracles.build_decoder_ref`) must hold those columns. After
the steps, `oracles.check_words` checks the symbol identity and the
propagation against the reference convolution at every step run, source
edges included, in both source modes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc.engine import SOURCE_IDENTITY, SOURCE_RANDOM, Engine
from arcnc.netgraph import Network, has_cycle, multicast_rate
from arcnc.topologies import gen_shuttle
from oracles import build_M_ref, build_decoder_ref, check_words, f_of, mul_arrays, rank_gf_ref, solve_decoder_ref, unpack

STEPS = 6


def sink_blocks(eng, r, t):
    """m x in_deg coefficient blocks F_0..F_t of sink r, from edge kernels."""
    f = f_of(eng)
    cols = [f[e] for e in eng.net.in_edges[r]]
    return [[[col[i][j] for col in cols] for j in range(eng.m)] for i in range(t + 1)]


def check_decoder(eng, r, blocks):
    """M_t D = [I_m; 0] for the decoder the engine builds for sink r, the
    reference solver finds a D too, and the rows of F_r(z) hold the sink's
    columns."""
    field, m = eng.field, eng.m
    dec = build_decoder_ref(eng, r)
    d = [unpack(field.k, row, m) for row in dec.d_rows]
    assert len(d) == len(blocks) * dec.in_deg and all(row >> m * field.k == 0 for row in dec.d_rows)
    assert solve_decoder_ref(field, build_M_ref(blocks), m) is not None
    assert dec.blocks == len(blocks)  # built right after the step: F_0..F_t
    assert [unpack(field.k, row, dec.blocks * dec.in_deg) for row in dec.f_rows] == [
        [v for blk in blocks for v in blk[j]] for j in range(m)
    ]
    m_mat = np.array(build_M_ref(blocks), dtype=np.int64)
    d_mat = np.array(d, dtype=np.int64)
    prod = np.bitwise_xor.reduce(mul_arrays(field, m_mat[:, :, None], d_mat[None, :, :]), axis=1)
    target = np.zeros((len(m_mat), m), dtype=np.int64)
    target[:m] = np.eye(m, dtype=np.int64)
    assert np.array_equal(prod, target)


def check_against_reference(net, q, seed, source_mode=SOURCE_RANDOM):
    """Step an engine and check every decodability decision; returns the
    number of (sink, step) decisions that fired and that did not."""
    eng = Engine(net, q, rng=np.random.default_rng(seed), source_mode=source_mode)
    field, m = eng.field, eng.m
    fired = held = 0
    for t in range(STEPS):
        if eng.done_t is not None:
            break
        pending = [r for r in eng.sink_order if r not in eng.t_r]
        newly = eng.step(t)
        for r in pending:
            blocks = sink_blocks(eng, r, t)
            rank_t = rank_gf_ref(field, build_M_ref(blocks))
            rank_prev = rank_gf_ref(field, build_M_ref(blocks[:t])) if t else 0
            assert (r in newly) == (rank_t - rank_prev == m), (r, t)
            if r in newly:
                assert rank_gf_ref(field, np.hstack([np.array(b) for b in blocks])) == m
                check_decoder(eng, r, blocks)
                fired += 1
            else:
                held += 1
    check_words(eng)
    return fired, held


@st.composite
def networks(draw):
    """Source 0 with no in-edges; edges may repeat and close cycles; sinks
    are drawn among the nodes the source reaches."""
    n = draw(st.integers(3, 6))
    edges = [(0, 1)]
    for _ in range(draw(st.integers(2, 10))):
        t = draw(st.integers(0, n - 1))
        h = draw(st.integers(1, n - 1))
        if t != h:
            edges.append((t, h))
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))  # a multi-edge
    net = Network(n, edges, 0, (1,))
    reach = sorted(net.reachable_from_source() - {0})
    sinks = draw(st.lists(st.sampled_from(reach), min_size=1, max_size=3, unique=True))
    return Network.build(n, edges, 0, sinks)


@settings(max_examples=150, deadline=None)
@given(
    networks(),
    st.sampled_from((2, 4)),
    st.integers(0, 2**32 - 1),
    st.sampled_from((SOURCE_RANDOM, SOURCE_IDENTITY)),
)
def test_decodability_matches_reference_ranks(net, q, seed, source_mode):
    check_against_reference(net, q, seed, source_mode)


def test_decodability_matches_reference_on_pinned_networks():
    wide = Network.build(  # m = 2, sink 4 has in_deg 3, a multi-edge 0->2
        6, [(0, 1), (0, 2), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (3, 5), (2, 5)], 0, (4, 5)
    )
    cyclic = Network.build(  # m = 2 around the cycle 1 -> 2 -> 3 -> 1, sink 4 has in_deg 3
        5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)], 0, (4,)
    )
    assert has_cycle(cyclic) and has_cycle(gen_shuttle())
    for net in (wide, cyclic):
        assert len(net.in_edges[4]) > multicast_rate(net)
    totals = [0, 0]
    for net in (wide, cyclic, gen_shuttle()):
        for q in (2, 4):
            for seed in range(25):
                for mode in (SOURCE_RANDOM, SOURCE_IDENTITY):
                    fired, held = check_against_reference(net, q, seed, mode)
                    totals[0] += fired
                    totals[1] += held
    assert totals[0] > 0 and totals[1] > 0  # both outcomes are exercised
