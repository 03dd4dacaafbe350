"""Sequential decoding checked against the routines it replaced.

`sequential_decode_vec` keeps the NumPy vector form: one table gather and
XOR reduction per length-m product, and a walk over every coefficient block
of F_r(z). `oracles.sequential_decode_ref` is the scalar, entry-by-entry
form. The per-sink packed-row decoder `oracles.sink_decode_ref` must agree
with both row for row, on decoders taken from seeded engine runs, acyclic
and cyclic, with sinks of more in-edges than m and at q = 2, 4, 8
(bit-plane lanes), 256 (byte table, multi-byte rows) and 2^12 (wide bit
planes). The references read F_r(z) from `oracles.f_of`, D unpacked from
the decoder's rows and the received rows from `oracles.y_of`
(`oracles.received_rows_ref`), not the decoder's packed rows of F_r(z) or
its packed received row, which must equal those rows packed.

`arcnc.polymatrix.sequential_decode`, the check that `engine.decode_streams`
runs, checks every step of a sink at once on time-packed windows, one per
history and lag, read through D's m columns. It must find the same first
bad step for every sink as the step-by-step residual check
(`oracles.sequential_decode_steps_ref`) and as the per-sink decoder, on
clean engines and on engines corrupted in a received symbol, in one lane of
a sink-feeding history's column f_h[s], in one entry of one sink's D or in
one source symbol x_t, at q = 2, 4, 8, 16, 256 and 2^12.
"""

import dataclasses

import numpy as np
import pytest

from arcnc import engine as engine_mod
from arcnc.engine import DecodeMismatch, Engine, decode_streams
from arcnc.netgraph import Network
from arcnc.polymatrix import kernel_rows, pack, sequential_decode, solve_decoder
from arcnc.topologies import gen_combination, gen_rgg, gen_shuttle, gen_umbrella
from oracles import (
    build_decoder_ref,
    f_of,
    first_bad_step_ref,
    mul_arrays,
    pack_stream,
    received_rows_ref,
    sequential_decode_ref,
    sequential_decode_steps_ref,
    sink_decode_ref,
    unpack,
)


def _vec_mat(field, vec, mat):
    """Row vector times matrix over GF(q)."""
    prods = mul_arrays(field, vec[:, None], mat)
    return np.bitwise_xor.reduce(prods, axis=0)


def sequential_decode_vec(field, d_matrix, f_blocks, t_r, y_stream):
    in_deg = len(f_blocks[0][0])
    window = t_r + 1
    if len(y_stream) < window:
        raise ValueError(f"need at least {window} received rows, got {len(y_stream)}")
    corrected = [np.array(y, dtype=np.int64) for y in y_stream]
    if any(row.shape != (in_deg,) for row in corrected):
        raise ValueError("received rows must have one symbol per incoming edge")
    d_matrix = np.array(d_matrix, dtype=np.int64)
    f_blocks = [np.array(blk, dtype=np.int64) for blk in f_blocks]
    out = []
    n_out = len(y_stream) - t_r
    for t in range(n_out):
        stacked = np.concatenate(corrected[t : t + window])
        x_t = _vec_mat(field, stacked, d_matrix)
        out.append(x_t)
        if x_t.any():
            for c, blk in enumerate(f_blocks):
                j = t + c
                if t < j < len(corrected):
                    corrected[j] ^= _vec_mat(field, x_t, blk)
    return out


def sink_blocks(eng, r):
    """m x in_deg coefficient blocks F_0, F_1, ... of sink r, from `f_of`."""
    f = f_of(eng)
    cols = [f[e] for e in eng.net.in_edges[r]]
    return [[[col[c][j] for col in cols] for j in range(eng.m)] for c in range(len(cols[0]))]


def decoder_lists(eng, r):
    """(decoder, D as lists of m symbols, coefficient blocks from `f_of`)."""
    dec = build_decoder_ref(eng, r)
    return dec, [unpack(eng.field.k, row, eng.m) for row in dec.d_rows], sink_blocks(eng, r)


def decode_rows(dec, ys):
    """`sink_decode_ref` on the rows packed, its x_t unpacked into tuples."""
    out = sink_decode_ref(dec, pack_stream(dec.field, ys), len(ys))
    return [tuple(unpack(dec.field.k, x, dec.m)) for x in out]


def _ref(eng, d_matrix, blocks, t_r, ys):
    vec = [tuple(int(v) for v in row) for row in sequential_decode_vec(eng.field, d_matrix, blocks, t_r, ys)]
    assert sequential_decode_ref(eng.field, d_matrix, blocks, t_r, ys) == vec
    return vec


def _shuttle_fallback():
    return Network.build(7, gen_shuttle().edges, 0, (1, 2), mask="all_zero")


def _rgg_cyclic():
    # m = 2 with sinks of in_deg 4, 3 and 3; at q = 4 F_r(z) keeps nonzero blocks
    return gen_rgg(12, 3, 0.5, cyclic=True, rng=np.random.default_rng(1))


NETS = {
    "combination(6,2)-q2": (lambda: gen_combination(6, 2), 2),
    "umbrella(5,3)-q4": (lambda: gen_umbrella(5, 3), 4),
    "shuttle-q2": (gen_shuttle, 2),
    "shuttle-fallback-mask-q4": (_shuttle_fallback, 4),
    "rgg-cyclic-q4": (_rgg_cyclic, 4),
    "combination(6,3)-q8": (lambda: gen_combination(6, 3), 8),
    "umbrella(5,3)-q256": (lambda: gen_umbrella(5, 3), 256),
    "rgg-cyclic-q4096": (_rgg_cyclic, 4096),
}
SEEDS = (0, 1, 2)


def decoded_engine(name, seed, extra=12, nets=NETS):
    """Engine run to decodability, then kept running so the stream is
    `extra` steps longer than the decoding window of the slowest sink."""
    build, q = nets[name]
    eng = Engine(build(), q, rng=np.random.default_rng((31, seed)))
    while eng.done_t is None:
        eng.step(eng.t_next)
        assert eng.t_next < 64, "run did not decode"
    while len(eng.x) < eng.done_t + max(eng.t_r.values()) + extra:
        eng.step(eng.t_next)
    return eng


def encode(field, blocks, xs):
    """Received rows y_t = sum_i x_{t-i} F_i, computed entry by entry."""
    mul = field.mul
    in_deg = len(blocks[0][0])
    ys = []
    for t in range(len(xs)):
        row = [0] * in_deg
        for i in range(t + 1):
            for j, x in enumerate(xs[t - i]):
                for e in range(in_deg):
                    row[e] ^= mul(x, blocks[i][j][e])
        ys.append(row)
    return ys


@pytest.mark.parametrize("name", sorted(NETS))
def test_matches_reference_on_engine_streams(name):
    for seed in SEEDS:
        eng = decoded_engine(name, seed)
        decoded = decode_streams(eng)
        for r in eng.sink_order:
            dec, d_matrix, blocks = decoder_lists(eng, r)
            ys = received_rows_ref(eng, r)
            # the transposition's received row is the packed y view, over the same blocks
            assert dec.y_row == pack_stream(eng.field, ys) and dec.blocks == len(ys)
            out = decode_rows(dec, ys)
            assert out == _ref(eng, d_matrix, blocks, dec.t_r, ys)
            assert out == eng.x[: len(out)]
            assert len(out) == len(ys) - dec.t_r
            assert decoded[r] == [pack(eng.field.k, x) for x in out]


@pytest.mark.parametrize("name", sorted(NETS))
def test_matches_reference_with_zero_symbols_and_long_streams(name):
    for seed in SEEDS:
        eng = decoded_engine(name, seed)
        rng = np.random.default_rng((32, seed))
        degree = max(eng.l_v.values())
        for r in eng.sink_order:
            dec, d_matrix, blocks = decoder_lists(eng, r)
            n = dec.blocks
            assert n == len(blocks) > degree + dec.t_r + 1  # zero blocks of an acyclic F_r(z) get walked
            xs = [tuple(int(v) for v in rng.integers(0, eng.q, size=eng.m)) for _ in range(n)]
            xs[1] = xs[n // 2] = (0,) * eng.m
            ys = encode(eng.field, blocks, xs)
            out = decode_rows(dec, ys)
            assert out == _ref(eng, d_matrix, blocks, dec.t_r, ys) == xs[: n - dec.t_r]
            # any received rows, codeword or not, go through the same arithmetic
            noise = rng.integers(0, eng.q, size=(n, dec.in_deg)).tolist()
            assert decode_rows(dec, noise) == _ref(eng, d_matrix, blocks, dec.t_r, noise)


@pytest.mark.parametrize("name", sorted(NETS))
def test_corrupted_symbol_changes_the_decoded_stream(name):
    for seed in SEEDS:
        eng = decoded_engine(name, seed)
        for r in eng.sink_order:
            dec, d_matrix, blocks = decoder_lists(eng, r)
            ys = received_rows_ref(eng, r)
            clean = decode_rows(dec, ys)
            # an edge the decoder reads; x_0..x_{t_r} all see y_{t_r} on it
            used = np.array(d_matrix).reshape(dec.t_r + 1, dec.in_deg, dec.m).any(axis=(0, 2))
            e = int(np.flatnonzero(used)[0])
            for j in (dec.t_r, len(ys) - 1 - dec.t_r):
                bad = [row.copy() for row in ys]
                bad[j][e] ^= 1
                out = decode_rows(dec, bad)
                assert out != clean
                assert out == _ref(eng, d_matrix, blocks, dec.t_r, bad)


@pytest.mark.parametrize("name", sorted(NETS))
def test_decoder_rejects_a_stream_longer_than_its_blocks(name):
    # F_r(z) of a cyclic net is rational, so blocks missing from an early
    # snapshot are not zero; a rebuilt decoder covers the whole stream
    eng = decoded_engine(name, 0, extra=0)
    early = {r: build_decoder_ref(eng, r) for r in eng.sink_order}
    for _ in range(10):
        eng.step(eng.t_next)
    decoded = decode_streams(eng)  # transposes each history over the whole stream
    for r in eng.sink_order:
        ys = received_rows_ref(eng, r)
        with pytest.raises(ValueError, match="coefficient blocks"):
            sink_decode_ref(early[r], pack_stream(eng.field, ys), len(ys))
        dec = build_decoder_ref(eng, r)
        assert dec.y_row == pack_stream(eng.field, ys)
        out = decode_rows(dec, ys)
        assert out == eng.x[: len(out)]
        assert decoded[r] == [pack(eng.field.k, x) for x in out]


def test_rejects_short_long_or_overfull_streams():
    eng = decoded_engine("shuttle-q2", 0)
    r = eng.sink_order[0]
    dec = build_decoder_ref(eng, r)
    n, block = dec.blocks, dec.in_deg * eng.field.k
    y = dec.y_row
    with pytest.raises(ValueError, match="at least"):
        sink_decode_ref(dec, y & (1 << dec.t_r * block) - 1, dec.t_r)
    with pytest.raises(ValueError, match="coefficient blocks"):
        sink_decode_ref(dec, y, n + 1)
    # a packed stream cannot be ragged; it can hold a symbol past its n steps
    head = y & (1 << (n - 1) * block) - 1
    out = sink_decode_ref(dec, head, n - 1)
    assert [tuple(unpack(eng.field.k, x, eng.m)) for x in out] == eng.x[: len(out)]
    with pytest.raises(ValueError, match="beyond"):
        sink_decode_ref(dec, head | 1 << (n - 1) * block, n - 1)


def _sinks(eng):
    """(t_r, in-edge histories, D's columns) of every sink, in sink order."""
    return [(eng.t_r[r], hists, solve_decoder(eng._decoded[r])) for r, hists in eng._lay.sink_hists.items()]


def test_check_rejects_short_streams_and_short_histories():
    eng = decoded_engine("shuttle-q2", 0)
    x = [pack(eng.field.k, v) for v in eng.x]
    sinks = _sinks(eng)
    assert sequential_decode(eng.field, eng.m, eng._hists, x, sinks) == [None] * len(sinks)
    t_r = max(t for t, _, _ in sinks)
    with pytest.raises(ValueError, match="at least"):
        sequential_decode(eng.field, eng.m, eng._hists, x[:t_r], sinks)
    # more source steps than the histories hold
    with pytest.raises(ValueError, match="holds"):
        sequential_decode(eng.field, eng.m, eng._hists, x + [0], sinks)
    fresh = Engine(gen_shuttle(), 2, rng=np.random.default_rng(0))
    fresh.step(0)  # the shuttle's sinks need a delay, so none decodes at t=0
    with pytest.raises(ValueError, match="never decoded"):
        decode_streams(fresh)


DIFF_NETS = {
    "combination(6,3)-q2": (lambda: gen_combination(6, 3), 2),
    "combination(6,3)-q256": (lambda: gen_combination(6, 3), 256),
    "umbrella(5,3)-q4": (lambda: gen_umbrella(5, 3), 4),
    "umbrella(5,3)-q16": (lambda: gen_umbrella(5, 3), 16),
    "shuttle-q2": (gen_shuttle, 2),
    "shuttle-q4": (gen_shuttle, 4),
    "shuttle-q8": (gen_shuttle, 8),
    "rgg-cyclic-q4": (_rgg_cyclic, 4),
    "rgg-cyclic-q4096": (_rgg_cyclic, 4096),
}


def _corrupt(eng, kind, sinks, rng):
    """Corrupt an engine's histories or source stream in place, or one
    sink's D in `sinks`: flip bits of one symbol y_h[s] or one lane of one
    column f_h[s] of a sink-feeding history, of one entry of one sink's D,
    or of one x_t."""
    k, m, q = eng.field.k, eng.m, eng.q
    flip = int(rng.integers(1, q))
    if kind in ("symbol", "column"):
        fed = sorted({h for _, hists, _ in sinks for h in hists})
        hist = eng._hists[fed[rng.integers(len(fed))]]
        j = m if kind == "symbol" else int(rng.integers(m))
        hist[rng.integers(len(hist))] ^= flip << j * k
    elif kind == "D":
        t_r, hists, d_cols = sinks[rng.integers(len(sinks))]
        a = int(rng.integers((t_r + 1) * len(hists)))  # D's row a: lane a of every column
        d_cols[rng.integers(m)] ^= flip << a * k
    else:
        t = int(rng.integers(len(eng.x)))
        x_t = list(eng.x[t])
        x_t[rng.integers(m)] ^= flip
        eng.x[t] = tuple(x_t)


@pytest.mark.parametrize("kind", ["symbol", "column", "D", "x"])
@pytest.mark.parametrize("name", sorted(DIFF_NETS))
def test_per_history_check_matches_per_sink_decode(name, kind, monkeypatch):
    failed = 0
    for seed in range(6):
        eng = decoded_engine(name, seed, extra=6, nets=DIFF_NETS)
        rng = np.random.default_rng((33, seed))
        sinks = _sinks(eng)
        x = [pack(eng.field.k, v) for v in eng.x]
        assert sequential_decode(eng.field, eng.m, eng._hists, x, sinks) == [None] * len(sinks)
        _corrupt(eng, kind, sinks, rng)
        x = [pack(eng.field.k, v) for v in eng.x]
        bad = sequential_decode(eng.field, eng.m, eng._hists, x, sinks)
        assert bad == sequential_decode_steps_ref(eng.field, eng.m, eng._hists, x, sinks)
        ref = []
        for r, (t_r, hists, d_cols) in zip(eng.sink_order, sinks):
            d_rows = kernel_rows(eng.field, [d_cols], eng.m, (t_r + 1) * len(hists))
            ref.append(first_bad_step_ref(dataclasses.replace(build_decoder_ref(eng, r), d_rows=d_rows), x))
        assert bad == ref
        # decode_streams reads the same D and names the first failing sink
        d_of = {id(eng._decoded[r]): d_cols for r, (_, _, d_cols) in zip(eng.sink_order, sinks)}
        failing = [r for r, t in zip(eng.sink_order, bad) if t is not None]
        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "solve_decoder", lambda sink: d_of[id(sink)])
            if failing:
                failed += 1
                with pytest.raises(DecodeMismatch, match=f"at sink {failing[0]} disagreed"):
                    decode_streams(eng)
            else:
                decode_streams(eng)
    assert failed  # the corruption reached some sink's decode
