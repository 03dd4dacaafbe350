"""Sequential decoding checked against the routines it replaced.

`sequential_decode_vec` keeps the NumPy vector form: one table gather and
XOR reduction per length-m product, and a walk over every coefficient block
of F_r(z). `oracles.sequential_decode_ref` is the scalar, entry-by-entry
form. The packed-row routine in `arcnc.polymatrix` must agree with both row
for row, on decoders taken from seeded engine runs, acyclic and cyclic,
with sinks of more in-edges than m and at q = 2, 4, 8 (bit-plane lanes),
256 (byte table, multi-byte rows) and 2^12 (wide bit planes). The
references read F_r(z) from `eng.f`, D unpacked from the decoder's rows and
the received rows from `eng.y` (`oracles.received_rows_ref`), not the
decoder's packed rows of F_r(z) or its packed received row, which must
equal those rows packed.
"""

import numpy as np
import pytest

from arcnc.engine import Engine
from arcnc.netgraph import Network
from arcnc.polymatrix import sequential_decode, unpack
from arcnc.topologies import gen_combination, gen_rgg, gen_shuttle, gen_umbrella
from oracles import pack_stream, received_rows_ref, sequential_decode_ref


def _vec_mat(field, vec, mat):
    """Row vector times matrix over GF(q)."""
    prods = field.mul_arrays(vec[:, None], mat)
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
    """m x in_deg coefficient blocks F_0, F_1, ... of sink r, from `eng.f`."""
    cols = [eng.f[e] for e in eng.net.in_edges[r]]
    return [[[col[c][j] for col in cols] for j in range(eng.m)] for c in range(len(cols[0]))]


def decoder_lists(eng, r):
    """(decoder, D as lists of m symbols, coefficient blocks from `eng.f`)."""
    dec = eng.build_decoder(r)
    return dec, [unpack(eng.field.k, row, eng.m) for row in dec.d_rows], sink_blocks(eng, r)


def decode_rows(dec, ys):
    """`sequential_decode` on the rows packed, its x_t unpacked into tuples."""
    out = sequential_decode(dec, pack_stream(dec.field, ys), len(ys))
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


def decoded_engine(name, seed, extra=12):
    """Engine run to decodability, then kept running so the stream is
    `extra` steps longer than the decoding window of the slowest sink."""
    build, q = NETS[name]
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
        for r in eng.sink_order:
            dec, d_matrix, blocks = decoder_lists(eng, r)
            ys = received_rows_ref(eng, r)
            # the transposition's received row is the packed y view, over the same blocks
            assert dec.y_row == pack_stream(eng.field, ys) and dec.blocks == len(ys)
            out = decode_rows(dec, ys)
            assert out == _ref(eng, d_matrix, blocks, dec.t_r, ys)
            assert out == eng.x[: len(out)]
            assert len(out) == len(ys) - dec.t_r


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
    early = {r: eng.build_decoder(r) for r in eng.sink_order}
    for _ in range(10):
        eng.step(eng.t_next)
    for r in eng.sink_order:
        ys = received_rows_ref(eng, r)
        with pytest.raises(ValueError, match="coefficient blocks"):
            sequential_decode(early[r], pack_stream(eng.field, ys), len(ys))
        dec = eng.build_decoder(r)
        assert dec.y_row == pack_stream(eng.field, ys)
        out = decode_rows(dec, ys)
        assert out == eng.x[: len(out)]


def test_rejects_short_long_or_overfull_streams():
    eng = decoded_engine("shuttle-q2", 0)
    r = eng.sink_order[0]
    dec = eng.build_decoder(r)
    n, block = dec.blocks, dec.in_deg * eng.field.k
    y = dec.y_row
    with pytest.raises(ValueError, match="at least"):
        sequential_decode(dec, y & (1 << dec.t_r * block) - 1, dec.t_r)
    with pytest.raises(ValueError, match="coefficient blocks"):
        sequential_decode(dec, y, n + 1)
    # a packed stream cannot be ragged; it can hold a symbol past its n steps
    head = y & (1 << (n - 1) * block) - 1
    out = sequential_decode(dec, head, n - 1)
    assert [tuple(unpack(eng.field.k, x, eng.m)) for x in out] == eng.x[: len(out)]
    with pytest.raises(ValueError, match="beyond"):
        sequential_decode(dec, head | 1 << (n - 1) * block, n - 1)
