"""Polynomial matrices, the decodability test, and the decoder solve."""

from itertools import combinations

import numpy as np
import pytest

from arcnc.gf import GF
from arcnc.polymatrix import (
    build_M,
    kernel_rows,
    pack,
)
from oracles import (
    PolyMatrix,
    RankCache,
    SinkDecoder,
    build_M_ref,
    decoder_rows,
    decodability_test_ref,
    det_nonzero_oracle,
    pack_stream,
    rand_array,
    rank_gf,
    sink_decode_ref,
    solve_decoder_ref,
    unpack,
    words_from_blocks,
)

F2 = GF.for_q(2)
F4 = GF.for_q(4)


# -- independent oracles ---------------------------------------------------------


def det_gf(field, mat) -> int:
    """Cofactor determinant of a constant matrix; oracle for rank tests."""
    mat = [list(map(int, row)) for row in mat]
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = 0
    for c in range(n):
        if mat[0][c] == 0:
            continue
        minor = [[row[j] for j in range(n) if j != c] for row in mat[1:]]
        acc ^= field.mul(mat[0][c], det_gf(field, minor))
    return acc


def rank_by_minors(field, mat) -> int:
    """Largest k with a nonsingular k x k submatrix; exponential oracle."""
    mat = np.asarray(mat)
    rows, cols = mat.shape
    for k in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                if det_gf(field, mat[np.ix_(rsel, csel)]) != 0:
                    return k
    return 0


def first_decoding_time(field, blocks, m, horizon):
    padded = list(blocks) + [np.zeros_like(blocks[0])] * (horizon + 1 - len(blocks))
    cache = RankCache(field, m, words_from_blocks(field, padded))
    for t in range(horizon + 1):
        if decodability_test_ref(cache, t):
            return t
    return None


def m_rows(field, blocks, steps):
    """`build_M` over `steps` blocks, from the rows of F_r(z) over all the blocks."""
    m, in_deg = len(blocks[0]), len(blocks[0][0])
    return build_M(field, kernel_rows(field, words_from_blocks(field, blocks), len(blocks), m), in_deg, steps)


def unpacked_M(field, blocks):
    """`build_M` on the words of the blocks, unpacked into lists."""
    width = len(blocks) * len(blocks[0][0])
    return [unpack(field.k, row, width) for row in m_rows(field, blocks, len(blocks))]


# -- PolyMatrix basics -------------------------------------------------------------


def test_polymatrix_trims_and_degree():
    pm = PolyMatrix(F2, 2, 2, [np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)])
    assert pm.degree == 0
    assert PolyMatrix.zeros(F2, 2, 3).degree == -1
    shuttle_r1 = PolyMatrix.from_entries(F2, [[[1], [1]], [[0], [0, 1]]])
    assert shuttle_r1.degree == 1
    assert shuttle_r1.entry(1, 1) == [0, 1]
    assert shuttle_r1.truncated(0).degree == 0


# -- rank ----------------------------------------------------------------------------


def test_rank_examples():
    assert rank_gf(F2, np.eye(2, dtype=np.int64)) == 2
    assert rank_gf(F2, [[1, 1], [1, 1]]) == 1


def test_rank_matches_minor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mat = rand_array(F4, rng, (4, 6))
        assert rank_gf(F4, mat) == rank_by_minors(F4, mat)


# -- decode matrix -----------------------------------------------------------------


def test_build_M_layout():
    f0 = np.array([[1, 0], [0, 1]], dtype=np.int64)
    f1 = np.array([[1, 1], [0, 0]], dtype=np.int64)
    assert np.array_equal(unpacked_M(F2, [f0]), f0)
    m1 = unpacked_M(F2, [f0, f1])
    assert np.array_equal(m1, np.block([[f0, f1], [np.zeros((2, 2), dtype=np.int64), f0]]))
    z = np.zeros((2, 2), dtype=np.int64)
    m2 = unpacked_M(F2, [np.eye(2, dtype=np.int64), z, z])
    assert rank_gf(F2, m2) == 6
    assert np.array_equal(build_M_ref([f0, f1]), m1)
    with pytest.raises(ValueError):
        build_M_ref([f0, np.zeros((2, 3), dtype=np.int64)])


def test_rank_cache_matches_from_scratch():
    rng = np.random.default_rng(21)
    for _ in range(20):
        blocks = [rand_array(F4, rng, (2, 3)) for _ in range(4)]
        cache = RankCache(F4, 2, words_from_blocks(F4, blocks))
        for t in range(4):
            cache.advance(t)
            assert cache.rank_last == rank_gf(F4, build_M_ref(blocks[: t + 1]))
            assert cache.deltas[t] <= 2


def test_rank_cache_rank_is_nondecreasing_with_bounded_steps():
    rng = np.random.default_rng(5)
    blocks = [rand_array(F2, rng, (3, 4)) for _ in range(5)]
    cache = RankCache(F2, 3, words_from_blocks(F2, blocks))
    last = 0
    for t in range(5):
        cache.advance(t)
        assert last <= cache.rank_last <= last + 3
        last = cache.rank_last


def test_decodability_examples():
    eye = np.eye(2, dtype=np.int64)
    cache = RankCache(F2, 2, words_from_blocks(F2, [eye]))
    assert decodability_test_ref(cache, 0)

    bad = np.array([[1, 1], [0, 0]], dtype=np.int64)
    cache = RankCache(F2, 2, words_from_blocks(F2, [bad]))
    assert not decodability_test_ref(cache, 0)

    # shuttle worked example, second sink: F(z) = [[0, z], [1, 1+z]]
    f0 = np.array([[0, 0], [1, 1]], dtype=np.int64)
    f1 = np.array([[0, 1], [0, 1]], dtype=np.int64)
    cache = RankCache(F2, 2, words_from_blocks(F2, [f0, f1]))
    assert not decodability_test_ref(cache, 0)
    assert decodability_test_ref(cache, 1)


def test_decodability_condition2_matters():
    # full coefficient rank (condition 1) arrives at t=1, but x_0 is only
    # recoverable at t=2: F(z) = [[z, z], [1, 1+z]] has det z^2
    f0 = np.array([[0, 0], [1, 1]], dtype=np.int64)
    f1 = np.array([[1, 1], [0, 1]], dtype=np.int64)
    zero = np.zeros((2, 2), dtype=np.int64)
    blocks = [f0, f1, zero]
    cache = RankCache(F2, 2, words_from_blocks(F2, blocks))
    assert rank_gf(F2, np.hstack(blocks[:2])) == 2  # condition 1 alone passes
    assert not decodability_test_ref(cache, 1)
    assert decodability_test_ref(cache, 2)


def fired_cache(field, blocks, m):
    """The rank cache of the blocks at their first decoding time, or None."""
    cache = RankCache(field, m, words_from_blocks(field, blocks))
    return cache if any(decodability_test_ref(cache, t) for t in range(len(blocks))) else None


def times(field, m_mat, d):
    """M D over GF(q) with the scalar multiply."""
    m_mat, d = np.asarray(m_mat), np.asarray(d)
    prod = np.zeros((m_mat.shape[0], d.shape[1]), dtype=np.int64)
    for i in range(m_mat.shape[0]):
        for j in range(d.shape[1]):
            acc = 0
            for k in range(m_mat.shape[1]):
                acc ^= field.mul(int(m_mat[i, k]), int(d[k, j]))
            prod[i, j] = acc
    return prod


def target(rows, m):
    out = np.zeros((rows, m), dtype=np.int64)
    out[:m] = np.eye(m, dtype=np.int64)
    return out


def test_solve_decoder_identity_and_multiply_back():
    eye = np.eye(3, dtype=np.int64)
    cache = fired_cache(F2, [eye], 3)
    d = decoder_rows(cache.sink, cache.in_deg)
    assert d == [pack(1, row) for row in eye]

    rng = np.random.default_rng(9)
    found = 0
    while found < 10:
        blocks = [rand_array(F4, rng, (2, 3)) for _ in range(2)]
        cache = fired_cache(F4, blocks, 2)
        if cache is None:
            continue
        found += 1
        t_r = cache.t_last
        m_mat = np.array(build_M_ref(blocks[: t_r + 1]))
        d_rows = decoder_rows(cache.sink, cache.in_deg)
        assert len(d_rows) == (t_r + 1) * 3 and all(row >> 2 * F4.k == 0 for row in d_rows)
        d = np.array([unpack(F4.k, row, 2) for row in d_rows])
        assert solve_decoder_ref(F4, m_mat, 2) is not None
        assert np.array_equal(times(F4, m_mat, d), target(m_mat.shape[0], 2))


def test_solve_decoder_inconsistent_raises():
    # an internal fault (the decodability test fired wrongly), not bad input:
    # block 0 lacks one pivot or both, or the cache never advanced
    bad = np.array([[1, 1], [0, 0]], dtype=np.int64)
    for blocks in ([np.zeros((2, 2), dtype=np.int64)], [bad], [bad, bad]):
        cache = RankCache(F2, 2, words_from_blocks(F2, blocks))
        cache.advance(len(blocks) - 1)
        with pytest.raises(AssertionError):
            decoder_rows(cache.sink, cache.in_deg)
    with pytest.raises(AssertionError):
        decoder_rows(RankCache(F2, 2, words_from_blocks(F2, [bad])).sink, 2)


def _decoder(field, t_r, d_matrix, f_blocks):
    """A SinkDecoder from D as lists and m x in_deg coefficient blocks; its
    received row is empty, the tests pass their own streams."""
    m, in_deg = len(f_blocks[0]), len(f_blocks[0][0])
    words = words_from_blocks(field, f_blocks)
    f_rows = kernel_rows(field, words, len(f_blocks), m)
    d_rows = [pack(field.k, row) for row in d_matrix]
    return SinkDecoder(field, m, in_deg, t_r, d_rows, f_rows, 0, len(f_blocks))


def test_sequential_decode_identity_passthrough():
    eye = np.eye(2, dtype=np.int64)
    zero = np.zeros((2, 2), dtype=np.int64)
    dec = _decoder(F2, 0, eye, [eye, zero, zero])
    assert dec.d_rows == [0b01, 0b10] and dec.f_rows == [0b01, 0b10]
    ys = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1])]
    out = sink_decode_ref(dec, pack_stream(F2, ys), 3)
    assert out == [0b01, 0b10, 0b11]
    assert [tuple(unpack(F2.k, x, 2)) for x in out] == [(1, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError):
        sink_decode_ref(_decoder(F2, 1, np.zeros((4, 2), dtype=np.int64), [eye]), pack_stream(F2, ys[:1]), 1)


def test_sequential_decode_shuttle_first_sink():
    # F(z) = [[1, 1], [0, z]]: delay-1 decoder recovers random streams exactly
    f0 = np.array([[1, 1], [0, 0]], dtype=np.int64)
    f1 = np.array([[0, 0], [0, 1]], dtype=np.int64)
    cache = fired_cache(F2, [f0, f1], 2)
    assert cache.t_last == 1
    d_rows = decoder_rows(cache.sink, cache.in_deg)
    d = [unpack(F2.k, row, 2) for row in d_rows]
    m_mat = build_M_ref([f0, f1])
    assert solve_decoder_ref(F2, m_mat, 2) is not None
    assert np.array_equal(times(F2, m_mat, d), target(4, 2))
    f_blocks = [f0, f1] + [np.zeros((2, 2), dtype=np.int64)] * 6
    dec = _decoder(F2, 1, d, f_blocks)
    assert dec.d_rows == d_rows
    # row j of F(z): lane c * in_deg + e holds F_c[j][e]
    assert dec.f_rows == [0b0011, 0b1000] and dec.blocks == 8
    rng = np.random.default_rng(17)
    for _ in range(100):
        xs = [tuple(rand_array(F2, rng, 2)) for _ in range(8)]
        ys = []
        for t in range(8):
            row = np.zeros(2, dtype=np.int64)
            for i, blk in enumerate((f0, f1)):
                if t - i >= 0:
                    x = np.array(xs[t - i], dtype=np.int64)
                    row ^= np.array(
                        [F2.mul(int(x[0]), int(blk[0, c])) ^ F2.mul(int(x[1]), int(blk[1, c])) for c in range(2)]
                    )
            ys.append(row)
        out = sink_decode_ref(dec, pack_stream(F2, ys), 8)
        assert [tuple(unpack(F2.k, x, 2)) for x in out] == xs[: len(out)]
        assert len(out) == 7  # exactly one step behind the received stream


# -- determinant oracle ---------------------------------------------------------------


def test_det_oracle_examples():
    assert det_nonzero_oracle(PolyMatrix.from_entries(F2, [[[1], [1]], [[0], [0, 1]]]))
    assert not det_nonzero_oracle(PolyMatrix.from_entries(F2, [[[1], [1]], [[1], [1]]]))
    with pytest.raises(ValueError):
        det_nonzero_oracle(PolyMatrix.zeros(F2, 2, 3))


def test_det_oracle_agrees_with_decodability_sequence():
    """Nonzero determinant iff the rank-step test fires at some finite t.

    The per-time-step statements differ: the determinant ignores when
    recovery becomes possible (see test_decodability_condition2_matters),
    but eventual decodability and det != 0 coincide. Horizon m * deg(F)
    suffices since the recovery delay is at most the determinant degree.
    """
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(1000):
        entries = [
            [[int(v) for v in rng.integers(0, 2, size=3)] for _ in range(3)] for _ in range(3)
        ]
        pm = PolyMatrix.from_entries(F2, entries)
        blocks = [pm.coeff(i) for i in range(3)]
        t_first = first_decoding_time(F2, blocks, 3, 3 * 3)
        assert det_nonzero_oracle(pm) == (t_first is not None)
        agree += 1
    assert agree == 1000
    # a sparser sample at the largest supported oracle size
    for _ in range(60):
        entries = [
            [[int(v) for v in rng.integers(0, 2, size=5)] for _ in range(4)] for _ in range(4)
        ]
        pm = PolyMatrix.from_entries(F2, entries)
        blocks = [pm.coeff(i) for i in range(5)]
        t_first = first_decoding_time(F2, blocks, 4, 4 * 4)
        assert det_nonzero_oracle(pm) == (t_first is not None)
