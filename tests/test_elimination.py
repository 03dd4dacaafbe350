"""The row-reduction kernel checked against the eliminations it replaced.

`rank_gf_ref` and `solve_linear_ref` in `oracles.py` pivot column by column
on whole arrays; `arcnc.polymatrix` reduces one row at a time, packed into
a single Python int with column j in lane j, against a basis keyed by pivot
column. On random blocks over GF(2), GF(4) and GF(256), with narrow, square
and wide blocks, all-zero blocks and repeated blocks and rows, both must
give the same rank at every step and the same linear solve, for words
packed from NumPy and from tuple blocks, also when a packed row outgrows
64 bits. `reduce_row_ref` is the list-of-ints kernel the packed one
replaced: both must pick the same pivot for every row and store the same
rows. The packed decode matrix, its first block-row (the packed rows of
F_r(z)) and the lane-masked decoder solve must equal `build_M_ref`, the
blocks themselves and the column-copy `solve_decoder_ref`, which must never
need its all-streams fallback; the decode matrix is cut from F rows
transposed over every block, and the transposition's extra row is the
symbol stream.
"""

from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc.gf import GF
from arcnc.polymatrix import (
    RankCache,
    build_M,
    decodability_test,
    kernel_rows,
    pack,
    rank_gf,
    reduce_row,
    solve_decoder,
    solve_linear,
    unpack,
)
from oracles import (
    build_M_ref,
    packed_system,
    rank_gf_ref,
    reduce_row_ref,
    solve_decoder_ref,
    solve_linear_ref,
    words_from_blocks,
)

FIELDS = (2, 4, 256)


def _entries(q):
    # zeros and ones often, so that rank deficiency shows up even at q=256
    return st.one_of(st.just(0), st.just(1), st.integers(0, q - 1))


def _matrix(draw, q, rows, cols):
    return [[draw(_entries(q)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def block_sequences(draw):
    q = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))  # n < m, n = m and n > m all occur
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "repeat_row"]))
        if kind == "zero":
            blk = [[0] * n for _ in range(m)]
        elif kind == "repeat" and blocks:
            blk = [list(row) for row in draw(st.sampled_from(blocks))]
        else:
            blk = _matrix(draw, q, m, n)
            if kind == "repeat_row" and m > 1:
                blk[-1] = list(blk[0])
        blocks.append(blk)
    return q, m, n, blocks


def _forms(blocks):
    """The same blocks as NumPy arrays and as tuples of int tuples."""
    return (
        [np.array(blk, dtype=np.int64) for blk in blocks],
        [tuple(tuple(row) for row in blk) for blk in blocks],
    )


def _with_symbols(draw, field, m, words):
    """The words with a random symbol lane above lane m - 1, as the engine's."""
    return [[word | draw(_entries(field.q)) << (m * field.k) for word in hist] for hist in words]


@settings(max_examples=300, deadline=None)
@given(block_sequences())
def test_rank_cache_matches_reference_at_every_step(case):
    q, m, n, blocks = case
    field = GF.for_q(q)
    runs = []
    for form in _forms(blocks):
        cache = RankCache(field, m, words_from_blocks(field, form))
        trace = []
        for t in range(len(blocks)):
            cache.advance(t)
            m_mat = build_M_ref(form[: t + 1])
            assert cache.rank_last == rank_gf_ref(field, m_mat) == rank_gf(field, m_mat)
            trace.append(cache.rank_last)
        runs.append((trace, list(cache.deltas)))
    assert runs[0] == runs[1]


@settings(max_examples=200, deadline=None)
@given(block_sequences(), st.data())
def test_decodability_test_is_input_form_independent(case, data):
    # words packed from either block form, with or without a symbol lane,
    # give the same decisions
    q, m, n, blocks = case
    field = GF.for_q(q)
    fired = []
    for form in _forms(blocks):
        words = words_from_blocks(field, form)
        for feed in (words, _with_symbols(data.draw, field, m, words)):
            cache = RankCache(field, m, feed)
            fired.append([decodability_test(cache, t) for t in range(len(blocks))])
    assert fired.count(fired[0]) == len(fired)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.data())
def test_solve_linear_matches_reference(q, rows, n_a, n_b, data):
    field = GF.for_q(q)
    a = _matrix(data.draw, q, rows, n_a)
    if data.draw(st.booleans()):
        # consistent by construction: B = A X
        x_true = _matrix(data.draw, q, n_a, n_b)
        b = [
            [
                reduce(xor, (field.mul(a[i][k], x_true[k][j]) for k in range(n_a)))
                for j in range(n_b)
            ]
            for i in range(rows)
        ]
    else:
        b = _matrix(data.draw, q, rows, n_b)
    if rows > 1 and data.draw(st.booleans()):
        a[-1] = list(a[0])  # a repeated equation, consistent or not
    ref = solve_linear_ref(field, a, b)
    for a_in, b_in in (
        (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)),
        (tuple(map(tuple, a)), tuple(map(tuple, b))),
    ):
        x = solve_linear(field, packed_system(field, a_in, b_in), n_a, n_b)
        if ref is None:
            assert x is None
        else:
            assert x is not None and len(x) == n_a
            assert all(row >> (n_b * field.k) == 0 for row in x)
            assert np.array_equal(np.array([unpack(field.k, row, n_b) for row in x]), ref)
    assert rank_gf(field, a) == rank_gf_ref(field, a) == rank_gf(field, np.array(a))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 10), st.data())
def test_packed_kernel_matches_list_kernel(q, n_rows, data):
    field = GF.for_q(q)
    basis, basis_ref = {}, {}
    width = 0
    for _ in range(n_rows):
        # rows never get shorter, as the rank cache feeds them
        width += data.draw(st.integers(0, 4))
        row = [data.draw(_entries(q)) for _ in range(width)]
        if basis_ref and data.draw(st.booleans()):
            # a combination of stored rows, so some rows fall in the span
            row = [0] * width
            for stored in basis_ref.values():
                c = data.draw(_entries(q))
                row[: len(stored)] = [a ^ field.mul(c, b) for a, b in zip(row, stored)]
        pivot = reduce_row(field, basis, pack(field.k, row))
        assert pivot == reduce_row_ref(field, basis_ref, row)
        assert basis.keys() == basis_ref.keys()
        for p, stored in basis_ref.items():
            assert basis[p] >> (len(stored) * field.k) == 0
            assert unpack(field.k, basis[p], len(stored)) == stored


def test_numpy_rows_wider_than_64_bits():
    # 12 columns of GF(256) pack into 96 bits: a NumPy int64 shifted that far wraps
    field = GF.for_q(256)
    rng = np.random.default_rng(8)
    mat = rng.integers(0, 256, size=(5, 12), dtype=np.int64)
    mat[4] = mat[0]
    mat[4, 11] ^= 1  # row 4 leaves the span of row 0 only in bits 88..95
    as_ints = mat.tolist()
    assert pack(8, mat[0]) == pack(8, as_ints[0]) == sum(a << (8 * j) for j, a in enumerate(as_ints[0]))
    assert rank_gf(field, mat) == rank_gf(field, as_ints) == rank_gf_ref(field, mat) == 5
    b = rng.integers(0, 256, size=(5, 2), dtype=np.int64)
    x = solve_linear(field, packed_system(field, mat, b), 12, 2)
    assert np.array_equal(np.array([unpack(8, row, 2) for row in x]), solve_linear_ref(field, mat, b))
    blocks = [mat[:, :6], mat[:, 6:]]
    for form in (blocks, [blk.tolist() for blk in blocks]):
        cache = RankCache(field, 5, words_from_blocks(field, form))
        cache.advance(1)
        assert cache.deltas[0] == rank_gf_ref(field, form[0])
        assert cache.rank_last == rank_gf_ref(field, build_M_ref(form))


@settings(max_examples=300, deadline=None)
@given(block_sequences(), st.data())
def test_transposed_cache_steps_match_reference_ranks(case, data):
    # per-step rank deltas of the cache, fed packed edge words (column in
    # lanes 0..m-1, a symbol lane above it that must be ignored), equal
    # rank(M_t) - rank(M_{t-1}) of the whole matrices; n > m occurs
    q, m, n, blocks = case
    field = GF.for_q(q)
    words = _with_symbols(data.draw, field, m, words_from_blocks(field, blocks))
    ranks = [0] + [rank_gf_ref(field, build_M_ref(blocks[: t + 1])) for t in range(len(blocks))]
    expect = [b - a for a, b in zip(ranks, ranks[1:])]
    cache = RankCache(field, m, words)
    fired = [decodability_test(cache, t) for t in range(len(blocks))]
    assert cache.deltas == expect
    assert fired == [delta == m for delta in expect]


@settings(max_examples=300, deadline=None)
@given(block_sequences(), st.data())
def test_packed_decode_matrix_matches_list_builder(case, data):
    # the symbol lane above lane m - 1 must not leak into M
    q, m, n, blocks = case
    field = GF.for_q(q)
    k = field.k
    words = _with_symbols(data.draw, field, m, words_from_blocks(field, blocks))
    full = kernel_rows(field, words, len(blocks), m)
    for steps in range(1, len(blocks) + 1):
        rows = build_M(field, full, n, steps)
        ref = build_M_ref(blocks[:steps])
        assert [unpack(k, row, steps * n) for row in rows] == ref
        assert all(row >> (steps * n * k) == 0 for row in rows)
        # the rows of F_r(z) are M's first block-row, lane c * n + e holding F_c[j][e]
        f_rows = kernel_rows(field, words, steps, m)
        assert f_rows == rows[:m]
        assert [unpack(k, row, steps * n) for row in f_rows] == ref[:m] == [
            [int(v) for blk in blocks[:steps] for v in blk[j]] for j in range(m)
        ]
        # one more lane: the same rows and the symbol stream, y_e[c] in lane c * n + e
        symbols = [words[e][c] >> m * k for c in range(steps) for e in range(n)]
        assert kernel_rows(field, words, steps, m + 1) == f_rows + [pack(k, symbols)]


@settings(max_examples=300, deadline=None)
@given(block_sequences(), st.data())
def test_masked_decoder_solve_matches_column_copy(case, data):
    # at every step, decodable or not: the same D, or an inconsistent system
    # for both; in_deg >= m. When in_deg > m and the all-streams system is
    # consistent, some m-subset already is, so the reference's all-streams
    # fallback never decides the result.
    q, m, n, blocks = case
    n = max(n, m)
    field = GF.for_q(q)
    blocks = [[list(row) + [data.draw(_entries(q)) for _ in range(n - len(row))] for row in blk] for blk in blocks]
    f_rows = kernel_rows(field, words_from_blocks(field, blocks), len(blocks), m)
    for steps in range(1, len(blocks) + 1):
        m_mat = build_M_ref(blocks[:steps])
        ref = solve_decoder_ref(field, m_mat, m, n)
        if n > m:
            assert solve_decoder_ref(field, m_mat, m, n, fallback=False) == ref
        m_rows = build_M(field, f_rows, n, steps)
        if ref is None:
            with pytest.raises(AssertionError):
                solve_decoder(field, m_rows, m, n)
        else:
            d_rows = solve_decoder(field, m_rows, m, n)
            assert all(row >> (m * field.k) == 0 for row in d_rows)
            assert [unpack(field.k, row, m) for row in d_rows] == ref
