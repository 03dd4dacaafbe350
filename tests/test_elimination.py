"""The row-reduction kernel checked against the eliminations it replaced.

`rank_gf_ref` in `oracles.py` pivots column by column on whole arrays;
`arcnc.polymatrix` reduces one row at a time, packed into a single Python
int with column j in lane j, against a basis keyed by pivot column. On
random blocks over GF(2), GF(4) and GF(256), with narrow, square and wide
blocks, all-zero blocks and repeated blocks and rows, both must give the
same rank at every step, for words packed from NumPy and from tuple
blocks, also when a packed row outgrows 64 bits. `reduce_row_ref` is the
list-of-ints kernel the packed one replaced: both must pick the same
pivot (the highest nonzero lane) for every row and store the same rows,
and every stored tag must name the combination of fed rows its row is, at
q = 2 (the XOR-only branch, also on rows and tags wider than 64 bits), 4,
8 (lanes scaled by bit planes) and 256.
The tags of a sink's rank state, fed by the words-fed `RankCache`, must do
the same against the columns of `build_M_ref`, and the decoder read from
that state must exist exactly when
the column-copy `solve_decoder_ref` finds one and satisfy M D = [I_m; 0],
checked with the scalar multiply on the list-built M and with packed lanes
on `build_M`'s rows. The packed decode matrix and its first block-row (the
packed rows of F_r(z)) must equal `build_M_ref` and the blocks themselves;
the decode matrix is cut from F rows transposed over every block, and the
transposition's extra row is the symbol stream.
"""

from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc.gf import GF
from arcnc.polymatrix import (
    build_M,
    kernel_rows,
    pack,
    reduce_row,
)
from oracles import (
    RankCache,
    build_M_ref,
    decoder_rows,
    decodability_test_ref,
    rank_gf,
    rank_gf_ref,
    reduce_row_ref,
    solve_decoder_ref,
    unpack,
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


def _combination(field, rows, coeffs):
    """The sum of coeffs[i] times rows[i], rows as lists, with the scalar multiply."""
    width = max(map(len, rows), default=0)
    out = [0] * width
    for c, row in zip(coeffs, rows):
        for j, v in enumerate(row):
            out[j] ^= field.mul(c, v)
    return out


def _times(field, m_mat, d):
    """M D over GF(q) with the scalar multiply, both as lists."""
    return [
        [reduce(xor, (field.mul(a, d_row[i]) for a, d_row in zip(row, d)), 0) for i in range(len(d[0]))]
        for row in m_mat
    ]


def _target(rows, m):
    """(I_m over zeros) with `rows` rows."""
    return [[int(i == j) for j in range(m)] for i in range(rows)]


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
            assert rank_gf(field, np.array(m_mat, dtype=np.int64)) == cache.rank_last
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
            fired.append([decodability_test_ref(cache, t) for t in range(len(blocks))])
    assert fired.count(fired[0]) == len(fired)


def _check_kernel_state(field, basis, tags, basis_ref, fed):
    """The packed basis and tags hold the reference's pivots and rows, and
    each tag names the combination of fed rows its row is."""
    k = field.k
    assert basis.keys() == tags.keys() == basis_ref.keys()
    for p, stored in basis_ref.items():
        assert len(stored) == p + 1 and stored[p] == 1
        stored_row, tag = basis[p], tags[p]
        assert stored_row >> (len(stored) * k) == 0
        assert unpack(k, stored_row, len(stored)) == stored
        assert tag >> (len(fed) * k) == 0
        combined = _combination(field, fed, unpack(k, tag, len(fed)))
        assert combined[: p + 1] == stored and not any(combined[p + 1 :])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS + (8,)), st.integers(1, 10), st.data())
def test_packed_kernel_matches_list_kernel(q, n_rows, data):
    # row i is fed tagged with the unit in lane i; q = 8 scales lanes by bit
    # planes, q = 2 takes the XOR-only branch
    field = GF.for_q(q)
    k = field.k
    basis, tags, basis_ref = {}, {}, {}
    fed = []
    width = 0
    for i in range(n_rows):
        # rows never get shorter, as the rank cache feeds them
        width += data.draw(st.integers(0, 4))
        row = [data.draw(_entries(q)) for _ in range(width)]
        if basis_ref and data.draw(st.booleans()):
            # a combination of stored rows, so some rows fall in the span
            row = [0] * width
            for stored in basis_ref.values():
                c = data.draw(_entries(q))
                row[: len(stored)] = [a ^ field.mul(c, b) for a, b in zip(row, stored)]
        fed.append(row)
        added = reduce_row(field, basis, tags, [pack(k, row)], 1 << i * k)
        pivot = reduce_row_ref(field, basis_ref, row)
        # the same pivot added, or none
        assert added == (pivot is not None)
        _check_kernel_state(field, basis, tags, basis_ref, fed)


@pytest.mark.parametrize("seed", range(4))
def test_gf2_rows_and_tags_wider_than_64_bits(seed):
    # the XOR-only branch on multi-digit ints: 100 rows of up to 160 bits,
    # a third of them sums of stored rows, fed in one call so that the tag of
    # row i is bit i, up to bit 99
    field = GF.for_q(2)
    rng = np.random.default_rng(seed)
    basis_ref, fed = {}, []
    for i in range(100):
        width = min(160, 40 + 2 * i)
        if basis_ref and i % 3 == 0:
            row = [0] * width
            for stored in basis_ref.values():
                if rng.integers(2):
                    row[: len(stored)] = [a ^ b for a, b in zip(row, stored)]
        else:
            row = rng.integers(0, 2, size=width).tolist()
        fed.append(row)
        reduce_row_ref(field, basis_ref, row)
    basis, tags = {}, {}
    added = reduce_row(field, basis, tags, [pack(1, row) for row in fed], 1)
    assert added == len(basis_ref) > 64
    assert max(tags.values()).bit_length() > 64 and max(basis.values()).bit_length() > 64
    _check_kernel_state(field, basis, tags, basis_ref, fed)


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
    blocks = [mat[:, :6], mat[:, 6:]]
    for form in (blocks, [blk.tolist() for blk in blocks]):
        cache = RankCache(field, 5, words_from_blocks(field, form))
        cache.advance(1)
        assert cache.deltas[0] == rank_gf_ref(field, form[0])
        assert cache.rank_last == rank_gf_ref(field, build_M_ref(form))
        # the decoder's tags span 12 lanes of GF(256), 96 bits
        m_mat = build_M_ref(form)
        d = [unpack(8, row, 5) for row in decoder_rows(cache.sink, cache.in_deg)]
        assert len(d) == 12 and _times(field, m_mat, d) == _target(10, 5)


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
    fired = [decodability_test_ref(cache, t) for t in range(len(blocks))]
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
def test_rank_cache_tags_and_decoder_at_every_step(case, data):
    # every stored (row, tag) is the combination of rows of M_t^T (columns
    # of M_t) its tag names, and D exists exactly when the column-copy solve
    # finds one; in_deg < m, = m and > m all occur
    q, m, n, blocks = case
    field = GF.for_q(q)
    k = field.k
    cache = RankCache(field, m, _with_symbols(data.draw, field, m, words_from_blocks(field, blocks)))
    for t in range(len(blocks)):
        cache.advance(t)
        m_mat = build_M_ref(blocks[: t + 1])
        rows, cols = len(m_mat), len(m_mat[0])
        columns = [[m_mat[i][c] for i in range(rows)] for c in range(cols)]
        assert cache.sink.tags.keys() == cache.sink.basis.keys()
        for pivot, row in cache.sink.basis.items():
            tag = cache.sink.tags[pivot]
            assert row >> pivot * k == 1  # 1 at the pivot, 0 above it
            assert tag >> cols * k == 0
            assert _combination(field, columns, unpack(k, tag, cols)) == unpack(k, row, rows)
        ref = solve_decoder_ref(field, m_mat, m)
        if ref is None:
            with pytest.raises(AssertionError):
                decoder_rows(cache.sink, cache.in_deg)
        else:
            d_rows = decoder_rows(cache.sink, cache.in_deg)
            assert len(d_rows) == cols and all(row >> (m * k) == 0 for row in d_rows)
            assert _times(field, m_mat, [unpack(k, row, m) for row in d_rows]) == _target(rows, m)


@settings(max_examples=300, deadline=None)
@given(block_sequences(), st.data())
def test_masked_decoder_solve_matches_column_copy(case, data):
    # at every step, decodable or not, in_deg >= m: the decoder read from
    # the rank cache exists exactly when the column-copy solve finds one,
    # and M D = [I_m; 0] holds on build_M's packed rows, lane by lane
    q, m, n, blocks = case
    n = max(n, m)
    field = GF.for_q(q)
    k = field.k
    blocks = [[list(row) + [data.draw(_entries(q)) for _ in range(n - len(row))] for row in blk] for blk in blocks]
    words = words_from_blocks(field, blocks)
    f_rows = kernel_rows(field, words, len(blocks), m)
    cache = RankCache(field, m, words)
    for steps in range(1, len(blocks) + 1):
        cache.advance(steps - 1)
        ref = solve_decoder_ref(field, build_M_ref(blocks[:steps]), m)
        if ref is None:
            with pytest.raises(AssertionError):
                decoder_rows(cache.sink, cache.in_deg)
            continue
        d_rows = decoder_rows(cache.sink, cache.in_deg)
        assert len(d_rows) == steps * n and all(row >> (m * k) == 0 for row in d_rows)
        for i, m_row in enumerate(build_M(field, f_rows, n, steps)):
            product = 0
            for lane, d_row in enumerate(d_rows):
                product ^= field.mul_lanes(m_row >> lane * k & field.q - 1, d_row)
            assert product == (1 << i * k if i < m else 0)
