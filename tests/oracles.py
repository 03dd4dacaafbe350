"""Slow, independent oracles that only the tests use.

`rank_gf_ref` and `solve_linear_ref` are the NumPy Gaussian eliminations
that `arcnc.polymatrix.reduce_row` replaced: whole-array row swaps and
`mul_arrays` row operations, pivots found column by column; `rank_gf` is
the constant-matrix rank by `reduce_row` itself. `reduce_row_ref` is the
list-of-ints form of `reduce_row` that the packed-lane kernel replaced,
with the same pivot rule (the highest nonzero column) and the same stored
rows, without tags. `PolyMatrix` and `det_nonzero_oracle` give the
cofactor determinant of a polynomial matrix, the exponential reference
for the decodability test.
`min_cut_ref` is the source-side max-flow that the sink-side, capped
`arcnc.netgraph.min_cut` replaced, and `adjacent_pairs` the generator walk
that `Network.pairs` replaced, yielding the same plain (e_in, e_out)
tuples, with `delay_free_cycle_ref` as the depth-first reference for the
Kahn passes of `validate_cycle_delay` and `arcnc.netgraph.has_cycle`.
`validate_cycle_delay` is the line-graph Kahn pass (`_acyclic`) that
`Network.build`'s edge-order certificate replaced, and `degrees_ref` reads
L_v from the unpacked columns, the independent check of
`Engine._snapshot_degrees`.
`index_edges_ref` is the two-branch edge order that the one-pass
`arcnc.netgraph.index_edges` replaced; the two agree whenever the node ids
of an acyclic graph are a topological order.
`is_irreducible` is Rabin's test, the independent check that the `GF`
table build rejects exactly the reducible reduction polynomials.
`unpack` reads the lanes of a packed row back into a list.
`f_of` and `y_of` unpack every edge's columns and symbols from the
engine's packed words `eng.w`, `kernels_of` rebuilds every adjacent pair's
local kernel from the engine's coefficient rows and layout, and
`children_of` lists each node's children.
`propagate_ref` is the tuple/list convolution that the engine's packed edge
words replaced. `check_words` is the check of an engine's words from
outside that replaced the engine's own per-step self-check: the symbol
identity on every edge and step, read from `f_of`, `y_of` and `eng.x`,
then the words against `propagate_ref`; `checking_words` wraps
`Engine.step` so that every engine a block steps, one inside `run`
included, is checked when the block ends. `gen_rgg_ref` is the
pair-by-pair loop with scalar coin flips that `arcnc.topologies.gen_rgg`'s
one draw per attempt replaced.
`build_M_ref` is the list-of-lists decode matrix that the packed
`arcnc.polymatrix.build_M` replaced, and `solve_decoder_ref` the
column-copy solve of M D = [I_m; 0] on it, the independent check of D's
existence for `solve_decoder`, which reads D from a sink's rank state;
`words_from_blocks` packs coefficient blocks into the per-in-edge word
histories that `RankCache` and `kernel_rows` take. `RankCache` is the
lazy, words-fed rank state that the engine's rows, built once per history
and step, replaced: it builds one sink's rows from its own words and feeds
them to `arcnc.polymatrix.decodability_test`, and `decodability_test_ref`
is the test at time t on it.
`sequential_decode_ref` is the entry-by-entry decode, on D and the
coefficient blocks of F_r(z) as lists, that the packed-row per-sink decoder
replaced. That decoder, and the step-by-step residual check that replaced
it, are kept here as the references of `arcnc.polymatrix.sequential_decode`,
which checks every step of every sink at once on streams packed over time
(one window per history and lag, D read as its m columns).
`sequential_decode_steps_ref` is the step-by-step check, on the same
arguments: one residual stream per history, each live sink's D window read
at every step, then the true x_t taken out of every residual.
`decoder_rows` transposes the m columns `solve_decoder` returns into D's
(t+1) * in_deg rows, the form the references and the solve tests read.
`build_decoder_ref` builds a sink's `SinkDecoder` (D's rows, and its
in-edge words transposed jointly), `sink_decode_ref` decodes one sink's
packed stream alone, and `first_bad_step_ref` finds the first step at which
that decode leaves the source stream. `received_rows_ref` reads a sink's
received rows from `y_of`, the independent check of the decoder's
received row, and `pack_stream` packs rows into the one int that row
holds.
`rng_slots_ref` is the full scan over every drawing pair, and
`propagate_acks_ref` the repeated ascending sweeps to a fixpoint, that the
engine's live draw list and counted ack cascade replaced. `PairKernelsRef`
is the per-pair kernel bookkeeping that the engine's coefficient rows per
coded edge replaced, the independent check of `kernels_of`.
`rand_array` draws uniform field elements for the tests' random inputs,
`mul_arrays` multiplies NumPy arrays of them elementwise, from log tables
built on `GF.mul`, and `pinned_draws` gives the values of one step's draw
slots with some local kernels pinned, for `Engine.step(t, draws=)`.
`exact_dist_oracle` enumerates every kernel draw sequence on a tiny network
and returns exact decoding time tables, which anchor the closed forms of
`arcnc.metrics` and the Monte Carlo harness.
`et_ub_ref`, `et_lb_ref`, `et_n_ub_ref` and `var_t_avg_ub_ref` are the
exact `Fraction` alternating sums that the float positive series of
`arcnc.metrics` replaced; they return the exact rational values.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from operator import xor

import numpy as np

from arcnc.engine import SOURCE_IDENTITY, SOURCE_RANDOM, Engine
from arcnc.gf import GF, _clmul, _poly_mod, _prime_factors
from arcnc.netgraph import Network
from arcnc.polymatrix import SinkRank, decodability_test, kernel_rows, pack, reduce_row, solve_decoder
from arcnc.topologies import P_BACKWARD_REMOVAL, P_FORWARD_REMOVAL, TopologyError


def unpack(k: int, v: int, n: int) -> list[int]:
    """The first n lanes of a packed row as a list of ints, the inverse of
    `arcnc.polymatrix.pack`."""
    mask = (1 << k) - 1
    return [v >> (j * k) & mask for j in range(n)]


def rand_array(field: GF, rng: np.random.Generator, size) -> np.ndarray:
    """Uniform elements of `field` in an int64 array of the given shape."""
    return rng.integers(0, field.q, size=size, dtype=np.int64)


_MUL_TABLES: dict = {}  # field -> (antilog, log) arrays for mul_arrays


def mul_arrays(field: GF, a, b) -> np.ndarray:
    """Elementwise product of two int arrays over GF(q), broadcasting
    allowed: a gather from log and antilog arrays built once per field
    from `GF.mul`, as the powers of the field's generator."""
    tables = _MUL_TABLES.get(field)
    if tables is None:
        powers = [1]
        for _ in range(field.q - 2):
            powers.append(field.mul(powers[-1], field.generator))
        log = np.zeros(field.q, dtype=np.int64)
        log[powers] = np.arange(field.q - 1)
        tables = _MUL_TABLES[field] = np.array(powers * 2, dtype=np.int64), log
    exp, log = tables
    a, b = np.asarray(a), np.asarray(b)
    return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]])


def _as_coeff(mat, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.shape != (rows, cols):
        raise ValueError(f"coefficient shape {a.shape} != ({rows}, {cols})")
    return a


class PolyMatrix:
    """Matrix of polynomials over GF(q), held as a list of coefficient matrices."""

    def __init__(self, field: GF, rows: int, cols: int, coeffs=()):
        self.field = field
        self.rows = rows
        self.cols = cols
        coeffs = [_as_coeff(c, rows, cols) for c in coeffs]
        while coeffs and not coeffs[-1].any():
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, field: GF, rows: int, cols: int) -> "PolyMatrix":
        return cls(field, rows, cols)

    @classmethod
    def from_entries(cls, field: GF, entries) -> "PolyMatrix":
        """Build from a rows x cols nest of per-entry coefficient lists.

        Example: [[[1], [1]], [[0], [0, 1]]] is the 2x2 matrix [[1, 1], [0, z]].
        """
        rows = len(entries)
        cols = len(entries[0])
        degree = max((len(e) - 1 for row in entries for e in row), default=-1)
        coeffs = [np.zeros((rows, cols), dtype=np.int64) for _ in range(degree + 1)]
        for r, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged entry rows")
            for c, poly in enumerate(row):
                for i, v in enumerate(poly):
                    coeffs[i][r, c] = field.validate(int(v))
        return cls(field, rows, cols, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> np.ndarray:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return np.zeros((self.rows, self.cols), dtype=np.int64)

    def truncated(self, t: int) -> "PolyMatrix":
        """Drop every coefficient of z^i with i > t."""
        return PolyMatrix(self.field, self.rows, self.cols, self.coeffs[: t + 1])

    def entry(self, r: int, c: int) -> list[int]:
        """Coefficient list of the (r, c) entry, trimmed."""
        poly = [int(coef[r, c]) for coef in self.coeffs]
        while poly and poly[-1] == 0:
            poly.pop()
        return poly

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and len(self.coeffs) == len(other.coeffs)
            and all((a == b).all() for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, degree={self.degree})"


# -- constant-matrix linear algebra --------------------------------------------


def reduce_row_ref(field: GF, basis: dict, row) -> int | None:
    """Reduce a row of ints against an echelon basis; store it if it adds rank.

    The row pivots on its highest nonzero column. basis maps a pivot column
    to its stored row, cut after the pivot: 1 at the pivot, its last entry.
    Returns the new pivot column, or None when the row lies in the span of
    the basis.
    """
    mul = field.mul
    row = list(row)
    j = len(row) - 1
    while True:
        while j >= 0 and not row[j]:
            j -= 1
        if j < 0:
            return None
        pivot_row = basis.get(j)
        if pivot_row is None:
            break
        c = row[j]
        if c == 1:
            row[: j + 1] = map(xor, row[: j + 1], pivot_row)
        else:
            row[: j + 1] = [a ^ mul(c, b) for a, b in zip(row[: j + 1], pivot_row)]
    row = row[: j + 1]
    c = row[j]
    if c != 1:
        inv = field.inv(c)
        row = [mul(inv, v) for v in row]
    basis[j] = row
    return j


def rank_gf_ref(field: GF, mat) -> int:
    """Row rank over GF(q) by Gaussian elimination."""
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rank_gf_ref expects a 2-D matrix")
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        if a[rank, c] != 1:
            a[rank] = mul_arrays(field, field.inv(int(a[rank, c])), a[rank])
        for r in range(rank + 1, rows):
            if a[r, c]:
                a[r] ^= mul_arrays(field, int(a[r, c]), a[rank])
        rank += 1
        if rank == rows:
            break
    return rank


def rank_gf(field: GF, mat) -> int:
    """Row rank of a constant matrix over GF(q) by `reduce_row`, the
    packed-lane elimination the engine's rank tests run."""
    return reduce_row(field, {}, {}, [pack(field.k, row) for row in mat], 0)


def solve_linear_ref(field: GF, a, b):
    """Solve A X = B over GF(q); returns X with free variables at 0, or
    None when the system is inconsistent."""
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    if b.ndim == 1:
        b = b[:, None]
    n_a = a.shape[1]
    aug = np.hstack([a, b])
    rows = aug.shape[0]
    pivots = []  # (row, col)
    r = 0
    for c in range(n_a):
        piv = None
        for rr in range(r, rows):
            if aug[rr, c]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            aug[[r, piv]] = aug[[piv, r]]
        if aug[r, c] != 1:
            aug[r] = mul_arrays(field, field.inv(int(aug[r, c])), aug[r])
        for rr in range(rows):
            if rr != r and aug[rr, c]:
                aug[rr] ^= mul_arrays(field, int(aug[rr, c]), aug[r])
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    if aug[r:, n_a:].any():
        return None
    x = np.zeros((n_a, b.shape[1]), dtype=np.int64)
    for row, col in pivots:
        x[col] = aug[row, n_a:]
    return x


# -- decode matrix and decoder solve --------------------------------------------


def words_from_blocks(field: GF, blocks) -> list[list[int]]:
    """m x in_deg coefficient blocks F_0, F_1, ... as per-in-edge packed word
    histories, the engine's format: column e of F_c in lanes 0..m-1 of
    words[e][c]."""
    k = field.k
    n = len(blocks[0][0])
    return [
        [sum(int(row[e]) << j * k for j, row in enumerate(blk)) for blk in blocks]
        for e in range(n)
    ]


class RankCache:
    """The words-fed rank state of one sink, the reference for the engine's
    rows: it builds the sink's rows of M_t^T from its in-edge words itself,
    one private row per in-edge, row_e(t) = col_e(t) | row_e(t-1) << (m * k),
    catching up lazily to the step asked for, and feeds each step's rows to
    `decodability_test` on its own `SinkRank`. `deltas[t]` is the rank step
    at t, `fired[t]` the test's answer."""

    def __init__(self, field: GF, m: int, words):
        self.field, self.m, self.words = field, m, words
        self.in_deg = len(words)
        self.sink = SinkRank(field, m)
        self.rows = [0] * self.in_deg
        self.deltas: list[int] = []
        self.fired: list[bool] = []

    @property
    def t_last(self) -> int:
        return len(self.deltas) - 1

    @property
    def rank_last(self) -> int:
        return len(self.sink.basis)

    def advance(self, t: int) -> None:
        """Catch up through time t on the words."""
        shift = self.m * self.field.k
        colmask = (1 << shift) - 1
        basis = self.sink.basis
        for step in range(len(self.deltas), t + 1):
            self.rows = [hist[step] & colmask | row << shift for hist, row in zip(self.words, self.rows)]
            rank = len(basis)
            self.fired.append(decodability_test(self.sink, self.rows))
            self.deltas.append(len(basis) - rank)
            assert self.sink.tags.keys() == basis.keys()


def decodability_test_ref(cache: RankCache, t: int) -> bool:
    """The decodability test at time t on a words-fed cache, which catches up
    lazily on the words up to t."""
    cache.advance(t)
    return cache.fired[t]


def build_M_ref(blocks) -> list[list[int]]:
    """Block upper-triangular decode matrix from coefficient blocks F_0..F_i,
    as lists of ints: F_0 on the diagonal and F_j on the j-th superdiagonal,
    (i+1)m rows and (i+1)n columns for m x n blocks."""
    m = len(blocks[0])
    n = len(blocks[0][0])
    if any(len(blk) != m or any(len(row) != n for row in blk) for blk in blocks):
        raise ValueError("coefficient blocks must share one shape")
    steps = len(blocks)
    out = []
    for b in range(steps):
        for j in range(m):
            row = [0] * (b * n)
            for c in range(b, steps):
                row.extend(int(v) for v in blocks[c - b][j])
            out.append(row)
    return out


def solve_decoder_ref(field: GF, m_mat, m: int):
    """Solve M D = (I_m over zeros) by column-copy Gaussian elimination on
    all streams. Returns D as lists, or None when the system is
    inconsistent."""
    m_mat = np.array(m_mat, dtype=np.int64)
    target = np.zeros((m_mat.shape[0], m), dtype=np.int64)
    target[:m] = np.eye(m, dtype=np.int64)
    x = solve_linear_ref(field, m_mat, target)
    return None if x is None else x.tolist()


def received_rows_ref(eng, r: int) -> list[list[int]]:
    """Received rows y_0, y_1, ... of sink r, one symbol per in-edge, read
    from the symbols `y_of` unpacks."""
    y = y_of(eng)
    return [list(row) for row in zip(*(y[e] for e in eng.net.in_edges[r]))]


def pack_stream(field: GF, rows) -> int:
    """Received rows packed into one int, y_e[s] in lane s * in_deg + e."""
    k = field.k
    return sum(int(v) << i * k for i, v in enumerate(v for row in rows for v in row))


def sequential_decode_ref(field: GF, d_matrix, f_blocks, t_r: int, y_stream) -> list[tuple[int, ...]]:
    """Recover x_0, x_1, ... from received rows y_0, y_1, ..., one scalar
    product at a time: D as (t_r+1)*in_deg rows of m symbols, F_r(z) as
    m x in_deg coefficient blocks, the zero entries of both skipped."""
    mul = field.mul
    m, in_deg = len(f_blocks[0]), len(f_blocks[0][0])
    window = t_r + 1
    n = len(y_stream)
    if n < window:
        raise ValueError(f"need at least {window} received rows, got {n}")
    if n > len(f_blocks):
        raise ValueError(f"decoder holds {len(f_blocks)} coefficient blocks, got {n} received rows")
    corrected = [list(row) for row in y_stream]
    if any(len(row) != in_deg for row in corrected):
        raise ValueError("received rows must have one symbol per incoming edge")

    def nonzero(rows):
        return [[(j, v) for j, v in enumerate(row) if v] for row in rows]

    d_rows = nonzero(d_matrix)
    future = []
    for c, blk in enumerate(f_blocks[1:n], start=1):
        entries = nonzero(blk)
        if any(entries):
            future.append((c, entries))
    out = []
    for t in range(n - t_r):
        x_t = [0] * m
        stacked = (y for row in corrected[t : t + window] for y in row)
        for y, d_row in zip(stacked, d_rows):
            if y:
                for j, d in d_row:
                    x_t[j] ^= mul(y, d)
        out.append(tuple(x_t))
        if not any(x_t):
            continue
        # subtract x_t's future contributions so later windows stay clean
        for c, blk in future:
            if t + c >= n:
                break
            row = corrected[t + c]
            for x, f_row in zip(x_t, blk):
                if x:
                    for e, f in f_row:
                        row[e] ^= mul(x, f)
    return out



def decoder_rows(sink: SinkRank, in_deg: int) -> list[int]:
    """D as (t+1) * in_deg rows of m lanes, row a holding D[a][i] in lane i:
    the m columns `solve_decoder` returns, transposed."""
    return kernel_rows(sink.field, [solve_decoder(sink)], sink.m, sink.steps * in_deg)


@dataclass
class SinkDecoder:
    """Everything one sink needs to decode its received stream alone, as
    packed rows: D, and the joint transposition of the sink's in-edge words
    over their first `blocks` steps (`kernel_rows` with m + 1 lanes), the m
    rows of F_r(z) and the received stream, y_e[s] in lane s * in_deg + e,
    both snapshots at build time."""

    field: GF
    m: int
    in_deg: int
    t_r: int
    d_rows: list  # (t_r+1)*in_deg rows of D, m lanes each
    f_rows: list  # m rows of F_r(z)
    y_row: int  # the received stream
    blocks: int  # steps the rows cover: coefficient blocks F_0, F_1, ... and received symbols


def build_decoder_ref(eng, r: int) -> SinkDecoder:
    """Sink r's decoder over every step run so far: D from the rank state it
    decoded on, F_r(z) and the received stream transposed from its in-edge
    words jointly."""
    if r not in eng.t_r:
        raise ValueError(f"sink {r} never decoded")
    field, m = eng.field, eng.m
    words = [eng.w[e] for e in eng.net.in_edges[r]]
    blocks = len(words[0])
    *f_rows, y_row = kernel_rows(field, words, blocks, m + 1)
    d_rows = decoder_rows(eng._decoded[r], len(words))
    return SinkDecoder(field, m, len(words), eng.t_r[r], d_rows, f_rows, y_row, blocks)


def sink_decode_ref(dec: SinkDecoder, y: int, n: int) -> list[int]:
    """Recover x_0, x_1, ... from one sink's packed received stream of n
    steps, y_e[s] in lane s * in_deg + e: x_t is the window y_t..y_{t+t_r},
    with the decoded x_0..x_{t-1} taken out, times D; one XOR of the sum of
    x_t[j] times row j of F_r(z) takes x_t out of every later step. Returns
    x_t packed in m lanes per decoded step.

    F_r(z) is not cut off at a degree: on cyclic networks it is rational, so
    a stream longer than `dec.blocks` raises ValueError instead of taking
    the missing blocks as zero. So do a stream shorter than the window and
    one with symbols beyond its n steps.
    """
    window = dec.t_r + 1
    if n < window:
        raise ValueError(f"need at least {window} received steps, got {n}")
    if n > dec.blocks:
        raise ValueError(f"decoder holds {dec.blocks} coefficient blocks, got {n} received steps")
    k, lane, mul_lanes = dec.field.k, dec.field.q - 1, dec.field.mul_lanes
    block = dec.in_deg * k
    if y >> n * block:
        raise ValueError(f"received stream has symbols beyond its {n} steps")
    window_mask = (1 << window * block) - 1
    d_rows = [(i * k, d) for i, d in enumerate(dec.d_rows) if d]
    f_rows = [(j * k, f) for j, f in enumerate(dec.f_rows) if f]
    out = []
    for _ in range(n - dec.t_r):
        ys = y & window_mask
        x_t = 0
        for at, d in d_rows:
            c = ys >> at & lane
            if c:
                x_t ^= d if c == 1 else mul_lanes(c, d)
        out.append(x_t)
        if x_t:
            for at, f in f_rows:
                c = x_t >> at & lane
                if c:
                    y ^= f if c == 1 else mul_lanes(c, f)
        y >>= block
    return out


def first_bad_step_ref(dec: SinkDecoder, x_packed: list[int]) -> int | None:
    """The first step at which the sink's own decode of its received stream
    differs from the packed source stream, or None."""
    x_hat = sink_decode_ref(dec, dec.y_row, dec.blocks)
    return next((t for t, (a, b) in enumerate(zip(x_hat, x_packed)) if a != b), None)


def sequential_decode_steps_ref(field: GF, m: int, hists: list, x: list[int], sinks) -> list[int | None]:
    """The step-by-step form of `arcnc.polymatrix.sequential_decode`, on the
    same arguments (D as its m columns): one residual stream per history,
    its received symbols with the true x_0..x_{t-1} times the history's
    column taken out, read at every step t through each live sink's D
    window over lanes t..t+t_r, then the true x_t taken out of every
    residual. Returns each sink's first step t with a decoded x_t != x[t],
    or None."""
    n = len(x)
    k, lane, mul_lanes = field.k, field.q - 1, field.mul_lanes
    slot: dict[int, int] = {}  # history -> its residual's index
    resid, f_rows = [], []
    checks = []  # (sink index, steps it decodes, taps (residual, lane offset, D row))
    for i, (t_r, sink_hists, d_cols) in enumerate(sinks):
        if n < t_r + 1:
            raise ValueError(f"need at least {t_r + 1} received steps, got {n}")
        for h in sink_hists:
            if h not in slot:
                if len(hists[h]) < n:
                    raise ValueError(f"history {h} holds {len(hists[h])} steps, got {n} source steps")
                slot[h] = len(resid)
                # rows 0..m-1: history h's column f_h[c][j] in lane c of row j;
                # row m: its received symbols, the residual before any step
                *rows, y = kernel_rows(field, [hists[h]], n, m + 1)
                resid.append(y)
                f_rows.append([(j * k, f) for j, f in enumerate(rows) if f])
        in_deg = len(sink_hists)
        d_rows = kernel_rows(field, [d_cols], m, (t_r + 1) * in_deg)
        taps = [(slot[sink_hists[a % in_deg]], a // in_deg * k, d) for a, d in enumerate(d_rows) if d]
        checks.append((i, n - t_r, taps))
    bad: list[int | None] = [None] * len(sinks)
    for t, x_t in enumerate(x):
        live = []
        for check in checks:
            x_hat = 0
            for s, at, d in check[2]:
                c = resid[s] >> at & lane
                if c:
                    x_hat ^= d if c == 1 else mul_lanes(c, d)
            if x_hat != x_t:
                bad[check[0]] = t
            elif check[1] > t + 1:
                live.append(check)
        checks = live
        if not checks:
            break
        # take x_t out of every residual, then move each one step on
        for s, rows in enumerate(f_rows):
            y = resid[s]
            if x_t:
                for at, f in rows:
                    c = x_t >> at & lane
                    if c:
                        y ^= f if c == 1 else mul_lanes(c, f)
            resid[s] = y >> k
    return bad

# -- polynomial determinant oracle ----------------------------------------------


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] ^= v
    for i, v in enumerate(b):
        out[i] ^= v
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(field: GF, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if not av:
            continue
        for j, bv in enumerate(b):
            if bv:
                out[i + j] ^= field.mul(av, bv)
    while out and out[-1] == 0:
        out.pop()
    return out


def det_nonzero_oracle(pm: PolyMatrix) -> bool:
    """Cofactor-expansion determinant over the polynomial ring; True iff
    some coefficient of det is nonzero. Test oracle only: O(n!) minors."""
    if pm.rows != pm.cols:
        raise ValueError("determinant oracle needs a square matrix")
    field = pm.field
    entries = [[pm.entry(r, c) for c in range(pm.cols)] for r in range(pm.rows)]

    def det(mat: list[list[list[int]]]) -> list[int]:
        n = len(mat)
        if n == 1:
            return mat[0][0]
        acc: list[int] = []
        for c in range(n):
            if not mat[0][c]:
                continue
            minor = [[row[j] for j in range(n) if j != c] for row in mat[1:]]
            acc = _poly_add(acc, _poly_mul(field, mat[0][c], det(minor)))
        return acc

    return bool(det(entries))


def adjacent_pairs(net: Network):
    """All (e_in, e_out) pairs through each non-source node, in insertion order."""
    for v in range(net.num_nodes):
        if v == net.source:
            continue
        for e_in in net.in_edges[v]:
            for e_out in net.out_edges[v]:
                yield e_in, e_out


def index_edges_ref(net: Network) -> list[int]:
    """Edge order by two breadth-first loops: on an acyclic graph a node is
    queued once all of its in-edges are indexed, on a cyclic one when it is
    first reached; same-step ties enter in ascending id. Edges the loop never
    reaches follow in tail-id order."""
    order = []
    indexed = [False] * len(net.edges)
    if not delay_free_cycle_ref(net, frozenset()):  # a node cycle is an edge-adjacency cycle
        indeg = [len(ins) for ins in net.in_edges]
        queue = deque([net.source])
        queued = [False] * net.num_nodes
        queued[net.source] = True
        while queue:
            v = queue.popleft()
            ready = []
            for e in net.out_edges[v]:
                order.append(e)
                indexed[e] = True
                h = net.head(e)
                indeg[h] -= 1
                if indeg[h] == 0 and not queued[h]:
                    queued[h] = True
                    ready.append(h)
            for h in sorted(ready):
                queue.append(h)
    else:
        visited = [False] * net.num_nodes
        visited[net.source] = True
        queue = deque([net.source])
        while queue:
            v = queue.popleft()
            newly = []
            for e in net.out_edges[v]:
                order.append(e)
                indexed[e] = True
                h = net.head(e)
                if not visited[h]:
                    visited[h] = True
                    newly.append(h)
            for h in sorted(newly):
                queue.append(h)
    for v in range(net.num_nodes):
        for e in net.out_edges[v]:
            if not indexed[e]:
                order.append(e)
                indexed[e] = True
    return order


def delay_free_cycle_ref(net: Network, mask) -> bool:
    """True iff some directed cycle of edge adjacencies avoids every masked
    pair: a depth-first search for a back arc over the unmasked pairs of the
    `adjacent_pairs` walk. `validate_cycle_delay` is its negation."""
    succ = [[] for _ in net.edges]
    for e_in, e_out in adjacent_pairs(net):
        if (e_in, e_out) not in mask:
            succ[e_in].append(e_out)
    state = [0] * len(net.edges)  # 0 unseen, 1 on the current path, 2 done
    for root in range(len(net.edges)):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            e, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[e] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return False


def _acyclic(succ: list[list[int]]) -> bool:
    """Kahn's test: True iff the graph with successor lists `succ` (one
    list per vertex, repeats allowed) has no directed cycle."""
    indeg = [0] * len(succ)
    for outs in succ:
        for w in outs:
            indeg[w] += 1
    queue = deque(v for v, d in enumerate(indeg) if d == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(succ)


def validate_cycle_delay(net: Network, mask: frozenset[tuple[int, int]]) -> bool:
    """True iff every directed cycle contains at least one masked pair.

    Checked on the line graph of edge adjacency: drop the masked arcs and
    test acyclicity; a delay-free cycle in the network is exactly a cycle
    of unmasked adjacencies. `mask` is read as given, not copied: pass a
    frozenset, as every caller does.
    """
    succ = [[] for _ in net.edges]
    for pairs in net.pairs:
        for pair in pairs:
            if pair not in mask:
                e_in, e_out = pair
                succ[e_in].append(e_out)
    return _acyclic(succ)


def min_cut_ref(net: Network, sink: int) -> int:
    """Max-flow value from the source to the sink under unit edge capacities:
    Edmonds-Karp searching forward from the source, one flow flag per edge.
    An edge without flow is crossed from its tail, an edge with flow from its
    head, cancelling that unit."""
    source = net.source
    if sink == source:
        raise ValueError("sink equals source")
    edges, out_edges, in_edges = net.edges, net.out_edges, net.in_edges
    used = [False] * len(edges)
    bound = min(len(in_edges[sink]), len(out_edges[source]))
    flow = 0
    while flow < bound:
        # prev[v]: edge that reached v, or -1 when v is not reached yet
        prev = [-1] * net.num_nodes
        prev[source] = -2
        queue = deque([source])
        while queue and prev[sink] == -1:
            u = queue.popleft()
            for e in out_edges[u]:
                v = edges[e][1]
                if not used[e] and prev[v] == -1:
                    prev[v] = e
                    queue.append(v)
            for e in in_edges[u]:
                v = edges[e][0]
                if used[e] and prev[v] == -1:
                    prev[v] = e
                    queue.append(v)
        if prev[sink] == -1:
            break
        v = sink
        while v != source:
            e = prev[v]
            used[e] = not used[e]
            t, h = edges[e]
            v = t if h == v else h
        flow += 1
    if flow == 0:
        raise ValueError(f"sink {sink} unreachable from source")
    return flow


def _poly_gcd(a: int, b: int) -> int:
    """gcd of two GF(2)[x] polynomials as bitmasks."""
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
            continue
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def is_irreducible(poly: int, k: int) -> bool:
    """Rabin's irreducibility test for a degree-k polynomial over GF(2).

    poly is irreducible iff x^(2^k) == x (mod poly) and, for every prime
    r dividing k, gcd(x^(2^(k/r)) - x mod poly, poly) = 1.
    """
    if poly.bit_length() != k + 1:
        return False
    if k == 1:
        return poly in (0b10, 0b11)

    def sqmod(t: int) -> int:
        return _poly_mod(_clmul(t, t), poly, k)

    x = 0b10
    checkpoints = {k // r for r in _prime_factors(k)}
    t = x
    for j in range(1, k + 1):
        t = sqmod(t)  # t = x^(2^j) mod poly
        if j in checkpoints:
            if _poly_gcd(t ^ x, poly) != 1:
                return False
    return t == x


def gen_rgg_ref(num_nodes, num_sinks, radius, cyclic, rng, max_attempts=10_000, sinks=None) -> Network:
    """The pair-by-pair loop that `arcnc.topologies.gen_rgg` replaced: two
    scalar coin flips per near pair in cyclic mode, drawn inside the loop.
    `sinks`, when given, replaces the num_sinks highest-numbered nodes."""
    if sinks is None:
        sinks = list(range(num_nodes - num_sinks, num_nodes))
    for _ in range(max_attempts):
        pts = rng.random((num_nodes, 2))
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        edges = []
        for i in range(num_nodes):
            for j in range(i + 1, num_nodes):
                if d2[i, j] > radius * radius:
                    continue
                if not cyclic:
                    edges.append((i, j))
                    continue
                keep_fwd = rng.random() >= P_FORWARD_REMOVAL
                keep_bwd = rng.random() >= P_BACKWARD_REMOVAL
                if keep_fwd:
                    edges.append((i, j))
                if keep_bwd and i != 0:
                    edges.append((j, i))
        try:
            return Network.build(num_nodes, edges, 0, sinks)
        except ValueError:
            continue
    raise TopologyError(f"no rgg instance after {max_attempts} attempts")


def f_of(eng) -> list[list[tuple]]:
    """The columns f_e[0], f_e[1], ... of every edge, the imaginary inputs
    d_0..d_{m-1} after the network's edges, unpacked from lanes 0..m-1 of
    the engine's words `eng.w`."""
    k, m = eng.field.k, eng.m
    colmask = (1 << m * k) - 1
    return [[tuple(unpack(k, word & colmask, m)) for word in words] for words in eng.w]


def y_of(eng) -> list[list[int]]:
    """The symbols y_e[0], y_e[1], ... of every edge, indexed as in `f_of`,
    read from lane m of the engine's words `eng.w`."""
    shift = eng.m * eng.field.k
    return [[word >> shift for word in words] for words in eng.w]


def kernels_of(eng) -> dict[tuple[int, int], list[int]]:
    """Local kernel of every adjacent pair that has one, relays included,
    rebuilt from the engine's coefficient rows and layout: the kernel of a
    coded edge's i-th input is column i of its rows, a plain relay's is
    [1] and a masked relay's, a unit delay, [0, 1]."""
    net, graph = eng.net, eng._graph
    # in identity mode the first source edge relays d_0, history 0
    identity = graph.hist_of[net.out_edges[net.source][0]] == 0
    kernels = relay_kernels_ref(net, eng.m, SOURCE_IDENTITY if identity else SOURCE_RANDOM)
    for rows, start, end in zip(eng._rows, graph.cut_starts, graph.cut_ends):
        for i, pair in enumerate(graph.slots[start:end]):
            kernels[pair] = [row[i] for row in rows]
    return kernels


def children_of(net: Network) -> list[list[int]]:
    """The children of every node, in ascending id."""
    return [sorted({net.head(e) for e in net.out_edges[v]}) for v in range(net.num_nodes)]


def propagate_ref(eng) -> tuple[list, list]:
    """Columns and symbols of every edge for steps 0..t_next-1 by the
    tuple/list convolution that the engine's packed words replaced, replayed
    from the engine's local kernels (relays included) and source stream.
    Returns (f, y) indexed like `f_of` and `y_of`."""
    net, m, mul = eng.net, eng.m, eng.field.mul
    kernels = kernels_of(eng)
    n_edges = len(net.edges)
    in_edges = list(net.in_edges)
    in_edges[net.source] = list(range(n_edges, n_edges + m))
    f = [[] for _ in range(n_edges + m)]
    y = [[] for _ in range(n_edges + m)]
    for t in range(eng.t_next):
        for j, d in enumerate(in_edges[net.source]):
            f[d].append(tuple(int(t == 0 and i == j) for i in range(m)))
            y[d].append(eng.x[t][j])
        for e in net.edge_order:
            fnew = [0] * m
            sym = 0
            for e_in in in_edges[net.tail(e)]:
                kernel = kernels.get((e_in, e))
                if kernel is None:
                    continue
                for i in range(min(t, len(kernel) - 1) + 1):
                    c = kernel[i]
                    if not c:
                        continue
                    col = f[e_in][t - i]
                    for r_i in range(m):
                        if col[r_i]:
                            fnew[r_i] ^= mul(c, col[r_i])
                    sym ^= mul(c, y[e_in][t - i])
            f[e].append(tuple(fnew))
            y[e].append(sym)
    return f, y


def check_words(eng) -> None:
    """Check an engine's words over the steps run so far, from outside: the
    symbol identity y_e[t] = sum_i f_e[i] x_{t-i} on every edge and step,
    read from `f_of(eng)`, `y_of(eng)` and `eng.x` with the scalar
    multiply, then propagation, as `(f_of(eng), y_of(eng)) ==
    propagate_ref(eng)`, which recomputes every word from `kernels_of(eng)`
    and the source stream and never reads the propagation plan. Raises
    AssertionError naming the half that failed."""
    mul, m = eng.field.mul, eng.m
    f, y = f_of(eng), y_of(eng)
    for e in range(len(eng.net.edges)):
        cols, syms = f[e], y[e]
        for t, sym in enumerate(syms):
            expect = 0
            for i, col in enumerate(cols[: t + 1]):
                x_row = eng.x[t - i]
                for j in range(m):
                    if col[j]:
                        expect ^= mul(col[j], x_row[j])
            if expect != sym:
                raise AssertionError(f"symbol identity broken on edge {e} at t={t}")
    f_ref, y_ref = propagate_ref(eng)
    if not (f == f_ref and y == y_ref):
        raise AssertionError("propagation disagrees with the reference convolution")


@contextmanager
def checking_words():
    """Collect every engine stepped inside the block, by wrapping
    `Engine.step`, and `check_words` each one when the block ends without
    an exception; yields the engines collected, a dict by id, for tests
    that call `run` and never see its engine."""
    engines = {}
    step = Engine.step

    def collecting_step(eng, t, draws=None):
        engines[id(eng)] = eng
        return step(eng, t, draws)

    Engine.step = collecting_step
    try:
        yield engines
    finally:
        Engine.step = step
    for eng in engines.values():
        check_words(eng)


def degrees_ref(eng) -> dict[int, int]:
    """L_v per node from the unpacked columns `f_of(eng)`: the last step at
    which an edge into v (out of the source, for the source) has a nonzero
    column, -1 if none."""
    net, f = eng.net, f_of(eng)

    def degree(e: int) -> int:
        return max((t for t, col in enumerate(f[e]) if any(col)), default=-1)

    return {
        v: max(map(degree, net.out_edges[v] if v == net.source else net.in_edges[v]), default=-1)
        for v in range(net.num_nodes)
    }


def pinned_draws(eng, t: int, kernels: dict, rng: np.random.Generator | None = None) -> list:
    """Values of `eng.rng_slots(t)` in order, for `eng.step(t, draws=)`:
    coefficient t of the pinned kernel of each slot in `kernels` (0 past
    its end), an rng draw for every other slot. The rng draws one value per
    slot as the engine does, so with nothing pinned the values are the ones
    `eng.step(t)` would draw from the same rng."""
    slots = eng.rng_slots(t)
    draws = rng.integers(0, eng.q, size=len(slots)).tolist() if rng is not None else [None] * len(slots)
    for i, pair in enumerate(slots):
        if pair in kernels:
            kernel = kernels[pair]
            draws[i] = kernel[t] if t < len(kernel) else 0
    return draws


def rng_slots_ref(net: Network, m: int, source_mode: str, t: int, acked, done: bool) -> list:
    """Draw slots of step t by the full scan over every drawing pair that
    the engine's pruned live list replaced: the source's coding out-edges
    (all but the first m in identity mode) with inputs d_0..d_{m-1}, then
    each node with two or more parents and out-edges, by id, in `net.pairs`
    order; pairs toward an acked child and masked pairs at t=0 are
    skipped, and a finished run draws nothing."""
    if done:
        return []
    src = net.source
    inputs = range(len(net.edges), len(net.edges) + m)
    relayed = net.out_edges[src][:m] if source_mode == SOURCE_IDENTITY else []
    pairs = [(d, e) for e in net.out_edges[src] if e not in relayed for d in inputs]
    for v in range(net.num_nodes):
        if v != src and net.out_edges[v] and len(net.in_edges[v]) >= 2:
            pairs += net.pairs[v]
    return [
        pair for pair in pairs
        if not acked[net.head(pair[1])] and not (t == 0 and pair in net.zero_mask)
    ]


def relay_kernels_ref(net: Network, m: int, source_mode: str) -> dict:
    """The fixed kernel of every relay pair: [1], or [0, 1] on a masked
    pair. Relays are the non-source nodes with one parent and out-edges;
    in identity mode the first m source edges relay the inputs
    d_0..d_{m-1} too."""
    relay_pairs = [
        pair for v in range(net.num_nodes)
        if v != net.source and net.out_edges[v] and len(net.in_edges[v]) == 1
        for pair in net.pairs[v]
    ]
    if source_mode == SOURCE_IDENTITY:
        relay_pairs += [(len(net.edges) + j, e) for j, e in enumerate(net.out_edges[net.source][:m])]
    return {pair: [0, 1] if pair in net.zero_mask else [1] for pair in relay_pairs}


class PairKernelsRef:
    """The per-pair kernel bookkeeping that the engine's coefficient rows
    per coded edge replaced: one list per adjacent pair, each step's value
    of a slot appended to that slot's own pair, then at t=0 a forced 0
    appended to every masked drawing pair. Relay kernels are fixed: [1], or
    [0, 1] on a masked pair; in identity mode the first m source edges relay
    the inputs d_0..d_{m-1}."""

    def __init__(self, net: Network, m: int, source_mode: str):
        self.mask = net.zero_mask
        # every drawing pair: the slots of a step after t=0 with nothing acked
        self.drawing = rng_slots_ref(net, m, source_mode, 1, [False] * net.num_nodes, False)
        self.kernels = {pair: [] for pair in self.drawing}
        self.kernels.update(relay_kernels_ref(net, m, source_mode))

    def record(self, t: int, slots: list, vals: list) -> None:
        """Book step t's values of `slots`, the engine's `rng_slots(t)`."""
        assert len(slots) == len(vals)
        for pair, val in zip(slots, vals):
            self.kernels[pair].append(val)
        if t == 0:
            for pair in self.drawing:
                if pair in self.mask:
                    self.kernels[pair].append(0)


def propagate_acks_ref(net: Network, decoded, acked: list, ack_log: list, t: int) -> None:
    """The least-fixpoint ack pass that the counted cascade replaced:
    repeated ascending sweeps over the node ids until nothing changes. A
    node acks when it is not an undecoded sink and every child has acked;
    `acked` and `ack_log` are updated in place."""
    children = [{net.head(e) for e in net.out_edges[v]} for v in range(net.num_nodes)]
    changed = True
    while changed:
        changed = False
        for v in range(net.num_nodes):
            if acked[v] or (v in net.sinks and v not in decoded):
                continue
            if all(acked[c] for c in children[v]):
                acked[v] = True
                ack_log.append((t, v))
                changed = True


# -- exhaustive distribution oracle ------------------------------------------------


def exact_dist_oracle(
    net: Network,
    q: int,
    horizon: int,
    source_mode: str = SOURCE_RANDOM,
    max_slots: int = 16,
) -> dict[int, list[float]]:
    """Exact per-sink P(T_r >= t) tables by enumerating every kernel draw
    sequence with equal weight, t = 0..horizon+1.

    All weights are powers of 1/q, so for q = 2^k the returned floats are
    exact dyadic rationals. Raises when a step would need more than
    max_slots simultaneous draws, and for a negative horizon.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    base = Engine(net, q, rng=None, source_mode=source_mode)
    p_eq = {r: [0.0] * (horizon + 1) for r in base.sink_order}

    def replay(prefix) -> Engine:
        # a fresh engine stepped through one branch's draws; m is passed so
        # no branch reruns max-flow
        eng = Engine(net, q, rng=None, m=base.m, source_mode=source_mode)
        for t, draws in enumerate(prefix):
            eng.step(t, draws=draws)
        return eng

    def recurse(eng: Engine, prefix: list, weight: float) -> None:
        t = len(prefix)
        slots = eng.rng_slots(t)
        if len(slots) > max_slots:
            raise ValueError(
                f"{len(slots)} draws per step is too large to enumerate exactly"
            )
        w = weight / (q ** len(slots))
        for assignment in product(range(q), repeat=len(slots)):
            child = replay(prefix)
            newly = child.step(t, draws=assignment)
            for r in newly:
                p_eq[r][t] += w
            if child.done_t is None and t < horizon:
                recurse(child, prefix + [assignment], w)

    recurse(base, [], 1.0)
    tables = {}
    for r in base.sink_order:
        tail = [1.0]
        for t in range(horizon + 1):
            tail.append(tail[-1] - p_eq[r][t])
        tables[r] = tail
    return tables


# -- exact alternating-sum bounds -------------------------------------------------


def et_ub_ref(m: int, q: int) -> Fraction:
    """sum_k (-1)^(k-1) C(m,k) / (q^k - 1), exactly."""
    return sum(
        (Fraction((-1) ** (k - 1) * comb(m, k), q**k - 1) for k in range(1, m + 1)),
        Fraction(0),
    )


def et_lb_ref(m: int, q: int) -> Fraction:
    """sum_k (-1)^(k-1) C(m,k) / (q^(k m) - 1), exactly."""
    return sum(
        (Fraction((-1) ** (k - 1) * comb(m, k), q ** (k * m) - 1) for k in range(1, m + 1)),
        Fraction(0),
    )


def et_n_ub_ref(d: int, q: int, eta: int) -> Fraction:
    """ceil(log_q d) - 1 + sum_k (-1)^(k-1) C(eta,k) d^k / (q^(ceil(log_q d) k) - 1)
    for d >= 2; for d = 1, -1 + sum_k (-1)^(k-1) C(eta,k) q^k / (q^k - 1)
    clamped at 0, exactly."""
    if d == 1:
        total = Fraction(-1) + sum(
            (
                Fraction((-1) ** (k - 1) * comb(eta, k) * q**k, q**k - 1)
                for k in range(1, eta + 1)
            ),
            Fraction(0),
        )
        return max(Fraction(0), total)
    t0 = 0
    while q**t0 < d:
        t0 += 1
    return Fraction(t0 - 1) + sum(
        (
            Fraction((-1) ** (k - 1) * comb(eta, k) * d**k, q ** (t0 * k) - 1)
            for k in range(1, eta + 1)
        ),
        Fraction(0),
    )


def var_t_avg_ub_ref(n: int, m: int, q: int) -> dict[str, Fraction]:
    """The variance bound of `arcnc.metrics.var_t_avg_ub` and its parts
    (et2_ub, rho_ub, delta_over_d, value), exactly."""
    d = comb(n, m)
    et_ub_f = et_ub_ref(m, q)
    et2_ub = et_ub_f + 2 * sum(
        (
            Fraction((-1) ** (k - 1) * comb(m, k)) * Fraction(q**k, q**k - 1) ** 2
            for k in range(1, m + 1)
        ),
        Fraction(0),
    )
    if m == 1:
        rho_ub = Fraction(0)
    else:
        rho_ub = max(et_ub_f * et_ub_ref(m - lam, q) for lam in range(1, m))
    delta = d - 1 - comb(n - m, m)
    value = et2_ub / d + Fraction(delta, d) * rho_ub - Fraction(delta + 1, d) * et_lb_ref(m, q) ** 2
    return {"et2_ub": et2_ub, "rho_ub": rho_ub, "delta_over_d": Fraction(delta, d), "value": value}
