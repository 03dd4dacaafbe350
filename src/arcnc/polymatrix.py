"""Polynomials and polynomial matrices over GF(2^k).

Storage is coefficient-major: a polynomial matrix is a list of constant
numpy int64 matrices C_0..C_L, where C_i holds the z^i coefficients.
Trailing all-zero coefficient matrices are trimmed, so the degree is
canonical; the zero matrix has degree -1.

This module also houses the decode machinery: the per-time-step kernel
convolution, the two-stage decodability test with an incremental rank
cache for the block upper-triangular decode matrix, the decoder solve,
and sequential stream decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

import numpy as np

from .gf import GF

__all__ = [
    "PolyMatrix",
    "RankCache",
    "conv_step",
    "encode_symbol",
    "rank_gf",
    "build_M",
    "decodability_test",
    "solve_decoder",
    "SinkDecoder",
    "sequential_decode",
    "det_nonzero_oracle",
]


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


# -- kernel convolutions -------------------------------------------------------


def conv_step(field: GF, f_in, k_in, t: int) -> np.ndarray:
    """Coefficient of z^t of sum_parents k_{e',e}(z) * f_{e'}(z).

    f_in: per-parent list of coefficient columns (each a length-m vector);
    k_in: per-parent list of kernel coefficients. A parent's f at index t-i
    is only read when k[i] is nonzero, which is what makes the zero mask
    sufficient for cyclic propagation in edge-index order.
    """
    if len(f_in) != len(k_in):
        raise ValueError(f"{len(f_in)} parent streams vs {len(k_in)} kernels")
    if not f_in:
        raise ValueError("node has no parents")
    m = len(f_in[0][0]) if f_in[0] else None
    out = None
    for f_hist, kernel in zip(f_in, k_in):
        if m is None and f_hist:
            m = len(f_hist[0])
        for i in range(min(t, len(kernel) - 1) + 1):
            c = kernel[i]
            if not c:
                continue
            if t - i >= len(f_hist):
                raise ValueError(f"missing kernel coefficient at index {t - i}")
            col = np.asarray(f_hist[t - i], dtype=np.int64)
            if out is None:
                out = field.mul_vec(c, col)
            elif col.shape != out.shape:
                raise ValueError("parent column dimensions disagree")
            else:
                out ^= field.mul_vec(c, col)
    if out is None:
        if m is None:
            raise ValueError("cannot infer column height from empty histories")
        out = np.zeros(m, dtype=np.int64)
    return out


def encode_symbol(field: GF, y_hist, k_in, t: int) -> int:
    """Data symbol on an out-edge at time t: the scalar convolution of
    per-parent symbol histories with the local kernels."""
    if len(y_hist) != len(k_in):
        raise ValueError(f"{len(y_hist)} histories vs {len(k_in)} kernels")
    acc = 0
    for hist, kernel in zip(y_hist, k_in):
        for i in range(min(t, len(kernel) - 1) + 1):
            c = kernel[i]
            if not c:
                continue
            if t - i >= len(hist):
                raise ValueError(f"missing history symbol at index {t - i}")
            acc ^= field.mul(c, hist[t - i])
    return acc


# -- constant-matrix linear algebra --------------------------------------------


def rank_gf(field: GF, mat) -> int:
    """Row rank over GF(q) by Gaussian elimination."""
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rank_gf expects a 2-D matrix")
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
            a[rank] = field.mul_vec(field.inv(int(a[rank, c])), a[rank])
        for r in range(rank + 1, rows):
            if a[r, c]:
                a[r] ^= field.mul_vec(int(a[r, c]), a[rank])
        rank += 1
        if rank == rows:
            break
    return rank


def solve_linear(field: GF, a, b):
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
            aug[r] = field.mul_vec(field.inv(int(aug[r, c])), aug[r])
        for rr in range(rows):
            if rr != r and aug[rr, c]:
                aug[rr] ^= field.mul_vec(int(aug[rr, c]), aug[r])
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


def build_M(blocks) -> np.ndarray:
    """Block upper-triangular decode matrix from coefficient blocks F_0..F_i.

    F_0 sits on the diagonal and F_j on the j-th superdiagonal, giving a
    matrix of shape ((i+1)m, (i+1)n) for m x n blocks.
    """
    blocks = [np.asarray(blk, dtype=np.int64) for blk in blocks]
    m, n = blocks[0].shape
    if any(blk.shape != (m, n) for blk in blocks):
        raise ValueError("coefficient blocks must share one shape")
    steps = len(blocks)
    out = np.zeros((steps * m, steps * n), dtype=np.int64)
    for b in range(steps):
        for c in range(b, steps):
            out[b * m : (b + 1) * m, c * n : (c + 1) * n] = blocks[c - b]
    return out


# -- decodability ---------------------------------------------------------------


@dataclass
class RankCache:
    """Incremental rank state of the decode matrix M_{r,t}.

    Rows are kept in a column-reversed layout where the rows of M_{r,t} are
    exactly the rows of M_{r,t-1} plus the m new rows (F_t, ..., F_0); the
    reduced basis from the previous step is therefore reused as is, and the
    per-step rank increment is the number of new rows that yield pivots.
    The cache also tracks the column space of (F_0 | ... | F_t) for the
    cheap necessary condition.
    """

    field: GF
    m: int
    in_deg: int
    t_last: int = -1
    rank_last: int = 0
    deltas: list = dataclass_field(default_factory=list)
    _basis: dict = dataclass_field(default_factory=dict)  # pivot col -> row
    cols_done: int = 0
    col_rank: int = 0
    _col_basis: dict = dataclass_field(default_factory=dict)  # pivot row -> column

    def advance(self, blocks, t: int) -> None:
        """Consume coefficient blocks up through time t (lazy catch-up)."""
        while self.t_last < t:
            step = self.t_last + 1
            if step >= len(blocks):
                raise ValueError(f"need coefficient block {step} to advance")
            rows = np.hstack([blocks[i] for i in range(step, -1, -1)])
            added = 0
            for row in rows:
                added += self._insert(row.copy())
            self.t_last = step
            self.rank_last += added
            self.deltas.append(added)

    def _insert(self, row: np.ndarray) -> int:
        field = self.field
        start = 0
        while True:
            nz = np.nonzero(row[start:])[0]
            if nz.size == 0:
                return 0
            j = start + int(nz[0])
            basis_row = self._basis.get(j)
            if basis_row is None:
                if row[j] != 1:
                    row = field.mul_vec(field.inv(int(row[j])), row)
                self._basis[j] = row
                return 1
            # basis rows from earlier steps are narrower; their tail is zero
            c = int(row[j])
            if c == 1:
                row[: basis_row.size] ^= basis_row
            else:
                row[: basis_row.size] ^= field.mul_vec(c, basis_row)
            start = j + 1  # everything at or left of the pivot is cancelled

    def track_columns(self, blocks, t: int) -> int:
        """Fold the columns of blocks up through index t into the tracked
        coefficient column space; returns its rank."""
        field = self.field
        while self.cols_done <= t:
            if self.cols_done >= len(blocks):
                raise ValueError(f"need coefficient block {self.cols_done}")
            if self.col_rank < self.m:
                for col in np.asarray(blocks[self.cols_done], dtype=np.int64).T:
                    col = col.copy()
                    while True:
                        nz = np.nonzero(col)[0]
                        if nz.size == 0:
                            break
                        j = int(nz[0])
                        basis_col = self._col_basis.get(j)
                        if basis_col is None:
                            if col[j] != 1:
                                col = field.mul_vec(field.inv(int(col[j])), col)
                            self._col_basis[j] = col
                            self.col_rank += 1
                            break
                        col ^= field.mul_vec(int(col[j]), basis_col)
            self.cols_done += 1
        return self.col_rank

    def clone(self) -> "RankCache":
        dup = RankCache(self.field, self.m, self.in_deg, self.t_last, self.rank_last)
        dup.deltas = list(self.deltas)
        dup._basis = dict(self._basis)  # basis rows are never mutated once stored
        dup.cols_done = self.cols_done
        dup.col_rank = self.col_rank
        dup._col_basis = dict(self._col_basis)
        return dup


def decodability_test(field: GF, blocks, t: int, cache: RankCache) -> bool:
    """Two-stage full-rank test at time t.

    Condition 1 (necessary, cheap): rank(F_0 | F_1 | ... | F_t) = m,
    tracked incrementally as coefficient columns arrive.
    Condition 2 (necessary and sufficient): rank(M_t) - rank(M_{t-1}) = m,
    evaluated through the incremental cache and only when condition 1 holds.
    """
    if cache.track_columns(blocks, t) != cache.m:
        return False
    cache.advance(blocks, t)
    return cache.deltas[t] == cache.m


def solve_decoder(field: GF, m_mat: np.ndarray, m: int, in_deg: int | None = None) -> np.ndarray:
    """Solve M D = (I_m over zeros) for the decoder matrix D.

    When in_deg > m, the lexicographically first m-subset of incoming
    streams whose restricted system is solvable is used, and D carries zero
    rows for the excluded streams; if no m-subset suffices at this time,
    all streams are used.
    """
    m_mat = np.asarray(m_mat, dtype=np.int64)
    rows, cols = m_mat.shape
    steps = rows // m
    target = np.zeros((rows, m), dtype=np.int64)
    target[:m, :m] = np.eye(m, dtype=np.int64)
    if in_deg is not None and in_deg > m:
        if steps * in_deg != cols:
            raise ValueError("in_deg inconsistent with decode matrix width")
        for subset in combinations(range(in_deg), m):
            colsel = [blk * in_deg + e for blk in range(steps) for e in subset]
            x = solve_linear(field, m_mat[:, colsel], target)
            if x is not None:
                d = np.zeros((cols, m), dtype=np.int64)
                d[colsel] = x
                return d
    x = solve_linear(field, m_mat, target)
    if x is None:
        raise ValueError("decode system inconsistent; decodability test disagrees")
    return x


@dataclass
class SinkDecoder:
    """Everything a sink needs to decode its received streams."""

    field: GF
    m: int
    in_deg: int
    t_r: int
    d_matrix: np.ndarray
    f_blocks: list  # live list of m x in_deg coefficient blocks of F_r(z)


def _nonzero_entries(rows) -> list[list[tuple[int, int]]]:
    """Per row of a nested int list, its (column, value) pairs with value != 0."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def sequential_decode(dec: SinkDecoder, y_stream) -> list[tuple[int, ...]]:
    """Recover x_0, x_1, ... from received rows y_0, y_1, ...

    x_t emerges exactly t_r steps behind the received stream: decoding x_t
    consumes the corrected window y_t..y_{t+t_r} with the contributions of
    the already-decoded x_0..x_{t-1} subtracted out. Returns one int tuple
    per decoded step.

    The rows are short (m or in_deg symbols), so the arithmetic runs on
    Python ints with the scalar field tables. Zero coefficient blocks of
    F_r(z) are skipped rather than cut off at a degree: on cyclic networks
    F_r(z) is rational and nonzero blocks keep coming.
    """
    mul = dec.field.mul
    window = dec.t_r + 1
    n = len(y_stream)
    if n < window:
        raise ValueError(f"need at least {window} received rows, got {n}")
    corrected = np.array(y_stream, dtype=np.int64)
    if corrected.shape != (n, dec.in_deg):
        raise ValueError("received rows must have one symbol per incoming edge")
    corrected = corrected.tolist()
    d_rows = _nonzero_entries(dec.d_matrix.tolist())
    future = [
        (c, _nonzero_entries(blk.tolist()))
        for c, blk in enumerate(dec.f_blocks)
        if 0 < c < n and blk.any()
    ]
    out = []
    for t in range(n - dec.t_r):
        x_t = [0] * dec.m
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
