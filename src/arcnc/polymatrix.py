"""GF(q) row reduction and the decode machinery built on it.

One routine, `reduce_row`, does every elimination: the incremental rank
cache behind the decodability test for the block upper-triangular decode
matrix M_{r,t}, the constant-matrix rank, and the decoder solve. The test is
one rank condition, rank(M_{r,t}) - rank(M_{r,t-1}) = m; the column-rank
condition rank(F_0 | ... | F_t) = m follows from it and is not kept apart. The
module also runs sequential stream decoding.

Every matrix row is one Python int, column j in bits [jk, (j+1)k) for
q = 2^k (`pack`, `unpack`): adding rows is one XOR and scaling a row is
`GF.mul_lanes`. The rank cache reads its rows from the engine's edge words,
one packed int per in-edge and step with the column f_e[t] in lanes 0..m-1
and the symbol y_e[t] in lane m. A sink's decoder transposes those words
once (`kernel_rows`) into the rows of F_r(z) and the received stream, cuts
the decode matrix from the F rows (`build_M`), and decodes the packed
stream into packed x_t (`sequential_decode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

from .gf import GF

__all__ = [
    "RankCache",
    "pack",
    "unpack",
    "reduce_row",
    "rank_gf",
    "solve_linear",
    "kernel_rows",
    "build_M",
    "decodability_test",
    "solve_decoder",
    "SinkDecoder",
    "sequential_decode",
]


# -- packed rows -----------------------------------------------------------------


def pack(k: int, entries) -> int:
    """Pack GF(2^k) elements into one int, entry j in bits [jk, (j+1)k)."""
    v = 0
    for a in reversed(entries):
        # int() first: a NumPy int64 shifted past bit 63 wraps without an error
        v = v << k | int(a)
    return v


def unpack(k: int, v: int, n: int) -> list[int]:
    """The first n lanes of a packed row as a list of ints."""
    mask = (1 << k) - 1
    return [v >> (j * k) & mask for j in range(n)]


# -- row reduction -----------------------------------------------------------------


def reduce_row(field: GF, basis: dict, row: int) -> int | None:
    """Reduce a packed row against an echelon basis; store it if it adds rank.

    Column j of the row is lane j, bits [jk, (j+1)k), so the leftmost nonzero
    column is the lane of the lowest set bit. basis maps a pivot column to its
    stored packed row: 1 at the pivot, 0 left of it. Adding a row is one XOR
    and scaling one is `GF.mul_lanes`. Returns the new pivot column, or None
    when the row lies in the span of the basis.
    """
    k = field.k
    mask = field.q - 1
    while row:
        j = ((row & -row).bit_length() - 1) // k
        c = row >> (j * k) & mask
        pivot_row = basis.get(j)
        if pivot_row is None:
            if c != 1:
                row = field.mul_lanes(field.inv(c), row)
            basis[j] = row
            return j
        row ^= pivot_row if c == 1 else field.mul_lanes(c, pivot_row)
    return None


def rank_gf(field: GF, mat) -> int:
    """Row rank of a constant matrix over GF(q)."""
    basis: dict = {}
    for row in mat:
        reduce_row(field, basis, pack(field.k, row))
    return len(basis)


def solve_linear(field: GF, rows, n_a: int, n_b: int):
    """Solve A X = B over GF(q) for packed rows (A | B), A in lanes
    0..n_a-1 and B in the n_b lanes above; returns X as n_a rows packed in
    n_b lanes, free variables at 0, or None when the system is inconsistent."""
    k = field.k
    shift = n_a * k
    mask = field.q - 1
    basis: dict = {}
    for row in rows:
        pivot = reduce_row(field, basis, row)
        if pivot is not None and pivot >= n_a:
            return None
    x_packed: dict = {}
    # pivots right to left: each row's later pivot variables are already known
    for p in sorted(basis, reverse=True):
        row = basis[p]
        x_p = row >> shift
        for later, x_later in x_packed.items():
            c = row >> (later * k) & mask
            if c:
                x_p ^= field.mul_lanes(c, x_later)
        x_packed[p] = x_p
    return [x_packed.get(col, 0) for col in range(n_a)]


def kernel_rows(field: GF, words, blocks: int, lanes: int) -> list[int]:
    """Transpose a sink's in-edge words over their first `blocks` steps into
    one packed row per word lane: lane c * in_deg + e of row j holds lane j
    of words[e][c]. Rows 0..m-1 are F_r(z) (row j holds F_c[j][e]); with
    lanes = m + 1, row m is the received stream, y_e[c] in lane
    c * in_deg + e. Word lanes from `lanes` up are ignored."""
    k = field.k
    step = len(words) * k
    lane = field.q - 1
    keep = (1 << lanes * k) - 1
    rows = [0] * lanes
    for e, hist in enumerate(words):
        at = e * k  # bit offset of lane c * in_deg + e
        for word in hist[:blocks]:
            word &= keep
            j = 0
            while word:
                v = word & lane
                if v:
                    rows[j] |= v << at
                word >>= k
                j += 1
            at += step
    return rows


def build_M(field: GF, f_rows, in_deg: int, steps: int) -> list[int]:
    """Packed rows of the decode matrix M over `steps` blocks from the rows
    of F_r(z) (`kernel_rows`, over `steps` blocks or more).

    Block-row b is those rows shifted b * in_deg lanes up and cut to
    steps * in_deg lanes.
    """
    shift = in_deg * field.k
    width = (1 << steps * shift) - 1
    return [row << b * shift & width for b in range(steps) for row in f_rows]


# -- decodability ---------------------------------------------------------------


@dataclass
class RankCache:
    """Incremental rank state of the decode matrix M_{r,t}, on its transpose.

    `words` holds one packed history per in-edge (the engine's edge words),
    col_e(t) being lanes 0..m-1 of words[e][t]. Row (c, e) of M_t^T is
    (F_c[:, e], ..., F_0[:, e]) in blocks of m lanes, and the rows of
    M_{t-1}^T are rows of M_t^T (zero in the new block), so the reduced basis
    is reused and the rank step is the number of the in_deg new rows that
    yield pivots: row_e(t) = col_e(t) | row_e(t-1) << (m * k).
    """

    field: GF
    m: int
    words: list
    t_last: int = -1
    rank_last: int = 0
    deltas: list = dataclass_field(default_factory=list)
    _basis: dict = dataclass_field(default_factory=dict)  # pivot col -> packed row
    _rows: dict = dataclass_field(default_factory=dict, repr=False)  # in-edge e -> packed row_e

    def advance(self, t: int) -> None:
        """Catch up through time t on the words."""
        field, basis, rows = self.field, self._basis, self._rows
        shift = self.m * field.k
        colmask = (1 << shift) - 1
        while self.t_last < t:
            step = self.t_last + 1
            for e, hist in enumerate(self.words):
                rows[e] = hist[step] & colmask | rows.get(e, 0) << shift
            added = sum(reduce_row(field, basis, row) is not None for row in rows.values())
            self.t_last = step
            self.rank_last += added
            self.deltas.append(added)


def decodability_test(cache: RankCache, t: int) -> bool:
    """Full-rank test at time t: rank(M_t) - rank(M_{t-1}) = m.

    This condition is necessary and sufficient, and it is evaluated through
    the incremental cache, which catches up lazily on the words up to t.
    The weaker condition rank(F_0 | F_1 | ... | F_t) = m is implied and not
    tested separately: with its column blocks reversed, M_t is M_{t-1} plus
    the m new rows (F_t | ... | F_0), so a rank step of m makes them
    independent.
    """
    cache.advance(t)
    return cache.deltas[t] == cache.m


def solve_decoder(field: GF, m_rows, m: int, in_deg: int) -> list[int]:
    """Solve M D = (I_m over zeros) for the decoder matrix D, M given by
    its packed rows (`build_M`); D is (t+1) * in_deg rows of m lanes.

    The lexicographically first m-subset of incoming streams whose
    restricted system is solvable is used: every row is ANDed with that
    subset's lanes, so D has zero rows for the other streams. One always is
    when all streams are: for the S of least-order m x m minor, d_i(F)
    divides d_i(F_S) with d_m equal, so F_S keeps F's delay. An inconsistent
    system is an internal fault, as the decodability test fired
    (AssertionError).
    """
    k = field.k
    steps = len(m_rows) // m
    cols = steps * in_deg
    # the identity block of the target, in the first m rows
    rows = [row | 1 << (cols + i) * k if i < m else row for i, row in enumerate(m_rows)]
    every_step = sum(1 << b * in_deg * k for b in range(steps))
    target = ((1 << m * k) - 1) << cols * k
    for subset in combinations(range(in_deg), m):
        # the subset's lanes of one block, copied into every block without carries
        keep = sum((field.q - 1) << e * k for e in subset) * every_step | target
        d = solve_linear(field, [row & keep for row in rows], cols, m)
        if d is not None:
            return d
    raise AssertionError("decode system inconsistent; decodability test disagrees")


@dataclass
class SinkDecoder:
    """Everything a sink needs to decode its received stream, as packed rows.

    `f_rows` and `y_row` are one transposition of the sink's in-edge words
    over their first `blocks` steps (`kernel_rows` with m + 1 lanes): the m
    rows of F_r(z) and the received stream, y_e[s] in lane s * in_deg + e,
    both snapshots at build time.
    """

    field: GF
    m: int
    in_deg: int
    t_r: int
    d_rows: list  # (t_r+1)*in_deg rows of D, m lanes each
    f_rows: list  # m rows of F_r(z)
    y_row: int  # the received stream
    blocks: int  # steps the rows cover: coefficient blocks F_0, F_1, ... and received symbols


def sequential_decode(dec: SinkDecoder, y: int, n: int) -> list[int]:
    """Recover x_0, x_1, ... from a packed received stream of n steps.

    y holds y_e[s] in lane s * in_deg + e, as in the rows of F_r(z). x_t
    emerges exactly t_r steps behind the received stream: decoding x_t
    consumes the corrected window y_t..y_{t+t_r} with the contributions of
    the already-decoded x_0..x_{t-1} subtracted out. Returns x_t packed in m
    lanes per decoded step.

    x_t sums the window's symbols times their rows of D, and one XOR of the
    sum of x_t[j] times row j of F_r(z) takes x_t out of every later step.
    F_r(z) is not cut off at a degree: on cyclic networks it is rational and
    nonzero blocks keep coming, so a stream longer than `dec.blocks` raises
    ValueError instead of taking the missing blocks as zero: rebuild the
    decoder after the engine steps. So does a stream with symbols beyond
    its n steps.
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
        # subtract x_t's future contributions so later windows stay clean,
        # then move the window one step on
        if x_t:
            for at, f in f_rows:
                c = x_t >> at & lane
                if c:
                    y ^= f if c == 1 else mul_lanes(c, f)
        y >>= block
    return out
