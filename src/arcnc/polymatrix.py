"""GF(q) row reduction and the decode machinery built on it.

One routine, `reduce_row`, does every elimination: the constant-matrix
rank and the incremental rank cache of the block upper-triangular decode
matrix M_{r,t}, which is both the decodability test and the decoder solve.
The test is one rank condition, rank(M_{r,t}) - rank(M_{r,t-1}) = m; the
column-rank condition rank(F_0 | ... | F_t) = m follows from it and is not
kept apart. Rows pivot on their highest lane and carry tags, so once the
test fires the decoder D is read from the cache (`solve_decoder`).

Every matrix row is one Python int, column j in bits [jk, (j+1)k) for
q = 2^k (`pack`, `unpack`): adding rows is one XOR and scaling a row is
`GF.mul_lanes`. The rank cache reads its rows from the engine's edge words,
one packed int per in-edge and step with the column f_e[t] in lanes 0..m-1
and the symbol y_e[t] in lane m. A sink's decoder transposes those words
once (`kernel_rows`) into the rows of F_r(z) and the received stream, and
decodes the packed stream into packed x_t (`sequential_decode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .gf import GF

__all__ = [
    "RankCache",
    "pack",
    "unpack",
    "reduce_row",
    "rank_gf",
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


def reduce_row(field: GF, basis: dict, row: int, tag: int) -> int | None:
    """Reduce a packed row against an echelon basis; store it if it adds rank.

    Column j of the row is lane j, bits [jk, (j+1)k), and a row pivots on
    its highest nonzero lane. basis maps a pivot column to its stored
    (row, tag), the row 1 at the pivot and 0 in every higher lane. The tag
    is XORed and scaled with its row: with each fed row tagged by its own
    unit, a stored tag names the combination of fed rows its row is.
    Returns the new pivot column, or None when the row lies in the span.
    """
    k = field.k
    mask = field.q - 1
    mul_lanes = field.mul_lanes
    while row:
        j = (row.bit_length() - 1) // k
        c = row >> (j * k) & mask
        pivot = basis.get(j)
        if pivot is None:
            if c != 1:
                c = field.inv(c)
                row, tag = mul_lanes(c, row), mul_lanes(c, tag)
            basis[j] = (row, tag)
            return j
        pivot_row, pivot_tag = pivot
        if c != 1:
            pivot_row, pivot_tag = mul_lanes(c, pivot_row), mul_lanes(c, pivot_tag)
        row ^= pivot_row
        tag ^= pivot_tag
    return None


def rank_gf(field: GF, mat) -> int:
    """Row rank of a constant matrix over GF(q)."""
    basis: dict = {}
    for row in mat:
        reduce_row(field, basis, pack(field.k, row), 0)
    return len(basis)


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
    (F_c[:, e], ..., F_0[:, e]) in blocks of m lanes (block b for block-row
    b of M), and the rows of M_{t-1}^T are rows of M_t^T (zero in the new
    block), so the reduced basis is reused and the rank step is the number
    of the in_deg new rows that yield pivots: row_e(t) = col_e(t) |
    row_e(t-1) << (m * k). Row (c, e) is tagged with the unit in lane
    c * in_deg + e.
    """

    field: GF
    m: int
    words: list
    t_last: int = -1
    rank_last: int = 0
    deltas: list = dataclass_field(default_factory=list)
    _basis: dict = dataclass_field(default_factory=dict)  # pivot col -> packed (row, tag)
    _rows: dict = dataclass_field(default_factory=dict, repr=False)  # in-edge e -> packed row_e

    def advance(self, t: int) -> None:
        """Catch up through time t on the words."""
        field, basis, rows = self.field, self._basis, self._rows
        k = field.k
        shift = self.m * k
        colmask = (1 << shift) - 1
        while self.t_last < t:
            step = self.t_last + 1
            for e, hist in enumerate(self.words):
                rows[e] = hist[step] & colmask | rows.get(e, 0) << shift
            unit = 1 << step * len(self.words) * k  # the tag of row (step, 0)
            added = sum(reduce_row(field, basis, row, unit << e * k) is not None for e, row in rows.items())
            self.t_last = step
            self.rank_last += added
            self.deltas.append(added)

    def keep_decoder(self) -> None:
        """Keep only the block-0 pivots `solve_decoder` reads; no advance after."""
        self._basis = {j: self._basis[j] for j in range(self.m) if j in self._basis}
        self._rows = None


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


def solve_decoder(cache: RankCache) -> list[int]:
    """The decoder D with M D = (I_m over zeros), M the decode matrix at the
    cache's last step t, as (t+1) * in_deg rows of m lanes.

    Column i of D names rows of M^T that sum to the unit in lane i. With
    highest-lane pivots, the row space's part in block 0 (lanes 0..m-1) is
    spanned by the basis rows pivoted there, so D exists iff all m pivots
    of block 0 do; made unit rows, their tags are D's columns. A missing
    pivot is an internal fault, as the test fired (AssertionError).
    """
    field, m, basis = cache.field, cache.m, cache._basis
    k, lane = field.k, field.q - 1
    if any(i not in basis for i in range(m)):
        raise AssertionError("decode system inconsistent; decodability test disagrees")
    # pivot i's row is 1 in lane i, 0 above: the unit rows below clear the rest
    cols: list[int] = []
    for i in range(m):
        row, tag = basis[i]
        for j, col in enumerate(cols):
            c = row >> j * k & lane
            if c:
                tag ^= col if c == 1 else field.mul_lanes(c, col)
        cols.append(tag)
    return kernel_rows(field, [cols], m, (cache.t_last + 1) * len(cache.words))


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
