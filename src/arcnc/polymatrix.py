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
and the symbol y_e[t] in lane m. A row depends only on its in-edge's
history, so the caches of the sinks one history feeds share its current
row. `kernel_rows` transposes those words into the rows of F_r(z) and the
received stream. `sequential_decode` checks every sink's decode against
the source stream: up to a sink's first wrong step its corrected windows
are those of one residual stream per history, transposed once and shared
by every sink the history feeds.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dataclass_field

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
    """Transpose in-edge words over their first `blocks` steps into one
    packed row per word lane: lane c * in_deg + e of row j holds lane j of
    words[e][c], in_deg = len(words). Rows 0..m-1 are F_r(z) (row j holds
    F_c[j][e]); with lanes = m + 1, row m is the received stream, y_e[c] in
    lane c * in_deg + e. Word lanes from `lanes` up are ignored."""
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

    row_e(t) depends only on in-edge e's history, so `rows`, when given,
    holds one cell [step, row_e(step)] per in-edge, which the caches of
    every sink fed by that history share (the engine keys them by history):
    the first cache to reach a step rebuilds the cell, and the others read
    it. Caches that share a cell must advance in step, as the engine's do;
    one that falls behind its cell raises. Without `rows` the cache keeps
    private cells.
    """

    field: GF
    m: int
    words: list
    rows: InitVar[list | None] = None
    t_last: int = -1
    rank_last: int = 0
    deltas: list = dataclass_field(default_factory=list)
    _basis: dict = dataclass_field(default_factory=dict)  # pivot col -> packed (row, tag)
    _rows: list = dataclass_field(init=False, repr=False)  # in-edge e -> [step, row_e(step)]

    def __post_init__(self, rows) -> None:
        self._rows = [[-1, 0] for _ in self.words] if rows is None else rows

    def advance(self, t: int) -> None:
        """Catch up through time t on the words."""
        field, basis = self.field, self._basis
        k = field.k
        shift = self.m * k
        colmask = (1 << shift) - 1
        words, cells = self.words, self._rows
        while self.t_last < t:
            step = self.t_last + 1
            unit = 1 << step * len(words) * k  # the tag of row (step, 0)
            added = 0
            for hist, cell in zip(words, cells):
                at, row = cell
                if at != step:  # the first cache on this history at this step
                    if at != step - 1:
                        raise ValueError(f"a cache at step {step} shares a row cell at step {at}")
                    row = hist[step] & colmask | row << shift
                    cell[:] = step, row
                if reduce_row(field, basis, row, unit) is not None:
                    added += 1
                unit <<= k
            self.t_last = step
            self.rank_last += added
            self.deltas.append(added)

    def keep_decoder(self) -> None:
        """Keep only the block-0 pivots `solve_decoder` reads, and drop the
        (shared) row cells; no advance after."""
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


def sequential_decode(field: GF, m: int, hists: list, x: list[int], sinks) -> list[int | None]:
    """Check every sink's sequential decode of the source stream x, packed
    x_t in m lanes per step, over n = len(x) received steps; returns each
    sink's first step t with a decoded x_t != x[t], or None.

    `hists` are the edge-word histories and each sink is (t_r, the history
    of each in-edge, D as (t_r+1)*in_deg rows of m lanes). x_t emerges t_r
    steps behind the received stream: it is the window y_t..y_{t+t_r} times
    D, with the contributions of x_0..x_{t-1} taken out. Up to a sink's
    first wrong step its decoded x_u are the true ones, so its windows are
    those of one residual stream per history, the received symbols minus the
    true x_0..x_{t-1} times the history's column, shared by every sink the
    history feeds. Each step every live sink reads its D window over its
    histories' residuals, then the true x_t is taken out of each residual.
    Histories shorter than n steps and sinks with fewer than t_r + 1
    received steps raise ValueError.
    """
    n = len(x)
    k, lane, mul_lanes = field.k, field.q - 1, field.mul_lanes
    slot: dict[int, int] = {}  # history -> its residual's index
    resid, f_rows = [], []
    checks = []  # (sink index, steps it decodes, taps (residual, lane offset, D row))
    for i, (t_r, sink_hists, d_rows) in enumerate(sinks):
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
