"""GF(q) row reduction and the decode machinery built on it.

One routine, `reduce_row`, does every elimination: each sink's
incremental rank state of the block upper-triangular decode matrix
M_{r,t}, which is both the decodability test and the decoder solve. The test is one rank condition, rank(M_{r,t}) - rank(M_{r,t-1}) = m;
the column-rank condition rank(F_0 | ... | F_t) = m follows from it and is
not kept apart. Rows pivot on their highest lane and carry tags, so once
the test fires the decoder D is read from the sink's block-0 pivots
(`solve_decoder`).

Every matrix row is one Python int, column j in bits [jk, (j+1)k) for
q = 2^k (`pack`): adding rows is one XOR and scaling a row is
`GF.mul_lanes`. Over GF(2) a lane is one bit and every lead is 1, so
`reduce_row` takes a branch that pivots on the top bit and eliminates with
XORs alone. Pivots are kept as plain ints in two maps keyed by pivot
column, one of rows and one of tags. A sink's state (`SinkRank`) is only
those maps and its step count: the rows of M_{r,t}^T new at step t depend
only on the in-edges' histories, so the engine builds each history's row
once per step from its edge words (one packed int per in-edge and step,
the column f_e[t] in lanes 0..m-1 and the symbol y_e[t] in lane m), and
`decodability_test` reduces a sink's rows in one `reduce_row` call.
`kernel_rows` transposes words into rows of F_r(z), the received stream or
the source stream over time.
`sequential_decode` checks every step of every sink's decode against the
source stream at once, on streams packed over time: each sink-feeding
history builds its windows once, one per lag up to the largest delay of the
sinks it feeds, and each sink reads them through D's m columns, as
`solve_decoder` returns them.
"""

from __future__ import annotations

from .gf import GF

__all__ = [
    "SinkRank",
    "pack",
    "reduce_row",
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


# -- row reduction -----------------------------------------------------------------


def reduce_row(field: GF, basis: dict, tags: dict, rows, tag: int) -> int:
    """Reduce packed rows against an echelon basis in turn, storing each one
    that adds rank; returns how many did.

    Column j of a row is lane j, bits [jk, (j+1)k), and a row pivots on its
    highest nonzero lane. basis maps a pivot column to its stored row, 1 at
    the pivot and 0 in every higher lane, and tags maps it to that row's
    tag. Row i is fed with the tag shifted i lanes up, and a tag is XORed
    and scaled with its row: with each fed row tagged by its own unit, a
    stored tag names the combination of fed rows its row is. Over GF(2) a
    lane is one bit and every nonzero lead is 1, so that branch pivots on
    the top bit and eliminates with XORs alone.
    """
    k = field.k
    added = 0
    if k == 1:
        for row in rows:
            row_tag = tag
            while row:
                j = row.bit_length() - 1
                pivot = basis.get(j)
                if pivot is None:
                    basis[j] = row
                    tags[j] = row_tag
                    added += 1
                    break
                row ^= pivot
                row_tag ^= tags[j]
            tag <<= 1
        return added
    mask = field.q - 1
    mul_lanes = field.mul_lanes
    for row in rows:
        row_tag = tag
        while row:
            j = (row.bit_length() - 1) // k
            c = row >> (j * k) & mask
            pivot = basis.get(j)
            if pivot is None:
                if c != 1:
                    c = field.inv(c)
                    row, row_tag = mul_lanes(c, row), mul_lanes(c, row_tag)
                basis[j] = row
                tags[j] = row_tag
                added += 1
                break
            pivot_tag = tags[j]
            if c != 1:
                pivot, pivot_tag = mul_lanes(c, pivot), mul_lanes(c, pivot_tag)
            row ^= pivot
            row_tag ^= pivot_tag
        tag <<= k
    return added


def kernel_rows(field: GF, words, blocks: int, lanes: int) -> list[int]:
    """Transpose in-edge words over their first `blocks` steps into one
    packed row per word lane: lane c * in_deg + e of row j holds lane j of
    words[e][c], in_deg = len(words). Rows 0..m-1 are F_r(z) (row j holds
    F_c[j][e]); with lanes = m + 1, row m is the received stream, y_e[c] in
    lane c * in_deg + e. Word lanes from `lanes` up are ignored. On the
    packed source stream as the one history, row j holds x_t[j] in lane t."""
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


class SinkRank:
    """Rank state of one sink's decode matrix M_{r,t}, on its transpose: the
    echelon basis of the rows of M_t^T fed so far as two plain-int maps,
    `basis` (pivot column -> packed row) and `tags` (pivot column -> that
    row's packed tag), and the number of steps fed.

    Row (c, e) of M_t^T is (F_c[:, e], ..., F_0[:, e]) in blocks of m lanes
    (block b for block-row b of M), and the rows of M_{t-1}^T are rows of
    M_t^T (zero in the new block), so the basis is reused and step t feeds
    only the in_deg new rows, row_e(t) = col_e(t) | row_e(t-1) << (m * k).
    Row (c, e) is tagged with the unit in lane c * in_deg + e. The rows
    depend only on the in-edges' histories, so the engine builds them, once
    per history and step, and hands each sink its own.
    """

    __slots__ = ("field", "m", "basis", "tags", "steps")

    def __init__(self, field: GF, m: int):
        self.field = field
        self.m = m
        self.basis: dict[int, int] = {}
        self.tags: dict[int, int] = {}
        self.steps = 0


def decodability_test(sink: SinkRank, rows) -> bool:
    """Full-rank test at the sink's next step t: rank(M_t) - rank(M_{t-1}) = m.

    rows are the sink's rows of M_t^T new at t, one per in-edge
    (`SinkRank`); the rank step is the number of pivots they add. This
    condition is necessary and sufficient. The weaker condition
    rank(F_0 | F_1 | ... | F_t) = m is implied and not tested separately:
    with its column blocks reversed, M_t is M_{t-1} plus the m new rows
    (F_t | ... | F_0), so a rank step of m makes them independent.
    """
    t, field = sink.steps, sink.field
    sink.steps = t + 1
    return reduce_row(field, sink.basis, sink.tags, rows, 1 << t * len(rows) * field.k) == sink.m


def solve_decoder(sink: SinkRank) -> list[int]:
    """The decoder D with M D = (I_m over zeros), M the decode matrix at the
    sink's last step t, as its m columns: column i holds D[a][i] in lane a,
    a = c * in_deg + e over (t+1) * in_deg lanes.

    Column i of D names rows of M^T that sum to the unit in lane i. With
    highest-lane pivots, the row space's part in block 0 (lanes 0..m-1) is
    spanned by the basis rows pivoted there, so D exists iff all m pivots
    of block 0 do; made unit rows, their tags are D's columns, and they are
    all a decoded sink keeps. A missing pivot is an internal fault, as the
    test fired (AssertionError).
    """
    field, basis, tags = sink.field, sink.basis, sink.tags
    k, lane = field.k, field.q - 1
    # pivot i's row is 1 in lane i, 0 above: the unit rows below clear the rest
    cols: list[int] = []
    for i in range(sink.m):
        row = basis.get(i)
        if row is None:
            raise AssertionError("decode system inconsistent; decodability test disagrees")
        tag = tags[i]
        for j, col in enumerate(cols):
            c = row >> j * k & lane
            if c:
                tag ^= col if c == 1 else field.mul_lanes(c, col)
        cols.append(tag)
    return cols


def sequential_decode(field: GF, m: int, hists: list, x: list[int], sinks) -> list[int | None]:
    """Check every sink's sequential decode of the source stream x, packed
    x_t in m lanes per step, over n = len(x) received steps; returns each
    sink's first step t with a decoded x_t != x[t], or None.

    `hists` are the edge-word histories and each sink is (t_r, the history
    of each in-edge, D's m columns from `solve_decoder`). x_t is the window
    y_t..y_{t+t_r} times D, with the contributions of x_0..x_{t-1} taken
    out. Up to a sink's first wrong step those are the true x_u, so all
    steps are checked at once on streams packed over time: lane t of X_j
    holds x_t[j], and window W[h, c] is history h's received stream less
    f_h[l][j] X_j shifted l lanes up over every j and l > c, shifted c lanes
    down (lane t: y_h[t+c] with the true x_0..x_{t-1} taken out). A history
    builds W[h, c] for c up to the largest t_r of the sinks it feeds, in one
    pass. A sink's decoded stream i is the sum of D[a][i] W[h_e, c] over the
    nonzero lanes a = c * in_deg + e of D's column i, and its first wrong
    step is the lowest lane, over i, where that stream differs from X_i in
    its first n - t_r lanes. Histories shorter than n steps and sinks with
    fewer than t_r + 1 received steps raise ValueError.
    """
    n = len(x)
    k, lane, mul_lanes = field.k, field.q - 1, field.mul_lanes
    depth: dict[int, int] = {}  # history -> the largest t_r of the sinks it feeds
    for t_r, sink_hists, _ in sinks:
        if n < t_r + 1:
            raise ValueError(f"need at least {t_r + 1} received steps, got {n}")
        for h in sink_hists:
            if len(hists[h]) < n:
                raise ValueError(f"history {h} holds {len(hists[h])} steps, got {n} source steps")
            if depth.get(h, -1) < t_r:
                depth[h] = t_r
    xs = kernel_rows(field, [x], n, m)  # X_j: x_t[j] in lane t
    scaled = [{1: x_j} for x_j in xs]  # f -> f X_j, per j
    full, symbol, colmask = (1 << n * k) - 1, m * k, (1 << m * k) - 1
    windows = {}
    for h, top in depth.items():
        # downward over the steps: y_h[l] joins its lane, W[h, l] is taken
        # with only the x terms of l' > l in, then those of f_h[l] join
        hist, wins, v = hists[h], [0] * (top + 1), 0
        for l in range(n - 1, -1, -1):
            word = hist[l]
            at = l * k
            v ^= (word >> symbol & lane) << at
            if l <= top:
                wins[l] = (v & full) >> at
            col, j = word & colmask, 0
            while col:
                f = col & lane
                if f:
                    s = scaled[j].get(f)
                    if s is None:
                        s = scaled[j][f] = mul_lanes(f, xs[j])
                    v ^= s << at
                col >>= k
                j += 1
        windows[h] = wins
    bad: list[int | None] = []
    for t_r, sink_hists, d_cols in sinks:
        # window a = c * in_deg + e of the sink, in D's lane order
        flat = [windows[h][c] for c in range(t_r + 1) for h in sink_hists]
        miss = 0  # the OR over i of decoded_i ^ X_i: lane t is nonzero iff step t is wrong
        for col, x_i in zip(d_cols, xs):
            diff = x_i
            for w in flat:
                if not col:
                    break
                d = col & lane
                if d:
                    diff ^= w if d == 1 else mul_lanes(d, w)
                col >>= k
            miss |= diff
        miss &= (1 << (n - t_r) * k) - 1
        bad.append(((miss & -miss).bit_length() - 1) // k if miss else None)
    return bad
