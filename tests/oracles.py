"""Slow, independent oracles that only the tests use.

`rank_gf_ref` and `solve_linear_ref` are the NumPy Gaussian eliminations
that `arcnc.polymatrix.reduce_row` replaced: whole-array row swaps and
table-gather row operations, pivots found column by column. `reduce_row_ref`
is the list-of-ints form of `reduce_row` that the packed-lane kernel
replaced, with the same pivot rule (the highest nonzero column) and the
same stored rows, without tags. `PolyMatrix`
and `det_nonzero_oracle` give the cofactor determinant of a polynomial
matrix, the exponential reference for the decodability test.
`min_cut_ref` is the source-side max-flow that the sink-side, capped
`arcnc.netgraph.min_cut` replaced, and `adjacent_pairs` the generator walk
that `Network.pairs` replaced, yielding the same plain (e_in, e_out)
tuples, with `delay_free_cycle_ref` as the depth-first reference for the
Kahn pass that `validate_cycle_delay` and `has_cycle` share.
`index_edges_ref` is the two-branch edge order that the one-pass
`arcnc.netgraph.index_edges` replaced; the two agree whenever the node ids
of an acyclic graph are a topological order.
`is_irreducible` is Rabin's test, the independent check that the `GF`
table build rejects exactly the reducible reduction polynomials.
`propagate_ref` is the tuple/list convolution that the engine's packed edge
words replaced, and `gen_rgg_ref` the pair-by-pair loop with scalar coin
flips that `arcnc.topologies.gen_rgg`'s one draw per attempt replaced.
`build_M_ref` is the list-of-lists decode matrix that the packed
`arcnc.polymatrix.build_M` replaced, and `solve_decoder_ref` the
column-copy solve of M D = [I_m; 0] on it, the independent check of D's
existence for `solve_decoder`, which reads D from the rank cache;
`words_from_blocks` packs coefficient blocks into the per-in-edge word
histories the rank cache and `kernel_rows` take.
`sequential_decode_ref` is the entry-by-entry decode, on D and the
coefficient blocks of F_r(z) as lists, that the packed-row
`arcnc.polymatrix.sequential_decode` replaced; `received_rows_ref` reads a
sink's received rows from the engine's `y` view, the independent check of
the received row `Engine.build_decoder` transposes from the edge words, and
`pack_stream` packs rows into the one int that decoder row and
`sequential_decode` hold.
`rng_slots_ref` is the full scan over every drawing pair, and
`propagate_acks_ref` the repeated ascending sweeps to a fixpoint, that the
engine's live draw list and counted ack cascade replaced.
`rand_array` draws uniform field elements for the tests' random inputs.
"""

from __future__ import annotations

from collections import deque
from operator import xor

import numpy as np

from arcnc.engine import SOURCE_IDENTITY
from arcnc.gf import GF, _clmul, _poly_mod, _prime_factors
from arcnc.netgraph import Network
from arcnc.topologies import P_BACKWARD_REMOVAL, P_FORWARD_REMOVAL, TopologyError


def rand_array(field: GF, rng: np.random.Generator, size) -> np.ndarray:
    """Uniform elements of `field` in an int64 array of the given shape."""
    return rng.integers(0, field.q, size=size, dtype=np.int64)


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
            a[rank] = field.mul_arrays(field.inv(int(a[rank, c])), a[rank])
        for r in range(rank + 1, rows):
            if a[r, c]:
                a[r] ^= field.mul_arrays(int(a[r, c]), a[rank])
        rank += 1
        if rank == rows:
            break
    return rank


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
            aug[r] = field.mul_arrays(field.inv(int(aug[r, c])), aug[r])
        for rr in range(rows):
            if rr != r and aug[rr, c]:
                aug[rr] ^= field.mul_arrays(int(aug[rr, c]), aug[r])
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
    from the engine's unpacking `y` view."""
    return [list(row) for row in zip(*(eng.y[e] for e in eng.net.in_edges[r]))]


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


def gen_rgg_ref(num_nodes, num_sinks, radius, cyclic, rng, max_attempts=10_000) -> Network:
    """The pair-by-pair loop that `arcnc.topologies.gen_rgg` replaced: two
    scalar coin flips per near pair in cyclic mode, drawn inside the loop."""
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


def propagate_ref(eng) -> tuple[list, list]:
    """Columns and symbols of every edge for steps 0..t_next-1 by the
    tuple/list convolution that the engine's packed words replaced, replayed
    from the engine's local kernels (relays included) and source stream.
    Returns (f, y) indexed like `eng.f` and `eng.y`."""
    net, m, mul = eng.net, eng.m, eng.field.mul
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
                kernel = eng.kernels.get((e_in, e))
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


def rng_slots_ref(net: Network, m: int, source_mode: str, t: int, acked, inject, done: bool) -> list:
    """Draw slots of step t by the full scan over every drawing pair that
    the engine's pruned live list replaced: the source's coding out-edges
    (all but the first m in identity mode) with inputs d_0..d_{m-1}, then
    each node with two or more parents and out-edges, by id, in `net.pairs`
    order; pairs toward an acked child, masked pairs at t=0 and injected
    pairs are skipped, and a finished run draws nothing."""
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
        if not acked[net.head(pair[1])] and not (t == 0 and pair in net.zero_mask) and pair not in inject
    ]


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
