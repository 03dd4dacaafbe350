"""Bit-exact arithmetic in GF(2^k) for 1 <= k <= 16.

Field elements are plain ints in [0, 2^k). Bit i of an element is the
coefficient of x^i in the polynomial basis, addition is XOR, and
multiplication is carry-less polynomial multiplication reduced by a fixed
irreducible polynomial, so every result is reproducible bit for bit.

A vector of field elements can also be packed into one Python int: lane j
holds element j in bits [jk, (j+1)k). Adding two packed vectors is one XOR,
and `GF.mul_lanes` scales every lane by one element: through a 256-byte
table of the scalar's products when k divides 8 (one byte then holds whole
lanes), and bit plane by bit plane otherwise.

Two multiplication routines are kept side by side: a table-free
shift-and-reduce reference (`GF.mul_ref`) and log/antilog tables built at
construction (the runtime path, `GF.mul`). The test suite checks they agree
on every element pair for q <= 256 and on random pairs above that.
"""

from __future__ import annotations

__all__ = [
    "REDUCTION_POLYS",
    "GF",
]

# Fixed reduction polynomials, bitmask with bit i = coefficient of x^i.
# k=1..4 and k=8 follow the usual textbook picks (k=8 is the AES polynomial,
# irreducible but not primitive); the rest come from the standard tables of
# irreducible polynomials over GF(2).
REDUCTION_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011011,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials given as bitmasks."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, poly: int, k: int) -> int:
    """Reduce the bitmask polynomial a modulo poly (degree k)."""
    for i in range(a.bit_length() - 1, k - 1, -1):
        if (a >> i) & 1:
            a ^= poly << (i - k)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """Arithmetic in GF(2^k) on int-valued elements.

    Parameters
    ----------
    k : int
        Extension degree, 1 <= k <= 16; the field has q = 2^k elements.
    reduction_poly : int or None
        Irreducible degree-k polynomial as a bitmask (bit k must be set).
        Defaults to the pinned constant in REDUCTION_POLYS. The table build
        raises ValueError for a reducible one.
    """

    _cache: dict[tuple[int, int], "GF"] = {}

    def __init__(self, k: int, reduction_poly: int | None = None):
        if not 1 <= k <= 16:
            raise ValueError(f"field exponent must be in [1, 16], got {k}")
        poly = REDUCTION_POLYS[k] if reduction_poly is None else reduction_poly
        if poly.bit_length() != k + 1:
            raise ValueError(f"0b{poly:b} is not a degree-{k} polynomial")
        self.k = k
        self.q = 1 << k
        self.poly = poly
        self._build_log_tables()
        self._lane_bits = 0  # lanes * k covered by _lane_ones, grown on demand
        self._lane_ones = 0  # bit jk set for every lane j it covers
        self._bytewise = k in (2, 4, 8)  # whole lanes per byte (k = 1 only ever scales by 0 or 1)
        # c -> c times each byte value (bytewise) or [c * x^i for 0 < i < k], filled on demand
        self._lane_tables: list = [None] * self.q

    @classmethod
    def for_q(cls, q: int) -> "GF":
        """Shared field instance for q = 2^k with the pinned polynomial."""
        k = q.bit_length() - 1
        if q != 1 << k or not 1 <= k <= 16:
            raise ValueError(f"q must be a power of two in [2, 2^16], got {q}")
        key = (k, REDUCTION_POLYS[k])
        if key not in cls._cache:
            cls._cache[key] = cls(k)
        return cls._cache[key]

    # -- reference multiplication ------------------------------------------

    def mul_ref(self, a: int, b: int) -> int:
        """Table-free shift-and-reduce product; the reference semantics."""
        return _poly_mod(_clmul(a, b), self.poly, self.k)

    # -- table construction -------------------------------------------------

    def _build_log_tables(self) -> None:
        q = self.q
        g = self._find_generator()
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc  # doubled so LOG[a]+LOG[b] never needs a mod
            log[acc] = i
            acc = self.mul_ref(acc, g)
        # with the cofactor checks of _find_generator, g^(q-1) = 1 gives g
        # order q - 1, so every nonzero element is a unit: a reducible
        # polynomial fails here or in _find_generator
        if acc != 1:
            raise ValueError(f"0b{self.poly:b} does not define a field")
        self.generator = g
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        q = self.q
        if q == 2:
            return 1
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        for g in range(2, q):
            if all(self._pow_ref(g, c) != 1 for c in cofactors):
                return g
        raise ValueError(f"no multiplicative generator; 0b{self.poly:b} is not irreducible")

    def _pow_ref(self, a: int, n: int) -> int:
        acc = 1
        while n:
            if n & 1:
                acc = self.mul_ref(acc, a)
            a = self.mul_ref(a, a)
            n >>= 1
        return acc

    # -- scalar operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^k)")
        return self._exp[self.q - 1 - self._log[a]]

    def validate(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")
        return a

    # -- packed vectors (one Python int, lane j = bits [jk, (j+1)k)) ---------

    def mul_lanes(self, c: int, v: int) -> int:
        """c times every lane of the packed vector v.

        At k = 2, 4 and 8 every byte of v holds whole lanes, so the product
        is v's bytes mapped through a 256-byte table of c times each byte
        value (one lookup when v fits in a byte). Otherwise, with
        a = sum_i a_i x^i, c*a = XOR over i of a_i * (c*x^i): bit i of every
        lane, moved to the lane's bottom bit, times the k-bit constant c*x^i
        fills whole lanes without carrying into the next one, so the product
        is the XOR over i < k of ((v >> i) & L) * T[c][i], where L has the
        bottom bit of every lane set and T[c][i] = c*x^i. At q = 2 the only
        scalars are 0 and 1. Tables are built per scalar on first use.
        """
        if c <= 1:
            return v if c else 0
        table = self._lane_tables[c]
        if table is None:
            table = self._lane_tables[c] = self._lane_table(c)
        if self._bytewise:
            if v < 256:
                return table[v]
            data = v.to_bytes((v.bit_length() + 7) >> 3, "little")
            return int.from_bytes(data.translate(table), "little")
        if v.bit_length() > self._lane_bits:
            self._grow_lane_ones(v.bit_length())
        ones = self._lane_ones
        out = (v & ones) * c  # bit plane 0: T[c][0] = c
        for i, t in enumerate(table, 1):
            out ^= ((v >> i) & ones) * t
        return out

    def _lane_table(self, c: int):
        if not self._bytewise:
            return [self.mul(c, 1 << i) for i in range(1, self.k)]
        log, exp = self._log, self._exp
        table, width = [0] + [exp[log[c] + log_a] for log_a in log[1:]], self.k  # c*a, a < q
        while width < 8:  # a table over two lanes from the table over one
            table = [lo | hi << width for hi in table for lo in table]
            width *= 2
        return bytes(table)

    def _grow_lane_ones(self, bits: int) -> None:
        lanes = 2 * -(-bits // self.k)  # twice the lanes needed, so regrowth is rare
        self._lane_bits = lanes * self.k
        self._lane_ones = ((1 << self._lane_bits) - 1) // (self.q - 1)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.k, self.poly) == (other.k, other.poly)

    def __hash__(self) -> int:
        return hash((self.k, self.poly))

    def __repr__(self) -> str:
        return f"GF(2^{self.k}, poly=0b{self.poly:b})"
