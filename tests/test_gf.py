"""Field arithmetic: exhaustive axioms, independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcnc.gf import GF, REDUCTION_POLYS
from oracles import is_irreducible, mul_arrays, rand_array


def naive_polymod_mul(a: int, b: int, poly: int, k: int) -> int:
    """Independent reference: schoolbook GF(2)[x] multiply then long division."""
    prod = 0
    for i in range(k):
        if (a >> i) & 1:
            for j in range(k):
                if (b >> j) & 1:
                    prod ^= 1 << (i + j)
    for deg in range(2 * k - 2, k - 1, -1):
        if (prod >> deg) & 1:
            prod ^= poly << (deg - k)
    return prod


@pytest.mark.parametrize("k", range(1, 9))
def test_field_axioms_exhaustive(k):
    field = GF(k)
    q = field.q
    elems = np.arange(q, dtype=np.int64)
    a = elems[:, None, None]
    b = elems[None, :, None]
    c = elems[None, None, :]
    assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))
    assert np.all((elems ^ elems) == 0)
    left = mul_arrays(field, a, b ^ c)
    right = mul_arrays(field, a, b) ^ mul_arrays(field, a, c)
    assert np.array_equal(left, right)


@pytest.mark.parametrize("k", [2, 3])
def test_mul_table_matches_naive_oracle(k):
    field = GF(k)
    for a in range(field.q):
        for b in range(field.q):
            assert field.mul(a, b) == naive_polymod_mul(a, b, field.poly, k)


@pytest.mark.parametrize("k", range(1, 9))
def test_table_path_equals_shift_reduce_reference(k):
    field = GF(k)
    for a in range(field.q):
        for b in range(field.q):
            assert field.mul(a, b) == field.mul_ref(a, b)


@pytest.mark.parametrize("k", [12, 16])
def test_table_path_equals_reference_large_fields(k):
    field = GF(k)
    rng = np.random.default_rng(k)
    for a, b in rng.integers(0, field.q, size=(500, 2)):
        assert field.mul(int(a), int(b)) == field.mul_ref(int(a), int(b))


def test_known_values():
    f4, f8 = GF.for_q(4), GF.for_q(8)
    assert f4.mul(2, 2) == 3  # x*x = x+1 mod x^2+x+1
    assert f8.mul(4, 2) == 3  # x^2*x = x^3 = x+1 mod x^3+x+1
    assert f4.inv(2) == 3
    for q in (2, 4, 8, 256):
        field = GF.for_q(q)
        for a in range(1, field.q):
            assert field.mul(a, 1) == a
            assert field.mul(a, 0) == 0
            assert field.mul(a, field.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF.for_q(4).inv(0)


def test_exhaustive_inverse_search_matches():
    field = GF.for_q(4)
    for a in range(1, 4):
        brute = next(b for b in range(1, 4) if field.mul(a, b) == 1)
        assert field.inv(a) == brute


def test_pinned_polys_are_irreducible():
    for k, poly in REDUCTION_POLYS.items():
        assert is_irreducible(poly, k)


def test_reducible_poly_rejected():
    # x^4 + 1 = (x+1)^4 and x^4 + x^2 + 1 = (x^2+x+1)^2 over GF(2)
    for poly in (0b10001, 0b10101):
        assert not is_irreducible(poly, 4)
        with pytest.raises(ValueError):
            GF(4, reduction_poly=poly)


def test_table_build_rejects_exactly_the_reducible_polys():
    for k in range(1, 9):
        for poly in range(1 << k, 1 << (k + 1)):
            try:
                GF(k, reduction_poly=poly)
                built = True
            except ValueError:
                built = False
            assert built == is_irreducible(poly, k), f"k={k} poly=0b{poly:b}"
    with pytest.raises(ValueError):
        GF(4, reduction_poly=REDUCTION_POLYS[3])  # degree 3, not 4


def test_for_q_rejects_bad_sizes():
    for q in (0, 1, 3, 6, 1 << 17):
        with pytest.raises(ValueError):
            GF.for_q(q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 9, 16]), st.data())
def test_division_roundtrip(k, data):
    field = GF(k)
    a = data.draw(st.integers(0, field.q - 1))
    b = data.draw(st.integers(1, field.q - 1))
    assert field.mul(field.mul(a, field.inv(b)), b) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 11]), st.data())
def test_mul_commutes_and_associates(k, data):
    field = GF(k)
    a, b, c = (data.draw(st.integers(0, field.q - 1)) for _ in range(3))
    assert field.mul(a, b) == field.mul(b, a)
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_mul_vec_matches_scalar():
    # the oracles' array product, which the NumPy references and the field
    # axiom checks multiply with, against the scalar table product
    field = GF.for_q(16)
    rng = np.random.default_rng(0)
    arr = rand_array(field, rng, 40)
    pairs = rand_array(field, rng, (2, 64))
    expect = np.array([field.mul(int(a), int(b)) for a, b in pairs.T])
    assert np.array_equal(mul_arrays(field, pairs[0], pairs[1]), expect)


@pytest.mark.parametrize("k", range(1, 17))
def test_mul_lanes_matches_reference_lane_by_lane(k):
    field = GF(k)  # a fresh instance, so its lane mask starts empty and must grow
    q = field.q
    rng = np.random.default_rng(k)
    scalars = [0, 1, q - 1] + [int(c) for c in rng.integers(0, q, size=4)]
    for lanes in (1, 3, 40, 300, 2000):  # each length outgrows the mask before it
        vals = [int(v) for v in rng.integers(0, q, size=lanes)]
        vals[-1] = q - 1  # the top lane is full, so v spans every lane
        v = sum(a << (j * k) for j, a in enumerate(vals))
        for c in scalars:
            out = field.mul_lanes(c, v)
            assert out >> (lanes * k) == 0
            got = [(out >> (j * k)) & (q - 1) for j in range(lanes)]
            assert got == [field.mul_ref(c, a) for a in vals]
    assert field.mul_lanes(1, v) == v
    assert field.mul_lanes(0, v) == 0



@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 200), st.data())
def test_mul_lanes_table_and_planes_match_reference(k, lanes, data):
    # byte tables at k = 2, 4, 8 and bit planes otherwise, on vectors of 0 to
    # 200 lanes (0 lanes is v = 0) with the top lane zero or not
    field = GF.for_q(1 << k)
    q = field.q
    vals = [data.draw(st.integers(0, q - 1)) for _ in range(lanes)]
    v = sum(a << (j * k) for j, a in enumerate(vals))
    for c in (data.draw(st.integers(2, q - 1)) if q > 2 else 1, q - 1, 0, 1):
        out = field.mul_lanes(c, v)
        assert out >> (lanes * k) == 0
        assert [(out >> (j * k)) & (q - 1) for j in range(lanes)] == [field.mul_ref(c, a) for a in vals]
