"""Field-axiom checks are exhaustive: q <= 16 means at most 4096 triples."""

import pytest

from girthlab.errors import UnsupportedOrder, ZeroInverse
from girthlab.finite_field import (
    SUPPORTED_ORDERS,
    ff_add,
    ff_dot,
    ff_inv,
    ff_make,
    ff_mul,
    ff_neg,
)


def poly_mul_oracle(a, b, modulus, p):
    """Independent schoolbook polynomial multiplication, reduced by long
    division. Coefficients low degree first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    while len(prod) > k:
        lead = prod[-1]
        if lead:
            shift = len(prod) - 1 - k
            for i, m in enumerate(modulus):
                prod[shift + i] = (prod[shift + i] - lead * m) % p
        prod.pop()
    prod += [0] * (k - len(prod))
    return tuple(prod)


def to_coeffs(x, p, k):
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return tuple(out)


def from_coeffs(c, p):
    v = 0
    for x in reversed(c):
        v = v * p + x
    return v


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    F = ff_make(q)
    els = range(q)
    for a in els:
        assert ff_add(F, a, 0) == a
        assert ff_mul(F, a, 1) == a
        assert ff_add(F, a, ff_neg(F, a)) == 0
        if a != 0:
            assert ff_mul(F, a, ff_inv(F, a)) == 1
        for b in els:
            assert ff_add(F, a, b) == ff_add(F, b, a)
            assert ff_mul(F, a, b) == ff_mul(F, b, a)
    for a in els:
        for b in els:
            for c in els:
                assert ff_add(F, ff_add(F, a, b), c) == ff_add(F, a, ff_add(F, b, c))
                assert ff_mul(F, ff_mul(F, a, b), c) == ff_mul(F, a, ff_mul(F, b, c))
                assert ff_mul(F, a, ff_add(F, b, c)) == ff_add(
                    F, ff_mul(F, a, b), ff_mul(F, a, c)
                )


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_frobenius_is_additive(q):
    F = ff_make(q)
    p = F.p

    def power(x, e):
        acc = 1
        for _ in range(e):
            acc = ff_mul(F, acc, x)
        return acc

    for a in range(q):
        for b in range(q):
            assert power(ff_add(F, a, b), p) == ff_add(F, power(a, p), power(b, p))


def test_characteristic_two():
    F = ff_make(2)
    assert ff_add(F, 1, 1) == 0


def test_gf5_product():
    F = ff_make(5)
    assert ff_mul(F, 3, 4) == 2


def test_gf7_inverse():
    assert ff_inv(ff_make(7), 3) == 5


def test_gf3_negation():
    assert ff_neg(ff_make(3), 1) == 2


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_extension_field_matches_polynomial_oracle(q):
    F = ff_make(q)
    p, k = F.p, F.k
    for a in range(q):
        for b in range(q):
            expect = from_coeffs(
                poly_mul_oracle(to_coeffs(a, p, k), to_coeffs(b, p, k),
                                F.modulus, p),
                p,
            )
            assert ff_mul(F, a, b) == expect


def test_gf4_generator_square():
    # x * x = x + 1 under modulus x^2 + x + 1
    F = ff_make(4)
    assert ff_mul(F, 2, 2) == 3


def test_gf8_generator_cube():
    # x * x^2 = x + 1 under modulus x^3 + x + 1
    F = ff_make(8)
    assert ff_mul(F, 2, 4) == 3


def test_unsupported_order():
    for q in (1, 6, 10, 12, 17, 32):
        with pytest.raises(UnsupportedOrder):
            ff_make(q)


def test_zero_inverse():
    with pytest.raises(ZeroInverse):
        ff_inv(ff_make(5), 0)


def test_dot_and_sub():
    F = ff_make(3)
    assert ff_dot(F, (1, 2, 0), (2, 2, 1)) == 0
