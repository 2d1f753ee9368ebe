"""Exact arithmetic in GF(q) for small prime powers q.

Elements are dense indices 0..q-1 with 0 the additive and 1 the
multiplicative identity. For prime q the index is the residue itself; for
q = p^k an index encodes a degree-<k polynomial over GF(p) in base p
(index = sum of coeff[i] * p**i), reduced modulo a fixed irreducible
polynomial. All operations are table lookups after construction.

Supported orders are fixed to {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}; the moduli
come from a conventional table, so outputs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnsupportedOrder, ZeroInverse

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# Irreducible modulus per non-prime order, coefficients low degree first.
#   GF(4):  x^2 + x + 1
#   GF(8):  x^3 + x + 1
#   GF(9):  x^2 + 1
#   GF(16): x^4 + x + 1
_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
}

_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class FieldTable:
    """Precomputed arithmetic tables for GF(q)."""

    q: int
    p: int
    k: int
    add: tuple  # q x q tuples
    mul: tuple
    neg: tuple  # length q
    inv: tuple  # length q; inv[0] is None
    modulus: tuple | None = field(default=None)


def _char_and_degree(q: int) -> tuple[int, int]:
    for p in _PRIMES:
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m == 1 and k >= 1:
            return p, k
    raise UnsupportedOrder(f"q={q} is not a supported prime power")


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """Multiply coefficient vectors over GF(p) and reduce by the modulus."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^k = -(modulus minus leading term)
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - c * modulus[i]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return tuple(out)


def _index_to_coeffs(idx: int, p: int, k: int) -> tuple:
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def _coeffs_to_index(coeffs: tuple, p: int) -> int:
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


def ff_make(q: int) -> FieldTable:
    """Build the arithmetic tables for GF(q).

    Raises UnsupportedOrder when q is not in the supported set.
    """
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(
            f"q={q} not supported (choose one of {SUPPORTED_ORDERS})"
        )
    p, k = _char_and_degree(q)
    if k == 1:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
        modulus = None
    else:
        modulus = _MODULI[q]
        coeffs = [_index_to_coeffs(i, p, k) for i in range(q)]
        add = tuple(
            tuple(
                _coeffs_to_index(
                    tuple((x + y) % p for x, y in zip(coeffs[a], coeffs[b])), p
                )
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(
            tuple(
                _coeffs_to_index(_poly_mul_mod(coeffs[a], coeffs[b], modulus, p), p)
                for b in range(q)
            )
            for a in range(q)
        )
    neg = [0] * q
    for a in range(q):
        for b in range(q):
            if add[a][b] == 0:
                neg[a] = b
                break
    inv = [None] * q
    for a in range(1, q):
        for b in range(1, q):
            if mul[a][b] == 1:
                inv[a] = b
                break
        if inv[a] is None:
            raise UnsupportedOrder(f"q={q}: element {a} has no inverse (bad modulus)")
    return FieldTable(q=q, p=p, k=k, add=add, mul=mul, neg=tuple(neg),
                      inv=tuple(inv), modulus=modulus)


def ff_add(F: FieldTable, a: int, b: int) -> int:
    return F.add[a][b]


def ff_mul(F: FieldTable, a: int, b: int) -> int:
    return F.mul[a][b]


def ff_neg(F: FieldTable, a: int) -> int:
    return F.neg[a]


def ff_inv(F: FieldTable, a: int) -> int:
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return F.inv[a]


def ff_dot(F: FieldTable, u: tuple, v: tuple) -> int:
    """Standard bilinear dot product of two coordinate vectors."""
    acc = 0
    for x, y in zip(u, v):
        acc = F.add[acc][F.mul[x][y]]
    return acc
