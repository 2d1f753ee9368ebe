"""Deterministic pseudo-random numbers for corpora and sampling.

Every random choice in the package flows through :class:`XorShift64Star` so
that corpora and sampled vertex sets are reproducible bit-for-bit from a
single integer seed, independently of Python's own RNG.

The generator is the xorshift64* family: state update

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27      (all mod 2**64)

followed by output ``(x * 2685821657736338717) mod 2**64``. A zero seed is
replaced by the fixed constant 0x9E3779B97F4A7C15.

Sampled vertex sets are defined one generator step per element (see
:meth:`XorShift64Star.sample_mask`) but drawn through per-universe lookup
tables, built on the first draw from each universe size; the masks and the
generator states they leave are bit-identical to the per-step definition.
"""

from __future__ import annotations

import functools
from itertools import compress

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED = 0x9E3779B97F4A7C15
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class XorShift64Star:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        seed = int(seed) & _MASK
        self.state = seed if seed != 0 else _ZERO_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def coin(self) -> bool:
        """Fair coin: least significant output bit."""
        return bool(self.next_u64() & 1)

    def bernoulli(self, num: int, den: int) -> bool:
        """True with probability num/den, using exact integer comparison."""
        if not 0 <= num <= den:
            raise ValueError("need 0 <= num <= den")
        return self.below(den) < num

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_mask(self, universe: int) -> int:
        """Bitmask over range(universe); each element kept with prob 1/2.

        Element i is kept when the i-th generator output is odd, so masks
        are stable across implementations; the generator ends where
        ``universe`` calls of ``next_u64()`` leave it (``_step_draw`` is
        that definition, one step per element).

        The draw is one linear map. Each shift-xor of the state update is
        linear over GF(2), and the output multiplier is odd, so an output's
        low bit is the state's low bit. So the mask and the state after
        ``universe`` steps, packed as ``mask << 64 | state``, are a
        GF(2)-linear function of the state before the draw: the XOR of the
        images of its 16 nibbles, each read from a table of 16 entries.
        """
        x = self.state
        packed = 0
        for table in _draw_tables(universe):
            packed ^= table[x & 15]
            x >>= 4
        self.state = packed & _MASK
        return packed >> 64

    def sample(self, pool) -> list:
        """The elements of pool kept by ``sample_mask(len(pool))``, in
        order."""
        mask = self.sample_mask(len(pool))
        # the mask's binary digits, lowest first, as bytes 0 and 1
        keep = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)
        return list(compress(pool, keep))


def _step_draw(x: int, universe: int) -> tuple:
    """(mask, state) after ``universe`` generator steps from state x: bit i
    of the mask is the low bit of the state after step i + 1."""
    mask = 0
    for i in range(universe):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        if x & 1:
            mask |= 1 << i
    return mask, x


@functools.cache
def _draw_tables(universe: int) -> tuple:
    """Sixteen tables, one per nibble of the state: entry v of table j is
    the packed draw ``mask << 64 | state`` from the state ``v << 4 * j``.

    Built from the draws of the 64 one-bit states; by linearity every
    other entry is the XOR of the entries of its bits.
    """
    units = []
    for k in range(64):
        mask, state = _step_draw(1 << k, universe)
        units.append(mask << 64 | state)
    tables = []
    for j in range(16):
        table = [0] * 16
        for v in range(1, 16):
            low = v & -v
            table[v] = table[v ^ low] ^ units[4 * j + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)
