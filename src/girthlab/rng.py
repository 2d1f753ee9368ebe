"""Deterministic pseudo-random numbers for corpora and sampling.

Every random choice in the package flows through :class:`XorShift64Star` so
that corpora and sampled vertex sets are reproducible bit-for-bit from a
single integer seed, independently of Python's own RNG.

The generator is the xorshift64* family: state update

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27      (all mod 2**64)

followed by output ``(x * 2685821657736338717) mod 2**64``. A zero seed is
replaced by the fixed constant 0x9E3779B97F4A7C15.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED = 0x9E3779B97F4A7C15


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
        are stable across implementations. The state steps run inline: the
        output multiplier is odd, so an output's low bit is the state's low
        bit and needs no multiply.
        """
        x = self.state
        mask = 0
        for i in range(universe):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK
            x ^= x >> 27
            if x & 1:
                mask |= 1 << i
        self.state = x
        return mask

    def sample(self, pool) -> list:
        """The elements of pool kept by ``sample_mask(len(pool))``, in
        order."""
        mask = self.sample_mask(len(pool))
        return [v for i, v in enumerate(pool) if (mask >> i) & 1]
