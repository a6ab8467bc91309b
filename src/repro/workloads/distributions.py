"""Key-choosing distributions, after the YCSB core generators.

The zipfian generator uses the Gray et al. rejection-inversion
construction that YCSB uses, with the standard constant 0.99; the
scrambled variant hashes the rank so hot keys spread over the key
space (YCSB's default for workload traffic).
"""

from __future__ import annotations

import random
from typing import Optional


class UniformGenerator:
    """Uniform over [0, n)."""

    def __init__(self, n: int, seed: Optional[int] = None):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.n)


class ZipfianGenerator:
    """Zipfian over [0, n) with exponent ``theta`` (YCSB default
    0.99): rank 0 is the most popular item."""

    def __init__(self, n: int, theta: float = 0.99,
                 seed: Optional[int] = None):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                     / (1.0 - self._zeta2 / self._zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact up to a cutoff, then the Euler–Maclaurin tail — YCSB
        # computes the exact sum, which is too slow for n = 2^25 keys.
        cutoff = min(n, 10_000)
        total = sum(1.0 / i ** theta for i in range(1, cutoff + 1))
        if n > cutoff:
            # integral approximation of the remaining tail
            total += ((n ** (1.0 - theta) - cutoff ** (1.0 - theta))
                      / (1.0 - theta))
        return total

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0)
                   ** self._alpha)

    def popularity(self, rank: int) -> float:
        """Probability of the item with the given rank."""
        return (1.0 / (rank + 1) ** self.theta) / self._zetan


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the key space by hashing (YCSB's
    request generator)."""

    _PRIME = (1 << 61) - 1

    def __init__(self, n: int, theta: float = 0.99,
                 seed: Optional[int] = None):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, seed)

    def next(self) -> int:
        rank = self._zipf.next()
        return self._fnv(rank) % self.n

    @staticmethod
    def _fnv(value: int) -> int:
        h = 0xcbf29ce484222325
        for _ in range(8):
            h ^= value & 0xff
            h = (h * 0x100000001b3) & ((1 << 64) - 1)
            value >>= 8
        return h


class LatestGenerator:
    """Skewed towards recently inserted items (YCSB workload D)."""

    def __init__(self, n: int, theta: float = 0.99,
                 seed: Optional[int] = None):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, seed)

    def next(self) -> int:
        offset = self._zipf.next()
        return max(0, self.n - 1 - offset)

    def grow(self) -> None:
        """Register a newly inserted item."""
        self.n += 1
        self._zipf = ZipfianGenerator(self.n, self._zipf.theta)
