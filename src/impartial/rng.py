"""Seedable randomness for the samplers.

A SeedStream wraps a Mersenne-Twister state behind the draw kinds the
samplers need: uniform permutations (random.Random.shuffle, a
Fisher-Yates pass over positions with one draw per swap),
uniform vertices, uniform integers below a bound (the mix coin),
categorical draws over integer weights, and uniform rationals with
resolution 2**-64.  A categorical draw takes one uniform integer below
the weights' common denominator, so every outcome has exactly its
weight's probability.

Streams are deterministic per seed and can be split into independent
child streams by label, which keeps parallel work reproducible.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import Permutation

_TWO64 = 1 << 64


class SeedStream:
    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)

    def split(self, label: str) -> "SeedStream":
        """Child stream whose seed is derived from (seed, label)."""
        digest = hashlib.blake2b(
            f"{self.seed}/{label}".encode(), digest_size=8
        ).digest()
        return SeedStream(int.from_bytes(digest, "big"))

    def bits64(self) -> int:
        return self._rng.getrandbits(64)

    def unit_fraction(self) -> Fraction:
        """Uniform rational in [0, 1) with resolution 2**-64."""
        return Fraction(self.bits64(), _TWO64)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def vertex(self, n: int) -> int:
        """Uniform vertex in 1..n."""
        return self._rng.randrange(n) + 1

    def permutation(self, n: int) -> Permutation:
        """Uniform permutation of 1..n: random.Random.shuffle, which is
        Fisher-Yates over positions."""
        seq = list(range(1, n + 1))
        self._rng.shuffle(seq)
        return Permutation(tuple(seq))

    def categorical(self, weights: Sequence[int], total: int) -> Optional[int]:
        """Index i with probability weights[i] / total, by one uniform
        draw from range(total); None if the draw lands in the deficit
        total - sum(weights)."""
        if sum(weights) > total:
            raise ValueError(f"categorical weights sum to {sum(weights)} > {total}")
        r = self.randrange(total)
        for i, w in enumerate(weights):
            r -= w
            if r < 0:
                return i
        return None


def as_stream(seed_or_stream: "int | SeedStream") -> SeedStream:
    if isinstance(seed_or_stream, SeedStream):
        return seed_or_stream
    return SeedStream(seed_or_stream)
