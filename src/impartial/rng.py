"""Seedable randomness for the samplers.

A SeedStream wraps a Mersenne-Twister state behind the draw kinds the
samplers need: uniform permutations, uniform vertices, uniform integers
below a bound (the mix coin), categorical draws over integer weights,
and uniform rationals with resolution 2**-64.  Every integer draw reads
exactly the words random.Random reads on CPython 3.10 and 3.11, straight
from getrandbits and without its argument handling.  A uniform integer
below n takes k = n.bit_length() bits, redrawn while they are at least
n, as randrange(n) does.  A permutation is a Fisher-Yates pass over
positions with one such draw per swap: for each 0-based position i from
n - 1 down to 1, (i + 1).bit_length() bits, redrawn while they exceed i,
as shuffle does; the bit widths come from a table the stream keeps
per n.  A categorical draw takes one uniform integer below the weights'
common denominator, so every outcome has exactly its weight's
probability.

Streams are deterministic per seed and can be split into independent
child streams by label, which keeps parallel work reproducible.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import InputError

_TWO64 = 1 << 64


class SeedStream:
    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        # n -> the (position, bit width) pairs of a Fisher-Yates pass over 1..n
        self._swaps: dict[int, tuple[tuple[int, int], ...]] = {}

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
        """Uniform integer in 0..n-1; ValueError for n < 1."""
        if n < 1:
            raise ValueError(f"empty range for randrange({n})")
        bits = self._rng.getrandbits
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def vertex(self, n: int) -> int:
        """Uniform vertex in 1..n."""
        return self.randrange(n) + 1

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform ordering of 1..n as a tuple, by Fisher-Yates over
        positions, each swap partner drawn from getrandbits by rejection."""
        if n < 1:
            raise InputError(f"a permutation needs n >= 1, got {n}")
        try:
            swaps = self._swaps[n]
        except KeyError:
            swaps = self._swaps[n] = tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))
        seq = list(range(1, n + 1))
        bits = self._rng.getrandbits
        for i, k in swaps:
            j = bits(k)
            while j > i:
                j = bits(k)
            seq[i], seq[j] = seq[j], seq[i]
        return tuple(seq)

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
