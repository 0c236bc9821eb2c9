"""Seedable randomness for the samplers.

A SeedStream wraps a Mersenne-Twister state behind the draw kinds the
program needs: rows of uniform integers below given bounds (what the
samplers draw, many rows at once), a coin and then the row it picks
(the mix sampler, many draws at once), uniform integers below a bound,
uniform permutations, categorical draws over integer weights,
and uniform rationals with resolution 2**-64.  Every integer draw reads
exactly the words random.Random reads on CPython 3.10 and 3.11, straight
from getrandbits and without its argument handling.  A uniform integer
below n takes k = n.bit_length() bits, redrawn while they are at least
n, as randrange(n) does.  A permutation is a Fisher-Yates pass over
positions with one such draw per swap: for each 0-based position i from
n - 1 down to 1, a partner below i + 1, as shuffle does, so the partners
are one row below the bounds n, n - 1, ..., 2.  A categorical draw takes
one uniform integer below the weights' common denominator, so every
outcome has exactly its weight's probability.

Streams are deterministic per seed and can be split into independent
child streams by label, which keeps parallel work reproducible.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graphs import InputError

_TWO64 = 1 << 64


class SeedStream:
    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        # bounds -> their (bound, bit width) pairs and the rows' dtype
        self._rows: dict[tuple[int, ...], tuple[tuple[tuple[int, int], ...], np.dtype]] = {}

    def split(self, label: str) -> "SeedStream":
        """Child stream whose seed is derived from (seed, label)."""
        import hashlib  # here, not at start-up: only split reads it

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

    def uniform_rows(self, bounds: Sequence[int], k: int) -> np.ndarray:
        """k rows of uniform integers as a (k, len(bounds)) array, entry
        j of a row in 0..bounds[j] - 1, drawn row by row and left to
        right, each as randrange(bounds[j]) draws it; ValueError for a
        bound below 1.  The entries gather in the least unsigned type
        that holds them, one byte each while every bound is at most 256.
        The bit widths are kept per bounds, so a one-row call is cheap."""
        pairs, dtype = self._pairs(bounds)
        bits = self._rng.getrandbits
        flat = _buffer(dtype)
        add = flat.append
        for _ in range(k):
            for b, w in pairs:
                r = bits(w)
                while r >= b:
                    r = bits(w)
                add(r)
        return np.frombuffer(flat, dtype=dtype).reshape(k, len(pairs))

    def coin_rows(self, den: int, cut: int, heads: Sequence[int], tails: Sequence[int],
                  k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws of a coin and then a row: per draw, randrange(den)'s
        integer, heads when it falls below cut, then one uniform_rows row
        below heads' bounds or tails', in one pass over the stream.
        Returns the (k,) bool coins, True for heads, and the rows as one
        (k, w) array, w the longer bounds' length, each row left-aligned
        and padded with zeros, in the least unsigned type that holds
        both kinds.  ValueError for a den or bound below 1."""
        if den < 1:
            raise ValueError(f"empty range for coin_rows({den})")
        (head_pairs, head_type), (tail_pairs, tail_type) = self._pairs(heads), self._pairs(tails)
        width = max(len(head_pairs), len(tail_pairs))
        head_pad, tail_pad = (0,) * (width - len(head_pairs)), (0,) * (width - len(tail_pairs))
        dtype = np.promote_types(head_type, tail_type)
        bits = self._rng.getrandbits
        coin_bits = den.bit_length()
        coins, flat = bytearray(), _buffer(dtype)
        add, pad = flat.append, flat.extend
        for _ in range(k):
            r = bits(coin_bits)
            while r >= den:
                r = bits(coin_bits)
            head = r < cut
            coins.append(head)
            for b, w in head_pairs if head else tail_pairs:
                r = bits(w)
                while r >= b:
                    r = bits(w)
                add(r)
            pad(head_pad if head else tail_pad)
        return np.frombuffer(coins, dtype=bool), np.frombuffer(flat, dtype=dtype).reshape(k, width)

    def _pairs(self, bounds: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], np.dtype]:
        """bounds' (bound, bit width) pairs and the least unsigned type
        that holds their entries, kept per bounds; ValueError for a
        bound below 1."""
        bounds = tuple(bounds)
        if bounds not in self._rows:
            if min(bounds, default=1) < 1:
                raise ValueError(f"empty range in uniform_rows bounds {bounds}")
            self._rows[bounds] = (tuple((b, b.bit_length()) for b in bounds),
                                  np.min_scalar_type(max(bounds, default=1) - 1))
        return self._rows[bounds]

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform ordering of 1..n as a tuple, by Fisher-Yates over
        positions with the swap partners of one uniform_rows row."""
        if n < 1:
            raise InputError(f"a permutation needs n >= 1, got {n}")
        seq = list(range(1, n + 1))
        for i, j in zip(range(n - 1, 0, -1), self.uniform_rows(range(n, 1, -1), 1)[0].tolist()):
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


def _buffer(dtype: np.dtype):
    """An empty buffer of dtype's items for a row loop to append to."""
    if dtype == np.uint8:
        return bytearray()  # appends faster than array("B")
    from array import array  # here, as loading it costs resident memory
    return array(dtype.char)


def as_stream(seed_or_stream: "int | SeedStream") -> SeedStream:
    if isinstance(seed_or_stream, SeedStream):
        return seed_or_stream
    return SeedStream(seed_or_stream)
