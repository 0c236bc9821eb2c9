"""Seedable randomness for the samplers.

A SeedStream wraps a Mersenne-Twister state behind the draw kinds the
program needs: rows of uniform integers below given bounds (what the
samplers draw, many rows at once), a coin and then the row it picks
(the mix sampler, many draws at once), uniform permutations, uniform
integers below a bound, categorical draws over integer weights, and
uniform rationals with resolution 2**-64.

Rows, coins and permutations take one 32-bit word w of the stream per
entry below a bound b (1 <= b <= 2**32): the entry is w mod b, and w is
redrawn while it lies in the top 2**32 mod b words, too few to make one
more full run of b values, so every entry is exactly uniform (Lemire,
"Fast Random Integer Generation in an Interval", ACM TOMACS 29(1),
2019).  The words come in blocks of one getrandbits call each, read as
a uint32 array, and the accept test and the mod run in numpy; a
rejected word shifts the rest of its block by one entry, which happens
with probability below b / 2**32 per word.  A block is never longer
than the entries left, so a call reads exactly the words one draw at a
time reads, in that order, and leaves the generator where such draws
leave it.  A permutation is a Fisher-Yates pass over positions, one
swap partner per step: for each 0-based position i from n - 1 down to
1, a partner below i + 1, so the partners are one row below the bounds
n, n - 1, ..., 2.

randrange, bits64, split and categorical keep the stdlib stream:
randrange(n) reads exactly the words random.Random.randrange(n) reads
on CPython 3.10 and 3.11, k = n.bit_length() bits redrawn while they
are at least n, and a categorical draw takes one such integer below the
weights' common denominator, so every outcome has exactly its weight's
probability.

Streams are deterministic per seed and can be split into independent
child streams by label, which keeps parallel work reproducible.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .graphs import InputError

_TWO64 = 1 << 64
_WORD = 1 << 32
# Words per getrandbits call: a block's int, its bytes and its arrays
# take 128 KB each, whatever the number of entries.
_BLOCK = 1 << 15


class _Bounds(NamedTuple):
    """One row's bounds as the word rule reads them: mods, the bounds as
    a uint32 array (uint64 when one is 2**32); tops, the largest word
    each accepts; top, the least of them, so that only a word above it
    can be rejected; and dtype, the least unsigned type that holds the
    entries."""

    mods: np.ndarray
    tops: tuple[int, ...]
    top: int
    dtype: np.dtype


class SeedStream:
    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._rows: dict[tuple[int, ...], _Bounds] = {}

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
        right by the word rule; ValueError for a bound below 1 or above
        2**32.  The entries gather in the least unsigned type that holds
        them, one byte each while every bound is at most 256."""
        spec = self._bounds(bounds)
        width = len(spec.tops)
        flat = np.empty(k * width, dtype=spec.dtype)
        if len(flat):
            # the bounds along a block's entries, from any column
            mods = np.tile(spec.mods, min(len(flat), _BLOCK) // width + 2)
            at = 0
            while at < len(flat):
                words = self._words(min(_BLOCK, len(flat) - at))
                suspects = np.flatnonzero(words > spec.top)
                if len(suspects):
                    words = words[self._kept(words, suspects.tolist(), spec.tops, at)]
                col = at % width
                flat[at : at + len(words)] = words % mods[col : col + len(words)]
                at += len(words)
        return flat.reshape(k, width)

    def coin_rows(self, den: int, cut: int, heads: Sequence[int], tails: Sequence[int],
                  k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws of a coin and then a row: per draw, one entry below
        den, heads when it falls below cut, then one uniform_rows row
        below heads' bounds or tails', reading the words those draws
        read one after the other.  Returns the (k,) bool coins, True for
        heads, and the rows as one (k, w) array, w the longer bounds'
        length, each row left-aligned and padded with zeros, in the
        least unsigned type that holds both kinds.  ValueError for a den
        or bound below 1 or above 2**32.

        A block's words are walked one draw at a time in Python, coin to
        coin: the coin gives the row's length, and only a word above the
        least top of den and the bounds is checked on its own, so a
        block costs one step per draw; numpy then gathers the rows and
        takes their mods."""
        coin, spec = self._bounds((den,)), (self._bounds(tails), self._bounds(heads))
        lens = tuple(len(s.tops) for s in spec)
        width = max(lens)
        coins = np.empty(k, dtype=bool)
        rows = np.zeros((k, width), dtype=np.promote_types(*(s.dtype for s in spec)))
        top = min(coin.top, *(s.top for s in spec))
        least = 1 + min(lens)  # words a draw reads at the least
        done, rest = 0, np.empty(0, dtype=np.uint32)
        while done < k:
            # rest: the words read so far of the next draw, from its coin
            words = self._words(min(_BLOCK, max(1, (k - done) * least - len(rest))))
            words = np.concatenate((rest, words)) if len(rest) else words
            suspects = iter(np.flatnonzero(words > top).tolist())
            nxt = next(suspects, math.inf)  # the next word some bound may reject
            heads_at = (words % den < cut).tobytes()  # per word: heads, were it a coin
            starts, flags, dropped = [], [], []
            i, end = 0, len(words)
            while done + len(flags) < k and i < end:
                if i == nxt:
                    nxt = next(suspects, math.inf)
                    if words[i] > coin.tops[0]:
                        dropped.append(i)
                        i += 1
                        continue
                head = heads_at[i]
                tops, mark = spec[head].tops, len(dropped)
                stop = i + 1 + lens[head]  # past the row, while no word of it is rejected
                while nxt < stop:
                    if words[nxt] > tops[nxt - i - 1 - (len(dropped) - mark)]:
                        dropped.append(nxt)
                        stop += 1
                    nxt = next(suspects, math.inf)
                if stop > end:  # the row runs past the block: read on from its coin
                    del dropped[mark:]
                    break
                starts.append(i + 1 - mark)
                flags.append(head)
                i = stop
            rest = words[i:]
            kept = np.delete(words[:i], dropped) if dropped else words[:i]
            heads_now = np.array(flags, dtype=bool)
            block = rows[done : done + len(flags)]
            starts = np.array(starts, dtype=np.intp)
            for head, row in enumerate(spec):
                if lens[head]:
                    mine = heads_now == head
                    block[mine, : lens[head]] = kept.take(starts[mine, None] + np.arange(lens[head])) % row.mods
            coins[done : done + len(flags)] = heads_now
            done += len(flags)
        return coins, rows

    def _words(self, m: int) -> np.ndarray:
        """The stream's next m 32-bit words, in the order they are drawn."""
        return np.frombuffer(self._rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")

    @staticmethod
    def _kept(words: np.ndarray, suspects: list[int], tops: tuple[int, ...], at: int) -> np.ndarray:
        """Which of a block's words the word rule keeps, the block's
        first word read for flat entry at of rows below bounds whose
        tops are tops; only the suspects, the words above the least top,
        are checked, and a rejected one shifts the rest by one entry."""
        keep = np.ones(len(words), dtype=bool)
        shift, width = 0, len(tops)
        for i in suspects:
            if words[i] > tops[(at + i - shift) % width]:
                keep[i] = False
                shift += 1
        return keep

    def _bounds(self, bounds: Sequence[int]) -> _Bounds:
        """bounds as the word rule reads them, kept per bounds;
        ValueError for a bound below 1 or above 2**32."""
        bounds = tuple(bounds)
        if bounds not in self._rows:
            for b in bounds:
                if not 1 <= b <= _WORD:
                    raise ValueError(f"bound {b} is outside 1..2**32 in {bounds}")
            tops = tuple(_WORD - 1 - _WORD % b for b in bounds)
            self._rows[bounds] = _Bounds(
                np.array(bounds, dtype=np.uint32 if max(bounds, default=1) < _WORD else np.uint64),
                tops, min(tops, default=_WORD - 1), np.min_scalar_type(max(bounds, default=1) - 1))
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


def as_stream(seed_or_stream: "int | SeedStream") -> SeedStream:
    if isinstance(seed_or_stream, SeedStream):
        return seed_or_stream
    return SeedStream(seed_or_stream)
