"""Seedable randomness for the samplers.

A SeedStream wraps a Mersenne-Twister state behind the draw kinds the
program needs: rows of uniform integers below given bounds (what the
samplers draw, many rows at once), a coin and then the row it picks
(the mix sampler, many draws at once), uniform permutations, uniform
integers below a bound, categorical draws over integer weights, and
uniform rationals with resolution 2**-64.

Rows, coins and permutations read 32-bit words of the stream by one
rule.  A row's bounds (each 1 <= b <= 2**32) are cut into runs,
greedily from the left, whose products stay at most 2**24; a bound
above 2**24 stays alone, and a coin is a row of one bound.  Each run
reads one word w below its product B: the run's value is w mod B, and
w is redrawn while it lies in the top 2**32 mod B words, too few to
make one more full run of B values (Lemire, "Fast Random Integer
Generation in an Interval", ACM TOMACS 29(1), 2019).  The run's entries
are the mixed-radix digits of that value, least significant first:
entry j is the value over the product of the bounds before it in the
run, mod its bound.  The digit map is a bijection from 0..B - 1 onto
the product of the entries' ranges, so the entries are exactly uniform
and independent.  A row below n, n - 1, ..., 2 reads 4 words at n = 23
and 10 at n = 50, where one word per entry read 22 and 49.

The words come in blocks of one getrandbits call each, read as a
uint32 array, and the accept test, the mod and the digits run in
numpy; a rejected word shifts the rest of its block by one run, which
happens with probability below B / 2**32 <= 2**-8 per word (for a lone
bound above 2**24, below b / 2**32).  A block is never longer than the
runs left, so a call reads exactly the words one draw at a time reads,
in that order, and leaves the generator where such draws leave it.  A
permutation is a Fisher-Yates pass over positions, one swap partner per
step: for each 0-based position i from n - 1 down to 1, a partner below
i + 1, so the partners are one row below the bounds n, n - 1, ..., 2.

randrange, unit_fraction, split and categorical keep the stdlib stream:
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
# Largest product of a run of bounds read from one word.  Runs up to
# 2**32 would reject up to 13.7 % of their words (23 * 22 * ... * 17 =
# 1 235 591 280), each checked in Python; runs up to 2**24 reject at
# most 2**-8.
_PACK = 1 << 24
# Float64 entries per block of the digit decode (256 KB), whatever the
# row width and the number of rows.
_DIGITS = 1 << 15
# Words per getrandbits call: a block's int, its bytes and its arrays
# take 128 KB each, whatever the number of entries.
_BLOCK = 1 << 15


class _Bounds(NamedTuple):
    """One row's bounds as the word rule reads them, cut into runs of
    one word each: mods, the runs' products as a uint32 array (uint64
    when one is 2**32); tops, the largest word each run accepts; top,
    the least of them, so that only a word above it can be rejected;
    per entry, run, the run it is a digit of, inv, 1 over the product
    of the bounds before it in that run, and carry, its bound while the
    next entry is in the same run and 0 otherwise (run and inv end in
    one more entry, run 0 and inv 0, read as a 0 after the last); and
    dtype, the least unsigned type that holds the entries."""

    mods: np.ndarray
    tops: tuple[int, ...]
    top: int
    run: np.ndarray
    inv: np.ndarray
    carry: np.ndarray
    dtype: np.dtype

    def digits(self, values: np.ndarray) -> np.ndarray:
        """The (k, entries) rows whose runs read the (k, runs) values,
        as the transpose of an entry-major array, so that each entry's
        column is contiguous.

        With v a run's value and d the product of the bounds before
        entry j in the run, q_j = floor(v / d) is taken as
        floor(v * inv_j + 2**-26) in float64, and the entry is
        q_j - carry_j * q_(j+1).  This is exact: in a run of two or more
        entries v < 2**24, so v / d is an integer or lies at least
        1 / d >= 2**-24 below the next one, while the rounding errors
        stay below 2**-27; a lone bound has inv 1 and carry 0, so its
        entry is v itself, below 2**32.  The float arrays hold at most
        _DIGITS entries, a block of entries at a time."""
        k, width = len(values), len(self.carry)
        cols = values.T.astype(np.float64, order="C")
        out = np.empty((width, k), dtype=self.dtype)
        step = max(2, _DIGITS // max(k, 1))
        for a in range(0, width, step):
            b = min(a + step, width)
            q = cols.take(self.run[a : b + 1], axis=0)  # and the entry after
            q *= self.inv[a : b + 1, None]
            q += 2.0**-26
            np.floor(q, out=q)
            q[:-1] -= q[1:] * self.carry[a:b, None]
            out[a:b] = q[:-1]
        return out.T


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

    def unit_fraction(self) -> Fraction:
        """Uniform rational in [0, 1) with resolution 2**-64."""
        return Fraction(self._rng.getrandbits(64), _TWO64)

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
        right by the word rule, one word per run of bounds; ValueError
        for a bound below 1 or above 2**32.  The entries gather in the
        least unsigned type that holds them, one byte each while every
        bound is at most 256."""
        spec = self._bounds(bounds)
        runs = len(spec.tops)
        flat = np.empty(k * runs, dtype=spec.mods.dtype)
        if len(flat):
            # the runs' products along a block's words, from any run
            mods = np.tile(spec.mods, min(len(flat), _BLOCK) // runs + 2)
            at = 0
            while at < len(flat):
                words = self._words(min(_BLOCK, len(flat) - at))
                suspects = np.flatnonzero(words > spec.top)
                if len(suspects):
                    words = words[self._kept(words, suspects.tolist(), spec.tops, at)]
                col = at % runs
                flat[at : at + len(words)] = words % mods[col : col + len(words)]
                at += len(words)
        return spec.digits(flat.reshape(k, runs))

    def coin_rows(self, den: int, cut: int, heads: Sequence[int], tails: Sequence[int],
                  k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws of a coin and then a row: per draw, one word's entry
        below den, heads when it falls below cut, then one uniform_rows row
        below heads' bounds or tails', reading the words those draws
        read one after the other.  Returns the (k,) bool coins, True for
        heads, and the rows as one (k, w) array, w the longer bounds'
        length, each row left-aligned and padded with zeros, in the
        least unsigned type that holds both kinds.  ValueError for a den
        or bound below 1 or above 2**32.

        A block's words are walked one draw at a time in Python, coin to
        coin: the coin gives the row's length, and only a word above the
        least top of den and the bounds is checked on its own, so a
        block costs one step per draw; numpy then gathers the rows'
        words and takes their mods and digits."""
        coin, spec = self._bounds((den,)), (self._bounds(tails), self._bounds(heads))
        lens = tuple(len(s.tops) for s in spec)  # words a row reads, while none is rejected
        width = max(len(s.carry) for s in spec)  # entries of the longer row
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
                    values = kept.take(starts[mine, None] + np.arange(lens[head])) % row.mods
                    block[mine, : len(row.carry)] = row.digits(values)
            coins[done : done + len(flags)] = heads_now
            done += len(flags)
        return coins, rows

    def _words(self, m: int) -> np.ndarray:
        """The stream's next m 32-bit words, in the order they are drawn."""
        return np.frombuffer(self._rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")

    @staticmethod
    def _kept(words: np.ndarray, suspects: list[int], tops: tuple[int, ...], at: int) -> np.ndarray:
        """Which of a block's words the word rule keeps, the block's
        first word read for flat run at of rows whose runs' tops are
        tops; only the suspects, the words above the least top, are
        checked, and a rejected one shifts the rest by one run."""
        keep = np.ones(len(words), dtype=bool)
        shift, width = 0, len(tops)
        for i in suspects:
            if words[i] > tops[(at + i - shift) % width]:
                keep[i] = False
                shift += 1
        return keep

    def _bounds(self, bounds: Sequence[int]) -> _Bounds:
        """bounds as the word rule reads them, kept per bounds;
        ValueError for a bound below 1 or above 2**32.  The runs are
        cut greedily from the left: a bound joins the run before it
        while their product stays at most 2**24."""
        bounds = tuple(bounds)
        if bounds not in self._rows:
            for b in bounds:
                if not 1 <= b <= _WORD:
                    raise ValueError(f"bound {b} is outside 1..2**32 in {bounds}")
            runs, run, divs = [], [], []
            for b in bounds:
                if runs and runs[-1] * b <= _PACK:
                    divs.append(runs[-1])
                    runs[-1] *= b
                else:
                    divs.append(1)
                    runs.append(b)
                run.append(len(runs) - 1)
            carry = [b if r == after else 0 for b, r, after in zip(bounds, run, run[1:] + [-1])]
            tops = tuple(_WORD - 1 - _WORD % p for p in runs)
            self._rows[bounds] = _Bounds(
                np.array(runs, dtype=np.uint32 if max(runs, default=1) < _WORD else np.uint64),
                tops, min(tops, default=_WORD - 1), np.array(run + [0], dtype=np.intp),
                np.array([1 / d for d in divs] + [0.0]), np.array(carry, dtype=np.float64),
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


def as_stream(seed_or_stream: "int | SeedStream") -> SeedStream:
    if isinstance(seed_or_stream, SeedStream):
        return seed_or_stream
    return SeedStream(seed_or_stream)
