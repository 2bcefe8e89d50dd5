"""Bit-exact pure-Python replicas of five `numpy.random.Generator` draws.

`Draws(seed)` owns `np.random.PCG64(seed)`, the bit generator that
`np.random.default_rng(seed)` builds, and reads its raw 64-bit words in
chunks as Python ints. From them it reproduces, number for number:

  integers(k)     `Generator.integers(k)` for 1 <= k <= 2**32: Lemire's
                  bounded rejection over 32-bit draws (Lemire, "Fast random
                  integer generation in an interval", ACM TOMACS 2019)
  random()        `Generator.random()`: the top 53 bits of one whole word
  shuffle(x)      `Generator.shuffle` of a list or 1-D array, in place:
                  Fisher-Yates from len(x) - 1 down, each index drawn by
                  masked rejection; `Generator.permutation(array)` makes the
                  same draws on a copy
  permutation(n)  `Generator.permutation(n)` as a list: shuffle(range(n))
  choice(n, k)    `Generator.choice(n, k, replace=False)` as a list

The 32-bit draws read PCG64's words as `next_uint32` does: the low half of a
fresh word first, the high half kept pending for the next 32-bit draw
(O'Neill, "PCG", HMC-CS-2014-0905). random() reads the next whole word and
leaves a pending half pending. PCG64's raw stream is fixed by numpy's
compatibility policy (NEP 19); the Generator methods are not, so these
replicas pin the draws of the code that uses them. A call on a small
argument costs well under numpy's per-call overhead, which is most of the
cost of a numpy draw of one small number.
"""

from __future__ import annotations

import itertools

import numpy as np

_CHUNK = 512  # raw words read per refill
_U32 = 1 << 32


def _chunks(bits: np.random.PCG64, current: list):
    """Each next _CHUNK raw words of bits as an iterator over their 32-bit
    halves, each word's low half first. current holds the latest chunk's
    list of halves and its iterator, for random() to step back in."""
    while True:
        words = bits.random_raw(_CHUNK).astype("<u8", copy=False)
        halves = words.view("<u4").tolist()
        rest = iter(halves)
        current[:] = halves, rest
        yield rest


class Draws:
    """A seeded stream that draws as `np.random.default_rng(seed)` would.

    It shares no state with any `Generator`: every draw of the stream must
    go through this object for the numbers to match.
    """

    __slots__ = ("_u32", "_current")

    def __init__(self, seed):
        # a chunk holds an even number of halves, so an odd count left in the
        # current one means its next half is the high half of a word
        self._current = [[], iter(())]
        chunks = _chunks(np.random.PCG64(seed), self._current)
        self._u32 = itertools.chain.from_iterable(chunks).__next__

    def integers(self, k: int) -> int:
        """A uniform draw from range(k), as `Generator.integers(k)`."""
        if not 1 <= k <= _U32:
            raise ValueError(f"integers needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0  # numpy draws nothing for a one-value range
        # the threshold 2**32 mod k is below k, so most draws skip it; at
        # k = 2**32 both are 0 and the draw comes back as is, as in numpy
        m = self._u32() * k
        if m & 0xFFFFFFFF < k:
            threshold = _U32 % k
            while m & 0xFFFFFFFF < threshold:
                m = self._u32() * k
        return m >> 32

    def shuffle(self, x: list) -> None:
        """Shuffle the list x in place, as `Generator.shuffle`, for
        len(x) <= 2**32 (numpy switches to 64-bit draws above that)."""
        u32 = self._u32
        n = len(x)
        mask = (1 << (n - 1).bit_length()) - 1  # smallest 2**b - 1 >= n - 1
        half = mask >> 1
        for i in range(n - 1, 0, -1):
            if i <= half:
                mask = half
                half >>= 1
            j = u32() & mask
            while j > i:
                j = u32() & mask
            x[i], x[j] = x[j], x[i]

    def random(self) -> float:
        """A uniform float in [0, 1), as `Generator.random()`: the top 53
        bits of the next whole word. A pending high half stays pending."""
        u32 = self._u32
        if not self._current[1].__length_hint__() % 2:
            return ((u32() | u32() << 32) >> 11) * 2.0**-53
        held = u32()
        word = u32() | u32() << 32
        # put the held half back where the word's high half was read and
        # step the iterator back onto it; the word may have come from a
        # fresh chunk, which then holds the held half at position 1
        halves, rest = self._current
        at = len(halves) - rest.__length_hint__() - 1
        halves[at] = held
        rest.__setstate__(at)
        return (word >> 11) * 2.0**-53

    def permutation(self, n: int) -> list[int]:
        """A shuffled list(range(n)), as `Generator.permutation(n)`."""
        out = list(range(n))
        self.shuffle(out)
        return out

    def choice(self, n: int, k: int) -> list[int]:
        """k distinct draws from range(n) in random order, as
        `Generator.choice(n, k, replace=False)`, for n <= 2**32."""
        if not 0 <= k <= n <= _U32:
            raise ValueError(f"choice needs 0 <= k <= n <= 2**32, got {n}, {k}")
        if n > 10000 and k > n // 50:
            # numpy shuffles the tail of range(n) and keeps it
            picks = list(range(n))
            self._shuffle_from(picks, max(n - k, 1))
            return picks[n - k :]
        # Floyd's sampling, a repeat replaced by the new top value, then a
        # shuffle of the picks
        picks, seen = [], set()
        for top in range(n - k, n):
            v = self.integers(top + 1)
            if v in seen:
                v = top
            seen.add(v)
            picks.append(v)
        self._shuffle_from(picks, 1)
        return picks

    def _shuffle_from(self, x: list, first: int) -> None:
        """Fisher-Yates over x from len(x) - 1 down to first, each index
        drawn by integers(i + 1), as numpy's `_shuffle_int`; unlike
        shuffle(), these draws are Lemire's, not masked."""
        integers = self.integers
        for i in range(len(x) - 1, first - 1, -1):
            j = integers(i + 1)
            x[i], x[j] = x[j], x[i]
