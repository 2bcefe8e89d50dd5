"""Bit-exact pure-Python replicas of three `numpy.random.Generator` draws.

`Draws(seed)` owns `np.random.PCG64(seed)`, the bit generator that
`np.random.default_rng(seed)` builds, and reads its raw 64-bit words in
chunks as Python ints. From them it reproduces, number for number:

  integers(k)     `Generator.integers(k)` for 1 <= k <= 2**32: Lemire's
                  bounded rejection over 32-bit draws (Lemire, "Fast random
                  integer generation in an interval", ACM TOMACS 2019)
  shuffle(x)      `Generator.shuffle` of a list or 1-D array, in place:
                  Fisher-Yates from len(x) - 1 down, each index drawn by
                  masked rejection; `Generator.permutation(array)` makes the
                  same draws on a copy
  permutation(n)  `Generator.permutation(n)` as a list: shuffle(range(n))

All three read 32-bit draws as PCG64's `next_uint32` makes them: the low half
of a fresh word first, the high half kept for the next draw (O'Neill, "PCG",
HMC-CS-2014-0905). `Draws.from_generator(rng)` picks up a `Generator`'s
stream where it stands, its pending high half included, for code that drew
through numpy first and draws nothing through it afterwards. PCG64's raw
stream is fixed by numpy's compatibility policy (NEP 19); the Generator
methods are not, so these replicas pin the draws of the code that uses them.
A call on a small argument costs well under numpy's per-call overhead, which
is most of the cost of a numpy draw of one small number.
"""

from __future__ import annotations

import itertools

import numpy as np

_CHUNK = 512  # raw words read per refill
_U32 = 1 << 32


def _chunk_halves(bits: np.random.PCG64) -> list[int]:
    """The next _CHUNK raw words as 32-bit halves, each word's low half first."""
    return bits.random_raw(_CHUNK).astype("<u8", copy=False).view("<u4").tolist()


def _u32_reader(bits: np.random.PCG64):
    """A callable returning bits' next 32-bit draw, as `next_uint32` would:
    first the high half the bit generator holds pending, if any, then the
    halves of fresh words. It reads words ahead, so nothing else may draw
    from bits afterwards."""
    state = bits.state
    pending = [state["uinteger"]] if state["has_uint32"] else []
    chunks = map(_chunk_halves, itertools.repeat(bits))
    return itertools.chain.from_iterable(
        itertools.chain((pending,), chunks)
    ).__next__


class Draws:
    """A seeded stream that draws as `np.random.default_rng(seed)` would.

    It shares no state with any `Generator`: every draw of the stream must
    go through this object for the numbers to match.
    """

    __slots__ = ("_u32",)

    def __init__(self, seed):
        self._u32 = _u32_reader(np.random.PCG64(seed))

    @classmethod
    def from_generator(cls, rng: np.random.Generator) -> "Draws":
        """Draws that continue rng's stream: the first draw is the one rng
        would make next. rng's bit generator is read ahead, so rng must not
        draw again."""
        draws = cls.__new__(cls)
        draws._u32 = _u32_reader(rng.bit_generator)
        return draws

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

    def permutation(self, n: int) -> list[int]:
        """A shuffled list(range(n)), as `Generator.permutation(n)`."""
        out = list(range(n))
        self.shuffle(out)
        return out
