"""Bit-exact pure-Python replicas of two `numpy.random.Generator` draws.

`Draws(seed)` owns `np.random.PCG64(seed)`, the bit generator that
`np.random.default_rng(seed)` builds, and reads its raw 64-bit words in
chunks as Python ints. From them it reproduces, number for number:

  integers(k)     `Generator.integers(k)` for 1 <= k <= 2**32: Lemire's
                  bounded rejection over 32-bit draws (Lemire, "Fast random
                  integer generation in an interval", ACM TOMACS 2019)
  permutation(n)  `Generator.permutation(n)` as a list: Fisher-Yates from
                  n - 1 down, each index drawn by masked rejection

Both read 32-bit draws as PCG64's `next_uint32` makes them: the low half of a
fresh word first, the high half kept for the next draw (O'Neill, "PCG",
HMC-CS-2014-0905). PCG64's raw stream is fixed by numpy's compatibility
policy (NEP 19); the Generator methods are not, so these replicas pin the
draws of the code that uses them. A call on a small argument costs well
under numpy's per-call overhead, which is most of the cost of a numpy draw
of one small number.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 512  # raw words read per refill
_U32 = 1 << 32


def _halves(bits: np.random.PCG64):
    """PCG64's 32-bit draws: each word's low half, then its high half."""
    while True:
        for word in bits.random_raw(_CHUNK).tolist():
            yield word & 0xFFFFFFFF
            yield word >> 32


class Draws:
    """A seeded stream that draws as `np.random.default_rng(seed)` would.

    It shares no state with any `Generator`: every draw of the stream must
    go through this object for the numbers to match.
    """

    __slots__ = ("_u32",)

    def __init__(self, seed):
        self._u32 = _halves(np.random.PCG64(seed)).__next__

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

    def permutation(self, n: int) -> list[int]:
        """A shuffled list(range(n)), as `Generator.permutation(n)`, for
        n <= 2**32 (numpy switches to 64-bit draws above that)."""
        out = list(range(n))
        if n < 2:
            return out
        u32 = self._u32
        mask = (1 << (n - 1).bit_length()) - 1  # smallest 2**b - 1 >= n - 1
        half = mask >> 1
        for i in range(n - 1, 0, -1):
            if i <= half:
                mask = half
                half >>= 1
            j = u32() & mask
            while j > i:
                j = u32() & mask
            out[i], out[j] = out[j], out[i]
        return out
