"""`Draws` against numpy: the same seed gives the same numbers, call for call.

Every test runs one `Draws` and one `np.random.default_rng` on the same seed
through the same calls, so a pending high half, a rejection or a refill of the
word buffer that the replica handled differently would show as a different
number in that call or a later one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch._draws import _CHUNK, Draws

BOUNDS = (1, 2, 3, 60, 199, 2**31 + 5, 2**32)
U32 = 1 << 32


def call(source, op, arg):
    """One draw from a Draws or a Generator, as a number or a list of ints."""
    if op == "integers":
        return int(source.integers(arg))
    if op == "random":
        return source.random()
    if op == "choice":  # of arg = (n, k)
        if isinstance(source, Draws):
            return source.choice(*arg)
        return source.choice(*arg, replace=False).tolist()
    if op == "shuffle":  # of arg items that are not ints
        items = [f"item {i}" for i in range(arg)]
        source.shuffle(items)
        return items
    return [int(i) for i in source.permutation(arg)]


def assert_same_draws(draws, rng, calls, label=None):
    for i, (op, arg) in enumerate(calls):
        assert call(draws, op, arg) == call(rng, op, arg), (label, i, op, arg)


def assert_same_stream(seed, calls):
    assert_same_draws(Draws(seed), np.random.default_rng(seed), calls, seed)


def test_every_bound_and_length_interleaved_on_one_stream():
    calls = []
    for n in range(41):
        calls.append(("permutation", n))
        calls.extend(("integers", k) for k in BOUNDS)
        calls.append(("shuffle", n))
        calls.extend([("random", None), ("choice", (n, n // 2))])
    # a permutation(n) or a shuffle of n items takes at least n - 1 32-bit
    # draws and integers(k > 1) at least one, so the sweep crosses a refill
    # of the word buffer
    least = sum(n - 1 for n in range(2, 41)) + 41 * sum(k > 1 for k in BOUNDS)
    assert least > 2 * _CHUNK
    for seed in (0, 1, 2025, 2**63 + 7):
        assert_same_stream(seed, calls * 2)


def test_a_pending_high_half_carries_across_calls():
    # integers(3) leaves the high half of its word pending; the next call of
    # either kind must start from it, and a one-value range draws nothing
    calls = [
        ("integers", 3),
        ("permutation", 2),
        ("integers", 199),
        ("integers", 1),
        ("integers", 2**32),
        ("permutation", 1),
        ("permutation", 7),
        ("integers", 60),
    ]
    for seed in range(20):
        assert_same_stream(seed, calls)


def test_shuffle_matches_generator_shuffle_of_lists_and_arrays():
    for seed in range(5):
        draws, rng = Draws(seed), np.random.default_rng(seed)
        for n in range(41):
            for items in (
                [(n, i) for i in range(n)],
                [float(i) / 2 for i in range(n)],
                [None] * (n // 2) + ["x"] * (n - n // 2),
            ):
                mine, theirs = list(items), list(items)
                draws.shuffle(mine)
                rng.shuffle(theirs)
                assert mine == theirs, (seed, n)
            # the same draws as numpy's typed path for a 1-D array
            mine, theirs = list(range(n)), np.arange(n)
            draws.shuffle(mine)
            rng.shuffle(theirs)
            assert mine == theirs.tolist(), (seed, n)


AFTER_CALLS = [
    ("random", None),
    ("integers", 3),
    ("random", None),
    ("shuffle", 9),
    ("integers", 2**32),
    ("choice", (20, 7)),
    ("random", None),
    ("permutation", 5),
    ("integers", 1),
    ("integers", 199),
]


@pytest.mark.parametrize("before", [0, 1, 2, 5, 6, 2 * _CHUNK - 1])
def test_random_reads_a_whole_word_beside_a_pending_half(before):
    """After an odd number of integers(k) calls the generator holds the high
    half of a word: random() must read the next whole word and leave that
    half for the next 32-bit draw. After 2 * _CHUNK - 1 calls the held half
    is the last of a chunk, and the word comes from the next chunk."""
    for seed in range(10):
        draws, rng = Draws(seed), np.random.default_rng(seed)
        # one 32-bit draw each but for a 296 in 2**32 chance
        assert_same_draws(draws, rng, [("integers", 1000)] * before)
        assert rng.bit_generator.state["has_uint32"] == before % 2
        # 80 rounds take at least 1200 halves, past the next refill
        assert_same_draws(draws, rng, AFTER_CALLS * 80, (seed, before))


@pytest.mark.parametrize(
    "n, k",
    [
        (0, 0),
        (1, 1),
        (7, 0),
        (7, 7),
        (60, 13),
        (10000, 300),  # numpy's Floyd branch up to n = 10000 ...
        (10001, 200),  # ... and above it for k <= n // 50
        (10001, 201),  # its tail-shuffle branch
        (12000, 300),
        (12000, 12000),
    ],
)
def test_choice_matches_generator_choice_without_replacement(n, k):
    calls = [("choice", (n, k)), ("integers", 199), ("random", None)] * 2
    for seed in range(3):
        assert_same_stream(seed, calls)


@pytest.mark.parametrize("n, k", [(3, 4), (3, -1), (2**32 + 1, 1)])
def test_choice_outside_its_range_is_refused(n, k):
    with pytest.raises(ValueError):
        Draws(0).choice(n, k)


def first_word(seed):
    return int(np.random.PCG64(seed).random_raw(1)[0])


def test_rejection_thresholds_are_exact():
    """The first 32-bit draw u lands exactly on the rejection boundary.

    Lemire's rule draws again while (u * k) mod 2**32 < 2**32 mod k. For
    k = 3 * 2**30 and u = 3 (mod 4) the low word equals the threshold: the
    draw is kept. For u even and k = -(u + 1)**-1 mod 2**32 (when that
    exceeds 2**31) it is one below: the draw is rejected. A threshold one
    off either way changes the number returned.
    """
    kept = next(s for s in range(100) if first_word(s) & 3 == 3)
    k = 3 << 30
    u = first_word(kept) & 0xFFFFFFFF
    assert u * k % U32 == U32 % k
    assert_same_stream(kept, [("integers", k)] * 3)

    found = 0
    for seed in range(200):
        u = first_word(seed) & 0xFFFFFFFF
        if u % 2:
            continue
        k = -pow(u + 1, -1, U32) % U32
        if k <= 2**31:
            continue
        assert u * k % U32 == U32 % k - 1
        assert_same_stream(seed, [("integers", k)] * 3)
        found += 1
    assert found >= 5


@pytest.mark.parametrize("k", [0, -1, 2**32 + 1])
def test_bounds_outside_one_to_two_to_the_32_are_refused(k):
    with pytest.raises(ValueError):
        Draws(0).integers(k)


CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
        st.tuples(st.just("integers"), st.integers(1, 2**32)),
        st.tuples(st.just("permutation"), st.integers(0, 40)),
        st.tuples(st.just("shuffle"), st.integers(0, 40)),
        st.tuples(st.just("random"), st.none()),
        st.tuples(
            st.just("choice"),
            st.integers(0, 40).flatmap(
                lambda n: st.tuples(st.just(n), st.integers(0, n))
            ),
        ),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=CALLS)
def test_any_interleaving_matches_numpy(seed, calls):
    assert_same_stream(seed, calls)
