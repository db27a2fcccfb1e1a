"""Seeded random streams: NumPy's SeedSequence and PCG64 in plain Python.

`Rng(entropy, spawn_key)` draws bit for bit what NumPy's
`default_rng(SeedSequence(entropy, spawn_key=spawn_key))` draws for the three
calls the package makes: `random()`, `uniform(low, high)` and `integers(n)`.
NumPy does not promise its streams across releases; these pin the output
bytes, and no command loads NumPy's random module. SeedSequence hashes 32-bit
words into a pool of four with the constants of NumPy's `bit_generator.pyx`;
PCG64 is O'Neill's XSL-RR 128/64 generator, seeded as NumPy's `pcg64.h`
seeds it. The hash constants do not depend on the input, so their sequences
are computed once, and every child of one seed shares its cached head pool.
"""

from __future__ import annotations

from functools import lru_cache

MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _powers(init: int, mult: int, n: int) -> list[int]:
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & MASK32)
    return out


# The k-th hash of a word xors it with _A[k] and multiplies by _A[k + 1]; _A grows
# for long inputs. generate_state(4, uint64) hashes its eight words with _B alike.
_A = _powers(_INIT_A, _MULT_A, 49)
_B = _powers(_INIT_B, _MULT_B, 9)


def _words(n: int) -> list[int]:
    """The 32-bit words of `n`, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    out = [n & MASK32]
    while n := n >> 32:
        out.append(n & MASK32)
    return out


def _mix_in(pool: list[int], dst: int, word: int, k: int) -> None:
    """Mix the k-th hash of `word` into `pool[dst]`."""
    v = (word ^ _A[k]) * _A[k + 1] & MASK32
    v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & MASK32
    pool[dst] = v ^ v >> 16


@lru_cache(maxsize=16)
def _head_pool(entropy: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pool mixed from the first four words of `entropy`, zero-padded as
    a missing word hashes, and the words after those."""
    words = _words(entropy)
    pool = [0] * 4
    for k, word in enumerate((words + pool)[:4]):
        v = (word ^ _A[k]) * _A[k + 1] & MASK32
        pool[k] = v ^ v >> 16
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for k, (src, dst) in enumerate(pairs, start=4):
        _mix_in(pool, dst, pool[src], k)
    return tuple(pool), tuple(words[4:])


def _state_words(entropy: int, spawn_key: tuple[int, ...], n: int) -> list[int]:
    """`SeedSequence(entropy, spawn_key=spawn_key).generate_state(n, uint64)`, n <= 4."""
    head, rest = _head_pool(entropy)
    pool = list(head)
    tail = [*rest, *(w for key in spawn_key for w in _words(key))]
    if len(_A) < 17 + 4 * len(tail):
        _A[:] = _powers(_INIT_A, _MULT_A, 17 + 4 * len(tail))
    for i, word in enumerate(tail):
        for dst in range(4):
            _mix_in(pool, dst, word, 16 + 4 * i + dst)
    out = []
    for i in range(2 * n):
        v = (pool[i % 4] ^ _B[i]) * _B[i + 1] & MASK32
        out.append(v ^ v >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * n, 2)]


def trial_seed(master_seed: int, index: int) -> int:
    """The `index`-th independent child of `master_seed`, for a trial, a sweep point or a
    compile strategy; stable in `index`, so any order or worker count draws the same."""
    return _state_words(master_seed, (index,), 1)[0]


class Rng:
    """NumPy's `default_rng(SeedSequence(entropy, spawn_key=spawn_key))`, for
    `random`, `uniform` and `integers` alone."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...]):
        w0, w1, w2, w3 = _state_words(entropy, spawn_key, 4)
        # PCG's srandom: a step from state 0, add the seed, one more step.
        self._inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & MASK128
        self._half: int | None = None  # the upper half of a 64-bit output, for the next 32-bit draw

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & MASK128
        x = (s >> 64 ^ s) & MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & MASK32

    def random(self) -> float:
        """A float in [0, 1), from the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high), from one `random()`."""
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """An int in [0, n) by Lemire's method on 32-bit draws; n = 1 draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"need 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        threshold = (1 << 32) % n  # the low halves that would bias the pick
        while True:
            m = self._next32() * n
            if m & MASK32 >= threshold:
                return m >> 32
