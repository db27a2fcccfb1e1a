"""Seeded random streams: NumPy's SeedSequence and PCG64 in plain Python.

`Rng(entropy, spawn_key)` draws bit for bit what NumPy's `default_rng(SeedSequence(entropy,
spawn_key=spawn_key))` draws for `random()`, `uniform(low, high)` and `integers(n)`. NumPy
does not promise its streams across releases; these pin the output bytes, and no command
loads NumPy's random module. SeedSequence follows NumPy's `mix_entropy` and `generate_state`
(`bit_generator.pyx`) pass for pass, each with one running hash constant. PCG64 is O'Neill's
XSL-RR 128/64 generator, seeded as NumPy's `pcg64.h` seeds it. A seed's children share its
cached head pool, which halves the seeding of each of the 1,260 streams `compile` draws.
"""

from __future__ import annotations

from functools import lru_cache

MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """The 32-bit words of `n`, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    out = [n & MASK32]
    while n := n >> 32:
        out.append(n & MASK32)
    return out


def _hashes(words: list[int], h: int, mult: int) -> tuple[list[int], int]:
    """NumPy's `hashmix` of each word in turn from constant `h`: the hashes and the next constant."""
    out = []
    for word in words:
        v = word ^ h
        h = h * mult & MASK32
        v = v * h & MASK32
        out.append(v ^ v >> 16)
    return out, h


def _mix_in(pool: list[int], dsts: range | list[int], word: int, h: int) -> int:
    """Mix a hash of `word` into each `pool[dst]` in turn, from constant `h`; return the next constant."""
    for dst in dsts:
        v = word ^ h
        h = h * _MULT_A & MASK32
        v = v * h & MASK32
        v = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & MASK32
        pool[dst] = v ^ v >> 16
    return h


@lru_cache(maxsize=16)
def _head_pool(entropy: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The pool mixed from `entropy`'s first four words, the constant after it, and the words after those."""
    words = _words(entropy)
    pool, h = _hashes((words + [0] * 3)[:4], _INIT_A, _MULT_A)  # a missing word hashes as 0
    for src in range(4):
        h = _mix_in(pool, [dst for dst in range(4) if dst != src], pool[src], h)
    return tuple(pool), h, tuple(words[4:])


def _state_words(entropy: int, spawn_key: tuple[int, ...], n: int) -> list[int]:
    """`SeedSequence(entropy, spawn_key=spawn_key).generate_state(n, uint64)`, n <= 4."""
    head, h, rest = _head_pool(entropy)
    pool = list(head)
    for word in (*rest, *(w for key in spawn_key for w in _words(key))):
        h = _mix_in(pool, range(4), word, h)
    out, _ = _hashes((pool * 2)[:2 * n], _INIT_B, _MULT_B)
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
