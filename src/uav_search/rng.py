"""Seeded random streams: NumPy's SeedSequence and PCG64 in plain Python, and PCG64 in lanes.

`Rng(entropy, spawn_key)` draws bit for bit what NumPy's `default_rng(SeedSequence(entropy,
spawn_key=spawn_key))` draws for `random()`, `uniform(low, high)` and `integers(n)`. NumPy
does not promise its streams across releases; these pin the output bytes, and no command
loads NumPy's random module. SeedSequence follows NumPy's `mix_entropy` and `generate_state`
(`bit_generator.pyx`) pass for pass, each with one running hash constant. PCG64 is O'Neill's
XSL-RR 128/64 generator, seeded as NumPy's `pcg64.h` seeds it. `spawn` seeds the streams
of many keys at once through the same hash, run on uint64 arrays with one lane per key: each
product stays below 2^64, the `& MASK32` after a subtraction cancels its wrap mod 2^64, and
integer arrays raise no overflow warning. It returns them as `Lanes`, which advance every
stream's PCG64 state together: state and increment are four 32-bit limbs in uint64 arrays,
and the product mod 2^128 is schoolbook, limb by limb. A limb product is below 2^64, and a
limb's sum, its increment limb, at most seven 32-bit product halves and a carry, stays below
2^36, so each limb is exact before its carry moves on. So `compile` draws each step of a strategy's 420 walks in one
pass, while one `Rng`, as a trial draws, builds no array; a lane hands its stream to an
`Rng` to go on alone.
"""

from __future__ import annotations

import numpy as np

MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LIMBS = [_PCG_MULT >> 32 * j & MASK32 for j in range(4)]


def _words(*items: int) -> list[int]:
    """The 32-bit words of each of `items` in turn, least significant first; 0 is one word."""
    out = []
    for n in items:
        if n < 0:
            raise ValueError(f"expected a non-negative integer, got {n}")
        out.append(n & MASK32)
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


def _state_words(entropy: int, key_words: list, n: int) -> list:
    """`SeedSequence(entropy, spawn_key=key).generate_state(n, uint64)`, n <= 4, from the key's
    flat 32-bit words `_words(*key)`: ints, or one uint64 array per word with a lane per key."""
    words = _words(entropy)
    pool, h = _hashes((words + [0] * 3)[:4], _INIT_A, _MULT_A)  # a missing word hashes as 0
    for src in range(4):
        h = _mix_in(pool, [dst for dst in range(4) if dst != src], pool[src], h)
    for word in (*words[4:], *key_words):
        h = _mix_in(pool, range(4), word, h)
    out, _ = _hashes((pool * 2)[:2 * n], _INIT_B, _MULT_B)
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * n, 2)]


def trial_seed(master_seed: int, index: int) -> int:
    """The `index`-th independent child of `master_seed`, for a trial, a sweep point or a
    compile strategy; stable in `index`, so any order or worker count draws the same."""
    return _state_words(master_seed, _words(index), 1)[0]


def spawn(entropy: int, keys: list[tuple[int, ...]]) -> Lanes:
    """The streams `Rng(entropy, key)` of `keys`, as lanes: one hash pass over the keys of each
    flat word count, each word a uint64 array with a lane per key (the empty key's are ints)."""
    flat = [_words(*key) for key in keys]
    words = np.zeros((4, len(keys)), dtype=np.uint64)
    for width in set(map(len, flat)):
        at = [i for i, key_words in enumerate(flat) if len(key_words) == width]
        lanes = np.array([flat[i] for i in at], dtype=np.uint64)
        for row, w in zip(words, _state_words(entropy, list(lanes.T), 4)):
            row[at] = w
    w0, w1, w2, w3 = words
    # PCG's srandom, as `Rng._seed`: inc = (w2:w3) << 1 | 1; a step from state 0, add w0:w1, a step.
    inc = _limbs(w2 << 1 | w3 >> 63, w3 << 1 | 1)
    return Lanes(_pcg_step(_carried(inc + _limbs(w0, w1)), inc), inc)


def _limbs(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The (4, lanes) 32-bit limbs of `hi << 64 | lo`, least significant first."""
    return np.stack([lo & MASK32, lo >> 32, hi & MASK32, hi >> 32])


def _carried(acc: np.ndarray) -> np.ndarray:
    """Limb sums below 2^64 as 32-bit limbs, each limb's carry added to the next, mod 2^128."""
    for k in range(3):
        acc[k + 1] += acc[k] >> 32
    acc &= MASK32
    return acc


def _pcg_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """`state * _PCG_MULT + inc` mod 2^128 on limbs, schoolbook: limb i times multiplier limb j
    is below 2^64, and its low and high halves add into limbs i + j and i + j + 1."""
    acc = inc.copy()
    for j, m in enumerate(_MULT_LIMBS):
        product = state[:4 - j] * m
        acc[j:] += product & MASK32
        acc[j + 1:] += product[:3 - j] >> 32
    return _carried(acc)


class Lanes:
    """PCG64 streams advanced together, one lane per stream: `random()` draws once from every
    lane, each bit for bit the `Rng.random()` of its stream. `lanes[i]` hands lane i to a
    scalar `Rng` that continues its stream, and `lanes[a:b]` is lanes a to b as `Lanes`."""

    __slots__ = ("_state", "_inc")

    def __init__(self, state: np.ndarray, inc: np.ndarray):
        self._state, self._inc = state, inc  # (4, lanes) uint64 32-bit limbs, least significant first

    def __len__(self) -> int:
        return self._state.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Lanes(self._state[:, i], self._inc[:, i])
        rng = Rng.__new__(Rng)
        rng._state, rng._inc = (sum(w << 32 * k for k, w in enumerate(x[:, i].tolist()))
                                for x in (self._state, self._inc))
        rng._half = None
        return rng

    def random(self) -> np.ndarray:
        """One float in [0, 1) a lane, from the top 53 bits of its next 64-bit output."""
        s = self._state[...] = _pcg_step(self._state, self._inc)  # in place: a slice's lanes are its parent's
        x = (s[3] << 32 | s[2]) ^ (s[1] << 32 | s[0])
        rot = s[3] >> 26
        return ((x >> rot | x << (64 - rot & 63)) >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> np.ndarray:
        """One float in [low, high) a lane, from one `random()`."""
        return low + (high - low) * self.random()


class Rng:
    """NumPy's `default_rng(SeedSequence(entropy, spawn_key=spawn_key))`, for
    `random`, `uniform` and `integers` alone."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...]):
        self._seed(*_state_words(entropy, _words(*spawn_key), 4))

    def _seed(self, w0: int, w1: int, w2: int, w3: int):
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
