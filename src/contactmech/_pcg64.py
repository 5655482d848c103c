"""numpy's `default_rng(seed).uniform(low, high, shape)` bit for bit,
without numpy.random (whose import loads `secrets` and OpenSSL).

`SeedSequence(seed)` hashes the seed's 32-bit words into a pool of four
and draws eight words from it to seed PCG64 (O'Neill 2014), a 128-bit
LCG whose output is the XOR of the state's halves rotated right by its
top six bits; a double is the top 53 bits of an output times 2**-53.
The constants are numpy's (`bit_generator.pyx`, `pcg64.h`).
"""

from __future__ import annotations

import math
import operator

import numpy as np

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """numpy's hashmix: each call multiplies its constant by `mult`."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    x = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
    return x ^ x >> 16


def _seed_state(seed) -> tuple:
    """PCG64's (state, inc) after `PCG64(SeedSequence(seed))`."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]  # low word first, at least one
    while seed := seed >> 32:
        words.append(seed & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [_mix(value, hashmix(word)) for value in pool]
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    v0, v1, v2, v3 = (lo | hi << 32 for lo, hi in zip(out[::2], out[1::2]))
    inc = ((v2 << 64 | v3) << 1 | 1) & _M128
    return ((inc + (v0 << 64 | v1)) * _PCG_MULT + inc) & _M128, inc


def uniform(seed, low: float, high: float, shape: tuple) -> np.ndarray:
    """`np.random.default_rng(seed).uniform(low, high, shape)`."""
    state, inc = _seed_state(seed)
    states = []
    for _ in range(math.prod(shape)):
        state = (state * _PCG_MULT + inc) & _M128
        states.append(state.to_bytes(16, "little"))
    lo, hi = np.frombuffer(b"".join(states), "<u8").reshape(-1, 2).T
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = x >> rot | x << (-rot & np.uint64(63))
    return (low + (high - low) * ((x >> np.uint64(11)) * 2.0**-53)).reshape(shape)
