"""Counter-based deterministic random streams.

Every draw is a pure function of (seed, stream, counter), so any run can be
reproduced from three integers, in any language, without replaying state.
The generator is splitmix64:

    word(k) = mix64((base + (k + 1) * GAMMA) mod 2**64)

where ``base = mix64(seed) xor mix64((stream + 1) * GAMMA)``,
GAMMA = 0x9E3779B97F4A7C15 and mix64 is the standard finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits: u = (word >> 11) * 2**-53.
Normals are Box-Muller pairs on one block of uniforms: u1 is its first half shifted
into (0, 1], u2 its second half.
Integer draws reduce words modulo the span (bias < 2**-53 for spans here).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

SEED_RANGE = "[0, 2**64)"  # every seed and stream; a wider integer would alias a smaller one


def parse_seed(text: str) -> int:
    """``text`` as a seed: ASCII decimal digits, blanks around them allowed, at most 20 after
    leading zeros (``int()`` refuses over 4300), in ``SEED_RANGE``; else a ``DomainError``."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit() and len(digits.lstrip("0")) <= 20
            and int(digits) <= _MASK):
        raise DomainError(f"not a seed (an integer in {SEED_RANGE}): {text!r}")
    return int(digits)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Deterministic splitmix64 stream addressed by (seed, stream, counter); the first word
    drawn is word(``counter``)."""

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        if not (0 <= seed <= _MASK and 0 <= stream <= _MASK and 0 <= counter <= _MASK):
            raise DomainError(f"seed, stream and counter must be integers in {SEED_RANGE}, "
                              f"got {seed}, {stream} and {counter}")
        seed_word, stream_word = _mix64(np.array([seed & _MASK, (stream + 1) * _GAMMA & _MASK],
                                                 dtype=np.uint64))
        self._base = seed_word ^ stream_word
        self._counter = counter

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._base + idx * np.uint64(_GAMMA))

    def uniform(self, size: int) -> np.ndarray:
        """Doubles in [0, 1)."""
        return (self.words(size) >> np.uint64(11)) * 2.0 ** -53

    def normal(self, size: int) -> np.ndarray:
        """Standard normals via Box-Muller."""
        pairs = (size + 1) // 2
        u1, u2 = self.uniform(2 * pairs).reshape(2, pairs)
        u1 += 2.0 ** -53  # (0, 1]: (k + 1) * 2**-53 is exact for k < 2**53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:size]

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """Integers in [low, high), modulo-reduced."""
        if high <= low:
            raise DomainError("empty integer range")
        span = np.uint64(high - low)
        return (self.words(size) % span).astype(np.int64) + low
