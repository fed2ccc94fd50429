"""Portable seeded pseudo-random generator used wherever randomness enters.

Split assignments, undersampling, fold construction and the synthetic data
generator all draw from this generator so that results reproduce bit-for-bit
across platforms and languages.  The core is xorshift64* with state ``x``:

    x ^= x >> 12
    x ^= (x << 25) mod 2**64
    x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2**64

Seeds pass through the splitmix64 finalizer first, so small consecutive seeds
give unrelated streams:

    z = (seed + 0x9E3779B97F4A7C15) mod 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    mix64(seed) = z ^ (z >> 31)

Those formulas are the specification.  The stream is made in numpy blocks:
the step T is linear over GF(2), so from the states S[0:m] the next m are
S[m:2m] = T**m (S[0:m]), with T**(2**j) applied to a uint64 array as the XOR
of 8 lookups in tables indexed by the state's bytes; the uint64 product wraps
mod 2**64.  Blocks start at 64 values and double at each refill, so a stream
that draws a handful of values makes a handful.  Scalar methods read the
block; the bulk reads (``u64s``, ``uniforms``, ``normals``, and the draws of
``shuffle`` and ``sample_indices``) advance the stream exactly as the same
number of scalar calls would.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, TypeVar

import numpy as np

_MASK = (1 << 64) - 1
_TOP = np.uint64(_MASK)
_MULT = np.uint64(0x2545F4914F6CDD1D)
_FIRST_BLOCK, _MAX_BLOCK = 64, 1 << 16

T = TypeVar("T")


def mix64(z: int) -> int:
    """splitmix64 finalizer; maps any 64-bit value to a well-mixed one."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _apply(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The bit matrix whose byte tables are ``tables`` (8 x 256), applied to each of ``x``."""
    octets = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return functools.reduce(np.bitwise_xor, (tables[b][octets[:, b]] for b in range(8)))


@functools.cache
def _jump(j: int) -> np.ndarray:
    """Byte tables of T**(2**j): row b, entry v is the image of the state v << 8b."""
    if j == 0:  # the step applied to each one-bit state
        x = np.uint64(1) << np.arange(64, dtype=np.uint64)
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        columns = x ^ (x >> np.uint64(27))
    else:  # T**(2**j) = T**(2**(j-1)) applied to the columns of itself
        half = _jump(j - 1)
        columns = _apply(half, half[:, 1 << np.arange(8)].ravel())
    tables = np.zeros((8, 256), dtype=np.uint64)
    for k in range(8):  # entries with high bit k are those below it XOR column 8b + k
        tables[:, 1 << k : 2 << k] = tables[:, : 1 << k] ^ columns[k::8, None]
    return tables


class Rng:
    """Deterministic xorshift64* stream for a given integer seed."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        state = mix64(self._seed)
        # xorshift state must be nonzero
        self._state = state if state != 0 else 0x9E3779B97F4A7C15  # after the last value made
        self._block: list[int] = []  # values made, read up to _pos
        self._pos = 0

    def derive(self, stream: int) -> "Rng":
        """Independent child stream; derivation depends only on (seed, stream)."""
        return Rng(mix64(self._seed) ^ mix64(stream + 1))

    def _make(self, n: int) -> np.ndarray:
        """The next ``n`` outputs; the state moves past them."""
        states = np.empty(n + 1, dtype=np.uint64)
        states[0], done, j = self._state, 1, 0
        while done <= n:
            m = min(done, n + 1 - done)
            states[done : done + m] = _apply(_jump(j), states[:m])
            done, j = done + m, j + 1
        self._state = int(states[-1])
        return states[1:] * _MULT

    def next_u64(self) -> int:
        if self._pos == len(self._block):
            self._block = self._make(max(_FIRST_BLOCK, min(2 * len(self._block), _MAX_BLOCK))).tolist()
            self._pos = 0
        self._pos += 1
        return self._block[self._pos - 1]

    def u64s(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as a uint64 array: the rest of the block, then new ones."""
        head = np.array(self._block[self._pos : self._pos + n], dtype=np.uint64)
        self._pos += len(head)
        return np.concatenate([head, self._make(n - len(head))])

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError(f"below() requires n > 0, got {n}")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < threshold:
                return r % n

    def _belows(self, bounds: np.ndarray) -> list[int]:
        """``below(m)`` for each m of ``bounds``, in order, drawn as those scalar calls would draw them: one block of
        values, each checked against its rejection bound at once; after a rejected value, the rest are drawn again
        from the value after it."""
        bounds = bounds.astype(np.uint64)
        limits = _TOP - (0 - bounds) % bounds  # the largest accepted value: 2**64 - 1 - 2**64 mod m
        out = np.empty(len(bounds), np.uint64)
        values, done = self.u64s(len(bounds)), 0
        while done < len(bounds):
            rejected = np.flatnonzero(values > limits[done:])
            k = int(rejected[0]) if rejected.size else len(values)
            out[done : done + k] = values[:k] % bounds[done : done + k]
            done += k
            if rejected.size:
                values = np.concatenate([values[k + 1 :], self.u64s(1)])
        return out.tolist()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` calls of ``random`` as one float64 array."""
        return (self.u64s(n) >> 11).astype(np.float64) * (2.0**-53)

    def normals(self, n: int) -> np.ndarray:
        """``n`` deviates math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2), u1 and u2
        the next two ``random`` values, u1 drawn again while 0.0; log and cos are libm's, not numpy's."""
        u = self.uniforms(2 * n)
        zeros = np.flatnonzero(u[0::2] == 0.0)
        while zeros.size:  # a zero u1 is drawn again, which shifts every pair after it
            i = 2 * int(zeros[0])
            u = np.concatenate([u[:i], u[i + 1 :], self.uniforms(1)])
            zeros = np.flatnonzero(u[i::2] == 0.0) + i // 2
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), np.float64, n))
        return radius * np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), np.float64, n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: from the last item down to the second, item i swaps with item below(i + 1)."""
        for i, j in zip(range(len(items) - 1, 0, -1), self._belows(np.arange(len(items), 1, -1))):
            items[i], items[j] = items[j], items[i]

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("choice() on empty sequence")
        return items[self.below(len(items))]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates; order random."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        arr = list(range(n))
        for i, j in enumerate(self._belows(np.arange(n, n - k, -1))):
            arr[i], arr[i + j] = arr[i + j], arr[i]
        return arr[:k]
