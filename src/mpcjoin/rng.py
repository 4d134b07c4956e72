"""Counter-based deterministic PRNG (SplitMix64) and keyed hashing.

All randomness in this project flows through this module so that generated
instances and hash placements are byte-identical across runs and platforms.
Everything is mixed by one function, the SplitMix64 finalizer `mix64`, keyed
by `derive_key(seed, *path)`, which hashes an arbitrary key path (strings /
ints) into the seed, so each relation, attribute, or hash coordinate gets an
independent key.  A `Stream` draws a sequence from its key; `hash_family`
places values by it: an int v hashes to mix64(v ^ key), and a tuple folds
its values, z = mix64(z ^ v) from z = key, so a 1-tuple hashes as its one
value does.

SplitMix64 is counter-based: the k-th draw (k = 1, 2, ...) of a stream in
state s is mix64(s + k*GAMMA), independent of the draws before it.
`Stream.draws` therefore mixes a whole column at once.  It packs up to
`_CHUNK` draws into one int of 128-bit lanes, draw j of the chunk
(j = 0, 1, ...) in bits [128j, 128j + 64), and runs each finalizer step
once on the whole int:

- The lanes start as b*ONES + STEP, masked to 64 bits per lane, where b
  is s + k*GAMMA for the chunk's first draw k, ONES has a 1 in every lane
  and STEP holds j*GAMMA in lane j; ONES and STEP are built once, at the
  first draw.  No lane reaches 2^76 before the mask, so none carries
  into the next.
- Before each multiply, every lane is masked to 64 bits: the right shift
  brings the next lane's low bits down into this lane's high half, and a
  multiply would carry them on.  A lane below 2^64 times a 64-bit
  multiplier stays below 2^128, so the product stays in its lane.
- After each multiply, the lanes are masked to 64 bits again, as `mix64`
  masks its product.
- The draws come out as the low 64-bit word of every lane: the int is
  written in the host's byte order and read back as native words through
  `memoryview.cast('Q')`, so every platform reads the same values.
"""

from __future__ import annotations

import sys
from functools import cache
from operator import mod

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# The finalizer's multipliers
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_CHUNK = 2048                 # draws mixed at once by `Stream.draws`
# The native 64-bit words of an int written in the host's byte order run
# from its low end on a little-endian host and from its high end on a
# big-endian one; this slice picks each lane's low word, in lane order.
_DRAWN = slice(None, None, -2) if sys.byteorder == "big" else slice(0, None, 2)


@cache
def _lanes() -> tuple:
    """ONES, LOW (the 64-bit mask in every lane) and STEP for a full
    chunk, built at the first `Stream.draws` call; a shorter chunk of c
    draws keeps their low 128*c bits."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
    step = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(_CHUNK)),
                          "little") * _GAMMA
    return ones, ones * _MASK, step


def mix64(z: int) -> int:
    """SplitMix64 finalizer: one full avalanche of a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * MIX1) & _MASK
    z = ((z ^ (z >> 27)) * MIX2) & _MASK
    return z ^ (z >> 31)


def _fnv64(s: str) -> int:
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


def derive_key(seed: int, *path) -> int:
    """Derive a stream key from a seed and a path of strings/ints."""
    h = mix64(seed)
    for part in path:
        if isinstance(part, str):
            h = mix64(h ^ _fnv64(part))
        else:
            h = mix64(h ^ (part & _MASK))
    return h


def hash_family(seed: int, *path):
    """An independent hash function h: value -> int in [0, 2^64).

    The family member is selected by the key path, so distinct (plan
    variant, variable) pairs hash independently.  Values may be ints or
    tuples of ints, whose values are folded in order.
    """
    key = derive_key(seed, *path)

    def h(value) -> int:
        if isinstance(value, tuple):
            z = key
            for v in value:
                z = mix64(z ^ v)
            return z
        return mix64(value ^ key)

    return h


class Stream:
    """A SplitMix64 sequence identified by (seed, *path)."""

    def __init__(self, seed: int, *path):
        self._state = derive_key(seed, *path)

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def below(self, n: int) -> int:
        # Modulo reduction; bias is ~n/2^64 and irrelevant for simulation
        # purposes, while keeping the sequence portable.
        return self.next64() % n

    def coin(self) -> bool:
        return bool(self.next64() & 1)

    def draws(self, n: int) -> list:
        """The next n values of `next64()`, mixed a chunk at a time."""
        if n < 0:
            raise ValueError("cannot draw %d values" % n)
        s = self._state
        out = []
        ones, low, step = _lanes()
        for k0 in range(0, n, _CHUNK):
            c = min(_CHUNK, n - k0)
            if c < _CHUNK:                  # the last chunk
                cut = (1 << 128 * c) - 1
                ones, low, step = ones & cut, low & cut, step & cut
            z = (((s + (k0 + 1) * _GAMMA) & _MASK) * ones + step) & low
            z = (((z ^ (z >> 30)) & low) * MIX1) & low
            z = (((z ^ (z >> 27)) & low) * MIX2) & low
            words = memoryview((z ^ (z >> 31)).to_bytes(16 * c, sys.byteorder))
            out += words.cast("Q")[_DRAWN].tolist()
        self._state = (s + n * _GAMMA) & _MASK
        return out

    def shuffle(self, xs: list) -> list:
        """In-place Fisher-Yates; returns xs.  Swaps position i with
        `below(i + 1)` for i = len(xs) - 1 down to 1."""
        n = len(xs)
        js = map(mod, self.draws(max(n - 1, 0)), range(n, 1, -1))
        for i, j in zip(range(n - 1, 0, -1), js):
            xs[i], xs[j] = xs[j], xs[i]
        return xs

    def sample_distinct(self, count: int, n: int) -> list:
        """count distinct values from [1, n], by rejection (count << n)."""
        if count > n:
            raise ValueError("cannot sample %d distinct values from [1,%d]" % (count, n))
        if 2 * count >= n:
            vals = list(range(1, n + 1))
            self.shuffle(vals)
            return vals[:count]
        seen = set()
        out = []
        while len(out) < count:
            v = self.below(n) + 1
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out
