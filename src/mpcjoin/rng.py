"""Counter-based deterministic PRNG (SplitMix64) and keyed hashing.

All randomness in this project flows through this module so that generated
instances and hash placements are byte-identical across runs and platforms.
Everything is mixed by one function, the SplitMix64 finalizer `mix64`, keyed
by `derive_key(seed, *path)`, which hashes an arbitrary key path (strings /
ints) into the seed, so each relation, attribute, or hash coordinate gets an
independent key.  A `Stream` draws a sequence from its key; `hash_family`
places values by it: an int v hashes to mix64(v ^ key), and a tuple folds
its values, z = mix64(z ^ v) from z = key, so a 1-tuple hashes as its one
value does.  `hash_column` is the same h over a whole list of values.

One lane kernel serves both `Stream.draws` and `hash_column`.  Up to
`_CHUNK` 64-bit words sit in one int of 128-bit lanes, word j of the chunk
(j = 0, 1, ...) in bits [128j, 128j + 64), and `_mix` runs each finalizer
step once on the whole int:

- Before each multiply, every lane is masked to 64 bits: the right shift
  brings the next lane's low bits down into this lane's high half, and a
  multiply would carry them on.  A lane below 2^64 times a 64-bit
  multiplier stays below 2^128, so the product stays in its lane.
- After each multiply, the lanes are masked to 64 bits again, as `mix64`
  masks its product.
- The mixed words are the low 64-bit word of every lane: the int is
  written in the host's byte order and read back as native words through
  `memoryview.cast('Q')`, whose `_DRAWN` slice picks each lane's low word
  in lane order, so every platform reads the same values.  A column of
  values goes in the same way: `struct.pack` writes them as native words,
  they are copied into the `_DRAWN` slots of zeroed lanes, and the bytes
  are read as an int in the host's byte order, so no byte order is
  assumed.

SplitMix64 is counter-based: the k-th draw (k = 1, 2, ...) of a stream in
state s is mix64(s + k*GAMMA), independent of the draws before it.
`Stream.draws` therefore mixes a whole chunk at once: its lanes start as
b in every lane plus STEP, where b is s + k*GAMMA for the chunk's first
draw k and STEP holds j*GAMMA in lane j; STEP is built once, at the first
column.  No lane reaches 2^76 before the kernel masks it, so none carries
into the next.  `hash_column` XORs the key, spread into every lane, into a
packed column and mixes once for ints, or once per position for tuples,
z = mix(z ^ column) from z = the spread key.

Every finalizer step, and the XOR with the key, is invertible on 64-bit
words, so h(v) = mix64(v ^ key) is a bijection on [0, 2^64) (the proof is
in `algorithms._balanced_hashes`).  What it buys: values in that range
never tie on h, so ordering them by h alone needs no tie-break.
"""

from __future__ import annotations

import struct
import sys
from functools import cache
from operator import mod

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# The finalizer's multipliers
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_CHUNK = 2048                 # words mixed at once by `_mix`
# The native 64-bit words of an int written in the host's byte order run
# from its low end on a little-endian host and from its high end on a
# big-endian one; this slice picks each lane's low word, in lane order.
_DRAWN = slice(None, None, -2) if sys.byteorder == "big" else slice(0, None, 2)


def _spread(w: int, c: int) -> int:
    """The word w in the low word of each of c lanes."""
    return int.from_bytes(w.to_bytes(16, "little") * c, "little")


@cache
def _lanes() -> tuple:
    """LOW (the 64-bit mask in every lane) and STEP for a full chunk, built
    at the first column."""
    step = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(_CHUNK)),
                          "little") * _GAMMA
    return _spread(_MASK, _CHUNK), step


def _cut(c: int) -> tuple:
    """LOW and STEP for a chunk of c <= `_CHUNK` words: their low 128*c
    bits."""
    lanes = _lanes()
    if c == _CHUNK:
        return lanes
    cut = (1 << 128 * c) - 1
    return tuple(x & cut for x in lanes)


def _mix(z: int, low: int) -> int:
    """`mix64` on every 128-bit lane of z at once: the low words of the
    result's lanes are mix64 of the low words of z's lanes."""
    z &= low
    z = (((z ^ (z >> 30)) & low) * MIX1) & low
    z = (((z ^ (z >> 27)) & low) * MIX2) & low
    return z ^ (z >> 31)


def _words(z: int, c: int) -> list:
    """The low words of the first c lanes of z, in lane order."""
    return memoryview(z.to_bytes(16 * c, sys.byteorder)).cast("Q")[_DRAWN].tolist()


def _packed(values, c: int) -> int:
    """The c ints of values, each masked to 64 bits, in the low words of c
    lanes; a value that is not an int raises TypeError."""
    try:
        b = struct.pack("=%dQ" % c, *values)
    except struct.error:                # an int outside [0, 2^64)
        b = struct.pack("=%dQ" % c, *[v & _MASK for v in values])
    lanes = bytearray(16 * c)
    memoryview(lanes).cast("Q")[_DRAWN] = memoryview(b).cast("Q")
    return int.from_bytes(lanes, sys.byteorder)


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


def hash_column(seed: int, *path):
    """The h of `hash_family(seed, *path)` over a column: a function that
    maps a sequence of values to [h(v) for v in values].

    Values go through the lane kernel a chunk at a time.  A chunk of ints is
    mixed once, each int masked to 64 bits as `mix64` masks it; a chunk of
    tuples, which must have one length, is mixed once per position,
    z = mix(z ^ column) from z = key.  A chunk mixing ints and tuples, or
    tuples of different lengths, raises; a value that is neither raises
    TypeError.
    """
    key = derive_key(seed, *path)

    def column(values) -> list:
        out = []
        for k0 in range(0, len(values), _CHUNK):
            chunk = values[k0:k0 + _CHUNK]
            c = len(chunk)
            low, _ = _cut(c)
            z = _spread(key, c)
            if isinstance(chunk[0], tuple):
                if len(set(map(len, chunk))) > 1:
                    raise ValueError("cannot hash tuples of different lengths")
                for col in zip(*chunk):
                    z = _mix(z ^ _packed(col, c), low)
            else:
                z = _mix(z ^ _packed(chunk, c), low)
            out += _words(z, c)
        return out

    return column


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
        for k0 in range(0, n, _CHUNK):
            c = min(_CHUNK, n - k0)
            low, step = _cut(c)
            out += _words(_mix(_spread((s + (k0 + 1) * _GAMMA) & _MASK, c) + step, low), c)
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

    def positions(self, n: int) -> list:
        """The inverse of `shuffle(list(range(1, n + 1)))` drawn from the
        same state: entry v - 1 is the index that the shuffle gives v.  A
        shuffle is the product of its swaps in order, so its inverse is the
        same swaps in reverse order applied to the identity."""
        js = list(map(mod, self.draws(max(n - 1, 0)), range(n, 1, -1)))
        xs = list(range(n))
        for i, j in zip(range(1, n), reversed(js)):
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
