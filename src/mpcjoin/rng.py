"""Counter-based deterministic PRNG (SplitMix64).

All randomness in this project flows through this module so that generated
instances and hash placements are byte-identical across runs and platforms.
The generator is the standard SplitMix64 mixer; streams are split by hashing
an arbitrary key path (strings / ints) into the seed, so each relation,
attribute, or hash coordinate gets an independent stream.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# The finalizer's multipliers.  Loops that mix once per element inline
# `mix64` with these, as the call itself costs more than the mixing.
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


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

    def shuffle(self, xs: list) -> list:
        """In-place Fisher-Yates; returns xs.  Draws what `below(i + 1)`
        would, with the state kept in a local."""
        z0 = self._state
        for i in range(len(xs) - 1, 0, -1):
            z0 = (z0 + _GAMMA) & _MASK
            z = ((z0 ^ (z0 >> 30)) * MIX1) & _MASK
            z = ((z ^ (z >> 27)) * MIX2) & _MASK
            j = (z ^ (z >> 31)) % (i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        self._state = z0
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
