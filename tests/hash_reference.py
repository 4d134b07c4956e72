"""A frozen reference for `mpcjoin.rng.hash_column`: the keyed hash h one
value at a time, as `rng.hash_family` computed it before the strategies
drew h only in its column form.

tests/test_rng.py checks that `hash_column(seed, *path)(values)` equals
`[hash_family(seed, *path)(v) for v in values]`, and tests/test_algorithms.py
orders values by it.  Do not change it to follow the package: it is the
baseline the package is held to.
"""

from __future__ import annotations

from mpcjoin.rng import derive_key, mix64


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
