from itertools import cycle, islice

import pytest
from hypothesis import example, given, strategies as st

from mpcjoin.rng import _CHUNK, Stream, derive_key, hash_column, hash_family, mix64


def test_mix64_deterministic_and_in_range():
    assert mix64(0) == mix64(0)
    for v in (0, 1, 2 ** 63, 2 ** 64 - 1):
        assert 0 <= mix64(v) < 2 ** 64


def test_derive_key_path_sensitivity():
    assert derive_key(1, "a", 2) == derive_key(1, "a", 2)
    assert derive_key(1, "a", 2) != derive_key(1, "a", 3)
    assert derive_key(1, "a") != derive_key(2, "a")
    assert derive_key(1, "a", "b") != derive_key(1, "ab")


def test_hash_family_range_and_determinism():
    h = hash_family(1, "a")
    for v in range(1000):
        z = h(v)
        assert 0 <= z < 2 ** 64
        assert z == h(v)


def test_hash_family_independent_members():
    h1, h2 = hash_family(1, "a"), hash_family(1, "b")
    vals = [h1(v) % 64 == h2(v) % 64 for v in range(512)]
    assert 0 < sum(vals) < 128     # agree rarely, not never


def test_hash_family_roughly_uniform():
    h = hash_family(3, "u")
    counts = [0] * 16
    for v in range(16000):
        counts[h(v) % 16] += 1
    assert max(counts) < 1500 and min(counts) > 600


def test_hash_family_tuple_keys():
    h = hash_family(2, "t")
    assert h((1, 2)) == h((1, 2))
    assert 0 <= h((1, 2, 3)) < 2 ** 64
    assert h((1, 2)) != h((2, 1))
    assert [h((v,)) for v in range(50)] == [h(v) for v in range(50)]


_M64 = (1 << 64) - 1


def _bucket_hash(seed, *path):
    """The bucket hash placements drew from before `hash_family` took one
    argument: h(value, buckets) -> bucket in [1, buckets], with the
    SplitMix64 finalizer written out."""
    key = derive_key(seed, *path)

    def h(value, buckets):
        if buckets <= 1:
            return 1
        if isinstance(value, tuple):
            z = key
            for v in value:
                z ^= v & _M64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
                z ^= z >> 31
            return z % buckets + 1
        z = (value & _M64) ^ key
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return (z ^ (z >> 31)) % buckets + 1

    return h


_VALUES = st.integers(-2 ** 70, 2 ** 70)
_PATHS = st.lists(st.one_of(st.text(max_size=3), st.integers(0, 2 ** 64)), max_size=3)


@given(st.integers(0, 2 ** 64 - 1), _PATHS,
       st.one_of(_VALUES, st.tuples(_VALUES), st.lists(_VALUES, min_size=2,
                                                       max_size=4).map(tuple)),
       st.integers(1, 2 ** 16))
@example(0, ["v"], 0, 1)
@example(0, ["v"], 2 ** 64 - 1, 7)
@example(5, [], (0, 2 ** 64 - 1), 2 ** 16)
def test_hash_family_matches_the_bucket_hash(seed, path, value, n):
    new = hash_family(seed, *path)
    assert _bucket_hash(seed, *path)(value, n) - 1 == new(value) % n
    if not isinstance(value, tuple):
        assert new(value) == mix64(value ^ derive_key(seed, *path))


# Column lengths on both sides of the lane kernel's chunk edges.
_COLUMN_LENGTHS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)


@given(st.integers(0, 2 ** 64 - 1), _PATHS,
       st.one_of(st.lists(_VALUES, min_size=1, max_size=8),
                 st.integers(1, 4).flatmap(
                     lambda k: st.lists(st.tuples(*[_VALUES] * k), min_size=1,
                                        max_size=8))),
       st.sampled_from(_COLUMN_LENGTHS))
@example(0, ["v"], [0, 2 ** 64 - 1], _CHUNK + 1)
@example(7, [], [(0, 2 ** 64 - 1), (2 ** 64 - 1, 0)], 2 * _CHUNK + 1)
def test_hash_column_equals_hash_family(seed, path, values, n):
    # the drawn values repeated to n, so every lane of every chunk holds one
    column = list(islice(cycle(values), n))
    h = hash_family(seed, *path)
    assert hash_column(seed, *path)(column) == [h(v) for v in column]


def test_hash_column_takes_any_sequence_and_rejects_mixed_chunks():
    h, col = hash_family(3, "r"), hash_column(3, "r")
    assert col(range(5)) == [h(v) for v in range(5)]
    assert col([(), ()]) == [h(()), h(())]
    with pytest.raises(ValueError, match="different lengths"):
        col([(1, 2), (3,)])
    with pytest.raises(TypeError):
        col([1, (2,)])
    with pytest.raises(TypeError):
        col([1.5])


def test_stream_below_range():
    st_ = Stream(0, "t")
    for _ in range(1000):
        assert 0 <= st_.below(7) < 7


def test_stream_reproducible():
    a = [Stream(5, "x").next64() for _ in range(1)]
    b = [Stream(5, "x").next64() for _ in range(1)]
    assert a == b


def test_shuffle_is_permutation():
    xs = list(range(100))
    Stream(1, "s").shuffle(xs)
    assert sorted(xs) == list(range(100))
    ys = list(range(100))
    Stream(1, "s").shuffle(ys)
    assert xs == ys                     # same seed, same order
    zs = list(range(100))
    Stream(2, "s").shuffle(zs)
    assert xs != zs


def test_sample_distinct():
    # rejection sampling for count << n; a shuffled prefix of [1, n] once
    # 2 * count >= n
    for count, n in ((50, 1000), (2, 4), (3, 4), (5, 5)):
        vals = Stream(3, "d").sample_distinct(count, n)
        assert len(vals) == count
        assert len(set(vals)) == count
        assert all(1 <= v <= n for v in vals)
    with pytest.raises(ValueError, match="cannot sample"):
        Stream(3, "d").sample_distinct(6, 5)


def test_coin_balance():
    s = Stream(7, "c")
    heads = sum(s.coin() for _ in range(10000))
    assert 4600 < heads < 5400


@given(st.integers(0, 2 ** 64 - 1))
def test_mix64_stays_in_word(v):
    assert 0 <= mix64(v) < 2 ** 64


# The column kernel behind `Stream.draws` against the per-element
# definitions it replaces.
_LENGTHS = (0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
_SEEDS = (0, 2 ** 64 - 1)


def _stream_at(state):
    s = Stream(0)
    s._state = state
    return s


def _reference_shuffle(st_, xs):
    """Per-element Fisher-Yates over `below(i + 1)`."""
    for i in range(len(xs) - 1, 0, -1):
        j = st_.below(i + 1)
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def _check_draws(state, n):
    a, b = _stream_at(state), _stream_at(state)
    assert a.draws(n) == [b.next64() for _ in range(n)]
    assert a.next64() == b.next64()


def _check_shuffle(state, n):
    a, b = _stream_at(state), _stream_at(state)
    assert a.shuffle(list(range(n))) == _reference_shuffle(b, list(range(n)))
    assert a.next64() == b.next64()


@pytest.mark.parametrize("state", _SEEDS)
@pytest.mark.parametrize("n", _LENGTHS)
def test_draws_and_shuffle_at_chunk_edges(state, n):
    _check_draws(state, n)
    _check_shuffle(state, n)


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 * _CHUNK + 2))
def test_draws_equal_successive_next64(state, n):
    _check_draws(state, n)


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 * _CHUNK + 2))
def test_shuffle_equals_reference_fisher_yates(state, n):
    _check_shuffle(state, n)


def test_draws_rejects_negative_count():
    with pytest.raises(ValueError, match="cannot draw"):
        Stream(0).draws(-1)
