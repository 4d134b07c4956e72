import pytest
from hypothesis import given, strategies as st

from mpcjoin.rng import _CHUNK, Stream, derive_key, mix64


def test_mix64_deterministic_and_in_range():
    assert mix64(0) == mix64(0)
    for v in (0, 1, 2 ** 63, 2 ** 64 - 1):
        assert 0 <= mix64(v) < 2 ** 64


def test_derive_key_path_sensitivity():
    assert derive_key(1, "a", 2) == derive_key(1, "a", 2)
    assert derive_key(1, "a", 2) != derive_key(1, "a", 3)
    assert derive_key(1, "a") != derive_key(2, "a")
    assert derive_key(1, "a", "b") != derive_key(1, "ab")


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
