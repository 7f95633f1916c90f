import numpy as np
import pytest

from scale_lab import CounterRng, DomainError, make_problem

MASK = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15


def mix64_reference(z: int) -> int:
    # independent pure-int transcription of the documented finalizer
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def words_reference(seed: int, stream: int, n: int) -> list[int]:
    base = mix64_reference(seed) ^ mix64_reference((stream + 1) * GAMMA)
    return [mix64_reference((base + (k + 1) * GAMMA) & MASK) for k in range(n)]


def test_words_match_documented_algorithm():
    for seed, stream in [(0, 0), (1, 0), (12345, 7), (2**63, 2), (MASK, MASK)]:
        got = CounterRng(seed, stream).words(8)
        assert [int(w) for w in got] == words_reference(seed, stream, 8)


def test_streams_are_reproducible_and_counter_addressed():
    a = CounterRng(42)
    first = a.words(5)
    b = CounterRng(42)
    b.words(3)
    tail = b.words(2)
    assert np.array_equal(first[3:], tail)


def test_distinct_seeds_and_streams_differ():
    w0 = CounterRng(1, 0).words(16)
    assert not np.array_equal(w0, CounterRng(2, 0).words(16))
    assert not np.array_equal(w0, CounterRng(1, 1).words(16))


def test_uniform_range_and_mean():
    u = CounterRng(7).uniform(20000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = CounterRng(7, stream=1).normal(20001)  # odd size exercises the trim
    assert z.size == 20001
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_integers_cover_range():
    idx = CounterRng(3).integers(0, 10, 5000)
    assert idx.min() == 0 and idx.max() == 9
    assert set(np.unique(idx)) == set(range(10))


def test_integers_empty_range_rejected():
    with pytest.raises(ValueError):
        CounterRng(0).integers(5, 5, 1)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        CounterRng(-1)


@pytest.mark.parametrize("seed,stream", [(2**64, 0), (2**64 + 5, 0), (0, 2**64), (0, -1)])
def test_seed_or_stream_outside_64_bits_rejected(seed, stream):
    # masking would alias 2**64 + 5 to seed 5: two "independent" runs with one stream
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        CounterRng(seed, stream)


@pytest.mark.parametrize("counter", [0, 1, 37, 64 * 32])
@pytest.mark.parametrize("seed,stream", [(0, 0), (5, 2), (MASK, MASK)])
def test_counter_start_skips_the_words_before_it(seed, stream, counter):
    # a stream started at word c draws what a fresh stream draws after its first c words
    fresh = CounterRng(seed, stream).words(counter + 9)
    assert np.array_equal(CounterRng(seed, stream, counter=counter).words(9), fresh[counter:])


@pytest.mark.parametrize("counter", [-1, 2**64, 2**64 + 5])
def test_counter_outside_64_bits_is_domain_error(counter):
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        CounterRng(0, 2, counter=counter)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_problem_seed_outside_64_bits_is_domain_error(seed):
    # the library's contract for an input outside an operation's domain
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        make_problem("logistic", seed=seed)
