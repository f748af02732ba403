"""The array form of stream seeding equals NumPy's ``SeedSequence`` and
``make_rng`` stream for stream."""
import numpy as np
import pytest

from nnc.harness import _TRIAL_STREAM, ExperimentConfig, _trial_words
from nnc.seeding import derive_seed, derive_seeds, make_rng, rng_from_words, seed_words

_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def _reference_words(seeds) -> np.ndarray:
    return np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                     for s in seeds])


def test_seed_words_equal_seed_sequence_at_the_word_boundaries():
    # one entropy word below 2**32, two from there on
    seeds = np.array(_EDGE_SEEDS, dtype=np.uint64)
    words = seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(_EDGE_SEEDS), 4)
    assert np.array_equal(words, _reference_words(_EDGE_SEEDS))


def test_seed_words_equal_seed_sequence_on_random_seeds():
    seeds = np.random.default_rng(20240611).integers(0, 2**64, 10_000, dtype=np.uint64)
    assert np.array_equal(seed_words(seeds), _reference_words(seeds))


@pytest.mark.parametrize("master", [0, 7, -1, 2**64 - 1, 2**70])
@pytest.mark.parametrize("start", [0, 2**32 - 4])
def test_word_streams_equal_make_rng(master, start):
    # the trial streams' seeds and their first draws, across the point where
    # a trial index needs its second 32-bit word
    trials = np.arange(start, start + 8)
    seeds = derive_seeds(master, _TRIAL_STREAM, last=trials)
    assert [int(s) for s in seeds] == [derive_seed(master, _TRIAL_STREAM, t) for t in trials]
    words = seed_words(seeds)
    for row, t in zip(words, trials):
        got, want = rng_from_words(row), make_rng(master, _TRIAL_STREAM, int(t))
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.geometric(0.01, 8), want.geometric(0.01, 8))
        assert got.bit_generator.state == want.bit_generator.state


def test_trial_words_seed_every_trial_of_an_experiment():
    cfg = ExperimentConfig(graph={}, alpha=0.01, beta=0.1, p=0.1, trials=5, master_seed=9)
    words = _trial_words(cfg)
    assert words.shape == (5, 4) and words.flags.c_contiguous
    for t in range(cfg.trials):
        want = make_rng(cfg.master_seed, _TRIAL_STREAM, t).bit_generator.state
        assert rng_from_words(words[t]).bit_generator.state == want
