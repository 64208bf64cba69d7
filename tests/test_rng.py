import numpy as np
import pytest

import fess.rng
from fess.rng import _replicate_choices, derived_rng


def per_replicate(seed, start, stop, n, size):
    """The definition: one ``derived_rng(seed, r).choice`` call a replicate."""
    return np.stack(
        [derived_rng(seed, r).choice(n, size, replace=False) for r in range(start, stop)]
    )


@pytest.fixture
def streams(monkeypatch):
    """The replicate indices drawn through numpy's per-replicate call."""
    called = []
    stream = fess.rng._stream

    def recording(entropy):
        called.append(entropy[-1])
        return stream(entropy)

    monkeypatch.setattr(fess.rng, "_stream", recording)
    return called


# seeds of 1, 2, 3 and 4 32-bit words: with the replicate's, 4 words fill
# SeedSequence's pool and a fifth is mixed in after it
@pytest.mark.parametrize("seed", [0, 2**63 + 11, 2**64 + 5, 2**100 + 3])
@pytest.mark.parametrize(
    "n, size",
    [(2, 2), (3, 2), (3, 3), (37, 5), (37, 36), (37, 37), (600, 106), (600, 600), (2400, 400),
     (10000, 201), (10001, 200), (20000, 400)],
)
def test_batched_draws_equal_per_replicate_choice(streams, seed, n, size):
    # size == n takes no draw at Floyd's step j = 0; n <= 10000 or
    # size <= n // 50 runs Floyd's sampler, whatever the other
    start, stop = (11, 41) if n <= 600 else (5, 9)
    got = _replicate_choices(seed, start, stop, n, size)
    assert streams == []
    assert got.dtype == np.int64
    assert np.array_equal(got, per_replicate(seed, start, stop, n, size))


def test_runs_give_the_rows_of_any_longer_run():
    # a run that starts mid-range, and the two halves of a split run
    whole = _replicate_choices(2024, 0, 90, 600, 106)
    assert np.array_equal(whole, per_replicate(2024, 0, 90, 600, 106))
    for start, stop in ((37, 90), (1, 2), (0, 44), (44, 90)):
        assert np.array_equal(_replicate_choices(2024, start, stop, 600, 106), whole[start:stop])


@pytest.mark.parametrize("n, size", [(20000, 500), (10001, 201)])
def test_tail_shuffle_takes_numpys_call(streams, n, size):
    # n > 10000 and size > n // 50: numpy shuffles the tail of arange(n)
    got = _replicate_choices(3, 7, 10, n, size)
    assert streams == [7, 8, 9]
    assert np.array_equal(got, per_replicate(3, 7, 10, n, size))


@pytest.mark.parametrize("seed, n, size, r", [(0, 10000, 200, 765), (17, 2400, 400, 590)])
def test_lemire_rejection_takes_numpys_call(streams, seed, n, size, r):
    # a draw of replicate r falls where Lemire's method redraws
    got = _replicate_choices(seed, r - 3, r + 2, n, size)
    assert streams == [r]
    assert np.array_equal(got, per_replicate(seed, r - 3, r + 2, n, size))
