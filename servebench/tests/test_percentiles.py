import pytest

from servebench.percentiles import beyond, percentile, rank, samples_needed


def test_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 1.0) == 5.0
    assert percentile(samples, 0.01) == 1.0
    # 0.99 * 1000 is 989.999... in floating point; the rank is still 990.
    assert rank(0.99, 1000) == 990


def test_p99_needs_a_thousand_samples():
    assert samples_needed(0.99) == 1000
    assert beyond(0.99, 1000) == 10
    assert beyond(0.99, 999) == 9
    assert samples_needed(0.5) == 20
    for q in (0.5, 0.9, 0.99, 0.999):
        n = samples_needed(q)
        assert beyond(q, n) >= 10 > beyond(q, n - 1)


@pytest.mark.parametrize("q", [0.0, 1.5])
def test_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        rank(q, 10)
