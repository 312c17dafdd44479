import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescene.metrics import (
    restrict_to_spans,
    si_sdr_db,
    snr_db,
    spans_to_sample_mask,
)


def test_snr_known_ratio():
    s = np.array([2.0, 0.0])
    n = np.array([1.0, 0.0])
    assert snr_db(s, n) == pytest.approx(10 * np.log10(4.0))


def test_snr_degenerate_cases():
    assert snr_db(np.ones(4), np.zeros(4)) == np.inf
    assert snr_db(np.zeros(4), np.ones(4)) == -np.inf


def test_si_sdr_perfect_estimate_is_infinite():
    x = np.random.default_rng(0).standard_normal(256)
    assert si_sdr_db(x, x) == np.inf
    # A rescaled copy projects back with only rounding-level residual.
    assert si_sdr_db(x, 0.3 * x) > 250.0


def test_si_sdr_known_orthogonal_noise():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(512)
    noise = rng.standard_normal(512)
    noise -= (noise @ ref) / (ref @ ref) * ref  # orthogonal to the reference
    est = ref + noise
    expected = 10 * np.log10((ref @ ref) / (noise @ noise))
    assert si_sdr_db(ref, est) == pytest.approx(expected)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=100.0))
def test_si_sdr_is_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(128)
    est = ref + 0.3 * rng.standard_normal(128)
    a = si_sdr_db(ref, est)
    b = si_sdr_db(ref, scale * est)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_sample_mask_covers_requested_spans():
    mask = spans_to_sample_mask([(0.0, 0.001), (0.002, 0.003)], 32, 8000)
    assert np.flatnonzero(mask).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23]


def test_spans_outside_signal_are_clipped():
    mask = spans_to_sample_mask([(-1.0, 0.001), (5.0, 6.0)], 16, 8000)
    assert np.flatnonzero(mask).tolist() == list(range(8))


def test_restriction_concatenates_span_samples():
    x = np.arange(16, dtype=float)
    out = restrict_to_spans(x, [(0.0, 0.00025), (0.001, 0.00125)], 8000)
    assert out.tolist() == [0.0, 1.0, 8.0, 9.0]
