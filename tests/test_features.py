import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescene.features import (
    StftConfig,
    frame_energies,
    frame_times,
    istft,
    magnitudes,
    stft,
)

CFG = StftConfig()


def test_default_configuration():
    assert CFG.sample_rate == 8000
    assert CFG.n_fft == 256
    assert CFG.hop == 128
    assert CFG.n_bins == 129


def test_window_is_root_of_cola_pair():
    w = CFG.window()
    assert w.shape == (256,)
    assert np.all(w >= 0)
    # The squared window must overlap-add to a constant at 50% hop.
    wsq = w * w
    acc = wsq[:128] + wsq[128:]
    assert np.allclose(acc, acc[0])


def test_frame_count_formula():
    assert CFG.n_frames(255) == 0
    assert CFG.n_frames(256) == 1
    assert CFG.n_frames(256 + 128) == 2
    assert CFG.n_frames(8000) == (8000 - 256) // 128 + 1


def test_stft_shape_and_type():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048)
    X = stft(x, CFG)
    assert X.shape == (129, CFG.n_frames(2048))
    assert np.iscomplexobj(X)
    # a signal shorter than one frame has no frames
    for n in (0, 255):
        assert stft(x[:n], CFG).shape == (129, 0)
        assert frame_energies(x[:n], CFG).shape == (0,)


def test_round_trip_is_exact_in_the_interior():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4096)
    y = istft(stft(x, CFG), CFG, n_samples=len(x))
    interior = slice(CFG.n_fft, len(x) - CFG.n_fft)
    err = np.linalg.norm(y[interior] - x[interior]) / np.linalg.norm(x[interior])
    assert err <= 1e-10


@settings(max_examples=20)
@given(st.integers(min_value=600, max_value=5000), st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_for_arbitrary_lengths(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    y = istft(stft(x, CFG), CFG, n_samples=n)
    assert y.shape == x.shape
    interior = slice(CFG.n_fft, max(CFG.n_fft, n - CFG.n_fft))
    if interior.stop > interior.start:
        assert np.allclose(y[interior], x[interior], atol=1e-9)


def test_istft_pads_or_trims_to_requested_length():
    x = np.random.default_rng(2).standard_normal(1000)
    X = stft(x, CFG)
    assert istft(X, CFG, n_samples=500).shape == (500,)
    assert istft(X, CFG, n_samples=3000).shape == (3000,)


def _istft_per_frame(spec, config, n_samples):
    """Reference overlap-add: one frame at a time, in frame order."""
    window = config.window()
    n_frames = spec.shape[1]
    natural = (n_frames - 1) * config.hop + config.n_fft if n_frames else 0
    out, norm = np.zeros(natural), np.zeros(natural)
    frames = np.fft.irfft(spec.T, n=config.n_fft, axis=1) * window[None, :]
    for i in range(n_frames):
        span = slice(i * config.hop, i * config.hop + config.n_fft)
        out[span] += frames[i]
        norm[span] += window * window
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    if n_samples <= natural:
        return out[:n_samples]
    return np.concatenate([out, np.zeros(n_samples - natural)])


@pytest.mark.parametrize("hop", [128, 64, 100, 256, 300])
@pytest.mark.parametrize("n", [0, 256, 3001])
def test_istft_equals_a_per_frame_overlap_add_bit_for_bit(hop, n):
    # 100 does not divide n_fft, so the last frame phase is narrower than a hop;
    # 300 leaves gaps between frames.
    config = StftConfig(n_fft=256, hop=hop)
    X = stft(np.random.default_rng(hop).standard_normal(n), config)
    for n_samples in (n, n // 2, n + 500):
        got = istft(X, config, n_samples=n_samples)
        assert np.array_equal(got, _istft_per_frame(X, config, n_samples))


def test_magnitudes_are_non_negative():
    x = np.random.default_rng(3).standard_normal(2000)
    mag = magnitudes(x, CFG)
    assert np.all(mag >= 0)
    assert mag.shape == (129, CFG.n_frames(2000))


def test_frame_times_are_window_centres():
    t = frame_times(3, CFG)
    assert t == pytest.approx([128 / 8000, 256 / 8000, 384 / 8000])


def test_frame_energies_match_direct_sum():
    x = np.random.default_rng(4).standard_normal(1000)
    e = frame_energies(x, CFG)
    assert e.shape == (CFG.n_frames(1000),)
    first = x[: CFG.n_fft]
    assert e[0] == pytest.approx(np.sum(first * first))
