import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescene.features import (
    BLOCK_FRAMES,
    StftConfig,
    _frames,
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


def _gathered_frames(x, config):
    """Framing by an index gather, as it was before the strided view."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.arange(config.n_fft)[None, :] + config.hop * np.arange(config.n_frames(x.size))[:, None]
    return x[idx]


def _istft_masked(spec, config, n_samples):
    """Overlap-add by frame phase over ``irfft(spec.T)``, normalised through a boolean mask."""
    n_frames, hop, n_fft = spec.shape[1], config.hop, config.n_fft
    window = config.window()
    natural = (n_frames - 1) * hop + n_fft if n_frames else 0
    frames = np.fft.irfft(spec.T, n=n_fft, axis=1) * window[None, :]
    n_phases = -(-n_fft // hop)
    out = np.zeros((n_frames + n_phases - 1, hop))
    norm = np.zeros_like(out)
    for j in reversed(range(n_phases)):
        part = slice(j * hop, min((j + 1) * hop, n_fft))
        out[j : j + n_frames, : part.stop - part.start] += frames[:, part]
        norm[j : j + n_frames, : part.stop - part.start] += (window * window)[part]
    out, norm = out.reshape(-1)[:natural], norm.reshape(-1)[:natural]
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    if n_samples <= natural:
        return out[:n_samples]
    return np.concatenate([out, np.zeros(n_samples - natural)])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _samples_for(n_frames):
    return (n_frames - 1) * CFG.hop + CFG.n_fft


# lengths below a frame, of one frame, around the transforms' first block
# boundary (one frame short, exact, one frame over) and of 20 s
@pytest.mark.parametrize(
    "n", [255, 256, 257, *(_samples_for(BLOCK_FRAMES + d) for d in (-1, 0, 1)), 20 * 8000]
)
def test_strided_framing_and_contiguous_istft_keep_every_bit(n):
    x = np.random.default_rng(n).standard_normal(n).astype(np.float32)
    frames = _gathered_frames(x, CFG)
    assert _same_bits(np.asarray(_frames(x, CFG)), frames)
    assert _same_bits(frame_energies(x, CFG), np.sum(frames * frames, axis=1))
    X = stft(x, CFG)
    assert _same_bits(X, np.fft.rfft(frames * CFG.window()[None, :], axis=1).T.copy())
    mag = magnitudes(x, CFG)
    assert _same_bits(mag, np.abs(X))
    assert mag.flags.c_contiguous
    natural = (X.shape[1] - 1) * CFG.hop + CFG.n_fft if X.shape[1] else 0
    mask = np.random.default_rng(n + 1).uniform(-0.2, 1.2, X.shape).clip(0.0, 1.0)
    for n_samples in (max(natural - 100, 0), natural, natural + 500):
        assert _same_bits(istft(X, CFG, n_samples), _istft_masked(X, CFG, n_samples))
        # the masked resynthesis never forms mask * X whole, but equals resynthesising it
        expected = _istft_masked(np.multiply(mask, X, order="F"), CFG, n_samples)
        assert _same_bits(istft(X, CFG, n_samples, mask=mask), expected)


def _peak_bytes(fn, *args, **kwargs):
    """``fn``'s result and the peak of the memory it allocated on top of its inputs."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("transform", ["stft", "magnitudes", "frame_energies", "istft", "masked"])
def test_transforms_of_20_s_peak_at_their_output_plus_1_mb(transform):
    x = np.random.default_rng(20).standard_normal(20 * CFG.sample_rate)
    X = stft(x, CFG)
    mask = np.full(X.shape, 0.5)
    calls = {
        "stft": (stft, (x, CFG), {}),
        "magnitudes": (magnitudes, (x, CFG), {}),
        "frame_energies": (frame_energies, (x, CFG), {}),
        "istft": (istft, (X, CFG, x.size), {}),
        "masked": (istft, (X, CFG, x.size), {"mask": mask}),
    }
    fn, args, kwargs = calls[transform]
    out, peak = _peak_bytes(fn, *args, **kwargs)
    assert peak <= out.nbytes + 2**20
