import numpy as np
import pytest

import sparsescene as ss
from sparsescene.features import istft, magnitudes, stft


def _tone(freq, n, sr=8000, amp=0.3):
    t = np.arange(n) / sr
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float64)


@pytest.fixture()
def synthetic_mixture(stft_config):
    """A tone ('speech') plus band noise, coded against matched one-atom dictionaries.

    Yields the mixture, its clean parts, the ``[speech | noise]`` dictionary,
    the weights coding every mixture frame, and the speech atoms' slice.
    """
    sr = stft_config.sample_rate
    n = 4 * sr
    rng = np.random.default_rng(0)
    speech = _tone(500.0, n, sr)
    noise = 0.2 * rng.standard_normal(n)
    mixture = speech + noise

    def atom_of(x):
        m = np.mean(np.abs(stft(x, stft_config)), axis=1, keepdims=True)
        return m / np.linalg.norm(m)

    D = np.concatenate([atom_of(speech), atom_of(noise)], axis=1)
    W = ss.code_frames(magnitudes(mixture, stft_config), D, solver="mu")
    return mixture, speech, noise, D, W, slice(0, 1)


def test_mask_is_a_valid_soft_mask(synthetic_mixture, stft_config):
    mixture, _, _, D, W, spk = synthetic_mixture
    result = ss.separate(stft(mixture, stft_config), mixture, D, W, spk, stft_config)
    assert result.mask.min() >= 0.0
    assert result.mask.max() <= 1.0
    assert result.speech.shape == mixture.shape
    assert result.noise.shape == mixture.shape


def test_components_sum_back_to_the_mixture(synthetic_mixture, stft_config):
    mixture, _, _, D, W, spk = synthetic_mixture
    result = ss.separate(stft(mixture, stft_config), mixture, D, W, spk, stft_config)
    # The speech is the masked spectrogram's inverse; the noise is the rest of
    # the mixture, so the parts sum to it at every sample, edges included.
    masked = istft(result.mask * stft(mixture, stft_config), stft_config, n_samples=len(mixture))
    assert np.array_equal(result.speech, masked)
    assert np.array_equal(result.noise, mixture - result.speech)
    assert np.allclose(result.speech + result.noise, mixture, rtol=0, atol=1e-12)


def test_separation_improves_on_the_mixture(synthetic_mixture, stft_config):
    mixture, speech, noise, D, W, spk = synthetic_mixture
    result = ss.separate(stft(mixture, stft_config), mixture, D, W, spk, stft_config)
    interior = slice(stft_config.n_fft, len(mixture) - stft_config.n_fft)
    before = ss.si_sdr_db(speech[interior], mixture[interior])
    after = ss.si_sdr_db(speech[interior], result.speech[interior])
    assert after > before + 3.0


def test_mask_is_the_speech_share_of_the_model(synthetic_mixture, stft_config):
    mixture, _, _, D, W, spk = synthetic_mixture
    result = ss.separate(stft(mixture, stft_config), mixture, D, W, spk, stft_config)
    model = D @ W
    expected = np.clip(np.outer(D[:, 0], W[0]) / (model + 1e-12), 0.0, 1.0)
    assert np.allclose(result.mask, expected, rtol=0, atol=1e-12)
    # speech-only atoms take the whole frame; no speech atoms leave it to noise
    X = stft(mixture, stft_config)
    assert np.allclose(
        ss.separate(X, mixture, D, W, slice(0, 2), stft_config).mask[model > 0], 1.0
    )
    assert np.all(ss.separate(X, mixture, D, W, slice(0, 0), stft_config).mask == 0.0)


def test_separation_needs_every_frame_coded(synthetic_mixture, stft_config):
    mixture, _, _, D, W, spk = synthetic_mixture
    with pytest.raises(ValueError):
        ss.separate(stft(mixture, stft_config), mixture, D, W[:, ::2], spk, stft_config)


def test_estimate_snr_restricts_to_spans(stft_config):
    sr = stft_config.sample_rate
    speech = np.zeros(2 * sr)
    speech[: sr // 2] = _tone(400.0, sr // 2, sr)[: sr // 2]
    noise = 0.1 * np.ones(2 * sr)
    result = ss.SeparationResult(speech=speech, noise=noise, mask=np.zeros((1, 1)))

    whole = ss.estimate_snr_db(result, None, stft_config)
    active = ss.estimate_snr_db(result, [(0.0, 0.5)], stft_config)
    # Restricting to the active half-second drops the silent tail from the
    # speech power sum denominator-side, so the ratio goes up.
    assert active > whole
    expected = 10 * np.log10(np.sum(speech[: sr // 2] ** 2) / np.sum(noise[: sr // 2] ** 2))
    assert active == pytest.approx(expected, abs=1e-9)


def test_estimate_snr_empty_spans_fall_back_to_whole_signal(stft_config):
    result = ss.SeparationResult(
        speech=np.ones(100), noise=0.5 * np.ones(100), mask=np.zeros((1, 1))
    )
    assert ss.estimate_snr_db(result, [], stft_config) == ss.estimate_snr_db(
        result, None, stft_config
    )
