"""Generation and loading of the bundled synthetic audio corpus.

The corpus is small enough to regenerate on demand yet rich enough to
exercise the whole pipeline: four noise types with clearly distinct
spectro-temporal signatures and four synthetic "speakers" whose utterances
are harmonic excitations with speaker-specific fundamental ranges and
formant-like resonances, shaped by a syllable-style amplitude envelope.

On disk the corpus follows the layout::

    corpus.json                       the sources: "noises" and "speakers" labels
    noise/<label>.wav                 one long recording per listed noise type
    speaker/<label>/<utt>.wav         utterances of each listed speaker
    speaker/<label>/{train,update,test}.txt   split files, one utterance per line

Noise recordings are split into a training region (first half) and an
evaluation region (second half); mixtures only ever draw from the evaluation
region, so learned dictionaries never see the exact evaluation samples.

:class:`Corpus` lists the files ``corpus.json`` names, reading none; a WAV is
read, by :func:`read_wav`, when it is loaded, and one that is missing or cannot
be used is a :class:`~.errors.DataError` naming it.  Generation is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["generate_corpus", "Corpus", "read_wav", "write_wav"]

#: the bundled corpus's sample rate (Hz), also the STFT's default
SAMPLE_RATE = 8000
#: default length of each noise recording (s); the first half trains dictionaries
NOISE_SECONDS = 40.0

#: fundamental range (Hz) and formant-like resonances (centre Hz, bandwidth Hz)
SPEAKER_VOICES = {
    "spk1": {"f0": (100.0, 128.0), "formants": ((480.0, 90.0), (1450.0, 160.0))},
    "spk2": {"f0": (150.0, 188.0), "formants": ((650.0, 100.0), (1900.0, 180.0))},
    "spk3": {"f0": (212.0, 258.0), "formants": ((420.0, 80.0), (2500.0, 220.0))},
    "spk4": {"f0": (288.0, 350.0), "formants": ((850.0, 120.0), (3000.0, 260.0))},
}
SPEAKER_LABELS = tuple(SPEAKER_VOICES)

UTTERANCES_PER_SPEAKER = 12
SPLITS = {"train": range(0, 6), "update": range(6, 9), "test": range(9, 12)}


# -- audio file helpers -------------------------------------------------------


def write_wav(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    # scipy.io is imported where a WAV is read or written: its package init
    # loads scipy.sparse, which `import sparsescene` would otherwise pay for
    from scipy.io import wavfile

    wavfile.write(path, sample_rate, np.asarray(samples, dtype=np.float32))


def read_wav(path: Path, expect_sr: int | None = None) -> tuple[int, np.ndarray]:
    """Read a mono WAV as float64 in [-1, 1]: the one reader of every WAV.

    A file that cannot be parsed, is not mono, is not at ``expect_sr`` or
    holds NaN or infinite samples is a :class:`DataError` naming the file.
    """
    # imported here as in write_wav, and outside the try: a missing SciPy is not a bad file
    from scipy.io import wavfile

    try:
        sr, data = wavfile.read(path)
    except Exception as exc:  # a malformed file can make scipy raise almost anything
        raise DataError(f"cannot read {path}: {exc}") from exc
    if data.ndim != 1:
        raise DataError(f"{path}: expected mono audio")
    scale = {"int16": 32768.0, "int32": 2147483648.0, "float32": 1.0, "float64": 1.0}
    if data.dtype.name not in scale:
        raise DataError(f"{path}: unsupported sample format {data.dtype}")
    x = data.astype(np.float64) / scale[data.dtype.name]
    if expect_sr is not None and sr != expect_sr:
        raise DataError(f"{path}: sample rate {sr} != expected {expect_sr}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{path}: non-finite samples (NaN or Inf)")
    return sr, x


# -- noise synthesis ----------------------------------------------------------


def _bandpass(x: np.ndarray, sr: int, lo: float, hi: float, order: int = 4) -> np.ndarray:
    # scipy.signal is imported where a filter is made, so that `import
    # sparsescene` does not load it for the commands that synthesise no audio
    from scipy.signal import butter, sosfilt

    sos = butter(order, [lo, hi], btype="bandpass", fs=sr, output="sos")
    return sosfilt(sos, x)


def _rms_normalise(x: np.ndarray, rms: float = 0.1) -> np.ndarray:
    scale = np.sqrt(np.mean(np.square(x)))
    if scale <= 0:
        return x
    return x * (rms / scale)


def _noise_band(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    return _bandpass(rng.standard_normal(n), sr, 200.0, 800.0)


def _noise_am(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    carrier = _bandpass(rng.standard_normal(n), sr, 900.0, 3200.0)
    t = np.arange(n) / sr
    f_am = rng.uniform(2.2, 3.5)
    phase = rng.uniform(0, 2 * np.pi)
    return carrier * (1.0 + 0.85 * np.sin(2 * np.pi * f_am * t + phase))


def _noise_bursts(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    floor = 0.05 * _bandpass(rng.standard_normal(n), sr, 1000.0, 3500.0)
    out = floor
    t = 0.0
    while True:
        t += rng.exponential(1.0 / 1.5)
        start = int(t * sr)
        if start >= n:
            break
        dur = int(rng.uniform(0.04, 0.12) * sr)
        stop = min(n, start + dur)
        env = np.exp(-np.arange(stop - start) / (0.25 * dur + 1))
        out[start:stop] += rng.uniform(1.0, 2.5) * env * _bandpass(
            rng.standard_normal(stop - start), sr, 1000.0, 3500.0
        )
    return out


def _noise_hum(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    t = np.arange(n) / sr
    out = np.zeros(n)
    for h in range(1, 25):
        f = 60.0 * h
        if f >= sr / 2:
            break
        out += (1.0 / h**0.7) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    wobble = 1.0 + 0.1 * np.sin(2 * np.pi * 0.3 * t + rng.uniform(0, 2 * np.pi))
    floor = 0.02 * _bandpass(rng.standard_normal(n), sr, 100.0, 1200.0)
    return out * wobble + floor


_NOISE_SYNTHS = {
    "am": _noise_am,
    "band": _noise_band,
    "bursts": _noise_bursts,
    "hum": _noise_hum,
}
NOISE_LABELS = tuple(_NOISE_SYNTHS)


# -- speaker synthesis --------------------------------------------------------


def _resonator(x: np.ndarray, sr: int, fc: float, bw: float) -> np.ndarray:
    from scipy.signal import lfilter

    r = np.exp(-np.pi * bw / sr)
    a = np.array([1.0, -2.0 * r * np.cos(2 * np.pi * fc / sr), r * r])
    b = np.array([1.0 - r])
    return lfilter(b, a, x)


def _synth_utterance(rng: np.random.Generator, voice: dict, sr: int) -> np.ndarray:
    from scipy.signal import lfilter

    duration = rng.uniform(1.4, 2.4)
    n = int(duration * sr)
    f_lo, f_hi = voice["f0"]

    # smooth random-walk fundamental contour inside the speaker's range
    knots = max(4, int(duration * 8))
    walk = np.cumsum(rng.normal(0.0, 0.08, size=knots))
    walk = (walk - walk.min()) / max(walk.max() - walk.min(), 1e-9)
    contour = f_lo + (f_hi - f_lo) * (0.15 + 0.7 * walk)
    f0 = np.interp(np.arange(n), np.linspace(0, n - 1, knots), contour)
    f0 *= 1.0 + 0.01 * rng.standard_normal(n)  # jitter

    # impulse-train excitation by phase accumulation
    phase = np.cumsum(f0 / sr)
    excitation = np.zeros(n)
    excitation[np.diff(np.floor(phase), prepend=0.0) > 0] = 1.0

    x = excitation
    for fc, bw in voice["formants"]:
        x = x + _resonator(excitation, sr, fc, bw)
    x = lfilter([1.0], [1.0, -0.92], x)  # gentle spectral tilt
    x = _bandpass(x, sr, 70.0, 3600.0, order=2)

    # syllable-style amplitude envelope with short gaps
    n_syllables = max(2, int(round(duration * 3.3 * rng.uniform(0.8, 1.2))))
    env = np.zeros(n)
    edges = np.linspace(0, n, n_syllables + 1).astype(int)
    for a, b in zip(edges[:-1], edges[1:]):
        seg = b - a
        gap = int(seg * rng.uniform(0.08, 0.18))
        m = seg - gap
        if m > 8:
            env[a : a + m] = np.hanning(m) ** 0.5 * rng.uniform(0.7, 1.0)
    return _rms_normalise(x * env)


# -- corpus generation --------------------------------------------------------


def generate_corpus(
    out_dir: Path,
    seed: int = 0,
    sample_rate: int = SAMPLE_RATE,
    noise_seconds: float = NOISE_SECONDS,
) -> Path:
    """Write the synthetic corpus under ``out_dir``; returns ``out_dir``.

    The generation scheme is fixed: child random generators are spawned per
    noise type and per speaker from the root seed, so any single entry is
    reproducible independently of the others.
    """
    if not (math.isfinite(noise_seconds) and int(noise_seconds * sample_rate) >= 1):
        raise DataError(f"noise_seconds must be finite and one sample or more, not {noise_seconds}")
    if seed < 0:
        raise DataError(f"seed must be a non-negative integer, not {seed}")
    out = Path(out_dir)
    (out / "noise").mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence(seed)
    noise_seeds, speaker_seeds = root.spawn(2)

    for label, child in zip(NOISE_LABELS, noise_seeds.spawn(len(NOISE_LABELS))):
        rng = np.random.default_rng(child)
        samples = _rms_normalise(
            _NOISE_SYNTHS[label](rng, int(noise_seconds * sample_rate), sample_rate)
        )
        write_wav(out / "noise" / f"{label}.wav", samples, sample_rate)

    for label, child in zip(SPEAKER_LABELS, speaker_seeds.spawn(len(SPEAKER_LABELS))):
        rng = np.random.default_rng(child)
        spk_dir = out / "speaker" / label
        spk_dir.mkdir(parents=True, exist_ok=True)
        names = []
        for u in range(UTTERANCES_PER_SPEAKER):
            name = f"utt{u + 1:02d}.wav"
            write_wav(
                spk_dir / name,
                _synth_utterance(rng, SPEAKER_VOICES[label], sample_rate),
                sample_rate,
            )
            names.append(name)
        for split, indices in SPLITS.items():
            (spk_dir / f"{split}.txt").write_text(
                "".join(names[i] + "\n" for i in indices), encoding="utf-8"
            )

    meta = {
        "format": "sparsescene-corpus",
        "version": 1,
        "sample_rate": sample_rate,
        "seed": seed,
        "noise_seconds": noise_seconds,
        "noise_train_seconds": noise_seconds / 2.0,
        "noises": list(NOISE_LABELS),
        "speakers": list(SPEAKER_LABELS),
    }
    (out / "corpus.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    return out


# -- corpus access ------------------------------------------------------------


def _read_meta(path: Path) -> tuple[int, float, list[str], list[str]]:
    """Sample rate, noise training seconds and noise and speaker labels from ``corpus.json``.

    A missing file, or one that is not an object whose ``sample_rate`` is a
    positive integer, whose ``noise_train_seconds`` is a positive finite
    number (neither a boolean) and whose ``noises`` and ``speakers`` are
    non-empty lists of plain file names, is a :class:`DataError` naming it.
    """
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("it must hold a JSON object")
        sample_rate = meta.get("sample_rate")
        if type(sample_rate) is not int or sample_rate < 1:
            raise ValueError(f"sample_rate must be a positive integer, not {sample_rate!r}")
        seconds = meta.get("noise_train_seconds")
        if type(seconds) not in (int, float) or not 0 < seconds < float("inf"):
            raise ValueError(f"noise_train_seconds must be a positive number, not {seconds!r}")
        for key in ("noises", "speakers"):
            labels = meta.get(key)
            if not labels or type(labels) is not list or not all(
                type(x) is str and x not in ("", "..") and Path(x).name == x for x in labels
            ):
                raise ValueError(f"{key} must be a non-empty list of file names, not {labels!r}")
    except (OSError, ValueError, OverflowError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return sample_rate, float(seconds), meta["noises"], meta["speakers"]


def _listed(split_file: Path) -> list[str]:
    """The utterance names (``spk1/utt10.wav``) a split file lists; none if it is absent."""
    if not split_file.is_file():
        return []
    try:
        lines = split_file.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {split_file}: {exc}") from exc
    entries = [Path(name) for name in map(str.strip, lines) if name]
    for entry in entries:
        if entry.is_absolute() or ".." in entry.parts:
            raise DataError(f"{split_file}: entry {entry} leaves the speaker's directory")
    return [str(split_file.parent.name / entry) for entry in entries]


@dataclass
class Corpus:
    """The sources ``corpus.json`` lists, none of their WAVs read.

    A WAV is read, through :func:`read_wav`, when it is loaded, and one that
    is missing or cannot be used is then a :class:`DataError` naming it.
    The directory is never searched: an unlisted file is no source, and a
    listed one is never dropped.
    """

    root: Path
    sample_rate: int
    noise_train_seconds: float
    noises: dict[str, Path]
    speakers: dict[str, dict[str, list[str]]]

    @classmethod
    def from_dir(cls, root: Path | str) -> "Corpus":
        """List ``noise/<label>.wav`` and the ``speaker/<label>/<split>.txt`` entries.

        A speaker whose splits list nothing is a :class:`DataError` naming it when used.
        """
        root = Path(root)
        sample_rate, noise_train_seconds, noises, speakers = _read_meta(root / "corpus.json")
        return cls(
            root=root,
            sample_rate=sample_rate,
            noise_train_seconds=noise_train_seconds,
            noises={label: root / "noise" / f"{label}.wav" for label in noises},
            speakers={
                label: {s: _listed(root / "speaker" / label / f"{s}.txt") for s in SPLITS}
                for label in speakers
            },
        )

    def load_noise(self, label: str) -> np.ndarray:
        if label not in self.noises:
            raise DataError(f"noise {label!r} not in corpus")
        return read_wav(self.noises[label], expect_sr=self.sample_rate)[1]

    def noise_train_segment(self, label: str) -> np.ndarray:
        x = self.load_noise(label)
        return x[: int(self.noise_train_seconds * self.sample_rate)]

    def noise_eval_segment(self, label: str) -> np.ndarray:
        x = self.load_noise(label)
        return x[int(self.noise_train_seconds * self.sample_rate) :]

    def utterances(self, speaker: str, split: str) -> list[str]:
        """The names of ``speaker``'s utterances in ``split``, relative to ``speaker/``."""
        if speaker not in self.speakers:
            raise DataError(f"speaker {speaker!r} not in corpus")
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}; expected one of {sorted(SPLITS)}")
        return list(self.speakers[speaker][split])

    def load_utterance(self, name: str) -> np.ndarray:
        """The samples of the utterance ``name``, relative to ``speaker/`` (``spk1/utt10.wav``)."""
        return read_wav(self.root / "speaker" / name, expect_sr=self.sample_rate)[1]
