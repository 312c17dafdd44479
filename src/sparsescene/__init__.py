"""Single-channel speech/noise scene analysis with learned spectral dictionaries.

The package covers the full pipeline: synthetic corpus generation, dictionary
learning (five methods), sparse non-negative coding of magnitude spectra,
noise typing with switch-point detection, speaker identification, Wiener-mask
source separation, SNR estimation, and a reproducible evaluation harness.
"""

from .bank import DictionaryBank
from .classify import Coding, NoiseDecision, classify_noise, rank_speakers
from .corpus import Corpus, generate_corpus, read_wav, write_wav
from .dictionary import METHODS, LearnedDictionary, learn_dictionary
from .errors import DataError, NumericalError, SparseSceneError
from .evaluate import analyze_signal, run_manifest, simulate_manifest
from .features import StftConfig, frame_energies, istft, magnitudes, stft
from .manifest import Manifest
from .metrics import si_sdr_db, snr_db
from .regimes import ALL_REGIMES, EvalParams, RegimeContext, RunResult, run_regime
from .scenario import MixScenario, RenderedScenario, generate_scenarios, render_scenario
from .separate import SeparationResult, estimate_snr_db, separate
from .solvers import code_frames, generalized_kl, solve_asna, solve_mu
from .training import learn_bank
from .vad import detect_speech_frames, frames_to_intervals, miss_false_rates

__version__ = "1.0.0"

__all__ = [
    "ALL_REGIMES",
    "Coding",
    "Corpus",
    "DataError",
    "DictionaryBank",
    "EvalParams",
    "LearnedDictionary",
    "METHODS",
    "Manifest",
    "MixScenario",
    "NoiseDecision",
    "NumericalError",
    "RegimeContext",
    "RenderedScenario",
    "RunResult",
    "SeparationResult",
    "SparseSceneError",
    "StftConfig",
    "analyze_signal",
    "classify_noise",
    "code_frames",
    "detect_speech_frames",
    "estimate_snr_db",
    "frame_energies",
    "frames_to_intervals",
    "generalized_kl",
    "generate_corpus",
    "generate_scenarios",
    "istft",
    "learn_bank",
    "learn_dictionary",
    "magnitudes",
    "miss_false_rates",
    "rank_speakers",
    "read_wav",
    "render_scenario",
    "run_manifest",
    "run_regime",
    "separate",
    "si_sdr_db",
    "simulate_manifest",
    "snr_db",
    "solve_asna",
    "solve_mu",
    "stft",
    "write_wav",
    "__version__",
]
