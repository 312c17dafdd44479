"""Evaluation manifest: one JSON file describing a whole campaign.

A manifest pins everything that affects the result — corpus, scenario
generation, dictionary learning, regimes, SNRs and pipeline knobs — so a
campaign can be re-run, resumed, or verified byte-for-byte from the file
alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .dictionary import METHODS
from .errors import DataError
from .regimes import ALL_REGIMES, EvalParams

__all__ = ["Manifest", "MANIFEST_SCHEMA_VERSION"]

MANIFEST_SCHEMA_VERSION = 1


@dataclass
class Manifest:
    """Validated evaluation campaign description."""

    corpus_dir: Path
    generate_corpus_seed: int | None = None
    corpus_noise_seconds: float = 40.0
    seed: int = 0
    n_scenarios: int = 8
    half_duration_s: float = 10.0
    utterances_per_half: int = 2
    speaker_split: str = "test"
    methods: tuple[str, ...] = ("kmeans",)
    n_atoms: int = 20
    tw: float = 0.8
    tb: float = 0.8
    bank_seed: int = 0
    snrs_db: tuple[float, ...] = (0.0,)
    regimes: tuple[str, ...] = ("complete",)
    eval_params: EvalParams = field(default_factory=EvalParams)
    parallelism: int = 1

    def __post_init__(self) -> None:
        self.corpus_dir = Path(self.corpus_dir)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise DataError(f"unknown dictionary methods {bad}; choose from {METHODS}")
        bad = [r for r in self.regimes if r not in ALL_REGIMES]
        if bad:
            raise DataError(f"unknown regimes {bad}; choose from {ALL_REGIMES}")
        if not self.methods:
            raise DataError("manifest lists no dictionary methods")
        if not self.regimes:
            raise DataError("manifest lists no regimes")
        if not self.snrs_db:
            raise DataError("manifest lists no SNRs")
        if self.n_scenarios < 1:
            raise DataError("n_scenarios must be at least 1")
        if self.parallelism < 1:
            raise DataError("parallelism must be at least 1")

    @classmethod
    def from_dict(cls, d: dict, *, base_dir: Path | None = None) -> "Manifest":
        d = dict(d)
        version = d.pop("schema_version", MANIFEST_SCHEMA_VERSION)
        if version != MANIFEST_SCHEMA_VERSION:
            raise DataError(
                f"unsupported manifest schema_version {version!r}"
                f" (this build reads version {MANIFEST_SCHEMA_VERSION})"
            )
        if "corpus_dir" not in d:
            raise DataError("manifest is missing required key 'corpus_dir'")
        corpus_dir = Path(d.pop("corpus_dir"))
        if base_dir is not None and not corpus_dir.is_absolute():
            corpus_dir = base_dir / corpus_dir
        eval_d = d.pop("eval", {})
        if not isinstance(eval_d, dict):
            raise DataError("manifest key 'eval' must be an object")
        try:
            params = EvalParams(
                vad_ks=tuple(eval_d.get("vad_ks", (2, 3, 4))),
                vad_primary_k=int(eval_d.get("vad_primary_k", 2)),
                min_speech_frames=int(eval_d.get("min_speech_frames", 3)),
                solver=str(eval_d.get("solver", "mu")),
                coding_iters=int(eval_d.get("coding_iters", 400)),
                snr_reference=str(eval_d.get("snr_reference", "active_span")),
            )
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid eval parameters: {exc}") from exc
        known = {
            "generate_corpus_seed",
            "corpus_noise_seconds",
            "seed",
            "n_scenarios",
            "half_duration_s",
            "utterances_per_half",
            "speaker_split",
            "methods",
            "n_atoms",
            "tw",
            "tb",
            "bank_seed",
            "snrs_db",
            "regimes",
            "parallelism",
        }
        unknown = set(d) - known
        if unknown:
            raise DataError(f"unknown manifest keys {sorted(unknown)}")
        kwargs = {}
        for key in known & set(d):
            value = d[key]
            if key in ("methods", "regimes"):
                value = tuple(str(v) for v in value)
            elif key == "snrs_db":
                value = tuple(float(v) for v in value)
            kwargs[key] = value
        try:
            return cls(corpus_dir=corpus_dir, eval_params=params, **kwargs)
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid manifest: {exc}") from exc

    @classmethod
    def from_file(cls, path: Path | str) -> "Manifest":
        path = Path(path)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DataError(f"manifest {path} must contain a JSON object")
        return cls.from_dict(data, base_dir=path.parent)

    def canonical(self) -> dict:
        """Plain-type view of everything that affects results (for hashing)."""
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "generate_corpus_seed": self.generate_corpus_seed,
            "corpus_noise_seconds": self.corpus_noise_seconds,
            "seed": self.seed,
            "n_scenarios": self.n_scenarios,
            "half_duration_s": self.half_duration_s,
            "utterances_per_half": self.utterances_per_half,
            "speaker_split": self.speaker_split,
            "n_atoms": self.n_atoms,
            "tw": self.tw,
            "tb": self.tb,
            "bank_seed": self.bank_seed,
            "eval": self.eval_params.to_dict(),
        }
