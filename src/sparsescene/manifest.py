"""Evaluation manifest: one JSON file describing a whole campaign.

A manifest pins everything that affects the result — corpus, scenario
generation, dictionary learning, regimes, SNRs and pipeline knobs — so a
campaign can be re-run, resumed, or verified byte-for-byte from the file
alone.  A campaign reads the corpus at ``corpus_dir``; ``make-corpus``
synthesises one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .dictionary import METHODS, RECIPE, recipe_problem
from .errors import DataError
from .regimes import ALL_REGIMES, EvalParams
from .scenario import HALF_DURATION_S, UTTERANCES_PER_HALF

__all__ = ["Manifest", "MANIFEST_SCHEMA_VERSION"]

MANIFEST_SCHEMA_VERSION = 1


@dataclass
class Manifest:
    """Validated evaluation campaign description."""

    corpus_dir: Path
    seed: int = 0
    n_scenarios: int = 8
    half_duration_s: float = HALF_DURATION_S
    utterances_per_half: int = UTTERANCES_PER_HALF
    methods: tuple[str, ...] = ("kmeans",)
    n_atoms: int = RECIPE["n_atoms"]
    tw: float = RECIPE["tw"]
    tb: float = RECIPE["tb"]
    bank_seed: int = RECIPE["seed"]
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
        if not all(math.isfinite(snr) for snr in self.snrs_db):
            raise DataError(f"snrs_db must be finite, not {list(self.snrs_db)}")
        if self.n_scenarios < 1:
            raise DataError("n_scenarios must be at least 1")
        for name, value in (("seed", self.seed), ("bank_seed", self.bank_seed)):
            if value < 0:
                raise DataError(f"{name} must be a non-negative integer, not {value}")
        problem = recipe_problem(self.recipe)
        if problem:
            raise DataError(problem)
        half = self.half_duration_s
        if not (math.isfinite(half) and half > 0):
            raise DataError(f"half_duration_s must be finite and positive, not {half}")
        if self.parallelism < 1:
            raise DataError("parallelism must be at least 1")

    @property
    def recipe(self) -> dict:
        """The ``learn_bank`` arguments of this campaign's banks, as a bank records them."""
        return {"n_atoms": self.n_atoms, "tw": self.tw, "tb": self.tb, "seed": self.bank_seed}

    @classmethod
    def from_dict(cls, d: dict, *, base_dir: Path | None = None) -> "Manifest":
        """Read a manifest object: one key per field, ``eval_params`` under ``eval``."""
        d = dict(d)
        version = d.pop("schema_version", MANIFEST_SCHEMA_VERSION)
        if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
            raise DataError(
                f"unsupported manifest schema_version {version!r}"
                f" (this build reads version {MANIFEST_SCHEMA_VERSION})"
            )
        if "corpus_dir" not in d:
            raise DataError("manifest is missing required key 'corpus_dir'")
        eval_d = d.pop("eval", {})
        if not isinstance(eval_d, dict):
            raise DataError("manifest key 'eval' must be an object")
        params = EvalParams(**_typed(EvalParams, eval_d, "eval"))
        kwargs = _typed(cls, d, "manifest", exclude="eval_params")
        if base_dir is not None and not kwargs["corpus_dir"].is_absolute():
            kwargs["corpus_dir"] = base_dir / kwargs["corpus_dir"]
        return cls(eval_params=params, **kwargs)

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


def _typed(cls, d: dict, what: str, exclude: str = "") -> dict:
    """``d`` with each value converted to the type of ``cls``'s field of that name."""
    unknown = set(d) - ({f.name for f in fields(cls)} - {exclude})
    if unknown:
        raise DataError(f"unknown {what} keys {sorted(unknown)}")
    hints = get_type_hints(cls)
    out = {}
    for key, value in d.items():
        try:
            out[key] = _convert(hints[key], value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"invalid {what} value for {key!r}: {exc}") from exc
    return out


def _convert(tp, value):
    """``value`` as a ``tp``: a plain type or ``tuple[T, ...]``."""
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a JSON list, not {value!r}")
        return tuple(_convert(get_args(tp)[0], v) for v in value)
    if tp in (int, float) and isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return tp(value)
