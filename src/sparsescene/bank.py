"""A bank of per-source dictionaries with instrumented access.

The bank maps speaker and noise-type labels to learned dictionaries and keeps
a shared access counter per source.  Restricted views (with some sources
removed) share the parent's counters, so a test can run a pipeline on a view
and then assert that the removed sources were never consulted.  The bank
also records how it was made (learning method, ``learn_bank`` parameters and
STFT settings), and :meth:`DictionaryBank.load` accepts only what ``save`` writes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from typing import Iterable, Mapping

import numpy as np

from .dictionary import METHODS, LearnedDictionary
from .errors import DataError
from .features import StftConfig

__all__ = ["DictionaryBank"]

#: the ``learn_bank`` arguments a bank records as ``params``
RECIPE_KEYS = ("n_atoms", "tw", "tb", "seed")


class DictionaryBank:
    """Speaker and noise dictionaries, access-counted and serialisable."""

    def __init__(
        self,
        speakers: Mapping[str, LearnedDictionary],
        noises: Mapping[str, LearnedDictionary],
        *,
        method: str,
        params: Mapping[str, object] | None = None,
        feature_params: Mapping[str, object] | None = None,
        _counters: dict[tuple[str, str], int] | None = None,
    ) -> None:
        self._speakers = dict(speakers)
        self._noises = dict(noises)
        self.method = method
        self.params = dict(params or {})
        self.feature_params = dict(feature_params or {})
        self.access_counts: dict[tuple[str, str], int] = (
            _counters if _counters is not None else {}
        )
        for kind, table in (("speaker", self._speakers), ("noise", self._noises)):
            for label in table:
                self.access_counts.setdefault((kind, label), 0)

    @property
    def stft_config(self) -> StftConfig:
        """The STFT settings the atoms were learned with."""
        return StftConfig(**self.feature_params)

    @property
    def _recipe(self) -> dict:
        """How the bank was made: learning method and parameters, STFT settings."""
        return dict(method=self.method, params=self.params, feature_params=self.feature_params)

    # -- lookup ---------------------------------------------------------------

    @property
    def speaker_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._speakers))

    @property
    def noise_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self._noises))

    def get_speaker(self, label: str) -> LearnedDictionary:
        if label not in self._speakers:
            raise KeyError(f"speaker {label!r} not in bank")
        self.access_counts[("speaker", label)] += 1
        return self._speakers[label]

    def get_noise(self, label: str) -> LearnedDictionary:
        if label not in self._noises:
            raise KeyError(f"noise {label!r} not in bank")
        self.access_counts[("noise", label)] += 1
        return self._noises[label]

    def noise_dictionaries(self) -> dict[str, LearnedDictionary]:
        """Copy of the noise dictionaries by label, for building another bank.

        Unlike :meth:`get_noise` it counts no access: copying a dictionary
        into another bank is not consulting it.
        """
        return dict(self._noises)

    def concatenated(self) -> tuple[np.ndarray, list[tuple[str, str, slice]]]:
        """Stack every speaker's, then every noise's atoms, each in label order.

        Returns the matrix and a list of ``(kind, label, column_slice)``
        giving each source's block of columns.  A :meth:`restricted` view
        stacks only the sources it keeps.
        """
        blocks: list[np.ndarray] = []
        groups: list[tuple[str, str, slice]] = []
        start = 0
        wanted = [("speaker", label) for label in self.speaker_labels]
        for kind, label in wanted + [("noise", label) for label in self.noise_labels]:
            atoms = (self.get_speaker if kind == "speaker" else self.get_noise)(label).atoms
            blocks.append(atoms)
            groups.append((kind, label, slice(start, start + atoms.shape[1])))
            start += atoms.shape[1]
        if not blocks:
            raise ValueError("bank holds no dictionaries")
        return np.concatenate(blocks, axis=1), groups

    # -- derived banks --------------------------------------------------------

    def restricted(
        self,
        exclude_speakers: Iterable[str] = (),
        exclude_noises: Iterable[str] = (),
    ) -> "DictionaryBank":
        """View without the given sources; shares this bank's access counters."""
        ex_s = set(exclude_speakers)
        ex_n = set(exclude_noises)
        return self._view(
            {k: v for k, v in self._speakers.items() if k not in ex_s},
            {k: v for k, v in self._noises.items() if k not in ex_n},
        )

    def with_replaced(
        self, kind: str, label: str, replacement: LearnedDictionary
    ) -> "DictionaryBank":
        """Copy of the bank with one source dictionary replaced or added."""
        speakers = dict(self._speakers)
        noises = dict(self._noises)
        if kind == "speaker":
            speakers[label] = replacement
        elif kind == "noise":
            noises[label] = replacement
        else:
            raise ValueError("kind must be 'speaker' or 'noise'")
        return self._view(speakers, noises)

    def _view(
        self, speakers: Mapping[str, LearnedDictionary], noises: Mapping[str, LearnedDictionary]
    ) -> "DictionaryBank":
        """Bank of these sources with this bank's recipe and access counters."""
        return DictionaryBank(
            speakers,
            noises,
            method=self.method,
            params=self.params,
            feature_params=self.feature_params,
            _counters=self.access_counts,
        )

    # -- serialisation --------------------------------------------------------

    def save(self, path) -> None:
        arrays: dict[str, np.ndarray] = {}
        for kind, table in (("speaker", self._speakers), ("noise", self._noises)):
            for label, d in table.items():
                arrays[f"{kind}/{label}/atoms"] = d.atoms
                arrays[f"{kind}/{label}/appended"] = d.appended
        meta = {
            "format": "sparsescene-bank",
            "version": 1,
            **self._recipe,
            "speakers": sorted(self._speakers),
            "noises": sorted(self._noises),
            "dict_methods": {
                f"{kind}/{label}": d.method
                for kind, table in (("speaker", self._speakers), ("noise", self._noises))
                for label, d in table.items()
            },
        }
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "DictionaryBank":
        """Read a bank written by :meth:`save`; anything else is a :class:`DataError`."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                data = {key: archive[key] for key in archive.files}
        except Exception as exc:  # a damaged archive can make numpy or zipfile raise almost anything
            raise DataError(f"cannot read dictionary bank {path}: {exc}") from exc
        try:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if not isinstance(meta, dict) or meta.get("format") != "sparsescene-bank":
                raise KeyError("format")
            problem = _meta_problem(meta)
            if problem:
                raise DataError(f"{path} is not a valid dictionary bank: {problem}")
            tables = {
                kind: {
                    label: LearnedDictionary(
                        atoms=np.asarray(data[f"{kind}/{label}/atoms"], dtype=np.float64),
                        method=meta["dict_methods"][f"{kind}/{label}"],
                        appended=np.asarray(data[f"{kind}/{label}/appended"], dtype=bool),
                    )
                    for label in meta[f"{kind}s"]
                }
                for kind in ("speaker", "noise")
            }
            bank = cls(
                tables["speaker"],
                tables["noise"],
                method=meta["method"],
                params=meta["params"],
                feature_params=meta["feature_params"],
            )
        except KeyError as exc:
            raise DataError(f"{path} is not a valid dictionary bank: no {exc}") from exc
        except ValueError as exc:  # meta that is not UTF-8 JSON, atoms that are not numbers
            raise DataError(f"{path} is not a valid dictionary bank: {exc}") from exc
        problem = bank._problem()
        if problem:
            raise DataError(f"dictionary bank {path}: {problem}")
        return bank

    def _problem(self) -> str | None:
        """What keeps this bank from being one ``save`` writes, or None."""
        if self.method not in METHODS:
            return f"method {self.method!r} is not one of {METHODS}"
        p = self.params
        if set(p) != set(RECIPE_KEYS) or not all(type(v) in (int, float) for v in p.values()):
            return f"params {p} are not numbers for exactly {RECIPE_KEYS}"
        if not all(type(v) is int or math.isfinite(v) for v in p.values()):
            return f"params {p} are not finite"
        stft_keys = {f.name for f in fields(StftConfig)}
        fp = self.feature_params
        if set(fp) != stft_keys or not all(type(v) is int and v > 0 for v in fp.values()):
            return f"feature_params {fp} are not positive integers for exactly {sorted(stft_keys)}"
        n_bins = self.stft_config.n_bins
        for kind, table in (("speaker", self._speakers), ("noise", self._noises)):
            for label, d in table.items():
                atoms, where = d.atoms, f"{kind} {label!r}"
                if atoms.ndim != 2 or atoms.shape[0] != n_bins:
                    shape, n_fft = atoms.shape, fp["n_fft"]
                    return f"{where} atoms have shape {shape}; n_fft {n_fft} needs {n_bins} rows"
                if not np.all(np.isfinite(atoms)):
                    return f"{where} has non-finite atoms (NaN or Inf)"
                if np.any(atoms < 0):
                    return f"{where} has negative atoms"
                if np.any(np.abs(np.linalg.norm(atoms, axis=0) - 1.0) > 1e-6):
                    return f"{where} has atoms that are not unit-norm"
        return None

    def content_hash(self) -> str:
        """Stable digest of the bank's dictionaries and parameters."""
        h = hashlib.sha256()
        h.update(json.dumps(self._recipe, sort_keys=True).encode("utf-8"))
        for kind, table in (("speaker", self._speakers), ("noise", self._noises)):
            for label in sorted(table):
                d = table[label]
                h.update(f"{kind}/{label}/{d.method}".encode("utf-8"))
                h.update(np.ascontiguousarray(d.atoms).tobytes())
                h.update(np.ascontiguousarray(d.appended).tobytes())
        return h.hexdigest()


def _meta_problem(meta: dict) -> str | None:
    """What keeps a bank's meta from having the JSON shape ``save`` writes, or None.

    A missing key raises ``KeyError``.
    """
    for key in ("speakers", "noises"):
        if not (isinstance(meta[key], list) and all(isinstance(v, str) for v in meta[key])):
            return f"{key} {meta[key]!r} is not a list of labels"
    methods = meta["dict_methods"]
    if not (isinstance(methods, dict) and all(v in METHODS for v in methods.values())):
        return f"dict_methods {methods!r} is not an object of methods from {METHODS}"
    for key in ("params", "feature_params"):
        if not isinstance(meta[key], dict):
            return f"{key} {meta[key]!r} is not an object"
    return None
