"""A bank of per-source dictionaries with instrumented access.

The bank maps each source, a ``(kind, label)`` pair naming a speaker or a
noise type, to its learned dictionary and keeps a shared access counter per
source.  Restricted views (with some sources removed) share the parent's
counters, so a test can run a pipeline on a view and then assert that the
removed sources were never consulted.  The bank
also records how it was made (learning method, ``learn_bank`` parameters and
STFT settings), and :meth:`DictionaryBank.load` accepts only what ``save`` writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Iterable, Mapping

import numpy as np

from .dictionary import METHODS, LearnedDictionary, recipe_problem
from .errors import DataError
from .features import StftConfig

__all__ = ["KINDS", "DictionaryBank"]

#: the kinds of source, in the order a bank stacks, saves and hashes them
KINDS = ("speaker", "noise")


class DictionaryBank:
    """Speaker and noise dictionaries, access-counted and serialisable.

    ``sources`` maps each source, named ``(kind, label)``, to its learned
    dictionary.  The bank keeps them in :data:`KINDS` order, labels sorted
    within each kind.
    """

    def __init__(
        self,
        sources: Mapping[tuple[str, str], LearnedDictionary],
        *,
        method: str,
        params: Mapping[str, object] | None = None,
        feature_params: Mapping[str, object] | None = None,
        _counters: dict[tuple[str, str], int] | None = None,
    ) -> None:
        unknown = sorted({kind for kind, _ in sources} - set(KINDS))
        if unknown:
            raise ValueError(f"source kinds {unknown} are not in {KINDS}")
        order = sorted(sources, key=lambda key: (KINDS.index(key[0]), key[1]))
        self._sources = {key: sources[key] for key in order}
        self.method = method
        self.params = dict(params or {})
        self.feature_params = dict(feature_params or {})
        self.access_counts: dict[tuple[str, str], int] = (
            _counters if _counters is not None else {}
        )
        for key in self._sources:
            self.access_counts.setdefault(key, 0)

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
    def sources(self) -> tuple[tuple[str, str], ...]:
        """Every ``(kind, label)`` source, in the bank's order."""
        return tuple(self._sources)

    def _labels(self, kind: str) -> tuple[str, ...]:
        return tuple(label for k, label in self._sources if k == kind)

    @property
    def speaker_labels(self) -> tuple[str, ...]:
        return self._labels("speaker")

    @property
    def noise_labels(self) -> tuple[str, ...]:
        return self._labels("noise")

    def get(self, kind: str, label: str) -> LearnedDictionary:
        """The dictionary of source ``(kind, label)``; counts one access to it."""
        if (kind, label) not in self._sources:
            raise KeyError(f"{kind} {label!r} not in bank")
        self.access_counts[(kind, label)] += 1
        return self._sources[(kind, label)]

    def concatenated(self) -> tuple[np.ndarray, list[tuple[str, str, slice]]]:
        """Stack every source's atoms in the bank's order: speakers, then noises.

        Returns the matrix and a list of ``(kind, label, column_slice)``
        giving each source's block of columns.  A :meth:`restricted` view
        stacks only the sources it keeps.
        """
        blocks: list[np.ndarray] = []
        groups: list[tuple[str, str, slice]] = []
        start = 0
        for kind, label in self._sources:
            atoms = self.get(kind, label).atoms
            blocks.append(atoms)
            groups.append((kind, label, slice(start, start + atoms.shape[1])))
            start += atoms.shape[1]
        if not blocks:
            raise ValueError("bank holds no dictionaries")
        return np.concatenate(blocks, axis=1), groups

    # -- derived banks --------------------------------------------------------

    def restricted(self, exclude: Iterable[tuple[str, str]] = ()) -> "DictionaryBank":
        """View without the ``(kind, label)`` sources in ``exclude``; shares the counters.

        A label the bank lacks drops nothing; an entry that is not a
        ``(kind, label)`` pair with ``kind`` in :data:`KINDS` is a ``ValueError``.
        """
        dropped = list(exclude)
        bad = [e for e in dropped if not (isinstance(e, tuple) and len(e) == 2 and e[0] in KINDS)]
        if bad:
            raise ValueError(f"{bad} are not (kind, label) sources with a kind in {KINDS}")
        return self._view({key: d for key, d in self._sources.items() if key not in dropped})

    def with_replaced(
        self, kind: str, label: str, replacement: LearnedDictionary
    ) -> "DictionaryBank":
        """Copy of the bank with one source dictionary replaced or added."""
        return self._view({**self._sources, (kind, label): replacement})

    def _view(self, sources: Mapping[tuple[str, str], LearnedDictionary]) -> "DictionaryBank":
        """Bank of these sources with this bank's recipe and access counters."""
        return DictionaryBank(
            sources,
            method=self.method,
            params=self.params,
            feature_params=self.feature_params,
            _counters=self.access_counts,
        )

    # -- serialisation --------------------------------------------------------

    def save(self, path) -> None:
        """Write the bank to ``path``; a bank :meth:`load` would reject is a :class:`DataError`."""
        problem = self._problem()
        if problem:
            raise DataError(f"cannot save dictionary bank {path}: {problem}")
        arrays: dict[str, np.ndarray] = {}
        for (kind, label), d in self._sources.items():
            arrays[f"{kind}/{label}/atoms"] = d.atoms
            arrays[f"{kind}/{label}/appended"] = d.appended
        meta = {
            "format": "sparsescene-bank",
            "version": 1,
            **self._recipe,
            **{f"{kind}s": list(self._labels(kind)) for kind in KINDS},
            "dict_methods": {
                f"{kind}/{label}": d.method for (kind, label), d in self._sources.items()
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
            sources = {
                (kind, label): LearnedDictionary(
                    atoms=np.asarray(data[f"{kind}/{label}/atoms"], dtype=np.float64),
                    method=meta["dict_methods"][f"{kind}/{label}"],
                    appended=np.asarray(data[f"{kind}/{label}/appended"], dtype=bool),
                )
                for kind in KINDS
                for label in meta[f"{kind}s"]
            }
            bank = cls(
                sources,
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
        """What keeps this bank from being a whole one that ``save`` writes, or None.

        A whole bank holds at least one speaker and one noise, each learned
        by one of :data:`METHODS`, with at least one atom and one ``appended``
        flag per atom.
        """
        if self.method not in METHODS:
            return f"method {self.method!r} is not one of {METHODS}"
        problem = recipe_problem(self.params)
        if problem:
            return problem
        stft_keys = {f.name for f in fields(StftConfig)}
        fp = self.feature_params
        if set(fp) != stft_keys or not all(type(v) is int and v > 0 for v in fp.values()):
            return f"feature_params {fp} are not positive integers for exactly {sorted(stft_keys)}"
        n_bins = self.stft_config.n_bins
        for kind in KINDS:
            if not self._labels(kind):
                return f"it holds no {kind} dictionary"
        for (kind, label), d in self._sources.items():
            atoms, where = d.atoms, f"{kind} {label!r}"
            if d.method not in METHODS:
                return f"{where} was learned by {d.method!r}, which is not one of {METHODS}"
            if atoms.ndim != 2 or atoms.shape[0] != n_bins:
                shape, n_fft = atoms.shape, fp["n_fft"]
                return f"{where} atoms have shape {shape}; n_fft {n_fft} needs {n_bins} rows"
            if atoms.shape[1] == 0:
                return f"{where} has no atoms"
            if d.appended.shape != atoms.shape[1:]:
                shape, n_atoms = d.appended.shape, atoms.shape[1]
                return f"{where} has appended flags of shape {shape} for {n_atoms} atoms"
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
        for (kind, label), d in self._sources.items():
            h.update(f"{kind}/{label}/{d.method}".encode("utf-8"))
            h.update(np.ascontiguousarray(d.atoms).tobytes())
            h.update(np.ascontiguousarray(d.appended).tobytes())
        return h.hexdigest()


def _meta_problem(meta: dict) -> str | None:
    """What keeps a bank's meta from having the JSON shape ``save`` writes, or None.

    A missing key raises ``KeyError``.
    """
    if type(meta["version"]) is not int or meta["version"] != 1:
        return f"version {meta['version']!r} is not 1"
    for key in ("speakers", "noises"):
        if not (isinstance(meta[key], list) and all(isinstance(v, str) for v in meta[key])):
            return f"{key} {meta[key]!r} is not a list of labels"
    for key in ("dict_methods", "params", "feature_params"):
        if not isinstance(meta[key], dict):
            return f"{key} {meta[key]!r} is not an object"
    return None
