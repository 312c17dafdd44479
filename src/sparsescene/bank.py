"""A bank of per-source dictionaries with instrumented access.

The bank maps each source, a ``(kind, label)`` pair naming a speaker or a
noise type, to its learned dictionary and keeps a shared access counter per
source.  Restricted views (with some sources removed) share the parent's
counters, so a test can run a pipeline on a view and then assert that the
removed sources were never consulted.  The bank also records how it was made
(learning method, ``learn_bank`` parameters and STFT settings); its
``method`` is the one record of how every source was learned.  Every bank,
learned, loaded, built by hand or a view, is whole: the constructor is its
one check.  :meth:`DictionaryBank.load` reads only what ``save`` writes, and
``save`` replaces its file only once the new one is whole.
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
from .files import replace_file

__all__ = ["KINDS", "DictionaryBank"]

#: the kinds of source, in the order a bank stacks, saves and hashes them
KINDS = ("speaker", "noise")


class DictionaryBank:
    """Speaker and noise dictionaries, access-counted and serialisable.

    ``sources`` maps each source, named ``(kind, label)``, to its learned
    dictionary.  The bank keeps them in :data:`KINDS` order, labels sorted
    within each kind.  A bank that is not whole is a :class:`DataError`.
    """

    def __init__(
        self,
        sources: Mapping[tuple[str, str], LearnedDictionary],
        *,
        method: str,
        params: Mapping[str, object],
        feature_params: Mapping[str, object],
        _counters: dict[tuple[str, str], int] | None = None,
    ) -> None:
        unknown = sorted({kind for kind, _ in sources} - set(KINDS))
        if unknown:
            raise ValueError(f"source kinds {unknown} are not in {KINDS}")
        order = sorted(sources, key=lambda key: (KINDS.index(key[0]), key[1]))
        self._sources = {key: sources[key] for key in order}
        self.method = method
        self.params = dict(params)
        self.feature_params = dict(feature_params)
        problem = self._problem()
        if problem:
            raise DataError(f"not a whole dictionary bank: {problem}")
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
        """Write the bank to ``path`` through a ``*.tmp`` file that replaces it."""
        arrays: dict[str, np.ndarray] = {}
        for (kind, label), d in self._sources.items():
            arrays[f"{kind}/{label}/atoms"] = d.atoms
            arrays[f"{kind}/{label}/appended"] = d.appended
        meta = {
            "format": "sparsescene-bank",
            "version": 1,
            **self._recipe,
            **{f"{kind}s": list(self._labels(kind)) for kind in KINDS},
        }
        arrays["meta"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        replace_file(path, lambda fh: np.savez(fh, **arrays))

    @classmethod
    def load(cls, path) -> "DictionaryBank":
        """Read a bank written by :meth:`save`; anything else is a :class:`DataError`.

        A meta key it does not read is ignored, such as older files' per-source
        ``dict_methods``, which the bank's ``method`` replaced.
        """
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
                raise ValueError(problem)
            sources = {
                (kind, label): LearnedDictionary(
                    atoms=np.asarray(data[f"{kind}/{label}/atoms"], dtype=np.float64),
                    appended=np.asarray(data[f"{kind}/{label}/appended"], dtype=bool),
                )
                for kind in KINDS
                for label in meta[f"{kind}s"]
            }
            return cls(
                sources,
                method=meta["method"],
                params=meta["params"],
                feature_params=meta["feature_params"],
            )
        except KeyError as exc:
            raise DataError(f"{path} is not a valid dictionary bank: no {exc}") from exc
        except ValueError as exc:  # meta not of save's shape or not UTF-8 JSON, atoms not numbers
            raise DataError(f"{path} is not a valid dictionary bank: {exc}") from exc
        except DataError as exc:  # a bank that is not whole
            raise DataError(f"{path}: {exc}") from exc

    def _problem(self) -> str | None:
        """What keeps this bank from being whole, or None.

        A whole bank is learned by one of :data:`METHODS` with a whole recipe,
        its STFT settings are positive integers with ``hop < n_fft``, and it
        holds a speaker and a noise, each with one ``appended`` flag per atom and
        at least one finite, non-negative, unit-norm atom of ``n_fft // 2 + 1`` rows.
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
        if fp["hop"] >= fp["n_fft"]:
            return f"feature_params {fp}: hop {fp['hop']} must be shorter than n_fft {fp['n_fft']}"
        n_bins = self.stft_config.n_bins
        for kind in KINDS:
            if not self._labels(kind):
                return f"it holds no {kind} dictionary"
        for (kind, label), d in self._sources.items():
            atoms, where = d.atoms, f"{kind} {label!r}"
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
            # the method per source keeps the hashes of banks whose sources each recorded it
            h.update(f"{kind}/{label}/{self.method}".encode("utf-8"))
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
    for key in ("params", "feature_params"):
        if not isinstance(meta[key], dict):
            return f"{key} {meta[key]!r} is not an object"
    return None
