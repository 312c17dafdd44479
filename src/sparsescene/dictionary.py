"""Learning per-source spectral dictionaries from training feature frames.

A dictionary is a matrix of unit-L2-norm non-negative columns ("atoms"), one
dictionary per source (a speaker or a noise type).  Five learning methods are
provided:

``random``
    atoms are randomly selected training frames;
``kmeans``
    atoms are k-means centroids of the training frames: k-means++ seeds
    (each next seed drawn with probability proportional to a frame's squared
    distance to its nearest seed, kept as a running minimum), then SciPy's
    Lloyd iterations; an empty cluster moves to the farthest frame that is
    not already an atom, and is dropped when every frame is one;
``kmedoid``
    atoms are k-medoid frames under cosine distance (medoids are actual
    frames, chosen by Voronoi iteration);
``ksvd``
    alternating sparse coding and per-atom rank-one updates, with all
    quantities projected back onto the non-negative orthant; each update is
    formed from matrix-vector products with the frames, never from a copy
    of the residual matrix, and each round after the first starts its
    coding from the previous round's weights;
``tdcs``
    greedy frame selection controlled by two cosine-similarity thresholds: a
    candidate frame is accepted only if its similarity to every
    already-accepted atom of the same dictionary is at most ``tw`` (within)
    and its similarity to every atom of previously learned dictionaries is at
    most ``tb`` (between).  If the thresholds reject too many candidates to
    fill the requested atom budget, the least-correlated rejected frames are
    appended and flagged, so structural checks can exclude them.

All methods are deterministic given the ``rng`` argument.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "METHODS",
    "RECIPE",
    "recipe_problem",
    "LearnedDictionary",
    "learn_dictionary",
    "live_frames",
    "normalize_atoms",
]

METHODS = ("random", "kmeans", "kmedoid", "ksvd", "tdcs")

#: how a bank's dictionaries are learned, with the defaults: atoms per source,
#: the ``tdcs`` within/between thresholds and the seed; a bank records these
#: keys as its ``params``
RECIPE = {"n_atoms": 20, "tw": 0.8, "tb": 0.8, "seed": 0}


def recipe_problem(params: dict) -> str | None:
    """What keeps ``params`` from being a recipe with exactly :data:`RECIPE`'s keys, or None."""
    p = dict(params)
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p.values())
    if set(p) != set(RECIPE) or not numbers:
        return f"params {p} are not numbers for exactly {list(RECIPE)}"
    for key in ("tw", "tb"):
        if isinstance(p[key], float) and not math.isfinite(p[key]):
            return f"params {p}: {key} must be finite, not {p[key]}"
    if not (isinstance(p["n_atoms"], int) and p["n_atoms"] >= 1):
        return f"params {p}: n_atoms must be a positive integer, not {p['n_atoms']}"
    if not (isinstance(p["seed"], int) and p["seed"] >= 0):
        return f"params {p}: seed must be a non-negative integer, not {p['seed']}"
    return None


@dataclass
class LearnedDictionary:
    """Atoms plus the bookkeeping needed for structural checks.

    How the atoms were learned is recorded once, as the ``method`` of the
    :class:`~.bank.DictionaryBank` that holds them.

    Attributes
    ----------
    atoms : np.ndarray
        Unit-norm non-negative columns, ``(P, K)``.
    appended : np.ndarray
        Boolean mask ``(K,)``; True marks atoms appended past the
        threshold-accepted set (only the threshold method sets these).
    """

    atoms: np.ndarray
    appended: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.appended is None:
            self.appended = np.zeros(self.atoms.shape[1], dtype=bool)


def live_frames(frames: np.ndarray) -> np.ndarray:
    """Mask of the frame columns that are not silent: those whose L2 norm is above 1e-12."""
    return np.linalg.norm(frames, axis=0) > 1e-12


def normalize_atoms(columns: np.ndarray) -> np.ndarray:
    """Return columns scaled to unit L2 norm; all-zero columns are dropped."""
    A = np.asarray(columns, dtype=np.float64)
    norms = np.linalg.norm(A, axis=0)
    keep = norms > 1e-12
    return A[:, keep] / norms[keep][None, :]


def _select_random(frames: np.ndarray, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    n = frames.shape[1]
    k = min(n_atoms, n)
    idx = rng.choice(n, size=k, replace=False)
    return frames[:, np.sort(idx)]


def _kmeans_pp(data: np.ndarray, k: int, state: np.random.RandomState) -> np.ndarray:
    """``k`` k-means++ seeds among the rows of ``data`` (Arthur & Vassilvitskii, SODA 2007).

    The draws are SciPy's ``kmeans2(minit="++")`` seeding from the same
    ``state``: ``randint(n, dtype=int64)`` picks the first seed, then each
    next one is where one ``uniform()`` falls in the cumulative shares of
    every row's squared distance ``D²`` to its nearest seed so far.  SciPy
    recomputes ``D²`` from all earlier seeds for each new one; this keeps it
    as a running minimum, updated with one distance row per seed, which
    gives the same bits because a minimum is exact.  When every row already
    coincides with a seed (``D²`` sums to 0) the next seed is row 0, where
    SciPy's 0/0 shares land, and the ``uniform()`` is still drawn.
    """
    from scipy.spatial.distance import cdist

    n = data.shape[0]
    seeds = np.empty((k, data.shape[1]))
    seeds[0] = data[state.randint(n, dtype=np.int64)]
    d2 = np.full(n, np.inf)
    for i in range(1, k):
        np.minimum(d2, cdist(seeds[i - 1 : i], data, "sqeuclidean")[0], out=d2)
        total = d2.sum()
        r = state.uniform()
        seeds[i] = data[int(np.searchsorted((d2 / total).cumsum(), r)) if total > 0 else 0]
    return seeds


def _learn_kmeans(frames: np.ndarray, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    # imported here, so that `import sparsescene` does not load scipy.cluster
    from scipy.cluster.vq import kmeans2

    data = np.ascontiguousarray(frames.T)
    k = min(n_atoms, data.shape[0])
    state = np.random.RandomState(int(rng.integers(0, 2**31 - 1)))
    with warnings.catch_warnings():
        # empty clusters are re-seated below
        warnings.filterwarnings("ignore", "One of the clusters is empty", UserWarning)
        centroids, labels = kmeans2(data, _kmeans_pp(data, k, state), minit="matrix")
    # Re-seat each empty cluster on the frame farthest from its centroid that
    # differs from every atom placed so far; drop the slot when none is left.
    placed = np.bincount(labels, minlength=k) > 0
    if not placed.all():
        residual = np.linalg.norm(data - centroids[labels], axis=1)
        far = iter(np.argsort(residual)[::-1])
        for slot in np.flatnonzero(~placed):
            for frame_idx in far:
                if not np.any(np.all(centroids[placed] == data[frame_idx], axis=1)):
                    centroids[slot] = data[frame_idx]
                    placed[slot] = True
                    break
    return np.maximum(centroids[placed].T, 0.0)


def _learn_kmedoid(
    frames: np.ndarray, n_atoms: int, rng: np.random.Generator, max_iter: int = 60
) -> np.ndarray:
    unit = normalize_atoms(frames)
    n = unit.shape[1]
    k = min(n_atoms, n)
    sim = unit.T @ unit
    medoids = np.sort(rng.choice(n, size=k, replace=False))
    for _ in range(max_iter):
        assign = np.argmax(sim[:, medoids], axis=1)
        new_medoids = medoids.copy()
        for c in range(k):
            members = np.flatnonzero(assign == c)
            if members.size == 0:
                continue
            # medoid = member maximising total similarity to its cluster
            within = sim[np.ix_(members, members)].sum(axis=0)
            new_medoids[c] = members[int(np.argmax(within))]
        new_medoids = np.sort(new_medoids)
        if np.array_equal(new_medoids, medoids):
            break
        medoids = new_medoids
    return frames[:, medoids]


#: over-relaxed multiplicative-update sweeps of the first K-SVD round, from the
#: uniform start: 0.7 times the 60 plain sweeps they replace, and a KL no higher
KSVD_COLD_SWEEPS = 42

#: over-relaxed sweeps of each later K-SVD round, which starts from the previous
#: round's weights: 0.7 times the 20 plain sweeps they replace, and a KL no higher
KSVD_WARM_SWEEPS = 14


def _learn_ksvd(
    frames: np.ndarray,
    n_atoms: int,
    rng: np.random.Generator,
    n_iter: int = 10,
    sparsity: int = 5,
) -> np.ndarray:
    """K-SVD with non-negative rank-one atom updates.

    Each of ``n_iter`` rounds codes ``frames`` with ``solve_mu``'s
    over-relaxed sweeps (``relaxed=True``), keeps the ``sparsity`` largest
    weights per frame, then sweeps the atoms in order.  ``frames`` are
    :func:`learn_dictionary`'s checked float64 frames, scaled and cast to
    float32 once, before the first round.  The first round codes from the uniform start with
    :data:`KSVD_COLD_SWEEPS` sweeps.  Every later round starts from the
    previous round's float32 weights, taken before the sparsification, and
    runs :data:`KSVD_WARM_SWEEPS` sweeps: the frames are the same and the
    atoms moved little, so the codes need only be refined, as alternating
    NMF refines its codes between factor updates (Lee & Seung, NIPS 2001).
    Each round's dense weights are bit for bit
    ``solve_mu(frames, atoms, n_iter=sweeps, init=previous_dense, relaxed=True)``,
    since scaling by a power of two and back is exact.
    Atom ``j`` with weight row ``x = X[j]`` and users ``u`` (frames where
    ``x > 0``) becomes the clipped, normalised ``residual @ x_u``, and its
    weights on ``u`` become the clipped ``atom @ residual``, where
    ``residual = frames[:, u] - atoms @ X[:, u] + outer(atoms[:, j], x_u)``.
    The residual matrix is never formed (Rubinstein, Zibulevsky & Elad,
    *Efficient implementation of the K-SVD algorithm using batch OMP*, 2008):
    ``residual @ x_u`` is ``frames @ x - atoms @ (X @ x) + atoms[:, j] (x·x)``,
    with ``frames @ x`` read from one ``frames @ X.T`` per round (row ``j``
    of ``X`` is untouched until step ``j``), and ``atom @ residual`` is
    ``(atom @ frames)[u] - (atom @ atoms) @ X[:, u] + (atom·atoms[:, j]) x_u``.
    An atom without users is re-seated on the worst-fitted frame, and one
    whose update clips to zero on a frame drawn from ``rng``.
    """
    from . import solvers

    atoms = normalize_atoms(_select_random(frames, n_atoms, rng))
    k = atoms.shape[1]
    obs, scaled = solvers._prepare(frames, k)
    dense = np.zeros((k, frames.shape[1]))
    for i in range(n_iter):
        sweeps = KSVD_WARM_SWEEPS if i else KSVD_COLD_SWEEPS
        solvers._sweeps(obs, atoms, atoms.sum(axis=0), scaled, sweeps, dense, relaxed=True)
        X = dense.copy()
        # hard sparsification: keep the largest weights per frame
        if sparsity < k:
            order = np.argsort(X, axis=0)
            X[order[: k - sparsity, :], np.arange(X.shape[1])[None, :]] = 0.0
        FX = frames @ X.T
        for j in range(k):
            x = X[j]
            users = np.flatnonzero(x > 0)
            if users.size == 0:
                worst = int(np.argmax(np.sum((frames - atoms @ X) ** 2, axis=0)))
                atom = frames[:, worst].copy()
            else:
                atom = FX[:, j] - atoms @ (X @ x) + atoms[:, j] * (x @ x)
                np.maximum(atom, 0.0, out=atom)
            norm = np.linalg.norm(atom)
            if norm <= 1e-12:
                atom = frames[:, int(rng.integers(frames.shape[1]))].copy()
                norm = np.linalg.norm(atom)
            atom /= norm
            if users.size:
                weights = (
                    (atom @ frames)[users]
                    - (atom @ atoms) @ X[:, users]
                    + (atom @ atoms[:, j]) * x[users]
                )
                X[j, users] = np.maximum(weights, 0.0)
            atoms[:, j] = atom
    return atoms


def _learn_threshold(
    frames: np.ndarray,
    n_atoms: int,
    tw: float,
    tb: float,
    prior_atoms: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    unit = normalize_atoms(frames)
    n = unit.shape[1]
    order = rng.permutation(n)
    have_prior = prior_atoms is not None and prior_atoms.size > 0
    accepted: list[int] = []
    for idx in order:
        c = unit[:, idx]
        if accepted and float(np.max(c @ unit[:, accepted])) > tw:
            continue
        if have_prior and float(np.max(c @ prior_atoms)) > tb:
            continue
        accepted.append(int(idx))
        if len(accepted) == n_atoms:
            break
    n_accepted = len(accepted)
    chosen = list(accepted)
    if n_accepted < n_atoms:
        # fill the remaining budget with the least-correlated rejected frames
        rest = np.setdiff1d(order, np.array(accepted, dtype=int), assume_unique=False)
        if rest.size:
            ref = unit[:, accepted] if accepted else unit[:, rest[:1]]
            score = np.max(unit[:, rest].T @ ref, axis=1)
            if have_prior:
                score = np.maximum(score, np.max(unit[:, rest].T @ prior_atoms, axis=1))
            for idx in rest[np.argsort(score, kind="stable")]:
                chosen.append(int(idx))
                if len(chosen) == n_atoms:
                    break
    atoms = unit[:, chosen]
    appended = np.zeros(len(chosen), dtype=bool)
    appended[n_accepted:] = True
    return atoms, appended


def learn_dictionary(
    features: np.ndarray,
    method: str,
    n_atoms: int,
    *,
    tw: float = RECIPE["tw"],
    tb: float = RECIPE["tb"],
    prior_atoms: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> LearnedDictionary:
    """Learn one source dictionary from feature frames.

    Parameters
    ----------
    features : np.ndarray
        Non-negative feature frames as columns, ``(P, N)``.
    method : str
        One of :data:`METHODS`.
    n_atoms : int
        Atom budget (methods may return fewer if the data cannot support it).
    tw, tb : float
        Within/between cosine-similarity thresholds (threshold method only).
    prior_atoms : np.ndarray, optional
        Atoms of previously learned dictionaries, used by the threshold
        method's between-source test.
    rng : np.random.Generator, optional
        Source of randomness; defaults to a fixed seed for reproducibility.

    Raises
    ------
    ValueError
        If ``features`` holds a NaN, an infinity or a negative value.
    DataError
        If every frame is silent (or there are no frames).
    """
    if method not in METHODS:
        raise ValueError(f"unknown dictionary method {method!r}; choose from {METHODS}")
    F = np.asarray(features, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError("features must be a 2-D array of frame columns")
    if not np.all(np.isfinite(F)):
        raise ValueError("features must be finite")
    if np.any(F < 0):
        raise ValueError("features must be non-negative")
    F = F[:, live_frames(F)]
    if F.shape[1] == 0:
        raise DataError("no non-silent frames to learn from")
    if n_atoms < 1:
        raise ValueError("n_atoms must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)

    appended = None
    if method == "random":
        atoms = _select_random(F, n_atoms, rng)
    elif method == "kmeans":
        atoms = _learn_kmeans(F, n_atoms, rng)
    elif method == "kmedoid":
        atoms = _learn_kmedoid(F, n_atoms, rng)
    elif method == "ksvd":
        atoms = _learn_ksvd(F, n_atoms, rng)
    else:  # tdcs
        atoms, appended = _learn_threshold(F, n_atoms, tw, tb, prior_atoms, rng)
    return LearnedDictionary(atoms=normalize_atoms(atoms), appended=appended)
