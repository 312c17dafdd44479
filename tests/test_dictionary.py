import warnings

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2
from scipy.spatial.distance import cdist

from sparsescene import solvers
from sparsescene.dictionary import (
    METHODS,
    _kmeans_pp,
    _learn_kmeans,
    _learn_ksvd,
    _select_random,
    learn_dictionary,
    normalize_atoms,
)
from sparsescene.training import noise_training_features, speaker_training_features


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(42)
    return np.abs(rng.standard_normal((30, 200))) + 0.01


@pytest.fixture(scope="module")
def sparse_frames():
    # Half the entries are zero: small K-SVD fits on these leave atoms without
    # users and clip some atom updates to zero.
    rng = np.random.default_rng(3)
    f = rng.random((4, 24)) * (rng.random((4, 24)) < 0.5)
    return f[:, np.linalg.norm(f, axis=0) > 1e-12]


def test_method_registry_lists_five_methods():
    assert METHODS == ("random", "kmeans", "kmedoid", "ksvd", "tdcs")


def test_normalize_drops_zero_columns_and_unit_scales():
    cols = np.array([[3.0, 0.0], [4.0, 0.0]])
    out = normalize_atoms(cols)
    assert out.shape == (2, 1)
    assert np.linalg.norm(out[:, 0]) == pytest.approx(1.0)


@pytest.mark.parametrize("method", METHODS)
def test_each_method_yields_valid_atoms(frames, method):
    d = learn_dictionary(frames, method, 12, rng=np.random.default_rng(0))
    assert d.atoms.shape[0] == 30
    assert 1 <= d.atoms.shape[1] <= 12
    assert np.all(d.atoms >= 0)
    assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
    assert d.appended.shape == (d.atoms.shape[1],)
    assert d.appended.dtype == bool


@pytest.mark.parametrize("method", METHODS)
def test_learning_is_deterministic_given_a_seed(frames, method):
    a = learn_dictionary(frames, method, 10, rng=np.random.default_rng(5))
    b = learn_dictionary(frames, method, 10, rng=np.random.default_rng(5))
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.appended, b.appended)


def test_random_selection_draws_from_the_frames(frames):
    d = learn_dictionary(frames, "random", 8, rng=np.random.default_rng(1))
    unit = normalize_atoms(frames)
    sims = d.atoms.T @ unit
    assert np.allclose(np.max(sims, axis=1), 1.0)


def test_medoid_atoms_are_actual_frames(frames):
    d = learn_dictionary(frames, "kmedoid", 8, rng=np.random.default_rng(2))
    unit = normalize_atoms(frames)
    sims = d.atoms.T @ unit
    assert np.allclose(np.max(sims, axis=1), 1.0)


def test_threshold_method_respects_both_thresholds(frames):
    prior = learn_dictionary(frames[:, :50], "tdcs", 6, tw=0.9, tb=0.9,
                             rng=np.random.default_rng(3))
    d = learn_dictionary(
        frames[:, 50:], "tdcs", 10, tw=0.9, tb=0.9,
        prior_atoms=prior.atoms, rng=np.random.default_rng(4),
    )
    kept = d.atoms[:, ~d.appended]
    within = kept.T @ kept
    np.fill_diagonal(within, 0.0)
    assert np.all(within <= 0.9)
    assert np.all(kept.T @ prior.atoms <= 0.9)


def test_threshold_method_fills_budget_with_flagged_atoms():
    rng = np.random.default_rng(6)
    base = np.abs(rng.standard_normal(20)) + 0.1
    # Nearly identical frames: after the first acceptance everything is too
    # similar, so the budget is topped up with appended (flagged) frames.
    frames = base[:, None] * (1.0 + 0.001 * rng.standard_normal((20, 40)))
    d = learn_dictionary(np.abs(frames), "tdcs", 5, tw=0.8, tb=0.8,
                         rng=np.random.default_rng(7))
    assert d.atoms.shape[1] == 5
    assert d.appended.sum() >= 1


def test_unknown_method_is_rejected(frames):
    with pytest.raises(ValueError):
        learn_dictionary(frames, "cosine-magic", 4)


def test_budget_larger_than_data_is_capped():
    rng = np.random.default_rng(8)
    small = np.abs(rng.standard_normal((10, 5))) + 0.1
    d = learn_dictionary(small, "random", 50, rng=rng)
    assert d.atoms.shape[1] == 5


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_features_are_rejected(frames, method, bad):
    corrupt = frames.copy()
    corrupt[3, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        learn_dictionary(corrupt, method, 6, rng=np.random.default_rng(0))


def _reference_kmeans(frames: np.ndarray, n_atoms: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ as SciPy's ``kmeans2(minit="++")`` seeds it, then ``_learn_kmeans``' Lloyd and re-seating.

    Each new seed takes every frame's distance to all earlier seeds,
    ``cdist(init[:i], data).min(axis=0)``; all-zero distances give 0/0
    shares, and ``searchsorted`` puts every NaN share past the draw.  An
    empty cluster takes the farthest frame that equals no atom placed so
    far; a slot that finds none is dropped.
    """
    data = frames.T
    n = data.shape[0]
    k = min(n_atoms, n)
    state = np.random.RandomState(int(rng.integers(0, 2**31 - 1)))
    init = np.empty((k, data.shape[1]))
    for i in range(k):
        if i == 0:
            idx = state.randint(n, dtype=np.int64)
        else:
            D2 = cdist(init[:i], data, "sqeuclidean").min(axis=0)
            with np.errstate(invalid="ignore"):
                probs = D2 / D2.sum()
            idx = int(np.searchsorted(probs.cumsum(), state.uniform()))
        init[i] = data[idx]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        centroids, labels = kmeans2(data, init, minit="matrix")
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    far = list(np.argsort(np.linalg.norm(data - centroids[labels], axis=1))[::-1])
    atoms = {slot: centroids[slot] for slot in range(k) if slot not in empty}
    for slot in empty:
        while far:
            frame = data[far.pop(0)]
            if all(not np.array_equal(frame, atom) for atom in atoms.values()):
                atoms[slot] = frame
                break
    return np.maximum(np.array([atoms[slot] for slot in sorted(atoms)]).T, 0.0)


#: three distinct frames, each twice: fewer distinct columns than a 5-atom budget
_TWICE_THREE = np.tile(np.array([[3.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, 4.0]]), 2)


@pytest.mark.parametrize(
    "case, n_atoms, seed",
    [
        ("random", 12, 0),
        ("random", 12, 1),
        ("random", 12, 2),
        ("random", 20, 1901),
        ("random", 1, 0),
        ("random", 1, 3),
        ("all_frames", 40, 0),
        ("all_frames", 40, 4),
        ("repeated", 5, 0),
        ("repeated", 5, 1),
    ],
)
def test_kmeans_matches_the_quadratic_seeding(frames, case, n_atoms, seed):
    data = {"random": frames, "all_frames": frames[:, :40], "repeated": _TWICE_THREE}[case]
    got = _learn_kmeans(data, n_atoms, np.random.default_rng(seed))
    want = _reference_kmeans(data, n_atoms, np.random.default_rng(seed))
    distinct = np.unique(data, axis=1).shape[1]
    assert got.shape == want.shape == (data.shape[0], min(n_atoms, distinct))
    assert got.tobytes() == want.tobytes()


def test_kmeans_seeds_on_frame_zero_once_every_frame_is_a_seed():
    data = _TWICE_THREE.T.copy()
    state = np.random.RandomState(7)
    seeds = _kmeans_pp(data, 5, state)
    # Three distinct seeds cover every frame; the last two fall on frame 0.
    assert len({tuple(row) for row in seeds[:3]}) == 3
    assert np.array_equal(seeds[3:], data[[0, 0]])
    # One uniform() is still drawn for each seed after the first.
    aligned = np.random.RandomState(7)
    aligned.randint(6, dtype=np.int64)
    aligned.uniform(size=4)
    assert state.uniform() == aligned.uniform()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = learn_dictionary(_TWICE_THREE, "kmeans", 5, rng=np.random.default_rng(0))
    # the two empty clusters find no frame that is not an atom, so they are dropped
    assert np.array_equal(d.atoms, normalize_atoms(_TWICE_THREE[:, [0, 2, 1]]))


def _reference_ksvd(
    frames: np.ndarray,
    n_atoms: int,
    rng: np.random.Generator,
    n_iter: int = 10,
    sparsity: int = 5,
) -> np.ndarray:
    """The residual-matrix K-SVD loop that ``_learn_ksvd`` replaced, kept verbatim.

    Only its coding follows ``_learn_ksvd``'s schedule: 42 over-relaxed
    sweeps from the uniform start, then 14 from the previous round's dense
    weights.
    """
    from sparsescene.solvers import solve_mu

    atoms = normalize_atoms(_select_random(frames, n_atoms, rng))
    k = atoms.shape[1]
    dense = None
    for _ in range(n_iter):
        sweeps = 42 if dense is None else 14
        dense = solve_mu(frames, atoms, n_iter=sweeps, init=dense, relaxed=True)
        X = dense.copy()
        # hard sparsification: keep the largest weights per frame
        if sparsity < k:
            order = np.argsort(X, axis=0)
            X[order[: k - sparsity, :], np.arange(X.shape[1])[None, :]] = 0.0
        approx = atoms @ X
        for j in range(k):
            users = np.flatnonzero(X[j, :] > 0)
            if users.size == 0:
                worst = int(np.argmax(np.sum((frames - approx) ** 2, axis=0)))
                atom = frames[:, worst].copy()
            else:
                residual = frames[:, users] - approx[:, users] + np.outer(atoms[:, j], X[j, users])
                atom = residual @ X[j, users]
                np.maximum(atom, 0.0, out=atom)
            norm = np.linalg.norm(atom)
            if norm <= 1e-12:
                atom = frames[:, int(rng.integers(frames.shape[1]))].copy()
                norm = np.linalg.norm(atom)
            atom /= norm
            if users.size:
                approx[:, users] -= np.outer(atoms[:, j], X[j, users])
                weights = np.maximum(atom @ residual, 0.0)
                X[j, users] = weights
                approx[:, users] += np.outer(atom, weights)
            atoms[:, j] = atom
    return atoms


def _assert_ksvd_matches_reference(frames, n_atoms, seed, **kwargs):
    got = _learn_ksvd(frames, n_atoms, np.random.default_rng(seed), **kwargs)
    want = _reference_ksvd(frames, n_atoms, np.random.default_rng(seed), **kwargs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ksvd_matches_the_residual_matrix_loop(frames, seed):
    _assert_ksvd_matches_reference(frames, 12, seed)


def test_ksvd_matches_the_residual_matrix_loop_for_an_atom_without_users(
    sparse_frames, monkeypatch
):
    codings = []
    sweeps = solvers._sweeps

    def recorded(obs, B, colsum, Xl, *args, **kwargs):
        sweeps(obs, B, colsum, Xl, *args, **kwargs)
        codings.append(Xl.copy())

    # Both learners' codings run through the sweep loop.
    monkeypatch.setattr(solvers, "_sweeps", recorded)
    _assert_ksvd_matches_reference(sparse_frames, 6, 0, sparsity=1)
    # With one weight kept per frame, an atom that is no frame's largest has no users.
    k = codings[0].shape[0]
    kept = [np.unique(np.argsort(X, axis=0)[-1]) for X in codings]
    assert any(atoms.size < k for atoms in kept)


def test_ksvd_matches_the_residual_matrix_loop_through_a_reseed(sparse_frames):
    _assert_ksvd_matches_reference(sparse_frames, 8, 0, sparsity=2)
    # A re-seed is the only draw after the initial atom selection.
    rng = np.random.default_rng(0)
    _learn_ksvd(sparse_frames, 8, rng, sparsity=2)
    selection_only = np.random.default_rng(0)
    _select_random(sparse_frames, 8, selection_only)
    assert rng.bit_generator.state != selection_only.bit_generator.state


def test_ksvd_codes_the_frames_once_per_round(frames, monkeypatch):
    calls = []
    relaxed = []
    sweeps = solvers._sweeps

    def counted(obs, B, colsum, Xl, n_iter, X, *args, **kwargs):
        start = Xl.copy()
        sweeps(obs, B, colsum, Xl, n_iter, X, *args, **kwargs)
        calls.append((obs, n_iter, start, Xl.copy()))
        relaxed.append(kwargs.get("relaxed"))

    monkeypatch.setattr(solvers, "_sweeps", counted)
    learn_dictionary(frames, "ksvd", 10, rng=np.random.default_rng(0))
    assert [n_iter for _, n_iter, _, _ in calls] == [42] + [14] * 9
    assert relaxed == [True] * 10
    # The frames are prepared once, and the first round starts uniform.
    assert all(obs is calls[0][0] for obs, _, _, _ in calls)
    assert np.all(calls[0][2] == calls[0][2][0, 0])
    # Each later round starts from the previous round's float32 weights.
    for (_, _, _, previous), (_, _, start, _) in zip(calls, calls[1:]):
        assert start.dtype == np.float32 and np.array_equal(start, previous)


def _ksvd_coding_each_round_with_solve_mu(frames, n_atoms, rng, n_iter=10, sparsity=5):
    """``_learn_ksvd`` as it was when each round called ``solve_mu``, on its schedule."""
    atoms = normalize_atoms(_select_random(frames, n_atoms, rng))
    k = atoms.shape[1]
    dense = None
    for _ in range(n_iter):
        sweeps = 42 if dense is None else 14
        dense = solvers.solve_mu(frames, atoms, n_iter=sweeps, init=dense, relaxed=True)
        X = dense.copy()
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


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("silent", [False, True], ids=["all_live", "silent_column"])
def test_ksvd_codes_as_one_solve_mu_per_round_bit_for_bit(frames, seed, silent):
    F = frames.copy()
    if silent:
        F[:, 7] = 0.0
    got = _learn_ksvd(F, 12, np.random.default_rng(seed))
    want = _ksvd_coding_each_round_with_solve_mu(F, 12, np.random.default_rng(seed))
    assert np.array_equal(got, want)


def test_relaxed_ksvd_rounds_fit_no_worse_than_the_plain_schedule(corpus, stft_config):
    noise = sorted(corpus.noises)[0]
    speaker = sorted(corpus.speakers)[0]
    kl = solvers.generalized_kl
    for F in (
        noise_training_features(corpus, noise, stft_config),
        speaker_training_features(corpus, speaker, stft_config),
    ):
        # The first round codes the initial atoms from the uniform start.
        start = normalize_atoms(_select_random(F, 20, np.random.default_rng(0)))
        cold = solvers.solve_mu(F, start, n_iter=42, relaxed=True)
        plain = solvers.solve_mu(F, start, n_iter=60)
        assert kl(F, start @ cold) <= kl(F, start @ plain)
        # The second round starts from the first round's dense weights.
        atoms = _learn_ksvd(F, 20, np.random.default_rng(0), n_iter=1)
        warm = solvers.solve_mu(F, atoms, n_iter=14, init=cold, relaxed=True)
        plain = solvers.solve_mu(F, atoms, n_iter=20, init=cold)
        assert kl(F, atoms @ warm) <= kl(F, atoms @ plain)
