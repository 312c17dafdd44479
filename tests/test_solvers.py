import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescene.solvers import (
    CHECK_EVERY,
    EPS,
    FLOOR,
    RELAX_EXPONENT,
    code_frames,
    generalized_kl,
    solve_asna,
    solve_mu,
)


def _random_problem(seed, P=12, M=8):
    rng = np.random.default_rng(seed)
    B = np.abs(rng.standard_normal((P, M))) + 0.05
    B /= np.linalg.norm(B, axis=0)
    y = np.abs(rng.standard_normal(P)) + 0.01
    return y, B


def test_divergence_is_zero_for_identical_inputs():
    y = np.array([1.0, 2.0, 3.0])
    assert generalized_kl(y, y) == pytest.approx(0.0, abs=1e-12)


def test_divergence_is_positive_for_different_inputs():
    y = np.array([1.0, 2.0, 3.0])
    yhat = np.array([2.0, 1.0, 3.0])
    assert generalized_kl(y, yhat) > 0


def test_divergence_known_value():
    y = np.array([2.0])
    yhat = np.array([1.0])
    assert generalized_kl(y, yhat) == pytest.approx(2.0 * np.log(2.0) - 2.0 + 1.0)


def test_multiplicative_updates_monotonically_improve():
    y, B = _random_problem(0)
    objs = [generalized_kl(y, B @ solve_mu(y, B, n_iter=n)) for n in (5, 20, 100, 400)]
    assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


def test_multiplicative_updates_recover_in_cone_observation():
    _, B = _random_problem(1)
    x0 = np.array([0.5, 0.0, 1.2, 0.0, 0.0, 0.3, 0.0, 0.0])
    y = B @ x0
    x = solve_mu(y, B, n_iter=100_000)
    # The updates converge sublinearly, so allow a small tail.
    assert generalized_kl(y, B @ x) <= 1e-7


def test_multiplicative_updates_batch_matches_single_column():
    y1, B = _random_problem(2)
    y2, _ = _random_problem(3)
    Y = np.stack([y1, y2], axis=1)
    X = solve_mu(Y, B, n_iter=500)
    assert np.allclose(X[:, 0], solve_mu(y1, B, n_iter=500))
    assert np.allclose(X[:, 1], solve_mu(y2, B, n_iter=500))


@pytest.mark.parametrize("c", [2.0**-100, 2.0**100], ids=["2**-100", "2**100"])
def test_multiplicative_updates_are_scale_equivariant_bit_for_bit(c):
    y1, B = _random_problem(9)
    y2, _ = _random_problem(10)
    Y = np.stack([y1, np.zeros(12), 3.0 * y2], axis=1)
    for stop in ({}, {"tol": 1e-3, "blocks": [0, 3, 5]}):
        X = solve_mu(Y, B, n_iter=300, **stop)
        assert np.array_equal(solve_mu(c * Y, B, n_iter=300, **stop), c * X)


def test_a_run_continued_from_its_own_weights_equals_one_longer_run():
    y1, B = _random_problem(21)
    y2, _ = _random_problem(22)
    Y = np.stack([y1, np.zeros(12), 5.0 * y2], axis=1)
    for a, b in ((1, 1), (60, 20), (7, 93)):
        warm = solve_mu(Y, B, n_iter=b, init=solve_mu(Y, B, n_iter=a))
        assert np.array_equal(warm, solve_mu(Y, B, n_iter=a + b))
    assert np.array_equal(solve_mu(y1, B, n_iter=30, init=solve_mu(y1, B, n_iter=30)),
                          solve_mu(y1, B, n_iter=60))


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-60, max_value=60),
    st.booleans(),
)
def test_warm_started_updates_are_scale_equivariant_bit_for_bit(seed, N, power, stop):
    _, B = _random_problem(seed)
    rng = np.random.default_rng(seed)
    Y = np.abs(rng.standard_normal((12, N))) * (rng.random(N) < 0.8)
    # Some start weights are zero, and so lie under the floor.
    W = rng.random((8, N)) * 10.0 ** rng.integers(-3, 4) * (rng.random((8, N)) < 0.7)
    c = 2.0**power
    kwargs = {"tol": 1e-3, "blocks": [0, 3, 5]} if stop else {}
    X = solve_mu(Y, B, n_iter=60, init=W, **kwargs)
    assert np.array_equal(solve_mu(c * Y, B, n_iter=60, init=c * W, **kwargs), c * X)


def test_init_is_floored_and_ignored_on_silent_columns():
    y, B = _random_problem(20)
    Y = np.stack([y, np.zeros(12)], axis=1)
    W = np.zeros((8, 2))
    W[2, 0] = 0.5
    W[:, 1] = 1.0
    scale = 2.0 ** np.frexp(np.mean(Y))[1]
    X = solve_mu(Y, B, n_iter=0, init=W)
    assert np.all(X[:, 1] == 0.0)
    assert np.array_equal(X[:, 0], np.maximum(W[:, 0], FLOOR * scale))


@pytest.mark.parametrize(
    "single, init",
    [
        (True, np.ones(9)),
        (True, np.ones((8, 1))),
        (False, np.ones(8)),
        (False, np.ones((8, 3))),
        (True, -np.ones(8)),
        (True, np.full(8, np.nan)),
        (False, np.full((8, 2), np.inf)),
    ],
    ids=["too_long", "column_for_vector", "vector_for_matrix", "too_wide", "negative", "nan", "inf"],
)
def test_malformed_init_is_rejected(single, init):
    y, B = _random_problem(23)
    Y = y if single else np.stack([y, y], axis=1)
    with pytest.raises(ValueError, match="init"):
        solve_mu(Y, B, n_iter=5, init=init)


def test_columns_whose_block_shares_settle_stop_at_that_check():
    # Shares lie in [0, 1], so with tol=1 every column stops at the first check
    # and the sweeps end with no column left.
    Y = np.stack([_random_problem(s)[0] for s in range(11, 16)], axis=1)
    _, B = _random_problem(11)
    assert np.array_equal(solve_mu(Y, B, n_iter=400, tol=1.0), solve_mu(Y, B, n_iter=CHECK_EVERY))


def _stop_sweep(y, B, **stop):
    """Sweeps a single column ran: its result equals a fixed-length run of that many."""
    x = solve_mu(y, B, n_iter=400, **stop)
    fixed = range(CHECK_EVERY, 401, CHECK_EVERY)
    return next(n for n in fixed if np.array_equal(x, solve_mu(y, B, n_iter=n)))


def test_columns_stop_at_their_own_check_and_keep_their_place():
    _, B = _random_problem(16)
    Y = np.stack([_random_problem(s)[0] for s in (16, 17, 18)] + [np.zeros(12)], axis=1)
    stop = {"tol": 1e-3, "blocks": [0, 4]}
    X = solve_mu(Y, B, n_iter=400, **stop)
    sweeps = [_stop_sweep(Y[:, j], B, **stop) for j in range(3)]
    assert len(set(sweeps)) > 1 and max(sweeps) < 400
    for j in range(3):
        assert np.allclose(X[:, j], solve_mu(Y[:, j], B, n_iter=400, **stop), rtol=1e-5)
    assert np.all(X[:, 3] == 0.0)


def test_a_warm_start_whose_shares_have_settled_stops_at_the_first_check():
    assert CHECK_EVERY == 5
    y, B = _random_problem(24)
    stop = {"tol": 2e-4, "blocks": [0, 3, 5]}
    # From the uniform start the shares still move at the first check.
    cold = solve_mu(y, B, n_iter=400, **stop)
    assert not np.array_equal(cold, solve_mu(y, B, n_iter=CHECK_EVERY))
    # 300 sweeps settle the shares, but the weights still move.
    settled = solve_mu(y, B, n_iter=300)
    x = solve_mu(y, B, n_iter=400, init=settled, **stop)
    assert np.array_equal(x, solve_mu(y, B, n_iter=CHECK_EVERY, init=settled))
    assert not np.array_equal(x, solve_mu(y, B, n_iter=CHECK_EVERY + 1, init=settled))


def _two_buffer_mu(Y, B, n_iter, init=None):
    """``solve_mu`` at ``tol=0`` as it was with separate model and ratio buffers, kept verbatim."""
    B = np.asarray(B, dtype=np.float64)
    M, N = B.shape[1], Y.shape[1]
    colsum = np.sum(B, axis=0)
    X = np.zeros((M, N), dtype=np.float64)
    mean = float(np.mean(Y))
    scale = float(np.ldexp(1.0, np.frexp(mean)[1]))
    live = np.flatnonzero(np.sum(Y, axis=0) > EPS * scale)
    gather = live.size < N
    Ys = np.empty((Y.shape[0], live.size), dtype=np.float32, order="F")
    np.divide(Y[:, live] if gather else Y, scale, out=Ys, casting="same_kind")
    Bs = B.astype(np.float32)
    Bt_scaled = np.ascontiguousarray((B / colsum[None, :]).T, dtype=np.float32)
    if init is None:
        Xl = np.full((M, live.size), mean / scale / M, dtype=np.float32, order="F")
    else:
        Xl = np.empty((M, live.size), dtype=np.float32, order="F")
        np.divide(init[:, live] if gather else init, scale, out=Xl, casting="same_kind")
        np.maximum(Xl, FLOOR, out=Xl)
    Yhat = np.empty_like(Ys)
    ratio = np.empty_like(Ys)
    update = np.empty_like(Xl)
    for _ in range(n_iter):
        np.matmul(Bs, Xl, out=Yhat)
        np.maximum(Yhat, EPS, out=Yhat)
        np.divide(Ys, Yhat, out=ratio)
        np.matmul(Bt_scaled, ratio, out=update)
        Xl *= update
        np.maximum(Xl, FLOOR, out=Xl)
    X[:, live] = Xl.astype(np.float64) * scale
    return X


@pytest.mark.parametrize("P, M", [(12, 40), (30, 8)], ids=["screen_like", "ksvd_like"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("silent", [False, True], ids=["all_live", "silent_column"])
def test_one_buffer_sweeps_equal_the_two_buffer_sweeps_bit_for_bit(P, M, warm, silent):
    rng = np.random.default_rng(P * M)
    B = np.abs(rng.standard_normal((P, M))) + 0.05
    B /= np.linalg.norm(B, axis=0)
    Y = np.abs(rng.standard_normal((P, 9))) * 37.0
    if silent:
        Y[:, 4] = 0.0
    init = rng.random((M, 9)) * (rng.random((M, 9)) < 0.7) if warm else None
    X = solve_mu(Y, B, n_iter=120, init=init)
    assert np.array_equal(X, _two_buffer_mu(Y, B, 120, init))


def _one_relaxed_sweep(Y, B, init=None):
    """One over-relaxed sweep written out: the floor of ``X * u * sqrt(u)``, for update ``u``."""
    B = np.asarray(B, dtype=np.float64)
    M = B.shape[1]
    mean = float(np.mean(Y))
    scale = float(np.ldexp(1.0, np.frexp(mean)[1]))
    Ys = np.asfortranarray(Y / scale, dtype=np.float32)
    if init is None:
        Xl = np.full((M, Y.shape[1]), mean / scale / M, dtype=np.float32, order="F")
    else:
        Xl = np.maximum(np.asfortranarray(init / scale, dtype=np.float32), np.float32(FLOOR))
    Bt_scaled = np.ascontiguousarray((B / np.sum(B, axis=0)).T, dtype=np.float32)
    model = np.empty_like(Ys)
    np.matmul(B.astype(np.float32), Xl, out=model)
    u = np.empty_like(Xl)
    np.matmul(Bt_scaled, Ys / np.maximum(model, EPS), out=u)
    Xl = np.maximum(Xl * (u * np.sqrt(u)), np.float32(FLOOR))
    return Xl.astype(np.float64) * scale


@pytest.mark.parametrize("P, M", [(12, 40), (30, 8)], ids=["screen_like", "ksvd_like"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_one_relaxed_sweep_raises_the_update_to_the_power_1_5(P, M, warm):
    assert RELAX_EXPONENT == 1.5
    rng = np.random.default_rng(P + M)
    B = np.abs(rng.standard_normal((P, M))) + 0.05
    B /= np.linalg.norm(B, axis=0)
    Y = np.abs(rng.standard_normal((P, 9))) * 37.0
    init = rng.random((M, 9)) * (rng.random((M, 9)) < 0.7) if warm else None
    X = solve_mu(Y, B, n_iter=1, init=init, relaxed=True)
    assert np.array_equal(X, _one_relaxed_sweep(Y, B, init))
    assert not np.array_equal(X, solve_mu(Y, B, n_iter=1, init=init))
    # the plain update is the default
    assert np.array_equal(solve_mu(Y, B, n_iter=7, init=init, relaxed=False),
                          solve_mu(Y, B, n_iter=7, init=init))


@pytest.mark.parametrize("c", [2.0**-100, 2.0**7, 2.0**100], ids=["2**-100", "2**7", "2**100"])
def test_relaxed_updates_are_scale_equivariant_bit_for_bit(c):
    y1, B = _random_problem(31)
    y2, _ = _random_problem(32)
    Y = np.stack([y1, np.zeros(12), 3.0 * y2], axis=1)
    W = np.random.default_rng(33).random((8, 3))
    for stop in ({}, {"tol": 1e-3, "blocks": [0, 3, 5]}):
        for init in (None, W):
            X = solve_mu(Y, B, n_iter=70, init=init, relaxed=True, **stop)
            scaled = None if init is None else c * init
            X_c = solve_mu(c * Y, B, n_iter=70, init=scaled, relaxed=True, **stop)
            assert np.array_equal(X_c, c * X)


def test_a_relaxed_run_continued_from_its_own_weights_equals_one_longer_run():
    y1, B = _random_problem(34)
    y2, _ = _random_problem(35)
    Y = np.stack([y1, np.zeros(12), 5.0 * y2], axis=1)
    for a, b in ((1, 1), (20, 15), (7, 93)):
        warm = solve_mu(Y, B, n_iter=b, init=solve_mu(Y, B, n_iter=a, relaxed=True), relaxed=True)
        assert np.array_equal(warm, solve_mu(Y, B, n_iter=a + b, relaxed=True))


@pytest.mark.parametrize(
    "blocks",
    [[1, 4], [0, 4, 4], [0, 5, 3], [0, 8], [0, -1], [], [0.0, 4.0], [[0, 4]]],
    ids=["not_at_0", "repeated", "decreasing", "past_end", "negative", "empty", "float", "2d"],
)
def test_malformed_blocks_are_rejected(blocks):
    y, B = _random_problem(17)
    with pytest.raises(ValueError, match="blocks"):
        solve_mu(y, B, n_iter=5, blocks=blocks)


def test_multiplicative_update_weights_stay_at_or_above_the_floor():
    # Rows 0-3 are silent in y and carry 6-13 % of every unused atom's mass, so
    # those atoms shrink geometrically; without the floor they would pass
    # float32's subnormal range within a few hundred sweeps.
    rng = np.random.default_rng(3)
    B = rng.uniform(0.2, 1.0, (12, 8))
    used = [0, 2, 5]
    unused = [1, 3, 4, 6, 7]
    B[:4, used] = 0.0
    B[:4, unused] *= 0.25
    B /= np.linalg.norm(B, axis=0)
    x0 = np.zeros(8)
    x0[used] = [0.5, 1.2, 0.3]
    Y = np.stack([B @ x0, np.zeros(12)], axis=1)
    X = solve_mu(Y, B, n_iter=3000)
    scale = 2.0 ** np.frexp(np.mean(Y))[1]
    assert np.all(X[:, 1] == 0.0)
    assert np.all(X[:, 0] >= FLOOR * scale)
    assert np.all(X[unused, 0] == FLOOR * scale)
    assert not np.any((X != 0.0) & (X < np.finfo(np.float64).tiny))
    assert generalized_kl(Y[:, 0], B @ X[:, 0]) <= 1e-7


def _reference_mu(Y, B, n_iter):
    """Float64 multiplicative updates with neither scaling nor floor."""
    M = B.shape[1]
    colsum = np.sum(B, axis=0)
    X = np.full((M, Y.shape[1]), np.maximum(np.mean(Y), EPS) / M)
    Bt_scaled = (B / colsum[None, :]).T
    for _ in range(n_iter):
        X *= Bt_scaled @ (Y / np.maximum(B @ X, EPS))
    return X


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=4, max_value=24),
    st.floats(min_value=0.05, max_value=2.0),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-8, max_value=8),
)
def test_float32_sweeps_reach_the_float64_objective(seed, P, atoms_per_bin, N, decade):
    # Up to twice as many atoms as bins; the pipeline codes 129 bins against
    # 160 atoms.
    M = max(1, round(atoms_per_bin * P))
    rng = np.random.default_rng(seed)
    B = np.abs(rng.standard_normal((P, M))) + 0.05
    B /= np.linalg.norm(B, axis=0)
    Y = (np.abs(rng.standard_normal((P, N))) + 0.01) * 10.0**decade
    f = generalized_kl(Y, B @ solve_mu(Y, B, n_iter=400))
    f_ref = generalized_kl(Y, B @ _reference_mu(Y, B, 400))
    # Each sweep rounds the weights to float32, so after n sweeps they may sit
    # n * eps apart (relative) from the float64 ones; near an exact fit, where
    # the objective is about zero, that moves it by up to (n * eps)**2 * sum(Y).
    drift = (400 * np.finfo(np.float32).eps) ** 2 * np.sum(Y)
    assert abs(f - f_ref) <= 1e-5 * f_ref + drift


def test_zero_observation_gets_zero_weights():
    _, B = _random_problem(4)
    assert np.all(solve_mu(np.zeros(12), B) == 0.0)
    assert np.all(solve_asna(np.zeros(12), B) == 0.0)


def test_zero_atom_is_rejected():
    y, B = _random_problem(5)
    B = B.copy()
    B[:, 2] = 0.0
    with pytest.raises(ValueError):
        solve_mu(y, B)


def test_newton_solver_weights_are_exactly_non_negative():
    for seed in range(20):
        y, B = _random_problem(seed)
        x = solve_asna(y, B)
        assert np.all(x >= 0.0)


def test_newton_solver_matches_long_multiplicative_run():
    for seed in range(10):
        y, B = _random_problem(seed, P=10, M=14)
        fa = generalized_kl(y, B @ solve_asna(y, B))
        fm = generalized_kl(y, B @ solve_mu(y, B, n_iter=50000))
        assert fa <= fm + 1e-6 + 1e-4 * abs(fm)


def test_single_atom_observation_recovers_that_atom():
    _, B = _random_problem(6)
    x = solve_asna(B[:, 3] * 2.5, B)
    assert x[3] == pytest.approx(2.5, rel=1e-8)
    others = np.delete(x, 3)
    assert np.all(others < 1e-8)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_newton_solver_never_worse_than_best_single_atom(seed):
    y, B = _random_problem(seed)
    x = solve_asna(y, B)
    # The solver starts from the best single-atom fit and must not regress.
    singles = []
    for m in range(B.shape[1]):
        s = np.sum(y) / np.sum(B[:, m])
        singles.append(generalized_kl(y, B[:, m] * s))
    assert generalized_kl(y, B @ x) <= min(singles) + 1e-9


def test_frame_coder_dispatches_and_validates():
    y, B = _random_problem(7)
    Y = np.stack([y, y], axis=1)
    assert code_frames(Y, B, solver="asna").shape == (8, 2)
    assert code_frames(Y, B, solver="mu").shape == (8, 2)
    with pytest.raises(ValueError):
        code_frames(Y, B, solver="nope")


def test_negative_inputs_are_rejected():
    y, B = _random_problem(8)
    with pytest.raises(ValueError):
        solve_asna(-y, B)


def _spoilt(seed, what):
    """A two-column problem with one NaN or +Inf observation or atom, or with no column."""
    y, B = _random_problem(seed)
    Y, B = np.stack([y, y], axis=1), B.copy()
    if what == "no_frames":
        return Y[:, :0], B
    bad = np.nan if what.endswith("nan") else np.inf
    (Y if what.startswith("observation") else B)[3, 1] = bad
    return Y, B


@pytest.mark.parametrize("solver", [solve_mu, solve_asna], ids=["mu", "asna"])
@pytest.mark.parametrize(
    "what", ["observation_nan", "observation_inf", "atom_nan", "atom_inf", "no_frames"]
)
def test_non_finite_or_frameless_inputs_are_rejected(solver, what):
    # The check comes before any arithmetic: a ValueError, and no RuntimeWarning
    # (the suite turns one into an error).
    Y, B = _spoilt(9, what)
    with pytest.raises(ValueError):
        solver(Y, B)
    if what.startswith("observation"):
        with pytest.raises(ValueError):
            solver(np.full(12, np.nan if what.endswith("nan") else np.inf), B)
