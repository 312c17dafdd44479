"""Non-negative sparse coding of spectra against a dictionary.

Both solvers minimise the generalized Kullback-Leibler divergence

    D(y, By x) = sum_p [ y_p * log(y_p / (Bx)_p) - y_p + (Bx)_p ]

over weight vectors ``x >= 0``.  The problem is convex in ``x``, so the two
solvers approach the same optimum and can be used to cross-check each other:

``solve_mu``
    classic multiplicative updates; robust, supports many observation columns
    at once, converges slowly near the optimum.  The sweeps run in float32 on
    data scaled by a power of two, with a floor that keeps the weights out of
    the subnormal range; the result is float64.  With ``tol > 0`` each column
    stops once its share of weight per atom block settles, since the block
    sums are what the classification stages read.  With ``relaxed=True``
    each sweep raises its multiplicative update to the power
    :data:`RELAX_EXPONENT` (1.5), an over-relaxed step that gets further per
    sweep; exponents in (0, 2) keep the KL updates stable (Badeau, Bertin &
    Vincent, IEEE TNN 2010), and an exponent of 2 diverges on the pipeline's
    screen.  The screen, the shortlist's coding and K-SVD's coding rounds
    run relaxed; every other caller runs the plain update.
``solve_asna``
    an active-set Newton method; maintains a small set of non-zero weights,
    takes damped Newton steps on that set, and adds/removes atoms based on the
    gradient sign.  Weights outside the active set are exactly zero, which the
    classification stages exploit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = ["generalized_kl", "solve_mu", "solve_asna", "code_frames"]

#: floor applied to model spectra before divisions and logarithms
EPS = 1e-12

#: floor on :func:`solve_mu` weights in units of the scaled observations: 1e-20
#: rounded to float32, so it is the same number in both precisions, and far
#: above float32's smallest normal number (1.2e-38)
FLOOR = float(np.float32(1e-20))

#: sweeps between :func:`solve_mu`'s per-column stopping checks when ``tol > 0``
CHECK_EVERY = 5

#: power to which a ``relaxed`` :func:`solve_mu` sweep raises its update,
#: computed as ``update * sqrt(update)``
RELAX_EXPONENT = 1.5


def generalized_kl(y: np.ndarray, yhat: np.ndarray) -> float:
    """Generalized KL divergence ``sum(y*log(y/yhat) - y + yhat)`` with ``0*log(0) = 0``."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.maximum(np.asarray(yhat, dtype=np.float64), EPS)
    pos = y > 0
    acc = float(np.sum(yhat) - np.sum(y))
    if np.any(pos):
        yp = y[pos]
        acc += float(np.sum(yp * np.log(yp / yhat[pos])))
    return acc


def _check_inputs(
    y: np.ndarray, dictionary: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, np.ndarray]:
    """Validated ``(Y, B, single, colsum)``; ``colsum`` holds each atom's sum."""
    B = np.asarray(dictionary, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError("dictionary must be a 2-D array of atom columns")
    single = Y.ndim == 1
    if single:
        Y = Y[:, None]
    if Y.ndim != 2 or Y.shape[0] != B.shape[0]:
        raise ValueError("observations and dictionary have mismatched feature dimensions")
    if Y.shape[1] == 0:
        raise ValueError("no observations to code")
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(Y))):
        raise ValueError("observations and dictionary must be finite (no NaN or Inf)")
    if np.any(B < 0) or np.any(Y < 0):
        raise ValueError("observations and dictionary must be non-negative")
    colsum = np.sum(B, axis=0)
    if np.any(colsum <= 0):
        raise ValueError("dictionary contains an all-zero atom")
    return Y, B, single, colsum


def _block_starts(blocks: Sequence[int] | None, n_atoms: int) -> np.ndarray:
    """Validated start index of each contiguous atom block; one block per atom by default."""
    if blocks is None:
        return np.arange(n_atoms)
    starts = np.asarray(blocks)
    if (
        starts.ndim != 1
        or starts.size == 0
        or not np.issubdtype(starts.dtype, np.integer)
        or starts[0] != 0
        or np.any(np.diff(starts) <= 0)
        or starts[-1] >= n_atoms
    ):
        raise ValueError(
            f"blocks must be increasing integer atom indices starting at 0 and "
            f"below {n_atoms}, not {blocks!r}"
        )
    return starts


def _block_shares(X: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each column's share of its total weight per atom block, in float64."""
    sums = np.add.reduceat(X.astype(np.float64), starts, axis=0)
    return sums / np.sum(sums, axis=0)


@dataclass(frozen=True)
class _Scaled:
    """Observations ready for :func:`_sweeps`.

    ``Ys`` holds the live columns ``live`` of the observations divided by
    ``scale``, the smallest power of two above their mean, as
    Fortran-ordered float32.
    """

    Ys: np.ndarray
    live: np.ndarray
    scale: float


def _prepare(
    Y: np.ndarray, n_atoms: int, init: np.ndarray | None = None
) -> tuple[_Scaled, np.ndarray]:
    """Scale the checked float64 observations ``(P, N)`` for the sweeps.

    A column is live when it sums to more than ``EPS * scale``; observations
    whose mean is 0 have no live column.  Also returns the float32 start
    weights ``(n_atoms, live)`` in scaled units: ``mean / n_atoms``, or
    ``init`` floored at :data:`FLOOR`.
    """
    N = Y.shape[1]
    mean = float(np.mean(Y)) if Y.size else 0.0
    scale = float(np.ldexp(1.0, np.frexp(mean)[1])) if mean > 0.0 else 1.0
    live = np.flatnonzero(np.sum(Y, axis=0) > EPS * scale) if mean > 0.0 else np.arange(0)
    gather = live.size < N
    # Scale straight into Fortran-ordered float32: one pass, no temporaries.
    Ys = np.empty((Y.shape[0], live.size), dtype=np.float32, order="F")
    np.divide(Y[:, live] if gather else Y, scale, out=Ys, casting="same_kind")
    if init is None:
        Xl = np.full((n_atoms, live.size), mean / scale / n_atoms, dtype=np.float32, order="F")
    else:
        # FLOOR is exact in float32, so flooring after the cast gives the same bits
        Xl = np.empty((n_atoms, live.size), dtype=np.float32, order="F")
        np.divide(init[:, live] if gather else init, scale, out=Xl, casting="same_kind")
        np.maximum(Xl, FLOOR, out=Xl)
    return _Scaled(Ys, live, scale), Xl


def _unscale(X: np.ndarray, cols: np.ndarray, Xl: np.ndarray, scale: float) -> None:
    """Write the float32 weights ``Xl`` times ``scale`` into columns ``cols`` of float64 ``X``.

    The product is taken in float64, where a power of two scales exactly.
    """
    if cols.size == X.shape[1]:
        np.multiply(Xl, scale, out=X, dtype=np.float64)
    else:
        X[:, cols] = np.multiply(Xl, scale, dtype=np.float64)


def _sweeps(
    obs: _Scaled,
    B: np.ndarray,
    colsum: np.ndarray,
    Xl: np.ndarray,
    n_iter: int,
    X: np.ndarray,
    tol: float = 0.0,
    starts: np.ndarray | None = None,
    relaxed: bool = False,
) -> None:
    """Run up to ``n_iter`` multiplicative-update sweeps from the float32 weights ``Xl``.

    ``Xl`` holds one column per live column of ``obs`` and is updated in
    place.  Each sweep forms the model ``B @ Xl``, its :data:`EPS` floor and
    the ratio ``Ys / (B @ Xl)`` in one float32 buffer, then multiplies the
    weights by the update ``(B / colsum).T`` times that ratio and floors them
    at :data:`FLOOR`.  With ``relaxed`` the weights are multiplied by
    ``update * sqrt(update)`` instead, formed in place with one more buffer.
    With ``tol > 0`` a column stops at the first check, every
    :data:`CHECK_EVERY` sweeps, where its share of weight per block (starting
    at ``starts``) has moved by at most ``tol`` since the previous check.
    Each column's final weights, times ``obs.scale``, go into its column of
    the float64 result ``X``; with ``tol=0`` they also stay in ``Xl``.
    """
    Bs = B.astype(np.float32)
    Bt_scaled = np.ascontiguousarray((B / colsum[None, :]).T, dtype=np.float32)
    live, Ys = obs.live, obs.Ys
    buf = np.empty_like(Ys)
    update = np.empty_like(Xl)
    root = np.empty_like(Xl) if relaxed else None
    shares = _block_shares(Xl, starts) if tol > 0.0 else None
    for it in range(n_iter):
        np.matmul(Bs, Xl, out=buf)
        np.maximum(buf, EPS, out=buf)
        np.divide(Ys, buf, out=buf)
        np.matmul(Bt_scaled, buf, out=update)
        if relaxed:
            # update ** 1.5; np.power costs about three times as much
            np.sqrt(update, out=root)
            update *= root
        Xl *= update
        np.maximum(Xl, FLOOR, out=Xl)
        if tol > 0.0 and (it + 1) % CHECK_EVERY == 0:
            now = _block_shares(Xl, starts)
            done = np.max(np.abs(now - shares), axis=0) <= tol
            if np.any(done):
                _unscale(X, live[done], Xl[:, done], obs.scale)
                keep = ~done
                live, Ys, Xl, now = live[keep], Ys[:, keep], Xl[:, keep], now[:, keep]
                if live.size == 0:
                    return
                buf = np.empty_like(Ys)
                update = np.empty_like(Xl)
                root = np.empty_like(Xl) if relaxed else None
            shares = now
    _unscale(X, live, Xl, obs.scale)


def solve_mu(
    y: np.ndarray,
    dictionary: np.ndarray,
    n_iter: int = 2000,
    tol: float = 0.0,
    blocks: Sequence[int] | None = None,
    init: np.ndarray | None = None,
    relaxed: bool = False,
) -> np.ndarray:
    """Multiplicative-update minimisation of the generalized KL divergence.

    The sweeps run in float32 on the observations divided by ``scale``, the
    smallest power of two above their mean.  Dividing by a power of two is
    exact and the updates are scale-equivariant: ``solve_mu(c * y, B)`` is
    ``c * solve_mu(y, B)`` bit for bit for any power of two ``c`` that keeps
    ``c * y`` in range, whatever ``tol``, because the stopping test reads only
    ratios of the scaled weights.  The model floor :data:`EPS` and the weight
    floor :data:`FLOOR` apply in scaled units.  Flooring the weights after each
    sweep keeps them far from float32's subnormal range, where arithmetic is
    many times slower; Févotte & Idier (Neural Computation 2011) show that
    such a floor keeps the monotone descent of the plain updates.  The
    returned weights are float64 and in the units of ``y``, so they can be
    passed back as ``init``: ``solve_mu(y, B, n_iter=a + b)`` equals
    ``solve_mu(y, B, n_iter=b, init=solve_mu(y, B, n_iter=a))`` bit for bit
    at ``tol=0``, relaxed or not.

    Parameters
    ----------
    y : np.ndarray
        Observation vector ``(P,)`` or matrix of column observations ``(P, N)``
        with ``N >= 1``.
    dictionary : np.ndarray
        Non-negative atoms as columns, ``(P, M)``.  Observations or atoms that
        are negative, NaN or infinite are a ``ValueError``.
    n_iter : int
        Maximum number of update sweeps.
    tol : float
        If positive, every :data:`CHECK_EVERY` (5) sweeps each column's share
        of its total weight per atom block is compared with the previous check
        (the first check compares with the start's shares: uniform, or those
        of ``init``).  A column whose largest share change is at most ``tol``
        stops there and leaves the sweeps, which go on over the other columns.
        The pipeline's shortlist coding uses ``tol=3e-4`` with relaxed
        sweeps, a change of at most 6e-5 per sweep.  ``tol=0`` runs every
        column for the full ``n_iter`` sweeps.
    blocks : sequence of int, optional
        Start index of each contiguous block of atoms, beginning at 0 and
        increasing; only the stopping test reads it.  The default puts each
        atom in a block of its own.
    init : np.ndarray, optional
        Finite non-negative weights to start from, in the units of ``y`` and
        of the shape the result has.  They are floored at ``FLOOR * scale``
        and ignored on columns that get all-zero weights.  The default starts
        every weight at ``mean(y) / M``.
    relaxed : bool
        If true, each sweep multiplies the weights by its update raised to
        :data:`RELAX_EXPONENT` (1.5) rather than by the update itself.  This
        over-relaxed update stays stable for exponents in (0, 2) (Badeau,
        Bertin & Vincent, IEEE TNN 2010).  In the pipeline's screen it
        reaches a lower divergence in 35 sweeps than the plain update in 50,
        in K-SVD's rounds in 42 and 14 sweeps than the plain update in 60
        and 20, and in the shortlist's coding at ``tol=3e-4`` than the plain
        update at ``tol=2e-4``: a relaxed sweep moves the block shares about
        1.5 times as far, so the tolerance is 1.5 times larger.  Above
        an exponent of 1 the divergence is not guaranteed to fall at every
        sweep: Févotte & Idier's floor argument covers the plain update only.
        The default runs the plain update.

    Returns
    -------
    np.ndarray
        Non-negative float64 weights, ``(M,)`` or ``(M, N)`` matching the
        input shape.  Columns of ``y`` that sum to no more than ``EPS * scale``
        get all-zero weights; every other weight is at least ``FLOOR * scale``.
    """
    Y, B, single, colsum = _check_inputs(y, dictionary)
    M = B.shape[1]
    N = Y.shape[1]
    starts = _block_starts(blocks, M)
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != ((M,) if single else (M, N)):
            raise ValueError(f"init has shape {init.shape}, not that of the weights")
        if not np.all(np.isfinite(init)) or np.any(init < 0):
            raise ValueError("init must be finite and non-negative")
        init = init.reshape(M, -1)

    X = np.zeros((M, N), dtype=np.float64)
    obs, Xl = _prepare(Y, M, init)
    if obs.live.size:
        _sweeps(obs, B, colsum, Xl, n_iter, X, tol, starts, relaxed)
    if not np.all(np.isfinite(X)):
        raise NumericalError("multiplicative updates diverged")
    return X[:, 0] if single else X


def _asna_single(
    y: np.ndarray,
    B: np.ndarray,
    colsum: np.ndarray,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    P, M = B.shape
    x_full = np.zeros(M, dtype=np.float64)
    ysum = float(np.sum(y))
    if ysum <= EPS:
        return x_full

    # Start from the best single-atom approximation: for one atom b at scale s
    # the divergence is minimised at s = sum(y) / sum(b).
    scales = ysum / colsum
    logyhat = np.log(np.maximum(B, EPS)) + np.log(scales)[None, :]
    pos = y > 0
    fit = scales * colsum - ysum + (y[pos] @ (np.log(y[pos])[:, None] - logyhat[pos, :]))
    first = int(np.argmin(fit))
    active = [first]
    x = np.array([scales[first]], dtype=np.float64)

    for _ in range(max_iter):
        # Weights driven to the boundary land within rounding error of zero;
        # snap them out so they do not pin the next feasible step at length 0.
        dead = x <= 1e-13 * (1.0 + (x.max() if x.size else 0.0))
        if np.any(dead):
            if np.all(dead):
                dead[int(np.argmax(x))] = False
            active = [a for a, d in zip(active, dead) if not d]
            x = x[~dead]

        Ba = B[:, active]
        yhat = np.maximum(Ba @ x, EPS)
        r = y / yhat
        grad_all = colsum - B.T @ r
        g = grad_all[active]

        mask = np.ones(M, dtype=bool)
        mask[active] = False
        worst_inactive = float(np.min(grad_all[mask])) if mask.any() else np.inf
        if np.max(np.abs(g)) <= tol and worst_inactive >= -tol:
            break

        if worst_inactive < -tol:
            j = int(np.flatnonzero(mask)[np.argmin(grad_all[mask])])
            active.append(j)
            x = np.append(x, 0.0)
            Ba = B[:, active]
            g = grad_all[active]

        w = y / (yhat * yhat)
        H = Ba.T @ (Ba * w[:, None])
        ridge = 1e-10 * (np.trace(H) / max(len(active), 1) + 1.0)
        H[np.diag_indices_from(H)] += ridge
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g
        if float(step @ g) >= 0.0:
            step = -g

        # largest feasible step before a weight would cross zero
        def max_feasible(s: np.ndarray) -> float:
            neg = s < 0
            if not np.any(neg):
                return np.inf
            return float(np.min(-x[neg] / s[neg]))

        alpha_max = max_feasible(step)
        if alpha_max == 0.0:
            # a zero weight would be pushed negative; retreat to steepest descent
            step = -g
            alpha_max = max_feasible(step)
            if alpha_max == 0.0:
                break
        alpha = min(1.0, alpha_max)

        f0 = generalized_kl(y, yhat)
        slope = float(g @ step)
        accepted = False
        while alpha > 1e-14:
            x_try = x + alpha * step
            x_try[x_try < 0] = 0.0
            f1 = generalized_kl(y, Ba @ x_try)
            if f1 <= f0 + 1e-4 * alpha * slope or f1 < f0:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        x = x_try

        keep = x > 0.0
        if not np.all(keep):
            if not np.any(keep):
                keep[int(np.argmax(x))] = True
            active = [a for a, k in zip(active, keep) if k]
            x = x[keep]

    if not np.all(np.isfinite(x)):
        raise NumericalError("active-set Newton iteration diverged")
    x_full[active] = x
    return x_full


def solve_asna(
    y: np.ndarray,
    dictionary: np.ndarray,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> np.ndarray:
    """Active-set Newton minimisation of the generalized KL divergence.

    Parameters match :func:`solve_mu`; for matrix input each column is solved
    independently.  Weights of atoms never entering the active set are exactly
    ``0.0``.
    """
    Y, B, single, colsum = _check_inputs(y, dictionary)
    out = np.empty((B.shape[1], Y.shape[1]), dtype=np.float64)
    for n in range(Y.shape[1]):
        out[:, n] = _asna_single(Y[:, n], B, colsum, max_iter, tol)
    return out[:, 0] if single else out


def code_frames(
    features: np.ndarray,
    dictionary: np.ndarray,
    solver: str,
    blocks: Sequence[int] | None = None,
    **kwargs,
) -> np.ndarray:
    """Code feature columns against a dictionary with the chosen solver.

    ``blocks`` gives the start of each source's block of atoms; it feeds
    :func:`solve_mu`'s stopping test and :func:`solve_asna` does not need it.
    Other keywords, such as ``solve_mu``'s ``relaxed``, go to the solver.
    """
    if solver == "asna":
        return solve_asna(features, dictionary, **kwargs)
    if solver == "mu":
        return solve_mu(features, dictionary, blocks=blocks, **kwargs)
    raise ValueError(f"unknown solver {solver!r}")
