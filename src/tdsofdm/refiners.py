"""Noise suppression on instantaneous CFR estimates, taking every cell as a
pilot: the designs of moving averages and of Wiener smoothing, and the one
pass that applies either."""

from __future__ import annotations

import numpy as np

from .channel import PowerDelayProfile, r_t


class ConstraintError(ValueError):
    """A sampling-rate constraint of the channel cannot be met."""


def ma_1d(n: int, m: int, *, input_err_var: float, profile: PowerDelayProfile) -> tuple[np.ndarray, float]:
    """Design the moving average of m subcarriers on rows of n, each
    observed with white error: (gains, residual_mse).

    Every subcarrier is active, so a row's CFR is periodic in k, and a
    centered window of m bins taken circularly (an even m rounds up to the
    next odd) is a per-tap gain on the row's IDFT:

        g_d = (1/m) sum_{|q| <= m//2} cos(2 pi q d / n),   d = 0 .. n-1.

    residual_mse is the MSE per subcarrier: the input error the window
    passes, s sum_d g_d^2 / n with s = input_err_var, plus the bias on the
    prior, sum_d P_d (1 - g_d)^2, with P_d the prior power at delay d.
    """
    _check_design(n, input_err_var)
    if m < 1:
        raise ValueError("window lengths must be positive")
    p = _prior_powers(n, profile)
    half = m // 2
    q = np.arange(1, half + 1)
    gains = (1.0 + 2.0 * np.cos(2.0 * np.pi * np.outer(q, np.arange(n)) / n).sum(axis=0)) / (2 * half + 1)
    noise = input_err_var * float(np.sum(gains**2)) / n
    return gains, noise + float(np.sum(p * (1.0 - gains[: p.size]) ** 2))


def ma_2d(
    n_blocks: int,
    m_t: int,
    gains: np.ndarray,
    *,
    input_err_var: float,
    profile: PowerDelayProfile,
    fd_hz: float,
    tb_s: float,
) -> tuple[np.ndarray, float]:
    """Design the moving average of m_t blocks that follows the frequency
    gains of ma_1d: (smoother, residual_mse).

    The smoother is the banded, row-stochastic (n_blocks, n_blocks) matrix T
    whose row i averages blocks i - m_t//2 .. i + (m_t-1)//2, truncated at
    the edges: an even m_t reaches one block further into the past, so
    m_t = 2 averages blocks {i-1, i}.  residual_mse is the MSE per
    subcarrier averaged over the blocks.  Block i passes the input error
    s sum_p T_ip^2 sum_d g_d^2 / n, with s = input_err_var and n =
    gains.size, and adds the bias sum_d P_d (1 - 2 g_d c_i + g_d^2 q_i),
    with c = (T o R) 1 and q_i = T_i R T_i^T for R the Jakes correlation
    of the blocks and P_d the prior power at delay d.  With T = I this is
    ma_1d's residual.
    """
    _check_design(n_blocks, input_err_var)
    if m_t < 1:
        raise ValueError("window lengths must be positive")
    if fd_hz < 0 or tb_s < 0:
        raise ValueError("fd_hz and tb_s must be nonnegative")
    n = gains.size
    p = _prior_powers(n, profile)
    g = gains[: p.size]
    lag = np.subtract.outer(np.arange(n_blocks), np.arange(n_blocks))
    band = (lag <= m_t // 2) & (lag >= -((m_t - 1) // 2))
    smoother = band / band.sum(axis=1, keepdims=True)
    big_r = r_t(np.arange(n_blocks), fd_hz, tb_s)[np.abs(lag)]
    c = np.sum(smoother * big_r, axis=1)
    q = np.einsum("ip,pq,iq->i", smoother, big_r, smoother)
    noise = input_err_var * np.sum(smoother**2, axis=1) * np.sum(gains**2) / n
    bias = np.sum(p) - 2.0 * c * np.sum(p * g) + q * np.sum(p * g**2)
    return smoother, float(np.mean(noise + bias))


def build_wiener(n: int, *, input_err_var: float, profile: PowerDelayProfile) -> tuple[np.ndarray, float]:
    """Design the MMSE frequency smoother of n subcarriers, each observed
    with white error: (gains, residual_mse).

    The prior is the delay profile.  With every subcarrier observed, the
    n-point IDFT of a row holds tap d plus error of variance s/n,
    independent across taps, so the MMSE estimate is a per-tap shrinkage of
    the IDFT by the gains

        g_d = n P_d / (n P_d + s),   residual_mse = s sum_d P_d / (n P_d + s),

    for delays 0 .. L-1, with s = input_err_var and P_d the prior power at
    delay d; the residual is the MSE per subcarrier.  This is the DFT-based
    LMMSE of Edfors et al., IEEE Trans. Commun. 46(7), 1998.  A prior delay
    at or beyond n raises ValueError.

    An input_err_var under 1e-12 times the prior power, zero included, is
    raised to it.  A prior that is not a correlation raises
    numpy.linalg.LinAlgError.
    """
    _check_design(n, input_err_var)
    p = _prior_powers(n, profile)
    ridge = max(input_err_var, 1e-12 * p.sum())
    den = n * p + ridge
    return n * p / den, float(ridge * np.sum(p / den))


def time_wiener(n: int, *, input_err_var: float, fd_hz: float, tb_s: float) -> tuple[np.ndarray, float]:
    """Design the MMSE smoother of n blocks, each observed with white error:
    (smoother, residual_mse).

    The smoother is the (n, n) map W = R (R + s I)^-1 from the observed
    blocks to the smoothed ones, with R the Jakes correlation of the blocks
    and s = input_err_var.  Its error covariance is s W, so residual_mse is
    s tr(W) / n.  A Cholesky factorization checks that R + s I is positive
    definite.  Slow fading at a small s makes it near singular, so one
    refinement step, with its residual formed in extended precision,
    recovers the digits the solve loses.

    An input_err_var under 1e-12 r(0), zero included, is raised to it: slow
    fading rounds the smallest eigenvalue of R to about -2e-16 r(0).
    """
    _check_design(n, input_err_var)
    if fd_hz < 0 or tb_s < 0:
        raise ValueError("fd_hz and tb_s must be nonnegative")
    r = r_t(np.arange(1 - n, n), fd_hz, tb_s)
    # r[q + n - 1] is the correlation at lag q
    big_r = r[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]
    ridge = max(input_err_var, 1e-12 * r[n - 1])
    phi = big_r + ridge * np.eye(n)
    np.linalg.cholesky(phi)  # raises LinAlgError unless positive definite
    x = np.linalg.solve(phi, big_r)
    wide = np.longdouble
    x += np.linalg.solve(phi, (big_r.astype(wide) - phi.astype(wide) @ x).astype(np.float64))
    return x.T, float(ridge * np.trace(x) / n)


def _check_design(n: int, input_err_var: float) -> None:
    if input_err_var < 0:
        raise ValueError("input_err_var must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")


def _prior_powers(n: int, profile: PowerDelayProfile) -> np.ndarray:
    """The prior power at each delay 0 .. L-1 of a frequency design of n
    subcarriers; duplicate delays merge into one tap."""
    if np.any(profile.powers < 0):
        raise np.linalg.LinAlgError("a delay profile with a negative power is not a correlation")
    if profile.delays.max() >= n:
        raise ValueError(f"a prior delay of {profile.delays.max()} lies at or beyond n = {n}")
    return np.bincount(profile.delays, weights=profile.powers)


def _impute_invalid(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace invalid cells by linear interpolation from valid neighbors.

    Each invalid cell takes the line through the nearest valid cells of its
    row on either side, or the nearest valid cell where one side has none,
    bit for bit as np.interp forms them; a row with no valid cell becomes
    zeros.
    """
    v = np.array(values, dtype=np.complex128, ndmin=2)
    n = v.shape[-1]
    flat = np.broadcast_to(mask, v.shape).ravel()
    # the valid cells, between sentinels that lie in no row
    good = np.concatenate(([-1], np.flatnonzero(flat), [flat.size]))
    bad = np.flatnonzero(~flat)
    j = np.searchsorted(good, bad)
    lo, hi = good[j - 1], good[j]
    has_lo, has_hi = lo // n == bad // n, hi // n == bad // n
    lo, hi = np.where(has_lo, lo, hi), np.where(has_hi, hi, lo)
    empty = ~(has_lo | has_hi)
    lo[empty] = hi[empty] = bad[empty]
    # an edge cell has lo == hi: its slope is 0 and it takes yl exactly
    span = np.where(hi > lo, hi - lo, 1)
    vf = v.reshape(-1)
    for part in (vf.real, vf.imag):
        yl = part[lo]
        part[bad] = np.where(empty, 0.0, (part[hi] - yl) / span * (bad - lo) + yl)
    return v.reshape(np.shape(values))


def wiener_1d(values: np.ndarray, gains: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Smooth each row of subcarriers with per-tap gains: those of
    build_wiener, of ma_1d or any other.

    Returns the smoothed taps, gains.size per row: the gains times the
    row's taps, whose DFT on the row's subcarriers is the smoothed row.
    Invalid cells (mask False) are imputed from their valid neighbors
    first; a row with no valid cell at all comes back as zeros.  The output
    MSE per subcarrier is the design's residual_mse.
    """
    v = np.asarray(values, dtype=np.complex128)
    if gains.size > v.shape[-1]:
        raise ValueError(f"{gains.size} gains exceed the {v.shape[-1]} subcarriers of a row")
    if mask is not None and not np.all(mask):
        v = _impute_invalid(v, mask)
    taps = np.fft.ifft(v, axis=-1)[..., : gains.size]
    taps *= gains
    return taps


def wiener_2x1d(
    grid: np.ndarray, gains: np.ndarray, smoother: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Separable smoothing of a (blocks, n_fft) grid: the smoothed
    (blocks, gains.size) taps.

    The taps of each block weighted by the gains of wiener_1d, then the
    smoother, time_wiener's or ma_2d's, over the (blocks, L) taps: the
    time pass commutes with the DFT, so it runs on L columns instead of
    n_fft.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 2:
        raise ValueError("expected a (blocks, n_fft) grid")
    blocks = smoother.shape[1]
    if grid.shape[0] != blocks:
        raise ValueError(f"expected {blocks} blocks, got {grid.shape[0]}")
    return smoother @ wiener_1d(grid, gains, mask)
