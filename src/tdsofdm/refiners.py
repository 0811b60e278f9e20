"""Noise suppression on instantaneous CFR estimates: moving averages and
Wiener smoothing that takes every cell as a pilot."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PowerDelayProfile, cfr, r_t
from .pn_estimator import CfrEstimate


class ConstraintError(ValueError):
    """A sampling-rate constraint of the channel cannot be met."""


@dataclass(frozen=True)
class WienerFilter:
    """MMSE smoother for one domain.

    A frequency filter holds one gain per delay 0 .. L-1: wiener_1d scales
    the taps of each n_fft-point row by them and returns their DFT.  A time
    filter holds the (block_len, block_len) map from the observed blocks to
    the smoothed ones (n_fft is None).  residual_mse is the output MSE
    averaged over the full axis.
    """

    coefficients: np.ndarray
    residual_mse: float
    n_fft: int | None = None


def _window_sum(arr: np.ndarray, back: int, fwd: int, axis: int) -> np.ndarray:
    """Sliding sum over [i-back, i+fwd] along axis, truncated at the edges.

    The cumulative sum P along axis is padded with back + 1 zeros in front
    and fwd copies of the total behind, so the sum at every position i, the
    edges included, is P[i + back + 1 + fwd] - P[i].
    """
    # a one-bin window returns its input, which P[i + 1] - P[i] may round
    if back == 0 and fwd == 0:
        return arr
    a = np.asarray(arr)
    n = a.shape[axis]
    shape = list(a.shape)
    shape[axis] += back + 1 + fwd
    # the axis leads only in the swapped views: cumsum along a strided axis
    # is slower than along the array's own
    p = np.empty(shape, np.result_type(a, 0.0)).swapaxes(0, axis)
    p[: back + 1] = 0.0
    np.cumsum(a, axis=axis, out=p[back + 1 : back + 1 + n].swapaxes(0, axis))
    p[back + 1 + n :] = p[back + n]
    return (p[back + 1 + fwd :][:n] - p[:n]).swapaxes(0, axis)


def _moving_average(values, m_t, m_f, mask, weights, noise_var) -> CfrEstimate:
    """Masked moving average over a block-by-subcarrier window.

    The frequency window on the last axis is centered (even m_f rounds up
    to the next odd); the block window on axis 0 reaches m_t // 2 blocks
    back and (m_t - 1) // 2 forward.  Windows truncate at the edges, skip
    masked bins and divide by the live bin count.  eps averages each bin's
    error variance, noise_var times its window's summed weights over the
    squared count, over the bins with any live neighbor: the mask.
    """
    if m_t < 1 or m_f < 1:
        raise ValueError("window lengths must be positive")
    half = m_f // 2
    back, fwd = m_t // 2, (m_t - 1) // 2
    mv = np.ones(values.shape) if mask is None else mask.astype(np.float64)
    if weights is None:
        weights = np.ones(values.shape)

    def wsum(a):
        return _window_sum(_window_sum(a, back, fwd, 0), half, half, -1)

    cnt = np.round(wsum(mv))
    ok = cnt > 0.5
    safe = np.where(ok, cnt, 1.0)
    out = np.where(ok, wsum(values * mv) / safe, 0.0)
    var = noise_var * wsum(weights * mv) / safe**2
    eps = float(var[ok].mean()) if ok.any() else float("inf")
    return CfrEstimate(values=out, eps=eps, mask=ok)


def ma_1d(
    values: np.ndarray,
    m: int,
    *,
    mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    noise_var: float = 0.0,
) -> CfrEstimate:
    """Moving average across subcarriers: the single-block window (1, m)."""
    return _moving_average(np.asarray(values), 1, m, mask, weights, noise_var)


def ma_2d(
    values: np.ndarray,
    m_t: int,
    m_f: int,
    *,
    mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    noise_var: float = 0.0,
) -> CfrEstimate:
    """Moving average over an (m_t, m_f) block-by-subcarrier window.

    An even m_t reaches one block further into the past: m_t = 2 averages
    blocks {i-1, i}.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("expected a (num_blocks, n_fft) grid")
    return _moving_average(values, m_t, m_f, mask, weights, noise_var)


def build_wiener(
    domain: str,
    n: int,
    *,
    input_err_var: float,
    profile: PowerDelayProfile | None = None,
    design_len: int | None = None,
    fd_hz: float = 0.0,
    tb_s: float = 0.0,
) -> WienerFilter:
    """Design the MMSE smoother of n cells, each observed with white error.

    A frequency filter (n subcarriers) estimates the taps of a prior made
    of a measured delay profile or, by default, a uniform profile over
    [0, design_len).  With every subcarrier observed, the n-point IDFT of a
    row holds tap d plus error of variance s/n, independent across taps, so
    the MMSE estimate is a per-tap shrinkage of the IDFT by

        g_d = n P_d / (n P_d + s),   residual_mse = s sum_d P_d / (n P_d + s),

    with s = input_err_var and P_d the prior power at delay d; the residual
    is the MSE per subcarrier.  This is the DFT-based LMMSE of Edfors et
    al., IEEE Trans. Commun. 46(7), 1998.  A prior delay at or beyond n
    raises ValueError.

    A time filter (n = block_len blocks) solves the n x n system of the
    Jakes block correlation.

    An input_err_var under 1e-12 times the prior power r(0), zero included,
    is raised to it: slow fading rounds the smallest eigenvalue of the Jakes
    matrix to about -2e-16 r(0).  A prior that is not a correlation raises
    numpy.linalg.LinAlgError.
    """
    if input_err_var < 0:
        raise ValueError("input_err_var must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if domain == "time":
        if fd_hz < 0 or tb_s < 0:
            raise ValueError("fd_hz and tb_s must be nonnegative")
        return _time_wiener(n, input_err_var, fd_hz, tb_s)
    if domain != "freq":
        raise ValueError(f"unknown filter domain {domain!r}")
    if profile is None:
        if design_len is None or design_len < 1:
            raise ValueError("design_len required for the uniform-profile mode")
        profile = PowerDelayProfile(np.arange(design_len), np.full(design_len, 1.0 / design_len))
    if np.any(profile.powers < 0):
        raise np.linalg.LinAlgError("a delay profile with a negative power is not a correlation")
    if profile.delays.max() >= n:
        raise ValueError(f"a prior delay of {profile.delays.max()} lies at or beyond n = {n}")
    # duplicate delays merge into one tap
    p = np.bincount(profile.delays, weights=profile.powers)
    ridge = max(input_err_var, 1e-12 * p.sum())
    den = n * p + ridge
    return WienerFilter(coefficients=n * p / den, residual_mse=float(ridge * np.sum(p / den)), n_fft=n)


def _time_wiener(n, input_err_var, fd_hz, tb_s) -> WienerFilter:
    """Time design from the Jakes correlation R of the n blocks.

    The smoother is W = R (R + s I)^-1 and its error covariance is s W, so
    residual_mse is s tr(W) / n.  A Cholesky factorization checks that
    R + s I is positive definite.  Slow fading at a small s makes it near
    singular, so one refinement step, with its residual formed in extended
    precision, recovers the digits the solve loses.
    """
    r = r_t(np.arange(1 - n, n), fd_hz, tb_s)
    # r[q + n - 1] is the correlation at lag q
    big_r = r[np.subtract.outer(np.arange(n), np.arange(n)) + n - 1]
    ridge = max(input_err_var, 1e-12 * r[n - 1])
    phi = big_r + ridge * np.eye(n)
    np.linalg.cholesky(phi)  # raises LinAlgError unless positive definite
    x = np.linalg.solve(phi, big_r)
    wide = np.longdouble
    x += np.linalg.solve(phi, (big_r.astype(wide) - phi.astype(wide) @ x).astype(np.float64))
    return WienerFilter(coefficients=x.T, residual_mse=float(ridge * np.trace(x) / n))


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


def _shrunk_taps(values, filt: WienerFilter, mask) -> np.ndarray:
    """Impute invalid cells, then the filter's gains times each row's taps."""
    v = np.asarray(values, dtype=np.complex128)
    n = filt.n_fft
    if v.shape[-1] != n:
        raise ValueError(f"expected {n} subcarriers on the last axis, got {v.shape[-1]}")
    if mask is not None and not np.all(mask):
        v = _impute_invalid(v, mask)
    taps = np.fft.ifft(v, axis=-1)[..., : filt.coefficients.size]
    taps *= filt.coefficients
    return taps


def wiener_1d(values: np.ndarray, filt: WienerFilter, mask: np.ndarray | None = None) -> np.ndarray:
    """Smooth each row of n_fft subcarriers with a prebuilt frequency filter.

    Invalid cells (mask False) are imputed from their valid neighbors
    first; a row with no valid cell at all comes back as zeros.  The output
    MSE is the filter's residual_mse.
    """
    return cfr(_shrunk_taps(values, filt, mask), filt.n_fft)


def wiener_2x1d(
    grid: np.ndarray, freq_filter: WienerFilter, time_filter: WienerFilter, mask: np.ndarray | None = None
) -> np.ndarray:
    """Separable smoothing of a (block_len, n_fft) grid.

    The shrunk taps of each block, then the time pass over the
    (block_len, L) taps, then one DFT per block: the time pass commutes
    with the DFT, so it runs on L columns instead of n_fft.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 2:
        raise ValueError("expected a (block_len, n_fft) grid")
    blocks = time_filter.coefficients.shape[1]
    if grid.shape[0] != blocks:
        raise ValueError(f"expected {blocks} blocks, got {grid.shape[0]}")
    taps = _shrunk_taps(grid, freq_filter, mask)
    return cfr(time_filter.coefficients @ taps, freq_filter.n_fft)
