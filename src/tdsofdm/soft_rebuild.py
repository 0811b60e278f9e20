"""Soft symbol rebuilding: bit LLRs, posterior symbol means, instantaneous CFR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .modulation import Constellation
from .phy import FrameGrid

# Bins whose rebuilt power falls below this fraction of the constellation
# power carry almost no signal and are excluded from re-estimation.
RELIABILITY_FLOOR = 0.05

_TINY_VAR = 1e-30
_FAR = 1e150


@dataclass(frozen=True)
class LlrGrid:
    """Per-bit log-likelihood ratios, shape (num_symbols, n_fft, bits_per_symbol)."""

    values: np.ndarray
    llr_max: float


@dataclass(frozen=True)
class SoftSymbolGrid:
    """Posterior-mean symbols with per-bin power eta."""

    x_hat: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class InstantEstimate:
    """Raw per-bin CFR re-estimate before any smoothing.

    weights carry each bin's noise amplification factor: the per-bin error
    variance of values is weights * effective_noise_var wherever mask holds.
    """

    values: np.ndarray
    mask: np.ndarray
    weights: np.ndarray


def demap(z: FrameGrid, h_est: np.ndarray, noise_var: float, c: Constellation, llr_max: float = 30.0) -> LlrGrid:
    """Exact per-bit LLRs of equalized cells under Gaussian noise.

    noise_var is the effective pre-equalization noise power; bin k sees
    noise_var/|H[k]|^2 after equalization.  The noise is circular, so each
    bit's likelihood terms from the other axis cancel and its LLR is a
    log-sum-exp over the sqrt(M) levels of its own axis, shifted by the
    largest term of each label class.  A value so far beyond the outermost
    level that every LLR saturates is clamped before squaring and gets that
    level's label at +-llr_max, so every LLR of a finite input is finite.
    Cells masked out upstream get zero LLRs (no information).
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    p = np.broadcast_to(np.abs(h_est) ** 2, z.data.shape)
    ok = p > 0
    if z.mask is not None:
        ok = ok & z.mask

    # past reach, the gap between a bit's two class maxima exceeds
    # 2 (llr_max + q) and the rest of the class sums moves it by at most
    # log(q / 2), so the LLR saturates; clamping there, and at _FAR for a
    # huge sigma2, keeps every square finite.  A sigma2 or reach past the
    # float range is inf, the limit where every LLR is zero.
    q = c.levels.size
    with np.errstate(over="ignore"):
        sigma2 = np.maximum(noise_var / np.where(ok, p, 1.0), _TINY_VAR)
        reach = (llr_max + q) * sigma2 / (c.levels[1] - c.levels[0]) + c.levels[-1]
    # I/Q on the leading axis, so every pass below runs over whole cell grids
    axes = np.stack([z.data.real, z.data.imag])
    far = np.abs(axes) > reach
    bound = np.minimum(reach, _FAR)
    np.clip(axes, -bound, bound, out=axes)

    half = c.axis_labels.shape[1]
    out = np.empty((2, half) + z.data.shape, dtype=np.float64)
    # (class, level, 2 axes, ...) and its per-class minimum and sum, reused
    # by every bit
    terms = np.empty((2, q // 2) + axes.shape, dtype=np.float64)
    low = np.empty((2, 1) + axes.shape, dtype=np.float64)
    lse = np.empty((2,) + axes.shape, dtype=np.float64)
    for l in range(half):
        # |x - level|^2 / sigma2 over the bit's two label classes, class 0
        # first; a class's log-likelihood sum is log(sum exp(low - terms)) - low
        # with low its smallest term
        classes = c.levels[np.argsort(c.axis_labels[:, l], kind="stable")].reshape(2, -1)
        np.subtract(axes, classes.reshape(classes.shape + (1,) * axes.ndim), out=terms)
        np.square(terms, out=terms)
        terms /= sigma2
        np.min(terms, axis=1, keepdims=True, out=low)
        np.subtract(low, terms, out=terms)
        # a term under e^-700 cannot move a sum that holds a 1, and exp runs
        # many times slower where it underflows
        np.maximum(terms, -700.0, out=terms)
        np.exp(terms, out=terms)
        np.sum(terms, axis=1, out=lse)
        np.log(lse, out=lse)
        lse -= low[:, 0]
        np.subtract(lse[1], lse[0], out=out[:, l])
    if far.any():
        outer = np.where(axes[far][:, None] > 0, c.axis_labels[-1], c.axis_labels[0])
        np.moveaxis(out, 1, -1)[far] = llr_max * (2.0 * outer - 1.0)
    out = out.reshape((2 * half,) + z.data.shape)
    np.clip(out, -llr_max, llr_max, out=out)
    out[:, ~ok] = 0.0
    # bit-major in memory; the (..., bits) view costs no transpose
    return LlrGrid(values=np.moveaxis(out, 0, -1), llr_max=float(llr_max))


def soft_symbols(llr: LlrGrid, c: Constellation) -> SoftSymbolGrid:
    """Posterior-mean symbol per cell and its power.

    Bits are treated as independent given the LLRs, so the posterior
    factorizes into one level distribution per axis and the mean symbol is
    E[I] + jE[Q].
    """
    # bit-major, as demap lays its LLRs out: (2 axes, bits per axis, ...)
    p1 = expit(np.moveaxis(llr.values, -1, 0))
    p1 = p1.reshape((2, -1) + p1.shape[1:])
    prob = np.ones((c.levels.size,) + p1[:, 0].shape, dtype=np.float64)
    for l in range(p1.shape[1]):
        factor = (1.0 - p1[:, l], p1[:, l])
        for k, bit in enumerate(c.axis_labels[:, l]):
            prob[k] *= factor[bit]
    mean = np.einsum("q...,q->...", prob, c.levels)
    x_hat = mean[0] + 1j * mean[1]
    return SoftSymbolGrid(x_hat=x_hat, eta=np.abs(x_hat) ** 2)


def instantaneous_estimate(
    soft: SoftSymbolGrid,
    y: FrameGrid,
    c: Constellation,
    floor: float = RELIABILITY_FLOOR,
) -> InstantEstimate:
    """Per-bin CFR re-estimate from rebuilt symbols.

    Uniform-power constellations normalize by the constellation power, so a
    rebuilt bin of power eta carries noise amplified by eta/eta_alpha^2;
    mixed-power constellations divide by the bin's own rebuilt power, with
    noise amplification 1/eta.  Bins whose rebuilt power falls under
    floor * eta_alpha are marked unreliable and zeroed.
    """
    ea = c.eta_alpha
    reliable = soft.eta >= floor * ea
    if y.mask is not None:
        reliable = reliable & y.mask
    safe_eta = np.where(reliable, soft.eta, 1.0)
    if c.uniform_power:
        values = np.conj(soft.x_hat) * y.data / ea
        weights = soft.eta / ea**2
    else:
        values = np.conj(soft.x_hat) * y.data / safe_eta
        weights = 1.0 / safe_eta
    values = np.where(reliable, values, 0.0)
    weights = np.where(reliable, weights, 0.0)
    return InstantEstimate(values=values, mask=reliable, weights=weights)
