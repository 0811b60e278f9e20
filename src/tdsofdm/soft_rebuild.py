"""Soft symbol rebuilding: bit LLRs, posterior symbol means, instantaneous CFR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import Constellation
from .phy import FrameGrid

# Bins whose rebuilt power falls below this fraction of the constellation
# power carry almost no signal and are excluded from re-estimation.
RELIABILITY_FLOOR = 0.05

# demap clips every bit LLR to +-LLR_MAX.
LLR_MAX = 30.0

_TINY_VAR = 1e-30


@dataclass(frozen=True)
class InstantEstimate:
    """Raw per-bin CFR re-estimate before any smoothing.

    weights carry each bin's noise amplification factor: the per-bin error
    variance of values is weights * effective_noise_var wherever mask holds.
    """

    values: np.ndarray
    mask: np.ndarray
    weights: np.ndarray


def demap(z: FrameGrid, h_est: np.ndarray, noise_var: float, c: Constellation) -> np.ndarray:
    """Per-bit LLRs of equalized cells under Gaussian noise, clipped to +-LLR_MAX.

    Returns a float64 array of shape z.data.shape + (bits_per_symbol,): a
    view of a bit-major buffer, the I bits of each cell before its Q bits.

    noise_var is the effective pre-equalization noise power; bin k sees
    noise_var/|H[k]|^2 after equalization.  The noise is circular, so each
    bit's likelihood terms from the other axis cancel and its LLR is
    log(S1 / S0), where Sb sums exp(-d_j) over the levels j of its own axis
    whose label bit is b, and d_j = |x - l_j|^2 / sigma2.  Only differences
    of the d_j matter, and they are linear in x: d_j - d_0 is
    ((l_0 - l_j) / span) (x - (l_0 + l_j) / 2) times 2 span / sigma2, with
    span = l_max - l_0.  The first factor lies in [-1, 0] and the second
    within |x| + span, so no value is squared, every product is finite and
    the level spacing is resolved at any |x|; only a term far below the
    nearest level can overflow to -inf once scaled.  QPSK's two levels are
    negatives, so its LLR is (x / sigma2) 2 (l_1 - l_0) outright.  Otherwise
    the sqrt(M) level terms exp(g - d_j) are taken once per axis value and
    shared by every bit of that axis: g = min d_j belongs to the nearest
    level, and each term is clamped at e^-700.  A class sum of at least
    e^-640 is then exact to rounding, since at most 4 clamped terms add at
    most 4 e^-700; a smaller one puts the LLR past 640 in magnitude, which
    the clip saturates with the right sign.  So every LLR of a finite input
    is finite, and a sigma2 past the float range (inf) gives zero LLRs.
    Cells masked out upstream get zero LLRs.  noise_var must be nonnegative.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    shape = z.data.shape
    sigma2 = np.abs(h_est)
    np.square(sigma2, out=sigma2)
    ok = sigma2 > 0
    if z.mask is not None:
        ok = ok & z.mask
    ok = np.broadcast_to(ok, shape)
    # the post-equalization noise variance of each cell
    sigma2 = np.where(ok, sigma2, 1.0)
    with np.errstate(over="ignore"):
        np.divide(noise_var, sigma2, out=sigma2)
    np.maximum(sigma2, _TINY_VAR, out=sigma2)
    # I/Q on the leading axis, so every pass below runs over whole cell grids
    axes = np.empty((2,) + shape, dtype=np.float64)
    axes[0] = z.data.real
    axes[1] = z.data.imag
    levels, q = c.levels, c.levels.size
    half = c.axis_labels.shape[1]
    out = np.empty((2, half) + shape, dtype=np.float64)
    # classes[l, b]: the indices of the levels whose bit l is b
    classes = np.argsort(c.axis_labels, axis=0, kind="stable").T.reshape(half, 2, -1)
    if q == 2:
        # one level per class: the LLR is d(class 0) - d(class 1) exactly
        (i0,), (i1,) = classes[0]
        llr = out[:, 0]
        with np.errstate(over="ignore"):
            np.divide(axes, sigma2, out=llr)
            llr *= 2.0 * (levels[i1] - levels[i0])
    else:
        # (level, 2 axes, ...): (d_j - d_0) / (2 span / sigma2), then the
        # level terms g - d_j
        span = levels[-1] - levels[0]
        shaped = (q,) + (1,) * axes.ndim
        terms = np.empty((q,) + axes.shape, dtype=np.float64)
        np.subtract(axes, ((levels[0] + levels) / 2).reshape(shaped), out=terms)
        terms *= ((levels[0] - levels) / span).reshape(shaped)
        np.subtract(np.min(terms, axis=0), terms, out=terms)
        with np.errstate(over="ignore"):
            terms *= np.divide(2.0 * span, sigma2)
        # a term under e^-700 cannot move a sum that holds a 1, and exp runs
        # many times slower where it underflows
        np.maximum(terms, -700.0, out=terms)
        np.exp(terms, out=terms)
        sums = np.empty((2,) + axes.shape, dtype=np.float64)
        for l, members in enumerate(classes):
            # plain adds over level slabs, so no BLAS thread count can
            # change the rounding
            for s, (j, k, *rest) in zip(sums, members):
                np.add(terms[j], terms[k], out=s)
                for i in rest:
                    s += terms[i]
            llr = out[:, l]
            np.divide(sums[1], sums[0], out=llr)
            np.log(llr, out=llr)
    out = out.reshape((2 * half,) + shape)
    np.clip(out, -LLR_MAX, LLR_MAX, out=out)
    out[:, ~ok] = 0.0
    # bit-major in memory; the (..., bits) view costs no transpose
    return np.moveaxis(out, 0, -1)


def soft_symbols(llr: np.ndarray, c: Constellation) -> np.ndarray:
    """Posterior-mean symbol per cell from demap's (..., bits_per_symbol) LLRs.

    Returns a complex128 array of shape llr.shape[:-1].  Bits are treated
    as independent given the LLRs, so the posterior factorizes into one
    level distribution per axis and the mean symbol is E[I] + jE[Q].
    """
    # bit-major, as demap lays its LLRs out: (2 axes, bits per axis, ...);
    # the logistic of a very negative LLR overflows exp to inf, giving 0
    p1 = np.negative(np.moveaxis(llr, -1, 0))
    with np.errstate(over="ignore"):
        np.exp(p1, out=p1)
    p1 += 1.0
    np.divide(1.0, p1, out=p1)
    p1 = p1.reshape((2, -1) + p1.shape[1:])
    # factor[bit][:, l] is the probability that bit l of an axis is `bit`
    factor = (1.0 - p1, p1)
    # sum over levels of level * the product of its bits' factors, first
    # bit first, accumulated level by level for both axes at once
    mean = np.zeros(p1.shape[:1] + p1.shape[2:], dtype=np.float64)
    term = np.empty_like(mean)
    for level, labels in zip(c.levels, c.axis_labels):
        prod = factor[labels[0]][:, 0]
        for l in range(1, labels.size):
            prod = np.multiply(prod, factor[labels[l]][:, l], out=term)
        mean += np.multiply(prod, level, out=term)
    x = np.empty(mean.shape[1:], dtype=np.complex128)
    x.real = mean[0]
    x.imag = mean[1]
    return x


def instantaneous_estimate(x_hat: np.ndarray, y: np.ndarray, c: Constellation) -> InstantEstimate:
    """Per-bin CFR re-estimate from rebuilt symbols x_hat and the OLA grid y.

    Uniform-power constellations normalize by the constellation power, so a
    rebuilt bin of power eta = |x_hat|^2 carries noise amplified by
    eta/eta_alpha^2; mixed-power constellations divide by the bin's own
    rebuilt power, with noise amplification 1/eta.  Bins whose rebuilt power
    falls under RELIABILITY_FLOOR * eta_alpha are marked unreliable and
    zeroed.
    """
    ea = c.eta_alpha
    eta = np.abs(x_hat)
    np.square(eta, out=eta)
    reliable = eta >= RELIABILITY_FLOOR * ea
    unreliable = ~reliable
    values = np.conj(x_hat)
    values *= y
    if c.uniform_power:
        values /= ea
        weights = np.divide(eta, ea**2, out=eta)
    else:
        # each bin's own rebuilt power, 1 where it is unreliable
        eta[unreliable] = 1.0
        values /= eta
        weights = np.divide(1.0, eta, out=eta)
    values[unreliable] = 0.0
    weights[unreliable] = 0.0
    return InstantEstimate(values=values, mask=reliable, weights=weights)
