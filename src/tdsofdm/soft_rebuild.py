"""Soft symbol rebuilding: bit LLRs, posterior symbol means, instantaneous CFR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import Constellation
from .phy import FrameGrid

# Bins whose rebuilt power falls below this fraction of the constellation
# power carry almost no signal and are excluded from re-estimation.
RELIABILITY_FLOOR = 0.05

_TINY_VAR = 1e-30
_FAR = 1e150
# A class sum of demap's level terms at or above _EXACT_SUM is exact to
# rounding; an LLR built on a smaller one exceeds 640 in magnitude, so a
# clip at _EXACT_LLR or below saturates it, with room for rounding.
_EXACT_SUM = np.exp(-640.0)
_EXACT_LLR = 638.0


@dataclass(frozen=True)
class InstantEstimate:
    """Raw per-bin CFR re-estimate before any smoothing.

    weights carry each bin's noise amplification factor: the per-bin error
    variance of values is weights * effective_noise_var wherever mask holds.
    """

    values: np.ndarray
    mask: np.ndarray
    weights: np.ndarray


def demap(z: FrameGrid, h_est: np.ndarray, noise_var: float, c: Constellation, llr_max: float = 30.0) -> np.ndarray:
    """Exact per-bit LLRs of equalized cells under Gaussian noise.

    Returns a float64 array of shape z.data.shape + (bits_per_symbol,): a
    view of a bit-major buffer, the I bits of each cell before its Q bits.

    noise_var is the effective pre-equalization noise power; bin k sees
    noise_var/|H[k]|^2 after equalization.  The noise is circular, so each
    bit's likelihood terms from the other axis cancel and its LLR is
    log(S1 / S0), where Sb sums exp(-d_j) over the levels j of its own axis
    whose label bit is b, and d_j = |x - level_j|^2 / sigma2.  The sqrt(M)
    level terms exp(g - d_j) are taken once per axis value and shared by
    every bit of that axis: g = min d_j belongs to the nearest level, and
    each term is clamped at e^-700.  A class sum of at least e^-640 is then
    exact to rounding, since at most 4 clamped terms add at most 4 e^-700.
    If one sum of an LLR is smaller, its other sum holds the nearest level's
    1 and the LLR exceeds 640 in magnitude, so a clip at llr_max <= 638
    already gives +-llr_max with the right sign.  Only for a larger llr_max
    are those entries computed again, with each class shifted by its own
    smallest term.

    A value so far beyond the outermost level that every LLR saturates is
    clamped before squaring and gets that level's label at +-llr_max, so
    every LLR of a finite input is finite.  Cells masked out upstream get
    zero LLRs (no information).  noise_var must be nonnegative and llr_max
    positive; llr_max = inf leaves the LLRs unclipped.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    if not llr_max > 0:
        raise ValueError("llr_max must be positive")
    shape = z.data.shape
    p = np.abs(h_est)
    np.square(p, out=p)
    p = np.broadcast_to(p, shape)
    ok = p > 0
    if z.mask is not None:
        ok &= z.mask

    # past reach, the gap between a bit's two class maxima exceeds
    # 2 (llr_max + q) and the rest of the class sums moves it by at most
    # log(q / 2), so the LLR saturates; clamping there, and at _FAR for a
    # huge sigma2, keeps every square finite.  A sigma2 or reach past the
    # float range is inf, the limit where every LLR is zero.
    q = c.levels.size
    sigma2 = np.where(ok, p, 1.0)
    reach = np.empty(shape, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.divide(noise_var, sigma2, out=sigma2)
        np.maximum(sigma2, _TINY_VAR, out=sigma2)
        np.multiply(llr_max + q, sigma2, out=reach)
        reach /= c.levels[1] - c.levels[0]
        reach += c.levels[-1]
    # I/Q on the leading axis, so every pass below runs over whole cell grids
    axes = np.empty((2,) + shape, dtype=np.float64)
    axes[0] = z.data.real
    axes[1] = z.data.imag
    # (level, 2 axes, ...): |x - level|^2 / sigma2, then the level terms;
    # its first slab is scratch until then
    terms = np.empty((q,) + axes.shape, dtype=np.float64)
    scratch = terms[0]
    far = np.abs(axes, out=scratch) > reach
    np.minimum(reach, _FAR, out=reach)
    np.clip(axes, np.negative(reach, out=scratch), reach, out=axes)
    np.subtract(axes, c.levels.reshape((q,) + (1,) * axes.ndim), out=terms)
    np.square(terms, out=terms)
    terms /= sigma2

    half = c.axis_labels.shape[1]
    out = np.empty((2, half) + shape, dtype=np.float64)
    # classes[l, b]: the indices of the levels whose bit l is b
    classes = np.argsort(c.axis_labels, axis=0, kind="stable").T.reshape(half, 2, -1)
    if q == 2:
        # one level per class: each class sum is exp(-d) of its one level,
        # so the LLR is d(class 0) - d(class 1) exactly
        (i0,), (i1,) = classes[0]
        np.subtract(terms[i0], terms[i1], out=out[:, 0])
    else:
        g = np.min(terms, axis=0)
        np.subtract(g, terms, out=terms)
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
            if llr_max <= _EXACT_LLR:
                continue
            # redo each inexact entry with each class shifted by its own
            # smallest term
            bad = np.minimum(sums[0], sums[1]) < _EXACT_SUM
            if bad.any():
                d = (axes[bad][:, None, None] - c.levels[members]) ** 2
                d /= np.broadcast_to(sigma2, bad.shape)[bad][:, None, None]
                low = d.min(axis=-1, keepdims=True)
                lse = np.log(np.exp(np.maximum(low - d, -700.0)).sum(axis=-1)) - low[..., 0]
                llr[bad] = lse[:, 1] - lse[:, 0]
    if far.any():
        outer = np.where(axes[far][:, None] > 0, c.axis_labels[-1], c.axis_labels[0])
        np.moveaxis(out, 1, -1)[far] = llr_max * (2.0 * outer - 1.0)
    out = out.reshape((2 * half,) + shape)
    np.clip(out, -llr_max, llr_max, out=out)
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
    with np.errstate(over="ignore"):
        p1 = 1.0 / (1.0 + np.exp(-np.moveaxis(llr, -1, 0)))
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
    eta = np.abs(x_hat) ** 2
    reliable = eta >= RELIABILITY_FLOOR * ea
    safe_eta = np.where(reliable, eta, 1.0)
    if c.uniform_power:
        values = np.conj(x_hat) * y / ea
        weights = eta / ea**2
    else:
        values = np.conj(x_hat) * y / safe_eta
        weights = 1.0 / safe_eta
    values = np.where(reliable, values, 0.0)
    weights = np.where(reliable, weights, 0.0)
    return InstantEstimate(values=values, mask=reliable, weights=weights)
