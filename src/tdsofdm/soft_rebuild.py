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
_FAR = 1e13
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


def _clamp_far(
    axes: np.ndarray, sigma2: np.ndarray, llr_max: float, c: Constellation, scratch: np.ndarray
) -> np.ndarray | None:
    """Clamp demap's axis values in place at each cell's reach or at _FAR.

    Past its reach, the gap between a bit's two class maxima exceeds
    2 (llr_max + q) and the rest of the class sums moves it by at most
    log(q / 2), so the LLR saturates; clamping there, and at _FAR, keeps
    every square finite and the level spacing resolved.  A sigma2 or reach
    past the float range is inf, the limit where every LLR is zero.

    Returns the mask of the values past their reach, or None when no value
    lies past the smallest bound, where the clamp is an identity, NaN
    included.  scratch is a float buffer of axes' shape.
    """
    q = c.levels.size
    reach = np.empty(sigma2.shape, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.multiply(llr_max + q, sigma2, out=reach)
        reach /= c.levels[1] - c.levels[0]
        reach += c.levels[-1]
    size = np.abs(axes, out=scratch)
    if not np.fmax.reduce(size, axis=None, initial=0.0) > min(reach.min(initial=np.inf), _FAR):
        return None
    far = size > reach
    np.minimum(reach, _FAR, out=reach)
    np.clip(axes, np.negative(reach, out=scratch[0]), reach, out=axes)
    return far


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
    clamped before squaring and gets that level's label at +-llr_max.  A
    value past _FAR = 1e13 is taken as if it lay at +-_FAR, where squared
    distances still resolve the level spacing of every constellation; past
    about 1e16 they tie.  So with llr_max = inf, where nothing saturates,
    such a value still gets its outermost level's label, and every LLR of a
    finite input is finite.  Cells masked out upstream get zero LLRs (no
    information).  noise_var must be nonnegative and llr_max positive;
    llr_max = inf leaves the LLRs unclipped.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    if not llr_max > 0:
        raise ValueError("llr_max must be positive")
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
    q = c.levels.size
    half = c.axis_labels.shape[1]
    out = np.empty((2, half) + shape, dtype=np.float64)
    # its first bit's slab is scratch until the LLRs are formed
    far = _clamp_far(axes, sigma2, llr_max, c, out[:, 0])
    # classes[l, b]: the indices of the levels whose bit l is b
    classes = np.argsort(c.axis_labels, axis=0, kind="stable").T.reshape(half, 2, -1)
    if q == 2:
        # one level per class: each class sum is exp(-d) of its one level,
        # so the LLR is d(class 0) - d(class 1) exactly
        (i0,), (i1,) = classes[0]
        llr = out[:, 0]
        other = np.empty_like(axes)
        for d, level in ((llr, c.levels[i0]), (other, c.levels[i1])):
            np.subtract(axes, level, out=d)
            np.square(d, out=d)
            d /= sigma2
        llr -= other
    else:
        # (level, 2 axes, ...): |x - level|^2 / sigma2, then the level terms
        terms = np.empty((q,) + axes.shape, dtype=np.float64)
        np.subtract(axes, c.levels.reshape((q,) + (1,) * axes.ndim), out=terms)
        np.square(terms, out=terms)
        terms /= sigma2
        np.subtract(np.min(terms, axis=0), terms, out=terms)
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
    if far is not None:
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
