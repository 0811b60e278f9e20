"""Soft symbol rebuilding: level likelihoods, posterior symbol means, instantaneous CFR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import Constellation
from .phy import FrameGrid

# Bins whose rebuilt power falls below this fraction of the constellation
# power carry almost no signal and are excluded from re-estimation.
RELIABILITY_FLOOR = 0.05


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
    """Level likelihoods of each axis value of equalized cells under Gaussian noise.

    Returns a float64 array of shape (sqrt(M), 2) + z.data.shape, level-major:
    entry [j, a] is exp(g - d_j) for the in-phase (a = 0) or quadrature
    (a = 1) value x of a cell, with d_j = |x - l_j|^2 / sigma2 over the
    ascending levels l_j of c and g = min d_j, so the nearest level's term is
    exactly 1.  The noise is circular, so the posterior of a cell's point
    factorizes into one level distribution per axis, with these weights.

    noise_var is the effective pre-equalization noise power; bin k sees
    sigma2 = noise_var/|H[k]|^2 after equalization.  Only differences of the
    d_j matter, and they are linear in x: d_j - d_0 is
    ((l_0 - l_j) / span) (x - (l_0 + l_j) / 2) times 2 span / sigma2, with
    span = l_max - l_0.  The first factor lies in [-1, 0] and the second
    within |x| + span, so no value is squared and the level spacing is
    resolved at any |x|; only a term far below the nearest level can
    overflow to -inf once scaled.  Terms are clamped at e^-700, which cannot
    move a sum that holds a 1.  Masked cells, cells of zero gain and a
    sigma2 past the float range (inf) get equal terms.  noise_var must be
    nonnegative.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    shape = z.data.shape
    sigma2 = np.abs(h_est)
    np.square(sigma2, out=sigma2)
    ok = sigma2 > 0
    if z.mask is not None:
        ok = ok & z.mask
    # the post-equalization noise variance of each cell
    sigma2 = np.where(ok, sigma2, 1.0)
    with np.errstate(over="ignore"):
        np.divide(noise_var, sigma2, out=sigma2)
    np.maximum(sigma2, 1e-30, out=sigma2)
    # (level, 2 axes, ...): (d_j - d_0) / (2 span / sigma2), then g - d_j
    levels, q = c.levels, c.levels.size
    span = levels[-1] - levels[0]
    shaped = (q,) + (1,) * len(shape)
    lik = np.empty((q, 2) + shape, dtype=np.float64)
    for a, part in enumerate((z.data.real, z.data.imag)):
        np.subtract(part, ((levels[0] + levels) / 2).reshape(shaped), out=lik[:, a])
    lik *= ((levels[0] - levels) / span).reshape(shaped + (1,))
    np.subtract(np.min(lik, axis=0), lik, out=lik)
    with np.errstate(over="ignore"):
        lik *= np.divide(2.0 * span, sigma2)
    # exp runs many times slower where it underflows
    np.maximum(lik, -700.0, out=lik)
    np.exp(lik, out=lik)
    np.copyto(lik, 1.0, where=~ok)
    return lik


def soft_symbols(lik: np.ndarray, c: Constellation) -> np.ndarray:
    """Posterior-mean symbol per cell from demap's level likelihoods.

    lik holds the unnormalized weights t_j of the levels l_j of c, shape
    (sqrt(M), 2) + cells.  Returns the complex128 per-axis means
    sum_j l_j t_j / sum_j t_j, in-phase plus j quadrature: under demap's
    circular noise, the exact posterior-mean symbol of each cell.  The
    levels are symmetric, l_j = -l_{q-1-j}, so the numerator is summed in
    mirror pairs l_j (t_j - t_{q-1-j}), and equal terms give exactly 0.
    Every sum runs over whole level slabs with plain adds, so no BLAS
    thread count can change the rounding.
    """
    levels, q = c.levels, c.levels.size
    den = np.add(lik[0], lik[1])
    for t in lik[2:]:
        den += t
    num = np.subtract(lik[-1], lik[0])
    num *= levels[-1]
    pair = np.empty_like(num)
    for j in range(q // 2, q - 1):
        np.subtract(lik[j], lik[q - 1 - j], out=pair)
        pair *= levels[j]
        num += pair
    # the (2, cells) view of the output's interleaved real and imaginary parts
    x = np.empty(lik.shape[2:], dtype=np.complex128)
    np.divide(num, den, out=np.moveaxis(x.view(np.float64).reshape(x.shape + (2,)), -1, 0))
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
