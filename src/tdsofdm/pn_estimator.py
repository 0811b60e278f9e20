"""Least-squares channel estimation from the PN core, and its error model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (loaded eagerly, see sequences)

from .sequences import PnSequence


@dataclass(frozen=True)
class CfrEstimate:
    """A channel estimate held as its impulse response, with its mean-square error.

    taps is (L,) or (num_symbols, L), one impulse response per row, at most
    n_fft taps long; the CFR on the n_fft-point grid is channel.cfr(taps,
    n_fft), formed by the stage that reads it.  eps is the analytic MSE per
    subcarrier.  mask, when present, is False on the rows where the
    estimate could not be formed: its last axis has length 1 and it
    broadcasts against taps.
    """

    eps: float
    taps: np.ndarray
    mask: np.ndarray | None = None


def ls_pn(rx_core: np.ndarray, pn: PnSequence, cir_len: int, noise_var: float) -> CfrEstimate:
    """LS estimate from the received PN core, truncated to cir_len taps.

    The core's cyclic prefix makes the received core a circular convolution,
    so division bin by bin in the core's DFT domain inverts the channel.
    The estimate keeps the first cir_len taps of the impulse response.
    """
    rx_core = np.asarray(rx_core, dtype=np.complex128)
    if rx_core.shape[-1] != pn.n_pn:
        raise ValueError(f"core length {rx_core.shape[-1]} != {pn.n_pn}")
    if not 1 <= cir_len <= pn.n_pn:
        raise ValueError(f"cir_len {cir_len} must lie in [1, {pn.n_pn}]")
    p2 = np.abs(pn.spectrum) ** 2
    if np.any(p2 < 1e-12 * p2.mean()):
        raise ValueError("PN core spectrum has a (near-)null bin; cannot invert")

    h_bar = np.fft.fft(rx_core, axis=-1, norm="ortho") / pn.spectrum
    return CfrEstimate(eps=analytic_mse_pn(pn, cir_len, noise_var), taps=cir_from_cfr(h_bar, cir_len))


def analytic_mse_pn(pn: PnSequence, cir_len: int, noise_var: float) -> float:
    """Closed-form per-subcarrier MSE of the truncated LS estimate.

    Noise only: each core bin contributes noise_var/|P_raw[k]|^2 to the tap
    estimates, and truncation keeps cir_len of the n_pn noise taps.  The
    stored unitary spectrum absorbs one factor of n_pn relative to the
    raw-DFT form the derivation uses.
    """
    if not 1 <= cir_len <= pn.n_pn:
        raise ValueError(f"cir_len {cir_len} must lie in [1, {pn.n_pn}]")
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    p2 = np.abs(pn.spectrum) ** 2
    return float(cir_len * noise_var / pn.n_pn**2 * np.sum(1.0 / p2))


def window_leak_variance(pn: PnSequence, dense_powers: np.ndarray) -> float:
    """White-equivalent variance of previous-symbol leakage into the core window.

    The cyclic prefix protects the correlation window only for delays up to
    the core offset.  A tap at delay l > core_offset + i makes window sample
    i see the previous symbol's body where the circular model expects the
    wrapped core chip, a mismatch of power 1 + a_pn^2 per unit tap power
    (every constellation has unit power).  The total over the window,
    spread evenly across its n_pn samples, gives the extra variance to add
    to the noise floor in analytic_mse_pn.  Zero whenever the channel fits
    inside the offset.
    """
    p = np.asarray(dense_powers, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("tap powers must be nonnegative")
    length = p.size
    m = length - 1 - pn.core_offset
    if m <= 0:
        return 0.0
    tail = np.cumsum(p[::-1])[::-1]
    idx = pn.core_offset + 1 + np.arange(min(m, pn.n_pn))
    total = float((1.0 + pn.a_pn**2) * tail[idx].sum())
    return total / pn.n_pn


def cir_from_cfr(values: np.ndarray, cir_len: int) -> np.ndarray:
    """Truncate a CFR back to its first cir_len impulse-response taps.

    Returns an array of its own with shape values.shape[:-1] + (cir_len,),
    not a view: the full-length inverse transform dies on return.
    """
    values = np.asarray(values, dtype=np.complex128)
    if cir_len > values.shape[-1]:
        raise ValueError("cir_len exceeds the grid size")
    return np.fft.ifft(values, axis=-1)[..., :cir_len].copy()


def interference_power(
    pn: PnSequence,
    tap_err_var: np.ndarray,
    k: int | np.ndarray,
    n_fft: int,
) -> float | np.ndarray:
    """Residual guard interference power on subcarrier k after imperfect removal.

    Each tap error of variance tap_err_var[l] leaks the cyclically shifted
    guard sequence into the data window; the per-subcarrier power follows
    from the shifted sequences' aperiodic autocorrelations.

    Nothing in the package calls this; the receiver uses the closed-form
    mean_interference_power. It is the per-subcarrier model that A04 and
    mean_interference_power's tests check.
    """
    var = np.asarray(tap_err_var, dtype=np.float64)
    if np.any(var < 0):
        raise ValueError("tap error variances must be nonnegative")
    if var.size > pn.nu:
        raise ValueError("more tap errors than guard samples")
    c = pn.samples
    nu = pn.nu
    ks = np.atleast_1d(np.asarray(k))
    q = np.arange(1, nu)
    cosines = np.cos(2.0 * np.pi * np.outer(ks, q) / n_fft)

    total = np.zeros(ks.shape, dtype=np.float64)
    e0 = float(np.sum(np.abs(c) ** 2))
    for l, v in enumerate(var):
        if v == 0.0:
            continue
        cl = np.roll(c, l)
        ac = np.correlate(cl, cl, mode="full")[nu:].real
        total += v * (e0 + 2.0 * (cosines @ ac))
    out = total / n_fft
    return out if np.ndim(k) else float(out[0])


def mean_interference_power(pn: PnSequence, tap_err_var: np.ndarray, n_fft: int) -> float:
    """interference_power averaged over all n_fft subcarriers, in closed form.

    The cosine terms sum to zero over a full subcarrier sweep, leaving only
    the guard energy term; the mean is exact, not an approximation.
    """
    var = np.asarray(tap_err_var, dtype=np.float64)
    if np.any(var < 0):
        raise ValueError("tap error variances must be nonnegative")
    return float(var.sum()) * pn.nu * pn.a_pn**2 / n_fft
