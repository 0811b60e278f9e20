"""WSSUS tapped-delay-line Rayleigh channels with Jakes Doppler statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import j0

# TU-6 profile: excess delays in microseconds, tap powers in dB.
_TU6_DELAYS_US = np.array([0.0, 0.2, 0.5, 1.6, 2.3, 5.0])
_TU6_POWERS_DB = np.array([-3.0, 0.0, -2.0, -6.0, -8.0, -10.0])

_SPEED_OF_LIGHT = 3.0e8


@dataclass(frozen=True)
class PowerDelayProfile:
    """Sparse power-delay profile on the sample grid; powers sum to one."""

    delays: np.ndarray
    powers: np.ndarray

    @property
    def length(self) -> int:
        """CIR length in samples (last occupied tap plus one)."""
        return int(self.delays[-1]) + 1

    def dense_powers(self) -> np.ndarray:
        out = np.zeros(self.length)
        out[self.delays] = self.powers
        return out


@dataclass(frozen=True)
class ChannelRealization:
    """Per-block tap vectors of one channel draw; row i applies to block i."""

    taps: np.ndarray


def _make_profile(delays: np.ndarray, powers: np.ndarray) -> PowerDelayProfile:
    """Sort, merge duplicate sample delays, and normalize to unit power."""
    delays = np.asarray(delays, dtype=np.int64)
    powers = np.asarray(powers, dtype=np.float64)
    if np.any(delays < 0):
        raise ValueError("tap delays must be nonnegative")
    if np.any(powers < 0) or powers.sum() <= 0:
        raise ValueError("tap powers must be nonnegative with positive sum")
    uniq = np.unique(delays)
    merged = np.zeros(uniq.size)
    np.add.at(merged, np.searchsorted(uniq, delays), powers)
    return PowerDelayProfile(delays=uniq, powers=merged / merged.sum())


def preset_profile(name: str, sample_rate_hz: float) -> PowerDelayProfile:
    """Quantize a named delay profile onto the sample grid.

    Continuous delays round to the nearest sample; taps landing on the same
    sample merge.  Powers are normalized after quantization.
    """
    if name == "flat":
        return _make_profile(np.array([0]), np.array([1.0]))
    if name == "two_tap":
        d = np.array([0, int(round(1e-6 * sample_rate_hz))])
        return _make_profile(d, np.array([0.5, 0.5]))
    if name == "tu6":
        d = np.round(_TU6_DELAYS_US * 1e-6 * sample_rate_hz).astype(np.int64)
        p = 10.0 ** (_TU6_POWERS_DB / 10.0)
        return _make_profile(d, p)
    raise ValueError(f"unknown channel preset {name!r}")


def sfn_profile(
    base: PowerDelayProfile,
    extra_delay_s: float,
    attenuation_db: float,
    sample_rate_hz: float,
) -> PowerDelayProfile:
    """Superpose a delayed, attenuated copy of the profile on itself."""
    shift = int(round(extra_delay_s * sample_rate_hz))
    if shift < 0:
        raise ValueError("extra delay must be nonnegative")
    gain = 10.0 ** (-attenuation_db / 10.0)
    delays = np.concatenate([base.delays, base.delays + shift])
    powers = np.concatenate([base.powers, gain * base.powers])
    return _make_profile(delays, powers)


def doppler_frequency(velocity_kmh: float, carrier_hz: float) -> float:
    """Maximum Doppler shift for a given speed and carrier frequency."""
    return velocity_kmh / 3.6 * carrier_hz / _SPEED_OF_LIGHT


def _jakes_spectral(
    num_taps: int, fd_tb: float, num_blocks: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit-variance Jakes-correlated series, one row per tap.

    Frequency-domain synthesis: white Gaussians shaped by the square root of
    the Jakes spectrum integrated over each frequency bin.  Integrating over
    bins keeps the band-edge singularity finite and makes the circular
    autocorrelation of the long grid match the Bessel target to O(p/n_grid)
    at lag p, so the grid is kept much longer than the requested series.
    """
    n_grid = next_fast_len(max(4096, 8 * num_blocks))
    f = np.fft.fftfreq(n_grid, d=1.0)
    lo = np.abs(f) - 0.5 / n_grid
    hi = np.abs(f) + 0.5 / n_grid
    lo = np.clip(lo, -fd_tb, fd_tb)
    hi = np.clip(hi, -fd_tb, fd_tb)
    energy = (np.arcsin(hi / fd_tb) - np.arcsin(lo / fd_tb)) / np.pi
    energy /= energy.sum()

    w = rng.standard_normal((num_taps, n_grid)) + 1j * rng.standard_normal((num_taps, n_grid))
    w *= np.sqrt(energy * n_grid / 2.0)
    series = np.fft.ifft(w, axis=1, norm="ortho")
    return series[:, :num_blocks]


def realize(
    profile: PowerDelayProfile,
    fd_hz: float,
    tb_s: float,
    num_blocks: int,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one channel realization: independent Rayleigh taps, Jakes fading.

    Taps are quasi-static within a block and evolve block to block with
    autocorrelation J0(2 pi fd tb p).  fd_hz = 0 freezes the draw.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be positive")
    fd_tb = fd_hz * tb_s
    if fd_tb < 0:
        raise ValueError("fd_hz and tb_s must be nonnegative")

    k = profile.delays.size
    if fd_tb == 0.0:
        base = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
        series = np.repeat(base[:, None], num_blocks, axis=1)
    else:
        series = _jakes_spectral(k, fd_tb, num_blocks, rng)

    taps = np.zeros((num_blocks, profile.length), dtype=np.complex128)
    taps[:, profile.delays] = (np.sqrt(profile.powers)[:, None] * series).T
    return ChannelRealization(taps=taps)


def cfr(taps: np.ndarray, n_fft: int) -> np.ndarray:
    """Frequency response on the OFDM grid: plain DFT of the zero-padded CIR."""
    taps = np.asarray(taps)
    if taps.shape[-1] > n_fft:
        raise ValueError(f"CIR length {taps.shape[-1]} exceeds FFT size {n_fft}")
    return np.fft.fft(taps, n=n_fft, axis=-1)


def r_f(q: np.ndarray, profile: PowerDelayProfile, n_fft: int) -> np.ndarray:
    """Frequency correlation of the CFR at subcarrier separation q."""
    q = np.asarray(q)
    phase = np.exp(-2j * np.pi * np.multiply.outer(q, profile.delays) / n_fft)
    return phase @ profile.powers


def r_t(p: np.ndarray, fd_hz: float, tb_s: float) -> np.ndarray:
    """Time correlation of any tap (and of the CFR) at block separation p."""
    return j0(2.0 * np.pi * fd_hz * tb_s * np.asarray(p, dtype=np.float64))


def coherence_bandwidth(
    profile: PowerDelayProfile,
    n_fft: int,
    subcarrier_spacing_hz: float,
    level: float = 0.9,
) -> float:
    """Coherence bandwidth in Hz from the RMS delay spread.

    Uses the delay-spread rule of thumb anchored at the 0.9-correlation
    point, B_c = 1/(50 sigma_tau), extended to other levels as
    (1 - level)/(5 sigma_tau).  The result is clamped to one subcarrier
    spacing from below and to the sampled bandwidth from above, which also
    covers the single-tap case.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    total_bw = n_fft * subcarrier_spacing_hz
    sample_rate = total_bw
    mean_tau = float(profile.powers @ profile.delays) / sample_rate
    mean_tau2 = float(profile.powers @ profile.delays.astype(np.float64) ** 2) / sample_rate**2
    sigma_tau = np.sqrt(max(mean_tau2 - mean_tau**2, 0.0))
    if sigma_tau == 0.0:
        return float(total_bw)
    bc = (1.0 - level) / (5.0 * sigma_tau)
    return float(np.clip(bc, subcarrier_spacing_hz, total_bw))
