"""WSSUS tapped-delay-line Rayleigh channels with Jakes Doppler statistics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
import numpy.fft  # noqa: F401  (loaded eagerly, see sequences)

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


def _make_profile(delays: np.ndarray, powers: np.ndarray) -> PowerDelayProfile:
    """Sort, merge duplicate sample delays, and normalize to unit power."""
    delays = np.asarray(delays, dtype=np.int64)
    powers = np.asarray(powers, dtype=np.float64)
    if np.any(delays < 0):
        raise ValueError("tap delays must be nonnegative")
    if np.any(powers < 0) or powers.sum() <= 0:
        raise ValueError("tap powers must be nonnegative with positive sum")
    # a stable sort keeps each delay's taps in their given order, and
    # add.at sums each merged power one tap at a time in that order
    order = np.argsort(delays, kind="stable")
    delays = delays[order]
    first = np.diff(delays, prepend=-1) != 0
    merged = np.zeros(np.count_nonzero(first))
    np.add.at(merged, np.cumsum(first) - 1, powers[order])
    return PowerDelayProfile(delays=delays[first], powers=merged / merged.sum())


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


# The longest frame realize draws; its cached root holds 8 MiB.
MAX_BLOCKS = 1024


@cache
def _jakes_root(num_blocks: int, fd_tb: float) -> np.ndarray:
    """Symmetric square root of the Jakes matrix r_t(i - j) of num_blocks
    consecutive blocks.

    Eigenvalues within rounding of zero, under num_blocks eps times the
    largest, are taken as zero: slow fading rounds the smallest to either
    side of zero, and fd_tb = 0 makes the matrix all ones, whose root then
    repeats one row to rounding.  The root is read-only, since every
    caller shares it.
    """
    lag = np.arange(num_blocks)
    corr = r_t(lag, fd_tb, 1.0)[np.abs(np.subtract.outer(lag, lag))]
    vals, vecs = np.linalg.eigh(corr)
    vals[vals < num_blocks * np.finfo(np.float64).eps * vals[-1]] = 0.0
    # einsum rather than a BLAS product, whose first call grows the RSS
    root = np.einsum("ik,jk->ij", vecs * np.sqrt(vals), vecs)
    root.flags.writeable = False
    return root


def realize(
    profile: PowerDelayProfile,
    fd_hz: float,
    tb_s: float,
    num_blocks: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one channel realization: independent Rayleigh taps, Jakes fading.

    Returns the per-block tap vectors, a complex128 array of shape
    (num_blocks, profile.length) whose row i applies to block i.  Taps are
    quasi-static within a block and evolve block to block with
    autocorrelation J0(2 pi fd tb p).  fd_hz = 0 freezes the draw.

    n blocks of k taps take 2 k n normals, every real part before every
    imaginary one, and _jakes_root correlates each tap's n draws across
    blocks exactly, with fd_hz = 0 frozen to rounding.  num_blocks must lie
    in [1, MAX_BLOCKS], since the root is an n x n matrix.
    """
    if not 1 <= num_blocks <= MAX_BLOCKS:
        raise ValueError(f"num_blocks must lie in [1, {MAX_BLOCKS}]")
    fd_tb = fd_hz * tb_s
    if fd_tb < 0:
        raise ValueError("fd_hz and tb_s must be nonnegative")

    w = rng.standard_normal((2, profile.delays.size, num_blocks))
    w = np.einsum("ij,ctj->cti", _jakes_root(num_blocks, fd_tb), w)
    series = (w[0] + 1j * w[1]) / np.sqrt(2.0)

    taps = np.zeros((num_blocks, profile.length), dtype=np.complex128)
    taps[:, profile.delays] = (np.sqrt(profile.powers)[:, None] * series).T
    return taps


def cfr(taps: np.ndarray, n_fft: int) -> np.ndarray:
    """Frequency response on the OFDM grid: plain DFT of the zero-padded CIR."""
    taps = np.asarray(taps)
    if taps.shape[-1] > n_fft:
        raise ValueError(f"CIR length {taps.shape[-1]} exceeds FFT size {n_fft}")
    return np.fft.fft(taps, n=n_fft, axis=-1)


def r_t(p: np.ndarray, fd_hz: float, tb_s: float) -> np.ndarray:
    """Time correlation of any tap (and of the CFR) at block separation p.

    J0(x) is the mean of cos(x sin t) over a period, a smooth periodic
    integrand: the trapezoid sum on n >= |x| + 64 points is exact to
    rounding.  n follows the largest |x| of the call, so the same p may
    differ in its last bit between calls.
    """
    x = 2.0 * np.pi * fd_hz * tb_s * np.asarray(p, dtype=np.float64)
    n = 64 + int(np.ceil(np.abs(x).max(initial=0.0)))
    return np.cos(np.multiply.outer(x, np.sin(2.0 * np.pi * np.arange(n) / n))).mean(axis=-1)
