"""Noise suppression on instantaneous CFR estimates: moving averages and
Wiener interpolation from virtual pilots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import PowerDelayProfile, r_t


class ConstraintError(ValueError):
    """A sampling-rate constraint cannot be met by any pilot spacing."""


@dataclass(frozen=True)
class Refined:
    """A smoothed grid with its per-bin error variance and the grid-mean MSE."""

    values: np.ndarray
    per_bin_var: np.ndarray
    eps: float
    mask: np.ndarray


@dataclass(frozen=True)
class VirtualPilotPlan:
    """Virtual-pilot spacings and the resulting pilot grids.

    l_f and l_t are the subcarrier and block spacings; freq_idx/time_idx are
    the pilot positions on an n_fft grid and a block_len window.
    """

    l_f: int
    l_t: int
    k_f: int
    k_t: int
    n_fft: int
    block_len: int
    freq_idx: np.ndarray
    time_idx: np.ndarray


@dataclass(frozen=True)
class WienerFilter:
    """Precomputed MMSE interpolator for one domain.

    coefficients maps pilot samples to the full axis; for frequency filters
    the phase vectors shift the effective delay profile to zero mean so the
    system is (near-)real, and are undone on application.
    """

    domain: str
    coefficients: np.ndarray
    pilot_idx: np.ndarray
    residual_mse: float
    input_err_var: float
    phase_in: np.ndarray | None = None
    phase_out: np.ndarray | None = None


def _window_sum(arr: np.ndarray, back: int, fwd: int, axis: int) -> np.ndarray:
    """Sliding sum over [i-back, i+fwd] along axis, truncated at the edges."""
    if back == 0 and fwd == 0:
        return np.copy(arr)
    a = np.moveaxis(np.asarray(arr), axis, -1)
    n = a.shape[-1]
    zero = np.zeros(a.shape[:-1] + (1,), dtype=a.dtype)
    cs = np.concatenate([zero, np.cumsum(a, axis=-1)], axis=-1)
    hi = np.minimum(np.arange(n) + fwd + 1, n)
    lo = np.maximum(np.arange(n) - back, 0)
    return np.moveaxis(cs[..., hi] - cs[..., lo], -1, axis)


def _finish(num, cnt, wsum, noise_var):
    ok = cnt > 0.5
    safe = np.where(ok, cnt, 1.0)
    values = np.where(ok, num / safe, 0.0)
    var = np.where(ok, noise_var * wsum / safe**2, np.inf)
    eps = float(var[ok].mean()) if ok.any() else float("inf")
    return Refined(values=values, per_bin_var=var, eps=eps, mask=ok)


def ma_1d(
    values: np.ndarray,
    m: int,
    *,
    mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    noise_var: float = 0.0,
) -> Refined:
    """Moving average across subcarriers.

    Windows are centered (even m rounds up to the next odd), truncate at the
    band edges, exclude masked bins, and divide by the live bin count.  The
    per-bin variance is noise_var times the window's summed weights over the
    squared count; eps averages it over bins that had any live neighbor.
    """
    values = np.asarray(values)
    if m < 1:
        raise ValueError("window length must be positive")
    if m % 2 == 0:
        m += 1
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    if weights is None:
        weights = np.ones(values.shape, dtype=np.float64)
    half = (m - 1) // 2
    mv = mask.astype(np.float64)
    num = _window_sum(values * mv, half, half, -1)
    cnt = np.round(_window_sum(mv, half, half, -1))
    wsum = _window_sum(weights * mv, half, half, -1)
    return _finish(num, cnt, wsum, noise_var)


def ma_2d(
    values: np.ndarray,
    m_t: int,
    m_f: int,
    *,
    mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    noise_var: float = 0.0,
) -> Refined:
    """Moving average over a block-by-subcarrier window.

    The frequency window is centered (odd, rounded up); the time window may
    be even, in which case it reaches one block further into the past:
    m_t = 2 averages blocks {i-1, i}.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("expected a (num_blocks, n_fft) grid")
    if m_t < 1 or m_f < 1:
        raise ValueError("window lengths must be positive")
    if m_f % 2 == 0:
        m_f += 1
    back = m_t // 2
    fwd = (m_t - 1) // 2
    half = (m_f - 1) // 2
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    if weights is None:
        weights = np.ones(values.shape, dtype=np.float64)
    mv = mask.astype(np.float64)

    def wsum2(a):
        return _window_sum(_window_sum(a, back, fwd, 0), half, half, 1)

    num = wsum2(values * mv)
    cnt = np.round(wsum2(mv))
    wsum = wsum2(weights * mv)
    return _finish(num, cnt, wsum, noise_var)


def plan_pilots(
    n_fft: int,
    cir_len: int,
    block_len: int,
    fd_hz: float,
    tb_s: float,
    m: int,
    m_t: int,
) -> VirtualPilotPlan:
    """Choose virtual-pilot spacings within the two-dimensional sampling rules.

    The CFR sampled every l_f subcarriers resolves a cir_len-tap response only
    if l_f * cir_len / n_fft <= 1/4; likewise l_t * fd * tb <= 1/4 across
    blocks.  Spacings take the averaging window lengths, capped by the rules.
    """
    if min(n_fft, cir_len, block_len, m, m_t) < 1:
        raise ValueError("all plan dimensions must be positive")
    f_cap = n_fft // (4 * cir_len)
    if f_cap < 1:
        raise ConstraintError(
            f"frequency sampling rule unsatisfiable: n_fft={n_fft} allows no "
            f"pilot spacing for a {cir_len}-tap response; increase the FFT "
            "size or shorten the CIR assumption"
        )
    l_f = min(m, f_cap)
    nyq = fd_hz * tb_s
    if nyq > 0:
        t_cap = int(1.0 / (4.0 * nyq))
        if t_cap < 1:
            raise ConstraintError(
                f"time sampling rule unsatisfiable: fd*tb={nyq:.4g} exceeds 1/4"
            )
        l_t = min(m_t, t_cap)
    else:
        l_t = m_t
    k_f = n_fft // l_f
    k_t = block_len // l_t
    return VirtualPilotPlan(
        l_f=l_f,
        l_t=l_t,
        k_f=k_f,
        k_t=k_t,
        n_fft=n_fft,
        block_len=block_len,
        freq_idx=np.arange(k_f) * l_f,
        time_idx=np.arange(k_t) * l_t,
    )


def build_wiener(
    domain: str,
    plan: VirtualPilotPlan,
    *,
    input_err_var: float,
    profile: PowerDelayProfile | None = None,
    design_len: int | None = None,
    fd_hz: float = 0.0,
    tb_s: float = 0.0,
) -> WienerFilter:
    """Solve the regularized MMSE interpolation system for one domain.

    Frequency filters take their correlation from a measured delay profile
    or, by default, a uniform profile over [0, design_len); a phase-center
    shift moves the profile centroid to delay zero, which makes the uniform
    system real-symmetric and better conditioned.  Time filters use the
    Jakes block correlation.  Both priors are stationary, so the correlation
    is evaluated once over the 2n-1 lags of an n-point axis and indexed into
    the pilot system and the pilot-to-output cross-correlation.

    input_err_var is used exactly as given; zero gets a trace-scaled jitter
    on the diagonal so the solve stays finite.  One Cholesky factorization
    yields both the coefficients and the residual MSE, and a system that is
    not positive definite raises numpy.linalg.LinAlgError.
    """
    if input_err_var < 0:
        raise ValueError("input_err_var must be nonnegative")
    if domain == "freq":
        n_out = plan.n_fft
        pil = plan.freq_idx
        if profile is not None:
            delays = profile.delays.astype(np.float64)
            powers = profile.powers
        else:
            if design_len is None or design_len < 1:
                raise ValueError("design_len required for the uniform-profile mode")
            delays = np.arange(design_len, dtype=np.float64)
            powers = np.full(design_len, 1.0 / design_len)
        center = float(powers @ delays)
        lags = np.arange(1 - n_out, n_out)
        r = np.exp(-2j * np.pi * np.multiply.outer(lags, delays - center) / n_out) @ powers
        phase_in = np.exp(2j * np.pi * pil * center / n_out)
        phase_out = np.exp(2j * np.pi * np.arange(n_out) * center / n_out)
    elif domain == "time":
        n_out = plan.block_len
        pil = plan.time_idx
        if fd_hz < 0 or tb_s < 0:
            raise ValueError("fd_hz and tb_s must be nonnegative")
        r = r_t(np.arange(1 - n_out, n_out), fd_hz, tb_s).astype(np.complex128)
        phase_in = None
        phase_out = None
    else:
        raise ValueError(f"unknown filter domain {domain!r}")

    # r[q + n_out - 1] is the correlation at lag q
    k = pil.size
    phi = r[pil[:, None] - pil[None, :] + n_out - 1] + input_err_var * np.eye(k)
    if input_err_var == 0.0:
        phi = phi + (1e-12 * np.trace(phi).real / k) * np.eye(k)
    theta = r[np.arange(n_out)[None, :] - pil[:, None] + n_out - 1]

    x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(np.conj(phi)), theta)
    quad = np.einsum("pk,pk->k", theta, np.conj(x)).real
    resid = np.maximum(r[n_out - 1].real - quad, 0.0)

    return WienerFilter(
        domain=domain,
        coefficients=x.T,
        pilot_idx=pil.copy(),
        residual_mse=float(resid.mean()),
        input_err_var=float(input_err_var),
        phase_in=phase_in,
        phase_out=phase_out,
    )


def _impute_invalid(values: np.ndarray, mask: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Replace invalid pilots by linear interpolation from valid neighbors."""
    v = np.atleast_2d(values).copy()
    mk = np.atleast_2d(mask)
    for i in range(v.shape[0]):
        good = mk[i]
        if good.all():
            continue
        if not good.any():
            v[i] = 0.0
            continue
        xp = positions[good]
        v[i, ~good] = np.interp(positions[~good], xp, v[i, good].real) + 1j * np.interp(
            positions[~good], xp, v[i, good].imag
        )
    return v.reshape(values.shape)


def wiener_1d(
    pilot_values: np.ndarray,
    filt: WienerFilter,
    pilot_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Interpolate pilot samples onto the full axis with a prebuilt filter.

    Invalid pilots (pilot_mask False) are imputed from their valid
    neighbors first; a row with no valid pilot at all comes back as zeros.
    The output MSE is the filter's residual_mse.
    """
    v = np.asarray(pilot_values, dtype=np.complex128)
    if v.shape[-1] != filt.pilot_idx.size:
        raise ValueError(
            f"expected {filt.pilot_idx.size} pilots on the last axis, got {v.shape[-1]}"
        )
    if pilot_mask is not None and not np.all(pilot_mask):
        v = _impute_invalid(v, pilot_mask, filt.pilot_idx)
    if filt.phase_in is not None:
        v = v * filt.phase_in
    out = v @ filt.coefficients.T
    if filt.phase_out is not None:
        out = out * np.conj(filt.phase_out)
    return out


def wiener_2x1d(
    pilot_grid: np.ndarray,
    freq_filter: WienerFilter,
    time_filter: WienerFilter,
    pilot_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Separable interpolation of a (k_t, k_f) pilot grid to (block_len, n_fft).

    One frequency pass per pilot block, then one time pass per subcarrier.
    """
    grid = np.asarray(pilot_grid, dtype=np.complex128)
    if grid.ndim != 2:
        raise ValueError("expected a (k_t, k_f) pilot grid")
    if grid.shape[0] != time_filter.pilot_idx.size:
        raise ValueError(
            f"expected {time_filter.pilot_idx.size} pilot blocks, got {grid.shape[0]}"
        )
    freq_full = wiener_1d(grid, freq_filter, pilot_mask)
    return time_filter.coefficients @ freq_full
