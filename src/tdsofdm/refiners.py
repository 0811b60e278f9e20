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
    """MMSE interpolator for one domain.

    coefficients is the (n_out, k) matrix that maps the k pilot samples to
    the full axis, and residual_mse the interpolation MSE averaged over the
    n_out outputs; for frequency filters the phase vectors shift the
    effective delay profile to zero mean so the system is (near-)real, and
    are undone on application.
    """

    coefficients: np.ndarray
    pilot_idx: np.ndarray
    residual_mse: float
    phase_in: np.ndarray | None = None
    phase_out: np.ndarray | None = None


def _window_sum(arr: np.ndarray, back: int, fwd: int, axis: int) -> np.ndarray:
    """Sliding sum over [i-back, i+fwd] along axis, truncated at the edges."""
    if back == 0 and fwd == 0:
        return arr
    a = np.moveaxis(np.asarray(arr), axis, -1)
    n = a.shape[-1]
    zero = np.zeros(a.shape[:-1] + (1,), dtype=a.dtype)
    cs = np.concatenate([zero, np.cumsum(a, axis=-1)], axis=-1)
    hi = np.minimum(np.arange(n) + fwd + 1, n)
    lo = np.maximum(np.arange(n) - back, 0)
    return np.moveaxis(cs[..., hi] - cs[..., lo], -1, axis)


def _moving_average(values, m_t, m_f, mask, weights, noise_var) -> Refined:
    """Masked moving average over a block-by-subcarrier window.

    The frequency window on the last axis is centered (even m_f rounds up
    to the next odd); the block window on axis 0 reaches m_t // 2 blocks
    back and (m_t - 1) // 2 forward.  Windows truncate at the edges, skip
    masked bins and divide by the live bin count; the per-bin variance is
    noise_var times the window's summed weights over the squared count, and
    eps averages it over bins that had any live neighbor.
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
    var = np.where(ok, noise_var * wsum(weights * mv) / safe**2, np.inf)
    eps = float(var[ok].mean()) if ok.any() else float("inf")
    return Refined(values=out, per_bin_var=var, eps=eps, mask=ok)


def ma_1d(
    values: np.ndarray,
    m: int,
    *,
    mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    noise_var: float = 0.0,
) -> Refined:
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
) -> Refined:
    """Moving average over an (m_t, m_f) block-by-subcarrier window.

    An even m_t reaches one block further into the past: m_t = 2 averages
    blocks {i-1, i}.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("expected a (num_blocks, n_fft) grid")
    return _moving_average(values, m_t, m_f, mask, weights, noise_var)


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
    system real-symmetric.  Time filters use the Jakes block correlation.

    input_err_var is used exactly as given; zero gets a jitter of 1e-12
    times the prior power r(0) so the solve stays finite.  A prior that is
    not a correlation raises numpy.linalg.LinAlgError.
    """
    if input_err_var < 0:
        raise ValueError("input_err_var must be nonnegative")
    if domain == "freq":
        if profile is not None:
            delays = profile.delays.astype(np.float64)
            powers = profile.powers
        else:
            if design_len is None or design_len < 1:
                raise ValueError("design_len required for the uniform-profile mode")
            delays = np.arange(design_len, dtype=np.float64)
            powers = np.full(design_len, 1.0 / design_len)
        return _freq_wiener(plan, input_err_var, delays, powers)
    if domain == "time":
        if fd_hz < 0 or tb_s < 0:
            raise ValueError("fd_hz and tb_s must be nonnegative")
        return _time_wiener(plan, input_err_var, fd_hz, tb_s)
    raise ValueError(f"unknown filter domain {domain!r}")


def _freq_wiener(plan, input_err_var, delays, powers) -> WienerFilter:
    """Frequency design in the prior's delay domain: one D x D solve.

    The prior is D complex exponentials.  With w = 2 pi (delays - center)
    / n_fft, U = exp(j pil w) sqrt(P) on the k pilots, V = exp(j m w)
    sqrt(P) on the n_fft outputs m and the ridge s, conj(Phi) = U U^H + s I
    and Theta = U V^H, so the push-through identity gives the coefficients
    conj(Phi)^-1 Theta = U (U^H U + s I)^-1 V^H.  Delays that coincide
    modulo n_fft are one exponential on the grid and are merged; distinct
    ones make V^H V = n_fft P, so the output-mean residual r(0) - mean(
    Theta^H conj(Phi)^-1 Theta) is s tr((U^H U + s I)^-1 P).  See Edfors
    et al., IEEE Trans. Commun. 46(7), 1998.
    """
    n_out, pil = plan.n_fft, plan.freq_idx
    if np.any(powers < 0):
        raise np.linalg.LinAlgError("a delay profile with a negative power is not a correlation")
    center = float(powers @ delays)
    delays, tap = np.unique(delays % n_out, return_inverse=True)
    powers = np.bincount(tap, weights=powers)
    w = 2 * np.pi * (delays - center) / n_out
    sq = np.sqrt(powers)
    u = np.exp(1j * np.multiply.outer(pil, w)) * sq
    v = np.exp(1j * np.multiply.outer(np.arange(n_out), w)) * sq
    ridge = input_err_var if input_err_var > 0 else 1e-12 * powers.sum()
    eye = np.eye(w.size)
    m_inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(u.conj().T @ u + ridge * eye), eye)
    x = (u @ m_inv) @ v.conj().T
    return WienerFilter(
        coefficients=x.T,
        pilot_idx=pil.copy(),
        residual_mse=float(ridge * (np.diag(m_inv).real @ powers)),
        phase_in=np.exp(2j * np.pi * pil * center / n_out),
        phase_out=np.exp(2j * np.pi * np.arange(n_out) * center / n_out),
    )


def _time_wiener(plan, input_err_var, fd_hz, tb_s) -> WienerFilter:
    """Time design from the Jakes correlation over the 2n-1 block lags.

    One Cholesky factorization of the k x k pilot system yields both the
    coefficients and the residual's quadratic form.
    """
    n_out, pil = plan.block_len, plan.time_idx
    r = r_t(np.arange(1 - n_out, n_out), fd_hz, tb_s).astype(np.complex128)
    # r[q + n_out - 1] is the correlation at lag q
    k = pil.size
    phi = r[pil[:, None] - pil[None, :] + n_out - 1] + input_err_var * np.eye(k)
    if input_err_var == 0.0:
        phi = phi + (1e-12 * np.trace(phi).real / k) * np.eye(k)
    theta = r[np.arange(n_out)[None, :] - pil[:, None] + n_out - 1]

    x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(np.conj(phi)), theta)
    quad = np.einsum("pk,pk->k", theta, np.conj(x)).real
    resid = np.maximum(r[n_out - 1].real - quad, 0.0)
    return WienerFilter(coefficients=x.T, pilot_idx=pil.copy(), residual_mse=float(resid.mean()))


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
