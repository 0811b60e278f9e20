"""Noise suppression on instantaneous CFR estimates: moving averages and
Wiener interpolation from virtual pilots."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import PowerDelayProfile, cfr, r_t


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

    v @ coefficients.T maps k pilot samples v to the outputs: the block_len
    blocks for a time filter, or for a frequency filter the channel taps at
    delays 0 .. L-1, whose DFT fills the n_fft grid (n_fft is None for time
    filters).  residual_mse is the interpolation MSE averaged over the full
    axis.
    """

    coefficients: np.ndarray
    pilot_idx: np.ndarray
    residual_mse: float
    n_fft: int | None = None


def _window_sum(arr: np.ndarray, back: int, fwd: int, axis: int) -> np.ndarray:
    """Sliding sum over [i-back, i+fwd] along axis, truncated at the edges.

    Each sum is a difference of two prefix sums.  The positions whose
    window lies inside the axis and starts after its first element take
    one slice subtraction; the at most back + fwd + 1 others, near the
    edges, are filled one at a time.
    """
    if back == 0 and fwd == 0:
        return arr
    a = np.asarray(arr)
    n = a.shape[axis]
    # the axis leads in these views, so cs[j] and out[i] are whole slices
    cs = np.moveaxis(np.cumsum(a, axis=axis), axis, 0)  # cs[j] = a[0] + ... + a[j]
    out = np.empty_like(cs)
    lo, hi = back + 1, max(n - fwd, back + 1)
    np.subtract(cs[lo + fwd : hi + fwd], cs[: hi - lo], out=out[lo:hi])
    for i in range(min(lo, n)):
        out[i] = cs[min(i + fwd, n - 1)]
    for i in range(hi, n):
        out[i] = cs[n - 1] - cs[i - lo]
    return np.moveaxis(out, 0, axis)


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
    blocks.  Spacings take the averaging window lengths, capped by the rules,
    and a block of block_len symbols must hold at least one time pilot.
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
    if nyq > 0.25:
        raise ConstraintError(f"time sampling rule unsatisfiable: fd*tb={nyq:.4g} exceeds 1/4")
    # min() before int(): 0.25 / nyq overflows to inf for a subnormal fd*tb
    l_t = int(min(m_t, 0.25 / nyq)) if nyq > 0 else m_t
    k_f = n_fft // l_f
    k_t = block_len // l_t
    if k_t < 1:
        raise ConstraintError(
            f"time pilot spacing {l_t} exceeds block_len={block_len}, so a block "
            "holds no time pilot; lengthen block_len or shorten M_t"
        )
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

    Frequency filters estimate the taps of a prior made of a measured delay
    profile or, by default, a uniform profile over [0, design_len); their
    outputs are taps, which wiener_1d and wiener_2x1d expand onto the
    n_fft grid.  Time filters use the Jakes block correlation.

    input_err_var is used exactly as given; zero gets a jitter of 1e-12
    times the prior power r(0) so the solve stays finite.  A prior that is
    not a correlation raises numpy.linalg.LinAlgError.
    """
    if input_err_var < 0:
        raise ValueError("input_err_var must be nonnegative")
    if domain == "freq":
        if profile is not None:
            delays, powers = profile.delays, profile.powers
        else:
            if design_len is None or design_len < 1:
                raise ValueError("design_len required for the uniform-profile mode")
            delays = np.arange(design_len)
            powers = np.full(design_len, 1.0 / design_len)
        return _freq_wiener(plan, input_err_var, delays, powers)
    if domain == "time":
        if fd_hz < 0 or tb_s < 0:
            raise ValueError("fd_hz and tb_s must be nonnegative")
        return _time_wiener(plan, input_err_var, fd_hz, tb_s)
    raise ValueError(f"unknown filter domain {domain!r}")


def _freq_wiener(plan, input_err_var, delays, powers) -> WienerFilter:
    """Frequency design in the prior's delay domain: pilots -> D taps.

    The prior is D complex exponentials on the grid; delays that coincide
    modulo n_fft are one exponential and are merged.  With U = exp(j 2 pi
    pil delays / n_fft) sqrt(P) on the k pilots, ridge s and M = U^H U + s I,
    the MMSE tap estimate from pilot row v is v U M^-1 sqrt(P): one D x D
    solve, scattered onto rows 0 .. L-1 of the integer delays.  Its DFT is
    the MMSE interpolator on the n_fft outputs, whose mean residual is
    s tr(M^-1 P).  See Edfors et al., IEEE Trans. Commun. 46(7), 1998.
    """
    n_fft, pil = plan.n_fft, plan.freq_idx
    if np.any(powers < 0):
        raise np.linalg.LinAlgError("a delay profile with a negative power is not a correlation")
    delays, tap = np.unique(delays % n_fft, return_inverse=True)
    powers = np.bincount(tap, weights=powers)
    sq = np.sqrt(powers)
    u = np.exp(2j * np.pi * (np.multiply.outer(pil, delays) % n_fft) / n_fft) * sq
    ridge = input_err_var if input_err_var > 0 else 1e-12 * powers.sum()
    eye = np.eye(delays.size)
    m_inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(u.conj().T @ u + ridge * eye), eye)
    coefficients = np.zeros((delays[-1] + 1, pil.size), dtype=np.complex128)
    coefficients[delays] = ((u @ m_inv) * sq).T
    return WienerFilter(
        coefficients=coefficients,
        pilot_idx=pil.copy(),
        residual_mse=float(ridge * (np.diag(m_inv).real @ powers)),
        n_fft=n_fft,
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


def _pilot_product(pilot_values, filt: WienerFilter, pilot_mask) -> np.ndarray:
    """Check the pilot count, impute invalid pilots, and apply the coefficients."""
    v = np.asarray(pilot_values, dtype=np.complex128)
    if v.shape[-1] != filt.pilot_idx.size:
        raise ValueError(
            f"expected {filt.pilot_idx.size} pilots on the last axis, got {v.shape[-1]}"
        )
    if pilot_mask is not None and not np.all(pilot_mask):
        v = _impute_invalid(v, pilot_mask, filt.pilot_idx)
    return v @ filt.coefficients.T


def wiener_1d(
    pilot_values: np.ndarray,
    filt: WienerFilter,
    pilot_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Interpolate pilot samples onto the full axis with a prebuilt filter.

    A frequency filter's taps come back as their n_fft-point DFT.  Invalid
    pilots (pilot_mask False) are imputed from their valid neighbors first;
    a row with no valid pilot at all comes back as zeros.  The output MSE is
    the filter's residual_mse.
    """
    out = _pilot_product(pilot_values, filt, pilot_mask)
    return out if filt.n_fft is None else cfr(out, filt.n_fft)


def wiener_2x1d(
    pilot_grid: np.ndarray,
    freq_filter: WienerFilter,
    time_filter: WienerFilter,
    pilot_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Separable interpolation of a (k_t, k_f) pilot grid to (block_len, n_fft).

    The taps of each pilot block, then the time pass over the (k_t, L) taps,
    then one DFT per block: the time pass commutes with the DFT, so it runs
    on L columns instead of n_fft.
    """
    grid = np.asarray(pilot_grid, dtype=np.complex128)
    if grid.ndim != 2:
        raise ValueError("expected a (k_t, k_f) pilot grid")
    if grid.shape[0] != time_filter.pilot_idx.size:
        raise ValueError(
            f"expected {time_filter.pilot_idx.size} pilot blocks, got {grid.shape[0]}"
        )
    taps = _pilot_product(grid, freq_filter, pilot_mask)
    return cfr(time_filter.coefficients @ taps, freq_filter.n_fft)
