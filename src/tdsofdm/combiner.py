"""MMSE combining of PN-based and data-aided estimates, and the receiver loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .channel import PowerDelayProfile
from .modulation import constellation
from .phy import FrameGrid, TimeSignal, equalize, ola, remove_pn
from .pn_estimator import (
    CfrEstimate,
    cir_from_cfr,
    ls_pn,
    mean_interference_power,
    window_leak_variance,
)
from .refiners import (
    build_wiener,
    ma_1d,
    ma_2d,
    plan_pilots,
    wiener_1d,
    wiener_2x1d,
)
from .sequences import PnSequence
from .soft_rebuild import InstantEstimate, demap, instantaneous_estimate, soft_symbols

if TYPE_CHECKING:
    from .harness import SimConfig

REFINERS = ("ma1d", "ma2d", "wiener1d", "wiener2x1d")
ESTIMATORS = ("genie", "pn") + REFINERS


@dataclass
class IterationDiag:
    """Per-iteration receiver diagnostics; index 0 is the PN-only stage."""

    eps: list[float] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)
    h2_eps: list[float] = field(default_factory=list)
    h2_mse: list[float] = field(default_factory=list)
    z_grids: list[FrameGrid] = field(default_factory=list)


def combine(h1: CfrEstimate, h2: CfrEstimate) -> CfrEstimate:
    """Variance-weighted convex combination of two estimates.

    The weight on h1 is eps2/(eps1+eps2) and the combined MSE is the
    harmonic term eps1*eps2/(eps1+eps2); two exact inputs combine with
    equal weights.  Bins masked out of h2 fall back to h1 alone.
    """
    v1 = np.asarray(h1.values)
    v2 = np.asarray(h2.values)
    if v1.shape != v2.shape:
        raise ValueError(f"shape mismatch: {v1.shape} vs {v2.shape}")
    e1, e2 = float(h1.eps), float(h2.eps)
    if e1 < 0 or e2 < 0:
        raise ValueError("eps must be nonnegative")
    if not np.isfinite(e2):
        beta, eps = 1.0, e1
    elif not np.isfinite(e1):
        beta, eps = 0.0, e2
    elif e1 == 0.0 and e2 == 0.0:
        beta, eps = 0.5, 0.0
    else:
        beta = e2 / (e1 + e2)
        eps = e1 * e2 / (e1 + e2)
    values = beta * v1 + (1.0 - beta) * v2
    if h2.mask is not None and not h2.mask.all():
        values = np.where(h2.mask, values, v1)
    return CfrEstimate(values=values, eps=float(eps))


def _refine(
    inst: InstantEstimate, cfg: SimConfig, profile: PowerDelayProfile, n_fft: int, noise_var: float
) -> CfrEstimate:
    """Run cfg.estimator, one of REFINERS, on an instantaneous estimate.

    All four refiners share one pipeline, run per chunk of blocks:
    moving-average smoothing, which the Wiener refiners evaluate at their
    virtual pilots alone, then for those the pilots' pooled error variance,
    a frequency design and pass, and for wiener2x1d a time design and pass.
    They differ only in the smoothing window ((1, m_f) for ma1d and
    wiener1d, (m_t, m_f) for ma2d and wiener2x1d), in whether the time pass
    follows, and in the mask: wiener1d masks blocks that had no valid pilot,
    wiener2x1d masks chunks whose pilots were all invalid.  Only wiener2x1d
    splits the frame into chunks of cfg.block_len blocks, and only it plans
    its pilots under the time sampling rule.  The frame may hold any number
    of blocks that cfg.block_len divides.
    """
    name = cfg.estimator
    s = inst.values.shape[0]
    two_d = name in ("ma2d", "wiener2x1d")
    timed = name == "wiener2x1d"
    m_t, m_f = (cfg.m_t if two_d else 1), cfg.m_f
    b = cfg.block_len if timed else s
    if s % b:
        raise ValueError(f"block_len {b} does not divide {s} symbols")
    plan = at = None
    if name.startswith("wiener"):
        # pilot spacing follows the deployment's channel length; the time
        # sampling rule binds only when a time pass follows
        fd_hz = cfg.fd_hz if timed else 0.0
        plan = plan_pilots(n_fft, profile.length, b, fd_hz, cfg.tb_s, m_f, m_t)
        at = (plan.time_idx, plan.freq_idx)
    # the frequency prior is the deployment profile or a uniform one over
    # the longest channel the receiver is dimensioned for (cir_len)
    prior = profile if cfg.corr_mode == "profile" else None

    out = np.zeros_like(inst.values)
    mask = np.zeros(inst.values.shape, dtype=bool)
    eps_parts = []
    for c0 in range(0, s, b):
        sl = slice(c0, c0 + b)
        kw = dict(mask=inst.mask[sl], weights=inst.weights[sl], noise_var=noise_var, at=at)
        r = ma_2d(inst.values[sl], m_t, m_f, **kw) if two_d else ma_1d(inst.values[sl], m_f, **kw)
        if plan is None:
            out[sl], mask[sl] = r.values, r.mask
            eps_parts.append(r.eps)
            continue
        pv, pm = r.values, r.mask  # the (k_t, k_f) pilot lattice
        if not pm.any():
            eps_parts.append(float("inf"))
            continue
        ff = build_wiener("freq", plan, input_err_var=r.eps, profile=prior, design_len=cfg.cir_len)
        if timed:
            tf = build_wiener(
                "time", plan, input_err_var=ff.residual_mse, fd_hz=cfg.fd_hz, tb_s=cfg.tb_s
            )
            out[sl] = wiener_2x1d(pv, ff, tf, pm)
            mask[sl] = True
            eps_parts.append(tf.residual_mse)
        else:
            out[sl] = wiener_1d(pv, ff, pm)
            mask[sl] = pm.any(axis=-1)[:, None]
            eps_parts.append(ff.residual_mse)
    return CfrEstimate(values=out, eps=float(np.mean(eps_parts)), mask=mask)


def iterate(
    rx: TimeSignal,
    gi: PnSequence,
    cfg: SimConfig,
    profile: PowerDelayProfile,
    noise_var: float,
    truth_cfr: np.ndarray | None = None,
    initial: CfrEstimate | None = None,
) -> tuple[CfrEstimate, FrameGrid, IterationDiag]:
    """Run the full estimation loop of cfg.estimator on one received frame.

    Iteration 0 is the PN LS stage alone; each of the cfg.iterations
    further iterations of a refiner (pn and genie run none) removes the
    guard with the current estimate, equalizes, rebuilds soft symbols,
    re-estimates, refines, and combines with the PN estimate.  The reported
    grid of each iteration is equalized with that iteration's final estimate
    after refreshing the guard removal with it.  cfg is a resolved config;
    profile is the deployment profile the refiners plan and design for.

    truth_cfr feeds diagnostics only; initial, when given, replaces the PN
    LS stage (exact-start and genie studies).
    """
    if cfg.estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {cfg.estimator!r}; expected one of {ESTIMATORS}")
    iterations = cfg.iterations if cfg.estimator in REFINERS else 0
    c = constellation(cfg.constellation)
    nu = gi.nu
    n = rx.blocks.shape[1] - nu
    if n <= 0:
        raise ValueError("blocks shorter than the guard interval")

    if initial is not None:
        h1 = initial
    else:
        cores = rx.blocks[:, gi.core_offset : gi.core_offset + gi.n_pn]
        # channel tails beyond the core offset act as extra white noise in
        # the correlation window; fold them into the LS error model
        leak_var = window_leak_variance(gi, profile.dense_powers())
        h1 = ls_pn(cores, gi, cfg.cir_len, noise_var + leak_var, n)

    est = h1
    diag = IterationDiag()
    boost = (n + nu) / n
    for it in range(iterations + 1):
        if it > 0:
            tap_err = np.full(cfg.cir_len, est.eps / cfg.cir_len)
            sigma_eff = boost * noise_var + mean_interference_power(gi, tap_err, n)
            x_hat = soft_symbols(demap(z, est.values, sigma_eff, c), c)
            inst = instantaneous_estimate(x_hat, y, c)
            h2 = _refine(inst, cfg, profile, n, sigma_eff)
            diag.h2_eps.append(h2.eps)
            if truth_cfr is not None:
                diag.h2_mse.append(float(np.mean(np.abs(h2.values - truth_cfr) ** 2)))
            est = combine(h1, h2)

        cir = cir_from_cfr(est.values, cfg.cir_len)
        cleaned = remove_pn(rx, gi, cir)
        y = ola(cleaned)
        z = equalize(y, est.values)
        diag.eps.append(est.eps)
        diag.z_grids.append(z)
        if truth_cfr is not None:
            diag.mse.append(float(np.mean(np.abs(est.values - truth_cfr) ** 2)))

    return est, z, diag
