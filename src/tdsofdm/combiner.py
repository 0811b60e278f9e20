"""MMSE combining of PN-based and data-aided estimates, and the receiver loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .channel import PowerDelayProfile, cfr
from .modulation import constellation, hard_decisions
from .phy import FrameGrid, equalize, ola, remove_pn
from .pn_estimator import (
    CfrEstimate,
    cir_from_cfr,
    ls_pn,
    mean_interference_power,
    window_leak_variance,
)
from .refiners import (
    ConstraintError,
    build_wiener,
    ma_1d,
    ma_2d,
    time_wiener,
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
    """Per-iteration receiver diagnostics; index 0 is the PN-only stage.

    Every entry is a float, so no frame array outlives its iteration.  eps
    has one entry per iteration; mse fills only when iterate is given
    truth_taps and ber, the uncoded bit error rate of each iteration's
    equalized grid, only when it is given truth_bits.  h2_eps and h2_mse
    describe the refined data-aided estimate and start at iteration 1.
    """

    eps: list[float] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)
    h2_eps: list[float] = field(default_factory=list)
    h2_mse: list[float] = field(default_factory=list)
    ber: list[float] = field(default_factory=list)


def combine(h1: CfrEstimate, h2: CfrEstimate) -> CfrEstimate:
    """Variance-weighted convex combination of two estimates.

    The weight on h1 is eps2/(eps1+eps2) and the combined MSE is the
    harmonic term eps1*eps2/(eps1+eps2); two exact inputs combine with
    equal weights.  Bins masked out of h2 fall back to h1 alone.  When both
    carry taps, their taps blend with the same weight and the same
    fallback, the shorter zero-padded, and the result carries them.
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
    taps = None
    if h1.taps is not None and h2.taps is not None:
        length = max(h1.taps.shape[-1], h2.taps.shape[-1])
        t1 = _widen(h1.taps, length)
        taps = beta * t1 + (1.0 - beta) * _widen(h2.taps, length)
    if h2.mask is not None and not h2.mask.all():
        values = np.where(h2.mask, values, v1)
        if taps is not None:
            if h2.mask.shape[-1] != 1:
                raise ValueError("a tap-carrying estimate must mask whole rows")
            taps = np.where(h2.mask, taps, t1)
    return CfrEstimate(values=values, eps=float(eps), taps=taps)


def _widen(taps: np.ndarray, length: int) -> np.ndarray:
    """taps zero-padded on the last axis to length."""
    out = np.zeros(taps.shape[:-1] + (length,), dtype=np.complex128)
    out[..., : taps.shape[-1]] = taps
    return out


def check_sampling_rules(cfg: SimConfig, profile: PowerDelayProfile, n_fft: int) -> None:
    """Raise ConstraintError when cfg's Wiener refiner cannot sample the channel.

    Both rules depend on the config alone, so a sweep checks them before
    its first trial and iterate before its PN stage.  An estimator that
    runs no Wiener pass, or no iteration, checks nothing; only wiener2x1d
    checks the time rule.
    """
    if not cfg.estimator.startswith("wiener") or cfg.iterations == 0:
        return
    # n_fft subcarriers resolve any channel of up to n_fft taps; at most
    # n_fft / 4 bounds the frequency residual s sum P_d / (n P_d + s) by
    # s L / n, a quarter of the input error s.  The rule reads the
    # deployment channel whatever the prior, so cir_len has no say in it
    if 4 * profile.length > n_fft:
        raise ConstraintError(
            f"frequency sampling rule unsatisfiable: the {profile.length}-tap channel "
            f"exceeds n_fft/4 = {n_fft / 4:g} taps; shorten sfn_delay_us or raise fft_size"
        )
    # every block is a sample of the fading, so Nyquist asks fd*tb < 1/2;
    # 1/4 keeps a 2x margin.  It binds only when a time pass follows
    nyq = cfg.fd_hz * cfg.tb_s
    if cfg.estimator == "wiener2x1d" and nyq > 0.25:
        raise ConstraintError(f"time sampling rule unsatisfiable: fd*tb={nyq:.4g} exceeds 1/4")


def _refine(
    inst: InstantEstimate, cfg: SimConfig, profile: PowerDelayProfile, n_fft: int, noise_var: float
) -> CfrEstimate:
    """Run cfg.estimator, one of REFINERS, on an instantaneous estimate.

    ma1d and ma2d smooth with a moving average over (1, m_f) and
    (m_t, m_f) blocks by subcarriers.  wiener1d and wiener2x1d take every
    reliable cell as a pilot: per chunk of blocks, the cells' mean error
    variance sets a frequency design and pass, and for wiener2x1d a time
    design and pass follow.  The Wiener estimates carry their taps and
    mask whole rows: wiener1d blocks that had no reliable cell, wiener2x1d
    chunks that had none.  Only wiener2x1d splits the frame into chunks of
    cfg.block_len blocks.  The frame may hold any number of blocks that
    cfg.block_len divides.  check_sampling_rules is the caller's.
    """
    name = cfg.estimator
    s = inst.values.shape[0]
    timed = name == "wiener2x1d"
    b = cfg.block_len if timed else s
    if s % b:
        raise ValueError(f"block_len {b} does not divide {s} symbols")
    if not name.startswith("wiener"):
        kw = dict(mask=inst.mask, weights=inst.weights, noise_var=noise_var)
        if name == "ma2d":
            return ma_2d(inst.values, cfg.m_t, cfg.m_f, **kw)
        return ma_1d(inst.values, cfg.m_f, **kw)

    # the frequency prior is the deployment profile or a uniform one over
    # the longest channel the receiver is dimensioned for (cir_len)
    uniform = PowerDelayProfile(np.arange(cfg.cir_len), np.full(cfg.cir_len, 1.0 / cfg.cir_len))
    prior = profile if cfg.corr_mode == "profile" else uniform

    taps = np.zeros((s, prior.length), dtype=np.complex128)
    mask = np.zeros((s, 1), dtype=bool)
    eps_parts = []
    for c0 in range(0, s, b):
        sl = slice(c0, c0 + b)
        live = inst.mask[sl]
        if not live.any():
            eps_parts.append(float("inf"))
            continue
        err_var = float(np.mean(noise_var * inst.weights[sl][live]))
        gains, resid = build_wiener(n_fft, input_err_var=err_var, profile=prior)
        if timed:
            smoother, resid = time_wiener(b, input_err_var=resid, fd_hz=cfg.fd_hz, tb_s=cfg.tb_s)
            taps[sl] = wiener_2x1d(inst.values[sl], gains, smoother, live)
            mask[sl] = True
        else:
            taps[sl] = wiener_1d(inst.values[sl], gains, live)
            mask[sl] = live.any(axis=-1, keepdims=True)
        eps_parts.append(resid)
    return CfrEstimate(values=cfr(taps, n_fft), eps=float(np.mean(eps_parts)), mask=mask, taps=taps)


def _scorer(truth_taps: np.ndarray, n_fft: int) -> Callable[[CfrEstimate], float]:
    """The MSE per subcarrier of an estimate against the true taps.

    A tap-carrying estimate is scored on its taps: by Parseval, the mean
    of |DFT(delta)|^2 over n_fft subcarriers is L times the mean of
    |delta|^2 over L taps.  Any other estimate is scored on its values,
    against the true CFR, formed on first use and kept.
    """
    truth_cfr = None

    def score(est: CfrEstimate) -> float:
        nonlocal truth_cfr
        if est.taps is not None:
            length = max(est.taps.shape[-1], truth_taps.shape[-1])
            err = np.abs(_widen(est.taps, length) - _widen(truth_taps, length))
            return length * float(np.mean(np.square(err, out=err)))
        if truth_cfr is None:
            truth_cfr = cfr(truth_taps, n_fft)
        err = np.abs(est.values - truth_cfr)
        return float(np.mean(np.square(err, out=err)))

    return score


def _data_aided(
    z: FrameGrid, y: np.ndarray, est: CfrEstimate, h1: CfrEstimate, gi: PnSequence, cfg: SimConfig,
    profile: PowerDelayProfile, noise_var: float, diag: IterationDiag,
    score: Callable[[CfrEstimate], float] | None,
) -> CfrEstimate:
    """The data-aided half of one iteration: the next combined estimate.

    Demaps z under the current estimate est, rebuilds soft symbols,
    re-estimates from the OLA grid y, refines and combines with the PN
    estimate h1.  The soft symbols, the instantaneous and the refined
    estimates are locals, so they die when it returns.
    """
    c = constellation(cfg.constellation)
    n = y.shape[-1]
    tap_err = np.full(cfg.cir_len, est.eps / cfg.cir_len)
    sigma_eff = (n + gi.nu) / n * noise_var + mean_interference_power(gi, tap_err, n)
    # the soft symbols die once the instantaneous estimate is formed
    inst = instantaneous_estimate(soft_symbols(demap(z, est.values, sigma_eff, c), c), y, c)
    h2 = _refine(inst, cfg, profile, n, sigma_eff)
    diag.h2_eps.append(h2.eps)
    if score is not None:
        diag.h2_mse.append(score(h2))
    return combine(h1, h2)


def iterate(
    rx: np.ndarray,
    gi: PnSequence,
    cfg: SimConfig,
    profile: PowerDelayProfile,
    noise_var: float,
    truth_taps: np.ndarray | None = None,
    initial: CfrEstimate | None = None,
    truth_bits: np.ndarray | None = None,
) -> tuple[CfrEstimate, FrameGrid, IterationDiag]:
    """Run the full estimation loop of cfg.estimator on one received frame.

    Iteration 0 is the PN LS stage alone; each of the cfg.iterations
    further iterations of a refiner (pn and genie run none) removes the
    guard with the current estimate, equalizes, rebuilds soft symbols,
    re-estimates, refines, and combines with the PN estimate.  The grid of
    each iteration is equalized with that iteration's final estimate after
    refreshing the guard removal with it.  Guard removal reads the first
    cfg.cir_len taps the estimate carries, and inverts its values only for
    an estimate without taps.  rx is the received frame of phy.propagate,
    one row per block and the closing guard's row last.  cfg is a resolved
    config; profile is the deployment profile the Wiener refiners check
    and design for.  check_sampling_rules runs before the PN stage.

    Returns the final estimate, the final iteration's grid and the
    diagnostics.  Only the final grid is returned: each iteration's grid is
    scored as it is made and then dropped.  truth_taps, the true channel's
    taps with one row per block (or one row for all), adds each
    iteration's MSE to the diagnostics, scored on the taps of an estimate
    that carries them; truth_bits, the frame's bits in map_bits order, adds
    its uncoded BER.  Neither changes the estimates.  initial, when given,
    replaces the PN LS stage (exact-start and genie studies).
    """
    if cfg.estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {cfg.estimator!r}; expected one of {ESTIMATORS}")
    iterations = cfg.iterations if cfg.estimator in REFINERS else 0
    c = constellation(cfg.constellation)
    nu = gi.nu
    n = rx.shape[1] - nu
    if n <= 0:
        raise ValueError("blocks shorter than the guard interval")
    check_sampling_rules(cfg, profile, n)

    if initial is not None:
        h1 = initial
    else:
        cores = rx[:-1, gi.core_offset : gi.core_offset + gi.n_pn]
        # channel tails beyond the core offset act as extra white noise in
        # the correlation window; fold them into the LS error model
        leak_var = window_leak_variance(gi, profile.dense_powers())
        h1 = ls_pn(cores, gi, cfg.cir_len, noise_var + leak_var, n)

    score = None if truth_taps is None else _scorer(np.asarray(truth_taps), n)
    est = h1
    diag = IterationDiag()
    for it in range(iterations + 1):
        if it > 0:
            est = _data_aided(z, y, est, h1, gi, cfg, profile, noise_var, diag, score)
        if est.taps is None:
            cir = cir_from_cfr(est.values, cfg.cir_len)
        else:
            cir = est.taps[..., : cfg.cir_len]
        # the guard-free frame dies once it is folded and demodulated
        y = ola(remove_pn(rx, gi, cir), nu)
        z = equalize(y, est.values)
        diag.eps.append(est.eps)
        if score is not None:
            diag.mse.append(score(est))
        if truth_bits is not None:
            diag.ber.append(float(np.mean(hard_decisions(z.data, c) != truth_bits)))

    return est, z, diag
