"""Fast built-in sanity checks for the CLI selftest subcommand."""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, preset_profile, r_t
from .combiner import combine
from .modulation import CONSTELLATIONS, constellation, hard_decisions, map_bits
from .phy import FrameGrid, assemble, equalize, ofdm_modulate, ola, propagate, remove_pn
from .pn_estimator import (
    CfrEstimate,
    analytic_mse_pn,
    interference_power,
    ls_pn,
    mean_interference_power,
)
from .refiners import build_wiener, plan_pilots
from .sequences import build_gi, generate_mseq
from .soft_rebuild import demap, soft_symbols
from .harness import resolve_config, run


def _check_mseq_autocorr() -> None:
    bits = generate_mseq(6)
    x = 1.0 - 2.0 * bits.astype(float)
    n = x.size
    for shift in range(1, n):
        corr = float(np.dot(x, np.roll(x, shift)))
        assert abs(corr + 1.0) < 1e-9, f"autocorrelation {corr} at shift {shift}"


def _check_ola_identity() -> None:
    rng = np.random.default_rng(7)
    n, nu = 64, 16
    gi = build_gi(generate_mseq(3), nu)
    c = constellation("qpsk")
    bits = rng.integers(0, 2, 4 * n * c.bits_per_symbol)
    x = map_bits(bits, c).reshape(4, n)
    tx = assemble(ofdm_modulate(x), gi)
    taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h = np.tile(taps, (5, 1))
    rx = propagate(tx, ChannelRealization(taps=h), 0.0, rng)
    y = ola(remove_pn(rx, gi, taps))
    want = np.fft.fft(taps, n) * x
    err = np.abs(y.data - want).max()
    assert err < 1e-9, f"OLA identity error {err}"


def _check_ls_mse() -> None:
    rng = np.random.default_rng(11)
    gi = build_gi(generate_mseq(6), 96)
    le, noise_var, trials = 4, 0.05, 400
    h = (rng.standard_normal(le) + 1j * rng.standard_normal(le)) / np.sqrt(2 * le)
    core = gi.core
    circ = np.array([np.roll(core, l) for l in range(le)]).T @ h
    acc = 0.0
    truth = np.fft.fft(h, 64)
    for _ in range(trials):
        w = (rng.standard_normal(core.size) + 1j * rng.standard_normal(core.size)) * np.sqrt(noise_var / 2)
        est = ls_pn(circ + w, gi, le, noise_var, 64)
        acc += float(np.mean(np.abs(est.values - truth) ** 2))
    emp = acc / trials
    ana = analytic_mse_pn(gi, le, noise_var)
    assert abs(emp - ana) / ana < 0.15, f"LS MSE {emp} vs closed form {ana}"


def _check_interference_mean() -> None:
    gi = build_gi(generate_mseq(4), 24)
    var = np.array([1e-3, 2e-3, 0.0, 5e-4])
    per_k = interference_power(gi, var, np.arange(64), 64)
    mean = mean_interference_power(gi, var, 64)
    assert abs(per_k.mean() - mean) < 1e-15 * max(mean, 1.0), "mean interference mismatch"


def _check_combiner() -> None:
    rng = np.random.default_rng(3)
    truth = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for e1, e2 in [(0.5, 0.1), (0.2, 0.2), (1e-3, 0.3)]:
        n1 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * np.sqrt(e1 / 2)
        n2 = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * np.sqrt(e2 / 2)
        h1 = CfrEstimate(truth + n1, e1)
        h2 = CfrEstimate(truth + n2, e2)
        out = combine(h1, h2)
        want = e1 * e2 / (e1 + e2)
        assert abs(out.eps - want) < 1e-12, "combined eps wrong"
        beta = e2 / (e1 + e2)
        assert np.allclose(out.values, beta * h1.values + (1 - beta) * h2.values)


def _check_bessel() -> None:
    assert abs(r_t(0, 10.0, 1e-3) - 1.0) < 1e-12
    # first zero of J0 at argument 2.404826
    arg = 2.404826 / (2 * np.pi)
    assert abs(r_t(1, arg, 1.0)) < 1e-6


def _check_wiener_design() -> None:
    # a flat channel is one tap, constant across the band: its estimate
    # averages the k pilots with weight 1 / (k + var) and keeps var / (k + var) error
    plan = plan_pilots(32, 1, 1, 0.0, 0.0, 4, 1)
    k = plan.k_f
    for var in (0.25, 1e-3):
        filt = build_wiener("freq", plan, input_err_var=var, profile=preset_profile("flat", 1.0))
        err = np.abs(filt.coefficients - 1.0 / (k + var)).max()
        assert err < 1e-12, f"flat-profile coefficients off by {err} at var {var}"
        want = var / (k + var)
        assert abs(filt.residual_mse - want) < 1e-9 * want, f"flat-profile residual {filt.residual_mse} vs {want}"


def _check_soft_symbols() -> None:
    z = FrameGrid(data=np.zeros((1, 8), dtype=complex))
    for name in CONSTELLATIONS:
        c = constellation(name)
        llr = demap(z, np.ones((1, 8)), 1.0, c)
        sign_bits = llr.values[..., [0, c.bits_per_symbol // 2]]
        assert np.abs(sign_bits).max() < 1e-12, f"{name}: zero observation must give zero sign-bit LLRs"
        x_hat = soft_symbols(llr, c).x_hat
        assert np.abs(x_hat).max() < 1e-12, f"{name}: zero observation must rebuild zero symbols"


def _check_equalizer_slicer() -> None:
    rng = np.random.default_rng(5)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for name in CONSTELLATIONS:
        c = constellation(name)
        bits = rng.integers(0, 2, c.bits_per_symbol * 32)
        x = map_bits(bits, c).reshape(1, 32)
        z = equalize(FrameGrid(data=h * x), h)
        back = hard_decisions(z.data, c)
        assert np.array_equal(back, bits), f"{name}: noiseless equalize+slice must invert the map"


def _check_determinism() -> None:
    cfg = resolve_config(
        {"trials": 3, "snr_db": "10", "num_symbols": 2, "estimator": "ma1d", "threads": 1}
    )
    rows_a = run(cfg)
    rows_b = run(cfg)
    assert rows_a == rows_b, "repeated runs with one seed must agree exactly"


_CHECKS = [
    ("m-sequence autocorrelation", _check_mseq_autocorr),
    ("overlap-add circular identity", _check_ola_identity),
    ("PN LS closed-form MSE", _check_ls_mse),
    ("interference mean consistency", _check_interference_mean),
    ("MMSE combiner", _check_combiner),
    ("Jakes correlation", _check_bessel),
    ("Wiener design", _check_wiener_design),
    ("soft rebuild neutrality", _check_soft_symbols),
    ("equalize and slice", _check_equalizer_slicer),
    ("run determinism", _check_determinism),
]


def run_selftest() -> bool:
    """Run all checks, print one line each; True when everything passed."""
    all_ok = True
    for name, fn in _CHECKS:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            all_ok = False
        except Exception as exc:  # a crash is a failure, not a crash of the tester
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            all_ok = False
        else:
            print(f"ok   {name}")
    print("selftest passed" if all_ok else "selftest FAILED")
    return all_ok
