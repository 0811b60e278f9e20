"""Guard-sequence LS channel estimation and its error/interference formulas."""

import numpy as np
import pytest

from tdsofdm import (
    analytic_mse_pn,
    assemble,
    build_gi,
    cfr,
    cir_from_cfr,
    constellation,
    generate_mseq,
    interference_power,
    ls_pn,
    map_bits,
    mean_interference_power,
    ofdm_modulate,
    preset_profile,
    propagate,
    realize,
    sfn_profile,
    window_leak_variance,
)

from conftest import crandn

DESK_FS = 1.024e6


def circular_rx(core, taps, noise, n_pn):
    """Reference circular-convolution model of the received core window."""
    spec = np.fft.fft(core) * np.fft.fft(taps, n_pn, axis=-1)
    return np.fft.ifft(spec, axis=-1) + noise


def test_ls_recovers_channel_exactly_without_noise(gi3_16):
    rng = np.random.default_rng(20)
    s = 4
    taps = crandn(rng, 5)
    sig = assemble(ofdm_modulate(crandn(rng, (s, 64))), gi3_16)
    rx = propagate(sig, 16, np.tile(taps, (s + 1, 1)), 0.0, rng)
    win = rx[:-1, gi3_16.core_offset : gi3_16.core_offset + gi3_16.n_pn]
    est = ls_pn(win, gi3_16, 5, 0.0)
    assert est.taps.shape == (s, 5)
    truth = cfr(taps, 64)
    assert np.max(np.abs(cfr(est.taps, 64) - truth)) < 1e-10
    assert est.eps == 0.0


def test_ls_flat_channel_gives_unit_response(gi3_16):
    win = np.fft.ifft(np.fft.fft(gi3_16.samples[9:16]))
    est = ls_pn(win, gi3_16, 1, 0.0)
    assert np.allclose(cfr(est.taps, 16), 1.0)
    assert np.allclose(est.taps, [1.0])


def test_ls_is_unbiased(gi3_16):
    rng = np.random.default_rng(21)
    draws, var = 4000, 0.5
    core = gi3_16.samples[9:16]
    taps = crandn(rng, 5)
    noise = crandn(rng, (draws, 7), var=var)
    win = circular_rx(core, taps, noise, 7)
    est = ls_pn(win, gi3_16, 5, var)
    truth = cfr(taps, 16)
    bias = np.abs(cfr(est.taps, 16).mean(axis=0) - truth)
    assert np.max(bias) < 0.06


def test_ls_error_matches_analytic_prediction():
    rng = np.random.default_rng(22)
    gi = build_gi(generate_mseq(8), 420, 2.0)
    core = gi.samples[gi.core_offset : gi.core_offset + gi.n_pn]
    cir_len, var = 38, 0.1
    taps = crandn(rng, cir_len)
    truth = cfr(taps, 512)
    total, count = 0.0, 0
    for _ in range(10):
        noise = crandn(rng, (1000, 255), var=var)
        win = circular_rx(core, taps, noise, 255)
        values = cfr(ls_pn(win, gi, cir_len, var).taps, 512)
        total += np.sum(np.abs(values - truth) ** 2)
        count += values.size
    ratio = (total / count) / analytic_mse_pn(gi, cir_len, var)
    assert 0.95 < ratio < 1.05


def test_analytic_mse_frozen_value_and_oracle():
    gi = build_gi(generate_mseq(8), 420, 2.0)
    got = analytic_mse_pn(gi, 38, 0.1)
    assert got == pytest.approx(1.4843750000e-02, rel=1e-12)
    # independent restatement in raw-DFT terms
    core = gi.samples[165:420]
    p2 = np.abs(np.fft.fft(core)) ** 2
    naive = 38 * 0.1 / 255 * np.sum(1.0 / p2)
    assert got == pytest.approx(naive, rel=1e-12)


def test_analytic_mse_scaling_and_edge_cases(desk_gi):
    base = analytic_mse_pn(desk_gi, 10, 0.2)
    assert analytic_mse_pn(desk_gi, 20, 0.2) == pytest.approx(2 * base, rel=1e-12)
    assert analytic_mse_pn(desk_gi, 10, 0.6) == pytest.approx(3 * base, rel=1e-12)
    assert analytic_mse_pn(desk_gi, 10, 0.0) == 0.0
    with pytest.raises(ValueError):
        analytic_mse_pn(desk_gi, 0, 0.1)
    with pytest.raises(ValueError):
        analytic_mse_pn(desk_gi, 64, 0.1)
    with pytest.raises(ValueError):
        analytic_mse_pn(desk_gi, 10, -0.1)


def test_ls_rejects_bad_inputs(gi3_16):
    win = np.zeros(7, dtype=np.complex128)
    with pytest.raises(ValueError):
        ls_pn(np.zeros(6, dtype=np.complex128), gi3_16, 3, 0.0)
    with pytest.raises(ValueError):
        ls_pn(win, gi3_16, 0, 0.0)
    with pytest.raises(ValueError):
        ls_pn(win, gi3_16, 8, 0.0)
    flat_gi = build_gi(np.ones(7, dtype=np.uint8), 16, 2.0)
    with pytest.raises(ValueError, match="null"):
        ls_pn(win, flat_gi, 3, 0.0)


def test_window_leakage_matches_stream_simulation():
    # previous-symbol spill past the cyclic margin, measured from scratch
    rng = np.random.default_rng(23)
    gi = build_gi(generate_mseq(3), 12, 2.0)      # n_pn=7, margin 5
    p = np.array([0.3, 0.2, 0.0, 0.15, 0.1, 0.05, 0.05, 0.1, 0.03, 0.02])
    draws, body = 40000, 32
    h = np.sqrt(p) * crandn(rng, (draws, 10))
    streams = np.concatenate(
        [crandn(rng, (draws, body)), np.tile(gi.samples, (draws, 1))], axis=1
    )
    cols = body + 5 + np.arange(7)[:, None] - np.arange(10)[None, :]
    win = np.einsum("dil,dl->di", streams[:, cols], h)
    core = gi.samples[5:12]
    core_mat = core[(np.arange(7)[:, None] - np.arange(10)[None, :]) % 7]
    model = h @ core_mat.T
    emp = np.mean(np.abs(win - model) ** 2)
    pred = window_leak_variance(gi, p)
    assert emp == pytest.approx(pred, rel=0.05)


def test_window_leakage_zero_inside_margin_and_scaling(gi3_16, desk_gi):
    assert window_leak_variance(gi3_16, np.ones(10) / 10) == 0.0
    p = np.zeros(40)
    p[0], p[35] = 0.9, 0.1
    base = window_leak_variance(desk_gi, p)
    assert base > 0
    assert window_leak_variance(desk_gi, 2 * p) == pytest.approx(2 * base, rel=1e-12)
    with pytest.raises(ValueError):
        window_leak_variance(desk_gi, np.array([0.5, -0.1]))


def test_window_leakage_frozen_desk_values(desk_gi):
    tu6 = preset_profile("tu6", DESK_FS)
    assert window_leak_variance(desk_gi, tu6.dense_powers()) == pytest.approx(
        1.459451e-02, rel=1e-6
    )
    sfn = sfn_profile(tu6, 23.28e-6, 10.0, DESK_FS)
    assert window_leak_variance(desk_gi, sfn.dense_powers()) == pytest.approx(
        1.160307e-01, rel=1e-6
    )


def test_leakage_sets_the_noiseless_estimation_floor(desk_gi):
    # static two-site channel, no noise: the LS error should sit within a
    # factor of two of the white-equivalent leakage prediction
    rng = np.random.default_rng(24)
    prof = sfn_profile(preset_profile("tu6", DESK_FS), 23.28e-6, 10.0, DESK_FS)
    leak = window_leak_variance(desk_gi, prof.dense_powers())
    cir_len = prof.length
    c = constellation("qpsk")
    total, count = 0.0, 0
    for _ in range(25):
        taps = realize(prof, 0.0, 1.0, 13, rng)
        bits = rng.integers(0, 2, 12 * 512 * 2).astype(np.uint8)
        x = map_bits(bits, c).reshape(12, 512)
        rx = propagate(assemble(ofdm_modulate(x), desk_gi), 64, taps, 0.0, rng)
        win = rx[:-1, 1:64]
        values = cfr(ls_pn(win, desk_gi, cir_len, 0.0).taps, 512)
        truth = cfr(taps[0], 512)
        total += np.sum(np.abs(values[1:] - truth) ** 2)
        count += values[1:].size
    ratio = (total / count) / analytic_mse_pn(desk_gi, cir_len, leak)
    assert 0.5 < ratio < 2.0


def test_interference_closed_form_against_simulation(gi3_16):
    rng = np.random.default_rng(25)
    var = np.array([0.02, 0.01, 0.005, 0.0025])
    draws, n_fft = 20000, 64
    dg = np.sqrt(var) * crandn(rng, (draws, 4))
    shifted = np.stack([np.roll(gi3_16.samples, l) for l in range(4)])
    spec = np.fft.fft(dg @ shifted, n_fft, axis=1)
    emp = np.mean(np.abs(spec) ** 2, axis=0) / n_fft
    closed = interference_power(gi3_16, var, np.arange(n_fft), n_fft)
    assert np.mean(np.abs(emp - closed)) / np.mean(closed) < 0.05


def test_interference_mean_and_properties(gi3_16):
    var = np.array([0.03, 0.0, 0.01])
    per_k = interference_power(gi3_16, var, np.arange(64), 64)
    assert np.all(per_k >= 0)
    mean = mean_interference_power(gi3_16, var, 64)
    assert per_k.mean() == pytest.approx(mean, rel=1e-12)
    assert mean == pytest.approx(var.sum() * 16 * gi3_16.a_pn**2 / 64, rel=1e-12)
    # scalar k matches the vector path
    assert interference_power(gi3_16, var, 5, 64) == pytest.approx(per_k[5], rel=1e-12)
    assert interference_power(gi3_16, np.zeros(3), 5, 64) == 0.0
    assert mean_interference_power(gi3_16, np.zeros(3), 64) == 0.0
    with pytest.raises(ValueError):
        interference_power(gi3_16, np.array([-0.1]), 0, 64)
    with pytest.raises(ValueError):
        interference_power(gi3_16, np.ones(17), 0, 64)
    with pytest.raises(ValueError):
        mean_interference_power(gi3_16, np.array([-0.1]), 64)


def test_cir_truncation_round_trip():
    rng = np.random.default_rng(26)
    taps = crandn(rng, 5)
    values = cfr(taps, 64)
    assert np.max(np.abs(cir_from_cfr(values, 5) - taps)) < 1e-12
    with pytest.raises(ValueError):
        cir_from_cfr(values, 65)
