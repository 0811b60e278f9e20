"""Variance-weighted estimate combining and the iterative receiver loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsofdm import (
    CfrEstimate,
    ConstraintError,
    PowerDelayProfile,
    assemble,
    cfr,
    combine,
    constellation,
    equalize,
    hard_decisions,
    iterate,
    ls_pn,
    map_bits,
    ofdm_modulate,
    ola,
    propagate,
    remove_pn,
    resolve_config,
)
from tdsofdm.combiner import REFINERS, _refine, _tap_mse
from tdsofdm.soft_rebuild import InstantEstimate

from conftest import crandn

QPSK = constellation("qpsk")


def loop_config(**overrides):
    """A resolved config whose guard is the gi3_16 fixture's, with its flat
    deployment profile; a flat profile leaks no tail into the PN window."""
    cfg = resolve_config(
        {"fft_size": 64, "gi_len": 16, "pn_order": 3, "channel": "flat", **overrides}
    )
    return cfg, cfg.profile()


def make_rx(rng, gi, taps, s, noise_var, c=QPSK):
    bits = rng.integers(0, 2, s * 64 * c.bits_per_symbol).astype(np.uint8)
    x = map_bits(bits, c).reshape(s, 64)
    rx = propagate(assemble(ofdm_modulate(x), gi), gi.nu, np.tile(taps, (s + 1, 1)), noise_var, rng)
    return rx, x


def test_combine_weights_by_error_variance():
    rng = np.random.default_rng(60)
    t1, t2 = crandn(rng, 32), crandn(rng, 32)
    out = combine(CfrEstimate(eps=0.02, taps=t1), CfrEstimate(eps=0.01, taps=t2))
    assert np.allclose(cfr(out.taps, 32), (cfr(t1, 32) + 2.0 * cfr(t2, 32)) / 3.0)
    assert out.eps == pytest.approx(1.0 / 150.0, rel=1e-12)


def test_combine_degenerate_cases():
    rng = np.random.default_rng(61)
    t1, t2 = crandn(rng, 8), crandn(rng, 8)
    v1, v2 = cfr(t1, 8), cfr(t2, 8)
    h1 = CfrEstimate(eps=0.3, taps=t1)
    exact = combine(h1, CfrEstimate(eps=0.0, taps=t2))
    assert np.array_equal(cfr(exact.taps, 8), v2) and exact.eps == 0.0
    keep1 = combine(h1, CfrEstimate(eps=float("inf"), taps=t2))
    assert np.array_equal(cfr(keep1.taps, 8), v1) and keep1.eps == 0.3
    keep2 = combine(CfrEstimate(eps=float("inf"), taps=t1), CfrEstimate(eps=0.2, taps=t2))
    assert np.array_equal(cfr(keep2.taps, 8), v2) and keep2.eps == 0.2
    eq = combine(CfrEstimate(eps=0.1, taps=t1), CfrEstimate(eps=0.1, taps=t2))
    assert np.allclose(cfr(eq.taps, 8), (v1 + v2) / 2) and eq.eps == pytest.approx(0.05)
    both0 = combine(CfrEstimate(eps=0.0, taps=t1), CfrEstimate(eps=0.0, taps=t2))
    assert np.allclose(cfr(both0.taps, 8), (v1 + v2) / 2) and both0.eps == 0.0


def test_combine_rejects_bad_inputs():
    t = np.zeros((2, 4), dtype=np.complex128)
    # taps of different lengths combine, rows of different counts do not
    with pytest.raises(ValueError, match="row mismatch"):
        combine(CfrEstimate(eps=0.1, taps=t), CfrEstimate(eps=0.1, taps=np.zeros((3, 4))))
    with pytest.raises(ValueError, match="eps"):
        combine(CfrEstimate(eps=-0.1, taps=t), CfrEstimate(eps=0.1, taps=t))


@settings(max_examples=25, deadline=None)
@given(
    e1=st.floats(min_value=1e-9, max_value=1e6),
    e2=st.floats(min_value=1e-9, max_value=1e6),
)
def test_combined_error_never_exceeds_either_input(e1, e2):
    t = np.ones(4, dtype=np.complex128)
    out = combine(CfrEstimate(eps=e1, taps=t), CfrEstimate(eps=e2, taps=t))
    assert out.eps <= min(e1, e2) * (1 + 1e-12)


def test_combining_weight_minimizes_the_error_quadratic():
    rng = np.random.default_rng(62)
    betas = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    for _ in range(50):
        e1, e2 = 10.0 ** rng.uniform(-4, 0, 2)
        curve = betas**2 * e1 + (1 - betas) ** 2 * e2
        best = betas[np.argmin(curve)]
        assert abs(best - e2 / (e1 + e2)) <= 1e-3
        out = combine(CfrEstimate(eps=e1, taps=np.ones(2)), CfrEstimate(eps=e2, taps=np.ones(2)))
        assert out.eps <= curve.min() + 1e-12


def test_combine_falls_back_where_second_estimate_is_masked():
    rng = np.random.default_rng(63)
    t1, t2 = crandn(rng, (5, 16)), crandn(rng, (5, 16))
    v1, v2 = cfr(t1, 16), cfr(t2, 16)
    rows = np.array([True, False, True, True, False])
    out = combine(CfrEstimate(eps=0.1, taps=t1), CfrEstimate(eps=0.1, taps=t2, mask=rows[:, None]))
    assert np.allclose(cfr(out.taps, 16)[rows], (v1 + v2)[rows] / 2)
    assert np.array_equal(cfr(out.taps, 16)[~rows], v1[~rows])
    assert np.array_equal(out.taps[~rows], t1[~rows])


def test_combine_blends_the_taps_of_two_tap_carrying_estimates():
    rng = np.random.default_rng(70)
    t1, t2 = crandn(rng, (3, 2)), crandn(rng, (3, 5))
    mask = np.array([[True], [False], [True]])
    out = combine(CfrEstimate(eps=0.02, taps=t1), CfrEstimate(eps=0.01, taps=t2, mask=mask))
    assert out.taps.shape == (3, 5)
    assert np.allclose(out.taps[0, :2], (t1[0] + 2.0 * t2[0, :2]) / 3.0)
    assert np.allclose(out.taps[0, 2:], 2.0 * t2[0, 2:] / 3.0)
    # the masked row falls back to h1, zero-padded
    assert np.array_equal(out.taps[1], np.r_[t1[1], np.zeros(3)])
    assert np.array_equal(cfr(out.taps, 16)[1], cfr(t1, 16)[1])
    # an estimate is its taps
    with pytest.raises(TypeError, match="taps"):
        CfrEstimate(eps=0.01)


def test_combine_rejects_taps_under_a_per_bin_mask():
    rng = np.random.default_rng(71)
    t = crandn(rng, (2, 3))
    mask = np.ones((2, 16), dtype=bool)
    mask[0, 4] = False
    with pytest.raises(ValueError, match="whole rows"):
        combine(CfrEstimate(eps=0.1, taps=t), CfrEstimate(eps=0.1, taps=t, mask=mask))


@pytest.mark.parametrize("estimator", REFINERS)
def test_refined_estimates_and_their_combination_carry_taps(estimator):
    # the 6-tap profile prior is longer than the 3-tap LS window, and blocks
    # 2 and 3 (one wiener2x1d chunk) have no reliable cell; ma2d takes the
    # frame as one chunk, so it masks no block
    rng = np.random.default_rng(72)
    cfg = resolve_config({"estimator": estimator, "corr_mode": "profile", "cir_len": 3, "block_len": 2})
    profile = cfg.profile()
    s, n = cfg.num_symbols, cfg.fft_size
    assert profile.length > cfg.cir_len
    mask = rng.random((s, n)) > 0.2
    mask[2:4] = False
    inst = InstantEstimate(values=crandn(rng, (s, n)), mask=mask, weights=rng.uniform(0.5, 2.0, (s, n)))
    h2 = _refine(inst, cfg, profile, n, 0.05)
    length = n if estimator.startswith("ma") else profile.length
    dead = [] if estimator == "ma2d" else [2, 3]
    assert h2.taps.shape == (s, length) and h2.mask.shape == (s, 1)
    assert np.flatnonzero(~h2.mask[:, 0]).tolist() == dead
    assert np.all(cfr(h2.taps, n)[dead] == 0.0)

    t1 = crandn(rng, (s, cfg.cir_len))
    h1 = CfrEstimate(eps=0.01, taps=t1)
    out = combine(h1, h2)
    assert out.taps.shape == (s, length)
    assert np.array_equal(cfr(out.taps, n)[dead], cfr(t1, n)[dead])
    assert np.array_equal(out.taps[dead, : cfg.cir_len], t1[dead])
    assert np.all(out.taps[dead, cfg.cir_len :] == 0.0)


@pytest.mark.parametrize("estimator", REFINERS)
def test_a_frame_with_no_reliable_cell_refines_to_nothing(estimator):
    cfg = resolve_config({"estimator": estimator})
    s, n = cfg.num_symbols, cfg.fft_size
    inst = InstantEstimate(
        values=np.ones((s, n), dtype=np.complex128), mask=np.zeros((s, n), dtype=bool), weights=np.ones((s, n))
    )
    h2 = _refine(inst, cfg, cfg.profile(), n, 0.05)
    assert h2.eps == float("inf")
    assert not h2.mask.any()
    assert np.all(cfr(h2.taps, n) == 0.0)


@pytest.mark.parametrize("n", [64, 3780])
def test_tap_mse_is_the_full_grid_mse(n):
    rng = np.random.default_rng(73)
    truth = crandn(rng, (5, 39))
    truth_cfr = cfr(truth, n)
    # taps longer and shorter than the truth's, and as long as the grid
    for length in (n, 45, 39, 7):
        taps = crandn(rng, (5, length), var=1e-3)
        taps[:, : min(length, 39)] += truth[:, :length]
        full = float(np.mean(np.abs(cfr(taps, n) - truth_cfr) ** 2))
        assert _tap_mse(taps, truth) == pytest.approx(full, rel=1e-12, abs=0.0)


def test_loop_checks_the_sampling_rules_before_the_pn_stage(gi3_16):
    # a 17-tap deployment channel exceeds the 64 / 4 taps the frequency
    # rule allows; the LS stage on this frame would run
    rng = np.random.default_rng(74)
    rx, _ = make_rx(rng, gi3_16, np.array([1.0 + 0j]), 2, 0.01)
    cfg, _ = loop_config(cir_len=1, iterations=1)
    long = PowerDelayProfile(delays=np.array([0, 16]), powers=np.array([0.5, 0.5]))
    with pytest.raises(ConstraintError, match="frequency sampling rule"):
        iterate(rx, gi3_16, cfg, long, 0.01)
    # no Wiener pass, no rule
    iterate(rx, gi3_16, replace(cfg, iterations=0), long, 0.01)


def test_loop_with_no_iterations_is_the_plain_ls_receiver(gi3_16):
    rng = np.random.default_rng(64)
    taps = crandn(rng, 3)
    nv = 0.01
    rx, _ = make_rx(rng, gi3_16, taps, 6, nv)
    cfg, profile = loop_config(cir_len=3, iterations=0)
    est, z, diag = iterate(rx, gi3_16, cfg, profile, nv)

    cores = rx[:-1, 9:16]
    h1 = ls_pn(cores, gi3_16, 3, nv)
    # guard removal reads the LS estimate's taps and equalization their CFR
    cleaned = remove_pn(rx, gi3_16, h1.taps)
    z_ref = equalize(ola(cleaned, 16), cfr(h1.taps, 64))
    assert np.array_equal(est.taps, h1.taps)
    assert est.eps == h1.eps
    assert np.array_equal(z.data, z_ref.data)
    assert diag.eps == [h1.eps]
    # without truth_bits no iteration is scored
    assert diag.ber == []


def test_loop_keeps_a_perfect_initial_estimate(gi3_16):
    rng = np.random.default_rng(65)
    taps = np.array([1.0 + 0.0j])
    nv = 0.0
    rx, _ = make_rx(rng, gi3_16, taps, 4, nv)
    cfg, profile = loop_config(cir_len=1, iterations=2, estimator="ma1d", M_f=5)
    truth_taps = np.ones((4, 1), dtype=np.complex128)
    initial = CfrEstimate(eps=0.0, taps=truth_taps.copy())
    est, _, diag = iterate(rx, gi3_16, cfg, profile, nv, truth_taps=truth_taps, initial=initial)
    assert len(diag.mse) == 3
    assert all(m <= 1e-10 for m in diag.mse)
    assert est.eps == 0.0


def test_loop_improves_the_ls_stage(gi3_16):
    rng = np.random.default_rng(66)
    taps = crandn(rng, 3)
    nv = 10.0 ** (-2.0)
    rx, x = make_rx(rng, gi3_16, taps, 24, nv)
    bits = hard_decisions(x, QPSK)
    truth = np.tile(taps, (24, 1))
    cfg, profile = loop_config(cir_len=3, iterations=2, estimator="wiener1d", M_f=5)
    est, z, diag = iterate(rx, gi3_16, cfg, profile, nv, truth_taps=truth, truth_bits=bits)
    assert len(diag.eps) == len(diag.mse) == len(diag.ber) == 3
    assert len(diag.h2_eps) == len(diag.h2_mse) == 2
    # each iteration's BER is taken from its grid; the last grid is returned
    assert diag.ber[-1] == np.mean(hard_decisions(z.data, QPSK) != bits)
    assert diag.mse[-1] < diag.mse[0]
    assert diag.eps[-1] < diag.eps[0]


def test_loop_rejects_unknown_refiner(gi3_16):
    rng = np.random.default_rng(67)
    rx, _ = make_rx(rng, gi3_16, np.array([1.0 + 0j]), 2, 0.01)
    cfg, profile = loop_config(cir_len=1, iterations=1)
    with pytest.raises(ValueError, match="unknown estimator 'median'"):
        iterate(rx, gi3_16, replace(cfg, estimator="median"), profile, 0.01)
