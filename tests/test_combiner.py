"""Variance-weighted estimate combining and the iterative receiver loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsofdm import (
    CfrEstimate,
    assemble,
    cfr,
    cir_from_cfr,
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
    v1, v2 = crandn(rng, 32), crandn(rng, 32)
    out = combine(
        CfrEstimate(values=v1, eps=0.02),
        CfrEstimate(values=v2, eps=0.01),
    )
    assert np.allclose(out.values, (v1 + 2.0 * v2) / 3.0)
    assert out.eps == pytest.approx(1.0 / 150.0, rel=1e-12)


def test_combine_degenerate_cases():
    rng = np.random.default_rng(61)
    v1, v2 = crandn(rng, 8), crandn(rng, 8)
    h1 = CfrEstimate(values=v1, eps=0.3)
    exact = combine(h1, CfrEstimate(values=v2, eps=0.0))
    assert np.array_equal(exact.values, v2) and exact.eps == 0.0
    h2_inf = CfrEstimate(values=v2, eps=float("inf"))
    keep1 = combine(h1, h2_inf)
    assert np.array_equal(keep1.values, v1) and keep1.eps == 0.3
    h1_inf = CfrEstimate(values=v1, eps=float("inf"))
    keep2 = combine(h1_inf, CfrEstimate(values=v2, eps=0.2))
    assert np.array_equal(keep2.values, v2) and keep2.eps == 0.2
    eq = combine(
        CfrEstimate(values=v1, eps=0.1),
        CfrEstimate(values=v2, eps=0.1),
    )
    assert np.allclose(eq.values, (v1 + v2) / 2) and eq.eps == pytest.approx(0.05)
    both0 = combine(
        CfrEstimate(values=v1, eps=0.0),
        CfrEstimate(values=v2, eps=0.0),
    )
    assert np.allclose(both0.values, (v1 + v2) / 2) and both0.eps == 0.0


def test_combine_rejects_bad_inputs():
    v = np.zeros(4, dtype=np.complex128)
    with pytest.raises(ValueError, match="shape"):
        combine(
            CfrEstimate(values=v, eps=0.1),
            CfrEstimate(values=np.zeros(5, dtype=np.complex128), eps=0.1),
        )
    with pytest.raises(ValueError, match="eps"):
        combine(
            CfrEstimate(values=v, eps=-0.1),
            CfrEstimate(values=v, eps=0.1),
        )


@settings(max_examples=25, deadline=None)
@given(
    e1=st.floats(min_value=1e-9, max_value=1e6),
    e2=st.floats(min_value=1e-9, max_value=1e6),
)
def test_combined_error_never_exceeds_either_input(e1, e2):
    v = np.ones(4, dtype=np.complex128)
    out = combine(
        CfrEstimate(values=v, eps=e1),
        CfrEstimate(values=v, eps=e2),
    )
    assert out.eps <= min(e1, e2) * (1 + 1e-12)


def test_combining_weight_minimizes_the_error_quadratic():
    rng = np.random.default_rng(62)
    betas = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    for _ in range(50):
        e1, e2 = 10.0 ** rng.uniform(-4, 0, 2)
        curve = betas**2 * e1 + (1 - betas) ** 2 * e2
        best = betas[np.argmin(curve)]
        assert abs(best - e2 / (e1 + e2)) <= 1e-3
        out = combine(
            CfrEstimate(values=np.ones(2), eps=e1),
            CfrEstimate(values=np.ones(2), eps=e2),
        )
        assert out.eps <= curve.min() + 1e-12


def test_combine_falls_back_where_second_estimate_is_masked():
    rng = np.random.default_rng(63)
    v1, v2 = crandn(rng, 16), crandn(rng, 16)
    mask = np.ones(16, dtype=bool)
    mask[[3, 9]] = False
    out = combine(
        CfrEstimate(values=v1, eps=0.1),
        CfrEstimate(values=v2, eps=0.1, mask=mask),
    )
    assert np.allclose(out.values[mask], (v1 + v2)[mask] / 2)
    assert np.array_equal(out.values[~mask], v1[~mask])


def test_loop_with_no_iterations_is_the_plain_ls_receiver(gi3_16):
    rng = np.random.default_rng(64)
    taps = crandn(rng, 3)
    nv = 0.01
    rx, _ = make_rx(rng, gi3_16, taps, 6, nv)
    cfg, profile = loop_config(cir_len=3, iterations=0)
    est, z, diag = iterate(rx, gi3_16, cfg, profile, nv)

    cores = rx[:-1, 9:16]
    h1 = ls_pn(cores, gi3_16, 3, nv, 64)
    cleaned = remove_pn(rx, gi3_16, cir_from_cfr(h1.values, 3))
    z_ref = equalize(ola(cleaned, 16), h1.values)
    assert np.array_equal(est.values, h1.values)
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
    truth = np.ones((4, 64), dtype=np.complex128)
    cfg, profile = loop_config(cir_len=1, iterations=2, estimator="ma1d", M_f=5)
    initial = CfrEstimate(values=truth.copy(), eps=0.0)
    est, _, diag = iterate(rx, gi3_16, cfg, profile, nv, truth_cfr=truth, initial=initial)
    assert len(diag.mse) == 3
    assert all(m <= 1e-10 for m in diag.mse)
    assert est.eps == 0.0


def test_loop_improves_the_ls_stage(gi3_16):
    rng = np.random.default_rng(66)
    taps = crandn(rng, 3)
    nv = 10.0 ** (-2.0)
    rx, x = make_rx(rng, gi3_16, taps, 24, nv)
    bits = hard_decisions(x, QPSK)
    truth = np.tile(cfr(taps, 64), (24, 1))
    cfg, profile = loop_config(cir_len=3, iterations=2, estimator="wiener1d", M_f=5)
    est, z, diag = iterate(rx, gi3_16, cfg, profile, nv, truth_cfr=truth, truth_bits=bits)
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
