"""Baseband chain: transforms, framing, propagation, overlap-add, equalization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tdsofdm import (
    TimeSignal,
    assemble,
    constellation,
    equalize,
    map_bits,
    ofdm_demodulate,
    ofdm_modulate,
    ola,
    propagate,
    remove_pn,
)

from conftest import (
    convolve_propagate,
    crandn,
    naive_stream_conv,
    naive_unitary_dft,
    where_equalize,
)


def static_channel(taps, blocks):
    taps = np.asarray(taps, dtype=np.complex128)
    return np.tile(taps, (blocks, 1))


def test_modulator_impulse_and_tone():
    x = np.ones(64)
    t = ofdm_modulate(x)
    want = np.zeros(64)
    want[0] = np.sqrt(64.0)
    assert np.allclose(t, want)
    tone = np.zeros(64)
    tone[3] = 1.0
    assert np.allclose(np.abs(ofdm_modulate(tone)), 1.0 / np.sqrt(64.0))


def test_transform_roundtrip_and_energy():
    rng = np.random.default_rng(1)
    x = crandn(rng, (5, 3780))
    t = ofdm_modulate(x)
    assert np.max(np.abs(ofdm_demodulate(t) - x)) < 1e-10
    assert np.sum(np.abs(t) ** 2) == pytest.approx(np.sum(np.abs(x) ** 2), rel=1e-12)


def test_demodulator_matches_direct_transform():
    rng = np.random.default_rng(2)
    for n in (12, 60, 256):
        x = crandn(rng, n)
        assert np.max(np.abs(ofdm_demodulate(x) - naive_unitary_dft(x))) < 1e-10


def test_assemble_layout_and_guard_power(desk_gi):
    rng = np.random.default_rng(3)
    bodies = crandn(rng, (6, 512))
    sig = assemble(bodies, desk_gi)
    assert sig.blocks.shape == (6, 576)
    assert np.array_equal(sig.blocks[:, :64], np.tile(desk_gi.samples, (6, 1)))
    assert np.array_equal(sig.blocks[:, 64:], bodies)
    assert np.array_equal(sig.tail, desk_gi.samples)
    # boosted guard carries twice the data power
    gp = np.mean(np.abs(sig.blocks[:, :64]) ** 2)
    dp = np.mean(np.abs(sig.blocks[:, 64:]) ** 2)
    assert gp / dp == pytest.approx(2.0, rel=0.1)


def test_propagate_identity_channel(gi3_16):
    rng = np.random.default_rng(5)
    sig = assemble(crandn(rng, (4, 64)), gi3_16)
    out = propagate(sig, static_channel([1.0], 4), 0.0, rng)
    assert np.array_equal(out.blocks, sig.blocks)
    assert np.array_equal(out.tail, sig.tail)


def test_propagate_matches_per_sample_convolution():
    # block-switched taps on a tiny frame so the oracle stays obvious
    from tdsofdm import build_gi, generate_mseq

    rng = np.random.default_rng(6)
    bodies = crandn(rng, (3, 8))
    gi = build_gi(generate_mseq(2), 4, 2.0)       # nu=4, n_pn=3
    sig = assemble(bodies, gi)
    taps = crandn(rng, (3, 3))
    out = propagate(sig, taps, 0.0, rng)
    want = naive_stream_conv(sig.blocks, sig.tail, taps)
    got = np.concatenate([out.blocks.ravel(), out.tail])
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    extra_rows=st.integers(0, 2),
    body=st.integers(1, 40),
    nu=st.sampled_from([0, 1, 8, 24]),
    le=st.integers(1, 30),
    columns=st.sets(st.integers(0, 29), max_size=8),
    noise_var=st.sampled_from([0.0, 1e-3, 0.5]),
)
def test_propagate_matches_per_block_convolution(seed, s, extra_rows, body, nu, le, columns, noise_var):
    # dense, gapped (SFN-like) and all-zero tap columns, one block or more,
    # with and without a trailing guard
    rng = np.random.default_rng(seed)
    sig = TimeSignal(blocks=crandn(rng, (s, nu + body)), tail=crandn(rng, nu))
    taps = np.zeros((s + extra_rows, le), dtype=np.complex128)
    cols = sorted(c for c in columns if c < le)
    taps[:, cols] = crandn(rng, (taps.shape[0], len(cols)))
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)      # taps outrunning the guard
        got = propagate(sig, taps, noise_var, got_rng)
        want = convolve_propagate(sig, taps, noise_var, want_rng)
    assert got.blocks.shape == want.blocks.shape and got.tail.shape == want.tail.shape
    got = np.concatenate([got.blocks.ravel(), got.tail])
    want = np.concatenate([want.blocks.ravel(), want.tail])
    # the two sum the taps in different orders
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # later draws from the generator stay aligned
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_propagate_measured_snr(desk_gi):
    rng = np.random.default_rng(7)
    c = constellation("qpsk")
    s = 2000
    bits = rng.integers(0, 2, s * 512 * 2).astype(np.uint8)
    x = map_bits(bits, c).reshape(s, 512)
    sig = assemble(ofdm_modulate(x), desk_gi)
    for snr_db in (5.0, 20.0):
        noise_var = 10.0 ** (-snr_db / 10.0)
        rx = propagate(sig, static_channel([1.0], s), noise_var, rng)
        w = rx.blocks[:, 64:] - sig.blocks[:, 64:]
        measured = 10 * np.log10(1.0 / np.mean(np.abs(w) ** 2))
        assert abs(measured - snr_db) < 0.1


def test_propagate_warns_when_channel_outruns_guard(gi3_16):
    rng = np.random.default_rng(8)
    sig = assemble(crandn(rng, (2, 64)), gi3_16)
    taps = np.zeros((2, 18), dtype=np.complex128)
    taps[:, 0] = 1.0
    taps[:, 17] = 0.5
    with pytest.warns(UserWarning, match="guard"):
        propagate(sig, taps, 0.0, rng)


def test_remove_pn_perfect_estimate_clears_guard(gi3_16):
    rng = np.random.default_rng(9)
    s = 5
    sig = assemble(ofdm_modulate(crandn(rng, (s, 64))), gi3_16)
    taps = crandn(rng, 6)
    rx = propagate(sig, static_channel(taps, s), 0.0, rng)
    cleaned = remove_pn(rx, gi3_16, taps)
    # the guard and its spill vanish wherever only the guard contributed:
    # block 0 head precedes any data
    span = 16 + 6 - 1
    residual = np.abs(cleaned.blocks[0, :16]) ** 2
    original = np.abs(rx.blocks[0, :16]) ** 2
    assert residual.mean() / original.mean() < 1e-20
    assert cleaned.blocks.shape == rx.blocks.shape
    assert span <= rx.blocks.shape[1]


def test_remove_pn_residual_is_the_estimation_error(gi3_16):
    # with zero data the guard residual equals the guard convolved with the
    # negated tap error
    rng = np.random.default_rng(10)
    s = 3
    sig = assemble(np.zeros((s, 64), dtype=np.complex128), gi3_16)
    taps = crandn(rng, 4)
    delta = crandn(rng, 4, var=1e-2)
    rx = propagate(sig, static_channel(taps, s), 0.0, rng)
    cleaned = remove_pn(rx, gi3_16, taps + delta)
    want = -naive_stream_conv(gi3_16.samples[None, :], np.zeros(0), delta[None, :])
    assert np.max(np.abs(cleaned.blocks[1, :16] - want)) < 1e-12


def test_remove_pn_zero_estimate_is_a_no_op(gi3_16):
    rng = np.random.default_rng(11)
    sig = assemble(crandn(rng, (2, 64)), gi3_16)
    cleaned = remove_pn(sig, gi3_16, np.zeros(3))
    assert np.array_equal(cleaned.blocks, sig.blocks)


def test_remove_pn_rejects_bad_shapes(gi3_16):
    rng = np.random.default_rng(12)
    sig = assemble(crandn(rng, (4, 64)), gi3_16)
    with pytest.raises(ValueError):
        remove_pn(sig, gi3_16, np.ones(17))        # longer than the guard
    with pytest.raises(ValueError):
        remove_pn(sig, gi3_16, np.ones((3, 4)))    # neither 1 nor s rows
    with pytest.raises(ValueError):
        remove_pn(sig, gi3_16, np.ones((5, 4)))    # no extra row for the tail


def test_overlap_add_restores_circular_convolution(gi3_16):
    rng = np.random.default_rng(13)
    s = 4
    x = map_bits(rng.integers(0, 2, s * 64 * 2).astype(np.uint8), constellation("qpsk"))
    x = x.reshape(s, 64)
    taps = crandn(rng, 9)
    sig = assemble(ofdm_modulate(x), gi3_16)
    rx = propagate(sig, static_channel(taps, s), 0.0, rng)
    y = ola(remove_pn(rx, gi3_16, taps))
    want = np.fft.fft(taps, 64) * x
    assert np.max(np.abs(y - want)) / np.max(np.abs(want)) < 1e-12
    assert y.shape == (s, 64)


def test_overlap_add_single_block(gi3_16):
    rng = np.random.default_rng(14)
    x = crandn(rng, (1, 64))
    sig = assemble(ofdm_modulate(x), gi3_16)
    y = ola(remove_pn(sig, gi3_16, np.array([1.0])))
    assert np.max(np.abs(y - x)) < 1e-10


def test_overlap_add_noise_power_boost(desk_gi):
    # folding the guard onto the data head raises the noise power by
    # (n + nu) / n
    rng = np.random.default_rng(15)
    s, row, nu = 1500, 576, 64
    noise = crandn(rng, (s, row))
    tail = crandn(rng, nu)
    from tdsofdm import TimeSignal

    y = ola(TimeSignal(blocks=noise, tail=tail))
    boost = np.mean(np.abs(y) ** 2)
    assert boost == pytest.approx(576.0 / 512.0, rel=0.01)


def test_equalize_inverts_known_gains():
    rng = np.random.default_rng(16)
    x = crandn(rng, (3, 32))
    h = crandn(rng, 32)
    z = equalize(x * h, h)
    assert np.max(np.abs(z.data - x)) < 1e-10
    assert z.mask.all()


def test_equalize_flags_spectral_nulls():
    rng = np.random.default_rng(17)
    h = np.ones(16, dtype=np.complex128)
    h[5] = 0.0
    z = equalize(crandn(rng, (2, 16)), h)
    assert not z.mask[:, 5].any()
    assert np.all(z.data[:, 5] == 0.0)
    assert z.mask[:, :5].all() and z.mask[:, 6:].all()


def test_equalize_scaling_consistency():
    rng = np.random.default_rng(18)
    y = crandn(rng, (2, 16))
    h = crandn(rng, 16)
    z1 = equalize(y, h)
    z2 = equalize(y, 2.0 * h)
    assert np.allclose(z2.data, z1.data / 2.0)


def test_end_to_end_noiseless_bit_recovery(gi3_16):
    rng = np.random.default_rng(19)
    from tdsofdm import hard_decisions

    for name in ("qpsk", "qam16", "qam64"):
        c = constellation(name)
        bits = rng.integers(0, 2, 3 * 64 * c.bits_per_symbol).astype(np.uint8)
        x = map_bits(bits, c).reshape(3, 64)
        taps = crandn(rng, 5)
        sig = assemble(ofdm_modulate(x), gi3_16)
        rx = propagate(sig, static_channel(taps, 3), 0.0, rng)
        z = equalize(ola(remove_pn(rx, gi3_16, taps)), np.fft.fft(taps, 64))
        assert np.array_equal(hard_decisions(z.data, c), bits)


@settings(max_examples=200, deadline=None)
@given(
    y=arrays(
        np.complex128,
        (3, 8),
        elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    ),
    h=arrays(
        np.complex128,
        st.sampled_from([(8,), (3, 8)]),
        elements=st.sampled_from([0.0, 1e-9, 1e-3 - 2e-3j, 0.5j, 1.0, -2.0 + 1.5j, 1e4]),
    ),
)
def test_equalize_matches_the_selected_division(y, h):
    # spectral nulls, bins under the 1e-12 floor, a 1-D or per-row h
    got, want = equalize(y, h), where_equalize(y, h)
    assert got.data.shape == want.data.shape == y.shape
    assert got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.mask, want.mask)
