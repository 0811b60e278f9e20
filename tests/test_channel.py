"""Delay profiles, fading synthesis, and the channel's correlation functions."""

import numpy as np
import pytest
import scipy.fft
from scipy.special import j0

from tdsofdm import (
    cfr,
    doppler_frequency,
    preset_profile,
    r_t,
    realize,
    sfn_profile,
)
from tdsofdm.channel import MAX_BLOCKS, _jakes_root
from tdsofdm.phy import next_fast_len

from conftest import frames, lag_correlation, naive_raw_dft, r_f

DESK_FS = 1.024e6
DTMB_FS = 7.56e6


def test_flat_and_two_tap_presets():
    flat = preset_profile("flat", DESK_FS)
    assert np.array_equal(flat.delays, [0])
    assert np.array_equal(flat.powers, [1.0])
    assert flat.length == 1

    two = preset_profile("two_tap", DESK_FS)
    assert np.array_equal(two.delays, [0, 1])      # 1 us at 1.024 MHz
    assert np.allclose(two.powers, [0.5, 0.5])


def test_urban_profile_on_both_sample_grids():
    wide = preset_profile("tu6", DTMB_FS)
    assert np.array_equal(wide.delays, [0, 2, 4, 12, 17, 38])
    assert wide.length == 39
    assert wide.powers.sum() == pytest.approx(1.0)
    # power ordering survives quantization: the 0.2 us tap is the strongest
    assert wide.delays[np.argmax(wide.powers)] == 2

    narrow = preset_profile("tu6", DESK_FS)
    assert np.array_equal(narrow.delays, [0, 1, 2, 5])   # close taps merge
    assert narrow.length == 6
    assert narrow.powers.sum() == pytest.approx(1.0)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_profile("hilly", DESK_FS)


def test_echo_profile_shift_and_power_split():
    base = preset_profile("tu6", DTMB_FS)
    sfn = sfn_profile(base, 23.33e-6, 10.0, DTMB_FS)
    assert sfn.length == 215                      # 38 + round(23.33us * fs) + 1
    echo_power = sfn.powers[sfn.delays >= 176].sum()
    assert echo_power == pytest.approx(1.0 / 11.0, abs=1e-3)
    assert sfn.powers.sum() == pytest.approx(1.0)


def test_echo_profile_degenerate_cases():
    base = preset_profile("tu6", DESK_FS)
    same = sfn_profile(base, 0.0, 0.0, DESK_FS)   # zero delay, equal power
    assert np.array_equal(same.delays, base.delays)
    assert np.allclose(same.powers, base.powers)
    with pytest.raises(ValueError):
        sfn_profile(base, -1e-6, 10.0, DESK_FS)


def test_doppler_frequency_reference_point():
    assert doppler_frequency(30.0, 500e6) == pytest.approx(13.889, abs=1e-3)
    assert doppler_frequency(0.0, 500e6) == 0.0


def test_cfr_matches_direct_transform():
    rng = np.random.default_rng(3)
    taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    want = naive_raw_dft(taps, 32)
    assert np.max(np.abs(cfr(taps, 32) - want)) < 1e-12
    # unit tap at delay 1 is a pure phase ramp
    ramp = cfr(np.array([0.0, 1.0]), 16)
    assert np.allclose(ramp, np.exp(-2j * np.pi * np.arange(16) / 16))
    with pytest.raises(ValueError):
        cfr(np.ones(40), 32)


def test_frequency_correlation_basics():
    prof = preset_profile("tu6", DESK_FS)
    assert r_f(np.array([0]), prof, 512)[0] == pytest.approx(1.0)
    q = np.arange(1, 6)
    assert np.allclose(r_f(-q, prof, 512), np.conj(r_f(q, prof, 512)))
    flat = preset_profile("flat", DESK_FS)
    assert np.allclose(r_f(np.arange(10), flat, 512), 1.0)


def test_time_correlation_is_a_bessel_function():
    assert r_t(np.array([0]), 10.0, 1e-3)[0] == pytest.approx(1.0)
    # first zero of the correlation: 2 pi fd tb p = 2.404826
    fd_tb = 1.0 / (2.0 * np.pi)
    assert abs(r_t(np.array([2.404826]), fd_tb, 1.0)[0]) < 1e-6
    p = np.linspace(0, 8, 40)
    assert np.allclose(r_t(-p, 0.01, 1.0), r_t(p, 0.01, 1.0))


def test_time_correlation_matches_j0_to_rounding():
    x = np.linspace(-60.0, 60.0, 4801)
    assert np.max(np.abs(r_t(x, 1.0 / (2.0 * np.pi), 1.0) - j0(x))) <= 1e-14
    assert r_t(0, 10.0, 1e-3) == 1.0


def test_next_fast_len_matches_scipy():
    assert [next_fast_len(n) for n in range(1, 20001)] == [
        scipy.fft.next_fast_len(n) for n in range(1, 20001)
    ]


def test_realize_static_when_doppler_is_zero():
    rng = np.random.default_rng(5)
    taps = realize(preset_profile("tu6", DESK_FS), 0.0, 1e-3, 8, rng)
    assert taps.shape == (8, 6) and taps.dtype == np.complex128
    assert np.allclose(taps, taps[0])
    assert np.count_nonzero(taps[0]) == 4


def test_realize_tap_powers_match_profile():
    prof = preset_profile("tu6", DESK_FS)
    rng = np.random.default_rng(6)
    acc = np.zeros(prof.length)
    draws = 4000
    for _ in range(draws):
        acc += np.abs(realize(prof, 0.0, 1e-3, 1, rng)[0]) ** 2
    acc /= draws
    assert np.allclose(acc[prof.delays], prof.powers, rtol=0.08)
    assert acc.sum() == pytest.approx(1.0, rel=0.03)


def test_realize_rejects_bad_arguments():
    prof = preset_profile("flat", DESK_FS)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        realize(prof, 10.0, 1e-3, 0, rng)
    with pytest.raises(ValueError, match=r"\[1, 1024\]"):
        realize(prof, 10.0, 1e-3, MAX_BLOCKS + 1, rng)


@pytest.mark.parametrize("num_blocks", [1, 2, 11, 64, MAX_BLOCKS])
@pytest.mark.parametrize("fd_tb", [0.0078, 0.077, 0.25, 0.3125])
def test_jakes_root_squares_to_the_block_correlation(fd_tb, num_blocks):
    root = _jakes_root(num_blocks, fd_tb)
    lag = np.arange(num_blocks)
    # r_t of the lag matrix itself would take n^2 (64 + 2 pi fd_tb n) floats
    want = r_t(lag, fd_tb, 1.0)[np.abs(np.subtract.outer(lag, lag))]
    assert np.max(np.abs(root @ root.T - want)) <= 1e-12
    assert np.max(np.abs(root - root.T)) <= 1e-12
    assert not root.flags.writeable


@pytest.mark.parametrize("num_blocks", [11, MAX_BLOCKS])
def test_a_short_frame_takes_two_normals_per_tap_and_block(num_blocks):
    prof = preset_profile("tu6", DESK_FS)
    rng, ref = np.random.default_rng(13), np.random.default_rng(13)
    realize(prof, 0.05, 1.0, num_blocks, rng)
    ref.standard_normal(2 * prof.delays.size * num_blocks)
    assert rng.random() == ref.random()


def test_the_longest_frame_stays_frozen_without_doppler():
    taps = realize(preset_profile("tu6", DESK_FS), 0.0, 1e-3, MAX_BLOCKS, np.random.default_rng(15))
    assert np.max(np.abs(taps - taps[0])) <= 1e-13
    assert np.count_nonzero(taps[0]) == 4


@pytest.mark.parametrize("num_blocks", [64, MAX_BLOCKS])
def test_lag_one_correlation_of_short_and_long_frames(num_blocks):
    # frames are independent, so their spread gives the Monte-Carlo error
    rng = np.random.default_rng(14)
    fd_tb, num_frames = 0.077, 400
    per_frame = np.empty(num_frames)
    for i in range(num_frames):
        g = realize(preset_profile("flat", DESK_FS), fd_tb, 1.0, num_blocks, rng)[:, 0]
        per_frame[i] = np.mean(g[1:] * np.conj(g[:-1])).real
    err = per_frame.std(ddof=1) / np.sqrt(num_frames)
    assert abs(per_frame.mean() - r_t(1, fd_tb, 1.0)) <= 4.0 * err


def test_taps_are_mutually_uncorrelated():
    prof = preset_profile("two_tap", DESK_FS)
    rng = np.random.default_rng(7)
    taps = frames(prof, 0.02, 100_000, rng)
    g0, g1 = taps[..., 0], taps[..., 1]
    rho = np.mean(g0 * np.conj(g1)) / np.sqrt(np.mean(np.abs(g0) ** 2) * np.mean(np.abs(g1) ** 2))
    assert abs(rho) <= 0.02


def test_total_power_is_conserved_under_fading():
    prof = preset_profile("tu6", DESK_FS)
    rng = np.random.default_rng(8)
    taps = frames(prof, 0.02, 100_000, rng)
    assert np.mean(np.sum(np.abs(taps) ** 2, axis=-1)) == pytest.approx(1.0, abs=0.01)


def test_default_synthesis_autocorrelation():
    rng = np.random.default_rng(9)
    g = frames(preset_profile("flat", DESK_FS), 0.02, 30_000, rng)[..., 0]
    p0 = np.mean(np.abs(g) ** 2)
    for p in range(1, 11):
        emp = lag_correlation(g, p) / p0
        assert abs(emp - j0(2 * np.pi * 0.02 * p)) < 0.05


def test_grid_correlation_separates_into_time_and_frequency():
    # E{H[i+p, k+q] H*[i, k]} factors as r_t(p) r_f(q)
    prof = preset_profile("tu6", DESK_FS)
    rng = np.random.default_rng(11)
    n, b, fd_tb = 32, 16, 0.02
    draws = 2500
    acc = np.zeros((5, 5), dtype=np.complex128)
    for _ in range(draws):
        h = cfr(realize(prof, fd_tb, 1.0, b, rng), n)
        for p in range(5):
            for q in range(5):
                acc[p, q] += np.mean(h[p:, q:] * np.conj(h[: b - p, : n - q]))
    acc /= draws
    want = np.outer(r_t(np.arange(5), fd_tb, 1.0), r_f(np.arange(5), prof, n))
    assert np.max(np.abs(acc - want)) < 0.05


def test_profile_rejects_negative_delays():
    with pytest.raises(ValueError):
        preset_profile("tu6", -DTMB_FS)   # negative rate puts taps before zero
