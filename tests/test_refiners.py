"""Moving-average and Wiener refiners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsofdm import (
    PowerDelayProfile,
    build_wiener,
    cfr,
    ma_1d,
    ma_2d,
    preset_profile,
    realize,
    resolve_config,
    time_wiener,
    wiener_1d,
    wiener_2x1d,
)
from tdsofdm.refiners import _impute_invalid

from conftest import (
    crandn,
    dense_freq_map,
    exact_freq_wiener,
    exact_time_wiener,
    reference_impute,
    uniform_prior,
)


def smooth_1d(values, gains, mask=None):
    """wiener_1d's smoothed rows: the DFT of its taps on the rows' subcarriers."""
    return cfr(wiener_1d(values, gains, mask), np.shape(values)[-1])


def smooth_2x1d(grid, gains, smoother, mask=None):
    """wiener_2x1d's smoothed grid: the DFT of its taps on each block."""
    return cfr(wiener_2x1d(grid, gains, smoother, mask), np.shape(grid)[-1])


# an asymmetric profile
_SKEWED = PowerDelayProfile(delays=np.array([0, 1, 3, 6]), powers=np.array([0.5, 0.25, 0.15, 0.1]))


def circular_average(values, m):
    """The centered m-bin average of each row, taken circularly, summed bin
    by bin; an even m rounds up to the next odd."""
    half = m // 2
    return sum(np.roll(values, q, axis=-1) for q in range(-half, half + 1)) / (2 * half + 1)


def test_ma_window_of_one_is_identity():
    rng = np.random.default_rng(40)
    v = crandn(rng, (3, 32))
    gains, resid = ma_1d(32, 1, input_err_var=0.2, profile=uniform_prior(4))
    assert np.array_equal(gains, np.ones(32))
    assert resid == 0.2
    assert np.max(np.abs(smooth_1d(v, gains) - v)) <= 1e-12 * np.max(np.abs(v))


def test_ma_even_window_rounds_up():
    kw = dict(input_err_var=0.1, profile=uniform_prior(6))
    gains4, resid4 = ma_1d(64, 4, **kw)
    gains5, resid5 = ma_1d(64, 5, **kw)
    assert np.array_equal(gains4, gains5)
    assert resid4 == resid5


def test_ma_preserves_constants():
    gains, _ = ma_1d(50, 9, input_err_var=0.1, profile=uniform_prior(4))
    assert gains[0] == 1.0
    out = smooth_1d(np.full(50, 3.0 - 1.0j), gains)
    assert np.allclose(out, 3.0 - 1.0j, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5, 8, 9, 21])
@pytest.mark.parametrize("n", [64, 3780])
def test_ma_gains_are_the_circular_window_average(n, m):
    rng = np.random.default_rng(41)
    v = crandn(rng, (4, n))
    gains, _ = ma_1d(n, m, input_err_var=0.1, profile=uniform_prior(4))
    want = circular_average(v, m)
    assert np.max(np.abs(smooth_1d(v, gains) - want)) <= 1e-12 * np.max(np.abs(want))


def test_ma_imputes_masked_cells():
    # a poisoned cell under the mask is imputed from its neighbors first
    gains, _ = ma_1d(9, 3, input_err_var=0.3, profile=uniform_prior(2))
    v = np.ones(9, dtype=np.complex128)
    v[4] = 1e6
    mask = np.ones(9, dtype=bool)
    mask[4] = False
    assert np.allclose(smooth_1d(v, gains, mask), 1.0, atol=1e-12)


def test_ma_residual_of_a_single_tap_prior_is_the_noise_alone():
    # a window passes a flat channel whole, so the residual is the noise
    # s / m and a longer window never hurts
    rng = np.random.default_rng(43)
    var = 0.25
    flat = preset_profile("flat", 1.0)
    obs = 2.0 + crandn(rng, (400, 64), var=var)
    mse = []
    for m in (1, 3, 5, 9, 15):
        gains, resid = ma_1d(64, m, input_err_var=var, profile=flat)
        assert resid == pytest.approx(var / m, rel=1e-12)
        mse.append(np.mean(np.abs(smooth_1d(obs, gains) - 2.0) ** 2))
    assert mse == sorted(mse, reverse=True)
    assert mse[1] == pytest.approx(var / 3, rel=0.05)


def test_ma_residual_tracks_simulation():
    # the residual is the noise the window passes plus its bias on taps
    # drawn from the prior
    rng = np.random.default_rng(42)
    for var in (1.0, 0.01, 1e-4):
        gains, resid = ma_1d(64, 5, input_err_var=var, profile=_SKEWED)
        draws = 4000
        taps = crandn(rng, (draws, _SKEWED.length)) * np.sqrt(_SKEWED.dense_powers())
        truth = cfr(taps, 64)
        out = smooth_1d(truth + crandn(rng, (draws, 64), var=var), gains)
        emp = np.mean(np.abs(out - truth) ** 2)
        assert emp == pytest.approx(resid, rel=0.1)


def test_ma_rejects_bad_windows():
    kw = dict(input_err_var=0.1, profile=uniform_prior(2))
    with pytest.raises(ValueError):
        ma_1d(4, 0, **kw)
    with pytest.raises(ValueError):
        ma_1d(4, -3, **kw)
    gains, _ = ma_1d(4, 3, **kw)
    time = dict(fd_hz=0.0, tb_s=1.0)
    with pytest.raises(ValueError):
        ma_2d(2, 0, gains, **kw, **time)
    with pytest.raises(ValueError):
        ma_2d(0, 2, gains, **kw, **time)
    with pytest.raises(ValueError):
        ma_2d(2, 2, gains, **kw, fd_hz=-1.0, tb_s=1.0)


def test_ma_2d_single_block_window_matches_1d():
    kw = dict(input_err_var=0.1, profile=_SKEWED)
    gains, resid = ma_1d(32, 7, **kw)
    smoother, resid2 = ma_2d(4, 1, gains, **kw, fd_hz=0.05, tb_s=1.0)
    assert np.array_equal(smoother, np.eye(4))
    assert resid2 == pytest.approx(resid, rel=1e-12)


def test_ma_2d_time_pairing_is_trailing_and_halves_noise():
    rng = np.random.default_rng(45)
    var = 0.4
    gains = np.ones(16)
    smoother, resid = ma_2d(
        200, 2, gains, input_err_var=var, profile=preset_profile("flat", 1.0), fd_hz=0.0, tb_s=1.0
    )
    g = crandn(rng, (200, 16), var=var)
    out = smooth_2x1d(g, gains, smoother)
    assert np.allclose(out[0], g[0])
    assert np.allclose(out[1], (g[0] + g[1]) / 2)
    # block 0 has no past block to pair with
    per_block = np.full(g.shape[0], var / 2)
    per_block[0] = var
    assert resid == pytest.approx(per_block.mean(), rel=1e-12)
    emp = np.mean(np.abs(out[1:]) ** 2)
    assert emp == pytest.approx(var / 2, rel=0.1)


@pytest.mark.parametrize("m_t", [1, 2, 3, 4])
def test_ma_2d_residual_tracks_simulation(m_t):
    # the bias of a time window on Jakes fading, and of the frequency
    # window on the prior
    rng = np.random.default_rng(53)
    fd_hz, blocks = 0.05, 8
    for var in (0.1, 1e-3):
        gains, _ = ma_1d(32, 3, input_err_var=var, profile=_SKEWED)
        smoother, resid = ma_2d(
            blocks, m_t, gains, input_err_var=var, profile=_SKEWED, fd_hz=fd_hz, tb_s=1.0
        )
        total, count = 0.0, 0
        for _ in range(1500):
            truth = cfr(realize(_SKEWED, fd_hz, 1.0, blocks, rng), 32)
            out = smooth_2x1d(truth + crandn(rng, (blocks, 32), var=var), gains, smoother)
            total += np.sum(np.abs(out - truth) ** 2)
            count += out.size
        assert total / count == pytest.approx(resid, rel=0.1)


def test_wiener_every_bin_piloted_is_near_identity():
    # noiseless cells reproduce any signal the design covers
    rng = np.random.default_rng(46)
    gains, resid = build_wiener(16, input_err_var=0.0, profile=uniform_prior(4))
    assert resid < 1e-9
    v = cfr(crandn(rng, 4), 16)
    assert np.max(np.abs(smooth_1d(v, gains) - v)) < 1e-6


@pytest.mark.parametrize("var", [0.25, 1e-3])
def test_wiener_flat_profile_closed_form(var):
    gains, resid = build_wiener(32, input_err_var=var, profile=preset_profile("flat", 1.0))
    assert gains.shape == (1,)
    assert gains[0] == pytest.approx(32 / (32 + var), rel=1e-15)
    assert resid == pytest.approx(var / (32 + var), rel=1e-15)


def test_wiener_build_rejects_bad_arguments():
    # build_wiener is the frequency design alone: it takes no domain
    with pytest.raises(TypeError):
        build_wiener("freq", 64, input_err_var=0.1, profile=uniform_prior(4))
    with pytest.raises(ValueError):
        build_wiener(64, input_err_var=-0.1, profile=uniform_prior(4))
    with pytest.raises(ValueError):
        build_wiener(0, input_err_var=0.1, profile=uniform_prior(1))
    with pytest.raises(ValueError):
        time_wiener(4, input_err_var=0.1, fd_hz=-1.0, tb_s=1.0)
    with pytest.raises(ValueError):
        time_wiener(4, input_err_var=-0.1, fd_hz=0.0, tb_s=0.0)
    with pytest.raises(ValueError):
        time_wiener(0, input_err_var=0.1, fd_hz=0.0, tb_s=0.0)


def test_wiener_rejects_a_prior_delay_at_or_beyond_n():
    # n subcarriers resolve delays 0 .. n-1 alone; a later one would alias
    assert build_wiener(64, input_err_var=0.1, profile=uniform_prior(64))[0].size == 64
    with pytest.raises(ValueError, match="at or beyond n = 64"):
        build_wiener(64, input_err_var=0.1, profile=uniform_prior(65))
    echo = PowerDelayProfile(delays=np.array([0, 3, 64]), powers=np.array([0.6, 0.3, 0.1]))
    with pytest.raises(ValueError, match="at or beyond n = 64"):
        build_wiener(64, input_err_var=0.1, profile=echo)
    assert build_wiener(65, input_err_var=0.1, profile=echo)[0].size == 65


def _preset_profile(overrides):
    return resolve_config(overrides).profile()


# n subcarriers and prior: uniform, TU6 and SFN priors at desk and dtmb
# sizes, and a small skewed profile on a grid that is no power of two
_FREQ_DESIGNS = {
    "uniform-desk": (512, uniform_prior(6)),
    "uniform-dtmb": (3780, uniform_prior(39)),
    "tu6-desk": (512, _preset_profile({"preset": "desk"})),
    "tu6-dtmb": (3780, _preset_profile({"preset": "dtmb"})),
    "sfn-desk": (512, _preset_profile({"preset": "desk", "sfn_delay_us": 20})),
    "sfn-dtmb": (3780, _preset_profile({"preset": "dtmb", "sfn_delay_us": 30})),
    "skewed-ragged": (71, _SKEWED),
}


@pytest.mark.parametrize("var", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("case", sorted(_FREQ_DESIGNS))
def test_wiener_closed_form_matches_the_dense_lmmse(case, var):
    n, prior = _FREQ_DESIGNS[case]
    gains, resid = build_wiener(n, input_err_var=var, profile=prior)
    want_coeff, want_resid = exact_freq_wiener(n, var, prior)
    got = dense_freq_map(gains, n)
    assert got.shape == want_coeff.shape
    assert np.max(np.abs(got - want_coeff)) <= 1e-12 * np.max(np.abs(want_coeff))
    assert resid == pytest.approx(want_resid, rel=1e-12, abs=0.0)


# block_len, the Jakes fading and the input variances of the time designs.
# With every block observed, slow fading at var = 0 leaves phi with a
# condition number near 1e13: rounding its entries to float64 already moves
# the exact solution by about 1e-3, so no float64 design can match it to
# 1e-12.  1e-6 lies below the input variance of any receiver design here.
_TIME_DESIGNS = {
    "ten": (10, 0.05, (1e-6, 1e-3, 0.1)),
    "nine": (9, 0.02, (1e-6, 1e-3, 0.1)),
    "desk": (10, 0.0078, (1e-6, 1e-3, 0.1)),
    "one": (1, 0.05, (0.0, 1e-3, 0.1)),
}


@pytest.mark.parametrize("case, var", [(c, v) for c, d in sorted(_TIME_DESIGNS.items()) for v in d[2]])
def test_wiener_time_design_matches_the_exact_solve(case, var):
    n, fd_hz, _ = _TIME_DESIGNS[case]
    got, resid = time_wiener(n, input_err_var=var, fd_hz=fd_hz, tb_s=1.0)
    # a slow-fading phi costs a float64 solve 2e-11: solve it exactly
    want_coeff, want_resid = exact_time_wiener(n, var, fd_hz=fd_hz, tb_s=1.0)
    assert got.shape == want_coeff.shape == (n, n)
    assert np.max(np.abs(got - want_coeff)) <= 1e-12 * np.max(np.abs(want_coeff))
    # residual_mse is r(0) - quad with r(0) = 1, so at var = 0 the absolute
    # floor is 1e-12 of the prior power rather than of the tiny residual
    assert resid == pytest.approx(want_resid, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("var", [1e-16, 1e-13])
def test_an_input_variance_below_the_jitter_designs_as_the_jitter(var):
    # dtmb's slow fading puts the smallest eigenvalue of its Jakes block
    # matrix near -2.2e-16, so a ridge of 1e-16 left the time system
    # indefinite and Cholesky raised; any input under the 1e-12 r(0) jitter
    # now designs exactly as zero does, in time and in frequency
    cfg = resolve_config({"preset": "dtmb"})
    time = dict(fd_hz=cfg.fd_hz, tb_s=cfg.tb_s)
    freq = dict(profile=uniform_prior(cfg.cir_len))
    for design, n, kw in ((time_wiener, 10, time), (build_wiener, 3780, freq)):
        got, got_resid = design(n, input_err_var=var, **kw)
        want, want_resid = design(n, input_err_var=0.0, **kw)
        assert np.all(np.isfinite(got)) and np.isfinite(got_resid)
        assert np.array_equal(got, want)
        assert got_resid == want_resid


def test_wiener_ignores_zero_power_taps():
    padded = PowerDelayProfile(
        delays=np.append(_SKEWED.delays, 4), powers=np.append(_SKEWED.powers, 0.0)
    )
    for var in (0.0, 1e-3, 0.1):
        want, want_resid = build_wiener(64, input_err_var=var, profile=_SKEWED)
        got, got_resid = build_wiener(64, input_err_var=var, profile=padded)
        assert np.array_equal(got, want)
        assert got_resid == want_resid


def test_wiener_non_positive_definite_system_raises():
    # a "profile" with a negative power is no correlation at all
    bad = PowerDelayProfile(delays=np.array([0, 1]), powers=np.array([2.0, -1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        build_wiener(32, input_err_var=0.0, profile=bad)


def test_wiener_interpolates_constants_and_zeros():
    gains, _ = build_wiener(32, input_err_var=0.0, profile=preset_profile("flat", 1.0))
    out = smooth_1d(np.full(32, 2.0 + 1.0j), gains)
    assert np.max(np.abs(out - (2.0 + 1.0j))) < 1e-6
    assert np.all(smooth_1d(np.zeros(32), gains) == 0.0)


def test_wiener_residual_tracks_simulation():
    rng = np.random.default_rng(47)
    for var in (1.0, 0.01):
        gains, resid = build_wiener(32, input_err_var=var, profile=uniform_prior(4))
        draws = 4000
        taps = crandn(rng, (draws, 4), var=0.25)
        truth = cfr(taps, 32)
        out = smooth_1d(truth + crandn(rng, (draws, 32), var=var), gains)
        emp = np.mean(np.abs(out - truth) ** 2)
        assert emp == pytest.approx(resid, rel=0.1)


def test_wiener_rejects_more_gains_than_subcarriers():
    gains, _ = build_wiener(32, input_err_var=0.1, profile=uniform_prior(4))
    with pytest.raises(ValueError, match="subcarriers"):
        wiener_1d(np.zeros(3), gains)


def test_wiener_imputes_invalid_pilots_exactly_for_linear_fields():
    gains, _ = build_wiener(32, input_err_var=0.05, profile=uniform_prior(4))
    k = np.arange(32)
    truth = 0.3 + 0.02 * k + 1j * (1.0 - 0.01 * k)
    dirty = truth.copy()
    dirty[5] = 99.0 + 99.0j
    mask = np.ones(32, dtype=bool)
    mask[5] = False
    clean_out = smooth_1d(truth, gains)
    dirty_out = smooth_1d(dirty, gains, mask=mask)
    assert np.max(np.abs(dirty_out - clean_out)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    s=st.integers(1, 5),
    n=st.integers(1, 40),
    drop=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    dead_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_imputation_matches_np_interp_row_by_row(s, n, drop, dead_row, seed):
    rng = np.random.default_rng(seed)
    shape = (s, n)
    values = crandn(rng, shape) * 10.0 ** rng.uniform(-5, 5, shape)
    mask = rng.random(shape) >= drop
    if dead_row:
        mask[rng.integers(s)] = False
    got, want = _impute_invalid(values, mask), reference_impute(values, mask)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a single row comes back one-dimensional
    assert _impute_invalid(values[0], mask[0]).tobytes() == want[0].tobytes()


def test_wiener_row_with_no_valid_pilots_returns_zeros():
    gains, _ = build_wiener(32, input_err_var=0.05, profile=uniform_prior(4))
    out = smooth_1d(np.ones((2, 32)), gains, mask=np.array([[False] * 32, [True] * 32]))
    assert np.all(out[0] == 0.0)
    assert np.all(out[1] != 0.0)


def test_wiener_2x1d_shape_checks():
    gains, _ = build_wiener(32, input_err_var=0.1, profile=uniform_prior(4))
    smoother, _ = time_wiener(4, input_err_var=0.1, fd_hz=0.0, tb_s=0.0)
    with pytest.raises(ValueError):
        wiener_2x1d(np.zeros(32), gains, smoother)
    with pytest.raises(ValueError, match="blocks"):
        wiener_2x1d(np.zeros((3, 32)), gains, smoother)
    with pytest.raises(ValueError, match="subcarriers"):
        wiener_2x1d(np.zeros((4, 3)), gains, smoother)


def test_wiener_2x1d_static_noiseless_is_exact():
    rng = np.random.default_rng(48)
    gains, _ = build_wiener(32, input_err_var=0.0, profile=uniform_prior(4))
    smoother, _ = time_wiener(4, input_err_var=0.0, fd_hz=0.0, tb_s=0.0)
    truth = cfr(crandn(rng, 4, var=0.25), 32)
    out = smooth_2x1d(np.tile(truth, (4, 1)), gains, smoother)
    assert out.shape == (4, 32)
    assert np.max(np.abs(out - truth)) < 1e-6


def test_wiener_2x1d_single_pilot_block_replicates_freq_pass():
    rng = np.random.default_rng(49)
    gains, _ = build_wiener(32, input_err_var=0.0, profile=uniform_prior(4))
    smoother, _ = time_wiener(1, input_err_var=0.0, fd_hz=0.0, tb_s=0.0)
    grid = crandn(rng, (1, 32))
    out = smooth_2x1d(grid, gains, smoother)
    row = smooth_1d(grid, gains)[0]
    assert np.max(np.abs(out - row)) < 1e-6


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("prior", ["uniform", "profile"])
def test_wiener_2x1d_time_pass_commutes_with_the_dft(prior, masked):
    # the time pass on the taps, then the DFT, equals the time pass on the
    # full frequency pass of every block
    rng = np.random.default_rng(52)
    profile = _SKEWED if prior == "profile" else uniform_prior(7)
    gains, resid = build_wiener(70, input_err_var=0.05, profile=profile)
    smoother, _ = time_wiener(8, input_err_var=resid, fd_hz=0.01, tb_s=1.0)
    grid = crandn(rng, (8, 70))
    mask = None
    if masked:
        mask = rng.random(grid.shape) > 0.3
        mask[1] = False                  # a block with no valid cell
    want = smoother @ smooth_1d(grid, gains, mask)
    got = smooth_2x1d(grid, gains, smoother, mask)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_wiener_2x1d_cascade_tracks_residual():
    rng = np.random.default_rng(50)
    prof = PowerDelayProfile(
        delays=np.arange(4), powers=np.array([0.5, 0.25, 0.15, 0.10])
    )
    for snr_db in (10.0, 20.0, 30.0):
        var = 10.0 ** (-snr_db / 10.0)
        gains, resid = build_wiener(32, input_err_var=var, profile=prof)
        smoother, resid = time_wiener(8, input_err_var=resid, fd_hz=0.01, tb_s=1.0)
        total, count = 0.0, 0
        for _ in range(400):
            truth = cfr(realize(prof, 0.01, 1.0, 8, rng), 32)
            out = smooth_2x1d(truth + crandn(rng, (8, 32), var=var), gains, smoother)
            total += np.sum(np.abs(out - truth) ** 2)
            count += out.size
        ratio = (total / count) / resid
        assert 0.85 < ratio < 1.15, f"snr {snr_db}: ratio {ratio:.3f}"


def test_wiener_beats_plain_averaging():
    rng = np.random.default_rng(51)
    var = 0.1
    gains, _ = build_wiener(64, input_err_var=var, profile=uniform_prior(4))
    ma_gains, _ = ma_1d(64, 5, input_err_var=var, profile=uniform_prior(4))
    wins = 0
    for _ in range(200):
        truth = cfr(crandn(rng, 4, var=0.25), 64)
        cells = truth + crandn(rng, 64, var=var)
        wout = smooth_1d(cells, gains)
        mout = smooth_1d(cells, ma_gains)
        if np.mean(np.abs(wout - truth) ** 2) <= np.mean(np.abs(mout - truth) ** 2):
            wins += 1
    assert wins >= 180
