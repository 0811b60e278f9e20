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
from tdsofdm.refiners import _impute_invalid, _window_sum

from conftest import (
    crandn,
    dense_freq_map,
    exact_freq_wiener,
    exact_time_wiener,
    reference_impute,
    reference_window_sum,
    uniform_prior,
)


def test_ma_window_of_one_is_identity():
    rng = np.random.default_rng(40)
    v = crandn(rng, (3, 32))
    out = ma_1d(v, 1, noise_var=0.2)
    assert np.array_equal(out.values, v)
    assert out.eps == pytest.approx(0.2, rel=1e-12)
    assert out.mask.all()


def test_ma_even_window_rounds_up():
    rng = np.random.default_rng(41)
    v = crandn(rng, 64)
    assert np.array_equal(ma_1d(v, 4).values, ma_1d(v, 5).values)


def test_ma_preserves_constants():
    out = ma_1d(np.full(50, 3.0 - 1.0j), 9)
    assert np.allclose(out.values, 3.0 - 1.0j, atol=1e-12)


def test_ma_interior_variance_and_eps():
    rng = np.random.default_rng(42)
    rows, n, var, m = 3000, 64, 0.5, 5
    noise = crandn(rng, (rows, n), var=var)
    out = ma_1d(noise + 1.0, m, noise_var=var)
    err2 = np.abs(out.values - 1.0) ** 2
    # interior bins see the full window, edges a truncated one
    per_bin = np.full(n, var / 5)
    per_bin[[0, -1]] = var / 3
    per_bin[[1, -2]] = var / 4
    assert out.eps == pytest.approx(per_bin.mean(), rel=1e-12)
    emp_interior = err2[:, 2:-2].mean()
    assert emp_interior == pytest.approx(var / 5, rel=0.1)
    assert err2.mean() == pytest.approx(out.eps, rel=0.1)


def test_ma_excludes_masked_bins():
    v = np.ones(9, dtype=np.complex128)
    v[4] = 1e6                       # poisoned, but masked out
    mask = np.ones(9, dtype=bool)
    mask[4] = False
    out = ma_1d(v, 3, mask=mask, noise_var=0.3)
    assert np.allclose(out.values, 1.0)
    # the masked bin still gets a value from its live neighbors
    assert out.mask[4]
    # two live bins in the windows of the edges and of bins 3 to 5, three
    # elsewhere
    per_bin = np.full(9, 0.3 / 3)
    per_bin[[0, 3, 4, 5, 8]] = 0.3 / 2
    assert out.eps == pytest.approx(per_bin.mean(), rel=1e-12)


def test_ma_all_masked():
    out = ma_1d(np.ones(8), 3, mask=np.zeros(8, dtype=bool), noise_var=0.1)
    assert not out.mask.any()
    assert np.all(out.values == 0.0)
    assert out.eps == float("inf")


def test_ma_never_hurts_a_static_flat_channel():
    rng = np.random.default_rng(43)
    var = 0.25
    obs = 2.0 + crandn(rng, (400, 64), var=var)
    base = ma_1d(obs, 1, noise_var=var)
    mse1 = np.mean(np.abs(base.values - 2.0) ** 2)
    for m in (3, 5, 9, 15):
        out = ma_1d(obs, m, noise_var=var)
        assert out.eps <= base.eps
        assert np.mean(np.abs(out.values - 2.0) ** 2) <= mse1


def test_ma_rejects_bad_windows():
    with pytest.raises(ValueError):
        ma_1d(np.ones(4), 0)
    with pytest.raises(ValueError):
        ma_1d(np.ones(4), -3)
    with pytest.raises(ValueError):
        ma_2d(np.ones((2, 4)), 0, 3)
    with pytest.raises(ValueError):
        ma_2d(np.ones((2, 4)), 2, 0)
    with pytest.raises(ValueError):
        ma_2d(np.ones(8), 2, 3)


def test_ma_2d_single_block_window_matches_1d():
    rng = np.random.default_rng(44)
    v = crandn(rng, (4, 32))
    a = ma_2d(v, 1, 7, noise_var=0.1)
    b = ma_1d(v, 7, noise_var=0.1)
    assert np.allclose(a.values, b.values)
    assert a.eps == pytest.approx(b.eps, rel=1e-12)


def test_ma_2d_time_pairing_is_trailing_and_halves_noise():
    rng = np.random.default_rng(45)
    var = 0.4
    g = crandn(rng, (200, 16), var=var)
    out = ma_2d(g, 2, 1, noise_var=var)
    assert np.array_equal(out.values[0], g[0])
    assert np.allclose(out.values[1], (g[0] + g[1]) / 2)
    # block 0 has no past block to pair with
    per_bin = np.full(g.shape[0], var / 2)
    per_bin[0] = var
    assert out.eps == pytest.approx(per_bin.mean(), rel=1e-12)
    emp = np.mean(np.abs(out.values[1:]) ** 2)
    assert emp == pytest.approx(var / 2, rel=0.1)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    other=st.integers(1, 3),
    axis=st.sampled_from([0, -1]),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_sum_matches_the_gather_form(data, n, other, axis, is_complex, seed):
    # windows from a single bin to far past both ends of the axis
    back = data.draw(st.integers(0, n + 3), label="back")
    fwd = data.draw(st.integers(0, n + 3), label="fwd")
    rng = np.random.default_rng(seed)
    shape = (n, other) if axis == 0 else (other, n)
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    if is_complex:
        a = a + 1j * rng.standard_normal(shape)
    want = reference_window_sum(a, back, fwd, axis)
    got = _window_sum(a, back, fwd, axis)
    assert got.shape == want.shape and got.dtype == a.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("back, fwd, axis", [(1, 0, 0), (2, 3, 0), (7, 7, -1), (0, 12, -1)])
def test_window_sum_matches_the_gather_form_on_a_dtmb_grid(back, fwd, axis):
    rng = np.random.default_rng(46)
    a = crandn(rng, (10, 3780))
    assert np.array_equal(_window_sum(a, back, fwd, axis), reference_window_sum(a, back, fwd, axis))


def test_wiener_every_bin_piloted_is_near_identity():
    # noiseless cells reproduce any signal the design covers
    rng = np.random.default_rng(46)
    gains, resid = build_wiener(16, input_err_var=0.0, profile=uniform_prior(4))
    assert resid < 1e-9
    v = cfr(crandn(rng, 4), 16)
    assert np.max(np.abs(wiener_1d(v, gains) - v)) < 1e-6


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


# an asymmetric profile
_SKEWED = PowerDelayProfile(delays=np.array([0, 1, 3, 6]), powers=np.array([0.5, 0.25, 0.15, 0.1]))


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
    out = wiener_1d(np.full(32, 2.0 + 1.0j), gains)
    assert np.max(np.abs(out - (2.0 + 1.0j))) < 1e-6
    assert np.all(wiener_1d(np.zeros(32), gains) == 0.0)


def test_wiener_residual_tracks_simulation():
    rng = np.random.default_rng(47)
    for var in (1.0, 0.01):
        gains, resid = build_wiener(32, input_err_var=var, profile=uniform_prior(4))
        draws = 4000
        taps = crandn(rng, (draws, 4), var=0.25)
        truth = cfr(taps, 32)
        out = wiener_1d(truth + crandn(rng, (draws, 32), var=var), gains)
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
    clean_out = wiener_1d(truth, gains)
    dirty_out = wiener_1d(dirty, gains, mask=mask)
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
    out = wiener_1d(np.ones((2, 32)), gains, mask=np.array([[False] * 32, [True] * 32]))
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
    out = wiener_2x1d(np.tile(truth, (4, 1)), gains, smoother)
    assert out.shape == (4, 32)
    assert np.max(np.abs(out - truth)) < 1e-6


def test_wiener_2x1d_single_pilot_block_replicates_freq_pass():
    rng = np.random.default_rng(49)
    gains, _ = build_wiener(32, input_err_var=0.0, profile=uniform_prior(4))
    smoother, _ = time_wiener(1, input_err_var=0.0, fd_hz=0.0, tb_s=0.0)
    grid = crandn(rng, (1, 32))
    out = wiener_2x1d(grid, gains, smoother)
    row = wiener_1d(grid, gains)[0]
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
    want = smoother @ wiener_1d(grid, gains, mask)
    got = wiener_2x1d(grid, gains, smoother, mask)
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
            out = wiener_2x1d(truth + crandn(rng, (8, 32), var=var), gains, smoother)
            total += np.sum(np.abs(out - truth) ** 2)
            count += out.size
        ratio = (total / count) / resid
        assert 0.85 < ratio < 1.15, f"snr {snr_db}: ratio {ratio:.3f}"


def test_wiener_beats_plain_averaging():
    rng = np.random.default_rng(51)
    var = 0.1
    gains, _ = build_wiener(64, input_err_var=var, profile=uniform_prior(4))
    wins = 0
    for _ in range(200):
        truth = cfr(crandn(rng, 4, var=0.25), 64)
        cells = truth + crandn(rng, 64, var=var)
        wout = wiener_1d(cells, gains)
        mout = ma_1d(cells, 5).values
        if np.mean(np.abs(wout - truth) ** 2) <= np.mean(np.abs(mout - truth) ** 2):
            wins += 1
    assert wins >= 180
