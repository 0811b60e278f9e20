"""Moving-average and Wiener-interpolation refiners and the pilot planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdsofdm import (
    ConstraintError,
    PowerDelayProfile,
    VirtualPilotPlan,
    build_wiener,
    cfr,
    ma_1d,
    ma_2d,
    plan_pilots,
    preset_profile,
    realize,
    resolve_config,
    wiener_1d,
    wiener_2x1d,
)
from tdsofdm.refiners import _window_sum

from conftest import (
    crandn,
    dense_coefficients,
    exact_freq_wiener,
    exact_time_wiener,
    reference_system,
    reference_wiener,
    reference_window_sum,
)


def test_ma_window_of_one_is_identity():
    rng = np.random.default_rng(40)
    v = crandn(rng, (3, 32))
    out = ma_1d(v, 1, noise_var=0.2)
    assert np.array_equal(out.values, v)
    assert np.allclose(out.per_bin_var, 0.2)
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
    assert np.allclose(out.per_bin_var[:, 2:-2], var / 5)
    assert np.allclose(out.per_bin_var[:, 0], var / 3)
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
    assert out.per_bin_var[4] == pytest.approx(0.3 / 2)
    assert out.per_bin_var[3] == pytest.approx(0.3 / 2)


def test_ma_all_masked():
    out = ma_1d(np.ones(8), 3, mask=np.zeros(8, dtype=bool), noise_var=0.1)
    assert not out.mask.any()
    assert np.all(out.values == 0.0)
    assert np.all(np.isinf(out.per_bin_var))
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
    assert np.allclose(a.per_bin_var, b.per_bin_var)


def test_ma_2d_time_pairing_is_trailing_and_halves_noise():
    rng = np.random.default_rng(45)
    var = 0.4
    g = crandn(rng, (200, 16), var=var)
    out = ma_2d(g, 2, 1, noise_var=var)
    assert np.array_equal(out.values[0], g[0])
    assert np.allclose(out.values[1], (g[0] + g[1]) / 2)
    assert np.allclose(out.per_bin_var[1:], var / 2)
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
    # the sums at a lattice along the axis, or over the whole axis
    at = data.draw(st.none() | _lattice(n), label="at")
    if at is not None:
        want = np.take(want, at, axis)
    got = _window_sum(a, back, fwd, axis, at)
    assert got.shape == want.shape and got.dtype == a.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("back, fwd, axis", [(1, 0, 0), (2, 3, 0), (7, 7, -1), (0, 12, -1)])
def test_window_sum_matches_the_gather_form_on_a_dtmb_grid(back, fwd, axis):
    rng = np.random.default_rng(46)
    a = crandn(rng, (10, 3780))
    assert np.array_equal(_window_sum(a, back, fwd, axis), reference_window_sum(a, back, fwd, axis))


def _lattice(size):
    """Index sets along one axis: plan_pilots' regular spacing from any
    offset, or any sorted subset, which covers both edge bins."""
    regular = st.integers(1, size).flatmap(
        lambda step: st.integers(0, step - 1).map(lambda start: np.arange(start, size, step))
    )
    chosen = st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True).map(
        lambda idx: np.array(sorted(idx))
    )
    return st.one_of(regular, chosen)


def _assert_lattice_matches_the_full_grid(smooth, rows, cols):
    full, lat = smooth(None), smooth((rows, cols))
    grid = np.ix_(rows, cols)
    for name in ("values", "per_bin_var", "mask"):
        got, want = getattr(lat, name), getattr(full, name)[grid]
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    live = full.per_bin_var[grid][full.mask[grid]]
    assert lat.eps == (float(live.mean()) if live.size else float("inf"))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    s=st.integers(1, 8),
    n=st.integers(1, 40),
    m_t=st.integers(1, 5),
    m_f=st.integers(1, 12),
    one_d=st.booleans(),
    masked=st.sampled_from([None, 0.0, 0.3, 0.9, 1.0]),
    weighted=st.booleans(),
    is_complex=st.booleans(),
    noise_var=st.sampled_from([0.0, 0.1, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_smoothing_equals_the_full_grid_at_the_lattice(
    data, s, n, m_t, m_f, one_d, masked, weighted, is_complex, noise_var, seed
):
    rows = data.draw(_lattice(s), label="rows")
    cols = data.draw(_lattice(n), label="cols")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((s, n)) * 10.0 ** rng.uniform(-3, 3, (s, n))
    if is_complex:
        values = values + 1j * rng.standard_normal((s, n))
    # a drop fraction of 1 masks every bin, so no window has a live bin
    mask = None if masked is None else rng.random((s, n)) >= masked
    weights = rng.random((s, n)) * 10.0 ** rng.uniform(-2, 2, (s, n)) if weighted else None
    kw = dict(mask=mask, weights=weights, noise_var=noise_var)
    if one_d:
        smooth = lambda at: ma_1d(values, m_f, at=at, **kw)
    else:
        smooth = lambda at: ma_2d(values, m_t, m_f, at=at, **kw)
    _assert_lattice_matches_the_full_grid(smooth, rows, cols)


@pytest.mark.parametrize("m_t, m_f", [(1, 9), (2, 9), (3, 5)])
def test_lattice_smoothing_equals_the_full_grid_on_a_dtmb_plan(m_t, m_f):
    rng = np.random.default_rng(47)
    values = crandn(rng, (10, 3780))
    mask = rng.random(values.shape) > 0.01
    weights = rng.random(values.shape)
    plan = plan_pilots(3780, 39, 10, 0.0, 0.0, m_f, m_t)
    smooth = lambda at: ma_2d(values, m_t, m_f, mask=mask, weights=weights, noise_var=0.2, at=at)
    _assert_lattice_matches_the_full_grid(smooth, plan.time_idx, plan.freq_idx)


def test_uniform_prior_wider_than_the_pilot_spacing_resolves_is_a_constraint_error():
    # pilots every l_f = 4 of 64 subcarriers resolve at most 16 taps
    plan = plan_pilots(64, 4, 1, 0.0, 0.0, 4, 1)
    assert plan.l_f == 4
    assert build_wiener("freq", plan, input_err_var=0.1, design_len=16).coefficients.shape[0] == 16
    with pytest.raises(ConstraintError, match="at most 16"):
        build_wiener("freq", plan, input_err_var=0.1, design_len=17)


def test_pilot_plan_wide_grid():
    plan = plan_pilots(3780, 39, 10, 0.0, 0.0, 9, 2)
    assert (plan.l_f, plan.k_f) == (9, 420)
    assert (plan.l_t, plan.k_t) == (2, 5)
    assert np.array_equal(plan.freq_idx, np.arange(420) * 9)
    assert np.array_equal(plan.time_idx, np.arange(5) * 2)


def test_pilot_counts_follow_the_index_arrays():
    # a time pilot on the chunk's last block breaks the arange(k_t) * l_t
    # pattern; the counts still come from the positions
    plan = VirtualPilotPlan(
        l_f=3, l_t=2, n_fft=30, block_len=5, freq_idx=np.arange(10) * 3, time_idx=np.array([0, 2, 4])
    )
    assert (plan.k_f, plan.k_t) == (10, 3)
    with pytest.raises(AttributeError):
        plan.k_t = 2


def test_pilot_plan_caps_spacings():
    plan = plan_pilots(64, 4, 8, 0.0, 0.0, 9, 2)
    assert plan.l_f == 4                       # 64 / (4*4)
    assert plan.k_f == 16
    fast = plan_pilots(64, 4, 8, 50.0, 1e-3, 9, 9)
    assert fast.l_t == 5                       # 1 / (4 * 0.05)


@settings(max_examples=300, deadline=None)
@given(
    n_fft=st.integers(1, 4096),
    cir_len=st.integers(1, 512),
    block_len=st.integers(1, 64),
    fd_hz=st.floats(0.0, 1000.0),
    tb_s=st.floats(0.0, 2e-3),
    m=st.integers(1, 64),
    m_t=st.integers(1, 16),
)
def test_pilot_plan_spacings_obey_both_sampling_rules(n_fft, cir_len, block_len, fd_hz, tb_s, m, m_t):
    nyq = fd_hz * tb_s
    if 4 * cir_len > n_fft or nyq > 0.25:
        with pytest.raises(ConstraintError):
            plan_pilots(n_fft, cir_len, block_len, fd_hz, tb_s, m, m_t)
        return
    # a block of m_t symbols always holds a pilot, since l_t <= m_t
    l_t = plan_pilots(n_fft, cir_len, m_t, fd_hz, tb_s, m, m_t).l_t
    if block_len < l_t:
        with pytest.raises(ConstraintError, match="block_len"):
            plan_pilots(n_fft, cir_len, block_len, fd_hz, tb_s, m, m_t)
        return
    plan = plan_pilots(n_fft, cir_len, block_len, fd_hz, tb_s, m, m_t)
    # l_f cir_len / n_fft <= 1/4 and l_t fd tb <= 1/4
    assert 4 * plan.l_f * cir_len <= n_fft
    assert plan.l_t * nyq <= 0.25
    # each spacing is its window unless the rule caps it, and then the
    # largest spacing the rule allows
    assert 1 <= plan.l_f <= m and 1 <= plan.l_t <= m_t
    assert plan.l_f == m or 4 * (plan.l_f + 1) * cir_len > n_fft
    assert plan.l_t == m_t or (plan.l_t + 1) * nyq > 0.25
    assert plan.k_f == n_fft // plan.l_f and plan.k_t == block_len // plan.l_t
    assert np.array_equal(plan.freq_idx, np.arange(plan.k_f) * plan.l_f)
    assert np.array_equal(plan.time_idx, np.arange(plan.k_t) * plan.l_t)


def test_pilot_plan_unsatisfiable_rules():
    with pytest.raises(ConstraintError, match="frequency"):
        plan_pilots(64, 20, 8, 0.0, 0.0, 9, 2)
    with pytest.raises(ConstraintError, match="time"):
        plan_pilots(64, 4, 8, 300.0, 1e-3, 9, 2)
    with pytest.raises(ValueError):
        plan_pilots(0, 4, 8, 0.0, 0.0, 9, 2)
    with pytest.raises(ValueError):
        plan_pilots(64, 4, 8, 0.0, 0.0, 0, 2)


def test_wiener_every_bin_piloted_is_near_identity():
    # noiseless pilots on every bin reproduce any signal the design covers
    rng = np.random.default_rng(46)
    plan = plan_pilots(16, 4, 1, 0.0, 0.0, 1, 1)
    assert plan.l_f == 1
    filt = build_wiener("freq", plan, input_err_var=0.0, design_len=4)
    assert filt.residual_mse < 1e-9
    v = cfr(crandn(rng, 4), 16)
    assert np.max(np.abs(wiener_1d(v, filt) - v)) < 1e-6


@pytest.mark.parametrize("var", [0.25, 1e-3])
def test_wiener_flat_profile_closed_form(var):
    plan = plan_pilots(32, 1, 1, 0.0, 0.0, 4, 1)
    filt = build_wiener(
        "freq", plan, input_err_var=var, profile=preset_profile("flat", 1.0)
    )
    k = plan.k_f
    assert np.max(np.abs(filt.coefficients - 1.0 / (k + var))) < 1e-12
    assert np.all(filt.coefficients.imag == 0.0)
    assert filt.residual_mse == pytest.approx(var / (k + var), rel=1e-9)


def test_wiener_build_rejects_bad_arguments():
    plan = plan_pilots(64, 4, 4, 0.0, 0.0, 4, 1)
    with pytest.raises(ValueError):
        build_wiener("lattice", plan, input_err_var=0.1, design_len=4)
    with pytest.raises(ValueError):
        build_wiener("freq", plan, input_err_var=0.1)
    with pytest.raises(ValueError):
        build_wiener("freq", plan, input_err_var=-0.1, design_len=4)
    with pytest.raises(ValueError):
        build_wiener("time", plan, input_err_var=0.1, fd_hz=-1.0, tb_s=1.0)


# an asymmetric profile
_SKEWED = PowerDelayProfile(delays=np.array([0, 1, 3, 6]), powers=np.array([0.5, 0.25, 0.15, 0.1]))
# an echo one FFT period (64 samples) behind the tap at 3: on the grid
# the two are one exponential
_ALIASED = PowerDelayProfile(delays=np.array([0, 3, 67]), powers=np.array([0.6, 0.3, 0.1]))
_DESIGNS = {
    "freq-uniform": (plan_pilots(64, 4, 1, 0.0, 0.0, 4, 1), dict(design_len=4)),
    "freq-uniform-ragged": (plan_pilots(70, 4, 1, 0.0, 0.0, 4, 1), dict(design_len=4)),
    "freq-profile": (plan_pilots(64, 7, 1, 0.0, 0.0, 2, 1), dict(profile=_SKEWED)),
    "freq-profile-aliased": (plan_pilots(64, 4, 1, 0.0, 0.0, 4, 1), dict(profile=_ALIASED)),
    "freq-profile-ragged": (plan_pilots(71, 4, 1, 0.0, 0.0, 3, 1), dict(profile=_SKEWED)),
    "time": (plan_pilots(32, 4, 10, 0.05, 1.0, 2, 2), dict(fd_hz=0.05, tb_s=1.0)),
    "time-ragged": (plan_pilots(32, 4, 9, 0.02, 1.0, 4, 4), dict(fd_hz=0.02, tb_s=1.0)),
}


@pytest.mark.parametrize("var", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("case", sorted(_DESIGNS))
def test_wiener_matches_dense_reference(case, var):
    plan, kw = _DESIGNS[case]
    domain = case.split("-")[0]
    filt = build_wiener(domain, plan, input_err_var=var, **kw)
    # a frequency phi is rank D plus a small ridge, so a float64 solve of
    # it is itself off by up to 6e-3 (3.5e-2 aliased) at var = 0, and a
    # slow-fading time phi costs a float64 solve 2e-11: solve both exactly
    if domain == "freq":
        want_coeff, want_resid = exact_freq_wiener(plan, var, **kw)
    else:
        want_coeff, want_resid = exact_time_wiener(plan, var, **kw)
    got = dense_coefficients(filt)
    assert got.shape == want_coeff.shape
    assert np.max(np.abs(got - want_coeff)) <= 1e-12 * np.max(np.abs(want_coeff))
    # residual_mse is r(0) - quad with r(0) = 1, so at var = 0 the absolute
    # floor is 1e-12 of the prior power rather than of the tiny residual
    assert filt.residual_mse == pytest.approx(want_resid, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("prior", ["uniform", "profile"])
@pytest.mark.parametrize("preset", ["desk", "dtmb"])
def test_wiener_solves_the_full_size_system(preset, prior):
    # the wiener1d frequency design of each preset, checked against its own
    # dense system rather than against another solver
    cfg = resolve_config({"preset": preset})
    profile = cfg.profile()
    plan = plan_pilots(cfg.fft_size, profile.length, 1, 0.0, 0.0, cfg.m_f, 1)
    kw = dict(profile=profile) if prior == "profile" else dict(design_len=cfg.cir_len)
    for var in (0.0, 1e-3, 0.1):
        filt = build_wiener("freq", plan, input_err_var=var, **kw)
        phi, theta, _ = reference_system("freq", plan, var, **kw)
        err = np.max(np.abs(np.conj(phi) @ dense_coefficients(filt).T - theta))
        assert err <= 1e-13 * np.max(np.abs(theta)), f"var {var}: {err:.3g}"
    _, want_resid = reference_wiener("freq", plan, 0.1, **kw)
    assert filt.residual_mse == pytest.approx(want_resid, rel=1e-12)


def test_wiener_ignores_zero_power_taps():
    plan = plan_pilots(64, 7, 1, 0.0, 0.0, 2, 1)
    padded = PowerDelayProfile(
        delays=np.append(_SKEWED.delays, 4), powers=np.append(_SKEWED.powers, 0.0)
    )
    for var in (0.0, 1e-3, 0.1):
        want = build_wiener("freq", plan, input_err_var=var, profile=_SKEWED)
        got = build_wiener("freq", plan, input_err_var=var, profile=padded)
        assert np.max(np.abs(got.coefficients - want.coefficients)) <= 1e-12 * np.max(
            np.abs(want.coefficients)
        )
        assert got.residual_mse == pytest.approx(want.residual_mse, rel=1e-12, abs=1e-12)


def test_wiener_non_positive_definite_system_raises():
    # a "profile" with a negative power is no correlation at all
    bad = PowerDelayProfile(delays=np.array([0, 1]), powers=np.array([2.0, -1.0]))
    plan = plan_pilots(32, 2, 1, 0.0, 0.0, 2, 1)
    with pytest.raises(np.linalg.LinAlgError):
        build_wiener("freq", plan, input_err_var=0.0, profile=bad)


def test_wiener_interpolates_constants_and_zeros():
    plan = plan_pilots(32, 1, 1, 0.0, 0.0, 4, 1)
    filt = build_wiener(
        "freq", plan, input_err_var=0.0, profile=preset_profile("flat", 1.0)
    )
    out = wiener_1d(np.full(plan.k_f, 2.0 + 1.0j), filt)
    assert np.max(np.abs(out - (2.0 + 1.0j))) < 1e-6
    assert np.all(wiener_1d(np.zeros(plan.k_f), filt) == 0.0)


def test_wiener_residual_tracks_simulation():
    rng = np.random.default_rng(47)
    plan = VirtualPilotPlan(
        l_f=4,
        l_t=1,
        n_fft=32,
        block_len=1,
        freq_idx=np.arange(8) * 4,
        time_idx=np.array([0]),
    )
    for var in (1.0, 0.01):
        filt = build_wiener("freq", plan, input_err_var=var, design_len=4)
        draws = 4000
        taps = crandn(rng, (draws, 4), var=0.25)
        truth = cfr(taps, 32)
        pilots = truth[:, ::4] + crandn(rng, (draws, 8), var=var)
        out = wiener_1d(pilots, filt)
        emp = np.mean(np.abs(out - truth) ** 2)
        assert emp == pytest.approx(filt.residual_mse, rel=0.1)


def test_wiener_pilot_count_mismatch():
    plan = plan_pilots(32, 4, 1, 0.0, 0.0, 2, 1)
    filt = build_wiener("freq", plan, input_err_var=0.1, design_len=4)
    with pytest.raises(ValueError, match="pilots"):
        wiener_1d(np.zeros(5), filt)


def test_wiener_imputes_invalid_pilots_exactly_for_linear_fields():
    plan = plan_pilots(32, 4, 1, 0.0, 0.0, 2, 1)
    filt = build_wiener("freq", plan, input_err_var=0.05, design_len=4)
    truth = 0.3 + 0.02 * plan.freq_idx + 1j * (1.0 - 0.01 * plan.freq_idx)
    dirty = truth.copy()
    dirty[5] = 99.0 + 99.0j
    mask = np.ones(plan.k_f, dtype=bool)
    mask[5] = False
    clean_out = wiener_1d(truth, filt)
    dirty_out = wiener_1d(dirty, filt, pilot_mask=mask)
    assert np.max(np.abs(dirty_out - clean_out)) < 1e-12


def test_wiener_row_with_no_valid_pilots_returns_zeros():
    plan = plan_pilots(32, 4, 1, 0.0, 0.0, 2, 1)
    filt = build_wiener("freq", plan, input_err_var=0.05, design_len=4)
    out = wiener_1d(np.ones(plan.k_f), filt, pilot_mask=np.zeros(plan.k_f, dtype=bool))
    assert np.all(out == 0.0)


def test_wiener_2x1d_shape_checks():
    plan = plan_pilots(32, 4, 4, 0.0, 0.0, 2, 1)
    ff = build_wiener("freq", plan, input_err_var=0.1, design_len=4)
    tf = build_wiener("time", plan, input_err_var=0.1, fd_hz=0.0, tb_s=0.0)
    with pytest.raises(ValueError):
        wiener_2x1d(np.zeros(16), ff, tf)
    with pytest.raises(ValueError, match="blocks"):
        wiener_2x1d(np.zeros((3, 16)), ff, tf)


def test_wiener_2x1d_static_noiseless_is_exact():
    rng = np.random.default_rng(48)
    plan = plan_pilots(32, 4, 4, 0.0, 0.0, 2, 1)
    assert (plan.l_f, plan.k_t) == (2, 4)
    ff = build_wiener("freq", plan, input_err_var=0.0, design_len=4)
    tf = build_wiener("time", plan, input_err_var=0.0, fd_hz=0.0, tb_s=0.0)
    taps = crandn(rng, 4, var=0.25)
    truth = cfr(taps, 32)
    grid = np.tile(truth[plan.freq_idx], (plan.k_t, 1))
    out = wiener_2x1d(grid, ff, tf)
    assert out.shape == (4, 32)
    assert np.max(np.abs(out - truth)) < 1e-6


def test_wiener_2x1d_single_pilot_block_replicates_freq_pass():
    plan = VirtualPilotPlan(
        l_f=2,
        l_t=1,
        n_fft=32,
        block_len=3,
        freq_idx=np.arange(16) * 2,
        time_idx=np.array([0]),
    )
    rng = np.random.default_rng(49)
    ff = build_wiener("freq", plan, input_err_var=0.0, design_len=4)
    tf = build_wiener("time", plan, input_err_var=0.0, fd_hz=0.0, tb_s=0.0)
    grid = crandn(rng, (1, 16))
    out = wiener_2x1d(grid, ff, tf)
    row = wiener_1d(grid, ff)[0]
    assert np.max(np.abs(out - row)) < 1e-6


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("prior", ["uniform", "profile"])
def test_wiener_2x1d_time_pass_commutes_with_the_dft(prior, masked):
    # the time pass on the taps, then the DFT, equals the time pass on the
    # full frequency pass of every pilot block
    rng = np.random.default_rng(52)
    plan = plan_pilots(70, 7, 8, 0.01, 1.0, 2, 2)
    kw = dict(profile=_SKEWED) if prior == "profile" else dict(design_len=7)
    ff = build_wiener("freq", plan, input_err_var=0.05, **kw)
    tf = build_wiener("time", plan, input_err_var=ff.residual_mse, fd_hz=0.01, tb_s=1.0)
    grid = crandn(rng, (plan.k_t, plan.k_f))
    mask = None
    if masked:
        mask = rng.random(grid.shape) > 0.3
        mask[1] = False                  # a pilot block with no valid pilot
    want = tf.coefficients @ wiener_1d(grid, ff, mask)
    got = wiener_2x1d(grid, ff, tf, mask)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_wiener_2x1d_cascade_tracks_residual():
    rng = np.random.default_rng(50)
    prof = PowerDelayProfile(
        delays=np.arange(4), powers=np.array([0.5, 0.25, 0.15, 0.10])
    )
    plan = plan_pilots(32, 4, 8, 0.01, 1.0, 2, 2)
    assert (plan.l_f, plan.l_t) == (2, 2)
    for snr_db in (10.0, 20.0, 30.0):
        var = 10.0 ** (-snr_db / 10.0)
        ff = build_wiener("freq", plan, input_err_var=var, profile=prof)
        tf = build_wiener(
            "time", plan, input_err_var=ff.residual_mse, fd_hz=0.01, tb_s=1.0
        )
        total, count = 0.0, 0
        for _ in range(400):
            truth = cfr(realize(prof, 0.01, 1.0, 8, rng), 32)
            grid = truth[plan.time_idx][:, plan.freq_idx] + crandn(
                rng, (plan.k_t, plan.k_f), var=var
            )
            out = wiener_2x1d(grid, ff, tf)
            total += np.sum(np.abs(out - truth) ** 2)
            count += out.size
        ratio = (total / count) / tf.residual_mse
        assert 0.85 < ratio < 1.15, f"snr {snr_db}: ratio {ratio:.3f}"


def test_wiener_beats_linear_interpolation():
    rng = np.random.default_rng(51)
    plan = plan_pilots(64, 4, 1, 0.0, 0.0, 4, 1)
    var = 0.1
    filt = build_wiener("freq", plan, input_err_var=var, design_len=4)
    wins = 0
    for _ in range(200):
        taps = crandn(rng, 4, var=0.25)
        truth = cfr(taps, 64)
        pilots = truth[plan.freq_idx] + crandn(rng, plan.k_f, var=var)
        wout = wiener_1d(pilots, filt)
        x = np.arange(64)
        lout = np.interp(x, plan.freq_idx, pilots.real) + 1j * np.interp(
            x, plan.freq_idx, pilots.imag
        )
        if np.mean(np.abs(wout - truth) ** 2) <= np.mean(np.abs(lout - truth) ** 2):
            wins += 1
    assert wins >= 180
