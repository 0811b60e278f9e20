"""Level likelihoods, posterior symbol means, and per-bin CFR re-estimation."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tdsofdm import (
    FrameGrid,
    constellation,
    demap,
    hard_decisions,
    instantaneous_estimate,
    map_bits,
    soft_symbols,
)

from conftest import (
    brute_force_posterior_mean,
    crandn,
    exact_posterior_mean,
    reference_hard_decisions,
)

QPSK = constellation("qpsk")
QAM16 = constellation("qam16")
QAM64 = constellation("qam64")
EPS = np.finfo(float).eps
# demap clamps every level term at this floor
CLAMP = np.exp(-700.0)


def random_symbols(rng, n, c):
    bits = rng.integers(0, 2, n * c.bits_per_symbol).astype(np.uint8)
    return map_bits(bits, c)


def rebuild(z, h, nv, c):
    """soft_symbols(demap(...)) as the estimation loop calls it, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return soft_symbols(demap(z, h, nv, c), c)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    nv=st.sampled_from([0.0, 1e-14, 1e-3, 0.4, 50.0]),
)
def test_soft_symbols_are_scaled_tanh(seed, scale, nv):
    # QPSK's two levels are negatives, so an axis's posterior mean
    # l_1 (t_1 - t_0) / (t_0 + t_1) is l_1 tanh(2 l_1 x / sigma2), the tanh of
    # half the exact bit LLR: the symbol-level and the bitwise rebuilds agree
    rng = np.random.default_rng(seed)
    z = crandn(rng, (3, 20)) * scale
    h = crandn(rng, 20) * 10.0 ** rng.uniform(-3, 1, 20)
    h[::6] = 0.0
    mask = rng.random(z.shape) > 0.1
    got = rebuild(FrameGrid(data=z, mask=mask), h, nv, QPSK)

    ok = mask & (np.abs(h) ** 2 > 0)
    sigma2 = np.maximum(nv / np.where(ok, np.abs(h) ** 2, 1.0), 1e-30)
    level = QPSK.levels[1]
    assert QPSK.levels[0] == -level
    want = level * (np.tanh(2.0 * level * z.real / sigma2) + 1j * np.tanh(2.0 * level * z.imag / sigma2))
    want[~ok] = 0.0
    assert np.max(np.abs(got - want)) <= 4 * EPS
    assert np.all(got[~ok] == 0.0)


def test_uninformative_cells_rebuild_zero():
    rng = np.random.default_rng(32)
    data = crandn(rng, (2, 8))
    mask = np.ones((2, 8), dtype=bool)
    mask[0, 3] = False
    h = np.ones(8, dtype=np.complex128)
    h[5] = 0.0                     # spectral null
    lik = demap(FrameGrid(data=data, mask=mask), h, 0.1, QPSK)
    assert np.all(lik[:, :, 0, 3] == 1.0)
    assert np.all(lik[:, :, :, 5] == 1.0)
    x_hat = soft_symbols(lik, QPSK)
    assert x_hat[0, 3] == 0.0 and np.all(x_hat[:, 5] == 0.0)
    assert x_hat[1, 0] != 0.0
    # a zero observation is equidistant from the levels of each axis, so it
    # rebuilds the zero symbol
    z0 = FrameGrid(data=np.zeros((1, 2), dtype=np.complex128))
    assert np.all(rebuild(z0, np.ones(2), 0.1, QPSK) == 0.0)
    for c in (QAM16, QAM64):
        assert np.max(np.abs(rebuild(z0, np.ones(2), 0.1, c))) < 1e-15


def test_demap_rejects_negative_noise():
    z = FrameGrid(data=np.zeros((1, 2), dtype=np.complex128))
    with pytest.raises(ValueError):
        demap(z, np.ones(2), -0.1, QPSK)


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("floor", [0.0, CLAMP])
def test_soft_symbols_saturate_without_warnings(c, floor):
    # one level term at 1 and every other at the clamp or at zero, as far
    # beyond a level as demap can see: each such cell rebuilds exactly the
    # levels of its unit terms, with no underflow warning
    q = c.levels.size
    lik = np.full((q, 2, q), floor)
    for j in range(q):
        lik[j, 0, j] = 1.0
        lik[q - 1 - j, 1, j] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = soft_symbols(lik, c)
    assert np.array_equal(x, c.levels + 1j * c.levels[::-1])


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("value", [1.0, 0.3, CLAMP])
def test_equal_level_terms_rebuild_nothing(c, value):
    # the levels are symmetric, and equal terms cancel in mirror pairs
    assert np.all(soft_symbols(np.full((c.levels.size, 2, 2, 3), value), c) == 0.0)


SHAPE = (2, 6)
# one grid of cells under one noise level, with masked cells and maybe a
# spectral null
CELLS = dict(
    name=st.sampled_from(["qpsk", "qam16", "qam64"]),
    z=arrays(
        np.complex128,
        SHAPE,
        elements=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    ),
    h_mag=arrays(np.float64, SHAPE[1], elements=st.floats(0.1, 3.0)),
    h_phase=arrays(np.float64, SHAPE[1], elements=st.floats(-np.pi, np.pi)),
    null=st.integers(-1, SHAPE[1] - 1),
    mask=arrays(np.bool_, SHAPE),
    log_nv=st.floats(-8.0, 1.0),
)


def _tol(z, h, nv, c):
    """A bound on |x_hat - exact| per cell: 1e-13, plus the level span times
    the rounding of demap's scaled level distances, eps (|x| + span) 2 span
    / sigma2, which is all that resolves two levels near their midpoint
    when sigma2 is small."""
    sigma2 = np.maximum(nv / np.maximum(np.abs(h) ** 2, 1e-300), 1e-30)
    span = c.levels[-1] - c.levels[0]
    reach = np.maximum(np.abs(z.real), np.abs(z.imag)) + span
    return 1e-13 + 16 * EPS * span * reach * 2.0 * span / sigma2


def _grid(name, z, h_mag, h_phase, null, mask):
    h = h_mag * np.exp(1j * h_phase)
    if null >= 0:
        h[null] = 0.0                              # spectral null
    return constellation(name), FrameGrid(data=z, mask=mask), h


@settings(max_examples=200, deadline=None)
@given(**CELLS)
def test_per_axis_rebuild_matches_the_generic_form(name, z, h_mag, h_phase, null, mask, log_nv):
    c, grid, h = _grid(name, z, h_mag, h_phase, null, mask)
    nv = 10.0**log_nv
    x_hat = rebuild(grid, h, nv, c)
    assert np.all(np.abs(x_hat - brute_force_posterior_mean(grid, h, nv, c)) <= _tol(z, h, nv, c))
    # the argmin breaks rounding ties (|z.real| ~ 1e-223 puts both QPSK
    # columns at distance 1.0) by label order; the slicer must pick a nearest
    # point, and the argmin's point wherever the nearest one is clear
    m = c.bits_per_symbol
    weights = 1 << np.arange(m - 1, -1, -1)
    got = hard_decisions(z, c).reshape(-1, m) @ weights
    want = reference_hard_decisions(z, c).reshape(-1, m) @ weights
    d = np.sort(np.abs(z.reshape(-1, 1) - c.points) ** 2, axis=-1)
    d_got = np.abs(z.reshape(-1) - c.points[got]) ** 2
    assert np.all(d_got <= d[:, 0] + 1e-12)
    clear = d[:, 1] > d[:, 0] + 1e-12
    assert np.array_equal(got[clear], want[clear])


@settings(max_examples=200, deadline=None)
@given(**CELLS)
def test_demap_returns_one_unit_term_per_axis_value(name, z, h_mag, h_phase, null, mask, log_nv):
    # level-major terms in [e^-700, 1]: the nearest level's is exactly 1,
    # and a masked cell or a spectral null has only unit terms
    c, grid, h = _grid(name, z, h_mag, h_phase, null, mask)
    lik = demap(grid, h, 10.0**log_nv, c)
    assert lik.shape == (c.levels.size, 2) + SHAPE and lik.dtype == np.float64
    assert np.all((lik >= CLAMP) & (lik <= 1.0))
    assert np.all(np.max(lik, axis=0) == 1.0)
    off = ~mask | (h == 0.0)
    assert np.all(lik[:, :, off] == 1.0)
    # where one level is clearly nearest, its term is the unit one
    axes = np.stack([z.real, z.imag])
    d = np.abs(axes[None] - c.levels.reshape(-1, 1, 1, 1))
    first, second = np.sort(d, axis=0)[:2]
    clear = (second > first + 1e-9) & ~off
    assert np.array_equal(np.argmax(lik, axis=0)[clear], np.argmin(d, axis=0)[clear])


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_zero_cells_match_the_generic_form(c):
    # equalize writes zeros into masked cells; z = 0 is equidistant from the
    # four inner points, so the slicer's tie-break must match the argmin's
    z = np.zeros((2, 4), dtype=np.complex128)
    mask = np.ones(z.shape, dtype=bool)
    mask[1, 2] = False
    grid = FrameGrid(data=z, mask=mask)
    # integer gains too, which demap must not divide into in place
    for h in (np.ones(4), np.ones(4, dtype=np.int64)):
        for nv in (1e-8, 0.1, 10.0):
            assert np.max(np.abs(rebuild(grid, h, nv, c) - brute_force_posterior_mean(grid, h, nv, c))) <= 1e-13
    assert np.array_equal(hard_decisions(z, c), reference_hard_decisions(z, c))


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_noiseless_points_match_the_generic_form(c):
    # circular noise makes |z - s|^2 the sum of the two axes' distances, so
    # the posterior over all M points factorizes into one level
    # distribution per axis, and the per-axis means are the exact MMSE
    # symbol: the brute-force mean over the M points, to rounding.  Besides
    # the noiseless points, random cells under random gains
    z = np.tile(c.points, (2, 1))
    rng = np.random.default_rng(40)
    z_rand = np.concatenate([c.points, crandn(rng, 64, 1.2)]).reshape(2, -1)
    h_rand = crandn(rng, z_rand.shape[1]) + 1.5
    for grid, h in ((FrameGrid(data=z), np.ones(z.shape[1])), (FrameGrid(data=z_rand), h_rand)):
        for nv in (0.03, 0.1, 0.3, 1.0, 5.0, 10.0):
            assert np.max(np.abs(rebuild(grid, h, nv, c) - brute_force_posterior_mean(grid, h, nv, c))) <= 1e-13
    assert np.array_equal(hard_decisions(z, c), reference_hard_decisions(z, c))
    assert np.array_equal(hard_decisions(z, c), np.tile(c.bit_labels, (2, 1)).reshape(-1))


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("scale", [3.0, 1e3])
@pytest.mark.parametrize("nv", [0.0, 1e-14, 1e-3, 1e4])
def test_rebuild_matches_the_exact_form_at_extreme_scales(c, scale, nv):
    # unshifted, exp(-|z - level|^2 / sigma2) underflows to 0 / 0 at the
    # three small noise levels.  The grid holds every level of each axis,
    # midpoints between them and values beyond the outermost one
    lv = np.unique(np.concatenate([c.levels, (c.levels[1:] + c.levels[:-1]) / 2]))
    axis = np.concatenate([lv, np.linspace(-scale, scale, 23)])
    z = (axis[:, None] + 1j * axis[None, ::-1]).reshape(2, -1)
    h = np.linspace(0.1, 3.0, z.shape[1]) * np.exp(1j * np.linspace(0.0, 6.0, z.shape[1]))
    mask = np.ones(z.shape, dtype=bool)
    mask[1, ::7] = False
    grid = FrameGrid(data=z, mask=mask)
    got = rebuild(grid, h, nv, c)
    want = exact_posterior_mean(grid, h, nv, c)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= _tol(z, h, nv, c))
    # the bound is loose where sigma2 is tiny; beyond the outermost level,
    # where the next level's term is under e^-40, an axis must rebuild the
    # outermost level exactly
    sigma2 = np.maximum(nv / np.abs(h) ** 2, 1e-30)
    inner, outer = c.levels[-2:]
    for part in (np.real, np.imag):
        x = part(z)
        sat = mask & (2.0 * (outer - inner) * (np.abs(x) - (inner + outer) / 2) / sigma2 > 40.0)
        assert np.array_equal(part(got)[sat], np.copysign(outer, x[sat]))


@pytest.mark.parametrize("c", [QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("span", [20.0, 40.0, 800.0, 2000.0, 1e5])
def test_demap_saturates_like_the_generic_form(c, span):
    # sigma2 puts the inner level of the other half span units beyond the
    # outermost level, and the values sweep the positive half of each
    # axis.  demap clamps each level term at e^-700 below the nearest
    # level, so from 800 on whole groups of levels sit at the clamp; the
    # rebuild must still be exact, and every value beyond the outermost
    # level must rebuild that level exactly, which it does not at 20 or 40
    far = c.levels[c.levels.size // 2 - 1]
    sigma2 = (c.levels[-1] - far) ** 2 / span
    a = np.linspace(0.0, c.levels[-1] + 0.02, 300)
    z = (a + 1j * a[::-1]).reshape(3, -1)
    gap = ((a - far) ** 2 - np.min((a[:, None] - c.levels) ** 2, axis=-1)) / sigma2
    assert gap.min() < 30.0 and gap.max() > span
    grid = FrameGrid(data=z)
    h = np.ones(z.shape[1])
    got = rebuild(grid, h, sigma2, c)
    want = exact_posterior_mean(grid, h, sigma2, c)
    assert np.max(np.abs(got - want)) <= 1e-13
    for part in (np.real, np.imag):
        beyond = part(z) > c.levels[-1]
        assert np.all(part(got)[beyond] == c.levels[-1]) == (span >= 800.0)


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("nv", [0.0, 1e-14, 1.0, 1e20])
@pytest.mark.parametrize("v", [1e160 + 1e160j, -1e160 + 1e160j, 1e308 - 1e308j, -1e200 - 3.0j])
def test_far_out_cells_saturate_at_the_outermost_label(c, nv, v):
    # (z - level)^2 would overflow, and the scaled level distances do at
    # nv = 0; each far axis must still rebuild its outermost level exactly,
    # without a warning
    x = rebuild(FrameGrid(data=np.array([[v]])), np.ones(1), nv, c)[0, 0]
    for value, got in ((v.real, x.real), (v.imag, x.imag)):
        if abs(value) >= 10:
            assert got == (c.levels[-1] if value > 0 else c.levels[0])
    assert np.isfinite(x)


# axis values from 1e-3 to the float maximum, and noise levels from 0 to
# 1e300; at x = sigma2 = 3e14, 1e17 and 1e20 no axis saturates, and there
# the squares of x alone cannot resolve the level spacing
EXACT_VALUES = [1e-3, 0.3, 0.7, 1.0, 1.2, 2.5, 10.0, 1e3, 1e6, 1e12, 3e14, 1e17, 1e20, 1e40, 1e100, 1e160, 1e200, 1e300, 1.7e308]
EXACT_NOISE = [0.0, 1e-14, 1e-3, 0.4, 1.0, 50.0, 1e6, 1e12, 3e14, 1e17, 1e20, 1e40, 1e100, 1e300]


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_rebuild_matches_the_exact_posterior_over_the_float_range(c):
    # every value on both axes with both signs; demap never squares a
    # value, so each rebuilt axis must be finite, come without a warning
    # and match the 700-digit posterior mean to 1e-13.  Past
    # 100 max(1, sigma2), where the next level's term is under e^-55, the
    # axis rebuilds its outermost level exactly
    x = np.array(EXACT_VALUES)
    grid = FrameGrid(data=np.stack([x - 1j * x, -x + 1j * x]))
    h = np.ones(x.size)
    for nv in EXACT_NOISE:
        got = rebuild(grid, h, nv, c)
        want = exact_posterior_mean(grid, h, nv, c)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-13
        for part in (np.real, np.imag):
            far = np.abs(part(grid.data)) > 100.0 * max(1.0, nv)
            outer = np.where(part(grid.data) > 0, c.levels[-1], c.levels[0])
            assert np.array_equal(part(got)[far], outer[far])


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("v", [3e14 + 1j, -1e17 + 0.5j, 1e20 - 2j])
def test_far_out_cells_under_equal_noise_lean_to_the_outermost_level(c, v):
    # at nv = |v| no axis saturates, and the squares of the value alone
    # cannot resolve the level spacing, so the axis would tie at zero.  The
    # linear level distances must resolve it: the rebuilt value leans to
    # the outermost level, and it matches the exact posterior mean
    nv = abs(v)
    grid = FrameGrid(data=np.array([[v]]))
    got = rebuild(grid, np.ones(1), nv, c)[0, 0]
    want = exact_posterior_mean(grid, np.ones(1), nv, c)[0, 0]
    assert abs(got - want) <= 1e-13
    assert np.sign(got.real) == np.sign(v.real) and abs(got.real) > 0.1
    assert abs(got.real) < c.levels[-1]


@pytest.mark.parametrize("nv", [1e-30, 0.1, 1e20])
def test_values_up_to_1e12_are_not_clamped(nv):
    # demap clamps no value, so each QPSK axis is the exact posterior mean
    # under every noise level; at nv = 1e20 no axis saturates, and a clamp
    # at 1e11 would cut the rebuilt values tenfold
    grid = FrameGrid(data=np.array([[1e12 - 3e11j, -1e12 + 1e3j, 5e11 + 0.5j]]))
    got = rebuild(grid, np.ones(3), nv, QPSK)
    want = exact_posterior_mean(grid, np.ones(3), nv, QPSK)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("h, tol", [(1e-5, 0.0), (1e-4, 1e-300)])
def test_noise_past_the_float_range_rebuilds_zero(c, h, tol):
    # noise_var / |h|^2 overflows at h = 1e-5, and at h = 1e-4 it is 1e308,
    # so demap's level distances scale to under 1e-300; either way the cell
    # carries no information, and that must come without a warning
    x = rebuild(FrameGrid(data=np.array([[1e3 - 1e3j]])), np.array([h]), 1e300, c)
    assert np.all(np.abs(x) <= tol)


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_soft_symbols_do_not_depend_on_the_likelihood_layout(c):
    rng = np.random.default_rng(37)
    z = crandn(rng, (3, 40))
    h = crandn(rng, 40) + 1.5
    lik = demap(FrameGrid(data=z), h, 0.3, c)
    assert lik.shape == (c.levels.size, 2, 3, 40) and lik.dtype == np.float64
    copy = np.asfortranarray(lik)
    assert copy.strides != lik.strides
    x_hat = soft_symbols(lik, c)
    assert x_hat.shape == (3, 40) and x_hat.dtype == np.complex128
    assert np.array_equal(soft_symbols(copy, c), x_hat)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["qpsk", "qam16", "qam64"]),
    values=arrays(np.float64, (8, 2, 5), elements=st.floats(0.0, 1.0)),
    nearest=arrays(np.int64, (2, 5), elements=st.integers(0, 7)),
)
def test_soft_symbols_are_the_weighted_level_mean(name, values, nearest):
    # any terms in [0, 1] with a unit term per axis value, as demap forms
    # them: sum_j l_j t_j / sum_j t_j, against the same sums in exact
    # rational arithmetic
    c = constellation(name)
    q = c.levels.size
    lik = values[:q].copy()
    np.put_along_axis(lik, nearest[None] % q, 1.0, axis=0)
    got = soft_symbols(lik, c)
    levels = [Fraction(v) for v in c.levels]
    want = np.empty(lik.shape[1:])
    for idx in np.ndindex(*want.shape):
        terms = [Fraction(t) for t in lik[(slice(None),) + idx]]
        want[idx] = float(sum(l * t for l, t in zip(levels, terms)) / sum(terms))
    assert np.max(np.abs(got - (want[0] + 1j * want[1]))) <= 8 * EPS


def test_rebuilt_magnitude_grows_with_confidence():
    grid = FrameGrid(data=np.array([[0.3 + 0.3j]]))
    mags = [abs(rebuild(grid, np.ones(1), nv, QPSK)[0, 0]) for nv in (4.0, 2.0, 1.0, 0.5)]
    assert np.all(np.diff(mags) > 0)


def test_high_snr_rebuild_recovers_sent_symbols():
    rng = np.random.default_rng(34)
    x = random_symbols(rng, 4000, QAM16).reshape(4, 1000)
    nv = 10.0 ** (-2.5)
    z = FrameGrid(data=x + crandn(rng, x.shape, var=nv))
    x_hat = soft_symbols(demap(z, np.ones(1000), nv, QAM16), QAM16)
    hard = QAM16.points[np.argmin(np.abs(x_hat[..., None] - QAM16.points), axis=-1)]
    assert np.mean(hard != x) < 1e-3


def test_instantaneous_perfect_rebuild_recovers_cfr():
    rng = np.random.default_rng(35)
    x = random_symbols(rng, 256, QPSK).reshape(2, 128)
    h = crandn(rng, 128)
    inst = instantaneous_estimate(x, h * x, QPSK)
    assert inst.mask.all()
    assert np.max(np.abs(inst.values - h)) < 1e-12
    assert np.allclose(inst.weights, 1.0, atol=1e-12)


def test_instantaneous_divides_by_bin_power_for_mixed_constellations():
    rng = np.random.default_rng(36)
    x = random_symbols(rng, 512, QAM16).reshape(1, 512)
    h = crandn(rng, 512)
    inst = instantaneous_estimate(x, h * x, QAM16)
    assert np.max(np.abs(inst.values - h)) < 1e-12
    assert np.allclose(inst.weights, 1.0 / np.abs(x) ** 2, rtol=1e-12)


def test_instantaneous_floor_and_mask():
    rng = np.random.default_rng(37)
    x = random_symbols(rng, 16, QPSK).reshape(1, 16)
    xh = x.copy()
    xh[0, 2] *= 0.01               # rebuilt power 1e-4, far below the floor
    inst = instantaneous_estimate(xh, x, QPSK)
    assert not inst.mask[0, 2]
    assert inst.values[0, 2] == 0.0 and inst.weights[0, 2] == 0.0
    assert inst.mask.sum() == 15


def test_instantaneous_error_variance_tracks_weights():
    rng = np.random.default_rng(38)
    nv = 0.01
    x = random_symbols(rng, 10000, QAM16)
    h = crandn(rng, 10000)
    w = crandn(rng, 10000, var=nv)
    inst = instantaneous_estimate(x[None, :], (h * x + w)[None, :], QAM16)
    err2 = np.abs(inst.values[0] - h) ** 2
    for weight in np.unique(np.round(inst.weights[0], 9)):
        sel = np.isclose(inst.weights[0], weight)
        assert err2[sel].mean() == pytest.approx(nv * weight, rel=0.06)
