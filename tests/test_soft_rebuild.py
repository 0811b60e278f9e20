"""LLR demapping, posterior symbol means, and per-bin CFR re-estimation."""

import warnings

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
    crandn,
    einsum_soft_symbols,
    per_class_demap,
    reference_demap,
    reference_hard_decisions,
    reference_soft_symbols,
)

QPSK = constellation("qpsk")
QAM16 = constellation("qam16")
QAM64 = constellation("qam64")


def random_symbols(rng, n, c):
    bits = rng.integers(0, 2, n * c.bits_per_symbol).astype(np.uint8)
    return map_bits(bits, c)


def test_qpsk_llrs_match_closed_form():
    rng = np.random.default_rng(30)
    z = crandn(rng, (2, 16))
    h = crandn(rng, 16) + 2.0     # bounded away from zero
    nv = 0.4
    llr = demap(FrameGrid(data=z), h, nv, QPSK, llr_max=1e6)
    sigma2 = nv / np.abs(h) ** 2
    want_i = 2.0 * np.sqrt(2.0) * z.real / sigma2
    want_q = 2.0 * np.sqrt(2.0) * z.imag / sigma2
    assert np.allclose(llr[..., 0], want_i, rtol=1e-9, atol=1e-9)
    assert np.allclose(llr[..., 1], want_q, rtol=1e-9, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    nv=st.sampled_from([0.0, 1e-14, 1e-3, 0.4, 50.0]),
    llr_max=st.sampled_from([30.0, 1e6]),
)
def test_qpsk_llrs_are_the_one_level_term_difference(seed, scale, nv, llr_max):
    # each QPSK label class holds one level, so the log-sum-exp of a class is
    # minus its one term t and the LLR must be t(class 0) - t(class 1) to the
    # last bit; cells beyond demap's clamp saturate either way
    rng = np.random.default_rng(seed)
    z = crandn(rng, (3, 20)) * scale
    h = crandn(rng, 20) * 10.0 ** rng.uniform(-3, 1, 20)
    h[::6] = 0.0
    mask = rng.random(z.shape) > 0.1
    got = demap(FrameGrid(data=z, mask=mask), h, nv, QPSK, llr_max=llr_max)

    ok = mask & (np.abs(h) ** 2 > 0)
    sigma2 = np.maximum(nv / np.where(ok, np.abs(h) ** 2, 1.0), 1e-30)
    level0, level1 = QPSK.levels[np.argsort(QPSK.axis_labels[:, 0])]
    want = np.stack([(x - level0) ** 2 / sigma2 - (x - level1) ** 2 / sigma2 for x in (z.real, z.imag)], axis=-1)
    want = np.clip(want, -llr_max, llr_max)
    want[~ok] = 0.0
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_llrs_clip_at_default_limit():
    z = FrameGrid(data=np.full((1, 4), 10.0 + 10.0j))
    llr = demap(z, np.ones(4), 0.01, QPSK)
    assert np.all(np.abs(llr) == 30.0)


def test_uninformative_cells_get_zero_llrs():
    rng = np.random.default_rng(32)
    data = crandn(rng, (2, 8))
    mask = np.ones((2, 8), dtype=bool)
    mask[0, 3] = False
    h = np.ones(8, dtype=np.complex128)
    h[5] = 0.0                     # spectral null
    llr = demap(FrameGrid(data=data, mask=mask), h, 0.1, QPSK)
    assert np.all(llr[0, 3] == 0.0)
    assert np.all(llr[:, 5] == 0.0)
    assert np.any(llr[1, 0] != 0.0)
    # a zero observation is equidistant from all points: no sign-bit
    # information, so it rebuilds the zero symbol
    z0 = FrameGrid(data=np.zeros((1, 2), dtype=np.complex128))
    assert np.all(demap(z0, np.ones(2), 0.1, QPSK) == 0.0)
    for c in (QAM16, QAM64):
        llr = demap(z0, np.ones(2), 0.1, c)
        assert np.max(np.abs(llr[..., [0, c.bits_per_symbol // 2]])) < 1e-12
        assert np.max(np.abs(soft_symbols(llr, c))) < 1e-12


def test_demap_rejects_negative_noise():
    z = FrameGrid(data=np.zeros((1, 2), dtype=np.complex128))
    with pytest.raises(ValueError):
        demap(z, np.ones(2), -0.1, QPSK)


@pytest.mark.parametrize("llr_max", [0.0, -1.0, np.nan])
def test_demap_rejects_a_nonpositive_llr_max(llr_max):
    z = FrameGrid(data=np.array([[0.3 - 0.1j, 2.0 + 1.0j]]))
    with pytest.raises(ValueError):
        demap(z, np.ones(2), 0.1, QAM16, llr_max=llr_max)
    # no LLR reaches 1e6 here, so an unbounded clip changes nothing
    unclipped = demap(z, np.ones(2), 0.1, QAM16, llr_max=np.inf)
    assert np.array_equal(unclipped, demap(z, np.ones(2), 0.1, QAM16, llr_max=1e6))


def test_soft_symbols_are_scaled_tanh():
    x_hat = soft_symbols(np.array([[[4.0, -4.0]]]), QPSK)
    want = (np.tanh(2.0) - 1j * np.tanh(2.0)) / np.sqrt(2.0)
    assert abs(x_hat[0, 0] - want) < 1e-12


def test_saturated_llrs_rebuild_the_exact_point():
    vals = np.full((1, 1, 4), 30.0)
    assert abs(soft_symbols(vals, QAM16)[0, 0] - QAM16.points[15]) < 1e-10


def test_zero_llrs_rebuild_nothing():
    assert np.all(soft_symbols(np.zeros((2, 3, 2)), QPSK) == 0.0)


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


@settings(max_examples=200, deadline=None)
@given(**CELLS)
def test_per_axis_rebuild_matches_the_generic_form(name, z, h_mag, h_phase, null, mask, log_nv):
    c = constellation(name)
    h = h_mag * np.exp(1j * h_phase)
    if null >= 0:
        h[null] = 0.0                              # spectral null
    nv = 10.0**log_nv
    grid = FrameGrid(data=z, mask=mask)
    llr = demap(grid, h, nv, c)
    # the generic form rounds each |z - p|^2 / sigma2 on the scale of the
    # largest one, which includes the other axis's distance: at z = 1.6e-8 +
    # 2.75j and sigma2 = 1e-7 that alone moves its bit-0 LLR by 1e-8
    sigma2 = nv / np.maximum(np.abs(h) ** 2, 1e-300)
    d_max = np.max(np.abs(z[..., None] - c.points) ** 2, axis=-1)
    tol = 1e-8 + 16 * np.finfo(float).eps * d_max / sigma2
    assert np.all(np.abs(llr - reference_demap(grid, h, nv, c)) <= tol[..., None])
    x_hat = soft_symbols(llr, c)
    assert np.max(np.abs(x_hat - reference_soft_symbols(llr, c))) <= 1e-12
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
@given(**CELLS, llr_max=st.sampled_from([30.0, 1e6]))
def test_demap_matches_the_per_class_form(name, z, h_mag, h_phase, null, mask, log_nv, llr_max):
    # demap shifts every level term by the nearest level once per axis
    # value, where the per-bit form shifts each class by its own nearest
    # level; both are exact to rounding, and QPSK takes no exponentials
    c = constellation(name)
    h = h_mag * np.exp(1j * h_phase)
    if null >= 0:
        h[null] = 0.0
    grid = FrameGrid(data=z, mask=mask)
    got = demap(grid, h, 10.0**log_nv, c, llr_max=llr_max)
    want = per_class_demap(grid, h, 10.0**log_nv, c, llr_max=llr_max)
    if c is QPSK:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_zero_cells_match_the_generic_form(c):
    # equalize writes zeros into masked cells; z = 0 is equidistant from the
    # four inner points, so the slicer's tie-break must match the argmin's
    z = np.zeros((2, 4), dtype=np.complex128)
    mask = np.ones(z.shape, dtype=bool)
    mask[1, 2] = False
    grid = FrameGrid(data=z, mask=mask)
    h = np.ones(4)
    for nv in (1e-8, 0.1, 10.0):
        llr = demap(grid, h, nv, c)
        assert np.max(np.abs(llr - reference_demap(grid, h, nv, c))) <= 1e-8
        x_hat = soft_symbols(llr, c)
        assert np.max(np.abs(x_hat - reference_soft_symbols(llr, c))) <= 1e-12
    assert np.array_equal(hard_decisions(z, c), reference_hard_decisions(z, c))


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_noiseless_points_match_the_generic_form(c):
    z = np.tile(c.points, (2, 1))
    grid = FrameGrid(data=z)
    h = np.ones(z.shape[1])
    for nv in (1e-8, 0.1, 10.0):
        llr = demap(grid, h, nv, c, llr_max=1e6)
        assert np.max(np.abs(llr - reference_demap(grid, h, nv, c, llr_max=1e6))) <= 1e-8
        x_hat = soft_symbols(llr, c)
        assert np.max(np.abs(x_hat - reference_soft_symbols(llr, c))) <= 1e-12
    assert np.array_equal(hard_decisions(z, c), reference_hard_decisions(z, c))
    assert np.array_equal(hard_decisions(z, c), np.tile(c.bit_labels, (2, 1)).reshape(-1))


def _tol(z, h, nv, c):
    """The per-axis property's bound on |LLR - reference_demap| per cell."""
    sigma2 = np.maximum(nv / np.maximum(np.abs(h) ** 2, 1e-300), 1e-30)
    d_max = np.max(np.abs(z[..., None] - c.points) ** 2, axis=-1)
    return (1e-8 + 16 * np.finfo(float).eps * d_max / sigma2)[..., None]


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("scale", [3.0, 1e3])
@pytest.mark.parametrize("nv, llr_max", [(0.0, 30.0), (1e-14, 30.0), (1e-14, 1e6), (1e-3, 1e6)])
def test_demap_matches_the_generic_form_at_extreme_scales(c, scale, nv, llr_max):
    # unshifted, exp(-|z - level|^2 / sigma2) underflows to log(0) here, and
    # one shift per cell instead of per class leaves LLRs of about 1e3 at
    # nv = 1e-3 as log(0) differences; the grid holds every level of each
    # axis, midpoints between them and values beyond the outermost one
    lv = np.unique(np.concatenate([c.levels, (c.levels[1:] + c.levels[:-1]) / 2]))
    axis = np.concatenate([lv, np.linspace(-scale, scale, 23)])
    z = (axis[:, None] + 1j * axis[None, ::-1]).reshape(2, -1)
    h = np.linspace(0.1, 3.0, z.shape[1]) * np.exp(1j * np.linspace(0.0, 6.0, z.shape[1]))
    mask = np.ones(z.shape, dtype=bool)
    mask[1, ::7] = False
    grid = FrameGrid(data=z, mask=mask)
    got = demap(grid, h, nv, c, llr_max=llr_max)
    want = reference_demap(grid, h, nv, c, llr_max=llr_max)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= _tol(z, h, nv, c))
    # the bound is loose where sigma2 is tiny; beyond the outermost level,
    # where demap clamps, saturated LLRs must match exactly
    beyond = np.abs(np.stack([z.real, z.imag], axis=-1)) > c.levels[-1]
    sat = np.repeat(beyond, c.bits_per_symbol // 2, axis=-1) & (np.abs(want) == llr_max)
    assert np.array_equal(got[sat], want[sat])


@pytest.mark.parametrize("c", [QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("llr_max", [30.0, 600.0, 640.0, 700.0, 1e6])
def test_demap_repairs_classes_past_the_exponential_clamp(c, llr_max):
    # demap clamps each level term at e^-700 below the nearest level, so a
    # sign bit whose far class lies 600 to 800 beyond it needs the per-class
    # repair for an llr_max above 638; sigma2 puts that class 800 beyond the
    # outermost level, and the values sweep the positive half of each axis
    far = c.levels[c.levels.size // 2 - 1]
    sigma2 = (c.levels[-1] - far) ** 2 / 800.0
    a = np.linspace(0.0, c.levels[-1] + 0.02, 300)
    z = (a + 1j * a[::-1]).reshape(3, -1)
    gap = ((a - far) ** 2 - np.min((a[:, None] - c.levels) ** 2, axis=-1)) / sigma2
    assert np.any((gap > 600.0) & (gap < 638.0)) and np.any((gap > 700.0) & (gap < 800.0))
    grid = FrameGrid(data=z)
    h = np.ones(z.shape[1])
    got = demap(grid, h, sigma2, c, llr_max=llr_max)
    want = reference_demap(grid, h, sigma2, c, llr_max=llr_max)
    assert np.all(np.abs(got - want) <= _tol(z, h, sigma2, c))
    assert np.array_equal(np.abs(got) == llr_max, np.abs(want) == llr_max)


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("nv", [0.0, 1e-14, 1.0, 1e20])
@pytest.mark.parametrize("v", [1e160 + 1e160j, -1e160 + 1e160j, 1e308 - 1e308j, -1e200 - 3.0j])
def test_far_out_cells_saturate_at_the_outermost_label(c, nv, v):
    # (z - level)^2 overflows, and at nv = 1e20 the squares of any value
    # far enough out to saturate cancel to zero; the LLRs must still take
    # the outermost level's label on each axis at +-llr_max, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        llr = demap(FrameGrid(data=np.array([[v]])), np.ones(1), nv, c)[0, 0]
    half = c.bits_per_symbol // 2
    for x, got in ((v.real, llr[:half]), (v.imag, llr[half:])):
        if abs(x) < 10:
            continue
        outer = c.axis_labels[-1] if x > 0 else c.axis_labels[0]
        assert np.array_equal(got, 30.0 * (2.0 * outer - 1.0))
    assert np.all(np.isfinite(llr))


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("v", [1e200 + 0j, 1e100 + 1j, 1e20 + 1j])
def test_unclipped_far_out_cells_keep_the_outermost_label(c, v):
    # with llr_max = inf nothing saturates, so no cell counts as past its
    # reach; the squares of such a value must still resolve the levels, or
    # its axis ties at zero LLRs.  Every LLR stays finite, at least as large
    # as a 1e6 clip's, with its signs, and unchanged where that clip is idle
    grid = FrameGrid(data=np.array([[v]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = demap(grid, np.ones(1), 0.1, c, llr_max=np.inf)[0, 0]
    want = demap(grid, np.ones(1), 0.1, c, llr_max=1e6)[0, 0]
    assert np.all(np.isfinite(got))
    assert np.array_equal(np.sign(got), np.sign(want))
    saturated = np.abs(want) == 1e6
    assert saturated.any()
    assert np.all(np.abs(got[saturated]) >= 1e6)
    assert np.array_equal(got[~saturated], want[~saturated])


@pytest.mark.parametrize("nv", [1e-30, 0.1, 1e20])
def test_values_up_to_1e12_are_not_clamped(nv):
    # the clamp at _FAR lies past 1e12, so there each QPSK LLR is the exact
    # difference of the unclamped squares, under every noise level and clip
    grid = FrameGrid(data=np.array([[1e12 - 3e11j, -1e12 + 1e3j, 5e11 + 0.5j]]))
    for llr_max in (30.0, 1e6, np.inf):
        got = demap(grid, np.ones(3), nv, QPSK, llr_max=llr_max)
        assert np.array_equal(got, per_class_demap(grid, np.ones(3), nv, QPSK, llr_max=llr_max))


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
@pytest.mark.parametrize("h, llr_max, tol", [(1e-5, 30.0, 0.0), (1e-3, 1e6, 1e-300)])
def test_noise_past_the_float_range_gives_zero_llrs(c, h, llr_max, tol):
    # noise_var / |h|^2 overflows at h = 1e-5, and the saturation reach
    # (llr_max + q) * sigma2 at h = 1e-3 with llr_max = 1e6; either way the
    # cell carries no information, and that must come without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = FrameGrid(data=np.array([[1e3 - 1e3j]]))
        llr = demap(grid, np.array([h]), 1e300, c, llr_max=llr_max)
    assert np.all(np.abs(llr) <= tol)


@pytest.mark.parametrize("c", [QPSK, QAM16, QAM64], ids=lambda c: c.name)
def test_soft_symbols_do_not_depend_on_the_llr_layout(c):
    rng = np.random.default_rng(37)
    z = crandn(rng, (3, 40))
    h = crandn(rng, 40) + 1.5
    llr = demap(FrameGrid(data=z), h, 0.3, c)
    assert llr.shape == (3, 40, c.bits_per_symbol) and llr.dtype == np.float64
    copy = np.ascontiguousarray(llr)
    assert copy.strides != llr.strides
    x_hat = soft_symbols(llr, c)
    assert x_hat.shape == (3, 40) and x_hat.dtype == np.complex128
    assert np.array_equal(soft_symbols(copy, c), x_hat)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["qpsk", "qam16", "qam64"]),
    values=arrays(np.float64, (2, 5, 6), elements=st.floats(-40.0, 40.0)),
    bit_major=st.booleans(),
)
def test_soft_symbols_match_the_stacked_einsum(name, values, bit_major):
    # both LLR layouts: demap's bit-major view and a contiguous copy
    c = constellation(name)
    llr = values[..., : c.bits_per_symbol]
    if bit_major:
        llr = np.moveaxis(np.ascontiguousarray(np.moveaxis(llr, -1, 0)), 0, -1)
    got, want = soft_symbols(llr, c), einsum_soft_symbols(llr, c)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["qpsk", "qam16", "qam64"])
@pytest.mark.parametrize("big", [800.0, 1e6])
def test_soft_symbols_saturate_without_warnings(name, big):
    # exp(big) overflows: the logistic must still land on 0 and 1, and so
    # on an axis's outermost levels, with no overflow warning
    c = constellation(name)
    top, bottom = (big * (2.0 * c.axis_labels[i] - 1.0) for i in (-1, 0))
    llr = np.stack([np.concatenate([top, top]), np.concatenate([bottom, top])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = soft_symbols(llr, c)
    hi, lo = c.levels[-1], c.levels[0]
    assert np.array_equal(x, [hi + 1j * hi, lo + 1j * hi])


def test_rebuilt_magnitude_grows_with_confidence():
    mags = []
    for lam in (0.5, 1.0, 2.0, 4.0):
        mags.append(abs(soft_symbols(np.array([[[lam, lam]]]), QPSK)[0, 0]))
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
