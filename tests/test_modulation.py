"""Gray-labeled constellations and bit mapping."""

import itertools

import numpy as np
import pytest

from tdsofdm import constellation, hard_decisions, map_bits

from conftest import reference_searchsorted_hard_decisions

ALL_NAMES = ("qpsk", "qam16", "qam64")


def test_qpsk_sign_bit_convention():
    c = constellation("qpsk")
    s = 1.0 / np.sqrt(2.0)
    # leading bit drives the real axis, second bit the imaginary axis,
    # with bit 1 on the positive half
    assert map_bits(np.array([1, 1]), c)[0] == pytest.approx((1 + 1j) * s)
    assert map_bits(np.array([0, 0]), c)[0] == pytest.approx((-1 - 1j) * s)
    assert map_bits(np.array([1, 0]), c)[0] == pytest.approx((1 - 1j) * s)
    assert map_bits(np.array([0, 1]), c)[0] == pytest.approx((-1 + 1j) * s)


def test_qam16_corner_labels():
    c = constellation("qam16")
    s = 1.0 / np.sqrt(10.0)
    assert map_bits(np.array([0, 0, 0, 0]), c)[0] == pytest.approx((-3 - 3j) * s)
    assert map_bits(np.array([1, 0, 1, 0]), c)[0] == pytest.approx((3 + 3j) * s)
    assert abs(map_bits(np.array([0, 0, 0, 0]), c)[0]) ** 2 == pytest.approx(1.8)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_average_power_and_zero_mean(name):
    c = constellation(name)
    assert np.mean(c.points) == pytest.approx(0.0, abs=1e-12)
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)
    assert c.eta_alpha == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gray_property_at_minimum_distance(name):
    c = constellation(name)
    pts = c.points
    d = np.abs(pts[:, None] - pts[None, :])
    dmin = d[d > 1e-9].min()
    for i, j in itertools.combinations(range(pts.size), 2):
        if abs(d[i, j] - dmin) < 1e-9:
            assert int(np.sum(c.bit_labels[i] != c.bit_labels[j])) == 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_label_integer_indexes_its_point(name):
    c = constellation(name)
    m = c.bits_per_symbol
    weights = 1 << np.arange(m - 1, -1, -1)
    assert np.array_equal(c.bit_labels @ weights, np.arange(c.points.size))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_map_then_slice_roundtrip(name):
    c = constellation(name)
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, 3000 * c.bits_per_symbol).astype(np.uint8)
    assert np.array_equal(hard_decisions(map_bits(bits, c), c), bits)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_slicer_matches_the_binary_search_form_on_ties_and_specials(name):
    # every midpoint and its two neighbouring floats, every level, signed
    # zeros, infinities, NaN and extremes, on both axes in every pairing
    c = constellation(name)
    mid = (c.levels[1:] + c.levels[:-1]) / 2
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, -5e-324]
    axis = np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf), c.levels, specials])
    z = np.empty((axis.size, axis.size), dtype=np.complex128)
    z.real, z.imag = axis[:, None], axis[None, :]
    for grid in (z, z.T, z[::2, 1::3], z.real):
        got = hard_decisions(grid, c)
        want = reference_searchsorted_hard_decisions(grid, c)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    # a value on a midpoint takes the lower level; NaN takes the top one
    top = hard_decisions(np.array([complex(np.nan, mid[0])]), c).reshape(2, -1)
    assert np.array_equal(top, c.axis_labels[[-1, 0]])


def test_uniform_power_flag():
    assert constellation("qpsk").uniform_power
    assert not constellation("qam16").uniform_power
    assert not constellation("qam64").uniform_power


def test_map_bits_rejects_partial_symbols():
    c = constellation("qpsk")
    with pytest.raises(ValueError):
        map_bits(np.array([1, 0, 1]), c)
    with pytest.raises(ValueError):
        constellation("qam32")


@pytest.mark.parametrize("name", ["qpsk", "qam16", "qam64"])
def test_each_constellation_is_built_once_and_read_only(name):
    # run_trial and iterate share one instance per trial
    c = constellation(name)
    assert constellation(name) is c
    for a in (c.points, c.bit_labels, c.levels, c.axis_labels):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]
