"""Maximal-length sequences and the cyclically extended PN guard interval."""

import hashlib

import numpy as np
import pytest

from tdsofdm import PRIMITIVE_POLYS, build_gi, generate_mseq

from conftest import naive_unitary_dft


@pytest.mark.parametrize("order", sorted(PRIMITIVE_POLYS))
def test_mseq_balance_and_period(order):
    bits = generate_mseq(order)
    n = (1 << order) - 1
    assert bits.size == n
    assert int(bits.sum()) == (n + 1) // 2          # ones outnumber zeros by one
    assert int((bits == 0).sum()) == (n - 1) // 2


# SHA-256 of generate_mseq(order).tobytes(): the register's bits for every
# order in the table, pinned so that a refactor must emit the same chips
_MSEQ_SHA256 = {
    2: "9f44ac6acb8a37b00b615dc89259d306035be82dee7db2b472e4c48326195440",
    3: "df938bca7ea7927cefa75247b008c502febb567df3e434063e1ff8d861154ef8",
    4: "4d0f9278b2305c92f3127ced0aae31e318cc1d100c68ceaeec4345e3bbf0b5df",
    5: "d188948be5d95e736d552e3b90803c9e74863d279ae0a07704e30a1734c4e21b",
    6: "c114d897c61dbcb553624d4b9e8f4d9603b27a79d839c405e0a9a08c24953b66",
    7: "d43bdf4b527c049122d0a219f4dac1cf8c50190124b70437c2a9d2d8b414c4dc",
    8: "012af5cc8b85f53becc32dbb862d78c16a53684519cb1c7a185ad5e71c2c7d1e",
    9: "f544520e9f78cc5f6da77ef5b0ab121b71282bf33da8189143f59df7fb779709",
    10: "ddc0689adc9e0a1aa7e4cac574b2357c169923aa4e80eab19ca30ac15311795e",
    11: "801261feaa0676e0672cae2ce99e089aef3adea6da8db7b816b8baf8c5161f4b",
    12: "128c716199c47aafdda2a1fad26298b140ffdda7015723da1d36f903a7a3cbe3",
}


def test_mseq_digests_cover_every_order():
    assert sorted(_MSEQ_SHA256) == sorted(PRIMITIVE_POLYS)


@pytest.mark.parametrize("order", sorted(PRIMITIVE_POLYS))
def test_mseq_bits_are_pinned(order):
    bits = generate_mseq(order)
    assert bits.dtype == np.uint8
    assert hashlib.sha256(bits.tobytes()).hexdigest() == _MSEQ_SHA256[order]


@pytest.mark.parametrize("order", sorted(PRIMITIVE_POLYS))
def test_mseq_two_level_circular_autocorrelation(order):
    # the defining property: in phase the correlation is n, at every other
    # shift it is exactly -1
    chips = 1.0 - 2.0 * generate_mseq(order).astype(np.float64)
    n = chips.size
    circ = np.fft.ifft(np.abs(np.fft.fft(chips)) ** 2).real.round().astype(int)
    assert circ[0] == n
    assert np.all(circ[1:] == -1)


def test_mseq_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no feedback polynomial for order 1"):
        generate_mseq(1)                 # below the table
    with pytest.raises(ValueError, match="no feedback polynomial for order 13"):
        generate_mseq(13)                # above the table


def test_guard_layout_broadcast_preset():
    gi = build_gi(generate_mseq(8), 420, 2.0)
    assert gi.n_pn == 255
    assert gi.nu == 420
    assert gi.core_offset == 165
    assert gi.a_pn == pytest.approx(np.sqrt(2.0))
    assert gi.samples.size == 420
    # every guard chip is the core read cyclically from the core start
    idx = (np.arange(420) - 165) % 255
    assert np.array_equal(gi.samples, gi.core[idx])
    assert np.allclose(np.abs(gi.samples), np.sqrt(2.0))


def test_guard_power_boost_default_doubles_power(desk_gi):
    assert np.mean(np.abs(desk_gi.samples) ** 2) == pytest.approx(2.0)
    unit = build_gi(generate_mseq(6), 64, 1.0)
    assert np.mean(np.abs(unit.samples) ** 2) == pytest.approx(1.0)


def test_core_spectrum_matches_direct_transform(desk_gi):
    want = naive_unitary_dft(desk_gi.core)
    assert np.max(np.abs(desk_gi.spectrum - want)) < 1e-10


def test_core_spectrum_is_nearly_flat():
    # two-level autocorrelation makes |P[k]|^2 constant off dc, with the dc
    # bin a factor n_pn + 1 below the rest
    gi = build_gi(generate_mseq(6), 63, 1.0)
    p2 = np.abs(gi.spectrum) ** 2
    ratio = p2.max() / p2.min()
    assert ratio == pytest.approx(64.0, rel=1e-9)
    assert np.allclose(np.delete(p2, 0), p2[1], rtol=1e-9)


def test_all_ones_core_dc_bin():
    gi = build_gi(np.ones(7, dtype=np.uint8), 7, 1.0)
    # bit 1 maps to -1, so the dc bin of the unitary transform is -sqrt(7)
    assert gi.spectrum[0] == pytest.approx(-np.sqrt(7.0))
    assert gi.core_offset == 0


def test_guard_rejects_bad_inputs():
    bits = generate_mseq(3)
    with pytest.raises(ValueError):
        build_gi(bits, 6, 2.0)           # guard shorter than the core
    with pytest.raises(ValueError):
        build_gi(bits, 16, 0.0)
    with pytest.raises(ValueError):
        build_gi(np.array([], dtype=np.uint8), 16, 2.0)
