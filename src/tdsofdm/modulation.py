"""Gray-labeled square constellations and bit/symbol conversion."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

_AXIS_BITS = {"qpsk": 1, "qam16": 2, "qam64": 3}
CONSTELLATIONS = tuple(_AXIS_BITS)


@dataclass(frozen=True)
class Constellation:
    """Unit-power constellation with per-point bit labels.

    points[j] carries the label bit_labels[j]; point order is chosen so that
    the label read as a big-endian integer equals j, which makes mapping a
    single table lookup.  Each point is levels[a] + 1j*levels[b] with label
    axis_labels[a] followed by axis_labels[b]: the in-phase and quadrature
    halves of a label are independent Gray-labeled amplitude axes.
    """

    name: str
    points: np.ndarray
    bit_labels: np.ndarray
    eta_alpha: float
    uniform_power: bool
    levels: np.ndarray
    axis_labels: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return int(self.bit_labels.shape[1])


def _bits(values: np.ndarray, width: int) -> np.ndarray:
    """Big-endian binary digits of each value, shape values.shape + (width,)."""
    return ((values[..., None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)


@cache
def constellation(name: str) -> Constellation:
    """Build one of qpsk, qam16, qam64; each is built once and shared.

    Each axis carries the sqrt(M) amplitudes 2i - (sqrt(M) - 1), ascending,
    labeled with the reflected Gray code i ^ (i >> 1): the leading bit is the
    sign bit (1 on the positive half) and the codes of +x and -x differ only
    in it.  The first half of each symbol's bits selects the in-phase level,
    the second half the quadrature level.
    """
    if name not in _AXIS_BITS:
        raise ValueError(f"unknown constellation {name!r}")
    half = _AXIS_BITS[name]
    q = 1 << half
    i = np.arange(q)
    amp = 2.0 * i - (q - 1)
    codes = i ^ (i >> 1)
    norm = np.sqrt(2 * (q * q - 1) / 3)  # (q^2 - 1)/3 is each axis's mean power

    points = np.empty(q * q, dtype=np.complex128)
    points[(codes[:, None] << half) | codes[None, :]] = (amp[:, None] + 1j * amp[None, :]) / norm
    c = Constellation(
        name=name,
        points=points,
        bit_labels=_bits(np.arange(q * q), 2 * half),
        eta_alpha=float(np.mean(np.abs(points) ** 2)),
        uniform_power=(name == "qpsk"),
        levels=amp / norm,
        axis_labels=_bits(codes, half),
    )
    for a in (c.points, c.bit_labels, c.levels, c.axis_labels):
        a.flags.writeable = False  # shared by every caller
    return c


def map_bits(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Map a flat bit vector to constellation symbols, big-endian per symbol."""
    bits = np.asarray(bits)
    m = c.bits_per_symbol
    if bits.size % m:
        raise ValueError(f"bit count {bits.size} is not a multiple of {m}")
    groups = bits.reshape(-1, m).astype(np.int64)
    weights = 1 << np.arange(m - 1, -1, -1)
    return c.points[groups @ weights]


def hard_decisions(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Slice each axis to its nearest level and return the label bits.

    A value exactly between two levels goes to the lower one.  At zero, which
    equalize writes into masked cells, that is the tied point with the
    smallest label.  A level index is the number of midpoints a value is
    not at or below, so NaN slices to the top level.  The interleaved I/Q
    values of the symbols are sliced in one pass, which yields each symbol's
    in-phase then quadrature labels in symbol order.
    """
    v = np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64).reshape(-1)
    # at most sqrt(M) - 1 = 7 midpoints lie below a value
    level = np.zeros(v.shape, dtype=np.uint8)
    above = np.empty(v.shape, dtype=bool)
    for mid in (c.levels[1:] + c.levels[:-1]) / 2:
        np.less_equal(v, mid, out=above)
        np.logical_not(above, out=above)
        level += above
    return np.take(c.axis_labels, level, axis=0).reshape(-1)
