"""PN guard intervals: m-sequence generation, cyclic extension, core spectrum."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# numpy 2 imports numpy.fft and numpy.random on first use: each module
# that calls into one imports it eagerly, so that the first trial does not
# pay for the load
import numpy.fft  # noqa: F401

# Primitive feedback polynomials as bitmasks containing both end terms,
# e.g. 0xB means x^3 + x + 1.  One entry per supported register length.
PRIMITIVE_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x163,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
}

DEFAULT_PN_SEED = 0x01


@dataclass(frozen=True)
class PnSequence:
    """A BPSK guard interval: cyclically extended m-sequence core plus metadata.

    samples holds the full nu-chip guard; the n_pn-chip core starts at
    core_offset, and spectrum is the unitary DFT of the core alone.
    """

    n_pn: int
    nu: int
    samples: np.ndarray
    core_offset: int
    spectrum: np.ndarray
    a_pn: float

    @property
    def core(self) -> np.ndarray:
        return self.samples[self.core_offset : self.core_offset + self.n_pn]


def generate_mseq(order: int, poly: int | None = None, seed: int = DEFAULT_PN_SEED) -> np.ndarray:
    """Return one period (2**order - 1 bits) of a maximal-length sequence.

    The register runs in Galois form and emits its low bit once per step.
    With a primitive feedback polynomial the output visits every nonzero
    state exactly once per period, so any nonzero seed gives the same
    sequence up to a cyclic shift.
    """
    if poly is None:
        if order not in PRIMITIVE_POLYS:
            raise ValueError(f"no default feedback polynomial for order {order}")
        poly = PRIMITIVE_POLYS[order]
    if poly.bit_length() - 1 != order:
        raise ValueError(
            f"polynomial degree {poly.bit_length() - 1} does not match order {order}"
        )
    if not poly & 1:
        raise ValueError("feedback polynomial must include the constant term")
    if not 0 < seed < (1 << order):
        raise ValueError(f"seed must be a nonzero {order}-bit state, got {seed:#x}")

    n = (1 << order) - 1
    mask = poly >> 1
    state = seed
    bits = np.empty(n, dtype=np.uint8)
    for i in range(n):
        out = state & 1
        bits[i] = out
        state >>= 1
        if out:
            state ^= mask
    return bits


def build_gi(
    bits: np.ndarray,
    nu: int,
    power_boost: float = 2.0,
    expected_cir_len: int | None = None,
) -> PnSequence:
    """Assemble a guard interval from binary chips.

    Bits map to BPSK as 0 -> +a, 1 -> -a with a = sqrt(power_boost).  All
    nu - n_pn extension chips are placed before the core, so the core sees a
    cyclic prefix of that length and stays ISI-free whenever the channel
    memory fits inside the extension.
    """
    bits = np.asarray(bits)
    n_pn = int(bits.size)
    if n_pn < 1:
        raise ValueError("core must contain at least one chip")
    if nu < n_pn:
        raise ValueError(f"guard length {nu} cannot hold a {n_pn}-chip core")
    if power_boost <= 0:
        raise ValueError("power_boost must be positive")

    a_pn = float(np.sqrt(power_boost))
    core = (a_pn * (1.0 - 2.0 * bits.astype(np.float64))).astype(np.complex128)
    offset = nu - n_pn
    idx = (np.arange(nu) - offset) % n_pn
    samples = core[idx]

    if expected_cir_len is not None and expected_cir_len - 1 > offset:
        warnings.warn(
            f"guard extension {offset} is shorter than the channel memory "
            f"{expected_cir_len - 1}; the PN core is not ISI-free",
            stacklevel=2,
        )

    spectrum = np.fft.fft(core, norm="ortho")
    return PnSequence(
        n_pn=n_pn,
        nu=int(nu),
        samples=samples,
        core_offset=offset,
        spectrum=spectrum,
        a_pn=a_pn,
    )
