"""PN guard intervals: m-sequence generation, cyclic extension, core spectrum."""

from __future__ import annotations

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


def generate_mseq(order: int) -> np.ndarray:
    """Return one period (2**order - 1 bits) of a maximal-length sequence.

    The register runs in Galois form with the feedback polynomial
    PRIMITIVE_POLYS[order], starts from state 1 and emits its low bit once
    per step, so it visits every nonzero state exactly once per period.
    """
    if order not in PRIMITIVE_POLYS:
        raise ValueError(f"no feedback polynomial for order {order}")

    n = (1 << order) - 1
    mask = PRIMITIVE_POLYS[order] >> 1
    state = 1
    bits = np.empty(n, dtype=np.uint8)
    for i in range(n):
        out = state & 1
        bits[i] = out
        state >>= 1
        if out:
            state ^= mask
    return bits


def build_gi(bits: np.ndarray, nu: int, power_boost: float) -> PnSequence:
    """Assemble a guard interval from binary chips.

    Bits map to BPSK as 0 -> +a, 1 -> -a with a = sqrt(power_boost).  All
    nu - n_pn extension chips are placed before the core, so the core sees a
    cyclic prefix of that length and stays ISI-free whenever the channel
    memory fits inside the extension; pn_estimator.window_leak_variance
    models the leak of a longer channel.
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

    spectrum = np.fft.fft(core, norm="ortho")
    return PnSequence(
        n_pn=n_pn,
        nu=int(nu),
        samples=samples,
        core_offset=offset,
        spectrum=spectrum,
        a_pn=a_pn,
    )
