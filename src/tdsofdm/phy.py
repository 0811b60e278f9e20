"""Baseband chain: OFDM transforms, PN framing, propagation, overlap-add, equalization."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (loaded eagerly, see sequences)

from .channel import next_fast_len
from .sequences import PnSequence


@dataclass(frozen=True)
class FrameGrid:
    """An equalized grid of num_symbols x n_fft cells.

    mask, when present, is True on usable cells and False where the
    equalizer zeroed a vanishing bin.
    """

    data: np.ndarray
    mask: np.ndarray | None = None


def ofdm_modulate(x: np.ndarray) -> np.ndarray:
    """Unitary IDFT along the last axis."""
    return np.fft.ifft(np.asarray(x), axis=-1, norm="ortho")


def ofdm_demodulate(x: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis."""
    return np.fft.fft(np.asarray(x), axis=-1, norm="ortho")


def assemble(bodies: np.ndarray, gi: PnSequence) -> np.ndarray:
    """The frame as (s + 1, nu + n) rows: row i is guard i then body i, and
    the last row is the closing guard, then zeros."""
    bodies = np.atleast_2d(np.asarray(bodies, dtype=np.complex128))
    s, n = bodies.shape
    frame = np.zeros((s + 1, gi.nu + n), dtype=np.complex128)
    frame[:, : gi.nu] = gi.samples
    frame[:-1, gi.nu :] = bodies
    return frame


def propagate(
    frame: np.ndarray,
    nu: int,
    taps: np.ndarray,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Convolve the continuous frame stream with the per-row CIR and add AWGN.

    The rows of the frame, whose guards are nu samples long, are treated as
    one linear convolution: samples of row i use tap vector taps[i]
    (quasi-static switching at row boundaries), so each row's head also
    carries the tail of what the previous row sent.  Noise covers the
    samples sent, every row but the last and the closing guard at its head;
    the rest of the last row holds the guard's noiseless channel spill and
    is never read.
    """
    rows, row = frame.shape
    if taps.ndim != 2 or taps.shape[0] < rows:
        raise ValueError(f"need at least {rows} tap vectors, got {taps.shape}")
    le = taps.shape[1]
    if nu and le - 1 > nu:
        warnings.warn(
            f"channel memory {le - 1} exceeds the guard length {nu}; "
            "inter-block interference reaches past one guard",
            stacklevel=2,
        )

    # the stream behind le - 1 zeros: ext[le - 1 - d + j] is stream sample j - d
    ext = np.zeros(le - 1 + frame.size, dtype=np.complex128)
    ext[le - 1 :] = frame.ravel()
    out = np.zeros((rows, row), dtype=np.complex128)
    term = np.empty((rows, row), dtype=np.complex128)
    # each delay adds its tap times the stream shifted by that delay; delays
    # with no energy in any row (the gap before an SFN echo) add nothing
    for d in np.flatnonzero(np.any(taps != 0, axis=0)):
        start = le - 1 - d
        np.multiply(taps[:rows, d, None], ext[start : start + frame.size].reshape(rows, row), out=term)
        out += term

    if noise_var > 0:
        sent = out.reshape(-1)[: frame.size - row + nu]
        scale = np.sqrt(noise_var / 2.0)
        w = rng.standard_normal(sent.size)
        w *= scale
        sent.real += w
        rng.standard_normal(out=w)
        w *= scale
        sent.imag += w

    return out


def remove_pn(rx: np.ndarray, gi: PnSequence, cir_est: np.ndarray) -> np.ndarray:
    """Subtract the channel-filtered guard from every guard region of a frame.

    cir_est is one tap vector shared by all blocks, or one row per block;
    the closing guard reuses the last row.  The subtraction spans the guard
    plus the le-1 samples it spills into each data head.
    """
    cir = np.atleast_2d(np.asarray(cir_est, dtype=np.complex128))
    s = rx.shape[0] - 1
    nu = gi.nu
    le = cir.shape[1]
    if le > nu:
        raise ValueError(f"CIR length {le} exceeds guard length {nu}")
    if cir.shape[0] not in (1, s):
        raise ValueError(f"expected 1 or {s} CIR rows, got {cir.shape[0]}")

    span = nu + le - 1
    nfft = next_fast_len(span)
    g_spec = np.fft.fft(gi.samples, n=nfft)
    est = np.fft.ifft(g_spec * np.fft.fft(cir, n=nfft, axis=1), axis=1)[:, :span]

    cleaned = rx.copy()
    cleaned[:-1, :span] -= est
    cleaned[-1, :nu] -= est[-1, :nu]
    return cleaned


def ola(cleaned: np.ndarray, nu: int) -> np.ndarray:
    """Fold each row's guard region, nu samples, onto the data head of the
    row before it and demodulate.

    Adding the full guard region back restores circular convolution for the
    data part; the price is a (n + nu)/n noise power boost on the first nu
    data samples' worth of noise energy.
    """
    n = cleaned.shape[1] - nu
    if n <= 0 or nu > n:
        raise ValueError(f"guard length {nu} incompatible with block length {cleaned.shape[1]}")
    bodies = cleaned[:-1, nu:].copy()
    bodies[:, :nu] += cleaned[1:, :nu]
    return ofdm_demodulate(bodies)


def equalize(y: np.ndarray, h_est: np.ndarray) -> FrameGrid:
    """Zero-forcing equalization with spectral-null protection.

    Bins whose estimated gain is vanishing relative to the per-row mean are
    flagged in the output mask and zeroed rather than divided.
    """
    p = np.abs(h_est) ** 2
    thr = 1e-12 * p.mean(axis=-1, keepdims=True)
    ok = (p >= thr) & (p > 0)
    z = np.empty(np.broadcast_shapes(y.shape, h_est.shape), dtype=np.complex128)
    ok = np.broadcast_to(ok, z.shape)
    np.divide(y, h_est, out=z, where=ok)
    z[~ok] = 0.0
    return FrameGrid(data=z, mask=ok)
