"""Baseband chain: OFDM transforms, PN framing, propagation, overlap-add, equalization."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .sequences import PnSequence


@dataclass(frozen=True)
class FrameGrid:
    """A frequency-domain grid of num_symbols x n_fft cells.

    mask, when present, is True on usable cells and False where an upstream
    stage could not produce a value (nulled or unreliable bins).
    """

    data: np.ndarray
    mask: np.ndarray | None = None


@dataclass(frozen=True)
class TimeSignal:
    """Contiguous block stream: each row is one guard+data block, plus the
    trailing guard region that closes the last block's overlap-add window."""

    blocks: np.ndarray
    tail: np.ndarray


def ofdm_modulate(x: np.ndarray) -> np.ndarray:
    """Unitary IDFT along the last axis."""
    return np.fft.ifft(np.asarray(x), axis=-1, norm="ortho")


def ofdm_demodulate(x: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis."""
    return np.fft.fft(np.asarray(x), axis=-1, norm="ortho")


def assemble(bodies: np.ndarray, gi: PnSequence) -> TimeSignal:
    """Prefix every OFDM body with the guard interval and append the closing guard."""
    bodies = np.atleast_2d(np.asarray(bodies, dtype=np.complex128))
    s = bodies.shape[0]
    g = np.broadcast_to(gi.samples, (s, gi.nu))
    return TimeSignal(
        blocks=np.concatenate([g, bodies], axis=1),
        tail=gi.samples.copy(),
    )


def propagate(
    sig: TimeSignal,
    ch,
    noise_var: float,
    rng: np.random.Generator,
) -> TimeSignal:
    """Convolve the continuous block stream with the per-block CIR and add AWGN.

    The stream is treated as one linear convolution: samples of block i use
    tap vector i (quasi-static switching at block boundaries), so each
    block's head also carries the tail of what the previous block sent.  The
    trailing guard region reuses the last available tap vector.
    """
    blocks = sig.blocks
    s, row = blocks.shape
    taps = ch.taps
    if taps.ndim != 2 or taps.shape[0] < s:
        raise ValueError(f"need at least {s} tap vectors, got {taps.shape}")
    le = taps.shape[1]
    nu = sig.tail.size
    if nu and le - 1 > nu:
        warnings.warn(
            f"channel memory {le - 1} exceeds the guard length {nu}; "
            "inter-block interference reaches past one guard",
            stacklevel=2,
        )

    stream = np.concatenate([blocks.ravel(), sig.tail])
    ext = np.concatenate([np.zeros(le - 1, dtype=np.complex128), stream])
    out = np.empty(stream.size, dtype=np.complex128)
    for i in range(s):
        seg = ext[i * row : i * row + row + le - 1]
        out[i * row : (i + 1) * row] = np.convolve(seg, taps[i], mode="valid")
    if nu:
        seg = ext[s * row : s * row + nu + le - 1]
        out[s * row :] = np.convolve(seg, taps[min(s, taps.shape[0] - 1)], mode="valid")

    if noise_var > 0:
        n = stream.size
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out += np.sqrt(noise_var / 2.0) * w

    return TimeSignal(blocks=out[: s * row].reshape(s, row), tail=out[s * row :])


def remove_pn(rx: TimeSignal, gi: PnSequence, cir_est: np.ndarray) -> TimeSignal:
    """Subtract the channel-filtered guard from every guard region.

    cir_est is one tap vector shared by all blocks, or one row per block;
    the trailing guard reuses the last row.  The subtraction spans the guard
    plus the le-1 samples it spills into each data head.
    """
    cir = np.atleast_2d(np.asarray(cir_est, dtype=np.complex128))
    s, row = rx.blocks.shape
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

    blocks = rx.blocks.copy()
    blocks[:, :span] -= est
    tail = rx.tail.copy()
    tail -= est[-1][: tail.size]
    return TimeSignal(blocks=blocks, tail=tail)


def ola(cleaned: TimeSignal) -> FrameGrid:
    """Fold each block's following guard region onto its data head and demodulate.

    Adding the full guard region back restores circular convolution for the
    data part; the price is a (n + nu)/n noise power boost on the first nu
    data samples' worth of noise energy.
    """
    s, row = cleaned.blocks.shape
    nu = cleaned.tail.size
    n = row - nu
    if n <= 0 or (nu and nu > n):
        raise ValueError(f"guard length {nu} incompatible with block length {row}")
    bodies = cleaned.blocks[:, nu:].copy()
    if nu:
        bodies[:-1, :nu] += cleaned.blocks[1:, :nu]
        bodies[-1, :nu] += cleaned.tail
    return FrameGrid(data=ofdm_demodulate(bodies))


def equalize(y: FrameGrid, h_est: np.ndarray) -> FrameGrid:
    """Zero-forcing equalization with spectral-null protection.

    Bins whose estimated gain is vanishing relative to the per-row mean are
    flagged in the output mask and zeroed rather than divided.
    """
    p = np.abs(h_est) ** 2
    thr = 1e-12 * p.mean(axis=-1, keepdims=True)
    ok = (p >= thr) & (p > 0)
    z = np.where(ok, y.data / np.where(ok, h_est, 1.0), 0.0)
    ok = np.broadcast_to(ok, z.shape)
    if y.mask is not None:
        ok = ok & y.mask
    return FrameGrid(data=z, mask=ok)
