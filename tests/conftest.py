"""Shared fixtures and slow-but-obvious reference implementations.

The reference functions here deliberately avoid the code paths used by the
library (matrix DFTs instead of FFTs, per-sample convolution loops) so that
agreement between the two is meaningful.
"""

import numpy as np
import pytest
import scipy.linalg

from tdsofdm import build_gi, generate_mseq, r_t


def naive_unitary_dft(x: np.ndarray) -> np.ndarray:
    """Direct O(n^2) unitary DFT along the last axis."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return x @ w


def naive_raw_dft(x: np.ndarray, n_out: int) -> np.ndarray:
    """Direct zero-padded DFT without the 1/sqrt(n) factor."""
    x = np.asarray(x, dtype=np.complex128)
    n_in = x.shape[-1]
    k = np.arange(n_out)
    w = np.exp(-2j * np.pi * np.outer(k, np.arange(n_in)) / n_out)
    return x @ w.T


def naive_stream_conv(blocks: np.ndarray, tail: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-sample linear convolution of the concatenated stream.

    Sample n of block i uses tap row i; the trailing samples reuse the last
    applicable row, matching the quasi-static block-switching convention.
    """
    blocks = np.atleast_2d(blocks)
    s, row = blocks.shape
    taps = np.atleast_2d(taps)
    stream = np.concatenate([blocks.ravel(), tail])
    le = taps.shape[1]
    out = np.zeros(stream.size, dtype=np.complex128)
    for n in range(stream.size):
        b = n // row if n < s * row else s
        t = taps[min(b, taps.shape[0] - 1)]
        for l in range(le):
            if n - l >= 0:
                out[n] += t[l] * stream[n - l]
    return out


def reference_wiener(
    domain, plan, input_err_var, profile=None, design_len=None, fd_hz=0.0, tb_s=0.0
):
    """Dense MMSE interpolator design: (coefficients, residual_mse).

    Every correlation entry is evaluated directly from the prior through a
    (rows, cols, taps) exponential tensor, and the coefficients and the
    residual come from two separate positive-definite solves.
    """
    if domain == "freq":
        n_out, pil = plan.n_fft, plan.freq_idx
        if profile is not None:
            delays, powers = profile.delays.astype(np.float64), profile.powers
        else:
            delays = np.arange(design_len, dtype=np.float64)
            powers = np.full(design_len, 1.0 / design_len)
        center = float(powers @ delays)

        def corr(q):
            return np.exp(-2j * np.pi * np.multiply.outer(q, delays - center) / n_out) @ powers

    else:
        n_out, pil = plan.block_len, plan.time_idx

        def corr(q):
            return r_t(q, fd_hz, tb_s).astype(np.complex128)

    k = pil.size
    phi = corr(pil[:, None] - pil[None, :]) + input_err_var * np.eye(k)
    if input_err_var == 0.0:
        phi = phi + (1e-12 * np.trace(phi).real / k) * np.eye(k)
    theta = corr(np.arange(n_out)[None, :] - pil[:, None])
    coeff = scipy.linalg.solve(np.conj(phi), theta, assume_a="pos").T
    quad = np.einsum("pk,pk->k", theta, scipy.linalg.solve(phi, np.conj(theta), assume_a="pos")).real
    resid = np.maximum(corr(np.array([0]))[0].real - quad, 0.0)
    return coeff, float(resid.mean())


def crandn(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Circular complex Gaussian with the given total variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(var / 2.0)


@pytest.fixture(scope="session")
def desk_gi():
    """Order-6 core in a 64-chip guard, the compact preset's guard interval."""
    return build_gi(generate_mseq(6), 64, 2.0)


@pytest.fixture(scope="session")
def gi3_16():
    """Order-3 core (7 chips) in a 16-chip guard: 9 chips of cyclic margin."""
    return build_gi(generate_mseq(3), 16, 2.0)
