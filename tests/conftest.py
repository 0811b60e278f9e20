"""Shared fixtures and slow-but-obvious reference implementations.

The reference functions here deliberately avoid the code paths used by the
library (matrix DFTs instead of FFTs, per-sample convolution loops) so that
agreement between the two is meaningful.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit, logsumexp

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


def _prior_taps(profile, design_len):
    """Delays and powers of a frequency prior: the profile, or uniform over design_len taps."""
    if profile is not None:
        return profile.delays.astype(np.float64), profile.powers
    return np.arange(design_len, dtype=np.float64), np.full(design_len, 1.0 / design_len)


def reference_system(
    domain, plan, input_err_var, profile=None, design_len=None, fd_hz=0.0, tb_s=0.0
):
    """The dense MMSE interpolation system: (phi, theta, r0).

    Every correlation entry is evaluated directly from the prior, once per
    distinct lag for frequency filters; phi carries the input error
    variance, or at zero the 1e-12 r(0) jitter, on its diagonal.
    """
    if domain == "freq":
        n_out, pil = plan.n_fft, plan.freq_idx
        delays, powers = _prior_taps(profile, design_len)

        def corr(q):
            lags, inv = np.unique(q, return_inverse=True)
            r = np.exp(-2j * np.pi * np.multiply.outer(lags, delays) / n_out) @ powers
            return r[inv].reshape(q.shape)

    else:
        n_out, pil = plan.block_len, plan.time_idx

        def corr(q):
            return r_t(q, fd_hz, tb_s).astype(np.complex128)

    k = pil.size
    phi = corr(pil[:, None] - pil[None, :]) + input_err_var * np.eye(k)
    if input_err_var == 0.0:
        phi = phi + (1e-12 * np.trace(phi).real / k) * np.eye(k)
    theta = corr(np.arange(n_out)[None, :] - pil[:, None])
    return phi, theta, corr(np.array([0]))[0].real


def reference_wiener(
    domain, plan, input_err_var, profile=None, design_len=None, fd_hz=0.0, tb_s=0.0
):
    """Dense MMSE interpolator design: (coefficients, residual_mse).

    The coefficients and the residual come from two separate
    positive-definite solves of the reference_system.
    """
    phi, theta, r0 = reference_system(domain, plan, input_err_var, profile, design_len, fd_hz, tb_s)
    coeff = scipy.linalg.solve(np.conj(phi), theta, assume_a="pos").T
    quad = np.einsum("pk,pk->k", theta, scipy.linalg.solve(phi, np.conj(theta), assume_a="pos")).real
    resid = np.maximum(r0 - quad, 0.0)
    return coeff, float(resid.mean())


def exact_freq_wiener(plan, input_err_var, profile=None, design_len=None):
    """The frequency design solved in mpmath at 40 digits: (coefficients, residual_mse).

    Solves the same system as build_wiener, prior and zero-variance jitter
    included, exactly enough that a near-singular phi (rank D plus a tiny
    ridge) costs no float64 digits.
    """
    delays, powers = _prior_taps(profile, design_len)
    n_out, pil = plan.n_fft, [int(i) for i in plan.freq_idx]
    with mpmath.workdps(40):
        taps = [(mpmath.mpf(float(d)), mpmath.mpf(float(p))) for d, p in zip(delays, powers)]
        r = {
            q: mpmath.fsum(p * mpmath.expjpi(-2 * q * d / n_out) for d, p in taps)
            for q in range(1 - n_out, n_out)
        }
        r0 = mpmath.re(r[0])
        ridge = mpmath.mpf(input_err_var) if input_err_var > 0 else mpmath.mpf(1e-12) * r0
        k = len(pil)
        phi_conj = mpmath.matrix(k, k)
        theta = mpmath.matrix(k, n_out)
        for i, a in enumerate(pil):
            for j, b in enumerate(pil):
                phi_conj[i, j] = mpmath.conj(r[a - b]) + (ridge if i == j else 0)
            for m in range(n_out):
                theta[i, m] = r[m - a]
        x = mpmath.inverse(phi_conj) * theta
        quad = mpmath.fsum(theta[i, m] * mpmath.conj(x[i, m]) for i in range(k) for m in range(n_out))
        resid = r0 - mpmath.re(quad) / n_out
        coeff = np.array([[complex(x[i, m]) for i in range(k)] for m in range(n_out)])
        return coeff, float(resid)


def dense_coefficients(filt):
    """A filter's pilot -> output map as one (n_out, k) matrix.

    A frequency filter's tap rows are expanded by their n_fft-point DFT;
    a time filter's coefficients already are that map.
    """
    if filt.n_fft is None:
        return filt.coefficients
    return np.fft.fft(filt.coefficients, n=filt.n_fft, axis=0)


def reference_window_sum(arr, back, fwd, axis):
    """Sliding sum over [i-back, i+fwd], truncated at the edges: one gather
    of the zero-prefixed cumulative sum at each window's two ends.  A
    one-bin window returns its input."""
    if back == 0 and fwd == 0:
        return arr
    a = np.moveaxis(np.asarray(arr), axis, -1)
    n = a.shape[-1]
    zero = np.zeros(a.shape[:-1] + (1,), dtype=a.dtype)
    cs = np.concatenate([zero, np.cumsum(a, axis=-1)], axis=-1)
    hi = np.minimum(np.arange(n) + fwd + 1, n)
    lo = np.maximum(np.arange(n) - back, 0)
    return np.moveaxis(cs[..., hi] - cs[..., lo], -1, axis)


def reference_demap(z, h, noise_var, c, llr_max=30.0):
    """Generic per-bit LLRs: a log-sum-exp over all 2^m points per bit."""
    h = np.asarray(h, dtype=np.complex128)
    p = np.broadcast_to(np.abs(h) ** 2, z.data.shape)
    ok = p > 0
    if z.mask is not None:
        ok = ok & z.mask
    sigma2 = np.maximum(noise_var / np.where(ok, p, 1.0), 1e-30)

    d = np.abs(z.data[..., None] - c.points) ** 2
    ll = -d / sigma2[..., None]
    m = c.bits_per_symbol
    out = np.empty(z.data.shape + (m,), dtype=np.float64)
    for l in range(m):
        one = c.bit_labels[:, l] == 1
        out[..., l] = logsumexp(ll[..., one], axis=-1) - logsumexp(ll[..., ~one], axis=-1)
    np.clip(out, -llr_max, llr_max, out=out)
    out[~ok] = 0.0
    return out


def reference_soft_symbols(llr_values, c):
    """Posterior mean over all 2^m points, each weighted by the product of
    its label's bit probabilities."""
    p1 = expit(llr_values)
    m = c.bits_per_symbol
    mu = c.points.size
    prob = np.ones(llr_values.shape[:-1] + (mu,), dtype=np.float64)
    for l in range(m):
        bit = c.bit_labels[:, l].astype(bool)
        pl = p1[..., l : l + 1]
        prob *= np.where(bit, pl, 1.0 - pl)
    return prob @ c.points


def reference_hard_decisions(symbols, c):
    """Two-dimensional nearest-point slicer: argmin of |z - p|^2 over all points."""
    z = np.asarray(symbols)
    d = np.abs(z[..., None] - c.points) ** 2
    idx = np.argmin(d, axis=-1)
    return c.bit_labels[idx].reshape(z.shape + (c.bits_per_symbol,)).reshape(-1)


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
