"""Shared fixtures and slow-but-obvious reference implementations.

The reference functions here deliberately avoid the code paths used by the
library (matrix DFTs instead of FFTs, per-sample convolution loops) so that
agreement between the two is meaningful.
"""

import os

# one trial's solves and products are too small to gain from BLAS threads,
# which only add hand-off time; this must precede the first numpy import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit, logsumexp

from tdsofdm import FrameGrid, PowerDelayProfile, build_gi, generate_mseq, r_t
from tdsofdm.soft_rebuild import LLR_MAX


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


def naive_stream_conv(frame: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-sample linear convolution of the frame's rows read as one stream.

    Sample n of row i uses tap row i, the quasi-static block-switching
    convention.  Returns the flat stream.
    """
    frame = np.atleast_2d(frame)
    row = frame.shape[1]
    stream = frame.ravel()
    out = np.zeros(stream.size, dtype=np.complex128)
    for n in range(stream.size):
        t = taps[n // row]
        for l in range(taps.shape[1]):
            if n - l >= 0:
                out[n] += t[l] * stream[n - l]
    return out


def convolve_propagate(frame, nu, taps, noise_var, rng):
    """propagate as one np.convolve per row over all taps, then the noise
    over the sent samples, every row but the last and the closing guard of
    nu samples, as one complex draw: the straightforward form the library's
    sum over nonzero tap columns must match, to rounding."""
    rows, row = frame.shape
    le = taps.shape[1]
    ext = np.concatenate([np.zeros(le - 1, dtype=np.complex128), frame.ravel()])
    out = np.empty((rows, row), dtype=np.complex128)
    for i in range(rows):
        out[i] = np.convolve(ext[i * row : (i + 1) * row + le - 1], taps[i], mode="valid")
    if noise_var > 0:
        n = (rows - 1) * row + nu
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out.reshape(-1)[:n] += np.sqrt(noise_var / 2.0) * w
    return out


def where_equalize(y, h_est):
    """equalize as a division by np.where(ok, h, 1) selected by np.where:
    the library divides into one output and zeroes the rest, bit for bit."""
    p = np.abs(h_est) ** 2
    thr = 1e-12 * p.mean(axis=-1, keepdims=True)
    ok = (p >= thr) & (p > 0)
    z = np.where(ok, y / np.where(ok, h_est, 1.0), 0.0)
    return FrameGrid(data=z, mask=np.broadcast_to(ok, z.shape))


def einsum_soft_symbols(llr, c):
    """soft_symbols with every level's probability stacked, then one einsum
    against the levels: the library accumulates the same products level by
    level, bit for bit.  p1 is the same logistic expression, so that the
    two share its exp."""
    with np.errstate(over="ignore"):
        p1 = 1.0 / (1.0 + np.exp(-np.moveaxis(llr, -1, 0)))
    p1 = p1.reshape((2, -1) + p1.shape[1:])
    factor = (1.0 - p1[:, 0], p1[:, 0])
    prob = np.stack([factor[bit] for bit in c.axis_labels[:, 0]])
    for l in range(1, p1.shape[1]):
        factor = (1.0 - p1[:, l], p1[:, l])
        for k, bit in enumerate(c.axis_labels[:, l]):
            prob[k] *= factor[bit]
    mean = np.einsum("q...,q->...", prob, c.levels)
    return mean[0] + 1j * mean[1]


def uniform_prior(length):
    """The uniform frequency prior over delays 0 .. length-1."""
    return PowerDelayProfile(np.arange(length), np.full(length, 1.0 / length))


def exact_freq_wiener(n, input_err_var, profile):
    """The dense LMMSE frequency design over n observed subcarriers:
    (tap map, residual_mse).

    The n cells are v = F h + w, with F the n x D matrix DFT at the prior's
    D delays, h the taps with powers P and w white of variance s (at zero,
    the 1e-12 r(0) jitter).  The LMMSE tap estimate is
    C^1/2 (A + s I)^-1 C^1/2 F^H v with C = diag(P) and A = C^1/2 F^H F C^1/2,
    whose Gram matrix F^H F is summed over the subcarriers rather than taken
    as n I; its error covariance is s C^1/2 (A + s I)^-1 C^1/2, and the
    residual is that covariance seen through F, averaged over the n
    subcarriers.  Returns the (L, n) map from the cells to the taps at
    delays 0 .. L-1, rows off the prior's support zero.
    """
    delays, powers = profile.delays, profile.powers
    f = np.exp(-2j * np.pi * np.multiply.outer(np.arange(n), delays) / n)
    sq = np.sqrt(powers)
    ridge = input_err_var if input_err_var > 0 else 1e-12 * powers.sum()
    gram = f.conj().T @ f
    system = sq[:, None] * gram * sq[None, :] + ridge * np.eye(delays.size)
    taps = sq[:, None] * scipy.linalg.solve(system, sq[:, None] * f.conj().T, assume_a="pos")
    err = ridge * sq[:, None] * scipy.linalg.solve(system, np.diag(sq), assume_a="pos")
    coeff = np.zeros((delays.max() + 1, n), dtype=np.complex128)
    coeff[delays] = taps
    return coeff, float(np.trace(gram @ err).real / n)


def reference_time_system(n_out, input_err_var, fd_hz=0.0, tb_s=0.0):
    """The dense MMSE system of a time filter with every block a pilot: (phi, theta, r0).

    phi carries the input error variance, or at zero the 1e-12 r(0)
    jitter, on its diagonal.
    """
    # r_t's quadrature follows the largest lag of its call: take every
    # lag from one call over the full range, as time_wiener does
    r = r_t(np.arange(1 - n_out, n_out), fd_hz, tb_s).astype(np.complex128)
    pil = np.arange(n_out)
    phi = r[pil[:, None] - pil[None, :] + n_out - 1] + input_err_var * np.eye(n_out)
    if input_err_var == 0.0:
        phi = phi + 1e-12 * r[n_out - 1] * np.eye(n_out)
    theta = r[pil[None, :] - pil[:, None] + n_out - 1]
    return phi, theta, r[n_out - 1].real


def exact_time_wiener(n_out, input_err_var, fd_hz=0.0, tb_s=0.0):
    """The time design solved in mpmath at 40 digits: (coefficients, residual_mse).

    Takes the float64 reference_time_system, jitter included, and solves it
    exactly, so that the answer carries none of a float64 solver's error
    on the near-singular slow-fading phi.
    """
    phi, theta, r0 = reference_time_system(n_out, input_err_var, fd_hz, tb_s)
    k = theta.shape[0]
    with mpmath.workdps(40):

        def exact(a):
            return mpmath.matrix([[mpmath.mpc(v.real, v.imag) for v in row] for row in a])

        theta = exact(theta)
        x = mpmath.inverse(exact(np.conj(phi))) * theta
        resid = [
            max(r0 - mpmath.re(mpmath.fsum(theta[i, m] * mpmath.conj(x[i, m]) for i in range(k))), 0)
            for m in range(n_out)
        ]
        coeff = np.array([[complex(x[i, m]) for i in range(k)] for m in range(n_out)])
        return coeff, float(mpmath.fsum(resid) / n_out)


def dense_freq_map(gains, n):
    """A frequency design's gains times the inverse DFT: its (L, n) map from
    the n subcarriers to the taps at delays 0 .. L-1, as one matrix."""
    idft = np.exp(2j * np.pi * np.multiply.outer(np.arange(gains.size), np.arange(n)) / n) / n
    return gains[:, None] * idft


def reference_impute(values, mask):
    """Invalid cells replaced row by row by np.interp over the valid ones;
    a row with no valid cell becomes zeros."""
    v = np.array(values, dtype=np.complex128, ndmin=2)
    mk = np.broadcast_to(mask, v.shape)
    k = np.arange(v.shape[-1])
    for row, good in zip(v, mk):
        if not good.any():
            row[:] = 0.0
        elif not good.all():
            re = np.interp(k[~good], k[good], row[good].real)
            row[~good] = re + 1j * np.interp(k[~good], k[good], row[good].imag)
    return v.reshape(np.shape(values))


def reference_demap(z, h, noise_var, c):
    """Generic per-bit LLRs: a log-sum-exp over all 2^m points per bit,
    clipped to +-LLR_MAX."""
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
    np.clip(out, -LLR_MAX, LLR_MAX, out=out)
    out[~ok] = 0.0
    return out


def per_class_demap(z, h_est, noise_var, c):
    """The per-bit form of demap: for each bit, |x - level|^2 / sigma2 over
    its two label classes, each class shifted by its own smallest term
    before its exponentials are summed.  It takes sqrt(M) exponentials per
    bit where demap takes sqrt(M) per axis value, and handles saturation,
    masking and the QPSK difference the same way."""
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    shape = z.data.shape
    p = np.abs(h_est)
    np.square(p, out=p)
    p = np.broadcast_to(p, shape)
    ok = p > 0
    if z.mask is not None:
        ok &= z.mask

    # past reach, the gap between a bit's two class maxima exceeds
    # 2 (LLR_MAX + q) and the rest of the class sums moves it by at most
    # log(q / 2), so the LLR saturates; clamping there, and at 1e150 for a
    # huge sigma2, keeps every square finite.  A sigma2 or reach past the
    # float range is inf, the limit where every LLR is zero.
    q = c.levels.size
    sigma2 = np.where(ok, p, 1.0)
    reach = np.empty(shape, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.divide(noise_var, sigma2, out=sigma2)
        np.maximum(sigma2, 1e-30, out=sigma2)
        np.multiply(LLR_MAX + q, sigma2, out=reach)
        reach /= c.levels[1] - c.levels[0]
        reach += c.levels[-1]
    # I/Q on the leading axis, so every pass below runs over whole cell grids
    axes = np.empty((2,) + shape, dtype=np.float64)
    axes[0] = z.data.real
    axes[1] = z.data.imag
    # (class, level, 2 axes, ...), reused by every bit; its first slab is
    # scratch until the loop starts
    terms = np.empty((2, q // 2) + axes.shape, dtype=np.float64)
    scratch = terms[0, 0]
    far = np.abs(axes, out=scratch) > reach
    np.minimum(reach, 1e150, out=reach)
    np.clip(axes, np.negative(reach, out=scratch), reach, out=axes)

    half = c.axis_labels.shape[1]
    out = np.empty((2, half) + shape, dtype=np.float64)
    if q > 2:
        # the per-class minimum and sum of terms
        low = np.empty((2, 1) + axes.shape, dtype=np.float64)
        lse = np.empty((2,) + axes.shape, dtype=np.float64)
    for l in range(half):
        # |x - level|^2 / sigma2 over the bit's two label classes, class 0
        # first; a class's log-likelihood sum is log(sum exp(low - terms)) - low
        # with low its smallest term
        classes = c.levels[np.argsort(c.axis_labels[:, l], kind="stable")].reshape(2, -1)
        np.subtract(axes, classes.reshape(classes.shape + (1,) * axes.ndim), out=terms)
        np.square(terms, out=terms)
        terms /= sigma2
        if q == 2:
            # one level per class: low is the term itself and the sum is
            # log(exp(0)) - low = -term exactly, so the LLR is t0 - t1
            np.subtract(terms[0, 0], terms[1, 0], out=out[:, l])
            continue
        np.min(terms, axis=1, keepdims=True, out=low)
        np.subtract(low, terms, out=terms)
        # a term under e^-700 cannot move a sum that holds a 1, and exp runs
        # many times slower where it underflows
        np.maximum(terms, -700.0, out=terms)
        np.exp(terms, out=terms)
        np.sum(terms, axis=1, out=lse)
        np.log(lse, out=lse)
        lse -= low[:, 0]
        np.subtract(lse[1], lse[0], out=out[:, l])
    if far.any():
        outer = np.where(axes[far][:, None] > 0, c.axis_labels[-1], c.axis_labels[0])
        np.moveaxis(out, 1, -1)[far] = LLR_MAX * (2.0 * outer - 1.0)
    out = out.reshape((2 * half,) + shape)
    np.clip(out, -LLR_MAX, LLR_MAX, out=out)
    out[:, ~ok] = 0.0
    # bit-major in memory; the (..., bits) view costs no transpose
    return np.moveaxis(out, 0, -1)


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


def reference_searchsorted_hard_decisions(symbols, c):
    """Per-axis slicer by binary search over the level midpoints: a value on
    a midpoint goes to the lower level, NaN to the top one."""
    z = np.asarray(symbols)
    mid = (c.levels[1:] + c.levels[:-1]) / 2
    i = np.searchsorted(mid, z.real)
    q = np.searchsorted(mid, z.imag)
    return np.concatenate([c.axis_labels[i], c.axis_labels[q]], axis=-1).reshape(-1)


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
