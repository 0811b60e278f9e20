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

from tdsofdm import FrameGrid, PowerDelayProfile, build_gi, generate_mseq, r_t, realize


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


def frames(prof, fd_tb, total, rng, num_blocks=64):
    """Independent frames of num_blocks, at least total blocks in all:
    shape (frames, num_blocks, prof.length)."""
    count = -(-total // num_blocks)
    return np.stack([realize(prof, fd_tb, 1.0, num_blocks, rng) for _ in range(count)])


def lag_correlation(g, p):
    """Mean of g[f, i + p] g*[f, i] over the pairs inside each frame f."""
    return np.mean(g[:, p:] * np.conj(g[:, : g.shape[1] - p])).real


def r_f(q, profile, n_fft):
    """Frequency correlation of the CFR at subcarrier separation q: the
    model that realize's grid statistics are checked against."""
    q = np.asarray(q)
    phase = np.exp(-2j * np.pi * np.multiply.outer(q, profile.delays) / n_fft)
    return phase @ profile.powers


def interference_power(pn, tap_err_var, k, n_fft):
    """Residual guard interference power on subcarrier k after imperfect removal.

    Each tap error of variance tap_err_var[l] leaks the cyclically shifted
    guard sequence into the data window; the per-subcarrier power follows
    from the shifted sequences' aperiodic autocorrelations.  Its mean over
    all n_fft subcarriers is the library's mean_interference_power of
    sum(tap_err_var).  A scalar k gives a float, an array of k an array.
    """
    var = np.asarray(tap_err_var, dtype=np.float64)
    if np.any(var < 0):
        raise ValueError("tap error variances must be nonnegative")
    if var.size > pn.nu:
        raise ValueError("more tap errors than guard samples")
    c = pn.samples
    nu = pn.nu
    ks = np.atleast_1d(np.asarray(k))
    q = np.arange(1, nu)
    cosines = np.cos(2.0 * np.pi * np.outer(ks, q) / n_fft)

    total = np.zeros(ks.shape, dtype=np.float64)
    e0 = float(np.sum(np.abs(c) ** 2))
    for l, v in enumerate(var):
        if v == 0.0:
            continue
        cl = np.roll(c, l)
        ac = np.correlate(cl, cl, mode="full")[nu:].real
        total += v * (e0 + 2.0 * (cosines @ ac))
    out = total / n_fft
    return out if np.ndim(k) else float(out[0])


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


def _cell_sigma2(z, h_est, noise_var):
    """Each cell's post-equalization noise variance as demap forms it in
    float64, and the cells it treats as usable."""
    shape = z.data.shape
    p = np.broadcast_to(np.abs(h_est) ** 2, shape)
    ok = p > 0
    if z.mask is not None:
        ok = ok & z.mask
    with np.errstate(over="ignore"):
        sigma2 = np.maximum(noise_var / np.where(ok, p, 1.0), 1e-30)
    return sigma2, ok


def _digits(x, sigma2):
    """mpmath digits that resolve the level spacing in a distance
    (x - level)^2 / sigma2: 40 past its magnitude, at most 700 (at |x| up to
    1.8e308 and sigma2 down to 1e-30 a distance reaches 3e646)."""
    return 40 + max(0, int(2.0 * np.log10(abs(x) + 2.0) - np.log10(min(sigma2, 1e300))))


def _weighted_means(values, d):
    """sum_j v_j e^-d_j / sum_j e^-d_j in mpmath for each sequence v of
    values, shifted by the smallest d; a term under e^-2000 cannot move the
    sum, which holds a 1."""
    low = min(d)
    keep = [(j, mpmath.exp(low - dj)) for j, dj in enumerate(d) if dj - low < 2000]
    total = mpmath.fsum(t for _, t in keep)
    return [float(mpmath.fsum(v[j] * t for j, t in keep) / total) for v in values]


def exact_posterior_mean(z, h_est, noise_var, c):
    """The posterior-mean symbol of each cell, exactly, from demap's float sigma2.

    Each axis value x of a usable cell gives
    sum_j l_j e^-(x - l_j)^2 / sigma2 / sum_j e^-(x - l_j)^2 / sigma2 over
    the levels l_j, in mpmath at up to 700 digits.  Cells that demap treats
    as unusable give 0; a sigma2 past the float range (inf) gives equal
    terms, so 0 too.
    """
    sigma2, ok = _cell_sigma2(z, h_est, noise_var)
    out = np.zeros(z.data.shape, dtype=np.complex128)
    for idx in zip(*np.nonzero(ok)):
        s2 = float(sigma2[idx])
        mean = []
        for x in (z.data[idx].real, z.data[idx].imag):
            with mpmath.workdps(_digits(x, s2)):
                levels = [mpmath.mpf(float(v)) for v in c.levels]
                var = mpmath.mpf(s2)
                (m,) = _weighted_means([levels], [(mpmath.mpf(float(x)) - v) ** 2 / var for v in levels])
                mean.append(m)
        out[idx] = complex(*mean)
    return out


def brute_force_posterior_mean(z, h_est, noise_var, c):
    """The posterior mean over all M points of each cell, from demap's float sigma2:
    sum_s s e^-|z - s|^2 / sigma2 / sum_s e^-|z - s|^2 / sigma2, in mpmath.
    Cells that demap treats as unusable give 0."""
    sigma2, ok = _cell_sigma2(z, h_est, noise_var)
    out = np.zeros(z.data.shape, dtype=np.complex128)
    for idx in zip(*np.nonzero(ok)):
        v, s2 = z.data[idx], float(sigma2[idx])
        with mpmath.workdps(_digits(max(abs(v.real), abs(v.imag)), s2)):
            x, y, var = mpmath.mpf(v.real), mpmath.mpf(v.imag), mpmath.mpf(s2)
            pts = [(mpmath.mpf(p.real), mpmath.mpf(p.imag)) for p in c.points]
            d = [((x - pr) ** 2 + (y - pi) ** 2) / var for pr, pi in pts]
            re, im = _weighted_means([[pr for pr, _ in pts], [pi for _, pi in pts]], d)
            out[idx] = complex(re, im)
    return out


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
