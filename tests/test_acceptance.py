"""End-to-end acceptance checks.

Each test pins one load-bearing property of the library: transform
identities, the closed-form error models, channel statistics, and the
Monte-Carlo performance trends of the full receiver at desk scale.  Every
test prints a one-line summary with its measured figure.
"""

import time

import numpy as np
import pytest

from tdsofdm import (
    analytic_mse_pn,
    assemble,
    build_gi,
    cfr,
    build_wiener,
    constellation,
    generate_mseq,
    ma_1d,
    ma_2d,
    map_bits,
    mean_interference_power,
    ofdm_modulate,
    ola,
    preset_profile,
    propagate,
    r_t,
    realize,
    remove_pn,
    resolve_config,
    run,
    time_wiener,
    wiener_1d,
    wiener_2x1d,
)

from conftest import crandn, frames, interference_power, lag_correlation, uniform_prior

SNRS = (0.0, 10.0, 20.0, 30.0)
SEED = 20260822


def noise_var(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def final_mse_by_snr(rows) -> dict:
    out = {}
    for r in rows:                # rows are ordered by snr then iteration
        out[r.snr_db] = r.mse_empirical
    return out


def crossing_snr(per_snr: dict, level: float) -> float:
    snrs = np.array(sorted(per_snr), dtype=float)
    logm = np.log10([per_snr[s] for s in snrs])
    return float(np.interp(np.log10(level), logm[::-1], snrs[::-1]))


@pytest.fixture(scope="module")
def desk_sweeps():
    """Full-grid 500-trial sweeps, one per estimator, identical seeds."""
    t0 = time.monotonic()
    base = {"trials": 500, "seed": SEED}
    out = {}
    rows, raw = run(resolve_config({**base, "estimator": "wiener1d"}), keep_trials=True)
    out["wiener1d"] = rows
    out["wiener_raw"] = raw
    out["pn"] = run(resolve_config({**base, "estimator": "pn"}))
    out["ma1d"] = run(resolve_config({**base, "estimator": "ma1d"}))
    out["elapsed"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def sfn_sweeps():
    """Long-echo runs: the PN floor and the data-aided recovery."""
    t0 = time.monotonic()
    base = {"trials": 500, "seed": SEED, "sfn_delay_us": 23.28}
    pn = run(resolve_config({**base, "estimator": "pn", "snr_db": "25,30,40"}))
    wn = run(resolve_config({**base, "estimator": "wiener1d", "snr_db": "40"}))
    return {"pn": pn, "wiener1d": wn, "elapsed": time.monotonic() - t0}


def test_a01_stream_to_circular_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    c = constellation("qpsk")
    cases = {}
    for n, nu, order in ((16, 8, 3), (64, 16, 3), (256, 64, 6)):
        cases[(n, nu)] = build_gi(generate_mseq(order), nu, 2.0)
    keys = list(cases)
    worst = 0.0
    for trial in range(100):
        n, nu = keys[trial % 3]
        gi = cases[(n, nu)]
        le = int(rng.integers(1, nu + 1))
        taps = crandn(rng, le)
        bits = rng.integers(0, 2, 4 * n * 2).astype(np.uint8)
        x = map_bits(bits, c).reshape(4, n)
        tx = assemble(ofdm_modulate(x), gi)
        rx = propagate(tx, nu, np.tile(taps, (5, 1)), 0.0, rng)
        y = ola(remove_pn(rx, gi, taps), nu)
        want = np.fft.fft(taps, n) * x
        rel = np.max(np.abs(y - want)) / np.max(np.abs(want))
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"A01 stream-to-circular identity PASS (worst rel err {worst:.1e}, {elapsed:.1f}s)")


def test_a02_guard_fold_noise_boost():
    rng = np.random.default_rng(102)
    figures = []
    for n, nu in ((512, 64), (3780, 420)):
        want = (n + nu) / n
        acc, cnt = 0.0, 0
        for _ in range(10):
            y = ola(crandn(rng, (1001, n + nu)), nu)
            acc += float(np.sum(np.abs(y) ** 2))
            cnt += y.size
        ratio = acc / cnt
        assert abs(ratio - want) / want < 0.02, f"grid {n}: boost {ratio:.4f} vs {want:.4f}"
        figures.append(f"{n}: {ratio:.4f}/{want:.4f}")
    print(f"A02 guard-fold noise boost PASS ({'; '.join(figures)})")


def test_a03_error_model_closed_forms():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    ratios = {}

    # truncated LS from the guard core, checked in the tap domain
    gi8 = build_gi(generate_mseq(8), 420, 2.0)
    spec = np.fft.fft(gi8.samples[165:420])
    vals = []
    for snr in SNRS:
        var = noise_var(snr)
        w = crandn(rng, (4000, 255), var=var)
        err = np.fft.ifft(np.fft.fft(w, axis=1) / spec, axis=1)[:, :38]
        emp = float(np.mean(np.sum(np.abs(err) ** 2, axis=1)))
        vals.append(emp / analytic_mse_pn(gi8, 38, var))
    ratios["ls"] = vals

    # moving average over a 4-tap ensemble: noise plus bias
    vals = []
    for snr in SNRS:
        var = noise_var(snr)
        gains, resid = ma_1d(512, 5, input_err_var=var, profile=uniform_prior(4))
        truth = cfr(crandn(rng, (1000, 4), var=0.25), 512)
        out = cfr(wiener_1d(truth + crandn(rng, (1000, 512), var=var), gains), 512)
        vals.append(float(np.mean(np.abs(out - truth) ** 2)) / resid)
    ratios["ma"] = vals

    # frequency smoother of every subcarrier over a 4-tap ensemble
    vals = []
    for snr in SNRS:
        var = noise_var(snr)
        gains, resid = build_wiener(64, input_err_var=var, profile=uniform_prior(4))
        taps = crandn(rng, (4000, 4), var=0.25)
        truth = cfr(taps, 64)
        out = cfr(wiener_1d(truth + crandn(rng, (4000, 64), var=var), gains), 64)
        vals.append(float(np.mean(np.abs(out - truth) ** 2)) / resid)
    ratios["wiener_f"] = vals

    # two-dimensional moving average over a 4-tap ensemble in block fading
    vals = []
    for snr in SNRS:
        var = noise_var(snr)
        gains, _ = ma_1d(32, 3, input_err_var=var, profile=uniform_prior(4))
        smoother, resid = ma_2d(
            8, 2, gains, input_err_var=var, profile=uniform_prior(4), fd_hz=0.01, tb_s=1.0
        )
        acc = 0.0
        for _ in range(300):
            truth = cfr(realize(uniform_prior(4), 0.01, 1.0, 8, rng), 32)
            out = cfr(wiener_2x1d(truth + crandn(rng, (8, 32), var=var), gains, smoother), 32)
            acc += float(np.mean(np.abs(out - truth) ** 2))
        vals.append(acc / 300 / resid)
    ratios["ma2"] = vals

    # time smoother of every block over correlated block fading
    p = np.arange(8)
    big_r = r_t(p[:, None] - p[None, :], 0.01, 1.0) + 1e-12 * np.eye(8)
    chol = np.linalg.cholesky(big_r)
    vals = []
    for snr in SNRS:
        var = noise_var(snr)
        smoother, resid = time_wiener(8, input_err_var=var, fd_hz=0.01, tb_s=1.0)
        g = np.einsum("ij,rjk->rik", chol, crandn(rng, (2000, 8, 32)))
        obs = g + crandn(rng, (2000, 8, 32), var=var)
        out = np.einsum("bp,rpk->rbk", smoother, obs)
        vals.append(float(np.mean(np.abs(out - g) ** 2)) / resid)
    ratios["wiener_t"] = vals

    elapsed = time.monotonic() - t0
    for name, vals in ratios.items():
        for snr, v in zip(SNRS, vals):
            assert 0.9 < v < 1.1, f"{name} at {snr:g} dB: ratio {v:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    spans = {k: f"{min(v):.3f}-{max(v):.3f}" for k, v in ratios.items()}
    print(f"A03 closed-form error models PASS ({spans}, {elapsed:.1f}s)")


def test_a04_residual_guard_interference(gi3_16):
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    var = np.array([0.02, 0.01, 0.005, 0.0025])
    shifted = np.stack([np.roll(gi3_16.samples, l) for l in range(4)])
    emp = np.zeros(64)
    draws = 100000
    for _ in range(4):
        dg = np.sqrt(var) * crandn(rng, (draws // 4, 4))
        spec = np.fft.fft(dg @ shifted, 64, axis=1)
        emp += np.sum(np.abs(spec) ** 2, axis=0)
    emp /= draws * 64
    closed = interference_power(gi3_16, var, np.arange(64), 64)
    l1 = float(np.mean(np.abs(emp - closed)) / np.mean(closed))
    scalar = mean_interference_power(gi3_16, var.sum(), 64)
    mean_dev = abs(emp.mean() - scalar) / scalar
    elapsed = time.monotonic() - t0
    assert l1 <= 0.05, f"normalized L1 {l1:.4f}"
    assert mean_dev <= 0.01, f"mean deviation {mean_dev:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"A04 guard interference spectrum PASS (L1 {l1:.4f}, mean dev {mean_dev:.4f})")


def test_a05_variance_weighted_combining(desk_sweeps):
    rng = np.random.default_rng(105)
    betas = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    worst = 0.0
    for _ in range(1000):
        e1, e2 = 10.0 ** rng.uniform(-4, 0, 2)
        best = betas[np.argmin(betas**2 * e1 + (1 - betas) ** 2 * e2)]
        worst = max(worst, abs(best - e2 / (e1 + e2)))
    assert worst <= 1e-3, f"worst weight deviation {worst:.2e}"

    worst_excess = 0.0
    for snr, stack in desk_sweeps["wiener_raw"].items():
        for it in (1, 2):
            comb = stack["mse"][:, it].mean()
            best_arm = min(stack["mse"][:, 0].mean(), stack["h2_mse"][:, it - 1].mean())
            assert comb <= 1.1 * best_arm, (
                f"{snr:g} dB iter {it}: combined {comb:.3e} vs best arm {best_arm:.3e}"
            )
            worst_excess = max(worst_excess, comb / best_arm - 1.0)
    print(
        f"A05 variance-weighted combining PASS (weight dev {worst:.1e}, "
        f"worst excess over best arm {worst_excess * 100:+.1f}%)"
    )


def test_a06_block_fading_autocorrelation():
    # 100 020 blocks or more, as independent 64-block frames
    rng = np.random.default_rng(106)
    h = frames(preset_profile("flat", 1.0), 0.02, 100020, rng)[..., 0]
    worst = 0.0
    for lag in range(1, 21):
        emp = float(lag_correlation(h, lag))
        pred = float(r_t(np.array([lag]), 0.02, 1.0)[0])
        worst = max(worst, abs(emp - pred))
    assert worst <= 0.05, f"worst correlation deviation {worst:.4f}"
    print(f"A06 block-fading autocorrelation PASS (worst dev {worst:.4f} over lags 1-20)")


def test_a08a_data_aided_gain(desk_sweeps, sfn_sweeps):
    total = desk_sweeps["elapsed"] + sfn_sweeps["elapsed"]
    assert total < 600.0, f"sweep campaigns took {total:.0f}s"
    pn_cross = crossing_snr(final_mse_by_snr(desk_sweeps["pn"]), 1e-2)
    wn_cross = crossing_snr(final_mse_by_snr(desk_sweeps["wiener1d"]), 1e-2)
    gain = pn_cross - wn_cross
    assert 3.5 <= gain <= 6.5, f"gain {gain:.2f} dB (crossings {pn_cross:.2f}/{wn_cross:.2f})"
    print(
        f"A08a estimation gain PASS ({gain:.2f} dB at MSE 1e-2; "
        f"campaigns {total:.0f}s)"
    )


def test_a08b_interpolator_beats_plain_averaging(desk_sweeps):
    wn = final_mse_by_snr(desk_sweeps["wiener1d"])
    ma = final_mse_by_snr(desk_sweeps["ma1d"])
    checked = []
    for snr in sorted(wn):
        if snr >= 10.0:
            assert wn[snr] <= ma[snr], f"{snr:g} dB: {wn[snr]:.3e} vs {ma[snr]:.3e}"
            checked.append(snr)
    margins = [ma[s] / wn[s] for s in checked]
    print(
        f"A08b interpolation vs averaging PASS (x{min(margins):.2f}-x{max(margins):.2f} "
        f"at {checked[0]:g}-{checked[-1]:g} dB)"
    )


def test_a08c_long_echo_floor_and_recovery(sfn_sweeps):
    pn = final_mse_by_snr(sfn_sweeps["pn"])
    wn = final_mse_by_snr(sfn_sweeps["wiener1d"])
    assert pn[40.0] >= 0.5 * pn[25.0], f"no floor: {pn[40.0]:.3e} vs {pn[25.0]:.3e}"
    reduction = pn[40.0] / wn[40.0]
    assert reduction >= 5.0, f"only x{reduction:.1f} below the floor"
    print(
        f"A08c long-echo floor PASS (floor {pn[40.0]:.2e}, data-aided x{reduction:.1f} lower)"
    )


def test_a08d_iterations_do_not_regress(desk_sweeps):
    stack = desk_sweeps["wiener_raw"][20.0]
    frac = float(np.mean(stack["mse"][:, -1] <= stack["mse"][:, 0]))
    assert frac >= 0.95, f"improved fraction {frac:.3f}"
    print(f"A08d per-trial improvement PASS ({frac * 100:.1f}% of trials at 20 dB)")


def test_a09_window_length_tradeoff():
    t0 = time.monotonic()
    lengths = (1, 3, 5, 9, 21)
    mses = []
    for m in lengths:
        cfg = resolve_config(
            {"estimator": "ma1d", "trials": 400, "snr_db": "30", "seed": 77, "M_f": m}
        )
        mses.append(run(cfg)[-1].mse_empirical)
    k = int(np.argmin(mses))
    elapsed = time.monotonic() - t0
    assert 0 < k < len(lengths) - 1, f"minimum at the boundary: {list(zip(lengths, mses))}"
    assert mses[k] < mses[0] and mses[k] < mses[-1]
    print(
        f"A09 window-length tradeoff PASS (best M_f={lengths[k]}, "
        f"{mses[0]:.2e}/{mses[k]:.2e}/{mses[-1]:.2e} at M_f=1/{lengths[k]}/21, {elapsed:.0f}s)"
    )


def test_a10_thread_count_invariance(tmp_path):
    blobs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}.csv"
        cfg = resolve_config(
            {
                "trials": 8,
                "snr_db": "10,20",
                "seed": 5,
                "threads": threads,
                "out": str(out),
            }
        )
        run(cfg)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1], "thread count changed the results"
    print("A10 thread-count invariance PASS (CSV outputs byte-identical)")
