"""Config resolution, Monte-Carlo sweeps, and result serialization."""

import json
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tdsofdm
from tdsofdm import (
    CSV_HEADER,
    ConfigError,
    ConstraintError,
    SimConfig,
    resolve_config,
    run,
    sidecar_path,
    write_csv,
)


def test_defaults_resolve_to_the_small_grid():
    cfg = resolve_config()
    assert (cfg.fft_size, cfg.gi_len) == (512, 64)
    assert cfg.sample_rate_hz == 1.024e6
    assert cfg.pn_order == 6
    assert (cfg.m_t, cfg.m_f) == (2, 9)
    assert cfg.cir_len == 6                      # tu6 at this rate
    assert cfg.trials == 500
    assert cfg.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    assert cfg.block_len == cfg.num_symbols == 10
    assert cfg.estimator == "wiener1d"
    assert cfg.constellation == "qpsk"
    assert cfg.corr_mode == "uniform"


def test_sfn_echo_shrinks_windows_and_extends_cir():
    cfg = resolve_config({"sfn_delay_us": 23.28})
    assert cfg.m_f == 3
    assert cfg.cir_len == 30
    # explicit windows are kept
    cfg2 = resolve_config({"sfn_delay_us": 23.28, "M_f": 7})
    assert cfg2.m_f == 7


def test_wide_preset_resolves_long_cir():
    cfg = resolve_config({"preset": "dtmb"})
    assert (cfg.fft_size, cfg.gi_len, cfg.pn_order) == (3780, 420, 8)
    assert cfg.cir_len == 39


def test_config_rejections():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config({"bandwidth": 8})
    # M_f is the one frequency window of every estimator
    with pytest.raises(ConfigError, match="unknown config key 'M'"):
        resolve_config({"M": 5})
    # cir_len is also the support of the uniform Wiener prior
    with pytest.raises(ConfigError, match="unknown config key 'design_len'"):
        resolve_config({"design_len": 9})
    # the PN register is a function of pn_order alone
    with pytest.raises(ConfigError, match="unknown config key 'pn_seed'"):
        resolve_config({"pn_seed": 1})
    with pytest.raises(ConfigError, match="unknown config key 'pn_poly'"):
        resolve_config({"pn_poly": 0x43})
    with pytest.raises(ConfigError, match="bad value"):
        resolve_config({"trials": "many"})
    with pytest.raises(ConfigError, match="estimator"):
        resolve_config({"estimator": "kalman"})
    with pytest.raises(ConfigError, match="cir_len"):
        resolve_config({"cir_len": 100})
    with pytest.raises(ConfigError, match="divide"):
        resolve_config({"block_len": 3})
    with pytest.raises(ConfigError, match="preset"):
        resolve_config({"preset": "atsc"})
    with pytest.raises(ConfigError, match="hold"):
        resolve_config({"gi_len": 32})


@pytest.mark.parametrize("order", [-1, 0, 1, 13])
def test_invalid_pn_register_is_a_config_error(order):
    # the register fails in resolve_config, not later inside run()
    with pytest.raises(ConfigError, match="pn_order must be one of 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12$"):
        resolve_config({"pn_order": order})


@pytest.mark.parametrize("preset, length, fft_size", [("desk", 518, 512), ("dtmb", 3819, 3780)])
def test_sfn_echo_past_the_fft_is_a_config_error(preset, length, fft_size):
    # both presets span 500 us per FFT: an echo at 494 us still fits, one
    # at 495 us does not, and run() would fail on it inside channel.cfr
    assert resolve_config({"preset": preset, "sfn_delay_us": 494}).profile().length <= fft_size
    with pytest.raises(ConfigError, match=f"length {length} exceeds fft_size {fft_size}"):
        resolve_config({"preset": preset, "sfn_delay_us": 500})
    with pytest.raises(ConfigError, match="exceeds fft_size"):
        resolve_config({"preset": preset, "sfn_delay_us": 495})


def test_config_value_parsing():
    cfg = resolve_config({"seed": "0x10", "snr_db": "0,5, 10", "trials": "3"})
    assert cfg.seed == 16
    assert cfg.snr_db == (0.0, 5.0, 10.0)
    assert cfg.trials == 3
    assert resolve_config({"snr_db": 15}).snr_db == (15.0,)
    assert resolve_config({"snr_db": [10, 20]}).snr_db == (10.0, 20.0)


@pytest.mark.parametrize(
    "override",
    [
        {"snr_db": "nan"},
        {"snr_db": "-inf"},
        {"snr_db": [10, float("nan")]},
        {"velocity_kmh": "inf"},
        {"pn_power_boost": "inf"},
        {"sfn_atten_db": "nan", "sfn_delay_us": 20},
        {"trials": 2.7},
        {"trials": float("inf")},
    ],
)
def test_non_finite_floats_and_fractional_ints_are_config_errors(override):
    # accepted, these would run with all-NaN rows, a NaN SNR label or a
    # truncated trial count
    with pytest.raises(ConfigError, match="bad value"):
        resolve_config({"trials": 2, "snr_db": 20, **override})


@pytest.mark.parametrize("grid", ["10,10", "10,10.0000000001", [5, 20, 5.0]])
def test_snr_points_with_one_label_are_config_errors(grid):
    # the CSV labels rows by %g and run() keys raw trials by the point, so a
    # repeat would print two rows with one label and drop a point's trials
    with pytest.raises(ConfigError, match="snr_db"):
        resolve_config({"snr_db": grid, "trials": 2})


def test_distinct_snr_labels_keep_every_point():
    cfg = resolve_config({"snr_db": "10,10.5,-10", "estimator": "pn", "trials": 2})
    rows, raw = run(cfg, keep_trials=True)
    assert sorted(raw) == [-10.0, 10.0, 10.5]
    assert [f"{r.snr_db:g}" for r in rows] == ["10", "10.5", "-10"]


def test_whole_floats_still_parse_as_ints():
    cfg = resolve_config({"trials": 3.0, "M_f": np.int64(5)})
    assert (cfg.trials, cfg.m_f) == (3, 5)
    assert type(cfg.trials) is int and type(cfg.m_f) is int


# one valid typed value per config key; each key is its SimConfig field's
# name, with M_t and M_f capitalized
_TYPED = {
    "preset": "dtmb",
    "fft_size": 1024,
    "gi_len": 128,
    "sample_rate_hz": 2.048e6,
    "pn_order": 5,
    "pn_power_boost": 1.5,
    "constellation": "qam16",
    "channel": "two_tap",
    "sfn_delay_us": 20.0,
    "sfn_atten_db": 3.0,
    "velocity_kmh": 120.0,
    "fc_hz": 5e9,
    "estimator": "ma2d",
    "M_t": 3,
    "M_f": 5,
    "block_len": 5,
    "iterations": 1,
    "cir_len": 4,
    "corr_mode": "profile",
    "snr_db": (5.0, 12.5),
    "trials": 3,
    "num_symbols": 20,
    "seed": 7,
    "threads": 2,
    "out": "x.csv",
}


def test_the_typed_samples_cover_every_config_key():
    assert {key.lower() for key in _TYPED} == {f.name for f in fields(SimConfig)}


@pytest.mark.parametrize("key", sorted(_TYPED))
def test_every_key_parses_its_text_form_like_its_typed_form(key):
    typed = _TYPED[key]
    text = ",".join(map(str, typed)) if isinstance(typed, tuple) else str(typed)
    cfg = resolve_config({key: typed})
    assert getattr(cfg, key.lower()) == typed
    assert resolve_config({key: text}) == cfg


@pytest.mark.parametrize("key", ["m", "m_t", "m_f"])
def test_lowercase_window_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown config key {key!r}"):
        resolve_config({key: 3})


def test_run_silences_no_warning(monkeypatch):
    # the desk guard's one-chip extension is shorter than tu6's memory; the
    # receiver models that leak, and the default sweep warns about nothing
    cfg = resolve_config({"trials": 1, "snr_db": "20"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(run(cfg)) == cfg.iterations + 1

    real = tdsofdm.harness.build_gi

    def noisy_build_gi(*args, **kwargs):
        warnings.warn("unrelated trouble")
        return real(*args, **kwargs)

    monkeypatch.setattr(tdsofdm.harness, "build_gi", noisy_build_gi)
    with pytest.warns(UserWarning) as caught:
        run(cfg)
    assert [str(w.message) for w in caught] == ["unrelated trouble"]


@pytest.mark.parametrize("setting, want", [(None, "1"), ("2", "2")])
def test_import_pins_one_blas_thread_unless_set(setting, want):
    # a fresh interpreter, because this one loaded numpy long ago
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    src = str(Path(tdsofdm.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import os, tdsofdm; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == want


def test_import_and_first_trial_load_no_further_modules():
    # numpy 2 loads numpy.fft and numpy.random on first use: a module the
    # package leaves to its first trial costs that trial its load time
    src = str(Path(tdsofdm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys, tdsofdm, tdsofdm.cli\n"
        "from pathlib import Path\n"
        "from tdsofdm.harness import resolve_config, run\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "stems = (p.stem for p in Path(tdsofdm.__file__).parent.glob('*.py') if p.stem != '__init__')\n"
        "print(sorted(m for m in (f'tdsofdm.{s}' for s in stems) if m not in sys.modules))\n"
        "cfg = resolve_config({'trials': 1, 'snr_db': '10'})\n"
        "before = set(sys.modules)\n"
        "run(cfg)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.splitlines() == ["[]", "[]", "[]"]


@pytest.mark.parametrize("estimator", ["wiener1d", "ma1d"])
def test_sweep_is_deterministic(estimator):
    cfg = resolve_config({"trials": 2, "snr_db": "10", "seed": 99, "estimator": estimator})
    assert run(cfg) == run(cfg)


def test_estimators_share_channel_and_noise_draws():
    base = {"trials": 5, "snr_db": "10", "seed": 7}
    _, raw_pn = run(resolve_config({**base, "estimator": "pn"}), keep_trials=True)
    _, raw_wn = run(resolve_config({**base, "estimator": "wiener1d"}), keep_trials=True)
    # the first iteration is the common LS stage on identical realizations
    assert np.array_equal(raw_pn[10.0]["mse"][:, 0], raw_wn[10.0]["mse"][:, 0])
    assert np.array_equal(raw_pn[10.0]["ber"][:, 0], raw_wn[10.0]["ber"][:, 0])


def test_raw_trial_shapes():
    cfg = resolve_config({"trials": 4, "snr_db": "15"})
    rows, raw = run(cfg, keep_trials=True)
    stack = raw[15.0]
    assert stack["mse"].shape == (4, 3)
    assert stack["eps"].shape == (4, 3)
    assert stack["ber"].shape == (4, 3)
    assert stack["h2_mse"].shape == (4, 2)
    assert stack["h2_eps"].shape == (4, 2)
    assert [r.iteration for r in rows] == [0, 1, 2]
    assert all(r.trials == 4 for r in rows)


@pytest.mark.parametrize("corr_mode", ["uniform", "profile"])
@pytest.mark.parametrize("estimator", ["wiener1d", "wiener2x1d"])
def test_dtmb_wiener_trial_end_to_end(estimator, corr_mode):
    cfg = resolve_config(
        {"preset": "dtmb", "estimator": estimator, "corr_mode": corr_mode, "trials": 1, "snr_db": "10"}
    )
    rows = run(cfg)
    assert [r.iteration for r in rows] == [0, 1, 2]
    for r in rows:
        assert np.isfinite([r.mse_empirical, r.eps_analytic, r.ber_uncoded]).all()
        assert r.mse_empirical >= 0.0 and r.eps_analytic >= 0.0
        assert 0.0 <= r.ber_uncoded <= 1.0
    assert rows[-1].mse_empirical < rows[0].mse_empirical


def test_wiener1d_ignores_the_time_sampling_rule():
    # fd * tb = 0.3125 > 1/4: no block spacing samples the fading, but only
    # wiener2x1d interpolates across blocks
    fast = {"fc_hz": 5e9, "velocity_kmh": 120, "trials": 1, "snr_db": "20"}
    rows = run(resolve_config({**fast, "estimator": "wiener1d"}))
    assert [r.iteration for r in rows] == [0, 1, 2]
    for r in rows:
        assert np.isfinite([r.mse_empirical, r.eps_analytic, r.ber_uncoded]).all()
    with pytest.raises(ConstraintError, match="time sampling rule"):
        run(resolve_config({**fast, "estimator": "wiener2x1d"}))


# estimator -> calls per trial of combiner.cir_from_cfr, combiner.cfr and
# harness.cfr: an estimate is its taps, so no loop inverts a CFR, the trial
# forms no true CFR, and each of the iterations + 1 passes of the loop
# forms its estimate's CFR once.  That is as many transforms per trial as
# when ls_pn (1) and each of the 2 refines formed their own CFR, or the
# genie's trial formed the true one
_TAP_PATH_CALLS = {
    "wiener1d": (0, 3, 0), "ma1d": (0, 3, 0), "ma2d": (0, 3, 0), "genie": (0, 1, 0), "pn": (0, 1, 0),
}


@pytest.mark.parametrize("estimator", sorted(_TAP_PATH_CALLS))
def test_no_dtmb_trial_inverts_a_cfr(monkeypatch, estimator):
    calls = dict.fromkeys(["combiner.cir_from_cfr", "combiner.cfr", "harness.cfr"], 0)

    def count(module, attr):
        real = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[f"{module.__name__.rsplit('.', 1)[1]}.{attr}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    count(tdsofdm.combiner, "cir_from_cfr")
    count(tdsofdm.combiner, "cfr")
    count(tdsofdm.harness, "cfr")
    rows = run(resolve_config({"preset": "dtmb", "estimator": estimator, "trials": 1, "snr_db": "10"}))
    assert np.isfinite([r.mse_empirical for r in rows]).all()
    assert tuple(calls.values()) == _TAP_PATH_CALLS[estimator]


@pytest.mark.parametrize("block_len", [5, 2])
def test_wiener2x1d_solves_every_chunk(monkeypatch, block_len):
    # record every refine output and the time filters designed inside it
    refines = []
    build, refine = tdsofdm.combiner.time_wiener, tdsofdm.combiner._refine

    def recording_build(*args, **kwargs):
        smoother, resid = build(*args, **kwargs)
        refines[-1][1].append(resid)
        return smoother, resid

    def recording_refine(*args, **kwargs):
        refines.append([None, []])
        refines[-1][0] = refine(*args, **kwargs)
        return refines[-1][0]

    monkeypatch.setattr(tdsofdm.combiner, "time_wiener", recording_build)
    monkeypatch.setattr(tdsofdm.combiner, "_refine", recording_refine)
    cfg = resolve_config(
        {"estimator": "wiener2x1d", "block_len": block_len, "trials": 2, "snr_db": "5,25", "seed": 3}
    )
    rows = run(cfg)
    for r in rows:
        assert np.isfinite([r.mse_empirical, r.eps_analytic, r.ber_uncoded]).all()
    assert len(refines) == 2 * 2 * cfg.iterations
    chunks = cfg.num_symbols // block_len
    for h2, resid in refines:
        assert len(resid) == chunks
        assert h2.mask.reshape(chunks, -1).all(axis=1).all()
        assert h2.eps == np.mean(resid)


def test_wiener2x1d_with_one_block_chunks_runs():
    # every block is a pilot, so even a one-block chunk has its time sample
    cfg = resolve_config({"estimator": "wiener2x1d", "block_len": 1, "trials": 1, "snr_db": "20"})
    rows = run(cfg)
    assert [r.iteration for r in rows] == [0, 1, 2]
    for r in rows:
        assert np.isfinite([r.mse_empirical, r.eps_analytic, r.ber_uncoded]).all()
    assert rows[-1].mse_empirical < rows[0].mse_empirical


QAM_CASES = [(e, c) for e in ("wiener1d", "wiener2x1d") for c in ("qam16", "qam64")]


@pytest.fixture(scope="module")
def qam_sweeps():
    """Desk sweeps at 10 and 25 dB for every Wiener estimator and 16/64-QAM."""
    base = {"trials": 3, "snr_db": "10,25", "seed": 1}
    return {
        (e, c): run(resolve_config({**base, "estimator": e, "constellation": c}))
        for e, c in QAM_CASES
    }


@pytest.mark.parametrize("estimator,constellation", QAM_CASES)
def test_qam_sweep_end_to_end(qam_sweeps, estimator, constellation):
    rows = qam_sweeps[estimator, constellation]
    assert [(r.snr_db, r.iteration) for r in rows] == [(s, i) for s in (10.0, 25.0) for i in range(3)]
    for r in rows:
        assert np.isfinite([r.mse_empirical, r.eps_analytic, r.ber_uncoded]).all()
        assert r.mse_empirical >= 0.0 and r.eps_analytic >= 0.0
        assert 0.0 <= r.ber_uncoded <= 1.0
    final = {r.snr_db: r for r in rows if r.iteration == 2}
    first = {r.snr_db: r for r in rows if r.iteration == 0}
    assert final[25.0].ber_uncoded < final[10.0].ber_uncoded
    assert final[25.0].mse_empirical < first[25.0].mse_empirical


@pytest.mark.xfail(
    strict=True,
    reason="at 10 dB the data-aided loop ends worse than PN alone: final against iteration-0 "
    "MSE is 0.022 vs 0.0095 (wiener1d/qam16), 0.030 vs 0.0090 (wiener1d/qam64), 0.028 vs "
    "0.0095 (wiener2x1d/qam16) and 0.042 vs 0.0090 (wiener2x1d/qam64), with eps 8-48x "
    "below the measured MSE, so the combiner trusts the worse arm",
)
@pytest.mark.parametrize("estimator,constellation", QAM_CASES)
def test_qam_data_aided_loop_beats_pn_at_10db(qam_sweeps, estimator, constellation):
    rows = [r for r in qam_sweeps[estimator, constellation] if r.snr_db == 10.0]
    assert rows[-1].mse_empirical < rows[0].mse_empirical


# desk at 120 km/h and 5 GHz: fd*tb = 0.3125, past the 1/4 of the time
# sampling rule, so the channel changes between a block and the guard
# folded onto it, a term the error model lacks
_FAST = {"fc_hz": 5e9, "velocity_kmh": 120, "trials": 20, "snr_db": "30"}


@pytest.mark.parametrize(
    "estimator",
    [
        pytest.param("ma1d", marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="at fd*tb = 0.3125 the final MSE is 4.80e-3 against 1.37e-3 at iteration 0; "
            "the per-trial rise is 3.4e-3 with a standard error of 0.7e-3 over the 20 trials, "
            "and eps reads 1.53e-4",
        )),
        pytest.param("wiener1d", marks=pytest.mark.xfail(
            strict=True,
            raises=AssertionError,
            reason="at fd*tb = 0.3125 the final MSE is 2.34e-3 against 1.37e-3 at iteration 0; "
            "the per-trial rise is 9.6e-4 with a standard error of 6.8e-4 over the 20 trials, "
            "and eps reads 1.35e-5",
        )),
    ],
)
def test_loop_beats_pn_when_the_channel_moves_within_a_frame(estimator):
    rows = run(resolve_config({**_FAST, "estimator": estimator}))
    assert rows[-1].mse_empirical <= rows[0].mse_empirical


def test_ma2d_eps_tracks_the_mse_when_the_channel_moves_within_a_frame():
    # eps holds the bias of the block average on the fading, so the
    # combiner no longer trusts an arm 1e4 times worse than it reads
    final = run(resolve_config({**_FAST, "estimator": "ma2d"}))[-1]
    assert 0.5 <= final.eps_analytic / final.mse_empirical <= 2.0


# 160 trials: the final eps/MSE nearest the band, about 0.58 for ma2d/16-QAM
# at 10 dB, has a standard error near 0.035 at 40 trials, so 160 put the
# band's edge more than 4 standard errors away
_MA_CALIBRATION = {"snr_db": "10,20,30", "trials": 160, "seed": 5}


@pytest.mark.parametrize("constellation", ["qpsk", "qam16"])
@pytest.mark.parametrize("estimator", ["ma1d", "ma2d"])
def test_moving_average_eps_tracks_the_mse(estimator, constellation):
    cfg = resolve_config({**_MA_CALIBRATION, "estimator": estimator, "constellation": constellation})
    ratios = {r.snr_db: r.eps_analytic / r.mse_empirical for r in run(cfg) if r.iteration == cfg.iterations}
    assert list(ratios) == [10.0, 20.0, 30.0]
    assert all(0.5 <= v <= 2.0 for v in ratios.values()), ratios


def test_dtmb_wiener2x1d_loop_beats_pn_at_300_kmh():
    overrides = {"preset": "dtmb", "estimator": "wiener2x1d", "velocity_kmh": 300}
    rows = run(resolve_config({**overrides, "snr_db": "10", "trials": 3}))
    assert rows[-1].mse_empirical <= rows[0].mse_empirical


def test_desk_wiener2x1d_final_mse_falls_from_20_to_30_db():
    # the refined arm is noise-bound, so 10 dB more SNR cuts the final MSE
    # about tenfold: 0.10-0.15 of its 20 dB value over seeds 1-10 at 8
    # trials, so 0.3 leaves a 2x margin
    cfg = resolve_config({"estimator": "wiener2x1d", "snr_db": "20,30", "trials": 8, "seed": 5})
    final = {r.snr_db: r.mse_empirical for r in run(cfg) if r.iteration == cfg.iterations}
    assert final[30.0] < 0.3 * final[20.0], final


def test_dtmb_wiener2x1d_runs_at_150_db():
    # the input variance of the time design falls near 1e-16 here, under
    # the rounding of dtmb's Jakes block matrix, and Cholesky once raised
    cfg = resolve_config({"preset": "dtmb", "estimator": "wiener2x1d", "snr_db": "150", "trials": 1})
    rows = run(cfg)
    assert [r.iteration for r in rows] == [0, 1, 2]
    for r in rows:
        assert np.isfinite([r.mse_empirical, r.eps_analytic, r.ber_uncoded]).all()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="dtmb wiener1d at 80 dB ends 230x above its iteration-0 MSE over 4 trials; the "
    "ratio reads 0.30 / 2.4 / 230 / 2.3e4 at 50 / 60 / 80 / 100 dB, and desk stays below 1 "
    "up to 100 dB",
)
def test_dtmb_wiener1d_loop_does_not_lose_at_80_db():
    cfg = resolve_config({"preset": "dtmb", "estimator": "wiener1d", "snr_db": "80", "trials": 4, "seed": 5})
    rows = run(cfg)
    assert rows[-1].mse_empirical <= rows[0].mse_empirical


# desk with a 10 dB echo at 20 us, where the uniform prior spreads its
# power over the empty delays between the TU6 cluster and the echo
_SFN20 = {"sfn_delay_us": 20, "snr_db": "30", "trials": 20, "seed": 1}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="on desk SFN 20 us at 30 dB the uniform prior's final MSE is 58-217x the profile "
    "prior's for wiener1d and 95-585x for wiener2x1d over seeds 1-8, with eps/MSE at most "
    "0.042",
)
@pytest.mark.parametrize("estimator", ["wiener1d", "wiener2x1d"])
def test_sfn_uniform_prior_comes_within_3x_of_the_profile_prior(estimator):
    final = {
        mode: run(resolve_config({**_SFN20, "estimator": estimator, "corr_mode": mode}))[-1].mse_empirical
        for mode in ("uniform", "profile")
    }
    assert final["uniform"] <= 3.0 * final["profile"], final


# dtmb with an equal-power echo at 30 us (227 samples).  PN945, an order-9
# sequence with a 434-chip extension, holds it in its guard; PN420's 165-chip
# extension does not
_ECHO_0DB = {"preset": "dtmb", "sfn_delay_us": 30, "sfn_atten_db": 0, "snr_db": "30", "trials": 4}


@pytest.mark.parametrize("corr_mode", ["uniform", "profile"])
@pytest.mark.parametrize("estimator", ["wiener1d", "wiener2x1d"])
def test_dtmb_pn945_wiener_loop_beats_pn_with_a_0db_echo(estimator, corr_mode):
    # final MSE 3.6e-6 to 1.0e-4 against 5.4e-4 for the PN stage over
    # seeds 4242 and 77
    overrides = {**_ECHO_0DB, "gi_len": 945, "pn_order": 9, "seed": 4242}
    rows = run(resolve_config({**overrides, "estimator": estimator, "corr_mode": corr_mode}))
    assert rows[-1].mse_empirical < rows[0].mse_empirical


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="on dtmb PN420 with a 0 dB echo at 30 us the uniform prior ends at 5.2e-2 to 9.6e-2 "
    "at 30 dB over seeds 1234 and 77, with eps/MSE 0.00; the echo lies past the guard's "
    "extension and the channel is longer than the 255-chip core",
)
@pytest.mark.parametrize("estimator", ["wiener1d", "wiener2x1d"])
def test_dtmb_pn420_uniform_prior_loop_reaches_1e_3_with_a_0db_echo(estimator):
    rows = run(resolve_config({**_ECHO_0DB, "estimator": estimator, "seed": 77}))
    assert rows[-1].mse_empirical <= 1e-3


def test_a_dtmb_sweep_does_not_import_numpy_ma():
    # numpy.ma costs a fresh process 11-12 ms and 1.07 MiB to import, and
    # np.unique imports it on first use; a fresh interpreter, because this
    # one may have imported it already
    script = (
        "import sys\n"
        "from tdsofdm import resolve_config, run\n"
        "run(resolve_config({'preset': 'dtmb', 'estimator': 'wiener1d', 'snr_db': '10,30', 'trials': 1}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300, check=True
    )
    assert done.stdout.split() == ["False"], done.stdout


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="with pn_power_boost=0.01, desk wiener1d/qpsk at 20 dB ends at eps 1.34e-4 against "
    "MSE 1.88e-2 over 4 trials, an eps/MSE of 0.0071; each trial's final MSE is at most 0.20 "
    "of its iteration-0 MSE, so the loop helps but its eps does not track it",
)
def test_weak_pn_guard_eps_tracks_the_mse():
    cfg = resolve_config(
        {"estimator": "wiener1d", "snr_db": "20", "pn_power_boost": 0.01, "trials": 4}
    )
    final = run(cfg)[-1]
    assert 0.5 <= final.eps_analytic / final.mse_empirical <= 2.0


def test_pn_estimator_reports_one_stage():
    cfg = resolve_config({"estimator": "pn", "trials": 2, "snr_db": "5,15"})
    rows = run(cfg)
    assert len(rows) == 2
    assert all(r.iteration == 0 and r.estimator == "pn" for r in rows)


def test_genie_floor_is_error_free_at_high_snr():
    rows = run(resolve_config({"trials": 20, "snr_db": "60", "estimator": "genie"}))
    assert len(rows) == 1
    assert rows[0].estimator == "genie"
    assert rows[0].ber_uncoded == 0.0
    assert rows[0].mse_empirical == 0.0


def test_genie_lower_bounds_the_estimator():
    base = {"trials": 30, "snr_db": "10,20", "seed": 11}
    rows_est = run(resolve_config(base))
    rows_gen = run(resolve_config({**base, "estimator": "genie"}))
    for snr in (10.0, 20.0):
        ber_est = [r.ber_uncoded for r in rows_est if r.snr_db == snr][-1]
        ber_gen = [r.ber_uncoded for r in rows_gen if r.snr_db == snr][0]
        assert ber_gen <= ber_est


def test_error_model_tracks_measured_mse():
    cfg = resolve_config({"estimator": "pn", "trials": 200, "snr_db": "10,20"})
    rows = run(cfg)
    for r in rows:
        assert 0.75 < r.eps_analytic / r.mse_empirical < 1.25


def test_csv_layout(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = resolve_config({"trials": 2, "snr_db": "10,20", "out": str(out)})
    rows = run(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[1] == "wiener1d"
    float(fields[3]), float(fields[4]), float(fields[5])


def test_sidecar_echoes_the_resolved_config(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = resolve_config({"trials": 2, "snr_db": "10", "out": str(out)})
    run(cfg)
    assert sidecar_path(str(out)) == str(tmp_path / "sweep.json")
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["version"] == tdsofdm.__version__
    assert doc["seed"] == cfg.seed
    assert doc["wall_time_s"] > 0
    assert doc["config"]["cir_len"] == 6
    assert doc["config"]["snr_db"] == [10.0]
    assert doc["config"]["estimator"] == "wiener1d"


def test_csv_is_reproducible_byte_for_byte(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(resolve_config({"trials": 2, "snr_db": "10", "out": str(a)}))
    run(resolve_config({"trials": 2, "snr_db": "10", "out": str(b)}))
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_roundtrip(tmp_path):
    cfg = resolve_config({"trials": 1, "snr_db": "25"})
    rows = run(cfg)
    path = tmp_path / "direct.csv"
    write_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    got = lines[1].split(",")
    assert float(got[3]) == pytest.approx(rows[0].mse_empirical, rel=1e-9)


# Median minor page faults per steady-state trial allowed by the test
# below.  Eleven fresh processes per configuration made 1342-4038
# (dtmb_wiener1d_qpsk) and 326-687 (desk_wiener2x1d_qam64) without the
# sweep's allocator policy.  With it, 0 on dtmb, and 0 to 1 on desk, whose
# median of 18 trials falls between the zero-fault trials and those where
# the heap of accumulated results grows by a page or a few.
STEADY_STATE_FAULTS = 5


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
@pytest.mark.parametrize("name", ["desk_wiener2x1d_qam64", "dtmb_wiener1d_qpsk"])
def test_steady_state_trials_do_not_refault(name):
    # a fresh interpreter, because arrays that earlier tests freed raise
    # glibc's dynamic mmap threshold in this one
    script = Path(__file__).with_name("fault_count.py")
    done = subprocess.run(
        [sys.executable, str(script), name], capture_output=True, text=True, timeout=300, check=True
    )
    faults = float(re.search(r": (\S+) faults/trial", done.stdout).group(1))
    assert faults <= STEADY_STATE_FAULTS, done.stdout
