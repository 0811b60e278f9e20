"""Config resolution, Monte-Carlo sweeps, and result serialization."""

import json
import warnings
from dataclasses import fields

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
    assert (cfg.m, cfg.m_t, cfg.m_f) == (9, 2, 9)
    assert cfg.cir_len == 6                      # tu6 at this rate
    assert cfg.trials == 500
    assert cfg.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    assert cfg.block_len == cfg.num_symbols == 10
    assert cfg.estimator == "wiener1d"
    assert cfg.constellation == "qpsk"
    assert cfg.corr_mode == "uniform"


def test_sfn_echo_shrinks_windows_and_extends_cir():
    cfg = resolve_config({"sfn_delay_us": 23.28})
    assert (cfg.m, cfg.m_f) == (3, 3)
    assert cfg.cir_len == 30
    # explicit windows are kept
    cfg2 = resolve_config({"sfn_delay_us": 23.28, "M": 7})
    assert cfg2.m == 7 and cfg2.m_f == 3


def test_wide_preset_resolves_long_cir():
    cfg = resolve_config({"preset": "dtmb"})
    assert (cfg.fft_size, cfg.gi_len, cfg.pn_order) == (3780, 420, 8)
    assert cfg.cir_len == 39


def test_config_rejections():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config({"bandwidth": 8})
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
    cfg = resolve_config({"pn_poly": "0x43", "snr_db": "0,5, 10", "trials": "3"})
    assert cfg.pn_poly == 0x43
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


def test_whole_floats_still_parse_as_ints():
    cfg = resolve_config({"trials": 3.0, "M": np.int64(5)})
    assert (cfg.trials, cfg.m) == (3, 5)
    assert type(cfg.trials) is int and type(cfg.m) is int


# one valid typed value per config key; each key is its SimConfig field's
# name, with M, M_t and M_f capitalized
_TYPED = {
    "preset": "dtmb",
    "fft_size": 1024,
    "gi_len": 128,
    "sample_rate_hz": 2.048e6,
    "pn_order": 5,
    "pn_poly": 0x43,
    "pn_seed": 5,
    "pn_power_boost": 1.5,
    "constellation": "qam16",
    "channel": "two_tap",
    "sfn_delay_us": 20.0,
    "sfn_atten_db": 3.0,
    "velocity_kmh": 120.0,
    "fc_hz": 5e9,
    "estimator": "ma2d",
    "M": 7,
    "M_t": 3,
    "M_f": 5,
    "block_len": 5,
    "iterations": 1,
    "cir_len": 4,
    "design_len": 9,
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


def test_guard_builder_silences_only_the_guard_extension_warning(monkeypatch):
    def noisy_build_gi(*args, **kwargs):
        warnings.warn("guard extension 3 is shorter than the channel memory 5")
        warnings.warn("unrelated trouble")
        return "gi"

    monkeypatch.setattr(tdsofdm.harness, "build_gi", noisy_build_gi)
    cfg = resolve_config()
    with pytest.warns(UserWarning) as caught:
        assert tdsofdm.harness.guard_interval(cfg, cfg.profile()) == "gi"
    assert [str(w.message) for w in caught] == ["unrelated trouble"]


def test_sweep_is_deterministic():
    cfg = resolve_config({"trials": 2, "snr_db": "10", "seed": 99})
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


@pytest.mark.parametrize("block_len", [5, 2])
def test_wiener2x1d_solves_every_chunk(monkeypatch, block_len):
    # record every refine output and the time filters designed inside it
    refines = []
    build, refine = tdsofdm.combiner.build_wiener, tdsofdm.combiner._refine

    def recording_build(domain, *args, **kwargs):
        filt = build(domain, *args, **kwargs)
        if domain == "time":
            refines[-1][1].append(filt.residual_mse)
        return filt

    def recording_refine(*args, **kwargs):
        refines.append([None, []])
        refines[-1][0] = refine(*args, **kwargs)
        return refines[-1][0]

    monkeypatch.setattr(tdsofdm.combiner, "build_wiener", recording_build)
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


@pytest.mark.parametrize("block_len, m_t", [(1, 2), (2, 3)])
def test_wiener2x1d_block_shorter_than_its_time_spacing_is_a_constraint_error(block_len, m_t):
    # no block would hold a time pilot, and every chunk would silently keep PN
    cfg = resolve_config(
        {"estimator": "wiener2x1d", "block_len": block_len, "M_t": m_t, "trials": 1, "snr_db": "20"}
    )
    with pytest.raises(ConstraintError, match="block_len"):
        run(cfg)


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
    assert doc["config"]["design_len"] == 0      # 0 = cir_len, echoed as set
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
