"""Command-line interface: subcommands, config files, exit codes."""

import pytest

from tdsofdm import CSV_HEADER, ConfigError, resolve_config, run
from tdsofdm.cli import _FLAGS, main


def test_sweep_prints_csv_to_stdout(capsys):
    rc = main(["sweep", "--trials", "2", "--snr", "10", "--seed", "7"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4                      # three receiver stages
    assert lines[1].startswith("10,wiener1d,0,")


def test_sweep_writes_files(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--trials", "2", "--snr", "10", "--out", str(out)])
    assert rc == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    assert out.exists()
    assert (tmp_path / "sweep.json").exists()


def test_config_file_with_cli_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# sweep setup\n"
        "\n"
        "estimator = pn\n"
        "trials = 6\n"
        "snr_db = 10,20\n"
    )
    rc = main(["sweep", "--config", str(cfgfile), "--trials", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2                        # pn has one stage per SNR
    assert all(r[1] == "pn" for r in rows)
    assert all(r[6] == "2" for r in rows)        # flag beats file


def test_bad_config_file_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("bandwidth = 8\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_setting_m_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text("M = 5\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 2
    assert "unknown config key 'M'" in capsys.readouterr().err


def test_config_file_setting_design_len_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "design.cfg"
    cfgfile.write_text("design_len = 9\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 2
    assert "unknown config key 'design_len'" in capsys.readouterr().err


def test_malformed_config_line(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("trials\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_missing_config_file(capsys):
    rc = main(["sweep", "--config", "/nonexistent/path.cfg"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_sfn_echo_past_the_fft_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "sfn.cfg"
    cfgfile.write_text("sfn_delay_us = 500\ntrials = 1\nsnr_db = 20\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 2
    assert "exceeds fft_size" in capsys.readouterr().err


@pytest.mark.parametrize("flag, key", [(flag, key) for flag, key, _, _ in _FLAGS])
def test_every_flag_names_a_config_key(flag, key):
    # whatever the value, the resolver must know the key the flag sets
    try:
        resolve_config({key: "?"})
    except ConfigError as exc:
        assert "unknown config key" not in str(exc)


def test_non_finite_snr_exits_2(capsys):
    rc = main(["sweep", "--snr", "10,nan", "--trials", "1"])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err


def test_repeated_snr_point_exits_2(capsys):
    rc = main(["sweep", "--snr", "10,10", "--trials", "1", "--estimator", "pn"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "snr_db" in captured.err and captured.out == ""


def test_unknown_estimator_flag(capsys):
    rc = main(["sweep", "--estimator", "kalman", "--trials", "1", "--snr", "10"])
    assert rc == 2
    assert "estimator" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:channel memory")
def test_unsatisfiable_pilot_spacing_exits_3(tmp_path, capsys):
    # an echo far beyond what the FFT grid can sample fails at run time
    cfgfile = tmp_path / "sfn.cfg"
    cfgfile.write_text("sfn_delay_us = 150\ntrials = 1\nsnr_db = 20\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 3
    assert "constraint error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:channel memory")
def test_frequency_sampling_rule_error_names_its_fixes(tmp_path, capsys):
    # a 130 us echo makes a 139-tap desk channel, past the 128 taps that
    # n_fft / 4 allows; a shorter cir_len cannot help, the rule reads the
    # deployment channel
    cfgfile = tmp_path / "sfn.cfg"
    cfgfile.write_text("sfn_delay_us = 130\n")
    rc = main(["sweep", "--config", str(cfgfile), "--estimator", "wiener1d", "--trials", "1", "--snr", "10"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "frequency sampling rule" in err
    assert "sfn_delay_us" in err and "fft_size" in err
    assert "pilot spacing" not in err and "CIR assumption" not in err


def test_out_in_a_missing_directory_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("tdsofdm.cli.run", no_run)
    out = tmp_path / "missing" / "x.csv"
    rc = main(["sweep", "--trials", "1", "--snr", "10", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "does not exist" in captured.err
    assert captured.out == ""
    with pytest.raises(ConfigError, match="directory of out"):
        resolve_config({"out": str(out)})


def test_config_file_setting_pn_seed_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "pn.cfg"
    cfgfile.write_text("pn_seed = 1\ntrials = 1\nsnr_db = 20\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == 2
    assert "config error: unknown config key 'pn_seed'" in capsys.readouterr().err


@pytest.mark.parametrize("cir_len, code", [(4, 0), (56, 0), (57, 0), (500, 2)])
def test_uniform_prior_wider_than_the_pilot_spacing_exits_3(tmp_path, capsys, cir_len, code):
    # every one of the 512 desk subcarriers is a pilot, so any uniform prior
    # the 63-chip PN core allows is resolved; the core caps cir_len itself
    cfgfile = tmp_path / "prior.cfg"
    cfgfile.write_text(f"cir_len = {cir_len}\ntrials = 1\nsnr_db = 20\n")
    rc = main(["sweep", "--config", str(cfgfile)])
    assert rc == code
    if code == 2:
        assert "cir_len must lie in [1, 63]" in capsys.readouterr().err


def test_trial_subcommand(capsys):
    rc = main(["trial", "--snr", "15", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "preset=desk" in out
    assert "iter" in out
    assert "refined stage" in out
    metric_lines = [l for l in out.splitlines() if l.strip().startswith(("0", "1", "2"))]
    assert len(metric_lines) == 5                # 3 stages + 2 pre-combining


def test_trial_subcommand_matches_first_sweep_trial(capsys):
    rc = main(["trial", "--snr", "15,25", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("iter    mse_empirical    eps_analytic     ber_uncoded") + 1
    got = [line.split()[1:] for line in lines[start : start + 3]]
    _, raw = run(resolve_config({"snr_db": "15,25", "seed": 3, "trials": 1}), keep_trials=True)
    want = [
        [f"{raw[15.0][key][0, it]:.7e}" for key in ("mse", "eps", "ber")] for it in range(3)
    ]
    assert got == want


def test_trial_subcommand_ignores_out(tmp_path, capsys):
    rc = main(["trial", "--snr", "15", "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert "iter" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_selftest_is_not_a_subcommand(capsys):
    # the test suite is the one self-check
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err
