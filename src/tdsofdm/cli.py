"""Command-line front end: sweep and single-trial inspection."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import ConfigError, csv_text, resolve_config, run
from .refiners import ConstraintError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSTRAINT = 3


def _read_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments are ignored."""
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


# (flag, config key, type, help) of every flag that sets one config key
_FLAGS = (
    ("--preset", "preset", str, "parameter preset: desk or dtmb"),
    ("--estimator", "estimator", str, "genie, pn, ma1d, ma2d, wiener1d or wiener2x1d"),
    ("--snr", "snr_db", str, "SNR grid in dB, comma separated"),
    ("--trials", "trials", int, "Monte-Carlo realizations per SNR point"),
    ("--iterations", "iterations", int, "estimate-rebuild-combine rounds"),
    ("--seed", "seed", int, "master seed for all randomness"),
    ("--out", "out", str, "CSV output path (JSON sidecar goes next to it)"),
    ("--threads", "threads", int, "worker threads across (snr, trial) shards"),
)


def _gather_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.config:
        overrides.update(_read_config_file(args.config))
    # command-line flags win over file values
    for flag, key, _, _ in _FLAGS:
        val = getattr(args, flag[2:])
        if val is not None:
            overrides[key] = val
    return overrides


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    for flag, _, kind, text in _FLAGS:
        p.add_argument(flag, type=kind, help=text)


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = resolve_config(_gather_overrides(args))
    rows = run(cfg)
    if not cfg.out:
        print(csv_text(rows), end="")
    else:
        print(f"wrote {len(rows)} rows to {cfg.out}")
    return EXIT_OK


def _cmd_trial(args: argparse.Namespace) -> int:
    # trial 0 of the first SNR point of a sweep; --out is ignored
    cfg = resolve_config({**_gather_overrides(args), "trials": 1, "out": None})
    snr = cfg.snr_db[0]
    _, raw = run(replace(cfg, snr_db=cfg.snr_db[:1]), keep_trials=True)
    res = {key: stack[0] for key, stack in raw[snr].items()}

    print(f"preset={cfg.preset} channel={cfg.channel} estimator={cfg.estimator} snr_db={snr:g}")
    print(f"fft_size={cfg.fft_size} gi_len={cfg.gi_len} cir_len={cfg.cir_len} seed={cfg.seed}")
    print("iter    mse_empirical    eps_analytic     ber_uncoded")
    for it in range(res["mse"].size):
        print(
            f"{it:4d}    {res['mse'][it]:.7e}    {res['eps'][it]:.7e}    {res['ber'][it]:.7e}"
        )
    if res["h2_mse"].size:
        print("refined stage (before combining):")
        for it in range(res["h2_mse"].size):
            print(f"{it + 1:4d}    {res['h2_mse'][it]:.7e}    {res['h2_eps'][it]:.7e}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdsofdm",
        description="TDS-OFDM link simulator with PN-based and data-aided channel estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over the SNR grid")
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_trial = sub.add_parser("trial", help="run one trial and dump per-iteration metrics")
    _add_common_flags(p_trial)
    p_trial.set_defaults(handler=_cmd_trial)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstraintError as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
