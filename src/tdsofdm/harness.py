"""Monte-Carlo experiment runner: presets, config resolution, sweeps, output."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import numpy.random  # noqa: F401  (loaded eagerly, see sequences)

from . import __version__
from .channel import (
    MAX_BLOCKS,
    PowerDelayProfile,
    doppler_frequency,
    preset_profile,
    realize,
    sfn_profile,
)
# every estimate is its taps; perfbench/spans.py still wraps this binding
from .channel import cfr  # noqa: F401
from .combiner import ESTIMATORS, check_sampling_rules, iterate
from .modulation import CONSTELLATIONS, constellation, map_bits
# iterate slices the grids; perfbench/spans.py still wraps this binding
from .modulation import hard_decisions  # noqa: F401
from .phy import assemble, ofdm_modulate, propagate
from .pn_estimator import CfrEstimate
from .sequences import PRIMITIVE_POLYS, build_gi, generate_mseq

CSV_HEADER = "snr_db,estimator,iteration,mse_empirical,eps_analytic,ber_uncoded,trials"


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved simulation setup; every field has a concrete value.

    The first five fields come from the preset; every other field carries
    its default, and its annotation picks the parser for text values.  A
    value of 0 means "auto" for m_f (9, or 3 with an SFN echo) and cir_len
    (the channel length, capped by the PN core).
    The estimation loop, combiner.iterate, reads the resolved config
    directly.  cir_len is its LS and guard-removal window and the support
    of the uniform prior of every refiner.  m_t and m_f are the
    moving-average windows: ma1d averages each block over m_f subcarriers,
    centered and taken circularly, an even m_f rounded up to the next odd,
    and ma2d then averages m_t blocks, m_t // 2 back and (m_t - 1) // 2
    forward, truncated at the frame's edges.  wiener1d and wiener2x1d read
    neither.
    """

    preset: str
    fft_size: int
    gi_len: int
    sample_rate_hz: float
    pn_order: int
    pn_power_boost: float = 2.0
    constellation: str = "qpsk"
    channel: str = "tu6"
    sfn_delay_us: float = 0.0
    sfn_atten_db: float = 10.0
    velocity_kmh: float = 30.0
    fc_hz: float = 500e6
    estimator: str = "wiener1d"
    m_t: int = 2
    m_f: int = 0
    iterations: int = 2
    cir_len: int = 0
    corr_mode: str = "uniform"
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    trials: int = 500
    num_symbols: int = 10
    seed: int = 1234
    threads: int = 1
    out: str | None = None

    @property
    def fd_hz(self) -> float:
        return doppler_frequency(self.velocity_kmh, self.fc_hz)

    @property
    def tb_s(self) -> float:
        return (self.fft_size + self.gi_len) / self.sample_rate_hz

    def profile(self) -> PowerDelayProfile:
        base = preset_profile(self.channel, self.sample_rate_hz)
        if self.sfn_delay_us > 0:
            return sfn_profile(
                base, self.sfn_delay_us * 1e-6, self.sfn_atten_db, self.sample_rate_hz
            )
        return base


@dataclass(frozen=True)
class ResultRow:
    """One aggregated sweep point: fixed SNR, estimator, and iteration depth."""

    snr_db: float
    estimator: str
    iteration: int
    mse_empirical: float
    eps_analytic: float
    ber_uncoded: float
    trials: int


_PRESETS = {
    "desk": dict(fft_size=512, gi_len=64, sample_rate_hz=1.024e6, pn_order=6),
    "dtmb": dict(fft_size=3780, gi_len=420, sample_rate_hz=7.56e6, pn_order=8),
}


def _parse_int(v) -> int:
    if isinstance(v, str):
        return int(v, 0)
    n = int(v)
    if n != v:
        raise ValueError("not an integer")
    return n


def _parse_float(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _parse_snr(v) -> tuple:
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(_parse_float(x) for x in v)
    if isinstance(v, (int, float)):
        return (_parse_float(v),)
    parts = [p for p in str(v).replace(" ", "").split(",") if p]
    if not parts:
        raise ValueError("empty SNR grid")
    return tuple(_parse_float(p) for p in parts)


# text values from config files or CLI flags are parsed by their field's type
_PARSERS = {"int": _parse_int, "float": _parse_float, "str": str, "tuple[float, ...]": _parse_snr}

# config key -> (field, parser); M_t and M_f keep their capitalized spelling
_KEYS = {
    {"m_t": "M_t", "m_f": "M_f"}.get(f.name, f.name):
        (f.name, _PARSERS[f.type.removesuffix(" | None")])
    for f in fields(SimConfig)
}


def resolve_config(overrides: dict | None = None) -> SimConfig:
    """Apply overrides on top of the preset defaults and validate the result.

    Accepts raw strings (config files, CLI) or typed values.  Keys use the
    documented config-file names; M_t and M_f keep their capitalized
    spelling.  A bad value raises ConfigError, a channel that the Wiener
    refiner cannot sample ConstraintError.
    """
    overrides = dict(overrides or {})
    preset = str(overrides.pop("preset", "desk"))
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(_PRESETS)}")

    values = dict(_PRESETS[preset])
    for key, raw in overrides.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if raw is None:
            continue
        name, parse = _KEYS[key]
        try:
            values[name] = parse(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    cfg = SimConfig(preset=preset, **values)

    # contextual defaults: the frequency window shrinks when an SFN echo is present
    window = 9 if cfg.sfn_delay_us <= 0 else 3
    cfg = replace(cfg, m_f=cfg.m_f or window)

    if cfg.pn_order not in PRIMITIVE_POLYS:
        orders = ", ".join(map(str, sorted(PRIMITIVE_POLYS)))
        raise ConfigError(f"pn_order must be one of {orders}")
    n_pn = (1 << cfg.pn_order) - 1
    # rows are labelled by %g and raw trials keyed by the point
    labels = [f"{x:g}" for x in cfg.snr_db]
    checks = [
        (cfg.estimator in ESTIMATORS, f"unknown estimator {cfg.estimator!r}"),
        (cfg.constellation in CONSTELLATIONS, f"unknown constellation {cfg.constellation!r}"),
        (cfg.channel in ("flat", "two_tap", "tu6"), f"unknown channel {cfg.channel!r}"),
        (cfg.corr_mode in ("uniform", "profile"), f"unknown corr_mode {cfg.corr_mode!r}"),
        (cfg.fft_size > 0, "fft_size must be positive"),
        (0 <= cfg.gi_len < cfg.fft_size, "need 0 <= gi_len < fft_size"),
        (n_pn <= cfg.gi_len, f"guard {cfg.gi_len} cannot hold a {n_pn}-chip core"),
        (0 <= cfg.cir_len <= n_pn, f"cir_len must lie in [1, {n_pn}] (0 = auto)"),
        (cfg.sample_rate_hz > 0, "sample_rate_hz must be positive"),
        (cfg.pn_power_boost > 0, "pn_power_boost must be positive"),
        (cfg.iterations >= 0, "iterations must be nonnegative"),
        (cfg.trials >= 1, "trials must be positive"),
        # a frame draws num_symbols + 1 blocks of channel
        (1 <= cfg.num_symbols < MAX_BLOCKS, f"num_symbols must lie in [1, {MAX_BLOCKS - 1}]"),
        (len(cfg.snr_db) >= 1, "snr_db grid is empty"),
        (len(set(labels)) == len(labels), f"snr_db points {','.join(labels)} repeat a label"),
        (cfg.m_t >= 1 and cfg.m_f >= 1, "window lengths must be positive"),
        (cfg.threads >= 1, "threads must be positive"),
        (cfg.velocity_kmh >= 0 and cfg.fc_hz > 0, "bad doppler parameters"),
        (cfg.sfn_delay_us >= 0, "sfn_delay_us must be nonnegative"),
        # a missing directory would fail the write only after the sweep
        (os.path.isdir(os.path.dirname(cfg.out or "") or "."), f"directory of out {cfg.out!r} does not exist"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)
    profile = cfg.profile()
    length = profile.length
    if length > cfg.fft_size:
        raise ConfigError(f"channel length {length} exceeds fft_size {cfg.fft_size}; shorten sfn_delay_us")
    if cfg.cir_len == 0:
        # dimension the receiver's CIR window to the deployment's maximum
        # excess delay, capped by what the core can resolve
        cfg = replace(cfg, cir_len=min(length, n_pn))
    check_sampling_rules(cfg, profile, cfg.fft_size)
    return cfg


def run_trial(cfg: SimConfig, gi, profile: PowerDelayProfile, snr_db: float, rng: np.random.Generator) -> dict:
    """One Monte-Carlo trial at one SNR: returns per-iteration metrics.

    The draw order (channel, bits, noise) is fixed, so every estimator sees
    identical realizations for a given seed and trial index; the channel
    takes 2 k (s + 1) normals for its k taps.  The loop
    scores its estimates against the drawn taps, and the genie starts from
    them as its initial estimate, removing the guard with cir_len of them
    like every estimator; no CFR is formed here.
    """
    c = constellation(cfg.constellation)
    s, n = cfg.num_symbols, cfg.fft_size
    noise_var = c.eta_alpha * 10.0 ** (-snr_db / 10.0)

    taps = realize(profile, cfg.fd_hz, cfg.tb_s, s + 1, rng)
    bits = rng.integers(0, 2, s * n * c.bits_per_symbol, dtype=np.int64).astype(np.uint8)
    # the mapped symbols and the sent frame die once the frame is received
    rx = propagate(
        assemble(ofdm_modulate(map_bits(bits, c).reshape(s, n)), gi), gi.nu, taps, noise_var, rng
    )

    initial = None
    if cfg.estimator == "genie":
        initial = CfrEstimate(eps=0.0, taps=taps[:s])
    _, _, diag = iterate(
        rx, gi, cfg, profile, noise_var, truth_taps=taps[:s], initial=initial, truth_bits=bits
    )
    return {key: np.array(v) for key, v in asdict(diag).items()}


# glibc mallopt parameters and the largest mmap threshold glibc accepts
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_arrays() -> None:
    """Make glibc keep freed frame-sized arrays in the heap for reuse."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def run(cfg: SimConfig, keep_trials: bool = False):
    """Sweep the SNR grid; returns aggregated rows (and raw trials on request).

    Work is sharded per (snr, trial).  Shard (si, ti) draws from a seed
    sequence spawned from the configured seed and those two indices, and
    shards are reduced in index order, so results do not depend on the
    thread count or the schedule.

    On glibc the sweep sets its process's allocator policy: arrays up to
    32 MiB come from the heap instead of fresh mmaps, and up to 64 MiB of
    freed heap stays mapped.  Every trial allocates and frees the same
    frame-sized arrays, which glibc would otherwise hand back to the kernel
    and page-fault in again on the next trial.
    """
    profile = cfg.profile()
    gi = build_gi(generate_mseq(cfg.pn_order), cfg.gi_len, cfg.pn_power_boost)
    _keep_freed_arrays()

    def work(item):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=item))
        return run_trial(cfg, gi, profile, cfg.snr_db[item[0]], rng)

    t0 = time.monotonic()
    n_tr = cfg.trials
    items = [(si, ti) for si in range(len(cfg.snr_db)) for ti in range(n_tr)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(work, items))
    else:
        results = list(map(work, items))
    elapsed = time.monotonic() - t0

    rows = []
    raw = {}
    for si, snr in enumerate(cfg.snr_db):
        shard = results[si * n_tr : (si + 1) * n_tr]
        stack = {key: np.stack([r[key] for r in shard]) for key in shard[0]}
        raw[float(snr)] = stack
        for it in range(stack["mse"].shape[1]):
            rows.append(
                ResultRow(
                    snr_db=float(snr),
                    estimator=cfg.estimator,
                    iteration=it,
                    mse_empirical=float(stack["mse"][:, it].mean()),
                    eps_analytic=float(stack["eps"][:, it].mean()),
                    ber_uncoded=float(stack["ber"][:, it].mean()),
                    trials=n_tr,
                )
            )

    if cfg.out:
        write_csv(rows, cfg.out)
        write_sidecar(cfg, elapsed, cfg.out)
    if keep_trials:
        return rows, raw
    return rows


def csv_text(rows) -> str:
    """Fixed-layout CSV.  It holds no timing, so repeated runs with identical
    configs are byte-identical; measured timing lives in the JSON sidecar."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.snr_db:g},{r.estimator},{r.iteration},"
            f"{r.mse_empirical:.10e},{r.eps_analytic:.10e},{r.ber_uncoded:.10e},"
            f"{r.trials}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows, path: str) -> None:
    """Write csv_text(rows) to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(rows))


def sidecar_path(out: str) -> str:
    base, _ = os.path.splitext(out)
    return base + ".json"


def write_sidecar(cfg: SimConfig, elapsed_s: float, out: str) -> None:
    """Echo the fully resolved config next to the CSV, with measured timing."""
    doc = {
        "version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
        "seed": cfg.seed,
        "wall_time_s": elapsed_s,
    }
    with open(sidecar_path(out), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
