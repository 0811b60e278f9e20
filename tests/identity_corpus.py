"""Identity corpus: stored sweep CSVs that a change meant to keep every
number must reproduce.

    python tests/identity_corpus.py --check   # compare with the stored files
    python tests/identity_corpus.py --write   # regenerate tests/data/identity/

--check prints, per configuration, whether csv_text is byte-identical to
the stored file and the SHA-256 of the fresh text; for a configuration that
differs it also prints the largest relative change in each float column.
A file whose rows line up and whose float columns all lie within REL_TOL,
the tolerance of tests/test_identity.py, is labeled "within tolerance";
any other difference is a file that moved.  It exits 1 on any difference.
Write the corpus only from a commit whose numbers are the reference.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "identity"
sys.path.insert(0, str(ROOT / "src"))

from tdsofdm.harness import csv_text, resolve_config, run  # noqa: E402

FLOAT_COLUMNS = ("mse_empirical", "eps_analytic", "ber_uncoded")
# the relative change of a float column that the sweep test forgives
REL_TOL = 1e-10

_DESK = {"preset": "desk", "trials": 2, "snr_db": "5,25", "seed": 3}
_DTMB = {"preset": "dtmb", "trials": 1, "snr_db": "10,30", "seed": 3, "corr_mode": "profile"}

# file stem -> resolve_config overrides
CONFIGS = {
    **{
        f"desk_{est}_{con}": {**_DESK, "estimator": est, "constellation": con}
        for est in ("pn", "genie", "ma1d", "ma2d", "wiener1d", "wiener2x1d")
        for con in ("qpsk", "qam16", "qam64")
    },
    **{f"dtmb_{est}_profile": {**_DTMB, "estimator": est} for est in ("wiener1d", "wiener2x1d")},
    # the dtmb benchmark workload's prior, a gapped SFN profile and a fast
    # channel
    "dtmb_wiener1d_uniform": {**_DTMB, "estimator": "wiener1d", "corr_mode": "uniform"},
    "desk_wiener1d_qam16_sfn20": {
        **_DESK, "estimator": "wiener1d", "constellation": "qam16",
        "sfn_delay_us": 20, "corr_mode": "profile",
    },
    "dtmb_wiener2x1d_sfn30": {**_DTMB, "estimator": "wiener2x1d", "sfn_delay_us": 30},
    "desk_ma2d_qam16_120kmh": {
        **_DESK, "estimator": "ma2d", "constellation": "qam16", "velocity_kmh": 120,
    },
    # smoothing over the whole dtmb grid, an even frequency window and an
    # odd-by-even 2-D window
    "dtmb_ma1d_uniform": {**_DTMB, "estimator": "ma1d", "corr_mode": "uniform"},
    "desk_ma1d_qam16_m4": {**_DESK, "estimator": "ma1d", "constellation": "qam16", "M_f": 4},
    "desk_ma2d_qpsk_mt3_mf4": {
        **_DESK, "estimator": "ma2d", "constellation": "qpsk", "M_t": 3, "M_f": 4,
    },
    # a short genie CIR window; an LS window and prior support (4) shorter
    # than the channel (6); the profile prior at 300 km/h; a deeper loop,
    # and pn, which runs no iterations
    "desk_genie_qpsk_cir3": {**_DESK, "estimator": "genie", "constellation": "qpsk", "cir_len": 3},
    "desk_wiener1d_qpsk_cir4": {
        **_DESK, "estimator": "wiener1d", "constellation": "qpsk", "cir_len": 4,
    },
    "desk_wiener2x1d_qam16_profile_300kmh": {
        **_DESK, "estimator": "wiener2x1d", "constellation": "qam16",
        "corr_mode": "profile", "velocity_kmh": 300,
    },
    "desk_ma1d_qpsk_iter3": {**_DESK, "estimator": "ma1d", "constellation": "qpsk", "iterations": 3},
    "desk_pn_qpsk_iter5": {**_DESK, "estimator": "pn", "constellation": "qpsk", "iterations": 5},
    # the thread pool (its rows equal desk_wiener1d_qpsk's), pn on the
    # PN420 guard, 2-D smoothing across an SFN echo and the genie at speed
    "desk_wiener1d_qpsk_threads2": {
        **_DESK, "estimator": "wiener1d", "constellation": "qpsk", "threads": 2,
    },
    "dtmb_pn": {**_DTMB, "estimator": "pn"},
    "desk_ma2d_qpsk_sfn20": {
        **_DESK, "estimator": "ma2d", "constellation": "qpsk", "sfn_delay_us": 20,
    },
    "desk_genie_qam16_300kmh": {
        **_DESK, "estimator": "genie", "constellation": "qam16", "velocity_kmh": 300,
    },
}


def fresh_text(name: str) -> str:
    """csv_text of one corpus configuration, run now."""
    return csv_text(run(resolve_config(CONFIGS[name])))


def stored_text(name: str) -> str:
    return (DATA / f"{name}.csv").read_text(encoding="utf-8")


def rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def relative_changes(got: str, want: str) -> dict | None:
    """Largest |got - want| / |want| per float column over matching rows;
    None when the rows do not line up (count or a non-float field)."""
    got_rows, want_rows = rows(got), rows(want)
    if len(got_rows) != len(want_rows):
        return None
    worst = dict.fromkeys(FLOAT_COLUMNS, 0.0)
    for g, w in zip(got_rows, want_rows):
        if any(g[k] != w[k] for k in w if k not in FLOAT_COLUMNS):
            return None
        for k in FLOAT_COLUMNS:
            a, b = float(g[k]), float(w[k])
            if a != b:
                worst[k] = max(worst[k], abs(a - b) / abs(b) if b else math.inf)
    return worst


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the stored corpus")
    mode.add_argument("--write", action="store_true", help="overwrite the stored corpus")
    args = p.parse_args(argv)

    differ = close = 0
    for name in CONFIGS:
        text = fresh_text(name)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if args.write:
            DATA.mkdir(parents=True, exist_ok=True)
            (DATA / f"{name}.csv").write_text(text, encoding="utf-8")
            print(f"wrote     {digest}  {name}")
            continue
        want = stored_text(name)
        if text == want:
            print(f"identical        {digest}  {name}")
            continue
        differ += 1
        change = relative_changes(text, want)
        within = change is not None and max(change.values()) <= REL_TOL
        close += within
        print(f"{'within tolerance' if within else 'DIFFERS         '} {digest}  {name}")
        if change is None:
            print("                 rows do not line up with the stored file")
        else:
            print("                 largest relative change: "
                  + ", ".join(f"{k} {v:.2e}" for k, v in change.items()))
    if args.check:
        print(f"{len(CONFIGS) - differ} of {len(CONFIGS)} configurations byte-identical, "
              f"{close} within tolerance (rel {REL_TOL:g}), {differ - close} moved")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
