"""Page-fault counter: minor page faults and wall time of steady-state trials.

    python tests/fault_count.py dtmb_wiener1d_qpsk
    python tests/fault_count.py desk_wiener2x1d_qam64

Runs one configuration's sweep through harness.run with one BLAS thread,
after a one-trial sweep of the same configuration that warms the filter
designs and the allocator, and counts ru_minflt and wall time around every
run_trial call.  The first line gives the median faults and milliseconds
per trial of the measured sweep, the second those of the interpreter's
first trial, the first of the warm-up sweep, which pages the trial's
working set in.  Run it in a fresh interpreter: arrays a process has freed
before move glibc's dynamic mmap threshold, and so the count.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tdsofdm import harness  # noqa: E402

# name -> resolve_config overrides: the two benchmark workloads' sweeps
CONFIGS = {
    "dtmb_wiener1d_qpsk": {
        "preset": "dtmb", "estimator": "wiener1d", "constellation": "qpsk",
        "snr_db": "10,30", "trials": 10, "seed": 8,
    },
    "desk_wiener2x1d_qam64": {
        "preset": "desk", "estimator": "wiener2x1d", "constellation": "qam64",
        "snr_db": "0,5,10,15,20,25", "trials": 3, "seed": 8,
    },
}


def count(name: str) -> tuple[tuple[float, float], tuple[float, float, int]]:
    """((faults, ms) of the first trial, (median faults, median ms, trials)
    per steady-state trial)."""
    overrides = CONFIGS[name]
    real = harness.run_trial
    faults, ms = [], []

    def measured(*args):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = real(*args)
        ms.append(1e3 * (time.perf_counter() - t0))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        return out

    # run() looks run_trial up in its module on every trial
    harness.run_trial = measured
    try:
        harness.run(harness.resolve_config({**overrides, "trials": 1}))
        first = faults[0], ms[0]
        faults.clear()
        ms.clear()
        harness.run(harness.resolve_config(overrides))
    finally:
        harness.run_trial = real
    return first, (statistics.median(faults), statistics.median(ms), len(faults))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("name", choices=sorted(CONFIGS))
    args = p.parse_args(argv)
    (first_faults, first_ms), (faults, ms, n) = count(args.name)
    print(f"{args.name}: {faults:g} faults/trial, {ms:.1f} ms/trial (median of {n} trials)")
    print(f"{args.name}: first trial {first_faults:g} faults, {first_ms:.1f} ms (fresh interpreter)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
