"""The traced working set of one benchmark trial: every frame-sized array
of a trial lives only while it is used."""

import tracemalloc

import pytest

from tdsofdm import resolve_config, run

# the benchmark workloads of perfbench/workloads.json at one SNR point and
# one trial, with a bound on each one's traced peak in MiB.  The dtmb peak
# holds about ten frame arrays of 0.58 MiB (grids) to 0.70 MiB (the
# received frame, its closing guard row included): 6.05 MiB traced, and
# 1.54 MiB on desk.  Keeping each estimate's CFR next to its taps, the PN
# estimate's for the whole loop, read 6.63 and 1.62 MiB; forming the true
# CFR and inverting every estimate's CFR for guard removal read 7.19 and
# 1.70 MiB; keeping each iteration's grid and guard-free frame alive again
# read 8.4 MiB on dtmb; keeping every frame array until its trial ended
# read 12.3 MiB on dtmb and 2.55 MiB on desk
WORKLOADS = {
    "dtmb_wiener1d_qpsk": ({"preset": "dtmb", "estimator": "wiener1d", "constellation": "qpsk"}, 6.4),
    "desk_wiener2x1d_qam64": ({"preset": "desk", "estimator": "wiener2x1d", "constellation": "qam64"}, 1.7),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_trial_stays_within_its_working_set(name):
    overrides, bound_mib = WORKLOADS[name]
    cfg = resolve_config(
        {**overrides, "snr_db": 10, "trials": 1, "num_symbols": 10, "threads": 1, "seed": 8101}
    )
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / 2**20 <= bound_mib
