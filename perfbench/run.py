"""Benchmark of tdsofdm Monte-Carlo sweeps: one workload, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every measurement runs in a fresh interpreter (perfbench/worker.py), one at
a time, because the Wiener design cache is process-global and the dtmb
workload alone needs about 2 GB.  BLAS is pinned to one thread.

With ``--trace 0`` the run starts SETUP_PROBES interpreters that stop at
the ``run()`` call, then repeats the whole sweep in fresh interpreters for
``--seconds`` and reports the end-to-end metrics as medians over those
processes.  A round that would overrun ``--seconds`` is not started, but
every run makes at least one.  With ``--trace 1`` it alternates untraced and traced
processes for ``--seconds`` and reports the per-layer metrics of spans.py
as medians over the traced processes, the sweep's accuracy and the tracing
overhead.  Every process of a run must return bit-identical result rows.

The last line of standard output is the JSON result; the full record, with
the environment, per-process figures and the rows, goes to perfbench/out/.
The exit code is 1 when a correctness check fails, 2 when no measurement
could be made.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}
ACCURACY_UNITS = {
    "harness.mse_final_db": "dB",
    "harness.ber_final": "1",
    "harness.eps_mse_log10_err": "1",
    "harness.trial_fail_frac": "1",
}


class BenchError(RuntimeError):
    """A worker could not produce a measurement."""


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in ACCURACY_UNITS:
        return ACCURACY_UNITS[name]
    per = "run" if name.startswith("sequences.build_gi.") else "trial"
    if name.endswith("ms"):
        return f"ms/{per}"
    if name.endswith(".calls"):
        return f"calls/{per}"
    if name.endswith(".point_evals"):
        return "evals/trial"
    if name in ("harness.warnings", "refiners.solve_fallbacks"):
        return "count/run"
    return "1"


def spawn(overrides: dict, seed: int, mode: str, spans: str | None = None) -> dict:
    """Run worker.py once in a fresh interpreter and return its result."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, WORKER, "--config", json.dumps(overrides), "--seed", str(seed),
           "--mode", mode, "--t-spawn", repr(t_spawn)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} in {mode} mode")
    return json.loads(lines[-1])


def accuracy(rows: list) -> dict:
    """Final-iteration accuracy of one sweep, every SNR point weighted equally.

    Rows are ResultRow tuples: (snr_db, estimator, iteration, mse, eps, ber, ...).
    """
    last = max(r[2] for r in rows)
    final = [r for r in rows if r[2] == last]
    return {
        "harness.mse_final_db": statistics.fmean(10 * math.log10(r[3]) for r in final),
        "harness.ber_final": statistics.fmean(r[5] for r in final),
        "harness.eps_mse_log10_err": statistics.fmean(abs(math.log10(r[4] / r[3])) for r in final),
    }


def snr_table(rows: list) -> list[str]:
    """PN-only (iteration 0) against final-iteration figures per SNR point."""
    last = max(r[2] for r in rows)
    pn = {r[0]: r[3] for r in rows if r[2] == 0}
    out = ["  snr_db   mse_pn      mse_final   eps_final   ber_final"]
    out += [f"  {r[0]:6g}   {pn[r[0]]:.4e}  {r[3]:.4e}  {r[4]:.4e}  {r[5]:.4e}"
            for r in rows if r[2] == last]
    return out


def check(results: list[dict]) -> list[str]:
    """Failed correctness checks across the processes of one run."""
    reference = results[0]["rows"]
    errors = []
    for i, res in enumerate(results):
        errors += [f"process {i}: {e}" for e in res["checks"]]
        if res["failed"]:
            errors.append(f"process {i}: {res['failed']} of {res['trials']} trials failed")
        if i and res["rows"] != reference:
            errors.append(f"process {i}: rows differ from those of process 0")
        # each wrapper layer must have seen every trial exactly once
        for name in ("harness.run_trial.calls", "combiner.iterate.calls"):
            if "layers" in res and res["layers"][name] != 1.0:
                errors.append(f"process {i}: {name} = {res['layers'][name]:g}, expected 1")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the processes of one benchmark run and reduce them to metrics."""
    overrides = load_workloads()[workload]["overrides"]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    setups = [] if trace else [spawn(overrides, seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced, rounds = [], [], []
    deadline = time.monotonic() + seconds
    # start another round only if a round of typical length still fits
    while not rounds or time.monotonic() + statistics.median(rounds) <= deadline:
        t0 = time.monotonic()
        plain.append(spawn(overrides, seed, "plain"))
        if trace:
            traced.append(spawn(overrides, seed, "traced", f"{stem}-spans{len(traced)}.json"))
        rounds.append(time.monotonic() - t0)
    procs = plain + traced
    errors = check(procs)

    def tps(res):
        return res["trials"] / res["wall_s"]

    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        if plain[0]["rows"] is not None:
            metrics.update(accuracy(plain[0]["rows"]))
        metrics["harness.trial_fail_frac"] = sum(r["failed"] for r in procs) / sum(r["trials"] for r in procs)
        metrics["trace_overhead_frac"] = 1.0 - statistics.median(map(tps, traced)) / statistics.median(map(tps, plain))
    else:
        metrics = {
            "trials_per_s": statistics.median(map(tps, plain)),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "overrides": overrides,
        "env": plain[0]["env"],
        "metrics": metrics,
        "errors": errors,
        "setup_probes_s": setups,
        "processes": [{k: v for k, v in r.items() if k not in ("rows", "env")} for r in procs],
        "rows": plain[0]["rows"],
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tdsofdm", "harness.py")):
        print(f"perfbench: no tdsofdm sources under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    procs, metrics, errors = record["processes"], record["metrics"], record["errors"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(procs)} processes")
    print("env " + json.dumps(record["env"], sort_keys=True))
    if record["rows"] is not None:
        print("\n".join(snr_table(record["rows"])))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["trials"] for r in procs),
        "failed": sum(r["failed"] for r in procs),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
