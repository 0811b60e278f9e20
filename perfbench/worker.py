"""One measurement of one workload in a fresh interpreter.

    python3 perfbench/worker.py --config JSON --seed N --mode setup|plain|traced --t-spawn T

``--t-spawn`` is the ``time.monotonic()`` reading the parent took just
before starting this process; set-up time runs from there to the
``run()`` call and covers interpreter start, imports and
``resolve_config``.  ``setup`` mode stops at that point.  ``plain`` and
``traced`` modes then call ``tdsofdm.harness.run`` once, the call
``tdsofdm sweep`` makes; ``traced`` installs the wrappers of spans.py
first and writes its spans to ``--spans``.

The result is one JSON object on the last line of standard output.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True, help="resolve_config overrides as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--spans", help="where the traced mode writes its spans")
    return p.parse_args()


def _trial_failures(raw: dict) -> int:
    """Trials with any non-finite mse, eps or ber value."""
    import numpy as np

    failed = 0
    for stack in raw.values():
        ok = np.ones(stack["mse"].shape[0], dtype=bool)
        for key in ("mse", "eps", "ber"):
            ok &= np.isfinite(stack[key]).all(axis=1)
        failed += int((~ok).sum())
    return failed


def _row_checks(cfg, rows) -> list[str]:
    """Sanity checks on the aggregated rows; returns the failed ones."""
    iters = 0 if cfg.estimator in ("pn", "genie") else cfg.iterations
    errors = []
    if len(rows) != len(cfg.snr_db) * (iters + 1):
        errors.append(f"expected {len(cfg.snr_db) * (iters + 1)} rows, got {len(rows)}")
    for r in rows:
        if not (r.mse_empirical >= 0 and r.eps_analytic >= 0 and 0 <= r.ber_uncoded <= 1):
            errors.append(f"row out of range: {r}")
        if r.trials != cfg.trials:
            errors.append(f"row reports {r.trials} trials, config has {cfg.trials}")
    final = [r for r in rows if r.iteration == iters]
    if final and not final[-1].ber_uncoded < final[0].ber_uncoded:
        errors.append(
            f"final BER at {final[-1].snr_db:g} dB ({final[-1].ber_uncoded:.3g}) is not below "
            f"that at {final[0].snr_db:g} dB ({final[0].ber_uncoded:.3g})"
        )
    return errors


def main() -> int:
    args = _parse_args()
    if not os.path.isfile(os.path.join(SRC, "tdsofdm", "harness.py")):
        print(f"no tdsofdm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tdsofdm import harness

    cfg = harness.resolve_config({**json.loads(args.config), "seed": args.seed})
    setup_s = time.monotonic() - args.t_spawn
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import traceback
    import warnings
    from dataclasses import astuple

    import numpy
    import scipy

    run = harness.run
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(run, "harness.run")

    trials = len(cfg.snr_db) * cfg.trials
    out = {
        "setup_s": setup_s,
        "trials": trials,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        },
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rows, raw = run(cfg, keep_trials=True)
        except Exception:  # a raising sweep is a measured failure, not a crash
            traceback.print_exc()
            rows = raw = None
        out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["warnings"] = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    if rows is None:
        out.update(failed=trials, rows=None, checks=["run() raised"])
    else:
        out.update(
            failed=_trial_failures(raw),
            rows=[list(astuple(r)) for r in rows],
            checks=_row_checks(cfg, rows),
        )
    if tracer is not None:
        tracer.counters["harness.warnings"] += len(caught)
        out["layers"] = tracer.layer_metrics(trials)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
