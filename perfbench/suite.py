"""Run every workload, untraced and traced, and check each workload's layer claims.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--write perfbench/baseline.json]

Workloads run one at a time, each through perfbench/run.py.  The command
prints every end-to-end metric by name and unit, then tests the "checks" of
workloads.json against the traced per-layer metrics (for example that
build_wiener is at least 90 % of trial time on dtmb_wiener1d_qpsk).  It
exits 1 if a run fails its correctness check or a claim does not hold.
``--write`` saves all figures, the environment and the per-SNR rows as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import ACCURACY_UNITS, OUT_DIR, load_workloads, snr_table, unit  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} trace {trace}: run.py exited with {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith("CHECK FAILED"):
            print(f"{workload} trace {trace}: {line}")
    result = json.loads(lines[-1])
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def evaluate(claim: dict, layers: dict) -> tuple[bool, str]:
    total = sum(layers[name] for name in claim["sum"])
    if "of" in claim:
        share = total / layers[claim["of"]]
        return share >= claim["at_least"], f"{share:.1%} (need >= {claim['at_least']:.0%})"
    return total == claim["equals"], f"{total:g} (need {claim['equals']:g})"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--write", help="save the figures as JSON to this path")
    args = p.parse_args()

    workloads = load_workloads()
    ok = True
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name, spec in workloads.items():
        plain = bench(name, args.seed, args.seconds, 0)
        traced = bench(name, args.seed, args.seconds, 1)
        with open(os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace0.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        doc["env"] = record["env"]
        entry = {
            "overrides": spec["overrides"],
            "gated": spec.get("gated", True),
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["values"],
            "per_layer": traced["values"],
            "checks": [],
            "rows": record["rows"],
        }
        ok &= entry["correct"]
        print(f"== {name} (correct: {entry['correct']}, in BENCHMARK.json: {entry['gated']})")
        shown = list(plain["values"].items())
        shown += [(m, traced["values"][m]) for m in ACCURACY_UNITS]
        shown.append(("trace_overhead_frac", traced["values"]["trace_overhead_frac"]))
        for metric, value in shown:
            print(f"  {metric:27s} {value:12.6g} {unit(metric)}")
        if record["rows"] is not None:
            print("\n".join(snr_table(record["rows"])))
        for claim in spec.get("checks", []):
            passed, detail = evaluate(claim, traced["values"])
            ok &= passed
            entry["checks"].append({**claim, "passed": passed, "measured": detail})
            print(f"  {'PASS' if passed else 'FAIL'} {claim['claim']}: {detail}")
        doc["workloads"][name] = entry
    print(f"env {json.dumps(doc.get('env'), sort_keys=True)}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
