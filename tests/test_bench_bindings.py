"""The benchmark tracer's bindings name public program functions, and a
traced benchmark run goes through end to end."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.BINDINGS


@pytest.mark.parametrize("mod_name,attr,span", _bindings(), ids=lambda v: str(v))
def test_binding_resolves_to_the_public_function(mod_name, attr, span):
    # perfbench/run.py --trace 1 wraps each binding and refuses to run if
    # one is missing or no longer the public function of its module
    fn = getattr(importlib.import_module(mod_name), attr)
    defining = importlib.import_module(fn.__module__)
    assert getattr(defining, fn.__name__) is fn
    assert not fn.__name__.startswith("_")
    assert span == f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def test_traced_worker_run_reports_layers():
    # the traced mode wraps every binding and reads the demap and
    # instantaneous_estimate arguments and outputs for its counters
    overrides = {
        "preset": "desk",
        "estimator": "wiener2x1d",
        "constellation": "qam16",
        "snr_db": "5,30",
        "trials": 1,
        "threads": 1,
    }
    cmd = [
        sys.executable,
        str(PERFBENCH / "worker.py"),
        "--config", json.dumps(overrides),
        "--seed", "7",
        "--mode", "traced",
        "--t-spawn", repr(time.monotonic()),
    ]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0
    assert out["checks"] == []
    layers = out["layers"]
    assert layers["soft_rebuild.demap.point_evals"] > 0
    assert 0.0 <= layers["soft_rebuild.masked_frac"] <= 1.0
