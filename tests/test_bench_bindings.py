"""The benchmark tracer's bindings name public program functions."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
