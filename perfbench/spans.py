"""In-memory span tracer for one traced benchmark run.

Wrappers are installed at the binding each caller looks up, not at the
definition: ``run_trial`` calls ``tdsofdm.harness.realize`` and ``iterate``
calls ``tdsofdm.combiner.demap``, so those module attributes are the ones
replaced.  Wrapping ``tdsofdm.channel.realize`` instead would time nothing.
Nothing in the program itself changes; only its module attributes are
swapped for the life of the traced process.

Each span records its name, the index of its parent span, the index of the
trial (``run_trial`` span) it belongs to, and its start and end times.
"""

from __future__ import annotations

import importlib
import json
import warnings
from collections import Counter, defaultdict
from time import perf_counter

# (module a caller looks the name up in, attribute, span name)
BINDINGS = (
    ("tdsofdm.harness", "run_trial", "harness.run_trial"),
    ("tdsofdm.harness", "build_gi", "sequences.build_gi"),
    ("tdsofdm.harness", "realize", "channel.realize"),
    ("tdsofdm.harness", "cfr", "channel.cfr"),
    ("tdsofdm.harness", "map_bits", "modulation.map_bits"),
    ("tdsofdm.harness", "hard_decisions", "modulation.hard_decisions"),
    ("tdsofdm.harness", "ofdm_modulate", "phy.ofdm_modulate"),
    ("tdsofdm.harness", "assemble", "phy.assemble"),
    ("tdsofdm.harness", "propagate", "phy.propagate"),
    ("tdsofdm.harness", "iterate", "combiner.iterate"),
    ("tdsofdm.combiner", "remove_pn", "phy.remove_pn"),
    ("tdsofdm.combiner", "ola", "phy.ola"),
    ("tdsofdm.combiner", "equalize", "phy.equalize"),
    ("tdsofdm.combiner", "ls_pn", "pn_estimator.ls_pn"),
    ("tdsofdm.combiner", "cir_from_cfr", "pn_estimator.cir_from_cfr"),
    ("tdsofdm.combiner", "demap", "soft_rebuild.demap"),
    ("tdsofdm.combiner", "soft_symbols", "soft_rebuild.soft_symbols"),
    ("tdsofdm.combiner", "instantaneous_estimate", "soft_rebuild.instantaneous_estimate"),
    ("tdsofdm.combiner", "ma_1d", "refiners.ma_1d"),
    ("tdsofdm.combiner", "ma_2d", "refiners.ma_2d"),
    ("tdsofdm.combiner", "wiener_1d", "refiners.wiener_1d"),
    ("tdsofdm.combiner", "wiener_2x1d", "refiners.wiener_2x1d"),
    ("tdsofdm.combiner", "build_wiener", "refiners.build_wiener"),
    ("tdsofdm.combiner", "combine", "combiner.combine"),
)

# spans reported per run rather than per trial
PER_RUN = ("sequences.build_gi",)


def _count_demap(counters, args, kwargs, out):
    z = args[0]
    c = args[3] if len(args) > 3 else kwargs["c"]
    counters["soft_rebuild.demap.point_evals"] += z.data.size * c.points.size


def _count_mask(counters, args, kwargs, out):
    counters["masked_bins"] += int(out.mask.size - out.mask.sum())
    counters["bins"] += int(out.mask.size)


_COUNTERS = {
    "soft_rebuild.demap": _count_demap,
    "soft_rebuild.instantaneous_estimate": _count_mask,
}


class Tracer:
    """Records spans and counters from wrappers around program functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, trial, t0, t1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = _COUNTERS.get(name)
        is_trial = name == "harness.run_trial"

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            trial = idx if is_trial else (spans[parent][2] if parent >= 0 else -1)
            span = [name, parent, trial, perf_counter(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = perf_counter()
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every binding in BINDINGS, plus numpy.linalg.lstsq as a counter."""
        for mod_name, attr, name in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            defining = importlib.import_module(fn.__module__)
            if getattr(defining, fn.__name__) is not fn:
                raise RuntimeError(f"{mod_name}.{attr} is not the public {fn.__module__}.{fn.__name__}")
            if name == "sequences.build_gi":
                fn = self._count_warnings(fn)
            setattr(mod, attr, self.wrap(fn, name))

        import numpy.linalg

        lstsq = numpy.linalg.lstsq
        counters = self.counters

        def counted_lstsq(*args, **kwargs):
            counters["refiners.solve_fallbacks"] += 1
            return lstsq(*args, **kwargs)

        numpy.linalg.lstsq = counted_lstsq

    def _count_warnings(self, fn):
        # run() silences warnings from build_gi; count them before they vanish
        counters = self.counters

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            counters["harness.warnings"] += len(caught)
            return out

        return counted

    def layer_metrics(self, trials: int) -> dict[str, float]:
        """Self time and calls per trial for every span name, plus the counters.

        Self time is a span's duration minus its children's durations.
        Names in PER_RUN are per run (one ``run()`` call) instead.  Layers a
        workload never calls report 0.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, parent, _trial, t0, t1 in self.spans:
            dur = t1 - t0
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out: dict[str, float] = {}
        for name in ["harness.run"] + [b[2] for b in BINDINGS]:
            div = 1 if name in PER_RUN else trials
            out[f"{name}.ms"] = 1e3 * self_s.get(name, 0.0) / div
            out[f"{name}.calls"] = calls.get(name, 0) / div
        trial_s = sum(s[4] - s[3] for s in self.spans if s[0] == "harness.run_trial")
        out["harness.run_trial.total_ms"] = 1e3 * trial_s / trials
        c = self.counters
        out["harness.warnings"] = float(c["harness.warnings"])
        out["soft_rebuild.demap.point_evals"] = c["soft_rebuild.demap.point_evals"] / trials
        out["soft_rebuild.masked_frac"] = c["masked_bins"] / c["bins"] if c["bins"] else 0.0
        out["refiners.solve_fallbacks"] = float(c["refiners.solve_fallbacks"])
        requests = calls["refiners.wiener_1d"] + 2 * calls["refiners.wiener_2x1d"]
        builds = calls["refiners.build_wiener"]
        out["combiner.design_hit_ratio"] = 1.0 - builds / requests if requests else 0.0
        return out

    def dump(self, path: str) -> None:
        """Write every span as [name, parent, trial, t0_s, t1_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "trial", "t0_s", "t1_s"], "spans": self.spans}, fh)
            fh.write("\n")
