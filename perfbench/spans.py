"""Outside-in tracing: spans and counts around calls into gexpect's layers.

`install(recorder)` replaces each traced public function with a wrapper at
every place a caller looks it up: the defining module and every gexpect
module that imported it by name (`representation` imports `simulate`,
`inequalities` imports `extract` and `iter_increment_blocks`, `cli`
imports `conditional_expectation` and `refine_study`).  Methods are
patched on their class.  Nothing inside the package is edited.

Each span records its name, start, end, parent span, thread and run id.
Parents are tracked per thread, so a span's self time subtracts only the
children that ran on its own thread.  Spans stay in memory until the run
ends.  This module imports nothing heavy, so that loading it does not
disturb the measured import time.
"""

import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from workloads import SUITES

MB = float(1 << 20)

# span name -> whether it can have traced children (self_s is reported)
TIMED = {
    "pde.conditional_expectation": True,
    "pde.solve_interval": True,
    "pde.refine_study": True,
    "kernels.march_explicit_1d": False,
    "pde.ValueField.read_along": True,
    "kernels.bilinear_read": False,
    "scipy.RegularGridInterpolator": False,
    "montecarlo.iter_increment_blocks": False,
    "montecarlo.simulate": True,
    "montecarlo.dual_value": True,
    "montecarlo.lp_norm_detail": True,
    "representation.extract": True,
    "representation.gmartingale_gap": True,
    "representation.is_symmetric": True,
    "payoff.PayoffSpec.evaluate": False,
    "nonlinearity.eval_g_scalar": False,
}
TIMED.update({f"inequalities.suite.{s}": True for s in SUITES})

# spans whose high-water RSS growth is reported
RSS_SPANS = ("pde.conditional_expectation", "montecarlo.simulate",
             "representation.extract", "representation.gmartingale_gap",
             "representation.is_symmetric",
             *(f"inequalities.suite.{s}" for s in SUITES))

CALLS = ("pde.conditional_expectation", "pde.solve_interval",
         "kernels.march_explicit_1d", "pde.ValueField.read_along",
         "kernels.bilinear_read", "scipy.RegularGridInterpolator",
         "montecarlo.simulate", "representation.extract")

COUNTS = ("pde.solve_interval.field_mb",
          "kernels.march_explicit_1d.node_updates",
          "kernels.march_explicit_1d.bytes_computed",
          "pde.ValueField.read_along.queries",
          "pde.ValueField.read_along.clamped",
          "kernels.bilinear_read.queries",
          "kernels.bilinear_read.bytes_computed",
          "scipy.RegularGridInterpolator.queries",
          "montecarlo.iter_increment_blocks.blocks",
          "montecarlo.iter_increment_blocks.distinct_blocks")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    run: str
    start: float
    end: float
    rss_start_mb: float | None
    rss_end_mb: float | None


class Recorder:
    """In-memory spans and counts of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def span(self, name: str):
        return _SpanContext(self, name, name in RSS_SPANS)

    def count(self, name: str, n):
        with self._lock:
            self.counts[name] += n

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counts recorded so far."""
        busy = defaultdict(float)
        child = defaultdict(float)
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            dur = s.end - s.start
            busy[s.name] += dur
            if s.parent is not None:
                child[by_id[s.parent].name] += dur
        out = {}
        for name, has_children in TIMED.items():
            out[f"{name}.busy_s"] = busy[name]
            if has_children:
                out[f"{name}.self_s"] = busy[name] - child[name]
        for name in CALLS:
            out[f"{name}.calls"] = self.counts[f"{name}.calls"]
        for name in COUNTS:
            out[name] = self.counts[name]
        distinct = self.counts["montecarlo.iter_increment_blocks.distinct_blocks"]
        blocks = self.counts["montecarlo.iter_increment_blocks.blocks"]
        out["rng.redraw_ratio"] = blocks / distinct if distinct else 0.0
        for name in RSS_SPANS:
            out[f"{name}.rss_growth_mb"] = self._rss_growth(name)
        out["trace.spans"] = float(len(self.spans))
        return out

    def _rss_growth(self, name: str) -> float:
        """Growth of the peak RSS while a span of this name was open.

        Spans that overlap (threads) are merged first, so growth is not
        counted twice; the peak never falls, so a merged interval's growth
        is its last end reading minus its first start reading.
        """
        growth = 0.0
        group = None          # [end time, rss at start, rss at end]
        for s in sorted((s for s in self.spans if s.name == name),
                        key=lambda s: s.start):
            if group is not None and s.start <= group[0]:
                if s.end > group[0]:
                    group[0], group[2] = s.end, s.rss_end_mb
                continue
            if group is not None:
                growth += group[2] - group[1]
            group = [s.end, s.rss_start_mb, s.rss_end_mb]
        if group is not None:
            growth += group[2] - group[1]
        return growth


class _SpanContext:
    __slots__ = ("rec", "name", "rss", "id", "parent", "start", "rss0")

    def __init__(self, rec, name, rss):
        self.rec, self.name, self.rss = rec, name, rss

    def __enter__(self):
        stack = self.rec._local.__dict__.setdefault("stack", [])
        self.id = next(self.rec._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.rss0 = _peak_rss_mb() if self.rss else None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rss1 = _peak_rss_mb() if self.rss else None
        self.rec._local.stack.pop()
        self.rec.spans.append(Span(self.id, self.parent, self.name,
                                   threading.get_ident(), self.rec.run_id,
                                   self.start, end, self.rss0, rss1))
        return False


def _wrap(rec, name, fn, counter=None):
    """fn inside a span; counter(rec, bound_arguments, result) after it."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        rec.count(f"{name}.calls", 1)
        if counter is not None:
            counter(rec, sig.bind(*args, **kwargs).arguments, result)
        return result

    return traced


def _wrap_blocks(rec, fn):
    """iter_increment_blocks is a generator: time each next() separately."""
    name = "montecarlo.iter_increment_blocks"
    sig = inspect.signature(fn)
    seen = set()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        gen = fn(*args, **kwargs)
        block = 0
        while True:
            with rec.span(name):
                item = next(gen, None)
            if item is None:
                return
            key = (a["seed"], block, a["n_steps"], a["d"])
            with rec._lock:
                fresh = key not in seen
                seen.add(key)
            rec.count(f"{name}.blocks", 1)
            rec.count(f"{name}.distinct_blocks", int(fresh))
            block += 1
            yield item

    return traced


def _count_march(rec, a, _):
    rows, n_x = a["values"].shape
    updates = rows * (n_x - 2) * int(a["n_steps"])
    rec.count("kernels.march_explicit_1d.node_updates", updates)
    # computed, not measured: one float64 read and one write per interior
    # node update, plus the stored snapshots
    rec.count("kernels.march_explicit_1d.bytes_computed",
              16 * updates + a["out"].nbytes)


def _count_bilinear(rec, a, _):
    n = len(a["qt"])
    rec.count("kernels.bilinear_read.queries", n)
    # computed: four field values, qt and qx read, one value written
    rec.count("kernels.bilinear_read.bytes_computed", 56 * n)


def _count_read(rec, a, result):
    rec.count("pde.ValueField.read_along.queries", result[0].shape[0])
    rec.count("pde.ValueField.read_along.clamped", int(result[1].sum()))


def _count_field(rec, _, result):
    rec.count("pde.solve_interval.field_mb", result.values.nbytes / MB)


def _patch_everywhere(original, replacement):
    """Rebind every gexpect module attribute that is `original`."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "gexpect"
                                  or mod_name.startswith("gexpect.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"{original!r} is not bound in any gexpect module")


def install(rec: Recorder):
    """Patch gexpect's public functions to record into rec (process-wide)."""
    from gexpect import (inequalities, kernels, montecarlo, nonlinearity,
                         payoff, pde, representation)

    functions = [
        (pde.conditional_expectation, "pde.conditional_expectation", None),
        (pde.solve_interval, "pde.solve_interval", _count_field),
        (pde.refine_study, "pde.refine_study", None),
        (kernels.march_explicit_1d, "kernels.march_explicit_1d", _count_march),
        (kernels.bilinear_read, "kernels.bilinear_read", _count_bilinear),
        (montecarlo.simulate, "montecarlo.simulate", None),
        (montecarlo.dual_value, "montecarlo.dual_value", None),
        (montecarlo.lp_norm_detail, "montecarlo.lp_norm_detail", None),
        (representation.extract, "representation.extract", None),
        (representation.gmartingale_gap, "representation.gmartingale_gap",
         None),
        (representation.is_symmetric, "representation.is_symmetric", None),
        (nonlinearity.eval_g_scalar, "nonlinearity.eval_g_scalar", None),
    ]
    for fn, name, counter in functions:
        _patch_everywhere(fn, _wrap(rec, name, fn, counter))
    _patch_everywhere(montecarlo.iter_increment_blocks,
                      _wrap_blocks(rec, montecarlo.iter_increment_blocks))

    run_suite = inequalities.run_suite

    @functools.wraps(run_suite)
    def traced_suite(name, *args, **kwargs):
        with rec.span(f"inequalities.suite.{name}"):
            return run_suite(name, *args, **kwargs)

    _patch_everywhere(run_suite, traced_suite)

    pde.ValueField.read_along = _wrap(rec, "pde.ValueField.read_along",
                                      pde.ValueField.read_along, _count_read)
    payoff.PayoffSpec.evaluate = _wrap(rec, "payoff.PayoffSpec.evaluate",
                                       payoff.PayoffSpec.evaluate)

    # the nested-interval read that pde delegates to scipy
    base = pde.RegularGridInterpolator

    class TracedInterpolator(base):
        def __call__(self, xi, *args, **kwargs):
            with rec.span("scipy.RegularGridInterpolator"):
                out = super().__call__(xi, *args, **kwargs)
            rec.count("scipy.RegularGridInterpolator.calls", 1)
            rec.count("scipy.RegularGridInterpolator.queries", len(xi))
            return out

    _patch_everywhere(base, TracedInterpolator)
