"""Layer tracing for the benchmark, applied from outside the program.

:func:`install` wraps the public entry points of the ``repro`` packages
(``traffic``, ``net``, ``sim``, ``products``, ``ids``, ``eval``, ``core``)
with span and count recorders.  Spans are aggregated per name in memory --
calls, total time and self time (total minus the time of traced spans
nested inside) -- because the per-packet boundaries run millions of times.

Pool workers are forked, so they inherit the wrappers.  Their memory is
lost when the pool shuts down, so the wrapper around each work unit resets
the worker's recorder when the unit starts and writes the unit's spans and
counts to a hand-back directory when it ends; the parent merges those files
after the measured call (:meth:`Recorder.merge_handbacks`).

An entry point that no longer exists is listed in :attr:`Recorder.missing`;
the traced repetition then fails, so that no per-layer metric silently
reads 0 after a refactor.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Recorder:
    """Aggregated spans and counts of one process."""

    def __init__(self, handback_dir: str) -> None:
        self.owner_pid = os.getpid()
        self.handback_dir = handback_dir
        self.missing: List[str] = []
        self._handbacks = 0
        self.reset()

    def reset(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.spans: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(int)
        #: child-time accumulators of the open spans (root at index 0)
        self.stack: List[float] = [0.0]
        #: worker-side unit spans: (pid, start, end) on CLOCK_MONOTONIC
        self.units: List[tuple] = []

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    @contextmanager
    def span(self, name: str):
        """Time a block as a span (used around the benchmark's own calls)."""
        stack = self.stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - t0)

    def _close(self, name: str, dt: float) -> None:
        stack = self.stack
        child = stack.pop()
        stack[-1] += dt
        entry = self.spans[name]
        entry[0] += 1
        entry[1] += dt
        entry[2] += dt - child

    # ------------------------------------------------------------------
    # worker hand-back
    # ------------------------------------------------------------------
    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def write_handback(self) -> None:
        self._handbacks += 1
        path = os.path.join(self.handback_dir,
                            f"{os.getpid()}-{self._handbacks}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": dict(self.spans),
                       "counts": dict(self.counts), "units": self.units}, fh)
        os.replace(tmp, path)

    def merge_handbacks(self) -> None:
        """Fold every unit record the workers handed back into this
        recorder."""
        for name in sorted(os.listdir(self.handback_dir)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.handback_dir, name)) as fh:
                record = json.load(fh)
            for span, (calls, total, self_s) in record["spans"].items():
                entry = self.spans[span]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for key, value in record["counts"].items():
                self.counts[key] += value
            self.units.extend(tuple(u) for u in record["units"])


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _spanned(rec: Recorder, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
    """``fn`` recorded as span ``name``; ``before(args)`` returns a token
    handed to ``after(rec, result, args, token)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        rec.stack.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec._close(name, perf_counter() - t0)
        if after is not None:
            after(rec, result, args, token)
        return result

    return wrapper


def _unit(rec: Recorder, fn: Callable) -> Callable:
    """A work-unit entry point: inside a pool worker, the unit's spans and
    counts are handed back to the parent when it ends."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.in_worker():
            return fn(*args, **kwargs)
        rec.reset()
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.units.append((os.getpid(), start, time.monotonic()))
            rec.write_handback()

    return wrapper


def _corpus_counted(rec: Recorder, fn: Callable) -> Callable:
    """A trace-corpus lookup: a miss is a lookup that had to call its
    ``build`` callback; a store is a miss that encoded the trace."""

    @functools.wraps(fn)
    def wrapper(kind, token, build, *args, **kwargs):
        built = []

        def counted_build():
            built.append(True)
            return build()

        encodes = rec.calls("net.trace_encode")
        result = fn(kind, token, counted_build, *args, **kwargs)
        if built:
            rec.counts["eval.corpus_misses"] += 1
            if rec.calls("net.trace_encode") > encodes:
                rec.counts["eval.corpus_stores"] += 1
        else:
            rec.counts["eval.corpus_hits"] += 1
        return result

    return wrapper


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "repro" or name.startswith("repro."))]


def patch_function(module_name: str, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
    """Replace a module-level function everywhere ``repro`` refers to it
    (modules that imported it by name hold their own reference)."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    replacement = make(original)
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def patch_method(module_name: str, qualname: str,
                 make: Callable[[Callable], Callable]) -> None:
    """Wrap ``Class.method`` and every subclass override of it."""
    cls_name, attr = qualname.split(".")
    cls = getattr(importlib.import_module(module_name), cls_name)
    patched = 0
    for klass in _subclasses(cls):
        raw = klass.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(klass, attr, classmethod(make(raw.__func__)))
        else:
            setattr(klass, attr, make(raw))
        patched += 1
    if not patched:
        raise AttributeError(f"{module_name}.{qualname}")


def patch(target: str, make: Callable[[Callable], Callable]) -> None:
    """Patch ``"module:function"`` or ``"module:Class.method"``."""
    module_name, name = target.split(":")
    if "." in name:
        patch_method(module_name, name, make)
    else:
        patch_function(module_name, name, make)


# ----------------------------------------------------------------------
# the traced entry points
# ----------------------------------------------------------------------
def _events_before(args):
    return args[0].events_executed


def _events_after(rec, result, args, before):
    rec.counts["sim.events"] += args[0].events_executed - before


def _count_len(key: str) -> Callable:
    def after(rec, result, args, token):
        rec.counts[key] += len(result)
    return after


def _train_after(rec, result, args, token):
    # IdsPipeline.train_on(trace) returns how many detectors it trained
    rec.counts["ids.train_pkts"] += len(args[1]) * int(result or 0)


def _decode_bytes_after(rec, result, args, token):
    rec.counts["net.trace_bytes"] += len(args[1])


def _load_bytes_after(rec, result, args, token):
    source = args[1]
    if isinstance(source, (str, bytes, os.PathLike)):
        rec.counts["net.trace_bytes"] += os.path.getsize(source)


def _probe_after(rec, result, args, token):
    rec.counts["ids.processed_pkts"] += result.processed_packets
    rec.counts["ids.dropped_pkts"] += result.dropped_packets


def _replay_after(rec, result, args, token):
    deployment = args[0].deployment
    rec.counts["ids.processed_pkts"] += deployment.packets_processed
    rec.counts["ids.dropped_pkts"] += deployment.packets_dropped


#: (entry point, span name, before hook, after hook)
SPANS = (
    # traffic (attack generation runs inside the scenario build)
    ("repro.traffic.mixer:ScenarioBuilder.build", "traffic.scenario_build",
     None, None),
    ("repro.traffic.profiles:TrafficProfile.generate", "traffic.background",
     None, None),
    # net: the .rtrc codec
    ("repro.net.trace:Trace.to_bytes", "net.trace_encode", None,
     _count_len("net.trace_bytes")),
    ("repro.net.trace:Trace.from_bytes", "net.trace_decode", None,
     _decode_bytes_after),
    ("repro.net.trace:Trace.load", "net.trace_decode", None,
     _load_bytes_after),
    # sim
    ("repro.sim.engine:Engine.run", "sim.run", _events_before,
     _events_after),
    # products
    ("repro.products.base:Product.deploy", "products.deploy", None, None),
    ("repro.products.base:Deployment.ingest", "products.ingest", None, None),
    # ids
    ("repro.ids.pipeline:IdsPipeline.train_on", "ids.train", None,
     _train_after),
    ("repro.ids.sensor:SignatureDetector.process", "ids.detect", None, None),
    ("repro.ids.sensor:AnomalyDetector.process", "ids.detect", None, None),
    ("repro.ids.hybrid:HybridDetector.process", "ids.detect", None, None),
    ("repro.ids.signature:SignatureEngine.inspect", "ids.signature_inspect",
     None, _count_len("ids.detections")),
    ("repro.ids.anomaly:AnomalyEngine.inspect", "ids.anomaly_inspect",
     None, _count_len("ids.detections")),
    ("repro.ids.analyzer:Analyzer.receive", "ids.analyzer_receive", None,
     None),
    ("repro.ids.monitor:Monitor.receive", "ids.monitor_receive", None, None),
    # eval harness
    ("repro.eval.throughput:make_load_trace", "eval.load_trace", None,
     _count_len("eval.load_trace_pkts")),
    ("repro.eval.throughput:probe_rate", "eval.probe_rate", None,
     _probe_after),
    ("repro.eval.testbed:EvalTestbed.run_scenario", "eval.run_scenario",
     None, _replay_after),
    ("repro.eval.ground_truth:score_alerts", "eval.score_alerts", None, None),
    ("repro.eval.latency:measure_induced_latency", "eval.latency_probe",
     None, None),
    ("repro.eval.overhead:measure_host_overhead", "eval.overhead_probe",
     None, None),
    ("repro.eval.accuracy:run_accuracy", "eval.accuracy_point", None, None),
    # core
    ("repro.eval.runner:finish_field", "core.finish_field", None, None),
)

#: Work-unit entry points: spans plus the worker hand-back.
UNITS = (
    ("repro.eval.runner:measure_scenario", "eval.scenario_unit"),
    ("repro.eval.runner:measure_rate", "eval.rate_unit"),
)

CORPUS = ("repro.eval.corpus:corpus_trace",
          "repro.eval.corpus:corpus_scenario")


def install(handback_dir: str) -> Recorder:
    """Wrap every traced entry point; returns the process's recorder."""
    rec = Recorder(handback_dir)

    def attempt(target: str, make) -> None:
        try:
            patch(target, make)
        except (ImportError, AttributeError, ValueError):
            rec.missing.append(target)

    for target, name, before, after in SPANS:
        attempt(target, lambda fn, n=name, b=before, a=after:
                _spanned(rec, n, fn, b, a))
    for target, name in UNITS:
        attempt(target, lambda fn, n=name: _unit(rec, _spanned(rec, n, fn)))
    for target in CORPUS:
        attempt(target, lambda fn: _corpus_counted(rec, fn))
    return rec


# ----------------------------------------------------------------------
# the per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced measured call (after
    :meth:`Recorder.merge_handbacks`)."""
    from repro.eval.parallel import CacheStats, last_cache_stats

    # the harness counts its result-cache traffic itself (None: no cache)
    cache = last_cache_stats() or CacheStats()
    c = rec.counts
    sim_run = rec.total("sim.run")
    inspections = (rec.calls("ids.signature_inspect")
                   + rec.calls("ids.anomaly_inspect"))
    corpus_hits, corpus_misses = c["eval.corpus_hits"], c["eval.corpus_misses"]
    if rec.units:
        pool_s = (max(u[2] for u in rec.units)
                  - min(u[1] for u in rec.units))
        workers = len({u[0] for u in rec.units})
        busy = sum(u[2] - u[1] for u in rec.units)
        utilization = _ratio(busy, pool_s * workers)
    else:
        pool_s = utilization = 0.0
    return {
        "traffic.scenario_build_s": rec.total("traffic.scenario_build"),
        "traffic.scenario_build_calls": rec.calls("traffic.scenario_build"),
        "traffic.background_s": rec.total("traffic.background"),
        "traffic.background_calls": rec.calls("traffic.background"),
        "eval.load_trace_s": rec.total("eval.load_trace"),
        "eval.load_trace_calls": rec.calls("eval.load_trace"),
        "eval.load_trace_pkts": c["eval.load_trace_pkts"],
        "sim.run_s": sim_run,
        "sim.self_s": rec.self_time("sim.run"),
        "sim.events": c["sim.events"],
        "sim.host_us_per_event": _ratio(sim_run * 1e6, c["sim.events"]),
        "products.deploy_s": rec.total("products.deploy"),
        "products.ingest_s": rec.total("products.ingest"),
        "products.ingest_calls": rec.calls("products.ingest"),
        "ids.pipeline_self_s": sum(rec.self_time(n) for n in (
            "products.ingest", "ids.detect", "ids.analyzer_receive",
            "ids.monitor_receive")),
        "ids.signature_inspect_s": rec.total("ids.signature_inspect"),
        "ids.signature_inspect_calls": rec.calls("ids.signature_inspect"),
        "ids.anomaly_inspect_s": rec.total("ids.anomaly_inspect"),
        "ids.anomaly_inspect_calls": rec.calls("ids.anomaly_inspect"),
        "ids.train_s": rec.total("ids.train"),
        "ids.train_pkts": c["ids.train_pkts"],
        "ids.analyzer_receive_calls": rec.calls("ids.analyzer_receive"),
        "ids.alerts": rec.calls("ids.monitor_receive"),
        "ids.detector_yield": _ratio(c["ids.detections"], inspections),
        "ids.processed_pkts": c["ids.processed_pkts"],
        "ids.dropped_pkts": c["ids.dropped_pkts"],
        "net.trace_encode_s": rec.total("net.trace_encode"),
        "net.trace_decode_s": rec.total("net.trace_decode"),
        "net.trace_bytes": c["net.trace_bytes"],
        "eval.scenario_unit_s": rec.total("eval.scenario_unit"),
        "eval.scenario_unit_calls": rec.calls("eval.scenario_unit"),
        "eval.rate_unit_s": rec.total("eval.rate_unit"),
        "eval.rate_unit_calls": rec.calls("eval.rate_unit"),
        "eval.accuracy_point_s": rec.total("eval.accuracy_point"),
        "eval.accuracy_point_calls": rec.calls("eval.accuracy_point"),
        "eval.score_alerts_s": rec.total("eval.score_alerts"),
        "eval.latency_probe_s": rec.total("eval.latency_probe"),
        "eval.overhead_probe_s": rec.total("eval.overhead_probe"),
        "eval.corpus_hits": corpus_hits,
        "eval.corpus_misses": corpus_misses,
        "eval.corpus_stores": c["eval.corpus_stores"],
        "eval.corpus_hit_ratio": _ratio(corpus_hits,
                                        corpus_hits + corpus_misses),
        "eval.cache_hits": cache.hits,
        "eval.cache_misses": cache.misses,
        "eval.cache_stores": cache.stores,
        "eval.worker_units": len(rec.units),
        "eval.pool_s": pool_s,
        "eval.pool_utilization": utilization,
        "core.score_s": rec.total("core.finish_field"),
        "report.render_s": rec.total("report.render"),
    }


def span_table(rec: Recorder) -> str:
    """Human-readable span summary, largest total first."""
    rows = sorted(rec.spans.items(), key=lambda kv: -kv[1][1])
    lines = [f"{'span':28} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, total, self_s) in rows:
        lines.append(f"{name:28} {calls:>10} {total:>10.3f} {self_s:>10.3f}")
    return "\n".join(lines)
