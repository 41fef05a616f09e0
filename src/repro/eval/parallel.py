"""Process-pool fan-out and on-disk memoization for the evaluation battery.

The paper's prototype evaluation (section 3.2) runs every product through
the full measurement battery; field evaluations and robustness sweeps
therefore scale with products x seeds x throughput rates.  This module
shards that battery across its independent work units
(:func:`repro.eval.runner.measure_scenario` per product and
:func:`repro.eval.runner.measure_rate` per (product, offered-rate)),
executes them on a ``ProcessPoolExecutor``, and merges the results
*deterministically* -- always ordered by work-unit key, never by
completion time -- so any worker count produces bit-identical output.

Completed units are memoized in an on-disk cache (default
``.repro-cache/``) keyed by a content hash of (product name, the
measurement-relevant ``EvaluationOptions`` fields including the seed, the
attack-catalog version, and the package version).  ``workers`` and
``cache_dir`` themselves are excluded from the key: they change how the
battery executes, never what it measures.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..attacks.catalog import CATALOG_VERSION
from ..core.catalog import MetricCatalog
from ..core.requirements import RequirementSet
from ..products.base import Product
from .corpus import CorpusStats, clear_corpus, corpus_stats
from .runner import (
    EvaluationOptions,
    FieldEvaluation,
    ProductEvaluation,
    assemble_evaluation,
    finish_field,
    measure_rate,
    measure_scenario,
)

__all__ = ["DEFAULT_CACHE_DIR", "WorkUnit", "CacheStats", "ResultCache",
           "clear_cache", "plan_units", "run_units", "unit_key",
           "evaluate_product_parallel", "evaluate_field_parallel",
           "last_cache_stats", "last_corpus_stats"]

DEFAULT_CACHE_DIR = ".repro-cache"

ProductFactory = Callable[[], Product]


# ----------------------------------------------------------------------
# work units
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class WorkUnit:
    """One independently executable shard of the battery.

    The tuple ordering (product position, kind, rate) is the canonical
    merge order: results are always reassembled by sorted key, so the
    completion order of pool workers can never influence the output.
    """

    index: int            # position of the product in the input sequence
    product: str
    kind: str             # "scenario" | "rate"
    rate_pps: float = 0.0  # offered rate for "rate" units


def plan_units(names: Sequence[str],
               options: EvaluationOptions) -> List[WorkUnit]:
    """The full shard plan for a product field, in canonical order."""
    units: List[WorkUnit] = []
    for index, name in enumerate(names):
        units.append(WorkUnit(index=index, product=name, kind="scenario"))
        for rate in sorted(float(r) for r in options.throughput_rates_pps):
            units.append(WorkUnit(index=index, product=name, kind="rate",
                                  rate_pps=rate))
    return units


def _execute_unit(factory: ProductFactory, unit: WorkUnit,
                  options: EvaluationOptions):
    """Run one work unit (in a pool worker or in-line).

    Returns ``(result, corpus_delta)`` where the delta is the
    ``(hits, misses, stores)`` the unit added to this process's trace
    corpus -- measured per unit so the parent can aggregate counters from
    pool workers without sharing state.
    """
    before = corpus_stats().as_tuple()
    if unit.kind == "scenario":
        result = measure_scenario(factory, options)
    else:
        result = measure_rate(factory, unit.rate_pps, options)
    after = corpus_stats().as_tuple()
    return result, tuple(a - b for a, b in zip(after, before))


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
#: Option fields that change how the battery executes, never what it
#: measures: parallelism must never change results, so it must never
#: change cache keys either.  Every other field is part of the key.
_EXECUTION_FIELDS = frozenset(("workers", "cache_dir"))

#: Fields a "rate" unit's result does not depend on: one probe ignores the
#: other probe rates (so probes cached at one sweep shape are reusable
#: under any other sweep containing the same rate) and never runs faults.
_RATE_INDEPENDENT = frozenset(
    ("throughput_rates_pps", "faults", "fault_severities"))


def _options_token(options: EvaluationOptions,
                   drop: frozenset = frozenset()) -> Tuple:
    """``(name, value)`` pairs of the measurement-relevant option fields
    not in ``drop``, in declaration order; sequences become float tuples
    so ``[500]`` and ``(500.0,)`` key alike."""
    token = []
    for f in fields(options):
        if f.name in _EXECUTION_FIELDS or f.name in drop:
            continue
        value = getattr(options, f.name)
        if isinstance(value, (list, tuple)):
            value = tuple(float(v) for v in value)
        token.append((f.name, value))
    return tuple(token)


def unit_key(unit: WorkUnit, options: EvaluationOptions) -> str:
    """Content hash identifying one unit's result on disk.

    The scenario unit carries the dependability measurement, so the fault
    plan participates in its key: faulted and clean runs never read each
    other's cache entries.
    """
    token = _options_token(
        options, _RATE_INDEPENDENT if unit.kind == "rate" else frozenset())
    payload = repr(("repro-eval", __version__, CATALOG_VERSION,
                    unit.product, unit.kind, unit.rate_pps, token))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one harness invocation."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Pickle-per-unit on-disk memo under ``root`` (flat, content-keyed).

    Corrupt or unreadable entries are treated as misses and overwritten;
    writes are atomic (temp file + rename) so a killed run never leaves a
    half-written entry behind.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def load(self, key: str):
        """Return the cached result or None on a miss."""
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
        except Exception:
            # any unreadable entry -- missing, truncated, garbage bytes,
            # stale class layout -- is a miss to be recomputed, never a crash
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def store(self, key: str, value) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.stores += 1

    def __len__(self) -> int:
        if not os.path.isdir(self.root):
            return 0
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".pkl"))


def clear_cache(cache_dir: str = DEFAULT_CACHE_DIR) -> int:
    """Delete every cached unit result *and* every stored corpus trace;
    returns how many entries were removed."""
    removed = clear_corpus(cache_dir)
    if not os.path.isdir(cache_dir):
        return removed
    for name in os.listdir(cache_dir):
        if name.endswith((".pkl", ".tmp")):
            os.unlink(os.path.join(cache_dir, name))
            removed += 1
    return removed


#: Stats of the most recent run_units() invocation (None before the first).
_LAST_STATS: Optional[CacheStats] = None

#: Trace-corpus counters aggregated over the most recent run_units() call.
_LAST_CORPUS: Optional[CorpusStats] = None


def last_cache_stats() -> Optional[CacheStats]:
    """Cache counters from the most recent harness invocation."""
    return _LAST_STATS


def last_corpus_stats() -> Optional[CorpusStats]:
    """Trace-corpus counters from the most recent harness invocation,
    aggregated across executed units (pool workers included)."""
    return _LAST_CORPUS


# ----------------------------------------------------------------------
# the fan-out
# ----------------------------------------------------------------------
def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def run_units(
    factories: Sequence[ProductFactory],
    options: EvaluationOptions,
) -> Dict[WorkUnit, object]:
    """Execute the full shard plan and return ``{unit: result}``.

    Cached units are loaded first; the rest are fanned out across
    ``options.workers`` processes (unpicklable factories -- e.g. lambdas
    from an interactive sweep -- degrade gracefully to in-process
    execution).  The returned mapping is keyed by :class:`WorkUnit` in
    canonical order, independent of completion order.
    """
    global _LAST_STATS, _LAST_CORPUS
    names = [factory().name for factory in factories]
    by_name = dict(zip(names, factories))
    units = plan_units(names, options)

    cache = (ResultCache(options.cache_dir)
             if options.cache_dir is not None else None)
    results: Dict[WorkUnit, object] = {}
    pending: List[WorkUnit] = []
    for unit in units:
        cached = (cache.load(unit_key(unit, options))
                  if cache is not None else None)
        if cached is not None:
            results[unit] = cached
        else:
            pending.append(unit)

    workers = options.workers if options.workers > 0 else (os.cpu_count() or 1)
    pool_units = [u for u in pending
                  if workers > 1 and _is_picklable(by_name[u.product])]
    inline_units = [u for u in pending if u not in pool_units]

    corpus_totals = CorpusStats()

    def _record(unit: WorkUnit, outcome) -> None:
        result, delta = outcome
        results[unit] = result
        corpus_totals.hits += delta[0]
        corpus_totals.misses += delta[1]
        corpus_totals.stores += delta[2]

    if pool_units:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(pool_units))) as pool:
            futures = {
                unit: pool.submit(_execute_unit, by_name[unit.product],
                                  unit, options)
                for unit in pool_units}
            for unit, future in futures.items():
                _record(unit, future.result())
    for unit in inline_units:
        _record(unit, _execute_unit(by_name[unit.product], unit, options))

    if cache is not None:
        for unit in pending:
            cache.store(unit_key(unit, options), results[unit])
        _LAST_STATS = cache.stats
    else:
        _LAST_STATS = None
    _LAST_CORPUS = corpus_totals
    # canonical order: by work-unit key, never by completion time
    return {unit: results[unit] for unit in sorted(results)}


def _assemble(results: Dict[WorkUnit, object], names: Sequence[str],
              options: EvaluationOptions) -> Dict[str, ProductEvaluation]:
    evaluations: Dict[str, ProductEvaluation] = {}
    for index, name in enumerate(names):
        scenario = results[WorkUnit(index=index, product=name,
                                    kind="scenario")]
        probes = [results[unit] for unit in sorted(results)
                  if unit.index == index and unit.kind == "rate"]
        evaluations[name] = assemble_evaluation(scenario, probes, options)
    return evaluations


def evaluate_product_parallel(
    factory: ProductFactory,
    options: EvaluationOptions,
) -> ProductEvaluation:
    """Parallel/cached equivalent of :func:`repro.eval.evaluate_product`."""
    name = factory().name
    results = run_units([factory], options)
    return _assemble(results, [name], options)[name]


def evaluate_field_parallel(
    factories: Sequence[ProductFactory],
    requirements: RequirementSet,
    options: EvaluationOptions,
    catalog: Optional[MetricCatalog] = None,
) -> FieldEvaluation:
    """Parallel/cached equivalent of :func:`repro.eval.evaluate_field`.

    Every unit of every product shares one pool, so a slow product's
    throughput sweep overlaps the next product's scenario run.  Scoring
    and weighting happen in the parent process, in factory input order.
    """
    names = [factory().name for factory in factories]
    results = run_units(factories, options)
    evaluations = _assemble(results, names, options)
    return finish_field(evaluations, requirements, catalog)
