"""Work units, their process-pool fan-out and their memoization.

The paper's prototype evaluation (section 3.2) runs every product through
the full measurement battery; field evaluations and robustness sweeps
therefore scale with products x seeds x throughput rates.  This module
shards that battery into its independent work units
(:func:`repro.eval.runner.measure_scenario` per product and
:func:`repro.eval.runner.measure_rate` per (product, offered-rate)) and is
the one path every battery run takes: :func:`run_units` executes the
units in-line (``workers=1``) or on a ``ProcessPoolExecutor``, and merges
the results *deterministically* -- always ordered by work-unit key, never
by completion time -- so any worker count produces bit-identical output.

With a ``cache_dir``, completed units are memoized in the artifact store
(:mod:`repro.eval.corpus`) under a key of (product name, kind, rate, the
measurement-relevant ``EvaluationOptions`` fields by name including the
seed, and the source digest), and the same store serves every generated
trace to the running units.  ``workers`` and ``cache_dir`` themselves are
excluded from the key: they change how the battery executes, never what
it measures.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..products.base import Product
from .corpus import (ArtifactStore, CacheStats, artifact_key, open_store,
                     serving)
from .runner import EvaluationOptions, measure_rate, measure_scenario

__all__ = ["DEFAULT_CACHE_DIR", "WorkUnit", "WorkUnitError", "CacheStats",
           "clear_cache", "plan_units", "run_units", "unit_key",
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

    def __str__(self) -> str:
        if self.kind == "rate":
            return f"{self.product} rate unit at {self.rate_pps:g} pps"
        return f"{self.product} {self.kind} unit"


class WorkUnitError(RuntimeError):
    """A work unit raised; the original exception is the ``__cause__``."""

    def __init__(self, unit: WorkUnit, cause: Exception) -> None:
        super().__init__(f"{unit} failed: {cause!r}")
        self.unit = unit


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
    """Run one work unit (in a pool worker or in-line), its traces served
    from the store under ``options.cache_dir``.

    Returns ``(result, corpus_delta)``: the delta is the
    :class:`CacheStats` the unit's trace lookups added -- measured per unit
    so the parent can aggregate counters from pool workers without sharing
    state.
    """
    store = open_store(options.cache_dir)
    before = _trace_counts(store)
    with serving(store):
        if unit.kind == "scenario":
            result = measure_scenario(factory, options)
        else:
            result = measure_rate(factory, unit.rate_pps, options)
    return result, _trace_counts(store) - before


def _trace_counts(store: Optional[ArtifactStore]) -> CacheStats:
    return replace(store.traces) if store is not None else CacheStats()


# ----------------------------------------------------------------------
# keys
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
    """The store key of one unit's result.

    The scenario unit carries the dependability measurement, so the fault
    plan participates in its key: faulted and clean runs never read each
    other's entries.
    """
    token = _options_token(
        options, _RATE_INDEPENDENT if unit.kind == "rate" else frozenset())
    return artifact_key("unit", (("product", unit.product),
                                 ("kind", unit.kind),
                                 ("rate_pps", unit.rate_pps)) + token)


def clear_cache(cache_dir: str = DEFAULT_CACHE_DIR) -> int:
    """Delete every stored unit result and trace under ``cache_dir``;
    returns how many entries were removed."""
    return open_store(cache_dir).clear()


#: Unit-result counters of the most recent run_units() call (None before
#: the first and for runs without a store).
_LAST_STATS: Optional[CacheStats] = None

#: Trace counters aggregated over the units of the most recent
#: run_units() call (None likewise).
_LAST_CORPUS: Optional[CacheStats] = None


def last_cache_stats() -> Optional[CacheStats]:
    """Unit-result counters from the most recent harness invocation."""
    return _LAST_STATS


def last_corpus_stats() -> Optional[CacheStats]:
    """Trace counters from the most recent harness invocation, aggregated
    across executed units (pool workers included)."""
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

    Stored units are loaded first; the rest run in-line (``workers=1``) or
    are fanned out across ``options.workers`` processes (unpicklable
    factories -- e.g. lambdas from an interactive sweep -- degrade
    gracefully to in-line execution).  Each unit is stored as soon as it
    finishes.  If units raise, every other unit still runs and is stored,
    then the first failing unit in canonical order is re-raised as a
    :class:`WorkUnitError`.  The returned mapping is keyed by
    :class:`WorkUnit` in canonical order, independent of completion order.
    """
    global _LAST_STATS, _LAST_CORPUS
    names = [factory().name for factory in factories]
    units = plan_units(names, options)
    store = open_store(options.cache_dir)
    before = replace(store.units) if store is not None else None

    results: Dict[WorkUnit, object] = {}
    pending: List[WorkUnit] = []
    for unit in units:
        cached = (store.load(unit_key(unit, options))
                  if store is not None else None)
        if cached is not None:
            results[unit] = cached
        else:
            pending.append(unit)

    workers = options.workers if options.workers > 0 else (os.cpu_count() or 1)
    pool_units = [u for u in pending
                  if workers > 1 and _is_picklable(factories[u.index])]
    inline_units = [u for u in pending if u not in pool_units]

    corpus = CacheStats()
    failures: Dict[WorkUnit, Exception] = {}

    def finish(unit: WorkUnit, run: Callable[[], tuple]) -> None:
        nonlocal corpus
        try:
            result, delta = run()
        except Exception as exc:
            failures[unit] = exc
            return
        results[unit] = result
        corpus = corpus + delta
        if store is not None:
            store.save(unit_key(unit, options), result)

    if pool_units:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(pool_units))) as pool:
            futures = {
                pool.submit(_execute_unit, factories[unit.index], unit,
                            options): unit
                for unit in pool_units}
            for future in as_completed(futures):
                finish(futures[future], future.result)
    for unit in inline_units:
        finish(unit, partial(_execute_unit, factories[unit.index], unit,
                             options))

    _LAST_STATS = store.units - before if store is not None else None
    _LAST_CORPUS = corpus if store is not None else None
    if failures:
        first = min(failures)
        raise WorkUnitError(first, failures[first]) from failures[first]
    # canonical order: by work-unit key, never by completion time
    return {unit: results[unit] for unit in sorted(results)}
