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

Units run in *input groups* (the scenario units; then all units at one
probe rate), each under its own retention scope
(:func:`repro.eval.corpus.serving`): every trace is built once per run,
shared read-only by the products and dropped before the next group's is
built.  The pool receives the groups largest estimated work first; a
group worth more than one worker's share of the battery is split, so no
single task caps the pool's speedup.

With a ``cache_dir``, completed units are memoized in the artifact store
(:mod:`repro.eval.corpus`) under a key of (product name, kind, rate, the
measurement-relevant ``EvaluationOptions`` fields by name including the
seed, and the source digest), and the same store backs every group's
traces.  ``workers`` and ``cache_dir`` themselves are excluded from the
key: they change how the battery executes, never what it measures.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..products.base import Product
from .corpus import CacheStats, artifact_key, open_store, serving
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


def _input_groups(units: Sequence[WorkUnit]) -> List[List[WorkUnit]]:
    """``units`` grouped by shared input, each group in canonical order:
    the scenario units (rate 0: one warmup, one scenario), then one group
    per rate, ascending (one load trace)."""
    groups: Dict[float, List[WorkUnit]] = {}
    for unit in sorted(units, key=lambda u: (u.rate_pps, u)):
        groups.setdefault(unit.rate_pps, []).append(unit)
    return list(groups.values())


def _group_cost(group: Sequence[WorkUnit],
                options: EvaluationOptions) -> float:
    """Estimated work of one group, in offered load-probe packets.  A
    scenario unit counts 50 per host per scenario and warmup second: an E1
    scenario unit runs about as long as a 30,000-packet probe."""
    scenario = 50.0 * options.n_hosts * (options.scenario_duration_s
                                         + options.train_duration_s)
    return sum(u.rate_pps * options.throughput_probe_s
               if u.kind == "rate" else scenario for u in group)


def _pool_tasks(groups: Sequence[List[WorkUnit]], options: EvaluationOptions,
                workers: int) -> List[List[WorkUnit]]:
    """The pool's tasks, largest estimated work first (LPT).  A group
    worth more than one worker's share of the battery is cut into parts of
    as many units as fit that share (at least one), so no task caps the
    pool's speedup; every other group stays whole and shares one trace."""
    share = sum(_group_cost(g, options) for g in groups) / workers
    tasks: List[List[WorkUnit]] = []
    for group in groups:
        unit = _group_cost(group[:1], options)  # a group's units cost alike
        fit = max(1, int(share // unit)) if unit else len(group)
        tasks.extend(group[i:i + fit] for i in range(0, len(group), fit))
    return sorted(tasks, key=lambda t: -_group_cost(t, options))


def _run_group(group: Sequence[WorkUnit],
               factories: Mapping[int, ProductFactory],
               options: EvaluationOptions) -> Tuple[Dict, CacheStats]:
    """Run one input group, or part of one (in a pool worker or in-line),
    under one retention scope, backed by the store under
    ``options.cache_dir``; ``factories[unit.index]`` is each unit's factory.

    Every unit runs even when another raises.  Returns ``{unit: result or
    the exception it raised}`` and the group's trace counters, which the
    parent aggregates across pool workers."""
    store = open_store(options.cache_dir)
    outcomes: Dict[WorkUnit, object] = {}
    with serving(store):
        for unit in group:
            factory = factories[unit.index]
            try:
                outcomes[unit] = (
                    measure_scenario(factory, options)
                    if unit.kind == "scenario"
                    else measure_rate(factory, unit.rate_pps, options))
            except Exception as exc:
                outcomes[unit] = exc
    return outcomes, store.traces if store is not None else CacheStats()


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

    Stored units are loaded first; the rest run by input group, in-line
    (``workers=1``) or fanned out across ``options.workers`` processes
    (unpicklable factories -- e.g. lambdas from an interactive sweep --
    degrade gracefully to in-line execution).  Each unit is stored as soon
    as its group finishes.  If units raise, every other unit still runs
    and is stored, then the first failing unit in canonical order is
    re-raised as a :class:`WorkUnitError`; a task whose worker died fails
    all its units.  The returned mapping is keyed by :class:`WorkUnit` in
    canonical order, independent of completion order.
    """
    global _LAST_STATS, _LAST_CORPUS
    names = [factory().name for factory in factories]
    units = plan_units(names, options)
    store = open_store(options.cache_dir)

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
    pooled = [workers > 1 and _is_picklable(factory)
              for factory in factories]
    pool_groups = _input_groups([u for u in pending if pooled[u.index]])
    inline_groups = _input_groups([u for u in pending
                                   if not pooled[u.index]])

    corpus = CacheStats()
    failures: Dict[WorkUnit, Exception] = {}

    def call(group: Sequence[WorkUnit]) -> Callable[[], tuple]:
        return partial(_run_group, group,
                       {u.index: factories[u.index] for u in group}, options)

    def finish(group: Sequence[WorkUnit], run: Callable[[], tuple]) -> None:
        nonlocal corpus
        try:
            outcomes, delta = run()
        except Exception as exc:  # the task's worker died
            outcomes, delta = dict.fromkeys(group, exc), CacheStats()
        corpus = corpus + delta
        for unit, outcome in outcomes.items():
            if isinstance(outcome, Exception):
                failures[unit] = outcome
            else:
                results[unit] = outcome
                if store is not None:
                    store.save(unit_key(unit, options), outcome)

    if pool_groups:
        tasks = _pool_tasks(pool_groups, options, workers)
        with ProcessPoolExecutor(
                max_workers=min(workers, len(tasks))) as pool:
            futures = {pool.submit(call(group)): group for group in tasks}
            for future in as_completed(futures):
                finish(futures[future], future.result)
    for group in inline_groups:
        finish(group, call(group))

    _LAST_STATS = store.units if store is not None else None
    _LAST_CORPUS = corpus if store is not None else None
    if failures:
        first = min(failures)
        raise WorkUnitError(first, failures[first]) from failures[first]
    # canonical order: by work-unit key, never by completion time
    return {unit: results[unit] for unit in sorted(results)}
