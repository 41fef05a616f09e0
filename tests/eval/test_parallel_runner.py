"""Serial-vs-parallel equivalence, unit-result store behaviour, and unit
failures.

The headline risk of parallelizing a deterministic simulator is silently
breaking reproducibility, so the equivalence tests here are load-bearing:
``workers=4`` must produce *bit-identical* results -- dataclass-equal
evaluations and byte-identical rendered tables -- to ``workers=1``, and a
cache hit must be indistinguishable from a fresh run.  A failing unit must
keep every finished unit in the store and name itself in its error.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.profiles import realtime_cluster_requirements
from repro.core.report import format_weighted_results
from repro.eval.corpus import ArtifactStore
from repro.eval.parallel import (
    WorkUnit,
    WorkUnitError,
    _group_cost,
    _input_groups,
    _pool_tasks,
    clear_cache,
    last_cache_stats,
    plan_units,
    run_units,
    unit_key,
)
from repro.eval.runner import (
    EvaluationOptions,
    evaluate_field,
    evaluate_product,
)
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)
from repro.report.figures import figure5_weighted_scores
from repro.report.tables import scorecard_table

TINY = dict(seed=0, n_hosts=3, scenario_duration_s=10.0,
            train_duration_s=4.0, throughput_rates_pps=(500, 1200),
            throughput_probe_s=0.2)

FIELD_PRODUCTS = [NidProduct, AafidProduct]


def options(**overrides) -> EvaluationOptions:
    return EvaluationOptions(**{**TINY, **overrides})


@pytest.fixture(scope="module")
def serial_field():
    return evaluate_field(FIELD_PRODUCTS, realtime_cluster_requirements(),
                          options(workers=1))


@pytest.fixture(scope="module")
def parallel_field():
    return evaluate_field(FIELD_PRODUCTS, realtime_cluster_requirements(),
                          options(workers=4))


class TestSerialParallelEquivalence:
    def test_product_evaluation_fields_identical(self):
        serial = evaluate_product(ManhuntProduct, options(workers=1))
        parallel = evaluate_product(ManhuntProduct, options(workers=4))
        assert serial.name == parallel.name
        assert serial.accuracy == parallel.accuracy
        assert serial.throughput == parallel.throughput
        assert serial.bundle == parallel.bundle
        assert serial == parallel

    def test_field_evaluations_equal(self, serial_field, parallel_field):
        assert serial_field.evaluations == parallel_field.evaluations
        assert serial_field.weights == parallel_field.weights
        assert serial_field.results == parallel_field.results
        assert serial_field.ranking() == parallel_field.ranking()

    def test_rendered_tables_byte_identical(self, serial_field,
                                            parallel_field):
        assert (scorecard_table(serial_field.scorecard) ==
                scorecard_table(parallel_field.scorecard))
        assert (format_weighted_results(serial_field.results) ==
                format_weighted_results(parallel_field.results))
        assert (figure5_weighted_scores(serial_field.results,
                                        serial_field.weights) ==
                figure5_weighted_scores(parallel_field.results,
                                        parallel_field.weights))

    def test_bundle_is_picklable(self, serial_field):
        import pickle

        for evaluation in serial_field.evaluations.values():
            clone = pickle.loads(pickle.dumps(evaluation))
            assert clone == evaluation


class TestWorkPlan:
    def test_canonical_unit_order(self):
        units = plan_units(["a", "b"], options())
        assert units == [
            WorkUnit(0, "a", "scenario"),
            WorkUnit(0, "a", "rate", 500.0),
            WorkUnit(0, "a", "rate", 1200.0),
            WorkUnit(1, "b", "scenario"),
            WorkUnit(1, "b", "rate", 500.0),
            WorkUnit(1, "b", "rate", 1200.0),
        ]

    def test_keys_unique_within_plan(self):
        opts = options()
        keys = [unit_key(u, opts) for u in plan_units(["a", "b"], opts)]
        assert len(set(keys)) == len(keys)

    def test_key_ignores_execution_knobs(self):
        for unit in (WorkUnit(0, "a", "scenario"),
                     WorkUnit(0, "a", "rate", 500.0)):
            assert (unit_key(unit, options(workers=1)) ==
                    unit_key(unit, options(workers=8,
                                           cache_dir="/anywhere")))

    def test_key_tracks_measurement_options(self):
        unit = WorkUnit(0, "a", "scenario")
        assert (unit_key(unit, options()) !=
                unit_key(unit, options(scenario_duration_s=11.0)))
        assert (unit_key(unit, options()) !=
                unit_key(unit, options(seed=1)))

    def test_rate_key_reusable_across_sweep_shapes(self):
        # a probe's result does not depend on the other swept rates
        unit = WorkUnit(0, "a", "rate", 500.0)
        assert (unit_key(unit, options(throughput_rates_pps=(500, 1200))) ==
                unit_key(unit, options(throughput_rates_pps=(500, 9000))))

    def test_scenario_key_tracks_rate_list(self):
        # the scenario unit is keyed on every measurement field, the
        # sweep list included; only rate units drop it
        unit = WorkUnit(0, "a", "scenario")
        assert (unit_key(unit, options(throughput_rates_pps=(500, 1200))) !=
                unit_key(unit, options(throughput_rates_pps=(500, 9000))))


class TestPoolTasks:
    """How the pool's tasks are cut from the input groups (planning only:
    no unit runs)."""

    E1_SHAPE = dict(n_hosts=6, scenario_duration_s=70.0,
                    train_duration_s=30.0,
                    throughput_rates_pps=(500, 1000, 2000, 4000, 8000,
                                          16000, 32000, 64000))

    def plan(self, workers):
        opts = EvaluationOptions(**self.E1_SHAPE)
        groups = _input_groups(plan_units(["a", "b", "c", "d"], opts))
        return opts, groups, _pool_tasks(groups, opts, workers)

    def test_groups_stay_whole_when_they_fit(self):
        # at two workers no E1 group exceeds half of the battery
        _, groups, tasks = self.plan(2)
        assert sorted(tasks) == sorted(groups)

    @pytest.mark.parametrize("workers", [2, 3, 4, 8, 16, 64])
    def test_tasks_partition_the_groups_largest_first(self, workers):
        opts, groups, tasks = self.plan(workers)
        assert (sorted(u for t in tasks for u in t) ==
                sorted(u for g in groups for u in g))
        assert all(len({u.rate_pps for u in t}) == 1 for t in tasks)
        costs = [_group_cost(t, opts) for t in tasks]
        assert costs == sorted(costs, reverse=True)

    @pytest.mark.parametrize("workers", [2, 3, 4, 8, 16, 64])
    def test_only_groups_over_one_workers_share_are_split(self, workers):
        # no task may cap the pool's speedup: each fits one worker's
        # share of the battery unless it is a single unit
        opts, groups, tasks = self.plan(workers)
        share = sum(_group_cost(g, opts) for g in groups) / workers
        for task in tasks:
            assert len(task) == 1 or _group_cost(task, opts) <= share
        for group in groups:
            parts = [t for t in tasks if t[0] in group]
            assert (len(parts) > 1) == (_group_cost(group, opts) > share)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, serial_field):
        cache_dir = str(tmp_path / "cache")
        opts = options(cache_dir=cache_dir)
        first = evaluate_field(FIELD_PRODUCTS,
                               realtime_cluster_requirements(), opts)
        stats = last_cache_stats()
        n_units = len(plan_units(["a", "b"], opts))
        assert (stats.hits, stats.misses, stats.stores) == (0, n_units,
                                                            n_units)

        second = evaluate_field(FIELD_PRODUCTS,
                                realtime_cluster_requirements(), opts)
        stats = last_cache_stats()
        assert (stats.hits, stats.misses, stats.stores) == (n_units, 0, 0)

        assert first.evaluations == second.evaluations
        assert first.evaluations == serial_field.evaluations
        assert (scorecard_table(second.scorecard) ==
                scorecard_table(serial_field.scorecard))

    def test_invalidation_on_option_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        opts = options(cache_dir=cache_dir,
                       throughput_rates_pps=(500,))
        evaluate_product(AafidProduct, opts)
        assert last_cache_stats().stores == 2  # scenario + one rate

        # a changed scenario knob misses the scenario unit again
        changed = options(cache_dir=cache_dir, throughput_rates_pps=(500,),
                          scenario_duration_s=11.0)
        evaluate_product(AafidProduct, changed)
        assert last_cache_stats().misses >= 1
        assert last_cache_stats().hits <= 1

    def test_shared_cache_across_worker_counts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        evaluate_product(AafidProduct, options(cache_dir=cache_dir,
                                               workers=1))
        evaluate_product(AafidProduct, options(cache_dir=cache_dir,
                                               workers=4))
        stats = last_cache_stats()
        assert stats.misses == 0 and stats.stores == 0
        assert stats.hits == len(plan_units(["a"], options()))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        opts = options(cache_dir=cache_dir, throughput_rates_pps=(500,))
        baseline = evaluate_product(AafidProduct, opts)
        # two corruption shapes: UnpicklingError and the ValueError that
        # pickle raises on text garbage ("garbage\n")
        for junk in (b"not a pickle", b"garbage\n"):
            for name in os.listdir(cache_dir):
                if not name.endswith(".pkl"):
                    continue        # skip the stored traces
                with open(os.path.join(cache_dir, name), "wb") as fh:
                    fh.write(junk)
            again = evaluate_product(AafidProduct, opts)
            assert again == baseline
            assert last_cache_stats().misses == 2
            assert last_cache_stats().unreadable == 2

    def test_clear_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        opts = options(cache_dir=cache_dir, throughput_rates_pps=(500,))
        evaluate_product(AafidProduct, opts)

        def entries(suffix):
            return [n for n in os.listdir(cache_dir) if n.endswith(suffix)]

        assert len(entries(".pkl")) == 2
        n_traces = len(entries(".rtrc"))
        assert n_traces > 0
        # clear-cache drops the work units and the traces together
        assert clear_cache(cache_dir) == 2 + n_traces
        assert not os.listdir(cache_dir)
        assert clear_cache(cache_dir) == 0

    def test_unpicklable_factory_degrades_to_inline(self):
        sensitivity = 0.7
        factory = lambda: ManhuntProduct(sensitivity=sensitivity)  # noqa: E731
        opts = options(workers=4, throughput_rates_pps=(500,))
        parallel = evaluate_product(factory, opts)
        serial = evaluate_product(factory, options(
            throughput_rates_pps=(500,)))
        assert parallel == serial


class TrippingProduct(AafidProduct):
    """AAFID whose 1200-pps throughput probe raises.

    Load probes are the only units that deploy untrained, and at TINY's
    0.2 s probe the 500-pps rung offers 100 packets, the 1200-pps rung 240.
    """

    def deploy(self, engine, testbed):
        dep = super().deploy(engine, testbed)
        dep.trained = False
        train_on, ingest = dep.train_on, dep.ingest

        def trained_on(trace):
            dep.trained = True
            train_on(trace)

        def ingest_or_trip(pkt):
            if not dep.trained and dep.ingested >= 150:
                raise RuntimeError("tripwire")
            ingest(pkt)

        dep.train_on, dep.ingest = trained_on, ingest_or_trip
        return dep


#: The test process; a pool worker is any other.
PARENT_PID = os.getpid()


class DyingProduct(AafidProduct):
    """AAFID whose 1200-pps probe kills the pool worker running it (and
    only raises when run in this process)."""

    def deploy(self, engine, testbed):
        dep = super().deploy(engine, testbed)
        ingest = dep.ingest

        def ingest_or_die(pkt):
            if len(testbed.hosts) == 4 and dep.ingested >= 150:
                if os.getpid() == PARENT_PID:
                    raise RuntimeError("would kill the worker")
                os._exit(3)
            ingest(pkt)

        dep.ingest = ingest_or_die
        return dep


class TestUnitFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_unit_keeps_finished_units(self, tmp_path, workers):
        # the tripping unit shares its 1200-pps input group with NID
        opts = options(cache_dir=str(tmp_path / "cache"), workers=workers)
        with pytest.raises(WorkUnitError) as info:
            run_units([TrippingProduct, NidProduct], opts)
        failed = WorkUnit(index=0, product="sim-aafid", kind="rate",
                          rate_pps=1200.0)
        assert info.value.unit == failed
        assert "sim-aafid rate unit at 1200 pps" in str(info.value)
        assert "tripwire" in str(info.value.__cause__)
        store = ArtifactStore(opts.cache_dir)
        units = plan_units(["sim-aafid", "sim-nid"], opts)
        assert WorkUnit(1, "sim-nid", "rate", 1200.0) in units
        for unit in units:
            stored = store.load(unit_key(unit, opts))
            assert (stored is None) == (unit == failed), unit

    def test_dead_worker_fails_its_whole_group(self, tmp_path):
        opts = options(cache_dir=str(tmp_path / "cache"), workers=2)
        with pytest.raises(WorkUnitError) as info:
            run_units([DyingProduct, NidProduct], opts)
        group = [WorkUnit(0, "sim-aafid", "rate", 1200.0),
                 WorkUnit(1, "sim-nid", "rate", 1200.0)]
        # TINY's 1200-pps group fits one worker's share, so it is one task
        assert group in _pool_tasks(_input_groups(plan_units(
            ["sim-aafid", "sim-nid"], opts)), opts, 2)
        assert info.value.unit.product == "sim-aafid"
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        store = ArtifactStore(opts.cache_dir)
        for unit in group:
            assert store.load(unit_key(unit, opts)) is None


@pytest.mark.slow
class TestMultiWorkerStress:
    def test_full_field_equivalence_under_contention(self):
        """All four products, more workers than cores: equivalence must
        survive arbitrary completion interleavings."""
        factories = [NidProduct, RealSecureProduct, ManhuntProduct,
                     AafidProduct]
        serial = evaluate_field(factories, realtime_cluster_requirements(),
                                options(workers=1))
        for workers in (2, 4, 8):
            parallel = evaluate_field(factories,
                                      realtime_cluster_requirements(),
                                      options(workers=workers))
            assert parallel.evaluations == serial.evaluations
            assert (scorecard_table(parallel.scorecard) ==
                    scorecard_table(serial.scorecard))
            assert parallel.ranking() == serial.ranking()
