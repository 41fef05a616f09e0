"""The artifact store's trace corpus: hit/miss semantics, source-digest
keys, result equivalence, and the ``clear-cache`` extension.

Stored traces are a pure execution optimization: a battery run with a warm
store must produce results equal to a cold run, which must equal a run
with no store at all.  Entries are content-keyed (including the source
digest), corrupt entries are regenerated and counted, and outside a store
the generators run directly.
"""

import gc
import os
import pickle
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.profiles import realtime_cluster_requirements
from repro.eval import corpus, throughput
from repro.eval.corpus import (
    ArtifactStore,
    CacheStats,
    corpus_trace,
    open_store,
    serving,
)
from repro.eval.accuracy import sensitivity_sweep
from repro.eval.parallel import (WorkUnitError, clear_cache,
                                 last_cache_stats, last_corpus_stats,
                                 run_units)
from repro.eval.runner import (EvaluationOptions, evaluate_field,
                               evaluate_product, measure_rate,
                               measure_scenario)
from repro.eval.testbed import EvalTestbed, cluster_scenario
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                            RealSecureProduct)
from repro.traffic.mixer import Scenario, ScenarioBuilder

A = IPv4Address("10.9.0.1")
B = IPv4Address("10.9.0.2")

TINY = dict(seed=0, n_hosts=3, scenario_duration_s=10.0,
            train_duration_s=4.0, throughput_rates_pps=(500, 1200),
            throughput_probe_s=0.2)


def small_trace(tag: bytes) -> Trace:
    trace = Trace("small")
    trace.append(0.0, Packet(src=A, dst=B, sport=1, dport=80, payload=tag))
    return trace


KEY = (("k", 1),)


class TestTraceCorpus:
    def test_miss_store_hit(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        built = []

        def build():
            built.append(1)
            return small_trace(b"x")

        first = store.trace("t", KEY, build)
        assert built == [1]
        assert store.traces == CacheStats(hits=0, misses=1, stores=1)
        for _ in range(2):
            from_disk = store.trace("t", KEY, build)
            assert built == [1]             # disk hit, no rebuild
            assert from_disk is not first   # the store keeps no memory
            assert [p.payload for _, p in from_disk] == [b"x"]
        assert store.traces.hits == 2

    def test_distinct_tokens_distinct_entries(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        t1 = store.trace("t", (("k", 1),), lambda: small_trace(b"one"))
        t2 = store.trace("t", (("k", 2),), lambda: small_trace(b"two"))
        assert [p.payload for _, p in t1] != [p.payload for _, p in t2]
        assert store.traces.misses == 2

    def test_corrupt_entry_is_regenerated(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.trace("t", KEY, lambda: small_trace(b"good"))
        (entry,) = [n for n in os.listdir(tmp_path) if n.endswith(".rtrc")]
        with open(os.path.join(str(tmp_path), entry), "wb") as fh:
            fh.write(b"RTRCgarbage")
        rebuilt = store.trace("t", KEY, lambda: small_trace(b"good"))
        assert [p.payload for _, p in rebuilt] == [b"good"]
        assert store.traces == CacheStats(hits=0, misses=2, stores=2,
                                          unreadable=1)

        # a scenario entry whose metadata sidecar is missing, then corrupt
        def build():
            return Scenario(name="s", trace=small_trace(b"s"), attacks=[],
                            duration_s=1.0, seed=0)

        store.scenario("s", KEY, build)
        (meta,) = [os.path.join(str(tmp_path), n)
                   for n in os.listdir(tmp_path) if n.endswith(".meta")]
        for damage in (os.unlink, lambda path: open(path, "wb").close()):
            damage(meta)
            assert store.scenario("s", KEY, build).name == "s"
        assert store.traces == CacheStats(hits=0, misses=5, stores=5,
                                          unreadable=3)

    def test_scenario_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        nodes = [IPv4Address(f"10.9.1.{i}") for i in range(1, 5)]

        def build():        # outside a store: built raw, uncached
            return cluster_scenario(nodes, duration_s=8.0, seed=3)

        cold = store.scenario("s", KEY, build)
        warm = store.scenario("s", KEY, build)
        assert warm.name == cold.name
        assert warm.duration_s == cold.duration_s
        assert warm.seed == cold.seed
        assert pickle.dumps(warm.attacks) == pickle.dumps(cold.attacks)
        assert len(warm.trace) == len(cold.trace)
        assert [(t, p.src.value, p.payload, p.attack_id)
                for t, p in warm.trace] == \
            [(t, p.src.value, p.payload, p.attack_id)
             for t, p in cold.trace]


class TestAmbientActivation:
    def test_serving_activates_and_restores(self, tmp_path):
        built = []

        def build():
            built.append(1)
            return small_trace(b"x")

        with serving(ArtifactStore(str(tmp_path))):
            corpus_trace("t", KEY, build)
            with serving(None):          # a nested scope, its own memo
                corpus_trace("t", KEY, build)
            corpus_trace("t", KEY, build)
        corpus_trace("t", KEY, build)
        assert built == [1, 1, 1]        # only the second outer call hit

    def test_helpers_fall_through_when_inactive(self, tmp_path):
        built = []

        def build():
            built.append(1)
            return small_trace(b"x")

        corpus_trace("t", KEY, build)
        corpus_trace("t", KEY, build)
        assert built == [1, 1]           # no store: no memoization
        assert not os.listdir(tmp_path)

    def test_open_store_is_not_process_global(self, tmp_path):
        assert open_store(None) is None
        store = open_store(str(tmp_path))
        assert store.root == str(tmp_path)
        assert open_store(str(tmp_path)) is not store

    def test_corpus_stats_aggregates(self, tmp_path):
        store = open_store(str(tmp_path / "agg"))
        base = replace(store.traces)
        with serving(store):
            corpus_trace("t", KEY, lambda: small_trace(b"x"))
            corpus_trace("t", KEY, lambda: small_trace(b"x"))
        assert store.traces - base == CacheStats(hits=1, misses=1, stores=1)


class TestSourceDigest:
    def test_digest_is_memoized_hex(self):
        digest = corpus.source_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert corpus.source_digest() is digest

    def test_source_edit_misses_and_recomputes(self, tmp_path, monkeypatch):
        """Stored artifacts are never served across a source change."""
        opts = EvaluationOptions(**{**TINY, "throughput_rates_pps": (500,)},
                                 cache_dir=str(tmp_path / "cache"))
        first = evaluate_product(AafidProduct, opts)
        traces = last_corpus_stats().misses
        assert traces > 0
        monkeypatch.setattr(corpus, "source_digest", lambda: "edited")
        again = evaluate_product(AafidProduct, opts)
        assert last_cache_stats() == CacheStats(hits=0, misses=2, stores=2)
        assert last_corpus_stats() == CacheStats(hits=0, misses=traces,
                                                 stores=traces)
        assert again == first


class TestBatteryIntegration:
    def test_warm_corpus_equals_cold_equals_uncached(self, tmp_path):
        cache = str(tmp_path / "cache")
        uncached = evaluate_product(ManhuntProduct,
                                    EvaluationOptions(**TINY))
        cold = evaluate_product(ManhuntProduct,
                                EvaluationOptions(**TINY, cache_dir=cache))
        assert last_corpus_stats().misses > 0
        assert last_corpus_stats().stores > 0
        # drop the unit results but keep the traces: everything re-runs
        # against stored traces
        for name in os.listdir(cache):
            if name.endswith(".pkl"):
                os.unlink(os.path.join(cache, name))
        warm = evaluate_product(ManhuntProduct,
                                EvaluationOptions(**TINY, cache_dir=cache))
        assert last_corpus_stats().misses == 0
        assert last_corpus_stats().hits > 0
        assert cold == uncached
        assert warm == uncached

    def test_clear_cache_clears_corpus_too(self, tmp_path):
        cache = str(tmp_path / "cache")
        evaluate_product(ManhuntProduct,
                         EvaluationOptions(**TINY, cache_dir=cache))
        assert any(n.endswith(".rtrc") for n in os.listdir(cache))
        removed = clear_cache(cache)
        assert removed > 0
        assert not os.listdir(cache)

    def test_clear_corpus_missing_dir(self, tmp_path):
        assert clear_cache(str(tmp_path / "nothing")) == 0


class Builds:
    """Counts every generation of a load trace (by rate), a scenario and
    a warmup, and checks at each one what the open scope still holds."""

    def __init__(self, monkeypatch):
        self.load = Counter()
        self.scenarios = 0
        self.warmups = 0
        #: kinds in the open memo when each load trace was built
        self.memo_at_load = []
        #: weak references to every load trace built so far
        self.built = []
        #: load traces still alive (after a collection) at each build
        self.alive_at_load = []
        make_load_trace = throughput.make_load_trace
        build = ScenarioBuilder.build
        background = EvalTestbed._background_trace

        def counted_load(rng, rate_pps, *args, **kwargs):
            gc.collect()
            self.alive_at_load.append(
                sum(ref() is not None for ref in self.built))
            self.memo_at_load.append(
                sorted(kind for kind, _ in corpus._SCOPE[1])
                if corpus._SCOPE is not None else None)
            self.load[rate_pps] += 1
            trace = make_load_trace(rng, rate_pps, *args, **kwargs)
            self.built.append(weakref.ref(trace))
            return trace

        def counted_build(builder):
            self.scenarios += 1
            return build(builder)

        def counted_background(testbed, *args):
            self.warmups += 1
            return background(testbed, *args)

        monkeypatch.setattr(throughput, "make_load_trace", counted_load)
        monkeypatch.setattr(ScenarioBuilder, "build", counted_build)
        monkeypatch.setattr(EvalTestbed, "_background_trace",
                            counted_background)


class Tripwire(AafidProduct):
    """AAFID whose every deployment raises on its first packet."""

    def deploy(self, engine, testbed):
        dep = super().deploy(engine, testbed)

        def trip(pkt):
            raise RuntimeError("tripwire")

        dep.ingest = trip
        return dep


class TestRetention:
    """Without a store, one battery call builds each distinct trace once,
    holds it only while its input group runs, and leaves nothing behind."""

    def test_field_builds_each_trace_once(self, monkeypatch):
        builds = Builds(monkeypatch)
        evaluate_field([NidProduct, AafidProduct],
                       realtime_cluster_requirements(),
                       EvaluationOptions(**TINY, workers=1))
        assert builds.load == {500.0: 1, 1200.0: 1}
        assert builds.scenarios == 1
        assert builds.warmups == 1

    def test_sweep_builds_its_scenario_once(self, monkeypatch):
        builds = Builds(monkeypatch)
        sweep = sensitivity_sweep(lambda s: ManhuntProduct(sensitivity=s),
                                  "sim-manhunt", (0.2, 0.5, 0.8),
                                  duration_s=8.0, n_hosts=3)
        assert len(sweep.points) == 3
        assert builds.scenarios == 1
        assert builds.warmups == 1
        assert corpus._SCOPE is None

    def test_earlier_groups_are_dropped(self, monkeypatch):
        builds = Builds(monkeypatch)
        run_units([NidProduct, AafidProduct],
                  EvaluationOptions(**{**TINY, "throughput_rates_pps":
                                       (500, 1200, 2000)}))
        # each rate group's trace is the first thing its memo holds, and
        # the previous group's trace is unreachable by the time it is built
        assert builds.memo_at_load == [[], [], []]
        assert builds.alive_at_load == [0, 0, 0]

    def test_runs_share_nothing(self, monkeypatch):
        builds = Builds(monkeypatch)
        opts = EvaluationOptions(**{**TINY, "throughput_rates_pps": (500,)})
        first = evaluate_product(AafidProduct, opts)
        again = evaluate_product(AafidProduct, opts)
        assert again == first
        assert builds.load == {500.0: 2}
        assert (builds.scenarios, builds.warmups) == (2, 2)
        with pytest.raises(WorkUnitError):
            evaluate_product(Tripwire, opts)
        assert corpus._SCOPE is None
        assert builds.load == {500.0: 3}


class TestSharedTracesDifferential:
    """Products sharing one trace object measure exactly what each
    measures on its own freshly generated trace: shared traces are
    read-only."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_units_equals_standalone_units(self, workers):
        factories = [NidProduct, RealSecureProduct, ManhuntProduct,
                     AafidProduct]
        opts = EvaluationOptions(**TINY, workers=workers)
        shared = run_units(factories, opts)
        assert len(shared) == len(factories) * 3
        for unit, result in shared.items():
            factory = factories[unit.index]
            alone = (measure_scenario(factory, opts)
                     if unit.kind == "scenario"
                     else measure_rate(factory, unit.rate_pps, opts))
            assert result == alone, unit
