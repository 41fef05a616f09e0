"""Trace retention scopes, source-digest keys, and the results-only
artifact store.

Traces are rebuilt from the seed, never stored: within a retention scope
each distinct trace is built once, outside one the generators run
directly.  The store keeps work-unit results only, content-keyed
(including the source digest), and ``clear-cache`` also removes the trace
files earlier versions stored.
"""

import gc
import os
import weakref
from collections import Counter

import pytest

from repro.core.profiles import realtime_cluster_requirements
from repro.eval import corpus, throughput
from repro.eval.corpus import CacheStats, corpus_trace, open_store, serving
from repro.eval.accuracy import sensitivity_sweep
from repro.eval.parallel import (WorkUnitError, clear_cache,
                                 last_cache_stats, run_units)
from repro.eval.runner import (EvaluationOptions, evaluate_field,
                               evaluate_product, measure_rate,
                               measure_scenario)
from repro.eval.testbed import EvalTestbed
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                            RealSecureProduct)
from repro.traffic.mixer import ScenarioBuilder

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


class TestAmbientActivation:
    def test_serving_activates_and_restores(self):
        built = []

        def build():
            built.append(1)
            return small_trace(b"x")

        with serving():
            corpus_trace("t", KEY, build)
            with serving():              # a nested scope, its own memo
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
        assert built == [1, 1]           # no scope: no memoization
        assert not os.listdir(tmp_path)

    def test_open_store_is_not_process_global(self, tmp_path):
        assert open_store(None) is None
        store = open_store(str(tmp_path))
        assert store.root == str(tmp_path)
        assert open_store(str(tmp_path)) is not store


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
        monkeypatch.setattr(corpus, "source_digest", lambda: "edited")
        again = evaluate_product(AafidProduct, opts)
        assert last_cache_stats() == CacheStats(hits=0, misses=2, stores=2)
        assert again == first


class TestBatteryIntegration:
    def test_warm_corpus_equals_cold_equals_uncached(self, tmp_path):
        """The store holds one result per unit and nothing else, pool
        workers included; a warm run equals a cold and an uncached one."""
        cache = str(tmp_path / "cache")
        opts = EvaluationOptions(**TINY, workers=2, cache_dir=cache)
        uncached = evaluate_product(ManhuntProduct,
                                    EvaluationOptions(**TINY))
        cold = evaluate_product(ManhuntProduct, opts)
        assert sorted(os.path.splitext(n)[1]
                      for n in os.listdir(cache)) == [".pkl"] * 3
        warm = evaluate_product(ManhuntProduct, opts)
        assert last_cache_stats() == CacheStats(hits=3, misses=0, stores=0)
        assert cold == uncached
        assert warm == uncached

    def test_clear_cache_clears_corpus_too(self, tmp_path):
        """``clear-cache`` also deletes the ``.rtrc`` traces, ``.meta``
        scenario sidecars and stray ``.tmp`` files earlier versions left
        in the store, counting only the work-unit results."""
        cache = str(tmp_path / "cache")
        evaluate_product(ManhuntProduct,
                         EvaluationOptions(**{**TINY, "throughput_rates_pps":
                                              (500,)}, cache_dir=cache))
        key = "0" * 64
        small_trace(b"x").save(os.path.join(cache, key + ".rtrc"))
        with open(os.path.join(cache, key + ".meta"), "wb") as fh:
            fh.write(b"sidecar")
        with open(os.path.join(cache, "stray.tmp"), "wb"):
            pass
        assert clear_cache(cache) == 2
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
                sorted(kind for kind, _ in corpus._SCOPE)
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
        evaluate_field([NidProduct, ManhuntProduct, AafidProduct],
                       realtime_cluster_requirements(),
                       EvaluationOptions(**TINY, workers=1))
        assert builds.load == {500.0: 1, 1200.0: 1}
        assert builds.scenarios == 1
        # only ManHunt trains, so only its scenario unit reads a warmup
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
        first = evaluate_product(ManhuntProduct, opts)
        again = evaluate_product(ManhuntProduct, opts)
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
