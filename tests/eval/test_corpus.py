"""The artifact store's trace corpus: hit/miss semantics, source-digest
keys, result equivalence, and the ``clear-cache`` extension.

Stored traces are a pure execution optimization: a battery run with a warm
store must produce results equal to a cold run, which must equal a run
with no store at all.  Entries are content-keyed (including the source
digest), corrupt entries are regenerated and counted, and outside a store
the generators run directly.
"""

import os
import pickle
from dataclasses import replace

from repro.eval import corpus
from repro.eval.corpus import (
    ArtifactStore,
    CacheStats,
    corpus_trace,
    open_store,
    serving,
)
from repro.eval.parallel import (clear_cache, last_cache_stats,
                                 last_corpus_stats)
from repro.eval.runner import EvaluationOptions, evaluate_product
from repro.eval.testbed import cluster_scenario
from repro.net.address import IPv4Address
from repro.net.packet import Packet
from repro.net.trace import Trace
from repro.products import AafidProduct, ManhuntProduct
from repro.traffic.mixer import Scenario

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
        again = store.trace("t", KEY, build)
        assert built == [1]                 # in-memory hit, no rebuild
        assert again is first
        store._memory.clear()
        from_disk = store.trace("t", KEY, build)
        assert built == [1]                 # disk hit, no rebuild
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
        store._memory.clear()
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
            store._memory.clear()
            assert store.scenario("s", KEY, build).name == "s"
        assert store.traces == CacheStats(hits=0, misses=5, stores=5,
                                          unreadable=3)

    def test_scenario_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        nodes = [IPv4Address(f"10.9.1.{i}") for i in range(1, 5)]

        def build():        # outside a store: built raw, uncached
            return cluster_scenario(nodes, duration_s=8.0, seed=3)

        cold = store.scenario("s", KEY, build)
        store._memory.clear()
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
            with serving(None):          # explicit disable nests
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

    def test_same_root_shares_one_instance(self, tmp_path):
        assert open_store(None) is None
        assert open_store(str(tmp_path)) is open_store(str(tmp_path))

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
