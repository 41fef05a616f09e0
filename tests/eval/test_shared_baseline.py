"""One learned anomaly baseline per warmup and retention scope.

Within :func:`repro.eval.corpus.serving`, every deployment on one warmup
trace adopts the baseline the first one learned: each sweep point and each
sensor trains nothing.  The scores must equal those of deployments that
trained on their own outside any scope, and a scope hit must never cross a
warmup (profile, hosts, duration, seed) or a ``window_s``.
"""

import numpy as np
import pytest

from repro.eval.accuracy import run_accuracy, sensitivity_sweep
from repro.eval.corpus import corpus_baselines, serving
from repro.eval.testbed import EvalTestbed
from repro.ids.analyzer import Analyzer
from repro.ids.anomaly import AnomalyEngine
from repro.ids.hybrid import HybridDetector
from repro.ids.loadbalancer import DynamicBalancer
from repro.ids.monitor import Monitor
from repro.ids.pipeline import IdsPipeline
from repro.ids.sensor import AnomalyDetector, Sensor
from repro.net.address import Subnet
from repro.products import (AafidProduct, ManhuntProduct, NidProduct,
                            RealSecureProduct)
from repro.sim.engine import Engine
from repro.traffic.profiles import ClusterProfile


def manhunt(sensitivity=0.5):
    return ManhuntProduct(sensitivity=sensitivity)


def engines(testbed):
    return [s.detector.engine for s in testbed.deployment.sensors]


@pytest.fixture
def train_calls(monkeypatch):
    """Counts every packet an anomaly engine trains on."""
    calls = []
    train = AnomalyEngine.train

    def counted(self, pkt, now):
        calls.append(now)
        return train(self, pkt, now)

    monkeypatch.setattr(AnomalyEngine, "train", counted)
    return calls


class TestSweep:
    def test_sweep_equals_separate_unscoped_runs(self, train_calls):
        points = (0.1, 0.55, 1.0)
        sweep = sensitivity_sweep(manhunt, "sim-manhunt",
                                  sensitivities=points, duration_s=20.0)
        # the 30 s seed-0 warmup over 6 hosts, learned once for 3 points
        # x 4 sensors
        assert len(train_calls) == 3708
        # outside a scope, each deployment learns it once for its sensors
        del train_calls[:]
        for point in sweep.points:
            alone = run_accuracy(manhunt, point.sensitivity,
                                 duration_s=20.0, include_dos=False)
            assert point.result == alone
        assert len(train_calls) == 3 * 3708


class TestScope:
    def test_later_deployments_adopt_the_first_baseline(self):
        with serving():
            first = EvalTestbed(manhunt(0.2), train_duration_s=4.0)
            second = EvalTestbed(manhunt(0.9), train_duration_s=4.0)
        baseline = engines(first)[0].baseline
        assert all(e.baseline is baseline
                   for e in engines(first) + engines(second))
        assert [e.sensitivity for e in engines(second)] == [0.9] * 4

    @pytest.mark.parametrize("changed", [
        dict(seed=1), dict(n_hosts=5), dict(train_duration_s=3.0),
        dict(profile="ecommerce")])
    def test_hit_never_crosses_warmups(self, changed):
        base = dict(seed=0, n_hosts=6, train_duration_s=4.0,
                    profile="cluster")
        with serving():
            first = EvalTestbed(manhunt(), **base)
            other = EvalTestbed(manhunt(), **{**base, **changed})
        assert engines(other)[0].baseline is not engines(first)[0].baseline
        assert engines(other)[0].baseline is engines(other)[3].baseline

    def test_no_sharing_across_scopes_or_outside_one(self):
        with serving():
            first = EvalTestbed(manhunt(), train_duration_s=4.0)
        with serving():
            second = EvalTestbed(manhunt(), train_duration_s=4.0)
        third = EvalTestbed(manhunt(), train_duration_s=4.0)
        fourth = EvalTestbed(manhunt(), train_duration_s=4.0)
        baselines = [engines(tb)[0].baseline
                     for tb in (first, second, third, fourth)]
        assert len({id(b) for b in baselines}) == 4
        assert all(b == baselines[0] for b in baselines)

    def test_probe_deployments_freeze_untrained(self):
        with serving():
            trained = EvalTestbed(manhunt(), train_duration_s=4.0)
            probe = EvalTestbed(manhunt(), train_duration_s=0)
        envelope = engines(probe)[0].baseline
        assert envelope is not engines(trained)[0].baseline
        assert (envelope.max_src_rate, envelope.max_fanout) == (1.0, 1)
        assert not envelope.services

    def test_baselines_memo_is_per_scope(self):
        token = (("warmup", 1),)
        assert corpus_baselines(token) is not corpus_baselines(token)
        with serving():
            memo = corpus_baselines(token)
            assert corpus_baselines(token) is memo
            assert corpus_baselines((("warmup", 2),)) is not memo
        assert corpus_baselines(token) is not memo


def pipeline(detectors):
    eng = Engine()
    sensors = [Sensor(eng, f"s{i}", det, lethal_drop_rate=None)
               for i, det in enumerate(detectors)]
    balancer = DynamicBalancer(eng, "lb", sensors) if len(sensors) > 1 else None
    return IdsPipeline(eng, "p", sensors, [Analyzer(eng, "a")],
                       Monitor(eng, "m"), balancer=balancer).wire()


class TestPipelineTrainOn:
    def test_one_training_per_window(self, train_calls):
        trace = _warmup()
        dets = [AnomalyDetector(AnomalyEngine(window_s=5.0)),
                HybridDetector(anomaly=AnomalyDetector(
                    AnomalyEngine(window_s=5.0))),
                AnomalyDetector(AnomalyEngine(window_s=2.0))]
        p = pipeline(dets)
        baselines = {}
        assert p.train_on(trace, baselines) == 2
        assert len(train_calls) == 2 * len(trace)
        assert sorted(baselines) == [2.0, 5.0]
        assert dets[1].anomaly.engine.baseline is baselines[5.0]
        assert dets[2].engine.baseline is baselines[2.0]

    def test_hit_trains_nothing(self, train_calls):
        trace = _warmup()
        baselines = {}
        first = pipeline([AnomalyDetector() for _ in range(4)])
        assert first.train_on(trace, baselines) == 1
        again = pipeline([AnomalyDetector() for _ in range(4)])
        assert again.train_on(trace, baselines) == 0
        assert len(train_calls) == len(trace)
        other_window = pipeline([AnomalyDetector(AnomalyEngine(window_s=2.0))])
        assert other_window.train_on(trace, baselines) == 1

    def test_without_memo_each_window_trains_once(self):
        p = pipeline([AnomalyDetector() for _ in range(3)])
        assert p.train_on(_warmup()) == 1
        p.freeze()  # frozen detectors keep their baseline
        shared = p.sensors[0].detector.engine.baseline
        assert all(s.detector.engine.baseline is shared for s in p.sensors)


def _warmup():
    nodes = list(Subnet("10.0.0.0/24").hosts(4))
    return ClusterProfile(nodes).generate(5.0, np.random.default_rng(4))


class TestWarmupOnlyWhenRead:
    """A testbed generates its warmup only when a detector will train on
    it; signature-only deployments never build one."""

    @pytest.fixture
    def warmups(self, monkeypatch):
        calls = []
        background = EvalTestbed._background_trace

        def counted(testbed, *args):
            calls.append(testbed.product.name)
            return background(testbed, *args)

        monkeypatch.setattr(EvalTestbed, "_background_trace", counted)
        return calls

    @pytest.mark.parametrize("factory", [NidProduct, RealSecureProduct,
                                         AafidProduct])
    def test_untrainable_deployment_builds_no_warmup(self, factory, warmups):
        testbed = EvalTestbed(factory(), train_duration_s=30.0)
        assert not testbed.deployment.trainable
        assert warmups == []

    def test_nid_sweep_builds_no_warmup(self, warmups):
        sensitivity_sweep(lambda s: NidProduct(sensitivity=s), "sim-nid",
                          sensitivities=(0.2, 0.8), duration_s=8.0)
        assert warmups == []

    def test_manhunt_still_trains_on_the_whole_warmup(self, warmups,
                                                      train_calls):
        testbed = EvalTestbed(manhunt(), train_duration_s=30.0)
        assert testbed.deployment.trainable
        assert warmups == [testbed.product.name]
        # the 30 s seed-0 warmup over 6 hosts, learned once for 4 sensors
        assert len(train_calls) == 3708
