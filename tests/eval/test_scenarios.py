"""Tests for scenario factories and the two site profiles in evaluation."""

import pytest

from repro.eval.testbed import (
    EXTERNAL_ATTACKER,
    EvalTestbed,
    cluster_scenario,
    ecommerce_scenario,
)
from repro.net.address import Subnet
from repro.products import NidProduct


def benign(scenario):
    return sum(1 for _, p in scenario.trace if not p.attack_id)


@pytest.fixture
def nodes():
    return list(Subnet("10.0.0.0/24").hosts(4))


class TestScenarioFactories:
    def test_cluster_scenario_complete(self, nodes):
        scenario = cluster_scenario(nodes, duration_s=70.0, seed=1)
        assert len(scenario.attacks) == 10
        assert ({p.attack_id for _, p in scenario.trace if p.attack_id}
                == scenario.attack_ids)
        assert benign(scenario) > 0
        kinds = {a.kind.value for a in scenario.attacks}
        assert "dos" in kinds and "insider" in kinds

    def test_short_scenario_compresses_attack_starts(self, nodes):
        scenario = cluster_scenario(nodes, duration_s=35.0, seed=1)
        assert all(a.start <= 35.0 for a in scenario.attacks)
        assert len(scenario.attacks) == 10

    def test_no_dos_option(self, nodes):
        scenario = cluster_scenario(nodes, duration_s=70.0, seed=1,
                                    include_dos=False)
        assert all(a.kind.value != "dos" for a in scenario.attacks)
        assert len(scenario.attacks) == 8

    def test_rate_scale(self, nodes):
        lo = cluster_scenario(nodes, duration_s=20.0, seed=1,
                              include_dos=False, rate_scale=0.5)
        hi = cluster_scenario(nodes, duration_s=20.0, seed=1,
                              include_dos=False, rate_scale=2.0)
        assert benign(hi) > 2 * benign(lo) * 0.8

    def test_ecommerce_scenario(self, nodes):
        scenario = ecommerce_scenario(nodes[0], nodes, duration_s=40.0,
                                      seed=2, include_dos=False)
        assert len(scenario.attacks) == 8
        # web traffic present: port 80 benign flows
        web = [r.packet for r in scenario.trace
               if r.packet.attack_id is None and r.packet.dport == 80]
        assert web


class TestEvalTestbedProfiles:
    def test_ecommerce_profile_runs(self):
        testbed = EvalTestbed(NidProduct(), n_hosts=4, seed=1,
                              train_duration_s=10.0, profile="ecommerce")
        scenario = testbed.make_scenario(duration_s=30.0, include_dos=False)
        result = testbed.run_scenario(scenario)
        result.check_invariants()
        # web-attack signatures (CGI probe) fire on the web profile
        assert any(a.rsplit("-", 1)[0] == "cgiprobe" for a in result.detected)

    def test_attacker_address_is_external(self, nodes):
        scenario = cluster_scenario(nodes, duration_s=30.0, seed=1,
                                    include_dos=False)
        lan = Subnet("10.0.0.0/24")
        assert EXTERNAL_ATTACKER not in lan
        external_srcs = {r.packet.src for r in scenario.trace
                         if r.packet.attack_id
                         and r.packet.src not in lan}
        assert EXTERNAL_ATTACKER in external_srcs
