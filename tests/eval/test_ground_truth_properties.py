"""Hypothesis property tests for the Figure-3 ground-truth algebra.

These pin down the invariants of :mod:`repro.eval.ground_truth` over
arbitrary alert streams and flow mixes, not just the hand-picked cases in
``test_ground_truth.py``:

* ``detected`` and ``missed`` partition ``actual`` (disjoint union);
* ``0 <= FPR <= 1`` and ``0 <= FNR <= 1`` whenever ``|T| > 0``;
* ``false_alarms >= 0`` and never exceeds the number of distinct
  ``(category, source)`` claims offered;
* ``count_transactions`` is monotone under adding benign flows, and
  unchanged by extra packets on an already-counted flow.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import PortScan
from repro.attacks.base import AttackKind, AttackRecord
from repro.eval.ground_truth import count_transactions, score_alerts
from repro.ids.alert import Alert, Severity
from repro.net.address import IPv4Address, Subnet
from repro.net.packet import Packet, Protocol
from repro.net.trace import Trace
from repro.traffic import ClusterProfile, ScenarioBuilder
from repro.traffic.mixer import Scenario

ATTACKER = IPv4Address("198.18.0.1")
NODES = list(Subnet("10.0.0.0/24").hosts(4))


def build_scenario(n_attacks: int, seed: int) -> Scenario:
    builder = ScenarioBuilder("prop", duration_s=15.0, seed=seed)
    builder.add_background(ClusterProfile(NODES))
    for i in range(n_attacks):
        builder.add_attack(1.0 + 3.0 * i,
                           PortScan(ATTACKER, NODES[i % len(NODES)],
                                    ports=range(1, 40)))
    return builder.build()


# one scenario per attack count is plenty: the properties quantify over
# the *alert stream*, and rebuilding scenarios per example is slow
SCENARIOS = {n: build_scenario(n, seed=3) for n in range(4)}


@st.composite
def alert_streams(draw):
    """A scenario plus an arbitrary mix of true/benign/bogus alerts."""
    scenario = SCENARIOS[draw(st.integers(0, 3))]
    ids = sorted(scenario.attack_ids)
    truths = st.sampled_from(ids) if ids else st.none()
    alerts = draw(st.lists(st.builds(
        Alert,
        time=st.floats(0.0, 15.0, allow_nan=False),
        analyzer=st.just("prop"),
        category=st.sampled_from(["portscan", "flood", "anomaly"]),
        src=st.sampled_from([ATTACKER] + NODES),
        dst=st.sampled_from(NODES),
        severity=st.sampled_from(list(Severity)),
        confidence=st.floats(0.0, 1.0, allow_nan=False),
        truth_attack_id=st.one_of(
            st.none(),
            truths,
            st.just("no-such-attack"),  # stale/bogus side-channel label
        ),
    ), max_size=25))
    return scenario, alerts


@given(alert_streams())
@settings(max_examples=60, deadline=None)
def test_detected_and_missed_partition_actual(stream):
    scenario, alerts = stream
    res = score_alerts("prop", scenario, alerts)
    assert res.detected | res.missed == res.actual
    assert res.detected & res.missed == set()
    assert res.detected <= res.actual
    assert res.actual == scenario.attack_ids


@given(alert_streams())
@settings(max_examples=60, deadline=None)
def test_error_ratios_bounded(stream):
    scenario, alerts = stream
    res = score_alerts("prop", scenario, alerts)
    assert res.transactions > 0
    assert 0.0 <= res.false_positive_ratio <= 1.0
    assert 0.0 <= res.false_negative_ratio <= 1.0
    assert 0.0 <= res.detection_ratio <= 1.0


@given(alert_streams())
@settings(max_examples=60, deadline=None)
def test_false_alarms_bounded_by_distinct_claims(stream):
    scenario, alerts = stream
    res = score_alerts("prop", scenario, alerts)
    assert res.false_alarms >= 0
    distinct_claims = {(a.category, a.src.value) for a in alerts}
    assert res.false_alarms <= len(distinct_claims)
    assert res.alerts_total == len(alerts)


@given(alert_streams())
@settings(max_examples=40, deadline=None)
def test_detection_delay_only_for_detected(stream):
    scenario, alerts = stream
    res = score_alerts("prop", scenario, alerts)
    assert set(res.detection_delay) == res.detected


# ----------------------------------------------------------------------
# count_transactions monotonicity
# ----------------------------------------------------------------------
flow_specs = st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.integers(1024, 1030), st.integers(20, 25))


def benign_scenario(specs) -> Scenario:
    """A scenario whose trace is exactly one packet per spec, all benign."""
    trace = Trace("prop")
    for t, (si, di, sport, dport) in enumerate(specs):
        trace.append(float(t), Packet(NODES[si], NODES[di], sport=sport,
                                      dport=dport, proto=Protocol.TCP,
                                      payload_len=64))
    return Scenario(name="prop", trace=trace, attacks=[],
                    duration_s=float(len(specs) + 1), seed=0)


@given(st.lists(flow_specs, max_size=12), st.lists(flow_specs, max_size=6))
@settings(max_examples=80, deadline=None)
def test_count_transactions_monotone_under_added_benign_flows(base, extra):
    fewer = benign_scenario(base)
    more = benign_scenario(base + extra)
    assert count_transactions(more) >= count_transactions(fewer)
    assert count_transactions(more) <= count_transactions(fewer) + len(extra)


@given(st.lists(flow_specs, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_repeat_and_reverse_packets_do_not_add_transactions(specs):
    # duplicating every flow and adding its reverse direction must not
    # create new transactions: FlowKey is canonical and bidirectional
    reversed_specs = [(di, si, dport, sport)
                      for (si, di, sport, dport) in specs]
    base = benign_scenario(specs)
    doubled = benign_scenario(specs + specs + reversed_specs)
    assert count_transactions(doubled) == count_transactions(base)


@given(st.lists(flow_specs, max_size=8), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_attacks_each_count_as_one_transaction(specs, n_attacks):
    base = benign_scenario(specs)
    attacks = [AttackRecord(attack_id=f"atk-{i}", kind=AttackKind.PROBE,
                            start=0.0, end=1.0, packets=5)
               for i in range(n_attacks)]
    with_attacks = Scenario(name="prop", trace=base.trace, attacks=attacks,
                            duration_s=base.duration_s, seed=0)
    assert (count_transactions(with_attacks) ==
            count_transactions(base) + n_attacks)


@given(st.lists(flow_specs, max_size=8), st.lists(flow_specs, min_size=1,
                                                   max_size=4))
@settings(max_examples=40, deadline=None)
def test_append_after_counting_recounts_transactions(base, extra):
    # the trace caches its benign-flow count; append must invalidate it
    scenario = benign_scenario(base)
    before = count_transactions(scenario)
    t = float(len(base))
    for si, di, sport, dport in extra:
        scenario.trace.append(t, Packet(NODES[si], NODES[di], sport=sport,
                                        dport=dport, proto=Protocol.TCP,
                                        payload_len=64))
    assert (count_transactions(scenario)
            == count_transactions(benign_scenario(base + extra)))


def test_append_of_new_flow_after_counting_changes_count():
    scenario = benign_scenario([(0, 1, 1024, 22)])
    assert count_transactions(scenario) == 1
    scenario.trace.append(5.0, Packet(NODES[2], NODES[3], sport=1025,
                                      dport=80, proto=Protocol.TCP,
                                      payload_len=64))
    assert count_transactions(scenario) == 2
