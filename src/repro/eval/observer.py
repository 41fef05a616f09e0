"""Mapping observations onto discrete scorecard scores.

Two observation methods per section 3.1:

* :func:`score_open_source` -- derives scores from :class:`ProductFacts`
  (data-sheet facts), covering the metrics designated for open-source
  observation.
* :func:`score_measurements` -- derives scores from the laboratory
  measurements of a full evaluation run, covering the analysis-designated
  metrics.

Every mapping follows the catalog's low/average/high anchors; the raw
observation (ratio, pps, seconds, percent) is recorded on the score entry
as ``raw_value`` so the discretization is auditable.  Discretization
thresholds are this reproduction's (the paper does not publish its own
numeric cutoffs); they are monotone in the anchor ordering by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .dependability import DependabilityReport

from ..core.metric import ObservationMethod
from ..core.scorecard import Scorecard
from ..ids.policy import ResponseAction
from ..ids.sensor import FailureMode
from ..products.base import DeploymentSnapshot, ProductFacts
from .ground_truth import AccuracyResult
from .latency import LatencyReport, TimelinessReport
from .overhead import OverheadReport
from .throughput import ThroughputReport

__all__ = ["MeasurementBundle", "score_open_source", "score_measurements",
           "fill_scorecard"]

_OS = ObservationMethod.OPEN_SOURCE
_AN = ObservationMethod.ANALYSIS


# ----------------------------------------------------------------------
# open-source scoring: ordinal fact scales
# ----------------------------------------------------------------------
_ORDINAL: Dict[str, Dict[str, int]] = {
    "remote_management": {"none": 0, "limited": 2, "full-secure": 4},
    "install_complexity": {"manual": 0, "guided": 2, "turnkey": 4},
    "policy_maintenance": {"per-sensor": 0, "central-restart": 2,
                           "central-live": 4},
    "license": {"per-sensor": 1, "per-site": 2, "enterprise": 4},
    "outsourced": {"required-scans": 0, "optional": 2, "in-house": 4},
    "docs": {"poor": 0, "fair": 2, "good": 4},
    "filter_generation": {"none": 0, "manual": 1, "guided": 2,
                          "automatic": 4},
    "admin_effort": {"high": 0, "medium": 2, "low": 4},
    "support": {"none": 0, "business-hours": 2, "24x7": 4},
    "training": {"none": 0, "docs-only": 2, "vendor-courses": 4},
    "adjustable_sensitivity": {"none": 0, "coarse": 2, "continuous": 4},
    "data_pool_select": {"none": 0, "static": 2, "runtime": 4},
    "multi_sensor": {"single": 0, "several": 2, "integrated": 4},
    "load_balancing": {"none": 0, "static": 2, "dynamic": 4},
    "interoperability": {"none": 0, "limited": 2, "standards": 4},
}


def _platform_requirements_score(facts: ProductFacts) -> int:
    score = 4
    if facts.monitored_host_cpu_fraction >= 0.15:
        score = 0
    elif facts.monitored_host_cpu_fraction >= 0.02:
        score = 2
    if facts.dedicated_hosts >= 4:
        score = max(score - 1, 0)
    return score


def _proportion_score(fraction: float) -> int:
    """Proportion metrics (Host-based / Network-based): 0..1 -> 0..4."""
    return max(0, min(4, round(4 * fraction)))


def score_open_source(facts: ProductFacts) -> Dict[str, Tuple[int, str]]:
    """Metric name -> (score, evidence) from data-sheet facts."""
    out: Dict[str, Tuple[int, str]] = {}

    def put(metric: str, score: int, evidence: str) -> None:
        out[metric] = (max(0, min(4, score)), evidence)

    put("Distributed Management",
        _ORDINAL["remote_management"][facts.remote_management],
        f"remote management: {facts.remote_management}")
    put("License Management", _ORDINAL["license"][facts.license],
        f"license: {facts.license}")
    put("Outsourced Solution", _ORDINAL["outsourced"][facts.outsourced],
        f"operation: {facts.outsourced}")
    put("Platform Requirements", _platform_requirements_score(facts),
        f"{facts.monitored_host_cpu_fraction:.0%} of monitored hosts, "
        f"{facts.dedicated_hosts} dedicated host(s)")
    put("Quality of Documentation", _ORDINAL["docs"][facts.docs],
        f"documentation: {facts.docs}")
    put("Evaluation Copy Availability", 4 if facts.eval_copy else 0,
        f"eval copy: {facts.eval_copy}")
    put("Product Lifetime",
        0 if facts.product_lifetime_years < 2
        else (2 if facts.product_lifetime_years < 5 else 4),
        f"{facts.product_lifetime_years:g} year lifetime")
    put("Quality of Technical Support", _ORDINAL["support"][facts.support],
        f"support: {facts.support}")
    put("Three Year Cost of Ownership",
        0 if facts.cost_3yr_usd >= 100_000
        else (2 if facts.cost_3yr_usd >= 50_000 else 4),
        f"${facts.cost_3yr_usd:,.0f} over 3 years")
    put("Training Support", _ORDINAL["training"][facts.training],
        f"training: {facts.training}")
    put("Adjustable Sensitivity",
        _ORDINAL["adjustable_sensitivity"][facts.adjustable_sensitivity],
        f"sensitivity control: {facts.adjustable_sensitivity}")
    put("Data Pool Selectability",
        _ORDINAL["data_pool_select"][facts.data_pool_select],
        f"data pool selection: {facts.data_pool_select}")
    put("Host-based", _proportion_score(facts.host_based_fraction),
        f"{facts.host_based_fraction:.0%} host data")
    put("Network-based", _proportion_score(facts.network_based_fraction),
        f"{facts.network_based_fraction:.0%} network data")
    put("Multi-sensor Support", _ORDINAL["multi_sensor"][facts.multi_sensor],
        f"multi-sensor: {facts.multi_sensor}")
    put("Scalable Load-balancing",
        _ORDINAL["load_balancing"][facts.load_balancing],
        f"load balancing: {facts.load_balancing}")
    put("Anomaly Based",
        {"anomaly": 4, "hybrid": 2, "signature": 0}[facts.detection],
        f"detection: {facts.detection}")
    put("Signature Based",
        {"anomaly": 0, "hybrid": 2, "signature": 4}[facts.detection],
        f"detection: {facts.detection}")
    put("Autonomous Learning", 4 if facts.autonomous_learning else 0,
        f"autonomous learning: {facts.autonomous_learning}")
    put("Interoperability",
        _ORDINAL["interoperability"][facts.interoperability],
        f"interoperability: {facts.interoperability}")
    put("Session Recording and Playback",
        4 if facts.session_recording else 0,
        f"session recording: {facts.session_recording}")
    put("Trend Analysis", 4 if facts.trend_analysis else 0,
        f"trend analysis: {facts.trend_analysis}")
    put("Information Sharing",
        _ORDINAL["interoperability"][facts.interoperability],
        "proxy: data-exchange interoperability")
    put("Clarity of Reports", _ORDINAL["docs"][facts.docs],
        "proxy: documentation quality class")
    put("Package Contents",
        2 if facts.support != "none" else 1,
        "proxy: commercial packaging vs research drop")
    return out


# ----------------------------------------------------------------------
# analysis scoring: laboratory measurements
# ----------------------------------------------------------------------
@dataclass
class MeasurementBundle:
    """Everything the laboratory battery measured for one product.

    ``deployment`` is the picklable :class:`DeploymentSnapshot` of the
    system under test, which keeps the whole bundle process-portable for
    the parallel harness.
    """

    accuracy: AccuracyResult
    throughput: ThroughputReport
    latency: LatencyReport
    timeliness: TimelinessReport
    overhead: OverheadReport
    deployment: DeploymentSnapshot
    #: bytes of analyzer history per MB of scenario traffic
    storage_bytes_per_mb: float
    #: sources that actually emitted attack packets in the scenario
    attack_sources: Set[int]
    #: wall-clock span of the accuracy scenario (drives operator-workload)
    scenario_duration_s: float = 70.0
    #: clean-vs-faulted dependability comparison (None unless the battery
    #: ran with a fault plan)
    dependability: Optional["DependabilityReport"] = None


def _step(value: float, cuts: Tuple[float, ...], scores: Tuple[int, ...]) -> int:
    """Map a raw value onto scores via ascending cutpoints:
    value <= cuts[i] -> scores[i]; beyond the last cut -> scores[-1]."""
    for cut, score in zip(cuts, scores):
        if value <= cut:
            return score
    return scores[-1]


def score_measurements(m: MeasurementBundle) -> Dict[str, Tuple[int, str, float]]:
    """Metric name -> (score, evidence, raw_value) from lab measurements."""
    out: Dict[str, Tuple[int, str, float]] = {}

    def put(metric: str, score: int, evidence: str, raw: float) -> None:
        out[metric] = (max(0, min(4, score)), evidence, raw)

    acc = m.accuracy
    dep = m.deployment

    # --- accuracy (Figure 3 ratios) ---------------------------------
    miss_frac = (len(acc.missed) / len(acc.actual)) if acc.actual else 0.0
    put("Observed False Negative Ratio",
        _step(miss_frac, (0.0, 0.1, 0.3, 0.6), (4, 3, 2, 1, 0)),
        f"missed {len(acc.missed)}/{len(acc.actual)} attacks; "
        f"FNR={acc.false_negative_ratio:.4f}",
        acc.false_negative_ratio)
    put("Observed False Positive Ratio",
        _step(acc.false_positive_ratio, (0.0, 0.005, 0.02, 0.05),
              (4, 3, 2, 1, 0)),
        f"{acc.false_alarms} false claims over {acc.transactions} "
        f"transactions; FPR={acc.false_positive_ratio:.4f}",
        acc.false_positive_ratio)

    # --- load metrics -------------------------------------------------
    tp = m.throughput
    put("System Throughput",
        _step(-tp.system_throughput_pps,
              (-32000.0, -16000.0, -8000.0, -2000.0), (4, 3, 2, 1, 0)),
        f"max processed {tp.system_throughput_pps:.0f} pps "
        f"({tp.payload_mode} payloads)", tp.system_throughput_pps)
    put("Maximal Throughput with Zero Loss",
        _step(-tp.zero_loss_pps, (-32000.0, -8000.0, -2000.0, -500.0),
              (4, 3, 2, 1, 0)),
        f"zero loss up to {tp.zero_loss_pps:.0f} pps", tp.zero_loss_pps)
    if tp.lethal_dose_pps is None:
        put("Network Lethal Dose", 4,
            "no failure observed up to the highest probed rate",
            float("inf"))
    else:
        put("Network Lethal Dose",
            _step(-tp.lethal_dose_pps, (-32000.0, -8000.0, -2000.0),
                  (3, 2, 1, 0)),
            f"malfunction at {tp.lethal_dose_pps:.0f} pps",
            tp.lethal_dose_pps)

    # --- latency & timeliness ------------------------------------------
    lat = m.latency.induced_latency_s
    put("Induced Traffic Latency",
        _step(lat, (1e-6, 100e-6, 500e-6, 2e-3), (4, 3, 2, 1, 0)),
        f"added {lat * 1e6:.0f} us per packet", lat)
    tl = m.timeliness.mean_report_delay_s
    put("Timeliness",
        0 if math.isinf(tl) else _step(tl, (0.5, 2.0, 5.0, 30.0),
                                       (4, 3, 2, 1, 0)),
        "never reported" if math.isinf(tl)
        else f"mean {tl:.2f}s / max {m.timeliness.max_report_delay_s:.2f}s "
             f"to notify", tl)

    # --- host impact ----------------------------------------------------
    pct = m.overhead.mean_host_cpu_fraction
    put("Operational Performance Impact",
        _step(pct, (0.001, 0.02, 0.08, 0.15), (4, 3, 2, 1, 0)),
        f"{pct:.1%} of monitored host CPU "
        f"({m.overhead.monitored_hosts} hosts)", pct)

    # --- storage ----------------------------------------------------------
    put("Data Storage",
        _step(m.storage_bytes_per_mb, (1024, 10_240, 51_200, 204_800),
              (4, 3, 2, 1, 0)),
        f"{m.storage_bytes_per_mb:.0f} B stored per MB of traffic",
        m.storage_bytes_per_mb)

    # --- failure behaviour (Error Reporting and Recovery) ---------------
    modes = dep.sensor_failure_modes
    if not modes:
        put("Error Reporting and Recovery", 1,
            "host agents only; failure behaviour unexercised "
            "(research-prototype default)", 1.0)
    else:
        mode = modes[0]
        score = {FailureMode.RESTART: 4, FailureMode.REBOOT: 2,
                 FailureMode.HANG: 0}[mode]
        put("Error Reporting and Recovery", score,
            f"observed failure mode: {mode.value}", float(score))

    # --- response interactions ------------------------------------------
    fired = set(dep.fired_actions)

    def interaction(metric: str, capability: bool,
                    action: ResponseAction) -> None:
        if not capability:
            put(metric, 0, "capability absent", 0.0)
        elif action in fired:
            put(metric, 4, f"automated {action.value} observed in scenario",
                4.0)
        else:
            put(metric, 2, "capability present; not exercised by policy",
                2.0)

    caps = dep.capabilities
    interaction("Firewall Interaction", caps["firewall"],
                ResponseAction.FIREWALL_BLOCK)
    interaction("Router Interaction", caps["router"] or caps["honeypot"],
                ResponseAction.ROUTER_BLOCK)
    interaction("SNMP Interaction", caps["snmp"], ResponseAction.SNMP_TRAP)

    # --- analysis depth ---------------------------------------------------
    correlating = dep.correlating
    both_scopes = dep.facts.scope == "both"
    put("Analysis of Compromise",
        4 if (correlating and both_scopes) else (3 if correlating else 1),
        f"correlation={'on' if correlating else 'off'}, "
        f"scope={dep.facts.scope}", 4.0 if correlating else 1.0)
    put("Threat Correlation",
        3 if correlating else 0,
        "cross-category campaign linking" if correlating
        else "no correlation capability", 3.0 if correlating else 0.0)
    put("Analysis of Intruder Intent", 2 if correlating else 0,
        "campaign breadth gives coarse intent" if correlating
        else "no intent analysis", 2.0 if correlating else 0.0)

    # --- filter effectiveness ---------------------------------------------
    if not dep.has_filter_path:
        put("Effectiveness of Generated Filters", 0,
            "no filter-generation path", 0.0)
    else:
        requests = dep.filter_blocked_sources
        if not requests:
            put("Effectiveness of Generated Filters", 2,
                "no filters generated during scenario", 2.0)
        else:
            good = sum(1 for value in requests
                       if value in m.attack_sources)
            frac = good / len(requests)
            put("Effectiveness of Generated Filters",
                _step(-frac, (-0.999, -0.8, -0.5), (4, 3, 1, 0)),
                f"{good}/{len(requests)} generated blocks hit actual "
                f"attackers", frac)

    # --- remaining analysis-designated metrics ---------------------------
    put("Ease of Configuration",
        _ORDINAL["install_complexity"][dep.facts.install_complexity],
        f"install: {dep.facts.install_complexity}",
        float(_ORDINAL["install_complexity"][dep.facts.install_complexity]))
    put("Ease of Policy Maintenance",
        _ORDINAL["policy_maintenance"][dep.facts.policy_maintenance],
        f"policy: {dep.facts.policy_maintenance}",
        float(_ORDINAL["policy_maintenance"][dep.facts.policy_maintenance]))
    put("Ease of Attack Filter Generation",
        _ORDINAL["filter_generation"][dep.facts.filter_generation],
        f"filter authoring: {dep.facts.filter_generation}",
        float(_ORDINAL["filter_generation"][dep.facts.filter_generation]))
    put("Level of Administration",
        _ORDINAL["admin_effort"][dep.facts.admin_effort],
        f"admin effort: {dep.facts.admin_effort}",
        float(_ORDINAL["admin_effort"][dep.facts.admin_effort]))
    channels = dep.notification_channels
    put("Notification: User Alerts",
        _step(-channels, (-3.0, -2.0, -1.0), (4, 2, 1, 0)),
        f"{channels} notification channel(s)", float(channels))
    put("Program Interaction",
        2 if dep.console_present else 0,
        "console action dispatch" if dep.console_present
        else "no action hooks",
        2.0 if dep.console_present else 0.0)
    put("Evidence Collection",
        3 if dep.facts.session_recording else 1,
        f"session recording: {dep.facts.session_recording}",
        3.0 if dep.facts.session_recording else 1.0)
    host_os = 2 if dep.facts.scope != "host" else 1
    put("Host/OS Security", host_os,
        "dedicated appliance hosts" if dep.facts.scope != "host"
        else "agents share monitored hosts", float(host_os))
    process = {FailureMode.RESTART: 3, FailureMode.REBOOT: 2,
               FailureMode.HANG: 1}.get(modes[0] if modes else None, 1)
    put("Process Security", process,
        "resilience of IDS processes under overload", float(process))
    put("Visibility", 4 if lat == 0 else 2,
        "passive tap (hard to fingerprint)" if lat == 0
        else "in-line element is fingerprintable", lat)
    return out


def fill_scorecard(
    scorecard: Scorecard,
    facts: ProductFacts,
    measurements: MeasurementBundle,
) -> None:
    """Record every observable metric for one product on the scorecard.

    Analysis observations win when a metric is designated for both methods
    (the laboratory evidence is stronger than the data sheet).
    """
    product = facts.name
    if product not in scorecard.products:
        scorecard.add_product(product)
    for metric, (score, evidence) in score_open_source(facts).items():
        m = scorecard.catalog.get(metric)
        method = _OS if _OS in m.methods else _AN
        scorecard.set_score(product, metric, score, method=method,
                            evidence=evidence)
    for metric, (score, evidence, raw) in score_measurements(measurements).items():
        m = scorecard.catalog.get(metric)
        method = _AN if _AN in m.methods else _OS
        scorecard.set_score(product, metric, score, method=method,
                            evidence=evidence, raw_value=raw)
    # human-dimension extension (paper future work): scored only when the
    # scorecard's catalog carries the extension metrics
    if "Operator Workload" in scorecard.catalog:
        from ..core.extensions import score_human_factors

        dep = measurements.deployment
        hours = max(measurements.scenario_duration_s / 3600.0, 1e-9)
        rate = dep.notifications_total / hours
        alerts = max(measurements.accuracy.alerts_total, 1)
        false_fraction = min(
            measurements.accuracy.false_alarms / alerts, 1.0)
        correlating = dep.correlating
        for metric, (score, evidence) in score_human_factors(
                rate, facts, correlating, false_fraction).items():
            m = scorecard.catalog.get(metric)
            method = _AN if _AN in m.methods else _OS
            scorecard.set_score(product, metric, score, method=method,
                                evidence=evidence)
    # dependability extension (measured-under-fault evidence): scored only
    # when the battery ran a fault plan AND the catalog carries the
    # extension metrics, so plain evaluations stay byte-identical
    if (measurements.dependability is not None
            and "Availability Under Faults" in scorecard.catalog):
        from .dependability import score_dependability

        for metric, (score, evidence, raw) in score_dependability(
                measurements.dependability).items():
            m = scorecard.catalog.get(metric)
            method = _AN if _AN in m.methods else _OS
            scorecard.set_score(product, metric, score, method=method,
                                evidence=evidence, raw_value=raw)
