"""Evaluation harness: per-metric measurement procedures and the runner."""

from .accuracy import (
    SensitivitySweep,
    SweepPoint,
    equal_error_rate,
    run_accuracy,
    sensitivity_sweep,
)
from .corpus import ArtifactStore, open_store, source_digest
from .dependability import (
    DependabilityReport,
    FaultedRun,
    measure_dependability,
    run_scenario_under_faults,
    score_dependability,
)
from .ground_truth import AccuracyResult, count_transactions, score_alerts
from .latency import (
    LatencyReport,
    TimelinessReport,
    measure_induced_latency,
    timeliness_from_accuracy,
)
from .observer import MeasurementBundle, fill_scorecard, score_measurements, score_open_source
from .overhead import OverheadReport, logging_level_overhead, measure_host_overhead
from .parallel import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    WorkUnit,
    WorkUnitError,
    clear_cache,
    last_cache_stats,
)
from .runner import (
    EvaluationOptions,
    FieldEvaluation,
    ProductEvaluation,
    ScenarioMeasurement,
    assemble_evaluation,
    evaluate_field,
    evaluate_product,
    measure_rate,
    measure_scenario,
)
from .testbed import EvalTestbed, cluster_scenario, ecommerce_scenario
from .throughput import (
    LoadProbe,
    ThroughputReport,
    make_load_trace,
    probe_rate,
    report_from_probes,
)

__all__ = [
    "SensitivitySweep",
    "SweepPoint",
    "equal_error_rate",
    "run_accuracy",
    "sensitivity_sweep",
    "AccuracyResult",
    "count_transactions",
    "score_alerts",
    "DependabilityReport",
    "FaultedRun",
    "measure_dependability",
    "run_scenario_under_faults",
    "score_dependability",
    "LatencyReport",
    "TimelinessReport",
    "measure_induced_latency",
    "timeliness_from_accuracy",
    "MeasurementBundle",
    "fill_scorecard",
    "score_measurements",
    "score_open_source",
    "OverheadReport",
    "logging_level_overhead",
    "measure_host_overhead",
    "EvaluationOptions",
    "FieldEvaluation",
    "ProductEvaluation",
    "ScenarioMeasurement",
    "assemble_evaluation",
    "evaluate_field",
    "evaluate_product",
    "measure_rate",
    "measure_scenario",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "WorkUnit",
    "WorkUnitError",
    "clear_cache",
    "last_cache_stats",
    "ArtifactStore",
    "open_store",
    "source_digest",
    "EvalTestbed",
    "cluster_scenario",
    "ecommerce_scenario",
    "LoadProbe",
    "ThroughputReport",
    "make_load_trace",
    "probe_rate",
    "report_from_probes",
]
