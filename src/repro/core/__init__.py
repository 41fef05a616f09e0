"""The paper's contribution: metric scorecard methodology.

Workflow (sections 3.1-3.3):

1. take the :func:`~repro.core.catalog.default_catalog` of well-defined
   metrics (Tables 1-3 plus the defined-but-not-printed metrics);
2. state user requirements in a least-to-most-important partial order
   (:class:`~repro.core.requirements.RequirementSet`, or a canned profile
   from :mod:`repro.core.profiles`);
3. derive per-metric weights (:func:`~repro.core.weighting.derive_weights`,
   Figure 6);
4. score each candidate IDS 0-4 per metric by analysis or open-source
   material (:class:`~repro.core.scorecard.Scorecard`);
5. compute the weighted class scores ``S_j = sum(U_ij * W_ij)``
   (:func:`~repro.core.scoring.weighted_scores`, Figure 5) and rank.
"""

from .catalog import MetricCatalog, default_catalog
from .extensions import (
    extend_catalog,
    human_factors_metrics,
    human_factors_requirement,
    score_human_factors,
    score_operator_workload,
)
from .io import (
    load_scorecard,
    save_scorecard,
    scorecard_from_dict,
    scorecard_to_dict,
)
from .longitudinal import EvaluationHistory, EvaluationRecord, ScoreDelta
from .robustness import RobustnessReport, pairwise_margin, ranking_robustness
from .metric import (
    SCORE_MAX,
    SCORE_MIN,
    Metric,
    MetricClass,
    ObservationMethod,
    ScoreAnchors,
    validate_score,
)
from .profiles import (
    distributed_requirements,
    ecommerce_requirements,
    realtime_cluster_requirements,
)
from .report import format_weighted_results
from .requirements import Requirement, RequirementSet
from .scorecard import ScoreEntry, Scorecard
from .scoring import WeightedResult, rank_products, weighted_scores
from .weighting import derive_weights, figure6_example

__all__ = [
    "MetricCatalog",
    "default_catalog",
    "extend_catalog",
    "human_factors_metrics",
    "human_factors_requirement",
    "score_human_factors",
    "score_operator_workload",
    "EvaluationHistory",
    "EvaluationRecord",
    "ScoreDelta",
    "save_scorecard",
    "load_scorecard",
    "RobustnessReport",
    "ranking_robustness",
    "pairwise_margin",
    "scorecard_to_dict",
    "scorecard_from_dict",
    "Metric",
    "MetricClass",
    "ObservationMethod",
    "ScoreAnchors",
    "SCORE_MIN",
    "SCORE_MAX",
    "validate_score",
    "Requirement",
    "RequirementSet",
    "derive_weights",
    "figure6_example",
    "ScoreEntry",
    "Scorecard",
    "WeightedResult",
    "weighted_scores",
    "rank_products",
    "realtime_cluster_requirements",
    "distributed_requirements",
    "ecommerce_requirements",
    "format_weighted_results",
]
