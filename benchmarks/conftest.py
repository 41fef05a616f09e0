"""Shared fixtures for the benchmark harness.

The expensive artifact -- the full field evaluation of all four products --
is computed once per session and shared by every table/figure bench that
reads from it.  Each bench writes its regenerated table/figure to
``benchmarks/out/<name>.txt`` (and prints it), so the artifacts survive the
run for EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.core.profiles import realtime_cluster_requirements
from repro.eval.runner import EvaluationOptions, evaluate_field
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Options used for the shared full evaluation (the E1 configuration).
E1_OPTIONS = EvaluationOptions(
    seed=0,
    n_hosts=6,
    scenario_duration_s=70.0,
    train_duration_s=30.0,
    include_dos=True,
    flood_rate_pps=1500.0,
    throughput_rates_pps=(500, 1000, 2000, 4000, 8000, 16000, 32000, 64000),
    throughput_probe_s=1.0,
)

PRODUCT_FACTORIES = (NidProduct, RealSecureProduct, ManhuntProduct,
                     AafidProduct)


@pytest.fixture(scope="session")
def field_eval():
    """The full section-3.2 evaluation, shared across benches."""
    return evaluate_field(list(PRODUCT_FACTORIES),
                          realtime_cluster_requirements(), E1_OPTIONS)


def emit(name: str, text: str) -> str:
    """Persist a regenerated artifact and echo it to stdout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path
