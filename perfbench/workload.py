"""One repetition of one benchmark workload, in a fresh process.

``run.py`` spawns this script once per repetition, so nothing a previous
repetition cached in memory (the trace corpus keeps every corpus's decoded
traces for the life of the process) can turn later repetitions into
memory hits.  The script imports the checkout's own ``src/repro``, builds
the workload's inputs from ``--seed``, times the measured call, checks the
rendered output, and prints one JSON line::

    python3 perfbench/workload.py --workload e1-serial --seed 0 \\
        --workdir .perfbench-work/x --spawned-at <CLOCK_MONOTONIC ns>

``--setup-only`` stops right before the measured call (a set-up sample);
``--trace`` wraps the layers' entry points (see ``tracer.py``) and adds the
per-layer metrics to the line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The E1 configuration (``benchmarks/conftest.py:E1_OPTIONS``).  The
#: output gate pins it: seed 0 must render
#: ``benchmarks/out/e1_eval_products.txt``.
E1 = dict(n_hosts=6, scenario_duration_s=70.0, train_duration_s=30.0,
          include_dos=True, flood_rate_pps=1500.0,
          throughput_rates_pps=(500, 1000, 2000, 4000, 8000, 16000, 32000,
                                64000),
          throughput_probe_s=1.0)

#: The Figure-4 sweep points (``benchmarks/bench_fig4_eer_sweep.py``).
FIG4_SENSITIVITIES = (0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0)
FIG4_DURATION_S = 60.0

ARTIFACTS = {
    "e1": os.path.join("benchmarks", "out", "e1_eval_products.txt"),
    "fig4": os.path.join("benchmarks", "out", "fig4_eer_sweep.txt"),
}
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "reference.json")


class Workload:
    """A prepared workload: the measured call plus its output gate."""

    def __init__(self, name, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.output = "fig4" if name == "fig4-sweep" else "e1"
        self.pooled = name == "e1-pool-cold"
        if self.output == "e1":
            self._prepare_e1()
        else:
            self._prepare_fig4()

    # ------------------------------------------------------------------
    def _prepare_e1(self):
        from repro.core.profiles import realtime_cluster_requirements
        from repro.eval.runner import EvaluationOptions
        from repro.products import (AafidProduct, ManhuntProduct,
                                    NidProduct, RealSecureProduct)

        self.factories = [NidProduct, RealSecureProduct, ManhuntProduct,
                          AafidProduct]
        self.requirements = realtime_cluster_requirements()
        if self.pooled:
            self.cache_dir = os.path.join(self.workdir, "cache")
            os.makedirs(self.cache_dir)
            execution = dict(workers=2, cache_dir=self.cache_dir)
        else:
            execution = dict(workers=1, cache_dir=None)
        self.options = EvaluationOptions(seed=self.seed, **E1, **execution)
        # one operation per work unit: a scenario unit and one rate unit
        # per probe rate, for each product
        self.ops = len(self.factories) * (1 + len(E1["throughput_rates_pps"]))

    def _prepare_fig4(self):
        from repro.products import ManhuntProduct, NidProduct

        self.sweeps = (
            (lambda s: ManhuntProduct(sensitivity=s), "sim-manhunt"),
            (lambda s: NidProduct(sensitivity=s), "sim-nid"),
        )
        self.ops = len(self.sweeps) * len(FIG4_SENSITIVITIES)

    # ------------------------------------------------------------------
    def call(self):
        """The measured call."""
        if self.output == "e1":
            from repro.eval.runner import evaluate_field
            return evaluate_field(self.factories, self.requirements,
                                  self.options)
        from repro.eval.accuracy import sensitivity_sweep
        return [sensitivity_sweep(factory, name, FIG4_SENSITIVITIES,
                                  seed=self.seed, duration_s=FIG4_DURATION_S)
                for factory, name in self.sweeps]

    def render(self, result) -> str:
        """The artifact text, exactly as the benchmarks write it."""
        if self.output == "e1":
            from repro.core.report import format_weighted_results
            from repro.report.tables import scorecard_table
            text = (format_weighted_results(result.results) + "\n\n"
                    + scorecard_table(result.scorecard, table_only=False))
        else:
            from repro.report.figures import figure4_error_curves
            text = "\n\n".join(figure4_error_curves(s) for s in result)
        return text + "\n"

    # ------------------------------------------------------------------
    def check(self, result, text: str) -> list:
        """Problems with the rendered output (empty when correct).

        Seed 0 must equal the committed artifact byte for byte; a seed with
        a recorded reference digest must match it; any other seed gets the
        structural checks only.
        """
        if self.seed == 0:
            with open(os.path.join(ROOT, ARTIFACTS[self.output]),
                      encoding="utf-8") as fh:
                if fh.read() != text:
                    return [f"output differs from {ARTIFACTS[self.output]}"]
            return []
        with open(REFERENCES, encoding="utf-8") as fh:
            digests = json.load(fh)["digests"][self.output]
        expected = digests.get(str(self.seed))
        if expected is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != expected:
                return [f"output digest {digest[:12]} differs from the "
                        f"reference {expected[:12]} for seed {self.seed}"]
            return []
        return self._structure(result)

    def _structure(self, result) -> list:
        problems = []
        if self.output == "e1":
            card = result.scorecard
            names = [factory().name for factory in self.factories]
            if [w.product for w in result.results] != names:
                problems.append(f"products scored "
                                f"{[w.product for w in result.results]}, "
                                f"expected {names}")
            for product in card.products:
                if card.missing(product):
                    problems.append(f"{product}: unscored metrics")
            for weighted in result.results:
                if weighted.unscored_weighted:
                    problems.append(f"{weighted.product}: weighted metrics "
                                    f"unscored: {weighted.unscored_weighted}")
        else:
            for sweep in result:
                if len(sweep.points) != len(FIG4_SENSITIVITIES):
                    problems.append(f"{sweep.product}: missing points")
                for p in sweep.points:
                    if not (0.0 <= p.false_positive_ratio <= 1.0
                            and 0.0 <= p.false_negative_ratio <= 1.0):
                        problems.append(f"{sweep.product}: ratio out of "
                                        f"range at {p.sensitivity}")
        return problems

    def trace_problems(self, rec, layers: dict) -> list:
        """Gaps in the traced repetition's coverage: an entry point that
        was not found, or work units whose spans did not arrive (on
        ``e1-pool-cold``: were not handed back by the pool workers)."""
        problems = [f"traced entry point not found: {target}"
                    for target in rec.missing]
        if self.output == "e1":
            units = {"scenario/rate units": layers["eval.scenario_unit_calls"]
                     + layers["eval.rate_unit_calls"]}
            if self.pooled:
                units["units handed back by pool workers"] = \
                    layers["eval.worker_units"]
        else:
            units = {"accuracy points": layers["eval.accuracy_point_calls"]}
        for what, seen in units.items():
            if seen != self.ops:
                problems.append(f"traced {seen} {what}, expected {self.ops}")
        return problems

    def warm_rerun(self, text: str) -> list:
        """Untimed re-run on the same cache dir: every unit must hit (no
        unit executes, no cache entry is rewritten) and the output must be
        byte-identical to the cold run's."""
        from tracer import patch

        markers = os.path.join(self.workdir, "executed")
        os.makedirs(markers)

        def mark(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                os.close(tempfile.mkstemp(dir=markers)[0])
                return fn(*args, **kwargs)
            return wrapper

        for target in ("repro.eval.runner:measure_scenario",
                       "repro.eval.runner:measure_rate"):
            patch(target, mark)
        before = _snapshot(self.cache_dir)
        warm = self.render(self.call())
        problems = []
        if warm != text:
            problems.append("warm re-run output differs from the cold run")
        executed = len(os.listdir(markers))
        if executed:
            problems.append(f"warm re-run executed {executed} unit(s)")
        if _snapshot(self.cache_dir) != before:
            problems.append("warm re-run rewrote the cache")
        return problems


def _snapshot(root: str) -> dict:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_ino, st.st_size,
                                                st.st_mtime_ns)
    return out


def _peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("e1-serial", "fig4-sweep", "e1-pool-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=int, required=True,
                        help="CLOCK_MONOTONIC ns just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
            SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed, args.workdir)
    rec = None
    if args.trace:
        import tracer
        handback = os.path.join(args.workdir, "handback")
        os.makedirs(handback)
        rec = tracer.install(handback)
    started = time.monotonic_ns()
    out = {"setup_s": (started - args.spawned_at) / 1e9, "ops": workload.ops}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    t0 = time.perf_counter()
    try:
        result = workload.call()
    except Exception:
        traceback.print_exc()
        out.update(failed=workload.ops, correct=False,
                   problems=["the measured call raised"])
        print(json.dumps(out))
        return 0
    out["battery_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_mb(resource.RUSAGE_SELF)
    out["worker_rss_mb"] = _peak_mb(resource.RUSAGE_CHILDREN
                                    if workload.pooled
                                    else resource.RUSAGE_SELF)

    if rec is None:
        text = workload.render(result)
    else:
        rec.merge_handbacks()
        with rec.span("report.render"):
            text = workload.render(result)
        out["layers"] = tracer.layer_metrics(rec)
        out["span_table"] = tracer.span_table(rec)
    problems = workload.check(result, text)
    if rec is not None:
        problems += workload.trace_problems(rec, out["layers"])
    if workload.pooled:
        problems += workload.warm_rerun(text)
    out.update(failed=workload.ops if problems else 0,
               correct=not problems, problems=problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
