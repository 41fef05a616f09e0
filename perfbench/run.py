"""The repo's end-to-end, layer-attributed benchmark of the evaluation battery.

Run from the root of a checkout::

    python3 perfbench/run.py --workload e1-serial --seed 0 --seconds 34 \\
        --trace 0

Workloads (why each was chosen: see ``perfbench/README.md``):

* ``e1-serial``    -- the E1 four-product field evaluation, ``workers=1``,
  no cache dir (what ``evaluate_field`` does by default);
* ``fig4-sweep``   -- the ManHunt and NID Figure-4 sensitivity sweeps;
* ``e1-pool-cold`` -- E1 with ``workers=2`` and a fresh, empty cache dir.

Every repetition runs in a fresh process (``workload.py``).  With
``--trace 0`` the script repeats the workload as often as fits
``--seconds`` best (at least once), adds set-up-only spawns until it has
``SETUP_SAMPLES`` set-up samples, and reports the medians of the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced repetition and reports the per-layer metrics of the traced one plus
``trace_overhead_ratio``.  Every repetition checks its rendered output; the
last stdout line is the JSON result.  Exits 2 without a result when the
checkout lacks the program or its committed artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("e1-serial", "fig4-sweep", "e1-pool-cold")
REQUIRED = (
    os.path.join("src", "repro", "__init__.py"),
    os.path.join("benchmarks", "out", "e1_eval_products.txt"),
    os.path.join("benchmarks", "out", "fig4_eer_sweep.txt"),
    "BENCHMARK.json",
)
SETUP_SAMPLES = 11
#: every spawned process ends within this many seconds of the start
TIME_LIMIT_S = 170.0


def _spawn(workload: str, seed: int, workdir: str, deadline: float,
           *flags: str) -> dict:
    """Run one repetition in a fresh process and return its JSON line;
    the process is killed at ``deadline`` (CLOCK_MONOTONIC seconds)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"correct": False, "problems": ["time limit reached"]}
    rep_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", rep_dir,
           "--spawned-at", str(time.monotonic_ns()), *flags]
    # own session, so a timeout can stop the pool workers too
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _wait_group_gone(proc.pid)
        return {"correct": False, "problems": ["repetition timed out"]}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False,
                "problems": [f"repetition exited with {proc.returncode}"]}
    return json.loads(lines[-1])


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until every process of a killed group (the orphaned pool
    workers included) has ended."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _median(reps: list, key: str) -> float:
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def _report(rep: dict, label: str) -> None:
    parts = [f"{k}={rep[k]:.4f}" for k in
             ("setup_s", "battery_s", "peak_rss_mb", "worker_rss_mb")
             if k in rep]
    status = "ok" if rep.get("correct") else "; ".join(rep.get("problems", []))
    print(f"{label}: {' '.join(parts)} [{status}]", flush=True)


def timed_run(workload: str, seed: int, seconds: int, workdir: str,
              deadline: float) -> dict:
    start = time.monotonic()
    reps: list = []
    while True:
        t0 = time.monotonic()
        rep = _spawn(workload, seed, workdir, deadline)
        reps.append(rep)
        _report(rep, f"repetition {len(reps)}")
        elapsed = time.monotonic() - start
        last = time.monotonic() - t0
        # stop at the repetition count whose end lies nearest --seconds
        if (elapsed + last / 2 >= seconds or not rep.get("correct")
                or time.monotonic() + last > deadline):
            break
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        sample = _spawn(workload, seed, workdir, deadline, "--setup-only")
        if "setup_s" not in sample:
            break
        setups.append(sample["setup_s"])
    measured = [r for r in reps if "battery_s" in r]
    metrics = {
        "battery_s": _median(measured, "battery_s"),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": _median(measured, "peak_rss_mb"),
        "worker_rss_mb": _median(measured, "worker_rss_mb"),
    }
    print(f"set-up samples: {', '.join(f'{s:.4f}' for s in setups)}")
    return _result(reps, metrics)


def traced_run(workload: str, seed: int, workdir: str,
               deadline: float) -> dict:
    plain = _spawn(workload, seed, workdir, deadline)
    _report(plain, "untraced repetition")
    traced = _spawn(workload, seed, workdir, deadline, "--trace")
    _report(traced, "traced repetition")
    if traced.get("span_table"):
        print(traced["span_table"])
    metrics = dict(traced.get("layers", {}))
    if "battery_s" in traced and plain.get("battery_s"):
        metrics["trace_overhead_ratio"] = (traced["battery_s"]
                                           / plain["battery_s"])
    return _result([plain, traced], metrics)


def _result(reps: list, metrics: dict) -> dict:
    """The result line; a repetition that reported no operation count
    fails as many operations as the others attempted."""
    ops = next((r["ops"] for r in reps if "ops" in r), 1)
    attempted = sum(r.get("ops", ops) for r in reps)
    failed = sum(r.get("failed", r.get("ops", ops)) for r in reps)
    correct = all(r.get("correct") for r in reps) and not failed
    print(f"error_rate: {failed}/{attempted} = "
          f"{failed / max(attempted, 1):.4f}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _missing_files() -> list:
    return [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    missing = _missing_files()
    if missing:
        print(f"perfbench: not a checkout of the program; missing: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, workdir, deadline)
        else:
            result = timed_run(args.workload, args.seed, args.seconds,
                               workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    measured = result["metrics"]
    if result["correct"] and set(measured) != set(declared):
        print(f"perfbench: metrics {sorted(set(measured) ^ set(declared))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    # a failed run reports what it measured and 0 for the rest
    result["metrics"] = {name: {"value": measured.get(name, 0.0),
                                "unit": unit}
                         for name, unit in declared.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
