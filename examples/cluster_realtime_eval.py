#!/usr/bin/env python
"""Full evaluation of the four simulated products on the cluster testbed.

Reproduces the paper's section-3.2 prototype evaluation: deploys each
product on the simulated distributed real-time LAN, replays the canned
attack scenario, measures every analysis metric, merges in the open-source
facts, and ranks the field under the real-time-cluster requirement profile.

Run:  python examples/cluster_realtime_eval.py        (~1 minute)
      python examples/cluster_realtime_eval.py --quick (~15 s)

``--workers N`` shards the battery across a process pool and ``--cache-dir``
stores completed work-unit results, so repeated runs of the
same code are nearly free.  Neither changes the printed output by a
single byte: results are merged in work-unit order, never completion order.
"""

import argparse

from repro.core.profiles import realtime_cluster_requirements
from repro.core.report import format_weighted_results
from repro.eval.runner import EvaluationOptions, evaluate_field
from repro.products import (
    AafidProduct,
    ManhuntProduct,
    NidProduct,
    RealSecureProduct,
)
from repro.report.figures import figure3_error_ratios
from repro.report.tables import scorecard_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller scenario and fewer load probes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width (1=serial, 0=one per CPU)")
    parser.add_argument("--cache-dir", nargs="?", const=".repro-cache",
                        default=None, metavar="DIR",
                        help="store work-unit results on disk "
                             "(.repro-cache/ when no path is given)")
    args = parser.parse_args()

    if args.quick:
        options = EvaluationOptions(
            seed=args.seed, n_hosts=4, scenario_duration_s=40.0,
            train_duration_s=15.0,
            throughput_rates_pps=(500, 4000, 32000), throughput_probe_s=0.4,
            workers=args.workers, cache_dir=args.cache_dir)
    else:
        options = EvaluationOptions(seed=args.seed, workers=args.workers,
                                    cache_dir=args.cache_dir)

    print("Evaluating 4 products on the distributed real-time cluster "
          "testbed...\n")
    field = evaluate_field(
        [NidProduct, RealSecureProduct, ManhuntProduct, AafidProduct],
        realtime_cluster_requirements(), options)

    for name, evaluation in field.evaluations.items():
        acc = evaluation.accuracy
        tp = evaluation.throughput
        lethal = ("none observed" if tp.lethal_dose_pps is None
                  else f"{tp.lethal_dose_pps:.0f} pps")
        print(f"{name}:")
        print(f"  detected {len(acc.detected)}/{len(acc.actual)} attacks, "
              f"{acc.false_alarms} false alarms "
              f"(FPR={acc.false_positive_ratio:.4f}, "
              f"FNR={acc.false_negative_ratio:.4f})")
        print(f"  zero-loss {tp.zero_loss_pps:.0f} pps, "
              f"lethal dose {lethal}, "
              f"system throughput {tp.system_throughput_pps:.0f} pps")
        missed = ", ".join(sorted(acc.missed)) or "none"
        print(f"  missed: {missed}\n")

    print(figure3_error_ratios(
        field.evaluations["sim-manhunt"].accuracy))
    print()
    print(scorecard_table(field.scorecard))
    print()
    print("Weighted under the real-time-cluster requirement profile "
          "(Figure 5):")
    print(format_weighted_results(field.results))
    print(f"\nRanking: {' > '.join(field.ranking())}")


if __name__ == "__main__":
    main()
