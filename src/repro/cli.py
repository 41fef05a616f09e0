"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print the metric-definition tables (Tables 1-3).
``catalog``
    List the full metric catalog, with definitions and anchors.
``scenario``
    Generate a canned, ground-truth-labeled evaluation scenario and save
    it as a binary trace.
``evaluate``
    Run the full product-field evaluation and print the weighted ranking.
    ``--workers N`` shards the measurement battery across a process pool;
    ``--cache-dir [DIR]`` memoizes completed work units on disk.  Both are
    execution knobs only: the rendered output is bit-identical for any
    worker count and cache state.
``sweep``
    Run a Figure-4 sensitivity sweep for one product.
``clear-cache``
    Delete the memoized evaluation work units (default ``.repro-cache/``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]

_PROFILES = ("realtime", "distributed", "ecommerce")
_PRODUCTS = ("nid", "realsecure", "manhunt", "aafid")


def _fault_plan_names():
    from .sim.faults import plan_names

    return plan_names()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Metrics-based IDS evaluation for distributed "
                    "real-time systems (Fink et al., WPDRTS 2002)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables 1-3 (metric definitions)")

    p_cat = sub.add_parser("catalog", help="list the metric catalog")
    p_cat.add_argument("--all", action="store_true",
                       help="include the defined-but-not-in-table metrics")
    p_cat.add_argument("--human-factors", action="store_true",
                       help="include the human-dimension extension")

    p_tmpl = sub.add_parser(
        "template",
        help="export a blank scorecard (the paper: 'the current complete "
             "scorecard is available from the authors')")
    p_tmpl.add_argument("--out", required=True, help="output .json path")
    p_tmpl.add_argument("--products", nargs="+", default=["candidate-ids"])
    p_tmpl.add_argument("--human-factors", action="store_true")

    p_scn = sub.add_parser("scenario",
                           help="generate a labeled evaluation scenario")
    p_scn.add_argument("--out", required=True, help="output .rtrc path")
    p_scn.add_argument("--profile", choices=("cluster", "ecommerce"),
                       default="cluster")
    p_scn.add_argument("--duration", type=float, default=70.0)
    p_scn.add_argument("--seed", type=int, default=0)
    p_scn.add_argument("--no-dos", action="store_true",
                       help="omit the flood attacks")

    p_eval = sub.add_parser("evaluate", help="run the field evaluation")
    p_eval.add_argument("--profile", choices=_PROFILES, default="realtime")
    p_eval.add_argument("--quick", action="store_true")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--products", nargs="+", choices=_PRODUCTS,
                        default=list(_PRODUCTS))
    p_eval.add_argument("--workers", type=int, default=1,
                        help="process-pool width (1=serial, 0=one per CPU); "
                             "results are bit-identical for any value")
    p_eval.add_argument("--cache-dir", nargs="?", const=".repro-cache",
                        default=None, metavar="DIR",
                        help="store completed work-unit results in DIR, "
                             "keyed by their inputs and a digest of the "
                             "source (default dir .repro-cache/ when the "
                             "flag is given without a path)")
    p_eval.add_argument("--faults", choices=_fault_plan_names(),
                        default="none", metavar="PLAN",
                        help="run the dependability experiment under this "
                             "named fault plan and score the two extension "
                             "metrics ('none' skips it; plans: "
                             f"{', '.join(_fault_plan_names())})")

    p_cc = sub.add_parser("clear-cache",
                          help="delete the stored work-unit results")
    p_cc.add_argument("--cache-dir", default=".repro-cache", metavar="DIR")

    p_sweep = sub.add_parser("sweep", help="Figure-4 sensitivity sweep")
    p_sweep.add_argument("--product", choices=("nid", "realsecure", "manhunt"),
                         default="manhunt")
    p_sweep.add_argument("--points", type=int, default=6,
                         help="number of sensitivity points")
    p_sweep.add_argument("--duration", type=float, default=50.0)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--faults", choices=_fault_plan_names(),
                         default="none", metavar="PLAN",
                         help="sweep every sensitivity point under this "
                              "named fault plan (degraded Figure-4 curves)")
    return parser


def _product_factory(name: str):
    from .products import (
        AafidProduct,
        ManhuntProduct,
        NidProduct,
        RealSecureProduct,
    )
    return {"nid": NidProduct, "realsecure": RealSecureProduct,
            "manhunt": ManhuntProduct, "aafid": AafidProduct}[name]


def _requirements(name: str):
    from .core.profiles import (
        distributed_requirements,
        ecommerce_requirements,
        realtime_cluster_requirements,
    )
    return {"realtime": realtime_cluster_requirements,
            "distributed": distributed_requirements,
            "ecommerce": ecommerce_requirements}[name]()


def _cmd_tables(args, out) -> int:
    from .report.tables import table1, table2, table3

    print(table1(), file=out)
    print("", file=out)
    print(table2(), file=out)
    print("", file=out)
    print(table3(), file=out)
    return 0


def _cmd_catalog(args, out) -> int:
    from .core.catalog import default_catalog
    from .core.extensions import extend_catalog

    catalog = default_catalog()
    if args.human_factors:
        catalog = extend_catalog(catalog)
    for metric in catalog:
        if not args.all and not metric.in_paper_table and not args.human_factors:
            continue
        methods = ", ".join(sorted(m.value for m in metric.methods))
        print(f"[class {metric.metric_class.value}] {metric.name} "
              f"({methods})", file=out)
        print(f"    {metric.definition}", file=out)
        if metric.anchors:
            print(f"    low(0): {metric.anchors.low}", file=out)
            print(f"    avg(2): {metric.anchors.average}", file=out)
            print(f"    high(4): {metric.anchors.high}", file=out)
    return 0


def _cmd_template(args, out) -> int:
    from .core.catalog import default_catalog
    from .core.extensions import extend_catalog
    from .core.io import save_scorecard
    from .core.scorecard import Scorecard

    catalog = default_catalog()
    if args.human_factors:
        catalog = extend_catalog(catalog)
    card = Scorecard(catalog)
    for product in args.products:
        card.add_product(product)
    save_scorecard(card, args.out)
    print(f"blank scorecard for {len(card.products)} product(s) over "
          f"{len(catalog)} metrics written to {args.out}", file=out)
    print("score each metric 0-4 per the anchors "
          "(python -m repro catalog --all) and reload with "
          "repro.core.load_scorecard", file=out)
    return 0


def _cmd_scenario(args, out) -> int:
    from .net.address import Subnet
    from .eval.testbed import cluster_scenario, ecommerce_scenario

    nodes = list(Subnet("10.0.0.0/24").hosts(6))
    if args.profile == "cluster":
        scenario = cluster_scenario(nodes, duration_s=args.duration,
                                    seed=args.seed,
                                    include_dos=not args.no_dos)
    else:
        scenario = ecommerce_scenario(nodes[0], nodes,
                                      duration_s=args.duration,
                                      seed=args.seed,
                                      include_dos=not args.no_dos)
    scenario.trace.save(args.out)
    print(scenario.summary(), file=out)
    print(f"\nsaved {len(scenario.trace)} packets to {args.out}", file=out)
    return 0


def _cmd_evaluate(args, out) -> int:
    from .core.report import format_weighted_results
    from .eval.runner import EvaluationOptions, evaluate_field
    from .report.tables import scorecard_table

    if args.quick:
        options = EvaluationOptions(
            seed=args.seed, n_hosts=4, scenario_duration_s=40.0,
            train_duration_s=15.0,
            throughput_rates_pps=(500, 4000, 32000), throughput_probe_s=0.4,
            workers=args.workers, cache_dir=args.cache_dir,
            faults=args.faults)
    else:
        options = EvaluationOptions(seed=args.seed, workers=args.workers,
                                    cache_dir=args.cache_dir,
                                    faults=args.faults)
    factories = [_product_factory(p) for p in args.products]
    requirements = _requirements(args.profile)
    catalog = None
    if args.faults != "none":
        from .core.catalog import default_catalog
        from .core.extensions import (
            dependability_metrics,
            dependability_requirement,
            extend_catalog,
        )

        catalog = extend_catalog(default_catalog(), dependability_metrics())
        requirements.add(dependability_requirement())
    field = evaluate_field(factories, requirements, options, catalog)
    print(scorecard_table(field.scorecard), file=out)
    print("", file=out)
    print(format_weighted_results(field.results), file=out)
    print(f"\nranking ({args.profile}): {' > '.join(field.ranking())}",
          file=out)
    if args.faults != "none":
        from .report.tables import dependability_table

        reports = [ev.bundle.dependability
                   for ev in field.evaluations.values()
                   if ev.bundle.dependability is not None]
        print("", file=out)
        print(dependability_table(reports), file=out)
    if args.cache_dir is not None:
        from .eval.parallel import last_cache_stats

        stats = last_cache_stats()
        unreadable = (f", {stats.unreadable} unreadable"
                      if stats.unreadable else "")
        print(f"result cache: {stats.hits} hit(s), {stats.misses} miss(es)"
              f"{unreadable}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    from .eval.accuracy import sensitivity_sweep
    from .report.figures import figure4_error_curves

    factory_cls = _product_factory(args.product)
    points = [i / max(args.points - 1, 1) for i in range(args.points)]
    points = [max(p, 0.05) for p in points]
    fault_plan = None
    if args.faults != "none":
        from .sim.faults import named_plan

        fault_plan = named_plan(args.faults, seed=args.seed)
    sweep = sensitivity_sweep(
        lambda s: factory_cls(sensitivity=s), f"sim-{args.product}",
        tuple(points), seed=args.seed, duration_s=args.duration,
        fault_plan=fault_plan)
    print(figure4_error_curves(sweep), file=out)
    return 0


def _cmd_clear_cache(args, out) -> int:
    from .eval.parallel import clear_cache

    removed = clear_cache(args.cache_dir)
    print(f"removed {removed} stored work-unit result(s) from "
          f"{args.cache_dir}", file=out)
    return 0


_COMMANDS = {
    "tables": _cmd_tables,
    "catalog": _cmd_catalog,
    "template": _cmd_template,
    "scenario": _cmd_scenario,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "clear-cache": _cmd_clear_cache,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)
