#!/usr/bin/env python3
"""End-to-end gating calibration: simulate bets, sweep thresholds, print table."""

import argparse
import sys

from coherify.decision import GATE_MIN_BETS, AllocationRule, gate_sweep, regret
from coherify.polytope import Clique, partition
from coherify.simharness import PanelModel, RoutingPolicy, run_ensemble, to_bet_records


def error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-cliques", type=int, default=60)
    parser.add_argument("--n-seeds", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=0.15)
    parser.add_argument("--K", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--capture-targets", default="0.9,0.5")
    args = parser.parse_args(argv)
    try:  # gate_sweep's rule and message, checked before anything is simulated
        targets = tuple(float(t) for t in args.capture_targets.split(","))
        for target in targets:
            if not 0.0 < target <= 1.0:  # also false for NaN
                raise ValueError(f"capture target {target!r} is outside (0, 1]")
    except ValueError as exc:
        return error(str(exc))

    model = PanelModel(k=4, sigma=args.sigma, bias_scale=0.1, K=args.K)
    cliques = [Clique(id=f"partition-{i}", relation=partition(4))
               for i in range(args.n_cliques)]
    records = run_ensemble(cliques, model, RoutingPolicy("random-uniform"),
                           args.n_seeds, master_seed=args.seed)
    bets = to_bet_records(records)
    if len(bets) < GATE_MIN_BETS:
        return error(f"{len(bets)} bets, gate calibration needs at least {GATE_MIN_BETS}; "
                     "raise --n-cliques or --n-seeds")

    rule = AllocationRule("proportional")
    try:
        report = gate_sweep(bets, rule, capture_targets=targets, seed=args.seed)
    except ValueError as exc:
        return error(str(exc))
    summary = regret(bets, rule, seed=args.seed)
    print(f"bets: {summary.n} ({summary.n_unique_yes} unique-YES)")
    print(f"mean delta Brier: {summary.mean_delta_brier:+.4f} "
          f"CI {summary.ci_delta_brier}")
    if summary.mean_delta_log is not None:
        print(f"mean delta log-payoff: {summary.mean_delta_log:+.4f} "
              f"CI {summary.ci_delta_log}")

    print(f"\nAUC of the certificate against top-quartile log regret: {report.auc:.3f}")
    header = f"{'target':>8}{'tau':>10}{'alert':>8}{'capture':>9}{'FPR':>8}"
    print(header)
    print("-" * len(header))
    for point in report.operating_points:
        print(f"{point.capture_target:>8.2f}{point.tau:>10.4f}{point.alert_rate:>8.3f}"
              f"{point.capture:>9.3f}{point.fpr:>8.3f}")
    print("\n5-fold CV stability:")
    for cv in report.cv:
        capture, capture_sd, alert, alert_sd = (
            "n/a" if v is None else f"{v:.3f}"
            for v in (cv.mean_capture, cv.std_capture, cv.mean_alert_rate, cv.std_alert_rate))
        print(f"  target {cv.capture_target:.2f}: capture {capture} +- {capture_sd},"
              f" alert {alert} +- {alert_sd}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
