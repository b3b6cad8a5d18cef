#!/usr/bin/env python3
"""Composition-operator ablation on synthetic partition panels.

Operators: A raw composed, B locally repaired composed, C raw plus joint
projection, D locally repaired plus joint projection. Reports mean
residual, mean exposure, and mean Brier against sampled resolutions.
"""

import argparse
import dataclasses
import sys

import numpy as np

from coherify.decision import brier, exposure
from coherify.polytope import Clique, partition
from coherify.simharness import OPERATORS, PanelModel, RoutingPolicy, run_ensemble


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-cliques", type=int, default=30)
    parser.add_argument("--n-seeds", type=int, default=4)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=0.05)
    parser.add_argument("--mass-bias", type=float, default=0.15,
                        help="uniform upward offset making raw panels over-allocate")
    parser.add_argument("--K", type=int, default=8,
                        help="samples per question; 0 = population limit")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        model = PanelModel(k=4, sigma=args.sigma, K=args.K or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    model = dataclasses.replace(model, biases=np.abs(model.bias_matrix(args.m)) + args.mass_bias)
    cliques = [Clique(id=f"partition-{i}", relation=partition(args.m))
               for i in range(args.n_cliques)]
    records = run_ensemble(cliques, model, RoutingPolicy("random-uniform"),
                           args.n_seeds, master_seed=args.seed)

    rel = partition(args.m)
    header = f"{'op':<4}{'mean eps':>12}{'mean exposure':>15}{'mean brier':>12}"
    print(header)
    print("-" * len(header))
    for op in OPERATORS:
        eps = np.mean([r.eps[op] for r in records])
        expo = np.mean([exposure(rel, np.array(r.quotes[op])) for r in records])
        score = np.mean([brier(np.array(r.quotes[op]), np.array(r.labels))
                         for r in records])
        print(f"{op:<4}{eps:>12.4f}{expo:>15.4f}{score:>12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
