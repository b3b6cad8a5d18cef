#!/usr/bin/env python3
"""Residual hardness by relation class under a shared synthetic panel.

Prints prevalence of positive residuals (overall and for genuinely split
routings) plus the mean residual, and optionally writes the per-cell
residuals as CSV for plotting.
"""

import argparse
import sys

from coherify.polytope import (
    conjunction,
    disjunction,
    ladder,
    negation,
    paraphrase,
    partition,
)
from coherify.simharness import PanelModel, hardness_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-cliques", type=int, default=40)
    parser.add_argument("--n-seeds", type=int, default=4)
    parser.add_argument("--panel-k", type=int, default=4)
    parser.add_argument("--sigma", type=float, default=0.08)
    parser.add_argument("--K", type=int, default=0, help="samples per question; 0 = population limit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default=None, help="write rows as CSV here")
    args = parser.parse_args(argv)

    try:
        model = PanelModel(k=args.panel_k, sigma=args.sigma, K=args.K or None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    relations = [partition(4), negation(), disjunction(), conjunction(), ladder(4),
                 paraphrase(3)]
    rows = hardness_experiment(model, relations, args.n_cliques, args.n_seeds,
                               master_seed=args.seed)

    header = f"{'relation':<12}{'Pr(eps>0)':>12}{'Pr|split':>12}{'mean eps':>12}{'n':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row.relation:<12}{row.prevalence:>12.3f}{row.prevalence_split:>12.3f}"
              f"{row.mean_eps:>12.4f}{row.n:>8}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("relation,prevalence,prevalence_split,mean_eps,n\n")
            for row in rows:
                fh.write(f"{row.relation},{row.prevalence},{row.prevalence_split},"
                         f"{row.mean_eps},{row.n}\n")
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
