#!/usr/bin/env python3
"""Measured vs predicted pure-query spend of the sampled banded dynamics
as the accuracy target varies (relaxed sampling accuracy to stay cheap).

Exits 1 when a run's spend differs from the predicted budget.
"""

import argparse
import math
import sys

import largegames as lg


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--alphas", default="0.05,0.1,0.2")
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--beta", type=float, default=0.2)
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("alpha,rounds,predicted_queries,measured_queries,max_regret")
    mismatched = []
    for alpha in (float(a) for a in args.alphas.split(",")):
        params = lg.DynamicsParams(alpha=alpha, eta=args.eta)
        predicted = (params.rounds + 1) * math.ceil(
            64 / args.beta ** 3 * math.log(8 * args.n * params.rounds / args.eta))
        game = lg.gen_linear_influence(args.n, 2, 1.0, seed=args.seed)
        session = lg.OracleSession(game, seed=args.seed)
        _, report = lg.plane_dynamics(session, params, mode="sampling",
                                      sample_beta=args.beta)
        if report.pure_queries != predicted:
            mismatched.append(f"alpha={alpha} spent {report.pure_queries} pure queries, "
                              f"predicted {predicted}")
        print(f"{alpha},{params.rounds},{predicted},{report.pure_queries},"
              f"{report.max_regret}")
    for line in mismatched:
        print(f"error: {line}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
