#!/usr/bin/env python3
"""Declared bounds of curve dynamics and block update next to the worst
measured regret on seeded games at each influence budget.

Each bound column is the bound its runs are held to: the curve bound at
``--alpha`` and the block-update bound at ``--blocks``.  Exits 1 when a
measured regret exceeds its bound.
"""

import argparse
import sys

import largegames as lg

TOL = 1e-9  # the slack the runner's bound_ok allows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--c", default="0.5,1,2,4")
    parser.add_argument("--n", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--blocks", type=int, default=100)
    parser.add_argument("--alpha", type=float, default=0.05)
    args = parser.parse_args()
    cs = [float(x) for x in args.c.split(",")]

    print("c,curve_bound,block_bound,curve_measured,block_measured")
    exceeded = []
    for c in cs:
        curve_bound = lg.curve_regret_bound(c, args.alpha)
        block_bound = lg.block_update_bound(c, 2, args.blocks)
        curve_worst = block_worst = 0.0
        for seed in range(args.seeds):
            game = lg.gen_linear_influence(args.n, 2, c, seed=seed)
            _, rep = lg.curve_dynamics(lg.OracleSession(game, seed=seed),
                                       lg.DynamicsParams(alpha=args.alpha))
            curve_worst = max(curve_worst, rep.max_regret)
            _, rep, _ = lg.block_update(lg.OracleSession(game, seed=seed), args.blocks)
            block_worst = max(block_worst, rep.max_regret)
        print(f"{c},{curve_bound},{block_bound},{curve_worst},{block_worst}")
        for name, worst, bound in (("curve", curve_worst, curve_bound),
                                   ("block", block_worst, block_bound)):
            if worst > bound + TOL:
                exceeded.append(f"{name} regret {worst} exceeds its bound {bound} at c={c}")
    for line in exceeded:
        print(f"error: {line}", file=sys.stderr)
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
