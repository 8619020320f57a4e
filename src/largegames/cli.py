"""Batch experiment harness.

Subcommands: generate (write a game descriptor), run (one algorithm over
seeds, reports as JSON), sweep (parameter grids to CSV), verify (grade a
profile on a game).  Outputs are byte-deterministic for fixed arguments
and seeds; the env var LGL_THREADS caps seed-level parallelism.

Exit codes: 0 success; 1 a graded failure (``verify`` found regret above
eps); 2 a usage or input error, such as a missing input file, reported as
one line ``error: <message>`` on stderr; 3 a run that violated its
declared bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import blocks, families, runner
from .games import MixedProfile, regret_report


def _parse_seeds(text: str) -> list[int]:
    """'0:50' is the half-open range, '1,2,3' an explicit list, '' empty."""
    if not text:
        return []
    if ":" in text:
        lo, hi = text.split(":")
        seeds = list(range(int(lo), int(hi)))
        if not seeds:
            raise ValueError(f"seed range {text!r} is empty")
        return seeds
    return [int(s) for s in text.split(",") if s]


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _family_params(args) -> dict:
    params = {"n": args.n, "k": args.k, "c": args.c}
    if args.family == "lower-bound":
        params = {"n": args.n, "ell": args.ell}
    if args.family == "tiny-tensor" and args.gamma is not None:
        params["gamma"] = args.gamma
    return params


def cmd_generate(args) -> int:
    params = _family_params(args)
    desc = families.descriptor(args.family, params, args.seed)
    game = families.game_from_descriptor(desc)  # validate before writing
    if args.materialize:
        if not hasattr(game, "to_json"):
            raise ValueError("only explicit tensor games can be materialized")
        text = game.to_json()
    else:
        text = families.descriptor_to_json(desc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_run(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = runner.ExperimentConfig.from_dict(json.load(fh))
        if args.out:
            config.out = args.out
    else:
        flag = {"c": "algo_c"}
        algo_params = {key: getattr(args, flag.get(key, key))
                       for key in runner.ALGOS[args.algo].reads}
        config = runner.ExperimentConfig(
            family={"family": args.family, "params": _family_params(args)},
            algo=args.algo, algo_params=algo_params, oracle=args.oracle,
            beta=args.beta, delta=args.delta, seeds=_parse_seeds(args.seeds),
            out=args.out, trace=args.trace)

    out_dir = config.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    results = runner.parallel_over_seeds(lambda s: runner.run_one(config, s),
                                         config.seeds)
    for seed, (report, _, trajectory) in zip(config.seeds, results):
        if report.extra.get("bound_ok") is False:
            all_ok = False
        line = report.to_json()
        if out_dir:
            with open(os.path.join(out_dir, f"report_seed{seed}.json"), "w") as fh:
                fh.write(line + "\n")
            if trajectory is not None:
                trajectory.write_csv(os.path.join(out_dir, f"trajectory_seed{seed}.csv"),
                                     downsample=args.downsample)
        print(line)
    return 0 if all_ok else 3


def cmd_sweep(args) -> int:
    if args.compare_bounds:
        rows = blocks.compare_methods(_parse_floats(args.c))
        cols = ["c", "curve_bound", "block_bound"]
        text = runner.rows_to_csv(rows, cols)
    elif args.bu_bounds:
        rows = blocks.bound_table(_parse_floats(args.c),
                                  _parse_ints(args.k_grid or str(args.k)),
                                  _parse_ints(args.blocks_grid or str(args.blocks)))
        cols = ["c", "k", "N", "epsilon_case", "epsilon"]
        text = runner.rows_to_csv(rows, cols)
    else:
        rows = runner.sweep_rows(
            algos=[a for a in args.algo.split(",") if a],
            family=args.family,
            ns=_parse_ints(args.n_grid or str(args.n)),
            cs=_parse_floats(args.c),
            ks=_parse_ints(args.k_grid or str(args.k)),
            alphas=_parse_floats(args.alpha_grid or str(args.alpha)),
            blocks_grid=_parse_ints(args.blocks_grid or str(args.blocks)),
            seeds=_parse_seeds(args.seeds),
            oracle=args.oracle, eta=args.eta, beta=args.beta, delta=args.delta,
            timing=args.timing)
        cols = list(runner.SWEEP_COLUMNS) + (["wall_ms"] if args.timing else [])
        text = runner.rows_to_csv(rows, cols)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_profile(path: str, n: int, k: int) -> MixedProfile:
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "binary" in obj:
        return MixedProfile.from_binary(np.asarray(obj["binary"], dtype=float))
    if isinstance(obj, dict) and "probs" in obj:
        return MixedProfile(np.asarray(obj["probs"], dtype=float))
    raise ValueError("profile JSON must contain 'binary' or 'probs'")


def cmd_verify(args) -> int:
    with open(args.game) as fh:
        game = families.game_from_json(fh.read())
    profile = _load_profile(args.profile, game.n, game.k)
    report = regret_report(game, profile)
    ok = report.max_regret <= args.eps
    out = {"eps": args.eps, "pass": bool(ok)} | report.to_dict()
    print(json.dumps(out, sort_keys=True))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="largegames",
                                     description="payoff-query equilibrium experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    default = {key: value for key, (_, value) in runner.PARAMS.items()}
    beta_help = ("sampling accuracy; exact mode ignores it, and plane, plane-comm and curve "
                 "default it to their step")
    delta_help = ("sampling failure probability; exact mode ignores it, and so do plane, "
                  "plane-comm and curve, which derive delta as eta/rounds")

    def add_family(p, c_as_grid=False):
        p.add_argument("--family", default="linear-influence", choices=families.FAMILIES)
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--k", type=int, default=2)
        if c_as_grid:
            p.add_argument("--c", default="1.0", help="comma-separated grid")
        else:
            p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--ell", type=float, default=4.0)
        p.add_argument("--gamma", type=float, default=None)

    gen = sub.add_parser("generate", help="write a family descriptor (or explicit tensor)")
    add_family(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--materialize", action="store_true",
                     help="write the explicit payoff tensor instead of the descriptor")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run one algorithm over seeds")
    add_family(run)
    run.add_argument("--config", default=None, help="JSON ExperimentConfig to load")
    run.add_argument("--algo", default="plane", choices=list(runner.ALGOS))
    run.add_argument("--oracle", default="exact", choices=["exact", "sampling"])
    run.add_argument("--alpha", type=float, default=default["alpha"])
    run.add_argument("--eta", type=float, default=default["eta"])
    run.add_argument("--beta", type=float, default=None, help=beta_help)
    run.add_argument("--delta", type=float, default=None, help=delta_help)
    run.add_argument("--algo-c", type=float, default=None,
                     help="influence budget c for %s (defaults to the game's)" % ", ".join(
                         name for name, entry in runner.ALGOS.items() if "c" in entry.reads))
    run.add_argument("--blocks", type=int, default=default["blocks"])
    run.add_argument("--step-h", type=float, default=default["step_h"], dest="step_h")
    run.add_argument("--horizon", type=float, default=default["horizon"])
    run.add_argument("--downsample", type=int, default=1)
    run.add_argument("--seeds", default="0:1")
    run.add_argument("--out", default=None)
    run.add_argument("--trace", default=None,
                     help="JSON-lines query trace path; '{seed}' expands per seed")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid of runs to CSV")
    add_family(sweep, c_as_grid=True)
    sweep.add_argument("--algo", default="plane")
    sweep.add_argument("--oracle", default="exact", choices=["exact", "sampling"])
    sweep.add_argument("--alpha", type=float, default=default["alpha"])
    sweep.add_argument("--alpha-grid", default=None)
    sweep.add_argument("--eta", type=float, default=default["eta"])
    sweep.add_argument("--beta", type=float, default=None, help=beta_help)
    sweep.add_argument("--delta", type=float, default=None, help=delta_help)
    sweep.add_argument("--blocks", type=int, default=default["blocks"])
    sweep.add_argument("--blocks-grid", default=None)
    sweep.add_argument("--n-grid", default=None)
    sweep.add_argument("--k-grid", default=None)
    sweep.add_argument("--seeds", default="")
    sweep.add_argument("--timing", action="store_true",
                       help="append a wall_ms column (off by default to keep bytes reproducible)")
    sweep.add_argument("--compare-bounds", action="store_true",
                       help="emit the curve-vs-block bound table for the c grid")
    sweep.add_argument("--bu-bounds", action="store_true",
                       help="emit the block-update bound table over c, k and blocks grids")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="grade a mixed profile on a game")
    ver.add_argument("--game", required=True, help="descriptor or explicit tensor JSON")
    ver.add_argument("--profile", required=True, help="profile JSON ('binary' or 'probs')")
    ver.add_argument("--eps", type=float, required=True)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
