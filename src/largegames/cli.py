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


FAMILY_FLAGS = {key: cast for _, reads in families.FAMILIES.values()
                for key, (cast, _) in reads.items()}
# the defaults of the flags no table owns; run's flags default to unset, so
# that a flag given beside --config can be told from a default
DEFAULTS = {"family": "linear-influence", "n": 50, "algo": "plane", "oracle": "exact",
            "seeds": "0:1"}
# the run flag (its dest) of each algo_params key
ALGO_FLAGS = {key: "algo_c" if key == "c" else key for key in runner.PARAMS}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse_seeds(text: str) -> list[int]:
    """'0:50' is the half-open range, '1,2,3' an explicit list, '' empty."""
    if ":" not in text:
        return _parse_grid("seeds", text, int)
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ValueError(f"--seeds: expected a range lo:hi, got {text!r}") from None
    seeds = list(range(lo, hi))
    if not seeds:
        raise ValueError(f"seed range {text!r} is empty")
    return seeds


def _parse_grid(flag: str, text: str, cast) -> list:
    """The comma-separated grid given for --flag."""
    try:
        return [cast(x) for x in text.split(",") if x]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise ValueError(f"--{flag}: expected comma-separated {kind}, got {text!r}") from None


def _family_params(args) -> dict:
    """n, each family flag given and the defaults of the other params the family reads."""
    _, reads = families.FAMILIES[args.family]
    given = {key: getattr(args, key) for key in FAMILY_FLAGS if getattr(args, key) is not None}
    for key in (key for key in given if key not in reads):
        raise ValueError(f"family {args.family!r} does not read --{key}")
    return {"n": args.n} | {key: value for key, (_, value) in reads.items()
                            if value is not None} | given


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
    if args.config:  # the file sets everything but --out and --downsample
        for key, value in vars(args).items():
            if value is not None and key not in ("command", "func", "config", "out",
                                                 "downsample"):
                raise ValueError(f"{_flag(key)} cannot be given with --config")
        with open(args.config) as fh:
            config = runner.ExperimentConfig.from_dict(json.load(fh))
        if args.out:
            config.out = args.out
    else:
        for key, value in DEFAULTS.items():
            if getattr(args, key) is None:
                setattr(args, key, value)
        config = runner.ExperimentConfig.from_dict({
            "family": {"family": args.family, "params": _family_params(args)},
            "algo": args.algo, "oracle": args.oracle, "seeds": _parse_seeds(args.seeds),
            "algo_params": {key: getattr(args, dest) for key, dest in ALGO_FLAGS.items()
                            if getattr(args, dest) is not None},
            "beta": args.beta, "delta": args.delta, "out": args.out, "trace": args.trace,
        }, spell=lambda key: _flag(ALGO_FLAGS.get(key, key)))
    if args.downsample is not None:  # before any run or output file
        if args.downsample < 1:
            raise ValueError("downsample factor must be >= 1")
        flows = [name for name, entry in runner.ALGOS.items() if "step_h" in entry.reads]
        if not (config.out and config.algo in flows):  # only the flows write trajectories
            raise ValueError(f"--downsample needs --out and an algorithm that writes a "
                             f"trajectory ({', '.join(flows)})")

    results = runner.parallel_over_seeds(lambda s: runner.run_one(config, s),
                                         config.seeds)
    out_dir = config.out
    if out_dir:  # only once every run has returned
        os.makedirs(out_dir, exist_ok=True)
    all_ok = True
    for seed, (report, _, trajectory) in zip(config.seeds, results):
        if report.extra.get("bound_ok") is False:
            all_ok = False
        line = report.to_json()
        if out_dir:
            with open(os.path.join(out_dir, f"report_seed{seed}.json"), "w") as fh:
                fh.write(line + "\n")
            if trajectory is not None:
                trajectory.write_csv(os.path.join(out_dir, f"trajectory_seed{seed}.csv"),
                                     downsample=args.downsample or 1)
        print(line)
    return 0 if all_ok else 3


def cmd_sweep(args) -> int:
    params = {key: _parse_grid(key, value, FAMILY_FLAGS.get(key, int))  # n is an int
              if isinstance(value, str) else [value]  # a default, --ell or --gamma
              for key, value in _family_params(args).items()}
    blocks_grid = _parse_grid("blocks", args.blocks, runner.PARAMS["blocks"][0])
    if (args.compare_bounds or args.bu_bounds) and not {"c", "k"} <= params.keys():
        raise ValueError(f"family {args.family!r} has no c and k to tabulate bounds over")
    if args.compare_bounds:
        rows = blocks.compare_methods(params["c"])
        cols = ["c", "curve_bound", "block_bound"]
    elif args.bu_bounds:
        rows = blocks.bound_table(params["c"], params["k"], blocks_grid)
        cols = ["c", "k", "N", "epsilon_case", "epsilon"]
    else:
        rows = runner.sweep_rows(
            algos=[a for a in args.algo.split(",") if a],
            family=args.family,
            params=params,
            alphas=_parse_grid("alpha", args.alpha, runner.PARAMS["alpha"][0]),
            blocks_grid=blocks_grid,
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


def _load_profile(path: str) -> MixedProfile:
    with open(path) as fh:
        obj = json.load(fh)
    kind = "binary" if isinstance(obj, dict) and "binary" in obj else "probs"
    if not (isinstance(obj, dict) and kind in obj):
        raise ValueError("profile JSON must contain 'binary' or 'probs'")
    families.check_object(obj, (), f"{kind} profile", allowed=(kind,))  # not both
    values = np.asarray(obj[kind], dtype=float)
    return MixedProfile.from_binary(values) if kind == "binary" else MixedProfile(values)


def cmd_verify(args) -> int:
    if not np.isfinite(args.eps):
        raise ValueError("eps must be finite")
    with open(args.game) as fh:
        game = families.game_from_json(fh.read())
    profile = _load_profile(args.profile)
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
    readers = {key: [name for name, entry in runner.ALGOS.items() if key in entry.reads]
               for key in ("beta", "delta", "c")}
    banded = ", ".join(name for name in readers["beta"] if name not in readers["delta"])
    beta_help = ("accuracy of the sampling oracle, read by %s (default 0.1) and by %s "
                 "(default: their step)" % (", ".join(readers["delta"]), banded))
    delta_help = ("failure probability of the sampling oracle, read by %s (default 0.05); "
                  "%s derive it as eta/rounds" % (", ".join(readers["delta"]), banded))
    algo_c_help = "influence budget c for %s (defaults to the game's)" % ", ".join(readers["c"])

    grid = "comma-separated grid"

    def add_family(p, grids=False, unset=False):
        p.add_argument("--family", default=None if unset else DEFAULTS["family"],
                       choices=families.FAMILIES)
        if grids:  # parsed by cmd_sweep; the -grid spellings are aliases
            p.add_argument("--n", "--n-grid", default=str(DEFAULTS["n"]), help=grid)
        else:
            p.add_argument("--n", type=int, default=None if unset else DEFAULTS["n"])
        for key, cast in FAMILY_FLAGS.items():
            grid_flag = grids and key in ("k", "c")  # the sweep CSV has a column for each
            p.add_argument(f"--{key}", *(["--k-grid"] if grid_flag and key == "k" else []),
                           type=str if grid_flag else cast, help=grid if grid_flag else None)

    gen = sub.add_parser("generate", help="write a family descriptor (or explicit tensor)")
    add_family(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--materialize", action="store_true",
                     help="write the explicit payoff tensor instead of the descriptor")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run one algorithm over seeds")
    add_family(run, unset=True)
    run.add_argument("--config", help="JSON ExperimentConfig to load")
    run.add_argument("--algo", choices=list(runner.ALGOS))
    run.add_argument("--oracle", choices=["exact", "sampling"])
    for key, dest in ALGO_FLAGS.items():
        run.add_argument(_flag(dest), type=runner.PARAMS[key][0],
                         help=algo_c_help if key == "c" else None)
    run.add_argument("--beta", type=float, help=beta_help)
    run.add_argument("--delta", type=float, help=delta_help)
    run.add_argument("--downsample", type=int,
                     help="write every n-th trajectory step (flows with --out only)")
    run.add_argument("--seeds")
    run.add_argument("--out")
    run.add_argument("--trace",
                     help="JSON-lines query trace path; '{seed}' expands per seed")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid of runs to CSV")
    add_family(sweep, grids=True)
    sweep.add_argument("--algo", default="plane")
    sweep.add_argument("--oracle", default="exact", choices=["exact", "sampling"])
    sweep.add_argument("--alpha", "--alpha-grid", default=str(default["alpha"]), help=grid)
    sweep.add_argument("--eta", type=float, default=default["eta"])
    sweep.add_argument("--beta", type=float, default=None, help=beta_help)
    sweep.add_argument("--delta", type=float, default=None, help=delta_help)
    sweep.add_argument("--blocks", "--blocks-grid", default=str(default["blocks"]), help=grid)
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
