"""Experiment orchestration: configs, algorithm dispatch, declared
bounds, and deterministic parallel execution over seeds."""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from . import binary, blocks, continuous, families
from .games import MixedProfile
from .oracles import OracleSession
from .reports import build_report

# every algo_params key: (type, default); c defaults to the game's budget
PARAMS = {"alpha": (float, 0.05), "eta": (float, 0.1), "c": (float, None),
          "blocks": (int, 100), "step_h": (float, 1e-3), "horizon": (float, 1.0)}


@dataclass(frozen=True)
class Algorithm:
    """One entry of the algorithm table.

    ``reads`` names every input a run reads: keys of ``algo_params``
    (``PARAMS``) and the sampling oracle's ``beta`` and ``delta``.  The banded
    dynamics derive delta as eta/rounds, and uniform makes no query.
    ``run(session, config, params)`` returns (profile, report, trajectory or
    None); ``params`` holds what ``read`` picks, under the parameter names of
    the function run.  ``bound(params, game)`` is the worst-case regret an
    exact-oracle run declares.  Runs look module functions up by name when
    called, so a patched entry point is the one that runs.
    """

    run: Callable
    bound: Callable | None = None
    reads: tuple[str, ...] = ()
    binary_only: bool = True
    exact_only: bool = False

    def read(self, config, game) -> dict:
        """Each ``reads`` key of ``config.algo_params``, cast, with its default
        where unset or null (c: the game's), and beta and delta where the
        config sets them; an unset one keeps the default of the function run."""
        out = {}
        for key in self.reads:
            if key in PARAMS:
                cast, default = PARAMS[key]
                value = config.algo_params.get(key)
                value = default if value is None else value
                out[key] = cast(game.c if value is None else value)
            elif getattr(config, key) is not None:
                out[key] = getattr(config, key)
        return out


def _run_query(name, module=binary):
    """One-step, two-step and block-update take the oracle settings directly."""
    def run(session, config, params):
        out = getattr(module, name)(session, mode=config.oracle, **params)
        return out[0], out[1], None
    return run


def _run_banded(name):
    def run(session, config, params):
        dparams = binary.DynamicsParams(alpha=params["alpha"], eta=params["eta"])
        kwargs = {"c": params["c"]} if "c" in params else {}
        return (*getattr(binary, name)(session, dparams, mode=config.oracle,
                                       sample_beta=params.get("beta"), **kwargs), None)
    return run


def _run_flow(name):
    def run(session, config, params):
        trajectory = getattr(continuous, name)(session.game, **params)
        profile = MixedProfile.from_binary(trajectory.p[-1])
        report = build_report(config.algo, dict(params), session, profile,
                              rounds=trajectory.times.shape[0] - 1)
        return profile, report, trajectory
    return run


def _run_uniform(session, config, params):
    profile = MixedProfile.uniform(session.game.n, session.game.k)
    return profile, build_report("uniform", {}, session, profile, rounds=0), None


ALGOS = {
    "uniform": Algorithm(_run_uniform, lambda params, game: (game.k - 1) / game.k,
                         binary_only=False, exact_only=True),
    "one-step": Algorithm(_run_query("one_step"), lambda params, game: 0.272,
                          reads=("beta", "delta")),
    "two-step": Algorithm(_run_query("two_step"), lambda params, game: 0.25,
                          reads=("beta", "delta")),
    "plane": Algorithm(_run_banded("plane_dynamics"),
                       lambda params, game: 1.0 / 8.0 + params["alpha"],
                       reads=("alpha", "eta", "beta")),
    "plane-comm": Algorithm(_run_banded("communication_dynamics"),
                            lambda params, game: 137.0 / 1100.0 + params["alpha"],
                            reads=("alpha", "eta", "beta")),
    "curve": Algorithm(_run_banded("curve_dynamics"),
                       lambda params, game: binary.curve_regret_bound(params["c"],
                                                                      params["alpha"]),
                       reads=("alpha", "eta", "c", "beta")),
    "block-update": Algorithm(
        _run_query("block_update", blocks),
        lambda params, game: blocks.block_update_bound(game.c, game.k, params["blocks"]),
        reads=("blocks", "beta", "delta"), binary_only=False),
    "plane-flow": Algorithm(_run_flow("simulate_plane_flow"),
                            reads=("step_h", "horizon"), exact_only=True),
    "curve-flow": Algorithm(_run_flow("simulate_curve_flow"),
                            reads=("c", "step_h", "horizon"), exact_only=True),
}


# JSON type of each key of a config file besides "family"
_CONFIG_TYPES = {
    "algo": (str, "a string"), "oracle": (str, "a string"),
    "algo_params": (dict, "a JSON object"), "seeds": (list, "a JSON list"),
    "beta": ((int, float, type(None)), "a number or null"),
    "delta": ((int, float, type(None)), "a number or null"),
    "out": ((str, type(None)), "a string or null"),
    "trace": ((str, type(None)), "a string or null"),
}


@dataclass
class ExperimentConfig:
    """One batch: a game family, an algorithm, an oracle mode and seeds."""

    family: dict                      # {"family": name, "params": {...}}
    algo: str
    algo_params: dict = field(default_factory=dict)
    oracle: str = "exact"             # "exact" | "sampling"
    beta: float | None = None
    delta: float | None = None
    seeds: list[int] = field(default_factory=list)
    out: str | None = None
    trace: str | None = None

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        families.check_family(self.family.get("family"), self.family.get("params", {}))
        if self.oracle not in ("exact", "sampling"):
            raise ValueError("oracle must be 'exact' or 'sampling'")
        if ALGOS[self.algo].exact_only and self.oracle != "exact":
            raise ValueError(f"{self.algo} runs with the exact oracle only")
        if self.trace and len(self.seeds) > 1 and "{seed}" not in self.trace:
            raise ValueError("trace path needs a {seed} placeholder with multiple seeds")

    @classmethod
    def from_dict(cls, obj: dict, spell=repr) -> "ExperimentConfig":
        """The config a JSON object (a config file, or the run flags) sets; the
        one place that refuses an input the run would not read.  ``spell(key)``
        names a key as the input gave it, a config key or a flag."""
        families.check_object(obj, ("family", "algo"), "config",
                              allowed=("family", *_CONFIG_TYPES))
        families.check_object(obj["family"], ("family",), "config family",
                              allowed=("family", "params"))
        for key, (kinds, text) in _CONFIG_TYPES.items():  # no key takes a boolean
            if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], kinds)):
                raise ValueError(f"config {key!r} must be {text}")
        if not all(isinstance(seed, int) and not isinstance(seed, bool)
                   for seed in obj.get("seeds", [])):
            raise ValueError("config 'seeds' must hold integers")
        config = cls(**obj)
        # the oracle reads beta, delta and trace; null is the default
        oracle_inputs = [key for key in ("beta", "delta", "trace") if obj.get(key) is not None]
        for key in (*config.algo_params, *oracle_inputs):  # a null algo_params key too
            if config.oracle == "exact" and key in oracle_inputs:
                raise ValueError(f"oracle 'exact' does not read {spell(key)}")
            if key != "trace" and key not in ALGOS[config.algo].reads:
                raise ValueError(f"algorithm {config.algo!r} does not read {spell(key)}")
        families.check_object(config.algo_params, (), "config algo_params", allowed=PARAMS,
                              numbers=[key for key, value in config.algo_params.items()
                                       if value is not None])
        return config


def max_workers() -> int:
    cap = os.environ.get("LGL_THREADS")
    workers = os.cpu_count() or 1
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise ValueError(f"LGL_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, limit))
    return workers


def theoretical_bound(algo: str, params: dict, game) -> float | None:
    """The worst-case regret the exact-oracle run promises to respect."""
    bound = ALGOS[algo].bound
    return None if bound is None else bound(params, game)


def run_one(config: ExperimentConfig, seed: int):
    """Build the seeded game and session, run the algorithm, grade it.

    Returns (report, profile, trajectory-or-None).
    """
    game = families.make_game(config.family["family"],
                              config.family.get("params", {}), seed)
    trace = config.trace.replace("{seed}", str(seed)) if config.trace else None
    session = OracleSession(game, seed=seed, trace_path=trace)
    entry = ALGOS[config.algo]
    params = entry.read(config, game)
    try:
        profile, report, trajectory = entry.run(session, config, params)
    finally:
        session.close()

    bound = theoretical_bound(config.algo, params, game) if config.oracle == "exact" else None
    if bound is not None:
        report.extra["declared_bound"] = bound
        report.extra["bound_ok"] = bool(report.max_regret <= bound + 1e-9)
    return report, profile, trajectory


def parallel_over_seeds(fn, seeds):
    """Map fn over seeds with LGL_THREADS-capped workers; order preserved."""
    seeds = list(seeds)
    if not seeds:
        return []
    workers = min(max_workers(), len(seeds))
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


SWEEP_COLUMNS = ["algorithm", "family", "n", "c", "k", "alpha", "eta", "beta",
                 "delta", "blocks", "seed", "max_regret", "pure_queries", "qm_calls"]


def sweep_rows(algos, family: str, params: dict, alphas, blocks_grid, seeds,
               oracle: str = "exact", eta: float = PARAMS["eta"][1],
               beta: float | None = None, delta: float | None = None,
               timing: bool = False) -> list[dict]:
    """Cross product of the parameter grids, one row per run.

    ``params`` maps "n" and params the family reads to grids.  Each algorithm
    runs over the grids of the inputs it reads (``reads``), beta and delta
    only under the sampling oracle.  A row's alpha, eta, beta, delta and
    blocks cells hold the values its run read and are blank otherwise; its
    n, c and k are those of the game.
    """
    grids = {"alpha": list(alphas) or [PARAMS["alpha"][1]], "eta": [eta],
             "blocks": list(blocks_grid) or [PARAMS["blocks"][1]]}
    if oracle == "sampling":  # an unset one keeps the run's default and a blank cell
        grids |= {key: [value] for key, value in (("beta", beta), ("delta", delta))
                  if value is not None}
    rows = []
    for algo in algos:
        if algo not in ALGOS:
            raise ValueError(f"unknown algorithm {algo!r}")
        entry = ALGOS[algo]
        keys = [key for key in grids if key in entry.reads]
        for cell in itertools.product(*params.values(), *(grids[key] for key in keys)):
            read = dict(zip(keys, cell[len(params):]))
            config = ExperimentConfig(
                family={"family": family, "params": dict(zip(params, cell[:len(params)]))},
                algo=algo, algo_params={key: read[key] for key in read if key in PARAMS},
                oracle=oracle, beta=read.get("beta"), delta=read.get("delta"),
                seeds=list(seeds))
            k = families.check_family(family, config.family["params"]).get("k", 2)
            if entry.binary_only and k != 2:  # a family that does not read k is binary
                continue

            def timed(seed, config=config):
                start = time.perf_counter()
                report, _, _ = run_one(config, seed)
                return report, (time.perf_counter() - start) * 1e3

            for seed, (report, wall_ms) in zip(config.seeds,
                                               parallel_over_seeds(timed, config.seeds)):
                row = {"algorithm": algo, "family": family, "n": report.n, "c": report.c,
                       "k": k, "seed": seed, "max_regret": report.max_regret,
                       "pure_queries": report.pure_queries, "qm_calls": report.qm_calls}
                row |= {key: read.get(key, "")
                        for key in ("alpha", "eta", "beta", "delta", "blocks")}
                if timing:
                    row["wall_ms"] = round(wall_ms, 3)
                rows.append(row)

    def key(r):
        return (r["algorithm"], r["n"], r["c"], r["k"],
                str(r["alpha"]), str(r["blocks"]), r["seed"])
    return sorted(rows, key=key)


def _cell(value) -> str:
    if value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"
