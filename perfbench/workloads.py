"""The benchmark's workloads and the checks on every run's output.

Every workload uses the ``linear-influence`` family and drives the public
``largegames.runner.run_one(config, seed)``.  One *unit* of a workload is
the list of runner calls made for one game seed: a single run for the
sampled workloads, a cycle of four runs for ``exact-binary``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from largegames.binary import DynamicsParams
from largegames.runner import ExperimentConfig


def _config(algo, n, k=2, c=1.0, oracle="exact", beta=None, delta=None, **algo_params):
    return ExperimentConfig(
        family={"family": "linear-influence", "params": {"n": n, "k": k, "c": c}},
        algo=algo, algo_params=algo_params, oracle=oracle, beta=beta, delta=delta)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[ExperimentConfig, ...]
    trace_seeds: int   # game seeds a traced pass covers


# Why each workload exists is recorded in BENCHMARK.json.  ``plane-flow``
# is left out of exact-binary: ``simulate_plane_flow`` leaves the plane
# band on about 1 game in 300 (see test_smoke.py), and the benchmark runs
# only operations that succeed on every game it draws.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sampled-binary",
        (_config("plane", 10, oracle="sampling", beta=0.2, alpha=0.125, eta=0.1),),
        trace_seeds=4),
    Workload(
        "exact-binary",
        (_config("plane", 100, alpha=0.05),
         _config("plane-comm", 100, alpha=0.05),
         _config("curve", 100, c=4.0, alpha=0.05),
         _config("curve-flow", 20, c=2.0, step_h=1e-3, horizon=1.0)),
        trace_seeds=3),
    Workload(
        "sampled-kaction",
        (_config("block-update", 10, k=3, oracle="sampling", beta=0.3, delta=0.05,
                 blocks=10),),
        trace_seeds=2),
)}


def game_seeds(workload: Workload, seed: int):
    """Endless stream of distinct game seeds drawn from the workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    seen = set()
    while True:
        game = rng.randrange(2 ** 31)
        if game not in seen:
            seen.add(game)
            yield game


def expected_pure_queries(config: ExperimentConfig) -> int:
    """The closed-form query budget of one run; 0 for exact oracles."""
    if config.oracle == "exact":
        return 0
    params = config.family["params"]
    n, k = params["n"], params["k"]
    beta = config.beta
    if config.algo == "plane":
        dyn = DynamicsParams(alpha=config.algo_params["alpha"],
                             eta=config.algo_params["eta"])
        per_estimate = math.ceil(64.0 / beta ** 3 * math.log(8.0 * n * dyn.rounds / dyn.eta))
        return (dyn.rounds + 1) * per_estimate
    if config.algo == "block-update":
        per_estimate = math.ceil(64.0 * k * k / beta ** 3 * math.log(8.0 * n / config.delta))
        return config.algo_params["blocks"] * per_estimate
    raise ValueError(f"no query budget for sampled {config.algo}")


def sampled_regret_limit(config: ExperimentConfig) -> float:
    """Relaxed regret that 90% of sampled plane runs must meet (criterion 05)."""
    return 1.0 / 8.0 + config.algo_params["alpha"] + 3.0 * config.beta


def check_run(config: ExperimentConfig, report, trajectory) -> list[str]:
    """Problems with one run's output; empty when every check passes."""
    problems = []
    expected = expected_pure_queries(config)
    if report.pure_queries != expected:
        problems.append(f"pure_queries {report.pure_queries} != {expected}")
    if "declared_bound" in report.extra and report.extra.get("bound_ok") is not True:
        problems.append(f"max_regret {report.max_regret} exceeds declared bound "
                        f"{report.extra['declared_bound']}")
    if config.oracle == "exact" and config.algo in ("plane", "plane-comm", "curve") \
            and "declared_bound" not in report.extra:
        problems.append("exact run carries no declared bound")
    if report.max_regret is None:
        problems.append("run was not graded")
    h = config.algo_params.get("step_h")
    if config.algo == "plane-flow":
        reach = 0.5 + 2.0 * h
        if not (trajectory.first_inside() <= reach + 1e-12).all():
            problems.append(f"plane flow not inside the band by t = {reach}")
        if not trajectory.stays_inside(reach):
            late = abs(trajectory.residual[trajectory.times >= reach - 1e-12]).max()
            problems.append(f"plane flow leaves the band after t = {reach}: "
                            f"|residual| reaches {late:.4g} > {trajectory.band}")
    if config.algo == "curve-flow":
        c = config.algo_params.get("c", config.family["params"]["c"])
        limit = c / 8.0 + 10.0 * h * max(1.0, c)
        if report.max_regret is not None and report.max_regret > limit:
            problems.append(f"curve flow regret {report.max_regret} > {limit}")
    return problems


def fingerprint(report) -> tuple:
    """What a rerun of the same seed must reproduce byte for byte."""
    return (report.profile_digest, report.pure_queries, report.qm_calls,
            repr(report.max_regret))
