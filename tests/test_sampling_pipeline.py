"""One sampling pipeline behind both samplers, and the query budget of
every sampled entry point."""

import math

import numpy as np
import pytest

import largegames as lg
from largegames import oracles, runner
from largegames.binary import curve_band
from test_binary_chunk import reference_estimate as binary_reference
from test_kaction_chunk import random_profile
from test_kaction_chunk import reference_estimate as kaction_reference


@pytest.mark.parametrize("chunk", (17, 4096))
def test_binary_and_kaction_estimates_share_one_buffer_set(monkeypatch, chunk):
    # both samplers of one k = 2 session draw into the same threshold tiles,
    # so each estimate must refill them; one generator drives every reference
    rows = chunk + chunk // 2 + 1
    monkeypatch.setattr(oracles, "binary_sample_count", lambda *args: rows)
    monkeypatch.setattr(oracles, "kaction_sample_count", lambda *args: rows + 5)
    game = lg.gen_linear_influence(7, 2, 1.0, seed=3)
    session = lg.OracleSession(game, seed=11)
    session._CHUNK = chunk
    rng = np.random.default_rng(11)
    for step in range(4):
        profile = random_profile(7, 2, seed=step)
        if step % 2 == 0:
            est = session.sample_mixed_binary(profile.probs, 0.3, 0.05)
            _, counts, values, _ = binary_reference(game, profile, 0.3, rng, rows, chunk)
        else:
            est = session.sample_mixed_kaction(profile.probs, 0.3, 0.05)
            _, counts, values = kaction_reference(game, profile, 0.3, rng, rows + 5, chunk)
        assert np.array_equal(est.counts, counts)
        assert np.array_equal(est.values, values)
    assert session.pure_queries == 2 * rows + 2 * (rows + 5)
    assert session.rng.random() == rng.random()


BETA, DELTA, ETA = 0.5, 0.2, 0.1

# (algo, family, k, seeds): two linear-influence seeds of plane-comm keep
# theta_bit off, and the lower-bound game, all of whose players sit at
# regret 1/8 on the plane, turns it on
BUDGET_RUNS = [
    ("one-step", "linear-influence", 2, (0,)),
    ("two-step", "linear-influence", 2, (0,)),
    ("plane", "linear-influence", 2, (0,)),
    ("plane-comm", "linear-influence", 2, (0, 1)),
    ("plane-comm", "lower-bound", 2, (0, 1)),
    ("curve", "linear-influence", 2, (0,)),
    ("block-update", "linear-influence", 2, (0,)),
    ("block-update", "linear-influence", 3, (0,)),
]


def per_estimate_queries(algo, n, k, alpha):
    """Pure queries of one estimate at c = 1, from the paper's formula; the
    banded dynamics take delta = eta / rounds, with a quarter-band step."""
    if algo in ("plane", "plane-comm", "curve"):
        rounds = math.ceil(2.0 / (curve_band(alpha, 1.0) / 4.0))
        return math.ceil(64.0 / BETA ** 3 * math.log(8.0 * n * rounds / ETA))
    scale = k * k if algo == "block-update" else 1
    return math.ceil(64.0 * scale / BETA ** 3 * math.log(8.0 * n / DELTA))


@pytest.mark.parametrize("algo,family,k,seeds", BUDGET_RUNS)
def test_query_budget_holds_under_every_sampled_entry_point(monkeypatch, algo, family, k,
                                                           seeds):
    calls = []
    for name in ("sample_mixed_binary", "sample_mixed_kaction"):
        original = vars(lg.OracleSession)[name]

        def counted(self, *args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(lg.OracleSession, name, counted)
    n, alpha = 6, 0.2
    params = {"n": n, "k": k, "c": 1.0} if family == "linear-influence" else {"n": n}
    config = runner.ExperimentConfig(
        family={"family": family, "params": params}, algo=algo,
        algo_params={"alpha": alpha, "eta": ETA, "blocks": 5}, oracle="sampling",
        beta=BETA, delta=DELTA, seeds=list(seeds))
    theta_bits = set()
    for seed in seeds:
        calls.clear()
        report, _, _ = runner.run_one(config, seed)
        banded = algo in ("plane", "plane-comm", "curve")
        assert len(calls) == report.rounds + (1 if banded else 0)
        assert set(calls) == {"sample_mixed_kaction" if algo == "block-update"
                              else "sample_mixed_binary"}
        assert report.pure_queries == len(calls) * per_estimate_queries(algo, n, k, alpha)
        theta_bits.add(report.params.get("theta_bit"))
    if algo == "plane-comm":
        assert theta_bits == {family == "lower-bound"}
