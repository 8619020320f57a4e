"""The sampling producers behind both samplers: their shared buffers, the
query budget of every sampled entry point, the per-estimate trace of the
sampled goldens, and the law of each producer's estimates, checked without
golden hashes."""

import dataclasses
import json
import math

import numpy as np
import pytest

import largegames as lg
from largegames import oracles, runner
from largegames.binary import curve_band
from test_binary_chunk import per_row_estimate as binary_per_row
from test_binary_chunk import reference_estimate as binary_reference
from test_golden import CASES, GOLDEN, SEEDS, fingerprint
from test_kaction_chunk import per_row_estimate as kaction_per_row
from test_kaction_chunk import random_profile
from test_kaction_chunk import reference_estimate as kaction_reference


@pytest.mark.parametrize("chunk", (17, 4096))
def test_binary_and_kaction_estimates_share_one_buffer_set(chunk):
    # the thresholds of both samplers of one k = 2 game go to the binary producer,
    # called by name, and are drawn into the same threshold tiles, so each estimate
    # must refill them; one generator drives every reference
    rows = chunk + chunk // 2 + 1
    game = lg.gen_linear_influence(7, 2, 1.0, seed=3)
    session = lg.OracleSession(game, seed=11)
    session._CHUNK = chunk
    rng = np.random.default_rng(11)
    for step in range(4):
        profile = random_profile(7, 2, seed=step)
        if step % 2 == 0:
            counts, values = binary_per_row(session, profile, 0.3, rows)
            _, ref_counts, ref_values, _ = binary_reference(game, profile, 0.3, rng, rows, chunk)
        else:
            counts, values = kaction_per_row(session, profile, 0.3, rows + 5)
            _, ref_counts, ref_values = kaction_reference(game, profile, 0.3, rng, rows + 5, chunk)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(values, ref_values)
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


@pytest.mark.parametrize("name", [name for name in CASES if name.endswith("-sampling")])
def test_traced_sampling_goldens_keep_their_fingerprints(tmp_path, name):
    config = dataclasses.replace(CASES[name], trace=str(tmp_path / "t_{seed}.jsonl"))
    assert [fingerprint(config, seed) for seed in SEEDS] == GOLDEN[name]
    for seed, (_, pure_queries, *_) in zip(SEEDS, GOLDEN[name]):
        records = [json.loads(line)
                   for line in (tmp_path / f"t_{seed}.jsonl").read_text().splitlines()]
        assert sum(rec["samples"] for rec in records) == pure_queries
        assert all(rec["max_error"] <= rec["beta"] == config.beta for rec in records)


# the 0.999 quantile of chi-square with n (k - 1) degrees of freedom
CHI2_999 = {5: 20.515, 10: 29.588, 18: 42.312, 20: 45.315}

# (sampler, n, k, producer, stochastic): k = 2 through both samplers reaches the
# binary producer and k = 3 and k = 5 the k-action one, once no game counts as
# small; every game here has at most TABLE_PROFILES pure profiles, and at most
# as many as an estimate's queries, so the histogram producer draws it
# otherwise.  At n = 9, k = 3 the histogram spans 19,683 profiles, more than
# one chunk, with 22,901 queries.
PRODUCERS = [
    pytest.param("sample_mixed_binary", 5, 2, "_binary_sums", False, id="sample_mixed_binary-2"),
    pytest.param("sample_mixed_kaction", 5, 2, "_binary_sums", False, id="sample_mixed_kaction-2"),
    pytest.param("sample_mixed_kaction", 5, 3, "_kaction_sums", False, id="sample_mixed_kaction-3"),
    pytest.param("sample_mixed_kaction", 5, 5, "_kaction_sums", False, id="sample_mixed_kaction-5"),
    pytest.param("sample_mixed_binary", 5, 2, "_histogram_sums", False, id="histogram-2"),
    pytest.param("sample_mixed_kaction", 5, 3, "_histogram_sums", False, id="histogram-3"),
    pytest.param("sample_mixed_binary", 5, 2, "_histogram_sums", True, id="histogram-stochastic-2"),
    pytest.param("sample_mixed_kaction", 9, 3, "_histogram_sums", False, id="histogram-widened-3"),
]


def law_game(n, k, stochastic):
    game = lg.gen_linear_influence(n, k, 1.0, seed=k)
    return lg.StochasticGame(game) if stochastic else game


def estimates_by(producer, game, sampler, probs, count, seed, trace_path=None):
    """``count`` estimates of one profile at beta = delta = 0.5, each drawn by
    ``producer``: a per-row producer is reached on these small games once no
    game counts as small."""
    drawn = []
    original = getattr(lg.OracleSession, producer)

    def spy(self, *args):
        drawn.append(producer)
        return original(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        if producer != "_histogram_sums":
            patch.setattr(oracles, "TABLE_PROFILES", 0)
        patch.setattr(lg.OracleSession, producer, spy)
        session = lg.OracleSession(game, seed=seed, trace_path=trace_path)
        ests = [getattr(session, sampler)(probs, 0.5, 0.5) for _ in range(count)]
        session.close()
    assert drawn == [producer] * count
    return ests


@pytest.mark.parametrize("sampler,n,k,producer,stochastic", PRODUCERS)
def test_estimates_follow_the_law_of_the_blend(tmp_path, sampler, n, k, producer, stochastic):
    # no golden hash: each producer's counts and values against the blend's law
    beta, estimates = 0.5, 20
    game = law_game(n, k, stochastic)
    probs = random_profile(n, k, seed=1).probs
    ests = estimates_by(producer, game, sampler, probs, estimates, 7, tmp_path / "trace.jsonl")
    p_prime = (1.0 - beta / 2.0) * probs + beta / (2.0 * k)
    samples = ests[0].samples
    for est in ests:
        assert np.all(est.counts.sum(axis=1) == samples)
    expected = estimates * samples * p_prime
    pooled = sum(est.counts for est in ests)
    assert ((pooled - expected) ** 2 / expected).sum() < CHI2_999[n * (k - 1)]
    values = np.array([est.values for est in ests])
    error = values.std(axis=0, ddof=1) / math.sqrt(estimates)
    assert np.all(np.abs(values.mean(axis=0) - game.mixed_payoff_table(p_prime)) < 4.5 * error)
    # each trace line: per-player counts add up to its samples, and the lines'
    # first queries follow one another
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert len(records) == estimates
    assert [rec["first_query"] for rec in records] == [t * samples for t in range(estimates)]
    for rec in records:
        assert all(sum(row) == rec["samples"] == samples for row in rec["counts"])


# sqrt of the 0.9995 quantile of F(39, 39): the two-sided bound on the ratio of
# two standard deviations of 40 estimates each, per cell
SD_RATIO_9995 = 1.7207


@pytest.mark.parametrize("sampler,n,k,stochastic", [
    pytest.param("sample_mixed_binary", 5, 2, False, id="binary-2"),
    pytest.param("sample_mixed_kaction", 5, 3, False, id="kaction-3"),
    pytest.param("sample_mixed_binary", 5, 2, True, id="stochastic-binary-2"),
    pytest.param("sample_mixed_kaction", 9, 3, False, id="kaction-widened-3")])
def test_histogram_estimates_have_the_law_of_per_row_estimates(sampler, n, k, stochastic):
    # one game and profile through both sides of the k^n <= TABLE_PROFILES rule
    estimates = 40
    game = law_game(n, k, stochastic)
    probs = random_profile(n, k, seed=2).probs
    per_row = "_binary_sums" if k == 2 else "_kaction_sums"
    hist = estimates_by("_histogram_sums", game, sampler, probs, estimates, 3)
    rows = estimates_by(per_row, game, sampler, probs, estimates, 4)
    # pooled counts: a two-sample chi-square with n (k - 1) degrees of freedom
    pooled_hist, pooled_rows = (sum(est.counts for est in ests) for ests in (hist, rows))
    chi2 = ((pooled_hist - pooled_rows) ** 2 / (pooled_hist + pooled_rows)).sum()
    assert chi2 < CHI2_999[n * (k - 1)]
    ratio = (np.array([est.values for est in hist]).std(axis=0, ddof=1)
             / np.array([est.values for est in rows]).std(axis=0, ddof=1))
    assert np.all((1.0 / SD_RATIO_9995 < ratio) & (ratio < SD_RATIO_9995))


@pytest.mark.parametrize("sampler,n,k,betas", [
    # 2^12 = 4,096 profiles: 5,258 queries at beta = 0.4, 2,692 at 0.5
    pytest.param("sample_mixed_binary", 12, 2, (0.4, 0.5), id="binary-2"),
    # 3^9 = 19,683 profiles: 22,901 queries at beta = 0.5, 20,359 at 0.52,
    # 17,206 at 0.55
    pytest.param("sample_mixed_kaction", 9, 3, (0.5, 0.52, 0.55), id="kaction-3")])
def test_one_game_is_drawn_as_a_histogram_only_with_as_many_queries_as_profiles(
        monkeypatch, sampler, n, k, betas):
    # one game on both sides of k^n = N, N the estimate's query count, through
    # the unpatched rule
    drawn = []
    for name in ("_histogram_sums", "_binary_sums", "_kaction_sums"):
        original = getattr(lg.OracleSession, name)

        def spy(self, *args, name=name, original=original):
            drawn.append(name)
            return original(self, *args)
        monkeypatch.setattr(lg.OracleSession, name, spy)
    session = lg.OracleSession(law_game(n, k, False), seed=0)
    probs = random_profile(n, k, seed=5).probs
    per_row = "_binary_sums" if k == 2 else "_kaction_sums"
    want = []
    for beta in betas:
        est = getattr(session, sampler)(probs, beta, 0.5)
        want.append("_histogram_sums" if k ** n <= est.samples else per_row)
        assert np.all(est.counts.sum(axis=1) == est.samples)
    assert drawn == want
    assert set(want) == {"_histogram_sums", per_row}


@pytest.mark.parametrize("chunk", (17, 4096))
@pytest.mark.parametrize("sampler,n,k", [
    pytest.param("sample_mixed_binary", 10, 2, id="binary-2"),
    pytest.param("sample_mixed_kaction", 9, 3, id="kaction-3")])
def test_histogram_counts_equal_a_recount_of_the_answered_rows(sampler, n, k, chunk):
    # the counts are read off the multinomial, not off the rows; they must be
    # the per-cell counts of the rows that payoffs_batch answered, bit for bit
    game = law_game(n, k, False)
    session = lg.OracleSession(game, seed=6)
    session._CHUNK = chunk
    answered = []
    pure_batch = session._pure_batch

    def record(actions, out=None):
        answered.append(actions.copy())  # the rows buffer is reused
        return pure_batch(actions, out)

    session._pure_batch = record
    est = getattr(session, sampler)(random_profile(n, k, seed=6).probs, 0.5, 0.5)
    assert session._draw is None  # the histogram producer drew the rows
    rows = np.concatenate(answered)
    assert rows.shape == (est.samples, n) and est.samples % chunk != 0
    recount = np.stack([np.bincount(col.astype(np.intp), minlength=k) for col in rows.T])
    assert np.array_equal(est.counts, recount.astype(float))
    assert est.counts.dtype == np.float64
