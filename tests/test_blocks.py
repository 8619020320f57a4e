import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import largegames as lg
from largegames.blocks import TruncatedTriangle, bound_table
from references import block_regret_cap, brute_force_max_left_sum, worst_case_total_regret


# ---------------------------------------------------------------------------
# left sums

def test_left_sum_values():
    tri = TruncatedTriangle(1.0, 1.0)
    assert lg.left_sum(tri, [0.5]) == pytest.approx(0.25)
    assert lg.left_sum(tri, []) == 0.0
    tall = TruncatedTriangle(1.0, 2.0)
    # heights cap at one: 0.5 * 0.25 + 1 * 0.5
    assert lg.left_sum(tall, [0.25, 0.5]) == pytest.approx(0.625)


def test_left_sum_rejects_out_of_range():
    with pytest.raises(ValueError):
        lg.left_sum(TruncatedTriangle(1.0, 1.0), [1.5])


def test_max_left_sum_closed_forms():
    value, part = lg.max_left_sum(TruncatedTriangle(1.0, 1.0), 1)
    assert value == pytest.approx(0.25) and part == [0.5]
    value, part = lg.max_left_sum(TruncatedTriangle(1.0, 1.0), 2)
    assert value == pytest.approx(1 / 3)
    assert np.allclose(part, [1 / 3, 2 / 3])
    # truncated case: rightmost point at the cap
    value, part = lg.max_left_sum(TruncatedTriangle(1.0, 2.0), 3)
    assert np.allclose(part, [1 / 6, 1 / 3, 1 / 2])
    assert value == pytest.approx(lg.left_sum(TruncatedTriangle(1.0, 2.0), part))
    assert value == pytest.approx(2 / 3)


def test_max_left_sum_matches_own_partition():
    for b in (0.5, 1.0, 1.5):
        for h in (0.5, 1.0, 2.0, 4.0):
            for k in (1, 2, 3, 4):
                tri = TruncatedTriangle(b, h)
                value, part = lg.max_left_sum(tri, k)
                assert len(part) <= k
                assert lg.left_sum(tri, part) == pytest.approx(value, abs=1e-12)


def test_max_left_sum_against_brute_force():
    for b in (0.5, 1.5):
        for h in (1.0, 4.0):
            for k in (1, 3):
                tri = TruncatedTriangle(b, h)
                closed, _ = lg.max_left_sum(tri, k)
                brute = brute_force_max_left_sum(tri, k, pitch=2e-3)
                assert abs(closed - brute) <= 4e-3


@settings(max_examples=50, deadline=None)
@given(b=st.floats(0.2, 2.0), h=st.floats(0.2, 5.0), k=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6))
def test_max_left_sum_dominates_random_partitions(b, h, k, seed):
    tri = TruncatedTriangle(b, h)
    value, _ = lg.max_left_sum(tri, k)
    xs = np.sort(np.random.default_rng(seed).random(k) * b)
    assert lg.left_sum(tri, xs) <= value + 1e-9


# ---------------------------------------------------------------------------
# bounds

def test_block_bound_reference_points():
    assert lg.block_update_bound(1.0, 2, None) == pytest.approx(0.5)
    assert lg.block_update_bound(1.0, 10 ** 6, None) == pytest.approx(0.75, abs=1e-5)
    assert lg.block_update_bound(0.25, 3, 100) == pytest.approx(0.25 * (2 / 3) * 1.01)
    # sampling inflation
    assert lg.block_update_bound(1.0, 2, 100, sampling_error=0.1) == pytest.approx(
        0.5 * (1 + 0.01 + 0.05))
    for c in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="need a finite c > 0"):
            lg.block_update_bound(c, 2, 10)
    for error in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sampling error must be finite and nonnegative"):
            lg.block_update_bound(1.0, 2, 10, sampling_error=error)


def test_bound_table_cases():
    rows = bound_table([0.25, 1.0, 4.0], [2, 8], [100])
    by = {(r["c"], r["k"]): r for r in rows}
    assert by[(0.25, 2)]["epsilon_case"] == "small-c"
    assert by[(1.0, 2)]["epsilon_case"] == "triangle"
    assert by[(4.0, 2)]["epsilon_case"] == "truncated"
    for row in rows:
        assert 0 < row["epsilon"] <= 1.1


def test_method_comparison_orderings():
    rows = lg.compare_methods([0.5, 1.0, 2.0, 4.0])
    expected_curve = [0.0625, 0.125, 0.25, 0.375]
    expected_block = [0.25, 0.5, 0.75, 0.875]
    for row, ec, eb in zip(rows, expected_curve, expected_block):
        assert row["curve_bound"] == pytest.approx(ec)
        assert row["block_bound"] == pytest.approx(eb)
        assert row["curve_bound"] <= row["block_bound"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 6))
def test_greedy_allotment_dominates_random_feasible(seed, k):
    rng = np.random.default_rng(seed)
    blocks = 40
    regrets = np.sort(rng.random(k))
    regrets[0] = 0.0
    caps = np.array([block_regret_cap(1.0, blocks, t + 1) for t in range(blocks)])
    greedy_total, picks = worst_case_total_regret(regrets, caps)
    assert np.all(picks <= caps + 1e-12)
    for _ in range(25):
        choice = np.empty(blocks)
        for t in range(blocks):
            allowed = regrets[regrets <= caps[t]]
            choice[t] = rng.choice(allowed) if allowed.size else 0.0
        assert choice.sum() / blocks <= greedy_total + 1e-12


# ---------------------------------------------------------------------------
# block reallocation runs

def test_block_update_constant_game():
    g = lg.IndependentGame(np.full((4, 2), 0.5), c=1.0)
    profile, report, allocation = lg.block_update(lg.OracleSession(g, seed=0), 20)
    assert np.all(allocation == 0)  # tie-break keeps every block on action 0
    assert report.max_regret == 0.0
    assert report.qm_calls == 20


def test_block_update_profile_always_valid():
    g = lg.gen_linear_influence(10, 3, 1.0, seed=3)
    profile, report, allocation = lg.block_update(lg.OracleSession(g, seed=3), 30)
    assert np.allclose(profile.probs.sum(axis=1), 1.0)
    counts = np.stack([np.bincount(allocation[i], minlength=3) for i in range(10)])
    assert np.array_equal(counts / 30, profile.probs)


def test_block_update_respects_bound_and_ceilings():
    for c, k, blocks in [(0.25, 3, 60), (1.0, 2, 60), (4.0, 4, 40)]:
        g = lg.gen_linear_influence(20, k, c, seed=1)
        sess = lg.OracleSession(g, seed=1)
        profile, report, allocation = lg.block_update(sess, blocks)
        assert report.max_regret <= lg.block_update_bound(c, k, blocks) + 1e-9
        table = lg.mixed_payoff_table(g, profile)
        gaps = table.max(axis=1)[:, None] - table
        for t in range(blocks):
            cap = block_regret_cap(c, blocks, t + 1)
            chosen = gaps[np.arange(20), allocation[:, t]]
            assert np.all(chosen <= cap + 1e-9)


def test_block_update_sampling_mode_runs():
    g = lg.gen_linear_influence(4, 3, 1.0, seed=2)
    sess = lg.OracleSession(g, seed=2)
    profile, report, _ = lg.block_update(sess, 3, mode="sampling", beta=0.5, delta=0.3)
    assert report.pure_queries == 3 * lg.kaction_sample_count(0.5, 0.3, 4, 3)
    assert np.allclose(profile.probs.sum(axis=1), 1.0)


def test_an_unknown_oracle_mode_is_rejected_before_any_query():
    """block_update and the binary procedures read their tables from one
    source, which rejects an unknown mode before the first query."""
    runs = [lambda sess: lg.block_update(sess, 3, mode="bogus"),
            lambda sess: lg.plane_dynamics(sess, lg.DynamicsParams(alpha=0.1), mode="bogus")]
    for run in runs:
        sess = lg.OracleSession(lg.gen_linear_influence(4, 2, 1.0, seed=0), seed=0)
        with pytest.raises(ValueError, match="^oracle mode must be 'exact' or 'sampling'$"):
            run(sess)
        assert sess.qm_calls == sess.pure_queries == 0
