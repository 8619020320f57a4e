import math

import numpy as np
import pytest

import largegames as lg
from largegames.oracles import blend_binary, blend_kaction


def small_game(seed=3, n=5):
    return lg.gen_linear_influence(n, 2, 1.0, seed=seed)


# ---------------------------------------------------------------------------
# pure queries

def test_query_pure_matches_eval_and_counts():
    g = small_game()
    sess = lg.OracleSession(g, seed=0)
    for m, a in enumerate([np.zeros(5, int), np.ones(5, int), np.array([0, 1, 0, 1, 0])]):
        got = sess.query_pure(a)
        assert np.array_equal(got, g.payoffs(a))
        assert sess.pure_queries == m + 1


PURE_GAMES = {
    "linear-k2": lambda: lg.gen_linear_influence(6, 2, 1.0, seed=0),
    "linear-k3": lambda: lg.gen_linear_influence(6, 3, 1.0, seed=0),
    "linear-k4": lambda: lg.gen_linear_influence(6, 4, 1.0, seed=0),
    "tensor": lambda: lg.TensorGame(np.random.default_rng(0).random((4, 3, 3, 3, 3)), c=4.0),
    "independent": lambda: lg.IndependentGame(np.random.default_rng(0).random((6, 3))),
}


@pytest.mark.parametrize("name", PURE_GAMES)
def test_query_pure_is_eval_pure_bit_for_bit(name):
    # both answer one profile as a one-row batch, so their bits must agree
    g = PURE_GAMES[name]()
    sess = lg.OracleSession(g, seed=0)
    for a in np.random.default_rng(1).integers(0, g.k, size=(50, g.n)):
        assert np.array_equal(sess.query_pure(a), g.payoffs(a))


def test_query_pure_dimension_mismatch():
    sess = lg.OracleSession(small_game(), seed=0)
    with pytest.raises(ValueError):
        sess.query_pure([0, 1])


def test_query_pure_rejects_non_integer_actions():
    sess = lg.OracleSession(small_game(n=4), seed=0)
    for actions in ([1.7, 0, 0, 1], [0.0, float("nan"), 0.0, 1.0], [float("inf"), 0, 0, 0]):
        with pytest.raises(ValueError, match="integers"):
            sess.query_pure(actions)
    assert sess.pure_queries == 0
    assert np.array_equal(sess.query_pure([1.0, 0.0, 0.0, 1.0]),
                          sess.query_pure([1, 0, 0, 1]))


def test_query_pure_rejects_actions_outside_the_action_range():
    # the k > 2 batch kernel gathers in clip mode and trusts its rows: action k for
    # player i would read player i + 1's action-0 cell
    game = lg.gen_linear_influence(4, 3, 1.0, seed=0)
    sess = lg.OracleSession(game, seed=0)
    for actions in ([0, 3, 0, 1], [0, 1, -1, 2], [2, 2, 2, 3]):
        with pytest.raises(ValueError, match=r"lie in \[0, 3\)"):
            sess.query_pure(actions)
    assert sess.pure_queries == 0
    assert np.array_equal(sess.query_pure([2, 0, 1, 2]), game.payoffs([2, 0, 1, 2]))


def test_stochastic_query_mean_converges():
    game = lg.gen_lower_bound(6, 4.0, seed_for_b=2)
    sess = lg.OracleSession(game, seed=5)
    a = np.zeros(6, dtype=np.int64)
    draws = sess._pure_batch(np.tile(a, (10 ** 5, 1)))
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert np.abs(draws.mean(axis=0) - game.payoffs(a)).max() <= 0.01
    assert sess.pure_queries == 10 ** 5


# ---------------------------------------------------------------------------
# sample counts and blends

def test_blend_binary_value():
    assert blend_binary(np.array([1.0]), 0.2)[0] == pytest.approx(0.95)


def test_binary_sample_count_formula():
    # ceil(512 * ln(160))
    assert lg.binary_sample_count(0.5, 0.1, 2) == 2599
    assert lg.binary_sample_count(0.5, 0.1, 2) == math.ceil(512 * math.log(160))


def test_kaction_sample_count_formula():
    assert lg.kaction_sample_count(0.5, 0.1, 2, 4) == math.ceil(8192 * math.log(160))
    assert lg.kaction_sample_count(0.5, 0.1, 2, 4) == 41576


def test_invalid_parameters_rejected():
    sess = lg.OracleSession(small_game(), seed=0)
    p = lg.MixedProfile.uniform(5, 2)
    for beta, delta in [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            sess.sample_mixed_binary(p.probs, beta, delta)


def test_kaction_blend_reduces_to_binary_at_k2():
    probs = np.array([[0.3, 0.7], [0.9, 0.1]])
    beta = 0.4
    via_k = blend_kaction(probs, beta)
    via_binary = blend_binary(probs[:, 1], beta)
    assert np.allclose(via_k[:, 1], via_binary)
    assert np.allclose(via_k.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# sampled estimates

def test_sample_counter_increment_exact():
    g = small_game()
    sess = lg.OracleSession(g, seed=1)
    before = sess.pure_queries
    est = sess.sample_mixed_binary(lg.MixedProfile.uniform(5, 2).probs, 0.4, 0.2)
    spent = sess.pure_queries - before
    assert spent == est.samples == lg.binary_sample_count(0.4, 0.2, 5)


def test_sample_determinism():
    g = small_game()
    p = lg.MixedProfile.from_binary([0.1, 0.4, 0.5, 0.8, 1.0])
    a = lg.OracleSession(g, seed=77).sample_mixed_binary(p.probs, 0.3, 0.1)
    b = lg.OracleSession(g, seed=77).sample_mixed_binary(p.probs, 0.3, 0.1)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.counts, b.counts)
    c = lg.OracleSession(g, seed=78).sample_mixed_binary(p.probs, 0.3, 0.1)
    assert not np.array_equal(a.values, c.values)


def test_estimate_tracks_blended_profile():
    g = small_game()
    sess = lg.OracleSession(g, seed=11)
    est = sess.sample_mixed_binary(lg.MixedProfile.uniform(5, 2).probs, 0.1, 0.1)
    exact = lg.mixed_payoff_table(g, lg.MixedProfile(est.p_prime))
    assert np.abs(est.values - exact).max() <= 0.1


def test_unobserved_cells_are_zero():
    g = small_game()
    sess = lg.OracleSession(g, seed=0)
    est = sess.sample_mixed_binary(lg.MixedProfile.from_binary(np.ones(5)).probs, 0.5, 0.9)
    # blended probability of action 0 is beta/4; some cells may be unseen
    unseen = est.counts == 0
    assert np.all(est.values[unseen] == 0.0)


def test_kaction_estimate_on_constant_game():
    g = lg.IndependentGame(np.full((3, 4), 0.5), c=1.0)
    sess = lg.OracleSession(g, seed=21)
    est = sess.sample_mixed_kaction(lg.MixedProfile.uniform(3, 4).probs, 0.5, 0.2)
    seen = est.counts > 0
    assert np.all(np.abs(est.values[seen] - 0.5) <= 1e-12)
    assert est.samples == lg.kaction_sample_count(0.5, 0.2, 3, 4)


def test_estimates_unbiased_for_blend():
    g = small_game(seed=9)
    p = lg.MixedProfile.uniform(5, 2)
    mean = np.zeros((5, 2))
    sessions = 60
    for s in range(sessions):
        mean += lg.OracleSession(g, seed=1000 + s).sample_mixed_binary(p.probs, 0.4, 0.3).values
    mean /= sessions
    est = lg.OracleSession(g, seed=0).sample_mixed_binary(p.probs, 0.4, 0.3)
    exact = lg.mixed_payoff_table(g, lg.MixedProfile(est.p_prime))
    assert np.abs(mean - exact).max() <= 0.02


def test_estimates_converge_as_beta_shrinks():
    g = small_game(seed=4)
    p = lg.MixedProfile.from_binary([0.2, 0.4, 0.6, 0.8, 0.5])
    errs = []
    for beta in (0.5, 0.2, 0.1):
        sess = lg.OracleSession(g, seed=13)
        est = sess.sample_mixed_binary(p.probs, beta, 0.1)
        exact = lg.mixed_payoff_table(g, lg.MixedProfile(est.p_prime))
        errs.append(np.abs(est.values - exact).max())
        assert errs[-1] <= beta
    assert errs[-1] <= errs[0]


# ---------------------------------------------------------------------------
# exact mixed oracle

def test_exact_mixed_counts_separately():
    g = small_game()
    sess = lg.OracleSession(g, seed=0)
    p = lg.MixedProfile.uniform(5, 2)
    table = sess.exact_mixed(p.probs)
    assert np.allclose(table, lg.mixed_payoff_table(g, p))
    assert sess.qm_calls == 1 and sess.pure_queries == 0


def test_table_source_is_exact_mixed_or_the_sampled_values():
    g = lg.gen_linear_influence(5, 3, 1.0, seed=1)
    probs = lg.MixedProfile.uniform(5, 3).probs
    sess = lg.OracleSession(g, seed=4)
    assert sess.table_source("exact", sess.sample_mixed_kaction, 0.5, 0.3) == sess.exact_mixed
    sampled = sess.table_source("sampling", sess.sample_mixed_kaction, 0.5, 0.3)(probs)
    twin = lg.OracleSession(g, seed=4)
    assert np.array_equal(sampled, twin.sample_mixed_kaction(probs, 0.5, 0.3).values)
    assert sess.pure_queries == twin.pure_queries
    with pytest.raises(ValueError, match="oracle mode must be 'exact' or 'sampling'"):
        sess.table_source("bogus", sess.sample_mixed_kaction, 0.5, 0.3)


def test_exact_mixed_scales_to_large_n():
    g = lg.gen_linear_influence(1000, 2, 1.0, seed=0)
    sess = lg.OracleSession(g, seed=0)
    table = sess.exact_mixed(lg.MixedProfile.uniform(1000, 2).probs)
    assert table.shape == (1000, 2)
    assert table.min() >= 0.0 and table.max() <= 1.0


def test_session_estimates_check_the_profile_shape():
    sess = lg.OracleSession(small_game(), seed=0)
    one_player = lg.MixedProfile.uniform(1, 2).probs
    for estimate in (sess.sample_mixed_binary, sess.sample_mixed_kaction):
        with pytest.raises(ValueError, match="shape"):
            estimate(one_player, 0.5, 0.5)
    with pytest.raises(ValueError, match="shape"):
        sess.exact_mixed(one_player)
    kaction = lg.OracleSession(lg.gen_linear_influence(5, 3, 1.0, seed=3), seed=0)
    with pytest.raises(ValueError, match="shape"):
        kaction.sample_mixed_kaction(lg.MixedProfile.uniform(5, 2).probs, 0.5, 0.5)
    assert sess.pure_queries == kaction.pure_queries == 0


def test_exact_mixed_needs_capability():
    """Exact tables come from the game's own ``mixed_payoff_table``; a game
    without one never reaches a session."""
    class Opaque(lg.Game):
        n, k, c = 30, 2, 1.0

        def payoffs_batch(self, a, out=None):
            return np.full((a.shape[0], 30), 0.5)

    with pytest.raises(TypeError, match="mixed_payoff_table"):
        lg.OracleSession(Opaque(), seed=0)
    g = small_game()
    sess = lg.OracleSession(g, seed=0)
    probs = lg.MixedProfile.uniform(5, 2).probs
    assert np.array_equal(sess.exact_mixed(probs), g.mixed_payoff_table(probs))
    assert sess.qm_calls == 1 and sess.pure_queries == 0


# ---------------------------------------------------------------------------
# tracing

def test_trace_records_queries(tmp_path):
    import json

    path = tmp_path / "trace.jsonl"
    sess = lg.OracleSession(small_game(), seed=0, trace_path=path)
    sess.query_pure([0, 1, 0, 1, 0])
    sess.query_pure([1, 1, 1, 1, 1])
    sess.close()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["t"] for l in lines] == [0, 1]
    assert lines[0]["profile"] == [0, 1, 0, 1, 0]
    assert len(lines[0]["payoffs"]) == 5
