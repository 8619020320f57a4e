import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import largegames as lg
from largegames import families
from largegames.binary import plane_residual
from references import enumerated_table


def independent_game(n, hi=0.7, lo=0.3):
    return lg.IndependentGame(np.tile([lo, hi], (n, 1)), c=1.0)


# ---------------------------------------------------------------------------
# pure evaluation

def test_eval_pure_independent():
    g = independent_game(2)
    assert np.allclose(g.payoffs([1, 0]), [0.7, 0.3])


def test_eval_pure_constant():
    g = lg.IndependentGame(np.full((4, 2), 0.5), c=1.0)
    for a in ([0, 0, 0, 0], [1, 0, 1, 1]):
        assert np.allclose(g.payoffs(a), 0.5)


def test_eval_pure_tensor_lookup():
    rng = np.random.default_rng(1)
    t = rng.random((2, 2, 2))
    g = lg.TensorGame(t, c=2.0)
    assert np.allclose(g.payoffs([0, 1]), [t[0, 0, 1], t[1, 0, 1]])


def test_eval_pure_rejects_bad_profiles():
    g = independent_game(3)
    with pytest.raises(ValueError):
        g.payoffs([0, 1])
    with pytest.raises(ValueError):
        g.payoffs([0, 1, 2])


def test_pure_profiles_reject_fractional_actions():
    g = independent_game(3)
    with pytest.raises(ValueError, match="integers"):
        g.payoffs([1.7, 0, 0])
    with pytest.raises(ValueError, match="integers"):
        lg.MixedProfile.pure([0.5, 1], 2)
    for actions in ([float("nan"), 0, 0], [float("inf"), 0, 0]):
        with pytest.raises(ValueError, match="integers"):
            g.payoffs(actions)
    assert np.array_equal(g.payoffs([1.0, 0.0, 0.0]), g.payoffs([1, 0, 0]))


# ---------------------------------------------------------------------------
# expected payoffs

def test_expected_payoff_opponent_free():
    g = independent_game(2)
    p = lg.MixedProfile.from_binary([0.3, 0.9])
    assert lg.mixed_payoff_table(g, p)[0, 1] == pytest.approx(0.7, abs=1e-15)


def test_expected_payoff_paid_by_opponent():
    # player 0 is paid exactly the opponent's action
    t = np.zeros((2, 2, 2))
    t[0, :, 1] = 1.0
    t[1] = 0.5
    g = lg.TensorGame(t, c=2.0)
    p = lg.MixedProfile.from_binary([0.5, 0.25])
    assert lg.mixed_payoff_table(g, p)[0] == pytest.approx([0.25, 0.25], abs=1e-15)


def test_expected_payoff_against_monte_carlo():
    rng = np.random.default_rng(7)
    t = rng.random((3, 2, 2, 2))
    g = lg.TensorGame(t, c=3.0)
    probs = np.array([[0.2, 0.8], [0.55, 0.45], [0.7, 0.3]])
    p = lg.MixedProfile(probs)
    table = lg.mixed_payoff_table(g, p)
    draws = 10 ** 6
    samples = np.column_stack([rng.random(draws) < probs[l, 1] for l in range(3)]).astype(int)
    for i in range(3):
        for j in range(2):
            forced = samples.copy()
            forced[:, i] = j
            mc = t[(i, *forced.T)].mean()
            assert table[i, j] == pytest.approx(mc, abs=3e-3)


def test_fast_path_matches_enumeration():
    rng = np.random.default_rng(3)
    cases = [lg.TensorGame(rng.random((3, 3, 3, 3)), c=3.0),
             lg.gen_linear_influence(4, 2, 1.0, seed=5),
             lg.gen_tiny_tensor(3, 4, 0.5, seed=2),
             lg.IndependentGame(rng.random((4, 3)), c=1.0)]
    # every family builder, lower-bound's StochasticGame among them
    cases += [families.make_game(name, {"n": 4}, seed=7) for name in families.FAMILIES]
    cases += [families.make_game(name, {"n": 3, "k": 3}, seed=8)
              for name, (_, reads) in families.FAMILIES.items() if "k" in reads]
    for g in cases:
        probs = rng.random((g.n, g.k)) + 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        p = lg.MixedProfile(probs)
        fast = lg.mixed_payoff_table(g, p)
        slow = enumerated_table(g, probs)
        assert np.abs(fast - slow).max() <= 1e-12


def test_enumeration_guard():
    """No game falls back to enumeration: one without its own exact table is
    refused when constructed."""
    g = lg.gen_linear_influence(4, 2, 1.0, seed=0)

    class Untabled(lg.Game):
        n, k, c = g.n, g.k, g.c

        def payoffs_batch(self, a, out=None):
            return g.payoffs_batch(a, out=out)

    assert "mixed_payoff_table" in lg.Game.__abstractmethods__
    with pytest.raises(TypeError, match="mixed_payoff_table"):
        Untabled()


class Enumerated(lg.Game):
    """Wraps a game and computes every exact table by enumeration, through its
    ``payoffs_batch`` alone."""

    def __init__(self, inner):
        self.inner, self.n, self.k, self.c = inner, inner.n, inner.k, inner.c

    def payoffs_batch(self, actions, out=None):
        return self.inner.payoffs_batch(actions, out=out)

    def mixed_payoff_table(self, probs):
        return enumerated_table(self, probs)


def _plane_run(g, probs):
    profile, report = lg.plane_dynamics(lg.OracleSession(g, seed=0), lg.DynamicsParams(alpha=0.1))
    return np.append(profile.probs.ravel(), report.max_regret)


def _plane_flow(g, probs):
    tr = lg.simulate_plane_flow(g, step_h=1e-2)
    return np.concatenate([tr.p.ravel(), tr.v.ravel(), tr.residual.ravel()])


@pytest.mark.parametrize("entry", [
    lambda g, probs: lg.mixed_payoff_table(g, lg.MixedProfile(probs)),
    lambda g, probs: lg.regret_report(g, lg.MixedProfile(probs)).gaps,
    lambda g, probs: lg.OracleSession(g, seed=0).exact_mixed(probs),
    _plane_run,
    _plane_flow,
    lambda g, probs: lg.StochasticGame(g).mixed_payoff_table(probs),
], ids=["mixed_payoff_table", "regret_report", "exact_mixed", "plane_dynamics",
        "simulate_plane_flow", "stochastic_table"])
def test_game_without_kernel_matches_the_kernel(entry):
    g = lg.gen_linear_influence(4, 2, 1.0, seed=2)
    probs = np.random.default_rng(4).random((4, 2)) + 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    kernel = entry(g, probs)
    enumerated = entry(Enumerated(g), probs)
    assert kernel.shape == enumerated.shape
    assert np.abs(kernel - enumerated).max() <= 1e-12


# ---------------------------------------------------------------------------
# regret / discrepancy

def test_regret_uniform_independent():
    g = independent_game(3)
    p = lg.MixedProfile.uniform(3, 2)
    assert lg.regret_report(g, p).regrets == pytest.approx([0.2] * 3, abs=1e-15)


def test_regret_zero_at_dominant_action():
    g = independent_game(3)
    p = lg.MixedProfile.from_binary([1.0, 1.0, 1.0])
    assert np.all(lg.regret_report(g, p).regrets == 0.0)


def test_uniform_regret_at_most_half():
    for seed in range(10):
        g = lg.gen_linear_influence(20, 2, 1.0, seed=seed)
        rep = lg.regret_report(g, lg.MixedProfile.uniform(20, 2))
        assert rep.max_regret <= 0.5 + 1e-12


def test_discrepancy_values():
    g = independent_game(2)
    p = lg.MixedProfile.uniform(2, 2)
    assert lg.regret_report(g, p).discrepancies[0] == pytest.approx(0.4, abs=1e-15)
    constant = lg.IndependentGame(np.full((2, 2), 0.5), c=1.0)
    assert lg.regret_report(constant, p).discrepancies[0] == 0.0
    three = lg.gen_tiny_tensor(2, 3, 1.0, seed=0)
    assert lg.regret_report(three, lg.MixedProfile.uniform(2, 3)).discrepancies is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), profile_seed=st.integers(0, 10 ** 6))
def test_regret_is_discrepancy_times_offmass(seed, profile_seed):
    g = lg.gen_linear_influence(4, 2, 1.0, seed=seed)
    p = lg.MixedProfile.from_binary(np.random.default_rng(profile_seed).random(4))
    table = lg.mixed_payoff_table(g, p)
    regrets = lg.regret_report(g, p).regrets
    for i in range(4):
        v0, v1 = table[i]
        pstar = p.probs[i, 1] if v1 >= v0 else p.probs[i, 0]
        assert regrets[i] == pytest.approx(abs(v1 - v0) * (1.0 - pstar), abs=1e-12)


# ---------------------------------------------------------------------------
# approximate equilibrium checks

def test_is_approx_ne():
    g = independent_game(5)
    uniform = lg.MixedProfile.uniform(5, 2)
    assert lg.regret_report(g, uniform).max_regret == pytest.approx(0.2)
    assert lg.regret_report(g, lg.MixedProfile.from_binary(np.ones(5))).max_regret == 0.0


def test_uniform_is_half_equilibrium_on_generated_games():
    for seed in range(5):
        g = lg.gen_linear_influence(15, 2, 1.0, seed=seed)
        assert lg.regret_report(g, lg.MixedProfile.uniform(15, 2)).max_regret <= 0.5


def test_is_wsne():
    g = independent_game(3)
    assert lg.regret_report(g, lg.MixedProfile.from_binary(np.ones(3))).wsne_slack < 0.01
    # uniform supports action 0 whose gap is 0.4
    assert lg.regret_report(g, lg.MixedProfile.uniform(3, 2)).wsne_slack == pytest.approx(0.4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), eps=st.floats(0.01, 0.6))
def test_wsne_implies_approx_ne(seed, eps):
    rng = np.random.default_rng(seed)
    g = lg.gen_tiny_tensor(3, 2, 1.0, seed=seed)
    probs = rng.random((3, 2)) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    p = lg.MixedProfile(probs)
    rep = lg.regret_report(g, p)
    if rep.wsne_slack < eps:
        assert rep.max_regret <= eps


# ---------------------------------------------------------------------------
# largeness

def test_largeness_independent_any_gamma():
    g = independent_game(3)
    assert lg.check_largeness(g, 0.0).ok


def test_largeness_linear_influence_exhaustive():
    for n in (3, 4):
        g = lg.gen_linear_influence(n, 2, 1.0, seed=7)
        rep = lg.check_largeness(g, 1.0 / n)
        assert rep.ok, rep


def test_largeness_violated_when_budget_doubles():
    n = 4
    g = lg.gen_linear_influence(n, 2, 2.0, seed=3)
    rep = lg.check_largeness(g, 1.0 / n)
    assert not rep.ok
    assert 0 < rep.worst - rep.gamma <= 1.0 / (n - 1)
    # witness replays to the reported change
    a, victim, deviator, alt = rep.witness
    base = g.payoffs(a)
    moved_profile = np.array(a)
    moved_profile[deviator] = alt
    moved = g.payoffs(moved_profile)
    assert abs(moved[victim] - base[victim]) == pytest.approx(rep.worst, abs=1e-15)


def test_largeness_sampled_mode():
    g = lg.gen_linear_influence(40, 2, 1.0, seed=3)
    rep = lg.check_largeness(g, g.gamma, mode="sampled", trials=2000, seed=1)
    assert rep.ok and rep.tested > 0


@pytest.mark.parametrize("trials", [0, -3])
def test_largeness_sampled_needs_a_trial(trials):
    # at gamma = 0 one trial already finds a violation; no trials must not pass
    g = lg.gen_linear_influence(40, 2, 40.0, seed=3)
    assert not lg.check_largeness(g, 0.0, mode="sampled", trials=1).ok
    with pytest.raises(ValueError, match="trials"):
        lg.check_largeness(g, 0.0, mode="sampled", trials=trials)


def test_largeness_exhaustive_guard():
    g = lg.gen_linear_influence(40, 2, 1.0, seed=3)
    with pytest.raises(ValueError, match="too large for exhaustive"):
        lg.check_largeness(g, g.gamma, mode="exhaustive")


# ---------------------------------------------------------------------------
# strategy/payoff states and the plane

def test_strategy_payoff_state_values():
    g = independent_game(2)
    p = lg.MixedProfile.from_binary([0.5, 0.5])
    v0, v1 = lg.mixed_payoff_table(g, p)[0]
    assert (v1, v0, p.probs[0, 1]) == (0.7, 0.3, 0.5)
    rep = lg.regret_report(g, p)
    assert rep.discrepancies[0] == pytest.approx(0.4)
    # at p = 1/2 the best-response mass is 1/2, so the regret is D / 2
    assert rep.regrets[0] == pytest.approx(0.4 * 0.5)


def test_state_on_plane_is_best_response_consistent():
    # (v1, v0, p) = (1, 0, 1): D = 1 and the best-response mass p equals (1 + D) / 2
    v1, v0, p = 1.0, 0.0, 1.0
    assert p == pytest.approx((1 + abs(v1 - v0)) / 2)
    assert plane_residual(v1, v0, p) == pytest.approx(0.0)


def test_constant_game_state_has_zero_discrepancy():
    g = lg.IndependentGame(np.full((3, 2), 0.5), c=1.0)
    rep = lg.regret_report(g, lg.MixedProfile.uniform(3, 2))
    assert rep.discrepancies[1] == 0.0
    assert rep.regrets[1] == 0.0


@settings(max_examples=60, deadline=None)
@given(d=st.floats(0.0, 1.0))
def test_on_plane_regret_at_most_eighth(d):
    pstar = (1.0 + d) / 2.0
    regret = d * (1.0 - pstar)
    assert regret <= 1.0 / 8.0 + 1e-12
    if abs(d - 0.5) > 1e-6:
        assert regret < 1.0 / 8.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_lipschitz_payoff_response(seed):
    g = lg.gen_linear_influence(5, 2, 1.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    p1, p2 = rng.random(5), rng.random(5)
    t1 = lg.mixed_payoff_table(g, lg.MixedProfile.from_binary(p1))
    t2 = lg.mixed_payoff_table(g, lg.MixedProfile.from_binary(p2))
    for i in range(5):
        others = [l for l in range(5) if l != i]
        # l1 distance over the opponents' probability vectors
        dist = sum(2 * abs(p1[l] - p2[l]) for l in others)
        assert np.abs(t1[i] - t2[i]).max() <= g.gamma * dist + 1e-9


# ---------------------------------------------------------------------------
# profiles

def test_mixed_profile_validation():
    with pytest.raises(ValueError):
        lg.MixedProfile(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        lg.MixedProfile(np.array([[-0.1, 1.1]]))
    with pytest.raises(ValueError):
        lg.MixedProfile.from_binary([1.5])
    p = lg.MixedProfile.from_binary([0.25, 1.0])
    assert np.allclose(p.probs, [[0.75, 0.25], [0.0, 1.0]])
    assert np.allclose(p.binary(), [0.25, 1.0])


def test_mixed_profile_rejects_non_finite():
    nan, inf = float("nan"), float("inf")
    for probs in ([[nan, nan], [0.5, 0.5]], [[inf, 0.0]], [[0.5, nan]]):
        with pytest.raises(ValueError, match="finite"):
            lg.MixedProfile(np.array(probs))
    with pytest.raises(ValueError, match="finite"):
        lg.MixedProfile.from_binary([nan, 0.5])
    with pytest.raises(ValueError):
        lg.MixedProfile.from_binary([inf])


def test_pure_profile_rejects_actions_out_of_range():
    assert lg.MixedProfile.pure([1, 0], 2).probs.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    for actions in ([-1, 0], [2, 0]):
        with pytest.raises(ValueError, match="actions must lie"):
            lg.MixedProfile.pure(actions, 2)


@pytest.mark.parametrize("make", [
    lambda payoffs: lg.IndependentGame(payoffs, c=1.0),
    lambda payoffs: lg.TensorGame(np.stack([np.tile(row, (2, 1)) for row in payoffs]), c=1.0),
], ids=["independent", "tensor"])
def test_games_reject_non_finite_payoffs(make):
    nan, inf = float("nan"), float("inf")
    make(np.array([[0.1, 0.5], [0.2, 0.3]]))
    for payoffs in ([[nan, 0.5], [0.2, 0.3]], [[0.1, 0.5], [inf, 0.3]], [[0.1, -inf], [0.2, 0.3]]):
        with pytest.raises(ValueError, match="payoffs must be finite"):
            make(np.array(payoffs))


@pytest.mark.parametrize("make", [
    lambda c: lg.IndependentGame(np.full((2, 2), 0.5), c=c),
    lambda c: lg.TensorGame(np.full((2, 2, 2), 0.5), c=c),
], ids=["independent", "tensor"])
def test_games_reject_a_bad_budget(make):
    assert make(0).c == 0.0
    for c in (-1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="influence budget c must be finite and nonnegative"):
            make(c)


def test_tensor_game_json_roundtrip():
    g = lg.gen_tiny_tensor(3, 2, 0.4, seed=9)
    back = lg.TensorGame.from_json(g.to_json())
    assert np.array_equal(back.tensor, g.tensor)
    assert back.c == g.c
