import numpy as np
import pytest

import largegames as lg
from largegames.binary import _curve_state


H = 1e-3


def test_constant_game_starts_on_plane_and_stays():
    g = lg.IndependentGame(np.full((5, 2), 0.5), c=1.0)
    tr = lg.simulate_plane_flow(g, H, 0.3)
    assert np.abs(tr.residual).max() <= 1e-12
    assert np.allclose(tr.p, 0.5)


def test_fixed_gap_crossing_time():
    # discrepancy 0.4 everywhere: the plane sits at best-response mass 0.7,
    # so unit-speed approach enters the 2h band at t = 0.2 - 2h
    g = lg.IndependentGame(np.tile([0.3, 0.7], (8, 1)), c=1.0)
    tr = lg.simulate_plane_flow(g, H, 0.5)
    first = tr.first_inside()
    assert np.all(np.abs(first - (0.2 - 2 * H)) <= 2 * H + 1e-12)
    assert tr.stays_inside(0.25)


def test_first_inside_is_inf_for_a_player_that_never_enters():
    tr = lg.Trajectory(times=np.array([0.0, 0.1, 0.2]), v=np.zeros((3, 3, 2)),
                       p=np.full((3, 3), 0.5), band=0.05,
                       residual=np.array([[0.0, 0.3, 0.3], [0.2, 0.04, 0.3], [0.0, 0.0, 0.3]]))
    assert tr.first_inside().tolist() == [0.0, 0.1, np.inf]
    assert tr.first_inside(tol=0.3).tolist() == [0.0, 0.0, 0.0]


def test_reach_and_stay_on_seeded_games():
    for seed in range(4):
        g = lg.gen_linear_influence(20, 2, 1.0, seed=seed)
        tr = lg.simulate_plane_flow(g, H, 1.0)
        assert np.all(tr.first_inside() <= 0.5 + 2 * H + 1e-12)
        assert tr.stays_inside(0.5 + 2 * H)


def test_speed_limit_and_derivative_bounds():
    g = lg.gen_linear_influence(15, 2, 1.0, seed=9)
    tr = lg.simulate_plane_flow(g, H, 0.8)
    steps = np.abs(np.diff(tr.p, axis=0))
    assert steps.max() <= H + 1e-15
    vdot = np.abs(np.diff(tr.v, axis=0)) / H
    assert vdot.max() <= 1.0 + 1e-9          # influence budget c = 1
    disc = np.abs(tr.v[:, :, 1] - tr.v[:, :, 0])
    ddot = np.abs(np.diff(disc, axis=0)) / H
    assert ddot.max() <= 2.0 + 1e-9


def test_curve_flow_matches_plane_flow_at_c1():
    g = lg.gen_linear_influence(12, 2, 1.0, seed=5)
    a = lg.simulate_plane_flow(g, H, 1.0)
    b = lg.simulate_curve_flow(g, 1.0, H, 1.0)
    assert np.abs(a.p - b.p).max() <= 1e-12


@pytest.mark.parametrize("c", [0.0, float("nan"), float("inf")])
def test_curve_flow_rejects_a_budget_that_is_not_finite_and_positive(c):
    g = lg.gen_linear_influence(4, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match="c must be finite and positive"):
        lg.simulate_curve_flow(g, c, H, 0.01)


def test_curve_flow_saturation():
    g = lg.IndependentGame(np.tile([0.05, 0.95], (6, 1)), c=0.25)
    tr = lg.simulate_curve_flow(g, 0.25, H, 1.0)
    toward_one, pstar, line, _, rho = _curve_state(np.array([0.5]),
                                                   np.array([[0.05, 0.95]]), 0.25)
    assert toward_one[0] and line[0] > 1.0 and pstar[0] - rho[0] == 1.0  # capped at one
    assert np.all(tr.p[-1] >= 1.0 - tr.band - 1e-12)


def test_curve_flow_terminal_regret():
    for c in (0.5, 1.0, 2.0):
        for seed in range(3):
            g = lg.gen_linear_influence(15, 2, c, seed=seed)
            tr = lg.simulate_curve_flow(g, c, H, 1.0)
            profile = lg.MixedProfile.from_binary(tr.p[-1])
            regret = lg.regret_report(g, profile).max_regret
            assert regret <= c / 8 + 10 * H * max(1.0, c)


def test_curve_flow_speed_limit():
    g = lg.gen_linear_influence(10, 2, 4.0, seed=2)
    tr = lg.simulate_curve_flow(g, 4.0, H, 0.5)
    assert np.abs(np.diff(tr.p, axis=0)).max() <= H + 1e-15


class ScriptedDiscrepancy:
    """A one-player binary game whose exact table follows the flow's clock: the
    discrepancy D = v1 - v0 is 1 until t = 0.4, then falls at 10 per unit time
    to 0.1."""

    n, k, c = 1, 2, 1.0

    def __init__(self, step_h):
        self.step_h, self.calls = step_h, 0

    def mixed_payoff_table(self, probs):
        t = self.calls * self.step_h  # the flow asks once per step, from t = 0
        self.calls += 1
        return np.array([[0.0, max(0.1, 1.0 - 10.0 * max(0.0, t - 0.4))]])


def test_curve_flow_holds_a_player_above_the_line():
    # the player climbs to p = 0.9 while p* sits on 1, then the line 1/2 + D/2
    # falls below it and p* holds; tracking the fall of D alone would end at 0.84
    tr = lg.simulate_curve_flow(ScriptedDiscrepancy(1e-2), c=1.0, step_h=1e-2, horizon=1.0)
    assert tr.p[40, 0] == pytest.approx(0.9)
    assert tr.p[-1, 0] == pytest.approx(0.92)


def test_trajectory_csv(tmp_path):
    g = lg.gen_linear_influence(4, 2, 1.0, seed=0)
    tr = lg.simulate_plane_flow(g, 0.01, 0.05)
    path = tmp_path / "traj.csv"
    tr.write_csv(path, downsample=2)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,player,v1,v0,p,d"
    # six recorded steps downsampled by two, four players each
    assert len(lines) == 1 + 3 * 4
    t, player, v1, v0, p, d = lines[1].split(",")
    assert float(t) == 0.0 and int(player) == 0
    assert float(p) == 0.5
    with pytest.raises(ValueError):
        tr.write_csv(path, downsample=0)


def test_flow_requires_binary_game():
    g = lg.gen_tiny_tensor(3, 3, 0.5, seed=1)
    with pytest.raises(ValueError):
        lg.simulate_plane_flow(g, H, 0.1)


def test_plane_flow_steps_toward_the_plane_after_slipping_above_it():
    # on this game a player slips above the plane after entering the band;
    # stepping toward the best response instead of the plane ran it away
    # to |residual| 0.499
    g = lg.gen_linear_influence(20, 2, 1.0, seed=1911581043)
    tr = lg.simulate_plane_flow(g, H, 1.0)
    assert np.all(tr.first_inside() <= 0.5 + 2 * H + 1e-12)
    assert tr.stays_inside(0.5 + 2 * H)
