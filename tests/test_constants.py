"""Typed constants and declared bounds, each checked against the inequality
or fine scan that defines it."""

from fractions import Fraction

import numpy as np
import pytest

import largegames as lg
from largegames import runner
from largegames.binary import BAD_REGRET, curve_band, label_bad_players


def _plane_regret(mass):
    """Regret D (1 - p*) of a plane state: its best-response mass is p* = (1 + D) / 2."""
    disc = 2 * mass - 1
    return disc * (1 - mass)


def test_bad_regret_is_the_plane_regret_at_mass_0_7_and_0_8():
    assert BAD_REGRET == float(_plane_regret(Fraction(7, 10)))
    assert BAD_REGRET == float(_plane_regret(Fraction(8, 10)))
    # D (1 - D) / 2 >= 3/25 exactly when D lies in [2/5, 3/5], mass in [0.7, 0.8]
    masses = [Fraction(j, 10_000) for j in range(5_000, 10_001)]
    bad = [mass for mass in masses if _plane_regret(mass) >= Fraction(3, 25)]
    assert (bad[0], bad[-1], len(bad)) == (Fraction(7, 10), Fraction(8, 10), 1_001)


def test_label_bad_players_flags_plane_states_by_best_response_mass():
    mass = np.linspace(0.5, 1.0, 5_001)
    inside = (mass > 0.7) & (mass < 0.8)
    off_edge = (np.abs(mass - 0.7) > 1e-9) & (np.abs(mass - 0.8) > 1e-9)
    disc = 2 * mass - 1
    for sign in (1.0, -1.0):  # best response action 1, then action 0
        vhat = np.stack([0.5 - sign * disc / 2, 0.5 + sign * disc / 2], axis=1)
        p_one = mass if sign > 0 else 1 - mass
        labels = label_bad_players(vhat, p_one)
        assert np.array_equal(labels.bad[off_edge], inside[off_edge])


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 3.0, 4.0, 8.0])
def test_curve_band_meets_the_curve_bound_and_is_tight(c):
    """Worst regret D (1 - p*) over the states within the band below the curve.

    Saturated players (1/2 + D/(2c) >= 1, so D >= c) climb to the pure best
    response and snap there, so the band applies on the sloped section
    D <= min(1, c), where the curve is p* = 1/2 + D/(2c)."""
    alpha = 0.05
    band = curve_band(alpha, c)
    disc = np.linspace(0.0, min(1.0, c), 20_001)[:, None]
    pstar = 0.5 + disc / (2 * c) - band * np.linspace(0.0, 1.0, 101)[None, :]
    regret = disc * (1 - pstar)
    bound = lg.curve_regret_bound(c, alpha)
    assert regret.max() <= bound + 1e-12
    assert regret.max() == pytest.approx(bound, abs=1e-8)
    if c > 2:  # the band is alpha, and the worst state is D = 1 at the band's floor
        assert band == alpha
        assert np.unravel_index(regret.argmax(), regret.shape) == (disc.size - 1, 100)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_uniform_bound_is_tight_when_one_action_pays_1(k):
    """The uniform profile's regret is the max minus the mean of k payoffs in
    [0, 1], at most (k - 1)/k, with equality at one action paying 1 and the rest 0."""
    game = lg.IndependentGame(np.tile(np.eye(k)[0], (3, 1)), c=1.0)  # rows [1, 0, ...]
    _, report, _ = runner.ALGOS["uniform"].run(lg.OracleSession(game, seed=0), None, {})
    bound = runner.ALGOS["uniform"].bound({}, game)
    assert bound == (k - 1) / k
    assert report.max_regret == pytest.approx(bound, abs=1e-15)
