"""Fixed-step integration of the continuous best-response-band dynamics.

The flows move each player's probability at unit speed toward the plane
(or its general-influence curve) and then track payoff derivatives to
stay on it.  Derivatives are backward difference quotients because only
payoff values are observable; the membership tolerance scales with the
step size to absorb the first-order integration drift.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .games import Game, binary_probs
from .binary import _banded_rounds, _check_curve_c, _clip, _curve_state, plane_residual


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of every player's state and target residual."""

    times: np.ndarray      # (steps + 1,)
    v: np.ndarray          # (steps + 1, n, 2) exact payoffs, column j = action j
    p: np.ndarray          # (steps + 1, n) probability of action 1
    residual: np.ndarray   # (steps + 1, n) signed distance to the target set
    band: float            # membership tolerance used by the flow

    @property
    def n(self) -> int:
        return self.p.shape[1]

    def first_inside(self, tol: float | None = None) -> np.ndarray:
        """Per player, the first time the residual enters the tolerance band
        (inf for a player that never enters)."""
        tol = self.band if tol is None else tol
        inside = np.abs(self.residual) <= tol + 1e-12
        return np.where(inside.any(axis=0), self.times[inside.argmax(axis=0)], np.inf)

    def stays_inside(self, t_from: float, tol: float | None = None) -> bool:
        tol = self.band if tol is None else tol
        mask = self.times >= t_from - 1e-12
        return bool(np.all(np.abs(self.residual[mask]) <= tol + 1e-12))

    def write_csv(self, path, downsample: int = 1):
        if downsample < 1:
            raise ValueError("downsample factor must be >= 1")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "player", "v1", "v0", "p", "d"])
            for m in range(0, self.times.shape[0], downsample):
                for i in range(self.n):
                    writer.writerow([repr(float(self.times[m])), i,
                                     repr(float(self.v[m, i, 1])),
                                     repr(float(self.v[m, i, 0])),
                                     repr(float(self.p[m, i])),
                                     repr(float(self.residual[m, i]))])


def _flow(game: Game, rule, step_h: float, horizon: float, tol: float) -> Trajectory:
    """Run the banded round loop from the uniform start with the exact
    table as estimator and h as step, recording every step and the end."""
    if game.k != 2:
        raise ValueError("the flow is defined for binary games")
    if not 0.0 < step_h < math.inf:
        raise ValueError("step_h must be finite and positive")
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    steps = int(round(horizon / step_h))
    tr = Trajectory(times=np.arange(steps + 1) * step_h, v=np.empty((steps + 1, game.n, 2)),
                    p=np.empty((steps + 1, game.n)), residual=np.empty((steps + 1, game.n)),
                    band=tol)
    rows = itertools.count()

    def record(p, v, resid):
        m = next(rows)
        tr.v[m], tr.p[m], tr.residual[m] = v, p, resid

    est = lambda p_one: game.mixed_payoff_table(binary_probs(p_one))
    p = np.full(game.n, 0.5)
    v = est(p)
    p, v_prev = _banded_rounds(est, rule, p, v, v, steps, record)
    v = est(p)
    record(p, v, rule(p, v, v_prev)[1])
    return tr


def simulate_plane_flow(game: Game, step_h: float = 1e-3, horizon: float = 1.0) -> Trajectory:
    """Integrate the plane-reaching flow from the uniform start.

    Off the plane (residual beyond 2h) players move at unit speed toward
    it; on it they match half the difference of payoff derivatives, which
    freezes the residual.
    """
    tol = 2.0 * step_h

    def rule(p, v, v_prev):
        d = plane_residual(v[:, 1], v[:, 0], p)
        vdot = (v - v_prev) / step_h
        rate = _clip((vdot[:, 1] - vdot[:, 0]) / 2.0, -1.0, 1.0)  # tracking
        np.putmask(rate, np.abs(d) > tol, np.copysign(1.0, -d))  # -sign(d), as d != 0
        rate *= step_h
        return np.add(p, rate, out=rate), d

    return _flow(game, rule, step_h, horizon, tol)


def simulate_curve_flow(game: Game, c: float, step_h: float = 1e-3,
                        horizon: float = 1.0) -> Trajectory:
    """Integrate the capped-curve flow p* -> min(1/2 + D/(2c), 1).

    Below the curve the best-response mass climbs at unit speed; above
    the uncapped line it holds still; otherwise it tracks the
    discrepancy derivative scaled by 1/(2c).
    """
    _check_curve_c(c)
    tol = 2.0 * step_h * max(1.0, 1.0 / (2.0 * c))

    def rule(p, v, v_prev):
        toward_one, pstar, line, disc, rho = _curve_state(p, v, c)
        ddot = (disc - np.abs(v_prev[:, 1] - v_prev[:, 0])) / step_h
        rate = _clip(ddot / (2.0 * c), -1.0, 1.0)  # tracking, unless held or climbing
        rate[(rho > tol) & (pstar > line)] = 0.0
        rate[rho < -tol] = 1.0
        rate *= np.where(toward_one, step_h, -step_h)  # the move of p, not of p*
        return np.add(p, rate, out=rate), rho

    return _flow(game, rule, step_h, horizon, tol)
