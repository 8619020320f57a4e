"""Equilibrium procedures for binary-action small-influence games.

All procedures drive the per-player probability of action 1 and reason
about strategy/payoff states s = (v1, v0, p).  The central geometric
object is the plane where the best-response mass equals (1 + D) / 2;
states on it have regret at most 1/8, and states within a band of
half-width lambda have regret at most (1/8)(1 + 2 lambda)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .games import MixedProfile
from .oracles import OracleSession
from .reports import build_report

PLANE_OFFSET = 0.5

# single-adjustment constants: argmin of max(a/2 + d, 1/2 - d, (1/2)(1+2d)(2d-a))
ONE_STEP_ALPHA = 2.0 - math.sqrt(11.0 / 3.0)
ONE_STEP_SHIFT = math.sqrt(11.0 / 48.0) - 0.25

BAD_REGRET = 0.12  # plane states with best-response mass in [0.7, 0.8]


def plane_residual(v1, v0, p):
    """Signed distance-like residual; zero exactly on the plane."""
    return p - PLANE_OFFSET - (np.asarray(v1) - np.asarray(v0)) / 2.0


@dataclass(frozen=True)
class DynamicsParams:
    """Accuracy/confidence pair with the derived band, step and horizon.

    band = (sqrt(1 + 8 alpha) - 1) / 2 makes the band's worst-case regret
    exactly 1/8 + alpha; it is the curve band at c = 1.  The step is a
    quarter band and the horizon is the number of steps needed to sweep
    the whole probability range.
    """

    alpha: float
    eta: float = 0.1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")

    @cached_property
    def band(self) -> float:
        return curve_band(self.alpha, 1.0)

    @cached_property
    def step(self) -> float:
        return _schedule(self.band)[0]

    @cached_property
    def rounds(self) -> int:
        return _schedule(self.band)[1]

    def as_dict(self) -> dict:
        return {"alpha": self.alpha, "eta": self.eta, "band": self.band,
                "step": self.step, "rounds": self.rounds}


def _schedule(band: float) -> tuple[float, int]:
    """Quarter-band step and the rounds needed to sweep the probability range."""
    step = band / 4.0
    return step, math.ceil(2.0 / step)


@dataclass(frozen=True)
class BadGoodLabels:
    """Players flagged by estimated regret at least 0.12, plus their fraction."""

    bad: np.ndarray
    theta: float


def label_bad_players(vhat: np.ndarray, p_one: np.ndarray) -> BadGoodLabels:
    disc = np.abs(vhat[:, 1] - vhat[:, 0])
    pstar = np.where(vhat[:, 1] >= vhat[:, 0], p_one, 1.0 - p_one)
    est_regret = disc * (1.0 - pstar)
    bad = est_regret >= BAD_REGRET
    return BadGoodLabels(bad=bad, theta=float(bad.mean()))


class DynamicsRecorder:
    """Optional per-round capture of the probabilities, residuals and
    best-response signs each round starts from, plus the final probabilities."""

    def __init__(self):
        self._probs = []
        self._residuals = []
        self._signs = []

    def __call__(self, p_one, values, residual):
        self._probs.append(np.array(p_one))
        self._residuals.append(np.array(residual))
        self._signs.append(np.where(values[:, 1] >= values[:, 0], 1, -1))

    def finish(self, p_one):
        self._probs.append(np.array(p_one))

    @property
    def probs(self) -> np.ndarray:
        return np.array(self._probs)

    @property
    def residuals(self) -> np.ndarray:
        return np.array(self._residuals)

    @property
    def signs(self) -> np.ndarray:
        return np.array(self._signs)


class _MixedEstimator:
    """Uniform access to mixed payoff tables, exact or sampled."""

    def __init__(self, session: OracleSession, mode: str, beta: float, delta: float):
        if mode not in ("exact", "sampling"):
            raise ValueError("oracle mode must be 'exact' or 'sampling'")
        if session.game.k != 2:
            raise ValueError("binary dynamics require k = 2")
        self.session = session
        self.mode = mode
        self.beta = beta
        self.delta = delta

    def __call__(self, p_one: np.ndarray) -> np.ndarray:
        probs = np.column_stack([1.0 - p_one, p_one])
        if self.mode == "exact":
            return self.session.exact_mixed(probs)
        return self.session.sample_mixed_binary(probs, self.beta, self.delta).values


def uniform_profile(n: int, k: int = 2) -> MixedProfile:
    """The queryless baseline: every player mixes uniformly."""
    return MixedProfile.uniform(n, k)


def one_step(session: OracleSession, alpha: float = ONE_STEP_ALPHA,
             shift: float = ONE_STEP_SHIFT, mode: str = "exact",
             beta: float = 0.1, delta: float = 0.05):
    """Single adjustment from uniform: players whose payoff gap exceeds
    ``alpha`` move ``shift`` probability toward their best response."""
    est = _MixedEstimator(session, mode, beta, delta)
    n = session.game.n
    v = est(np.full(n, 0.5))
    gap = v[:, 1] - v[:, 0]
    p = np.where(gap > alpha, 0.5 + shift,
                 np.where(-gap > alpha, 0.5 - shift, 0.5))
    profile = MixedProfile.from_binary(p)
    report = build_report("one-step", {"alpha": alpha, "shift": shift, "mode": mode},
                          session, profile, rounds=1)
    return profile, report


def two_step(session: OracleSession, mode: str = "exact",
             beta: float = 0.1, delta: float = 0.05):
    """Shift best responses to mass 3/4, then send players whose best
    response flipped back to uniform."""
    est = _MixedEstimator(session, mode, beta, delta)
    n = session.game.n
    v = est(np.full(n, 0.5))
    first = (v[:, 1] > v[:, 0]).astype(int)  # ties break to action 0
    p_shift = np.where(first == 1, 0.75, 0.25)
    v2 = est(p_shift)
    second = (v2[:, 1] > v2[:, 0]).astype(int)
    p_final = np.where(first != second, 0.5, p_shift)
    profile = MixedProfile.from_binary(p_final)
    report = build_report("two-step", {"mode": mode}, session, profile, rounds=2)
    return profile, report


def _banded_rounds(est, rule, p, v_prev, v, rounds, record=None):
    """The round loop of every banded dynamics and flow.

    Each round ``rule(p, v, v_prev)`` turns the estimates at p and at the
    round before into the next p (a step toward the target set off the
    band, payoff tracking inside it) and the residual to the target;
    ``record`` sees the state the round starts from.  The next estimate is
    taken at the clipped p except after the last round.  Returns (p, last v).
    """
    for r in range(rounds):
        p_next, resid = rule(p, v, v_prev)
        if record is not None:
            record(p, v, resid)
        p, v_prev = np.clip(p_next, 0.0, 1.0), v
        if r + 1 < rounds:
            v = est(p)
    return p, v_prev


def _plane_rule(step: float, bad: np.ndarray | None = None):
    """Plane pursuit: players off the band (residual beyond a step) step
    toward the plane, the rest track half the payoff-gap change.  With a
    ``bad`` mask (the broadcast march) the flagged players step toward
    their best response instead and the rest track."""
    def rule(p, v, v_prev):
        resid = plane_residual(v[:, 1], v[:, 0], p)
        dv = v - v_prev
        tracking = (dv[:, 1] - dv[:, 0]) / 2.0
        if bad is None:
            move = np.where(np.abs(resid) > step, -np.sign(resid) * step, tracking)
        else:
            move = np.where(bad, np.where(v[:, 1] >= v[:, 0], 1.0, -1.0) * step, tracking)
        return p + move, resid
    return rule


def _banded(session, params, band, mode, sample_beta, make_rule, recorder):
    """Set up the estimator for a band and run the banded rounds from the
    uniform start.  Returns (estimator, p, step, rounds)."""
    step, rounds = _schedule(band)
    beta = sample_beta if sample_beta is not None else step
    est = _MixedEstimator(session, mode, beta, params.eta / rounds)
    p = np.full(session.game.n, 0.5)
    # the first round tracks against a second estimate at the start
    p, _ = _banded_rounds(est, make_rule(step), p, est(p), est(p), rounds, recorder)
    if recorder is not None:
        recorder.finish(p)
    return est, p, step, rounds


def plane_dynamics(session: OracleSession, params: DynamicsParams, mode: str = "exact",
                   sample_beta: float | None = None,
                   recorder: DynamicsRecorder | None = None):
    """Completely uncoupled rounds steering every state into the plane band.

    Sampling mode estimates payoffs with accuracy beta = step (or the
    relaxed override) and per-round confidence eta / rounds; exact mode
    substitutes exact mixed queries.
    """
    est, p, _, _ = _banded(session, params, params.band, mode, sample_beta,
                           _plane_rule, recorder)
    profile = MixedProfile.from_binary(p)
    run_params = params.as_dict() | {"mode": mode}
    if mode == "sampling":
        run_params |= {"sample_beta": est.beta, "sample_delta": est.delta}
    report = build_report("plane", run_params, session, profile, rounds=params.rounds)
    return profile, report


def communication_dynamics(session: OracleSession, params: DynamicsParams,
                           mode: str = "exact", sample_beta: float | None = None,
                           recorder: DynamicsRecorder | None = None):
    """Plane pursuit plus one broadcast bit that lets high-regret players
    shed regret below the 1/8 plane bound.

    After the banded rounds, players with estimated regret >= 0.12 are
    flagged.  If they are the majority (the broadcast bit), they march
    toward their best responses for 0.15 probability mass while the rest
    track; then the (re-labelled) flagged players march a further 1/220.
    """
    est, p, step, rounds = _banded(session, params, params.band, mode, sample_beta,
                                   _plane_rule, recorder)
    vhat = est(p)  # fresh estimate at the settled profile for labelling
    labels = label_bad_players(vhat, p)
    theta_measured = labels.theta
    rounds += 1

    theta_bit = labels.theta > 0.5
    if theta_bit:
        balance = math.ceil(0.15 / step)
        p, vhat = _banded_rounds(est, _plane_rule(step, labels.bad), p, vhat, est(p), balance)
        rounds += balance
        labels = label_bad_players(vhat, p)
    if labels.bad.any():
        final = math.ceil((1.0 / 220.0) / step)
        p, vhat = _banded_rounds(est, _plane_rule(step, labels.bad), p, vhat, est(p), final)
        rounds += final

    profile = MixedProfile.from_binary(p)
    run_params = params.as_dict() | {"mode": mode, "theta": theta_measured,
                                     "theta_bit": bool(theta_bit),
                                     "theta_final": labels.theta}
    report = build_report("plane-comm", run_params, session, profile, rounds=rounds)
    return profile, report


# ---------------------------------------------------------------------------
# general influence budget: the plane generalizes to a capped curve

def curve_target(disc, c: float):
    """Best-response mass the dynamics aim for: min(1/2 + D / (2c), 1)."""
    return np.minimum(0.5 + np.asarray(disc, dtype=float) / (2.0 * c), 1.0)


def curve_band(alpha: float, c: float) -> float:
    """Band half-width whose worst-case regret meets the curve bound + alpha."""
    if c <= 0:
        raise ValueError("c must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if c <= 2:
        return (math.sqrt(1.0 + 8.0 * alpha / c) - 1.0) / 2.0
    return alpha


def curve_regret_bound(c: float, alpha: float = 0.0) -> float:
    """Worst-case regret on the curve: c/8 for c <= 2, else 1/2 - 1/(2c)."""
    if c <= 0:
        raise ValueError("c must be positive")
    value = c / 8.0 if c <= 2 else 0.5 - 1.0 / (2.0 * c)
    return value + alpha


def _curve_state(p, v, c: float):
    """Best-response direction, best-response mass, the uncapped line
    1/2 + D/(2c), the discrepancy D and the residual to the capped curve."""
    disc = np.abs(v[:, 1] - v[:, 0])
    toward_one = v[:, 1] >= v[:, 0]
    pstar = np.where(toward_one, p, 1.0 - p)
    line = 0.5 + disc / (2.0 * c)
    return toward_one, pstar, line, disc, pstar - np.minimum(line, 1.0)


def _curve_rule(c: float, step: float):
    def rule(p, v, v_prev):
        toward_one, pstar, line, disc, rho = _curve_state(p, v, c)
        d_disc = disc - np.abs(v_prev[:, 1] - v_prev[:, 0])
        climb = np.minimum(pstar + step, np.minimum(line, 1.0))
        track = np.clip(pstar + d_disc / (2.0 * c), 0.0, 1.0)
        new_pstar = np.where((line >= 1.0) | (rho < -step), climb,
                             np.where(pstar > line + step, pstar, track))
        return np.where(toward_one, new_pstar, 1.0 - new_pstar), rho
    return rule


def curve_dynamics(session: OracleSession, params: DynamicsParams, c: float | None = None,
                   mode: str = "exact", sample_beta: float | None = None,
                   recorder: DynamicsRecorder | None = None):
    """Banded pursuit of the capped curve p* = min(1/2 + D/(2c), 1).

    Three cases per round: climb toward the curve from below (snapping on
    arrival, which pins saturated players at a pure best response), hold
    when strictly above the uncapped line (such states already beat the
    curve's regret), and otherwise track discrepancy changes along the
    sloped section.
    """
    if c is None:
        c = session.game.c
    band = curve_band(params.alpha, c)
    _, p, step, rounds = _banded(session, params, band, mode, sample_beta,
                                 lambda step: _curve_rule(c, step), recorder)
    profile = MixedProfile.from_binary(p)
    run_params = {"alpha": params.alpha, "eta": params.eta, "c": c, "band": band,
                  "step": step, "rounds": rounds, "mode": mode}
    report = build_report("curve", run_params, session, profile, rounds=rounds)
    return profile, report
