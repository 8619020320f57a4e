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

from .games import MixedProfile, binary_probs
from .oracles import OracleSession
from .reports import build_report, mode_params

PLANE_OFFSET = 0.5

# single-adjustment constants: argmin of max(a/2 + d, 1/2 - d, (1/2)(1+2d)(2d-a))
ONE_STEP_ALPHA = 2.0 - math.sqrt(11.0 / 3.0)
ONE_STEP_SHIFT = math.sqrt(11.0 / 48.0) - 0.25

BAD_REGRET = 0.12  # plane states with best-response mass in [0.7, 0.8]


def plane_residual(v1, v0, p):
    """Signed distance-like residual; zero exactly on the plane."""
    return p - PLANE_OFFSET - (np.asarray(v1) - np.asarray(v0)) / 2.0


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)`` in place, bit for bit, without its Python wrapper."""
    np.maximum(lo, x, out=x)  # x second: kept on a tie (-0.0 against 0.0), as np.clip keeps it
    return np.minimum(hi, x, out=x)


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
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
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
    _, pstar, _, disc, _ = _curve_state(p_one, vhat, 1.0)
    bad = disc * (1.0 - pstar) >= BAD_REGRET  # estimated regret
    return BadGoodLabels(bad=bad, theta=float(bad.mean()))


def _binary_source(session: OracleSession, mode: str, beta: float, delta: float):
    """The run's table source (``OracleSession.table_source``) as a function
    of the vector of P[action 1]."""
    source = session.table_source(mode, session.sample_mixed_binary, beta, delta)
    if session.game.k != 2:
        raise ValueError("binary dynamics require k = 2")
    return lambda p_one: source(binary_probs(p_one))


def one_step(session: OracleSession, mode: str = "exact", beta: float = 0.1,
             delta: float = 0.05):
    """Single adjustment from uniform: players whose payoff gap exceeds
    ``ONE_STEP_ALPHA`` move ``ONE_STEP_SHIFT`` probability toward their best
    response."""
    est = _binary_source(session, mode, beta, delta)
    n = session.game.n
    v = est(np.full(n, 0.5))
    gap = v[:, 1] - v[:, 0]
    p = np.where(gap > ONE_STEP_ALPHA, 0.5 + ONE_STEP_SHIFT,
                 np.where(-gap > ONE_STEP_ALPHA, 0.5 - ONE_STEP_SHIFT, 0.5))
    profile = MixedProfile.from_binary(p)
    report = build_report("one-step", {"alpha": ONE_STEP_ALPHA, "shift": ONE_STEP_SHIFT}
                          | mode_params(mode, beta, delta), session, profile, rounds=1)
    return profile, report


def two_step(session: OracleSession, mode: str = "exact",
             beta: float = 0.1, delta: float = 0.05):
    """Shift best responses to mass 3/4, then send players whose best
    response flipped back to uniform."""
    est = _binary_source(session, mode, beta, delta)
    n = session.game.n
    v = est(np.full(n, 0.5))
    first = (v[:, 1] > v[:, 0]).astype(int)  # ties break to action 0
    p_shift = np.where(first == 1, 0.75, 0.25)
    v2 = est(p_shift)
    second = (v2[:, 1] > v2[:, 0]).astype(int)
    p_final = np.where(first != second, 0.5, p_shift)
    profile = MixedProfile.from_binary(p_final)
    report = build_report("two-step", mode_params(mode, beta, delta), session, profile, rounds=2)
    return profile, report


def _banded_rounds(est, rule, p, v_prev, v, rounds, record=None):
    """The round loop of every banded dynamics and flow.

    Each round ``rule(p, v, v_prev)`` turns the estimates at p and at the
    round before into the next p (a step toward the target set off the
    band, payoff tracking inside it) as a new array, which is clipped in
    place, and the residual to the target; ``record`` sees the state the
    round starts from.  The next estimate is taken at the clipped p except
    after the last round.  Returns (p, last v).
    """
    for r in range(rounds):
        p_next, resid = rule(p, v, v_prev)
        if record is not None:
            record(p, v, resid)
        p, v_prev = _clip(p_next, 0.0, 1.0), v
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
        move = (dv[:, 1] - dv[:, 0]) / 2.0  # tracking
        if bad is None:  # off the band resid != 0, so -sign(resid) step is a copysign
            np.putmask(move, np.abs(resid) > step, np.copysign(step, -resid))
        else:
            np.putmask(move, bad, np.where(v[:, 1] >= v[:, 0], step, -step))
        return np.add(p, move, out=move), resid
    return rule


def _banded(session, params, band, mode, sample_beta, make_rule, record):
    """Set up the estimator for a band and run the banded rounds from the
    uniform start; ``record`` is the round hook of ``_banded_rounds``.
    Returns (estimator, p, step, rounds, the ``mode_params`` to record)."""
    step, rounds = _schedule(band)
    beta = sample_beta if sample_beta is not None else step
    delta = params.eta / rounds
    est = _binary_source(session, mode, beta, delta)
    p = np.full(session.game.n, 0.5)
    # the first round tracks against a second estimate at the start
    p, _ = _banded_rounds(est, make_rule(step), p, est(p), est(p), rounds, record)
    return est, p, step, rounds, mode_params(mode, beta, delta)


def plane_dynamics(session: OracleSession, params: DynamicsParams, mode: str = "exact",
                   sample_beta: float | None = None, record=None):
    """Completely uncoupled rounds steering every state into the plane band.

    Sampling mode estimates payoffs with accuracy beta = step (or the
    relaxed override) and per-round confidence eta / rounds; exact mode
    substitutes exact mixed queries.  ``record(p, v, resid)``, if given,
    sees the state each banded round starts from; ``communication_dynamics``
    and ``curve_dynamics`` take it too.
    """
    _, p, _, _, oracle = _banded(session, params, params.band, mode, sample_beta,
                                 _plane_rule, record)
    profile = MixedProfile.from_binary(p)
    run_params = params.as_dict() | oracle
    report = build_report("plane", run_params, session, profile, rounds=params.rounds)
    return profile, report


def communication_dynamics(session: OracleSession, params: DynamicsParams,
                           mode: str = "exact", sample_beta: float | None = None,
                           record=None):
    """Plane pursuit plus one broadcast bit that lets high-regret players
    shed regret below the 1/8 plane bound.

    After the banded rounds, players with estimated regret >= 0.12 are
    flagged.  If they are the majority (the broadcast bit), they march
    toward their best responses for 0.15 probability mass while the rest
    track; then the (re-labelled) flagged players march a further 1/220.
    """
    est, p, step, rounds, oracle = _banded(session, params, params.band, mode,
                                           sample_beta, _plane_rule, record)
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
    run_params = params.as_dict() | {"theta": theta_measured, "theta_bit": bool(theta_bit),
                                     "theta_final": labels.theta} | oracle
    report = build_report("plane-comm", run_params, session, profile, rounds=rounds)
    return profile, report


# ---------------------------------------------------------------------------
# general influence budget: the plane generalizes to a capped curve

def _check_curve_c(c: float) -> None:
    """The curve's influence budget must be finite and positive, as the
    block-update bound requires."""
    if not 0.0 < c < math.inf:
        raise ValueError("c must be finite and positive")


def curve_band(alpha: float, c: float) -> float:
    """Band half-width whose worst-case regret meets the curve bound + alpha."""
    _check_curve_c(c)
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be finite and positive")
    if c <= 2:
        return (math.sqrt(1.0 + 8.0 * alpha / c) - 1.0) / 2.0
    return alpha


def curve_regret_bound(c: float, alpha: float = 0.0) -> float:
    """Worst-case regret on the curve: c/8 for c <= 2, else 1/2 - 1/(2c)."""
    _check_curve_c(c)
    value = c / 8.0 if c <= 2 else 0.5 - 1.0 / (2.0 * c)
    return value + alpha


def _curve_state(p, v, c: float):
    """Best-response direction, best-response mass, the uncapped line
    1/2 + D/(2c), the discrepancy D and the residual to the capped curve."""
    disc = v[:, 1] - v[:, 0]
    toward_one = disc >= 0.0  # v1 >= v0: a difference of finite floats is 0 only on a tie
    pstar = np.where(toward_one, p, 1.0 - p)
    line = 0.5 + np.abs(disc, out=disc) / (2.0 * c)
    return toward_one, pstar, line, disc, pstar - np.minimum(line, 1.0)


def _curve_rule(c: float, step: float):
    def rule(p, v, v_prev):
        toward_one, pstar, line, disc, rho = _curve_state(p, v, c)
        d_disc = disc - np.abs(v_prev[:, 1] - v_prev[:, 0])
        new_pstar = _clip(pstar + d_disc / (2.0 * c), 0.0, 1.0)  # track, unless held or climbing
        np.copyto(new_pstar, pstar, where=pstar > line + step)
        climb = np.minimum(pstar + step, 1.0)
        np.copyto(new_pstar, climb, where=(line >= 1.0) | (rho < -step))
        return np.subtract(1.0, new_pstar, out=new_pstar, where=~toward_one), rho
    return rule


def curve_dynamics(session: OracleSession, params: DynamicsParams, c: float | None = None,
                   mode: str = "exact", sample_beta: float | None = None, record=None):
    """Banded pursuit of the capped curve p* = min(1/2 + D/(2c), 1).

    Three cases per round: climb a step toward the curve from below (a climb
    snaps on arrival only at p* = 1, which pins saturated players at a pure
    best response), hold when strictly above the uncapped line (such states
    already beat the curve's regret), and otherwise track discrepancy changes
    along the sloped section.
    """
    if c is None:
        c = session.game.c
    band = curve_band(params.alpha, c)
    _, p, step, rounds, oracle = _banded(session, params, band, mode, sample_beta,
                                         lambda step: _curve_rule(c, step), record)
    profile = MixedProfile.from_binary(p)
    run_params = {"alpha": params.alpha, "eta": params.eta, "c": c, "band": band,
                  "step": step, "rounds": rounds} | oracle
    report = build_report("curve", run_params, session, profile, rounds=rounds)
    return profile, report
