"""Block reallocation for k-action games and the truncated-triangle
geometry that bounds its worst-case regret.

Each player splits her mixed strategy into N equal probability blocks;
round t reassigns block t to the current best response.  The influence
budget caps how much regret an early reassignment can accumulate, and
the worst feasible allocation of regret values to blocks is a left sum
under a truncated triangle, maximized in closed form here and checked
against brute force in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import MixedProfile
from .oracles import OracleSession
from .reports import array_digest, build_report, mode_params


@dataclass(frozen=True)
class TruncatedTriangle:
    """Region under y = slope * x on [0, base], capped at height 1."""

    base: float
    slope: float

    def __post_init__(self):
        if self.base <= 0 or self.slope <= 0:
            raise ValueError("base and slope must be positive")

    def height(self, x):
        return np.minimum(self.slope * np.asarray(x, dtype=float), 1.0)


def left_sum(tri: TruncatedTriangle, partition) -> float:
    """Sum of rectangles anchored at partition points, heights read at the
    left edge and capped at 1, with the final interval closing at the base."""
    xs = np.asarray(sorted(float(x) for x in partition), dtype=float)
    if xs.size == 0:
        return 0.0
    if xs[0] < 0 or xs[-1] > tri.base:
        raise ValueError("partition points must lie in [0, base]")
    rights = np.append(xs[1:], tri.base)
    return float(np.sum(tri.height(xs) * (rights - xs)))


def max_left_sum(tri: TruncatedTriangle, k: int):
    """Largest k-point left sum, with its optimal partition.

    While the k-th triangle point stays under the cap the optimum is the
    pure-triangle partition {i b/(k+1)} worth (slope b^2 / 2)(k/(k+1));
    past that the rightmost point sits at the cap x = 1/slope and the
    rest subdivide the sloped section, worth b - 1/(2h) - 1/(2hk).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    b, h = tri.base, tri.slope
    if h * b * k / (k + 1) <= 1.0:
        partition = [i * b / (k + 1) for i in range(1, k + 1)]
        return h * b * b / 2.0 * k / (k + 1), partition
    partition = [i / (h * k) for i in range(1, k)] + [1.0 / h]
    return b - 1.0 / (2.0 * h) - 1.0 / (2.0 * h * k), partition


def _bound_case(c: float, k: int) -> str:
    """Regime of the block-update bound: small c, the whole triangle, or truncated."""
    if c <= 0.5:
        return "small-c"
    if (k - 1) / k <= 1.0 / (2.0 * c):
        return "triangle"
    return "truncated"


def block_update_bound(c: float, k: int, blocks: int | None = None,
                       sampling_error: float = 0.0) -> float:
    """Worst-case regret guarantee of block reallocation.

    ``blocks=None`` gives the horizon limit.  A positive sampling error
    alpha inflates the bound by alpha/(2c) inside the horizon factor.
    """
    if not 0.0 < c < math.inf or k < 2 or (blocks is not None and blocks < 1):
        raise ValueError("need a finite c > 0, k >= 2, blocks >= 1")
    if not 0.0 <= sampling_error < math.inf:
        raise ValueError("sampling error must be finite and nonnegative")
    horizon = 1.0 + (0.0 if blocks is None else 1.0 / blocks) + sampling_error / (2.0 * c)
    if _bound_case(c, k) != "truncated":
        return c * ((k - 1) / k) * horizon
    return (1.0 - 1.0 / (4.0 * c) - 1.0 / (4.0 * c * (k - 1))) * horizon


def compare_methods(cs) -> list[dict]:
    """Curve-dynamics bound next to the block-update horizon limit at k = 2."""
    from .binary import curve_regret_bound
    rows = []
    for c in cs:
        rows.append({
            "c": float(c),
            "curve_bound": curve_regret_bound(c),
            "block_bound": block_update_bound(c, 2, None),
        })
    return rows


def bound_table(cs, ks, block_counts) -> list[dict]:
    """Rows {c, k, N, epsilon_case, epsilon} over a parameter grid."""
    rows = []
    for c in cs:
        for k in ks:
            for blocks in block_counts:
                rows.append({"c": float(c), "k": int(k), "N": int(blocks),
                             "epsilon_case": _bound_case(c, k),
                             "epsilon": block_update_bound(c, k, blocks)})
    return rows


def block_update(session: OracleSession, blocks: int, mode: str = "exact",
                 beta: float = 0.1, delta: float = 0.05):
    """Run the block reallocation rounds and return the induced profile.

    Every block starts on action 0.  Every round all players reassign the
    round's block to their current best response, lowest index on ties,
    from one shared payoff snapshot.
    """
    game = session.game
    if blocks < 1:
        raise ValueError("need at least one block")
    n, k = game.n, game.k
    allocation = np.zeros((n, blocks), dtype=np.int64)
    counts = np.zeros((n, k), dtype=np.int64)
    counts[:, 0] = blocks

    source = session.table_source(mode, session.sample_mixed_kaction, beta, delta)
    for t in range(blocks):
        best = np.argmax(source(counts / blocks), axis=1)  # lowest index wins ties
        old = allocation[:, t].copy()
        allocation[:, t] = best
        counts[np.arange(n), old] -= 1
        counts[np.arange(n), best] += 1

    profile = MixedProfile(counts / blocks)
    report = build_report(
        "block-update", {"blocks": blocks, "init": "zeros"} | mode_params(mode, beta, delta),
        session, profile, rounds=blocks,
        extra={"k": k, "N": blocks,
               "per_round_allocation_digest": array_digest(allocation)})
    return profile, report, allocation
