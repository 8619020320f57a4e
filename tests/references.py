"""Reference implementations that only the tests use."""

import math

import numpy as np

from largegames.blocks import TruncatedTriangle
from largegames.games import BATCH_ROWS


def enumerated_table(game, probs):
    """Exact table, entry (i, j) = E[u_i(j, a_-i)], by enumeration: per player,
    every own action with every joint opponent support action, through
    ``game.payoffs_batch`` alone."""
    n, k = game.n, game.k
    # exact zero test: dropping sub-threshold mass would bias the expectation
    supports = [np.flatnonzero(probs[l] > 0.0) for l in range(n)]
    table = np.zeros((n, k))
    for i in range(n):
        joint = math.prod(len(s) for l, s in enumerate(supports) if l != i)
        axes = supports[:i] + [np.arange(k)] + supports[i + 1:]
        sizes = [len(axis) for axis in axes]
        for lo in range(0, joint * k, BATCH_ROWS):
            digits = np.unravel_index(np.arange(lo, min(lo + BATCH_ROWS, joint * k)), sizes)
            actions = np.column_stack([axis[d] for axis, d in zip(axes, digits)])
            p = probs[np.arange(n), actions]
            p[:, i] = 1.0
            paid = game.payoffs_batch(actions)[:, i] * p.prod(axis=1)
            table[i] += np.bincount(actions[:, i], weights=paid, minlength=k)
    return table


def brute_force_max_left_sum(tri: TruncatedTriangle, k: int, pitch: float = 1e-3) -> float:
    """Grid maximization of the k-point left sum by dynamic programming.

    best[i] after m sweeps is the optimum over partitions of [xs[i], base]
    that place a point at xs[i] and use at most m + 1 points in total.
    """
    xs = np.arange(0.0, tri.base + pitch / 2, pitch)
    heights = tri.height(xs)
    g = len(xs)
    closing = heights * (tri.base - xs)  # xs[i] is the rightmost point
    best = closing.copy()
    for _ in range(k - 1):
        nxt = closing.copy()
        for i in range(g - 1):
            extended = np.max(heights[i] * (xs[i + 1:] - xs[i]) + best[i + 1:])
            if extended > nxt[i]:
                nxt[i] = extended
        best = nxt
    return float(max(0.0, best.max()))


def block_regret_cap(c: float, blocks: int, t: int) -> float:
    """Ceiling on the final optimality gap of the action block t picked."""
    return min(1.0, 2.0 * c * (blocks - t + 1) / blocks)


def worst_case_total_regret(regret_values, caps) -> tuple[float, np.ndarray]:
    """Greedy allotment: each block takes the largest regret value its cap
    allows.  Returns the per-player total (mass 1/N per block) and choices."""
    regs = np.asarray(sorted(float(r) for r in regret_values))
    caps = np.asarray(caps, dtype=float)
    n_blocks = caps.shape[0]
    picks = np.empty(n_blocks)
    for t, cap in enumerate(caps):
        allowed = regs[regs <= cap]
        picks[t] = allowed[-1] if allowed.size else 0.0
    return float(picks.sum() / n_blocks), picks


def linear_payoffs(game, actions):
    """k = 2 linear-influence payoffs of int8 rows as the former batch code computed them."""
    n, w = game.n, game._w
    x = actions.astype(np.float64)
    d = np.ascontiguousarray((w[1] - w[0]).transpose(2, 0, 1))
    g0 = x @ d[0]
    g0 += game._batch_zero[:, 0]
    g1 = x @ d[1]
    g1 += game._batch_zero[:, 1]
    own = g0
    own += x * (g1 - g0)
    out = game.base[:, 0] + x * (game.base[:, 1] - game.base[:, 0])
    out *= 1.0 - game.mu
    out += game.mu / (n - 1) * own
    return out


def table_payoffs(game, actions):
    """Linear-influence payoffs of each row in the payoff table's fixed order: per
    player i, w[i, l, a_i, a_l] added over the opponents l != i in index order,
    times mu / (n - 1), plus (1 - mu) base_i(a_i)."""
    a = np.asarray(actions, dtype=np.intp)
    n, w = game.n, game.weights
    out = np.empty(a.shape)
    for i in range(n):
        acc = np.zeros(a.shape[0])
        for l in (l for l in range(n) if l != i):
            acc += w[i, l, a[:, i], a[:, l]]
        acc *= game.mu / (n - 1)
        acc += (1.0 - game.mu) * game.base[i, a[:, i]]
        out[:, i] = acc
    return out


def pairwise_payoffs(game, actions):
    """Linear-influence payoffs of one pure profile, summed pair by pair as the
    former per-profile ``LinearInfluenceGame.payoffs`` did."""
    a = np.asarray(actions, dtype=np.int64)
    idx = np.arange(game.n)
    pair = game.weights[idx[:, None], idx[None, :], a[:, None], a[None, :]]
    influence = pair.sum(axis=1)  # diagonal is zero by construction
    return (1.0 - game.mu) * game.base[idx, a] + game.mu / (game.n - 1) * influence


def reference_reduce(actions, payoffs, counts, sums):
    """Add one chunk of int8 k = 2 rows to the per-cell counts and sums, as the former
    reduction did."""
    ones = actions.sum(axis=0, dtype=np.int64)
    counts[:, 1] += ones
    counts[:, 0] += actions.shape[0] - ones
    paid_ones = (payoffs * actions).sum(axis=0)
    sums[:, 1] += paid_ones
    sums[:, 0] += payoffs.sum(axis=0) - paid_ones
