"""Reference implementations that only the tests use."""

import numpy as np

from largegames.blocks import TruncatedTriangle


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
