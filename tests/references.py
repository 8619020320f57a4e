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
