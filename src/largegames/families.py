"""Seeded generators of small-influence games with known structure.

Every family is a pure function of (parameters, seed), carries a
declared influence budget c (gamma = c/n), and the first two expose a
closed multilinear form for expected payoffs so exact verification
scales to large player counts.
"""

from __future__ import annotations

import json

import numpy as np

from .games import (
    Game,
    IndependentGame,
    TensorGame,
    as_pure_profile,
    _readonly,
)
from .oracles import StochasticGame


class LinearInfluenceGame(Game):
    """Own-action base payoff plus averaged pairwise influence terms.

    u_i(a) = (1 - mu) base_i(a_i) + mu / (n - 1) * sum_{j != i} w_ij(a_i, a_j)
    with mu = min(1, c (n - 1) / n), so any single opponent switch moves
    u_i by at most mu / (n - 1) <= c / n.  Expected payoffs are linear in
    each opponent's distribution, giving an exact mixed table in
    O(n^2 k^2).

    The game holds one read-only weight array in opponent-action-major
    order, ``_w[b, l, i, j] = w[i, l, j, b]`` (shape (k, n, n, k)): player
    i's weight for own action j against opponent l playing b.  ``weights``
    is the (i, l, j, b) view of it.  The exact table sums the per-opponent
    action terms ``_w[b] * p_l(b)`` over b (even b, then odd b, then the
    two partial sums) and then over opponents l in index order.  That is
    the order of ``np.einsum("iljb,lb->ij", weights, probs)``, so the table
    equals it bit for bit for k <= 7 (checked with numpy 2.4); for larger
    k einsum groups the terms differently and the two agree to rounding.
    """

    def __init__(self, base: np.ndarray, weights: np.ndarray, c: float):
        base = np.asarray(base, dtype=float)
        weights = np.asarray(weights, dtype=float)
        n, k = base.shape
        if weights.shape != (n, n, k, k):
            raise ValueError("weights must have shape (n, n, k, k)")
        for name, arr in (("base payoffs", base), ("weights", weights)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        w = np.array(weights.transpose(3, 1, 0, 2), order="C")
        w[:, np.arange(n), np.arange(n)] = 0.0  # no self influence
        w.setflags(write=False)
        self.base = _readonly(base)
        self._w = w
        self.n, self.k = n, k
        self.c = float(c)
        self.mu = min(1.0, c * (n - 1) / n)
        # action-0 row sums: the batch path adds per-action differences to them
        self._batch_zero = _readonly(w[0].sum(axis=0))

    @property
    def weights(self) -> np.ndarray:
        """Read-only (i, l, j, b) view: player i, opponent l, own j, theirs b."""
        return self._w.transpose(2, 1, 3, 0)

    def payoffs(self, actions) -> np.ndarray:
        a = as_pure_profile(actions, self.n, self.k)
        idx = np.arange(self.n)
        pair = self.weights[idx[:, None], idx[None, :], a[:, None], a[None, :]]
        influence = pair.sum(axis=1)  # diagonal is zero by construction
        return (1.0 - self.mu) * self.base[idx, a] + self.mu / (self.n - 1) * influence

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, k = self.n, self.k
        scale = self.mu / (n - 1)
        w = self._w
        if k == 2:
            x = np.asarray(actions, dtype=np.float64)  # float 0/1 rows pass without a copy
            # g_j[s, i] = sum_l w[i, l, j, a_sl]; d[j, l, i] = w[i, l, j, 1] - w[i, l, j, 0]
            d = np.ascontiguousarray((w[1] - w[0]).transpose(2, 0, 1))
            own = np.matmul(x, d[0], out=out)
            own += self._batch_zero[:, 0]  # g0
            tmp = x @ d[1]
            tmp += self._batch_zero[:, 1]  # g1
            tmp -= own
            tmp *= x
            own += tmp  # g0 + x (g1 - g0)
            own *= scale
            # (1 - mu) base_i(a_si) takes one of two values per player; with finite
            # base payoffs exactly one of x t1 and (1 - x) t0 is nonzero, so adding
            # both gives the bits of (1 - mu) (b0 + x (b1 - b0)).
            b0, b1 = self.base[:, 0], self.base[:, 1]
            t0 = b0 * (1.0 - self.mu)
            t1 = (b0 + (b1 - b0)) * (1.0 - self.mu)
            own += np.multiply(x, t1, out=tmp)
            own += np.multiply(np.subtract(1.0, x, out=tmp), t0, out=tmp)
            return own
        # received[s, i, j] = sum_l w[i, l, j, a_sl] - w[i, l, j, 0] sums one (s, n k)
        # GEMM per action b > 0.  Only the entries (s, i, a_si) are read, at flat
        # indices idx; adding them in b order equals summing the whole products first.
        # One product is alive at a time: with two, malloc returns their pages to the
        # system after every call and page-faults them in again on the next.
        s = actions.shape[0]
        idx = np.arange(0, s * n * k, k).reshape(s, n)
        idx += actions
        x = np.empty(actions.shape)
        for b in range(1, k):
            np.equal(actions, b, out=x)
            if b == 1:
                own = (x @ (w[1] - w[0]).reshape(n, n * k)).take(idx)
            else:
                own += (x @ (w[b] - w[0]).reshape(n, n * k)).take(idx, out=x)
        cell = actions + np.arange(0, n * k, k)  # (i, a_si) in the (n, k) arrays
        own += self._batch_zero.ravel()[cell]
        out = np.take(self.base, cell, out=out)
        out *= 1.0 - self.mu
        out += scale * own
        return out

    def mixed_payoff_table(self, probs: np.ndarray) -> np.ndarray:
        w = self._w
        terms = [w[b] * probs[:, b][:, None, None] for b in range(self.k)]
        # einsum's order: even actions, odd actions, the two sums, then opponents
        mixed = (sum(terms[2::2], terms[0]) + sum(terms[3::2], terms[1])).sum(axis=0)
        return (1.0 - self.mu) * self.base + self.mu / (self.n - 1) * mixed


def gen_linear_influence(n: int, k: int, c: float, seed: int) -> LinearInfluenceGame:
    """Seeded random base payoffs and pairwise influence weights, all uniform on [0, 1]."""
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 players and k >= 2 actions")
    if not 0.0 <= c <= n:
        raise ValueError("influence budget c must lie in [0, n]")
    rng = np.random.default_rng(seed)
    base = rng.random((n, k))
    weights = rng.random((n, n, k, k))
    return LinearInfluenceGame(base, weights, c)


class LowerBoundGame(IndependentGame):
    """Independent Bernoulli-mean game hiding a pure equilibrium bit vector.

    Player i's action b_i has mean (ell - 1) / ell and the other action
    mean 1 / ell, so playing 1 - b_i surely costs (ell - 2) / ell.
    Payoffs ignore opponents entirely, which makes the game 1/n-large
    for free.
    """

    def __init__(self, bits: np.ndarray, ell: float):
        if ell <= 2:
            raise ValueError("ell must exceed 2")
        bits = np.asarray(bits, dtype=np.int64)
        n = bits.shape[0]
        values = np.full((n, 2), 1.0 / ell)
        values[np.arange(n), bits] = (ell - 1.0) / ell
        super().__init__(values, c=1.0)
        self.bits = bits.copy()
        self.bits.setflags(write=False)
        self.ell = float(ell)

    @property
    def gap(self) -> float:
        return (self.ell - 2.0) / self.ell


def gen_lower_bound(n: int, ell: float, seed_for_b: int) -> StochasticGame:
    """Stochastic-utility game G_b with b drawn from the seed."""
    rng = np.random.default_rng(seed_for_b)
    bits = rng.integers(0, 2, size=n)
    return StochasticGame(LowerBoundGame(bits, ell))


class TinyTensorGame(TensorGame):
    """Random explicit tensor squeezed into a width-gamma band around 1/2."""

    def __init__(self, raw: np.ndarray, gamma: float):
        self.raw = _readonly(raw)
        self.gamma_band = float(gamma)
        n = raw.shape[0]
        tensor = 0.5 - gamma / 2.0 + gamma * raw
        super().__init__(tensor, c=gamma * n)


def gen_tiny_tensor(n: int, k: int, gamma: float, seed: int) -> TinyTensorGame:
    """Uniform random tensor rescaled so largeness holds by construction."""
    if k ** n > 4096:
        raise ValueError("tiny tensor games require k^n <= 4096")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    raw = rng.random((n,) + (k,) * n)
    return TinyTensorGame(raw, gamma)


# ---------------------------------------------------------------------------
# descriptors

FAMILIES = ("linear-influence", "lower-bound", "tiny-tensor")


def make_game(family: str, params: dict, seed: int) -> Game:
    if family == "linear-influence":
        return gen_linear_influence(int(params["n"]), int(params.get("k", 2)),
                                    float(params.get("c", 1.0)), seed)
    if family == "lower-bound":
        return gen_lower_bound(int(params["n"]), float(params.get("ell", 4.0)), seed)
    if family == "tiny-tensor":
        n = int(params["n"])
        k = int(params.get("k", 2))
        if "gamma" in params:
            gamma = float(params["gamma"])
        else:
            gamma = float(params.get("c", 1.0)) / n
        return gen_tiny_tensor(n, k, gamma, seed)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def descriptor(family: str, params: dict, seed: int) -> dict:
    return {"family": family, "params": dict(params), "seed": int(seed)}


def descriptor_to_json(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True)


def game_from_descriptor(desc: dict) -> Game:
    return make_game(desc["family"], desc["params"], desc["seed"])


def game_from_json(text: str) -> Game:
    obj = json.loads(text)
    if "payoffs" in obj:  # explicit tiny tensor
        return TensorGame.from_json(text)
    return game_from_descriptor(obj)
