"""Seeded generators of small-influence games with known structure.

Every family is a pure function of (parameters, seed), carries a
declared influence budget c (gamma = c/n), and the first two expose a
closed multilinear form for expected payoffs so exact verification
scales to large player counts.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from .games import (
    Game,
    IndependentGame,
    TensorGame,
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
        self._binary_consts = None  # k = 2 batch operands, built by the first batch
        self._kaction_consts = None  # k > 2 batch operands, likewise
        self._scratch = threading.local()  # per-thread k > 2 batch buffers

    @property
    def weights(self) -> np.ndarray:
        """Read-only (i, l, j, b) view: player i, opponent l, own j, theirs b."""
        return self._w.transpose(2, 1, 3, 0)

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, k = self.n, self.k
        scale = self.mu / (n - 1)
        if k == 2:
            x = np.asarray(actions, dtype=np.float64)  # float 0/1 rows pass without a copy
            # g_j[s, i] = sum_l w[i, l, j, a_sl]; d[j, l, i] = w[i, l, j, 1] - w[i, l, j, 0]
            d, tiles = self._binary_constants(x.shape[0])
            # Both GEMMs keep these shapes, whole batch by (n, n): OpenBLAS picks its
            # kernel and summation order by shape, so a bias column or a split of
            # the rows would change low bits of the payoffs.
            own = np.matmul(x, d[0], out=out)
            tmp = x @ d[1]
            rows = tiles.shape[1]
            for lo in range(0, x.shape[0], rows):
                block = slice(lo, lo + rows)
                self._combine_binary(x[block], own[block], tmp[block], tiles, scale)
            return own
        # received[s, i, j] = sum_l w[i, l, j, a_sl] - w[i, l, j, 0] sums one (s, n k)
        # GEMM per action b > 0.  Only the entries (s, i, a_si) are read, at flat
        # indices s n k + i k + a_si; adding them in b order equals summing the whole
        # products first.  Every buffer is reused: with products allocated per call,
        # malloc returns their pages to the system and page-faults them in again.
        # The gathers run in clip mode, which writes straight into its output (raise
        # mode copies it first); actions are checked against [0, k) where they enter.
        m = actions.shape[0]
        d, tiles, base = self._kaction_constants(m)
        rows = tiles.shape[1]
        x, prod, idx = self._kaction_scratch(m, rows)
        own = np.empty((m, n)) if out is None else out
        blocks = [slice(lo, lo + rows) for lo in range(0, m, rows)]
        np.copyto(idx, actions, casting="unsafe")  # a cast copy (float rows too), then an add
        for block in blocks:  # flat indices, counted from the first row of the block
            flat = idx[block]
            flat += tiles[0, :flat.shape[0]]
        for b in range(1, k):
            np.equal(actions, b, out=x)
            np.matmul(x, d[b - 1], out=prod)  # whole batch, for the bits (see k = 2)
            for block in blocks:
                got = own[block]
                if b == 1:
                    np.take(prod[block], idx[block], out=got, mode="clip")
                else:
                    got += np.take(prod[block], idx[block], out=x[block], mode="clip")
        for block in blocks:
            cell, got, tmp = idx[block], own[block], x[block]
            cell -= tiles[1, :cell.shape[0]]  # i k + a_si: cell (i, a_si) of the (n, k) arrays
            got += np.take(self._batch_zero, cell, out=tmp, mode="clip")
            got *= scale
            got += np.take(base, cell, out=tmp, mode="clip")
        return own

    # Height of the k = 2 constant tiles, one sampling chunk; taller batches are
    # combined in blocks of this many rows, so the tiles stay this small.
    _TILE_ROWS = 4096

    def _binary_constants(self, m: int):
        """The k = 2 operands of an m-row batch: the contiguous GEMM operand d
        and (4, rows, n) tiles of g0, g1, b0 and b1 - b0, rows >= min(m, 4096).

        numpy runs an elementwise op that broadcasts an (n,) vector over a
        chunk one row at a time, so the per-player constants come as
        chunk-shaped tiles.  They are built by the first batch and rebuilt only
        for a taller one; both arrays are read-only and replaced in one
        assignment, so threads that race here build equal arrays and each
        computes with its own.
        """
        consts = self._binary_consts
        rows = min(max(m, 1), self._TILE_ROWS)
        if consts is not None and consts[1].shape[1] >= rows:
            return consts
        w = self._w
        d = np.ascontiguousarray((w[1] - w[0]).transpose(2, 0, 1))
        d.setflags(write=False)
        b0, b1 = self.base[:, 0], self.base[:, 1]
        tiles = np.empty((4, rows, self.n))
        for tile, value in zip(tiles, (*self._batch_zero.T, b0, b1 - b0)):
            tile[...] = value
        tiles.setflags(write=False)
        self._binary_consts = consts = (d, tiles)
        return consts

    def _kaction_constants(self, m: int):
        """The k > 2 operands of an m-row batch: the stacked GEMM operands
        d[b - 1] = (w[b] - w[0]) as (n, n k), (2, rows, n) index tiles of the
        flat product offsets s n k + i k and the row offsets s n k, rows >=
        min(m, 4096), and (1 - mu) base flattened.  Built, rebuilt and shared
        across threads like the k = 2 operands of ``_binary_constants``.
        """
        consts = self._kaction_consts
        rows = min(max(m, 1), self._TILE_ROWS)
        if consts is not None and consts[1].shape[1] >= rows:
            return consts
        n, k = self.n, self.k
        d = (self._w[1:] - self._w[0]).reshape(k - 1, n, n * k)
        tiles = np.empty((2, rows, n), dtype=np.intp)
        tiles[1] = np.arange(0, rows * n * k, n * k)[:, None]
        np.add(tiles[1], np.arange(0, n * k, k), out=tiles[0])
        base = ((1.0 - self.mu) * self.base).ravel()
        for arr in (d, tiles, base):
            arr.setflags(write=False)
        self._kaction_consts = consts = (d, tiles, base)
        return consts

    def _kaction_scratch(self, m: int, rows: int):
        """This thread's (mask, product, index) buffers for an m-row k > 2 batch.

        Each thread owns buffers of the tile height, so threads can share a
        game.  A batch taller than the tiles gets new buffers, because its GEMMs
        keep their whole-batch shape; it is gathered block by block.
        """
        n, k = self.n, self.k
        if m > rows:
            return np.empty((m, n)), np.empty((m, n * k)), np.empty((m, n), dtype=np.intp)
        scratch = getattr(self._scratch, "kaction", None)
        if scratch is None or scratch[2].shape[0] < rows:
            scratch = (np.empty((rows, n)), np.empty((rows, n * k)),
                       np.empty((rows, n), dtype=np.intp))
            self._scratch.kaction = scratch
        return tuple(buf[:m] for buf in scratch)

    def _combine_binary(self, x, own, tmp, tiles, scale):
        """Turn own = x d[0] and tmp = x d[1] into the payoffs, in place:
        scale (g0 + x (g1 - g0)) + (1 - mu) (b0 + x (b1 - b0))."""
        g0, g1, b0, db = tiles[:, :x.shape[0]]
        own += g0
        tmp += g1
        tmp -= own
        tmp *= x
        own += tmp
        own *= scale
        # x is 0 or 1, so x (b1 - b0) + b0 is exactly b0 or b0 + (b1 - b0)
        base = np.multiply(x, db, out=tmp)
        base += b0
        base *= 1.0 - self.mu
        own += base

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
