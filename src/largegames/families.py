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
    BATCH_ROWS,
    Game,
    IndependentGame,
    TensorGame,
    _check_budget,
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
    is the (i, l, j, b) view of it.  The exact table is one product of the
    (k, n, n k) reshape of _w with p_l(b), summed in place over b (even b,
    odd b, then the two partial sums), then over opponents l in index order,
    scaled by mu / (n - 1) and added to the (1 - mu) base cached at
    construction.  That is the order of ``np.einsum("iljb,lb->ij", weights,
    probs)``, bit for bit for k <= 7 (checked with numpy 2.4, n <= 100); for
    larger k einsum groups the terms differently and they agree to rounding.
    """

    def __init__(self, base: np.ndarray, weights: np.ndarray, c: float):
        base = np.asarray(base, dtype=float)
        weights = np.asarray(weights, dtype=float)
        n, k = base.shape
        if n < 2:
            raise ValueError("a linear-influence game needs n >= 2 players")
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
        self.c = _check_budget(c)
        self.mu = min(1.0, self.c * (n - 1) / n)
        self._scaled_base = _readonly((1.0 - self.mu) * base)  # the own-action term
        # action-0 row sums: the batch path adds per-action differences to them
        self._batch_zero = _readonly(w[0].sum(axis=0))
        self._operand_cache = None  # batch operands, built by the first batch
        self._scratch = threading.local()  # per-thread k > 2 batch buffers

    @property
    def weights(self) -> np.ndarray:
        """Read-only (i, l, j, b) view: player i, opponent l, own j, theirs b."""
        return self._w.transpose(2, 1, 3, 0)

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty((actions.shape[0], self.n)) if out is None else out
        for lo in range(0, actions.shape[0], BATCH_ROWS):  # one sampling chunk at a time
            self._chunk_payoffs(actions[lo:lo + BATCH_ROWS], out[lo:lo + BATCH_ROWS])
        return out

    def _chunk_payoffs(self, actions: np.ndarray, out: np.ndarray) -> None:
        """Write the payoffs of at most ``BATCH_ROWS`` rows into ``out``.

        Each GEMM takes the whole chunk.  OpenBLAS picks its kernel, summation order
        and thread split by shape, so a row's low bits depend on the GEMM it is in;
        the pinned estimates were recorded one GEMM per sampling chunk, and a bias
        column or a finer split of the rows may change them."""
        n, k, m = self.n, self.k, actions.shape[0]
        if k == 2:
            x = np.asarray(actions, dtype=np.float64)  # float 0/1 rows pass without a copy
            # g_j[s, i] = sum_l w[i, l, j, a_sl]; d[j, l, i] = w[i, l, j, 1] - w[i, l, j, 0]
            d, tiles = self._operands(m)
            g0, g1, b0, db = tiles[:, :m]
            np.matmul(x, d[0], out=out)
            tmp = x @ d[1]
            # in place: mu / (n - 1) (g0 + x (g1 - g0)) + (1 - mu) (b0 + x (b1 - b0))
            out += g0
            tmp += g1
            tmp -= out
            tmp *= x
            out += tmp
            out *= self.mu / (n - 1)
            # x is 0 or 1, so x (b1 - b0) + b0 is exactly b0 or b0 + (b1 - b0)
            base = np.multiply(x, db, out=tmp)
            base += b0
            base *= 1.0 - self.mu
            out += base
            return
        # received[s, i, j] = sum_l w[i, l, j, a_sl] - w[i, l, j, 0] sums one (m, n k)
        # GEMM per action b > 0.  Only the entries (s, i, a_si) are read, at flat
        # indices s n k + i k + a_si; adding them in b order equals summing the whole
        # products first.  Every buffer is reused: with products allocated per call,
        # malloc returns their pages to the system and page-faults them in again.
        # The gathers run in clip mode, which writes straight into its output (raise
        # mode copies it first); actions are checked against [0, k) where they enter.
        d, tiles, base = self._operands(m)
        x, prod, idx = self._kaction_scratch(m)
        np.copyto(idx, actions, casting="unsafe")  # a cast copy (float rows too), then an add
        idx += tiles[0, :m]
        for b in range(1, k):
            np.equal(actions, b, out=x)
            np.matmul(x, d[b - 1], out=prod)
            if b == 1:
                np.take(prod, idx, out=out, mode="clip")
            else:
                out += np.take(prod, idx, out=x, mode="clip")
        idx -= tiles[1, :m]  # i k + a_si: cell (i, a_si) of the (n, k) arrays
        out += np.take(self._batch_zero, idx, out=x, mode="clip")
        out *= self.mu / (n - 1)
        out += np.take(base, idx, out=x, mode="clip")

    def _operands(self, m: int):
        """The operands of an m-row chunk, with (., rows, n) tiles, rows >= m.

        k = 2: the contiguous GEMM operand d and tiles of g0, g1, b0 and
        b1 - b0.  numpy runs an elementwise op that broadcasts an (n,) vector
        over a chunk one row at a time, so the per-player constants come as
        chunk-shaped tiles.  k > 2: the stacked GEMM operands d[b - 1] =
        (w[b] - w[0]) as (n, n k), int tiles of the flat product offsets
        s n k + i k and the row offsets s n k, and the scaled base flattened.

        The first chunk builds them and only a taller one rebuilds them; they
        are read-only and published in one assignment, so threads that race
        here build equal arrays and each computes with its own.
        """
        ops = self._operand_cache
        if ops is not None and ops[1].shape[1] >= m:
            return ops
        n, k, w = self.n, self.k, self._w
        if k == 2:
            tiles = np.empty((4, m, n))
            b0, b1 = self.base[:, 0], self.base[:, 1]
            for tile, value in zip(tiles, (*self._batch_zero.T, b0, b1 - b0)):
                tile[...] = value
            ops = (np.ascontiguousarray((w[1] - w[0]).transpose(2, 0, 1)), tiles)
        else:
            tiles = np.empty((2, m, n), dtype=np.intp)
            tiles[1] = np.arange(0, m * n * k, n * k)[:, None]
            np.add(tiles[1], np.arange(0, n * k, k), out=tiles[0])
            ops = ((w[1:] - w[0]).reshape(k - 1, n, n * k), tiles, self._scaled_base.ravel())
        for arr in ops:
            arr.setflags(write=False)
        self._operand_cache = ops
        return ops

    def _kaction_scratch(self, m: int):
        """This thread's (mask, product, index) buffers for an m-row k > 2 chunk.

        Each thread owns its buffers, so threads can share a game; they grow
        to the tallest chunk the thread has seen.
        """
        scratch = getattr(self._scratch, "kaction", None)
        if scratch is None or scratch[2].shape[0] < m:
            n, k = self.n, self.k
            scratch = (np.empty((m, n)), np.empty((m, n * k)), np.empty((m, n), dtype=np.intp))
            self._scratch.kaction = scratch
        return tuple(buf[:m] for buf in scratch)

    def mixed_payoff_table(self, probs: np.ndarray) -> np.ndarray:
        n, k = self.n, self.k
        terms = np.multiply(self._w.reshape(k, n, n * k), probs.T[:, :, None])
        for b in range(2, k):  # einsum's order: even b, odd b, the two sums, opponents
            terms[b % 2] += terms[b]
        terms[0] += terms[1]
        mixed = np.add.reduce(terms[0], axis=0).reshape(n, k)
        mixed *= self.mu / (n - 1)
        return np.add(mixed, self._scaled_base, out=mixed)


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


def gen_tiny_tensor(n: int, k: int, gamma: float, seed: int) -> TensorGame:
    """Uniform random tensor squeezed into a width-gamma band around 1/2,
    so largeness holds by construction with c = gamma n."""
    if k ** n > 4096:
        raise ValueError("tiny tensor games require k^n <= 4096")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    raw = rng.random((n,) + (k,) * n)
    return TensorGame(0.5 - gamma / 2.0 + gamma * raw, c=gamma * n)


# ---------------------------------------------------------------------------
# the family table and descriptors

# family name: (builder, {each param read besides n: (type, default)}).  The
# builder takes n, those params in order and the seed; a default of None leaves
# the param to the builder (an unset gamma is c / n).  A family that does not
# read k is binary.
FAMILIES = {
    "linear-influence": (gen_linear_influence, {"k": (int, 2), "c": (float, 1.0)}),
    "lower-bound": (gen_lower_bound, {"ell": (float, 4.0)}),
    "tiny-tensor": (lambda n, k, c, gamma, seed: gen_tiny_tensor(
                        n, k, c / n if gamma is None else gamma, seed),
                    {"k": (int, 2), "c": (float, 1.0), "gamma": (float, None)}),
}


def check_object(obj, keys, what: str, numbers=()):
    """Raise ValueError unless ``obj`` is a JSON object holding every key of
    ``keys``, and a number (not a boolean) under every key of ``numbers``
    that it holds, a whole one (6.0 passes) under "n", "k" and "blocks"."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    for key in (key for key in numbers if key in obj):
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
            raise ValueError(f"{what} {key!r} must be a number")
        if key in ("n", "k", "blocks") and obj[key] % 1:  # inf and nan leave nan
            raise ValueError(f"{what} {key!r} must be a whole number")


def check_family(family: str, params) -> dict:
    """Raise ValueError unless ``family`` is in the table and ``params`` a JSON
    object with a number under "n" and under each other key, a param the family
    reads.  Return n and every param it reads, cast, with defaults filled in."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(FAMILIES)}")
    _, reads = FAMILIES[family]
    check_object(params, ("n",), "family params", numbers=("n", *reads))
    for key in (key for key in params if key != "n" and key not in reads):
        raise ValueError(f"family {family!r} does not read {key!r}")
    return {"n": int(params["n"])} | {key: cast(params[key]) if key in params else default
                                      for key, (cast, default) in reads.items()}


def make_game(family: str, params: dict, seed: int) -> Game:
    values = check_family(family, params).values()
    build, _ = FAMILIES[family]
    return build(*values, seed)


def descriptor(family: str, params: dict, seed: int) -> dict:
    return {"family": family, "params": dict(params), "seed": int(seed)}


def descriptor_to_json(desc: dict) -> str:
    return json.dumps(desc, sort_keys=True)


def game_from_descriptor(desc: dict) -> Game:
    check_object(desc, ("family", "params", "seed"), "game descriptor")
    if not isinstance(desc["seed"], int) or isinstance(desc["seed"], bool):
        raise ValueError("game descriptor 'seed' must be an integer")
    return make_game(desc["family"], desc["params"], desc["seed"])


def game_from_json(text: str) -> Game:
    obj = json.loads(text)
    if isinstance(obj, dict) and "payoffs" in obj:  # explicit tiny tensor
        check_object(obj, ("n", "k", "c"), "tensor game", numbers=("n", "k", "c"))
        if not isinstance(obj["payoffs"], list):
            raise ValueError("tensor game 'payoffs' must be a JSON list")
        return TensorGame.from_json(text)
    return game_from_descriptor(obj)
