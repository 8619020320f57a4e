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
    TABLE_PROFILES,
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

    A game with k^n <= ``TABLE_PROFILES`` pure profiles answers every batch,
    one-row batches too, by looking each row's profile code up in a read-only
    (k^n, n) table that the first batch builds in a fixed order without BLAS
    (``_profile_table``), so a profile gets one answer in any batch at any BLAS
    thread count.  Larger games use the GEMM kernel, one chunk at a time.
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
        self._batch_zero = _readonly(w[0].sum(axis=0))  # action-0 row sums, for the kernel
        self._table = None  # every profile's payoffs and code radix, when k^n <= TABLE_PROFILES
        self._scratch = threading.local()  # per-thread profile code buffers

    @property
    def weights(self) -> np.ndarray:
        """Read-only (i, l, j, b) view: player i, opponent l, own j, theirs b."""
        return self._w.transpose(2, 1, 3, 0)

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty((actions.shape[0], self.n)) if out is None else out
        if self.k ** self.n <= TABLE_PROFILES:
            table, radix = self._profile_table()
            return np.take(table, self._profile_codes(actions, radix), axis=0, out=out,
                           mode="clip")
        for lo in range(0, actions.shape[0], BATCH_ROWS):  # one sampling chunk at a time
            self._chunk_payoffs(actions[lo:lo + BATCH_ROWS], out[lo:lo + BATCH_ROWS])
        return out

    def _chunk_payoffs(self, actions: np.ndarray, out: np.ndarray) -> None:
        """Write the payoffs of at most ``BATCH_ROWS`` rows of an untabulated game into ``out``.

        Each GEMM takes the whole chunk.  OpenBLAS picks its kernel, summation order
        and thread split by shape, so a row's low bits depend on the GEMM it is in;
        the pinned estimates were recorded one GEMM per sampling chunk, and a bias
        column or a finer split of the rows may change them."""
        n, k, w, scale = self.n, self.k, self._w, self.mu / (self.n - 1)
        if k == 2:
            x = np.asarray(actions, dtype=np.float64)  # float 0/1 rows pass without a copy
            # g_j[s, i] = sum_l w[i, l, j, a_sl]; d[j, l, i] = w[i, l, j, 1] - w[i, l, j, 0]
            d = np.ascontiguousarray((w[1] - w[0]).transpose(2, 0, 1))
            (g0, g1), (b0, b1) = self._batch_zero.T, self.base.T
            # in place: mu / (n - 1) (g0 + x (g1 - g0)) + (1 - mu) (b0 + x (b1 - b0))
            np.matmul(x, d[0], out=out)
            out += g0
            part = x @ d[1]
            part += g1
            part -= out
            part *= x
            out += part
            out *= scale
            # x is 0 or 1, so x (b1 - b0) + b0 is exactly b0 or b0 + (b1 - b0)
            np.multiply(x, b1 - b0, out=part)
            part += b0
            part *= 1.0 - self.mu
            out += part
            return
        # received[s, i, j] = sum_l w[i, l, j, a_sl] - w[i, l, j, 0] sums one (m, n k)
        # GEMM of the masks (a_sl = b) with w[b] - w[0] per action b > 0.  Row s reads
        # only its cells (i, a_si), flat index s n k + i k + a_si, gathered in b order.
        d = (w[1:] - w[0]).reshape(k - 1, n, n * k)
        cell = actions.astype(np.intp) + np.arange(0, n * k, k)  # i k + a_si, float rows too
        flat = cell + np.arange(0, cell.size * k, n * k)[:, None]
        x = np.empty(actions.shape)
        own = np.take(np.matmul(np.equal(actions, 1, out=x), d[0]), flat)
        for b in range(2, k):
            own += np.take(np.matmul(np.equal(actions, b, out=x), d[b - 1]), flat)
        own += np.take(self._batch_zero, cell)
        np.multiply(own, scale, out=out)
        out += np.take(self._scaled_base, cell)

    def _profile_table(self):
        """The (k^n, n) payoffs of every pure profile (row c: C-order code c, base-k
        digits, player 0 first) and the float radix vector of those codes.  Column
        i adds w[i, l, a_i, a_l] over l != i in index order in one (k,) * n
        accumulator, times mu / (n - 1), plus (1 - mu) base_i(a_i): a fixed order,
        without BLAS.  The build counts no query; both arrays are read-only and
        published in one assignment (see the ``games`` module)."""
        cached = self._table
        if cached is None:
            n, k, scale = self.n, self.k, self.mu / (self.n - 1)
            table, acc = np.empty((k ** n, n)), np.empty((k,) * n)
            grid = np.ogrid[(slice(k),) * n]  # grid[l]: the actions along axis l
            for i in range(n):
                acc.fill(0.0)
                for l in (l for l in range(n) if l != i):
                    acc += self.weights[i, l, grid[i], grid[l]]  # a (k, k) block
                acc *= scale
                acc += self._scaled_base[i, grid[i]]
                table[:, i] = acc.reshape(-1)
            cached = (table, float(k) ** np.arange(n - 1, -1, -1))
            for arr in cached:
                arr.setflags(write=False)
            self._table = cached
        return cached

    def _profile_codes(self, actions: np.ndarray, radix: np.ndarray) -> np.ndarray:
        """Each row's C-order code, ``actions @ radix``, in this thread's buffers.
        The codes are exact integers in float; integer rows are copied to float
        first, since matmul would cast them into a new batch-sized array."""
        m, n = actions.shape
        scratch = getattr(self._scratch, "codes", None)
        if scratch is None or scratch[2].shape[0] < m:
            scratch = (np.empty((m, n)), np.empty(m), np.empty(m, dtype=np.intp))
            self._scratch.codes = scratch
        rows, exact, codes = (buf[:m] for buf in scratch)
        if actions.dtype != np.float64:
            np.copyto(rows, actions, casting="unsafe")
            actions = rows
        np.matmul(actions, radix, out=exact)
        np.copyto(codes, exact, casting="unsafe")
        return codes

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
    if n < 1:
        raise ValueError("need n >= 1 players")
    rng = np.random.default_rng(seed_for_b)
    bits = rng.integers(0, 2, size=n)
    return StochasticGame(LowerBoundGame(bits, ell))


def gen_tiny_tensor(n: int, k: int, gamma: float | None, seed: int, c: float = 1.0) -> TensorGame:
    """Uniform random tensor squeezed into a width-gamma band around 1/2,
    so largeness holds by construction with c = gamma n; an unset gamma is c / n."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 players and k >= 1 actions")
    gamma = c / n if gamma is None else gamma
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
    "tiny-tensor": (lambda n, k, c, gamma, seed: gen_tiny_tensor(n, k, gamma, seed, c),
                    {"k": (int, 2), "c": (float, 1.0), "gamma": (float, None)}),
}


def check_object(obj, keys, what: str, numbers=(), allowed=None):
    """Raise ValueError unless ``obj`` is a JSON object holding every key of
    ``keys``, no key outside ``allowed`` (when given), and a number (not a
    boolean) under every key of ``numbers`` that it holds, a whole one (6.0
    passes) under "n", "k" and "blocks"."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    for key in (key for key in obj if allowed is not None and key not in allowed):
        raise ValueError(f"{what} has unknown key {key!r}")
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
    keys = ("family", "params", "seed")
    check_object(desc, keys, "game descriptor", allowed=keys)
    if not isinstance(desc["seed"], int) or isinstance(desc["seed"], bool):
        raise ValueError("game descriptor 'seed' must be an integer")
    return make_game(desc["family"], desc["params"], desc["seed"])


def game_from_json(text: str) -> Game:
    obj = json.loads(text)
    if isinstance(obj, dict) and "payoffs" in obj:  # explicit tiny tensor
        check_object(obj, ("n", "k", "c"), "tensor game", numbers=("n", "k", "c"),
                     allowed=("n", "k", "c", "payoffs"))
        if not isinstance(obj["payoffs"], list):
            raise ValueError("tensor game 'payoffs' must be a JSON list")
        return TensorGame.from_json(text)
    return game_from_descriptor(obj)
