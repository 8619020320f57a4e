"""Query oracles: counted pure-profile queries, sampled mixed-profile
estimates, and exact mixed expectations.

A session owns a seeded random stream and monotone counters, so a fixed
seed and call sequence reproduces every estimate bit for bit.  Pure
queries are the unit of query complexity; exact mixed queries are
counted separately because they are a testing convenience, not part of
the query budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .games import BATCH_ROWS, Game, as_pure_profile, binary_probs


def binary_sample_count(beta: float, delta: float, n: int) -> int:
    """Number of pure queries one binary mixed estimate spends."""
    _check_params(beta, delta)
    return math.ceil(64.0 / beta ** 3 * math.log(8.0 * n / delta))


def kaction_sample_count(beta: float, delta: float, n: int, k: int) -> int:
    """Number of pure queries one k-action mixed estimate spends."""
    _check_params(beta, delta)
    return math.ceil(64.0 * k * k / beta ** 3 * math.log(8.0 * n / delta))


def blend_binary(p_one: np.ndarray, beta: float) -> np.ndarray:
    """Mix each P[action 1] with the uniform coin: (1 - beta/2) p + beta/4."""
    return (1.0 - beta / 2.0) * np.asarray(p_one, dtype=float) + beta / 4.0


def blend_kaction(probs: np.ndarray, beta: float) -> np.ndarray:
    """Mix each row with the uniform distribution over the k actions."""
    k = probs.shape[1]
    return (1.0 - beta / 2.0) * probs + beta / (2.0 * k)


def _check_params(beta: float, delta: float):
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


class StochasticGame(Game):
    """A game whose stated payoffs are means of per-profile distributions.

    Queries return one independent Bernoulli(mean) draw per player, the
    extremal distribution on [0, 1]; the deterministic view (``payoffs``
    and the exact mixed table) exposes the means.
    """

    def __init__(self, base: Game):
        self.base = base
        self.n, self.k, self.c = base.n, base.k, base.c

    def payoffs_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.base.payoffs_batch(actions, out=out)

    def mixed_payoff_table(self, probs: np.ndarray) -> np.ndarray:
        return self.base.mixed_payoff_table(probs)

    def sample_payoffs_batch(self, actions: np.ndarray, rng: np.random.Generator,
                             out: np.ndarray | None = None) -> np.ndarray:
        means = self.base.payoffs_batch(actions, out=out)  # out, or a new array
        return np.less(rng.random(means.shape), means, out=means)


@dataclass(frozen=True)
class MixedEstimate:
    """Sampled estimates of expected payoffs at a blended mixed profile.

    ``values[i, j]`` averages player i's sampled payoffs over the queries
    where she played j; cells never observed are exactly 0.  The blended
    profile actually sampled is kept so the estimate can be compared with
    the exact expectations it is unbiased for.
    """

    values: np.ndarray         # (n, k)
    samples: int
    beta: float
    delta: float
    p_prime: np.ndarray        # (n, k) blended profile the queries were drawn from
    counts: np.ndarray         # (n, k) observations per cell


class OracleSession:
    """Query access to one game with counting, seeding and optional tracing.

    A session is single-owner: counters and the random stream mutate with
    each call.  Distinct sessions with distinct seeds are independent.
    Mixed estimates take the (n, k) probability array itself; its shape is
    checked, its values are trusted (``MixedProfile`` checks them where a
    profile enters).
    """

    def __init__(self, game: Game, seed: int = 0, trace_path=None):
        self.game = game
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.pure_queries = 0
        self.qm_calls = 0
        self._trace = open(trace_path, "w") if trace_path else None
        self._buffers = None  # one sampling chunk's arrays, see _chunk_buffers

    def _check_shape(self, probs: np.ndarray):
        shape = (self.game.n, self.game.k)
        if probs.shape != shape:
            raise ValueError(f"probabilities must have shape {shape}, got {probs.shape}")

    # -- pure queries -------------------------------------------------

    def query_pure(self, actions) -> np.ndarray:
        """One pure-profile query; stochastic games return a fresh draw."""
        a = as_pure_profile(actions, self.game.n, self.game.k)
        return self._pure_batch(a[None, :])[0]

    def _pure_batch(self, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Answers to a (S, n) batch of trusted in-range integer-valued action
        rows, into ``out`` if given."""
        payoffs = self.game.sample_payoffs_batch(actions, self.rng, out=out)
        self.pure_queries += actions.shape[0]
        if self._trace is not None:
            start = self.pure_queries - actions.shape[0]
            for off, (a, u) in enumerate(zip(actions.astype(np.int64), payoffs)):
                self._trace.write(json.dumps(
                    {"t": start + off, "profile": a.tolist(), "payoffs": u.tolist()}) + "\n")
        return payoffs

    # -- sampled mixed estimates ---------------------------------------

    # Rows per sampling chunk.  The per-player sums of each chunk are added
    # across chunks, so the chunk size fixes the rounding of every estimate:
    # another size gives other low bits.
    _CHUNK = BATCH_ROWS

    def sample_mixed_binary(self, probs: np.ndarray, beta: float, delta: float) -> MixedEstimate:
        """Estimate E[u_i(j, .)] by sampling pure profiles from the blend of ``probs``."""
        if self.game.k != 2:
            raise ValueError("binary sampling requires k = 2")
        self._check_shape(probs)
        n_queries = binary_sample_count(beta, delta, self.game.n)
        p_one = blend_binary(probs[:, 1], beta)
        p_prime = binary_probs(p_one)
        # action 1 where the uniform draw is below p'_1
        return self._sample_estimate(n_queries, p_prime, p_one[None], np.less, beta, delta)

    def sample_mixed_kaction(self, probs: np.ndarray, beta: float, delta: float) -> MixedEstimate:
        n, k = self.game.n, self.game.k
        if k < 2:
            raise ValueError("need at least two actions")
        self._check_shape(probs)
        n_queries = kaction_sample_count(beta, delta, n, k)
        p_prime = blend_kaction(probs, beta)
        # action = how many of the first k - 1 cdf entries the uniform draw exceeds
        cdf = np.cumsum(p_prime, axis=1).T[:-1]
        return self._sample_estimate(n_queries, p_prime, cdf, np.greater, beta, delta)

    def _chunk_buffers(self):
        """One sampling chunk's arrays, built by the first estimate: uniforms,
        (k - 1, chunk, n) threshold tiles and payoffs, and for k > 2 the int8
        actions, the comparison mask, and the cell offsets i k and flat cell
        index of the reduction (None for k = 2)."""
        if self._buffers is not None:
            return self._buffers
        n, k = self.game.n, self.game.k
        shape = (self._CHUNK, n)
        buffers = (np.empty(shape), np.empty((k - 1,) + shape), np.empty(shape))
        if k == 2:
            buffers += (None,) * 4
        else:
            offsets = np.empty(shape, dtype=np.intp)
            offsets[...] = np.arange(0, n * k, k)
            buffers += (np.empty(shape, dtype=np.int8), np.empty(shape, dtype=np.bool_),
                        offsets, np.empty(shape, dtype=np.intp))
        self._buffers = buffers
        return buffers

    def _sample_estimate(self, n_queries, p_prime, thresholds, compare, beta,
                         delta) -> MixedEstimate:
        """Draw, answer and reduce ``n_queries`` pure queries chunk by chunk.

        Player i's uniform draw u plays the number of rows t of the (k - 1, n)
        ``thresholds`` for which ``compare(u, t[i])`` holds.
        """
        n, k = self.game.n, self.game.k
        u, tiles, payoff_rows, int_rows, mask, offsets, index = self._chunk_buffers()
        tiles[...] = thresholds[:, None, :]  # chunk-shaped, so no comparison broadcasts
        counts = np.zeros((n, k))
        sums = np.zeros((n, k))
        if k == 2:
            row_ones = np.ones(min(self._CHUNK, n_queries))
        done = 0
        while done < n_queries:
            m = min(self._CHUNK, n_queries - done)
            x = self.rng.random(out=u[:m])
            if k == 2:  # compared in place, leaving 0.0/1.0 actions in x
                actions = compare(x, tiles[0, :m], out=x)
            else:
                actions = compare(x, tiles[0, :m], out=int_rows[:m])
                for j in range(1, k - 1):
                    actions += compare(x, tiles[j, :m], out=mask[:m])
            payoffs = self._pure_batch(actions, payoff_rows[:m])
            if k == 2:
                # einsum adds the payoff rows in the order of sum(axis=0) without
                # its per-row inner loops.  The counts are sums of 0.0/1.0, exact in
                # any order, so a GEMV gives them.  Both read the draws' float rows:
                # einsum would sum int8 rows in int8.
                ones = row_ones[:m] @ actions
                counts[:, 1] += ones
                counts[:, 0] += m - ones
                paid_ones = np.einsum("sn,sn->n", payoffs, actions)
                sums[:, 1] += paid_ones
                sums[:, 0] += np.einsum("sn->n", payoffs) - paid_ones
            else:
                # flat index of cell (i, a_si); bincount adds each cell's payoffs in row order
                cell = index[:m]
                np.copyto(cell, actions)  # a cast copy, then an add without a cast buffer
                cell += offsets[:m]
                counts += np.bincount(cell.ravel(), minlength=n * k).reshape(n, k)
                sums += np.bincount(cell.ravel(), weights=payoffs.ravel(),
                                    minlength=n * k).reshape(n, k)
            done += m
        values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
        return MixedEstimate(values=values, samples=n_queries, beta=beta,
                             delta=delta, p_prime=p_prime, counts=counts)

    # -- exact mixed queries -------------------------------------------

    def exact_mixed(self, probs: np.ndarray) -> np.ndarray:
        """Exact expected payoff table u_i(j, p_-i); counted apart from pure queries."""
        self._check_shape(probs)
        self.qm_calls += 1
        return self.game.mixed_payoff_table(probs)

    def table_source(self, mode: str, sampler, beta: float, delta: float):
        """The function a run reads its payoff tables from: ``exact_mixed``, or
        the ``values`` of ``sampler(probs, beta, delta)``, a sampler of this session."""
        if mode == "exact":
            return self.exact_mixed
        if mode != "sampling":
            raise ValueError("oracle mode must be 'exact' or 'sampling'")
        return lambda probs: sampler(probs, beta, delta).values

    def close(self):
        if self._trace is not None:
            self._trace.close()
            self._trace = None
