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
from types import SimpleNamespace

import numpy as np

from .games import BATCH_ROWS, TABLE_PROFILES, Game, as_pure_profile, binary_probs


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
    profile enters).  With ``trace_path``, each sampled estimate (not
    ``query_pure``) writes one JSON line: its first query, samples, beta,
    delta, p', counts, sums and max |estimate - exact| over observed cells.
    """

    def __init__(self, game: Game, seed: int = 0, trace_path=None):
        self.game = game
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.pure_queries = 0
        self.qm_calls = 0
        self._trace = open(trace_path, "w") if trace_path else None
        self._chunk = None  # every producer's chunk arrays, see _chunk_buffers
        self._draw = None  # the per-row producers' arrays, see _draw_buffers
        self._histogram = None  # the histogram producer's arrays, see _histogram_buffers

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
        """Estimate E[u_i(j, .)] from ceil(64 k^2 / beta^3 ln(8n / delta)) pure queries
        drawn from the blend p' = (1 - beta/2) probs + beta/(2k).  Drawn per row (see
        ``_sample_estimate``), player i plays the number of the first k - 1 entries of
        p'_i's cdf below its uniform draw u, and a k = 2 game goes through the binary
        producer with these thresholds."""
        n, k = self.game.n, self.game.k
        if k < 2:
            raise ValueError("need at least two actions")
        self._check_shape(probs)
        n_queries = kaction_sample_count(beta, delta, n, k)
        p_prime = blend_kaction(probs, beta)
        cdf = np.cumsum(p_prime, axis=1).T[:-1]
        return self._sample_estimate(n_queries, p_prime, cdf, np.greater, beta, delta)

    def _chunk_buffers(self):
        """The arrays every producer fills, one chunk high, built by the first estimate:
        ``rows``, the action rows in the dtype the reduction reads, and ``payoffs``,
        their answers.  The rows are 0.0/1.0 floats at k = 2; above, they are int8 up
        to k = 128 (the smallest signed type that holds k - 1), next to the cell
        offsets i k (``offsets``) and the flat (n, k) cell index (``cells``) of the
        reduction."""
        if self._chunk is None:
            n, k = self.game.n, self.game.k
            shape = (self._CHUNK, n)
            if k == 2:
                self._chunk = SimpleNamespace(rows=np.empty(shape), payoffs=np.empty(shape))
            else:
                offsets = np.empty(shape, np.intp)
                offsets[...] = np.arange(0, n * k, k)
                self._chunk = SimpleNamespace(
                    rows=np.empty(shape, np.min_scalar_type(-k)), payoffs=np.empty(shape),
                    offsets=offsets, cells=np.empty(shape, np.intp))
        return self._chunk

    def _draw_buffers(self):
        """The per-row producers' own arrays, one chunk high: the ``uniforms`` and the
        (k - 1, chunk, n) threshold ``tiles``, and above k = 2 a comparison ``mask``.
        At k = 2 the uniforms are the chunk's action rows, which the draw compares in
        place into 0.0/1.0 floats."""
        if self._draw is None:
            k, shape = self.game.k, (self._CHUNK, self.game.n)
            tiles = np.empty((k - 1,) + shape)
            if k == 2:
                self._draw = SimpleNamespace(uniforms=self._chunk_buffers().rows, tiles=tiles)
            else:
                self._draw = SimpleNamespace(uniforms=np.empty(shape), tiles=tiles,
                                             mask=np.empty(shape, np.bool_))
        return self._draw

    def _histogram_buffers(self):
        """The histogram producer's own arrays: ``profiles``, the (k^n, n) matrix of
        every pure profile in C-order code order (base-k digits, player 0 first) and
        in the dtype of the action rows, and ``probs``, the k^n profile probabilities."""
        if self._histogram is None:
            n, k = self.game.n, self.game.k
            dtype = self._chunk_buffers().rows.dtype
            self._histogram = SimpleNamespace(
                profiles=np.indices((k,) * n, dtype=dtype).reshape(n, -1).T.copy(),
                probs=np.empty(k ** n))
        return self._histogram

    def _binary_sums(self, n_queries, thresholds, compare):
        """(n, 2) counts and payoff sums of ``n_queries`` pure queries of a k = 2 game,
        each row drawn from the session's uniforms."""
        bufs = self._draw_buffers()
        u, tiles = bufs.uniforms, bufs.tiles
        tiles[...] = thresholds[:, None, :]  # chunk-shaped, so no comparison broadcasts

        def draw(done, m):
            x = self.rng.random(out=u[:m])
            return compare(x, tiles[0, :m], out=x)  # in place: 0.0/1.0 actions
        counts = np.zeros((self.game.n, 2))
        return counts, self._answered_sums(n_queries, draw, counts)

    def _kaction_sums(self, n_queries, thresholds, compare):
        """The same for k > 2, into the chunk's integer action rows."""
        bufs, rows = self._draw_buffers(), self._chunk_buffers().rows
        u, tiles, mask = bufs.uniforms, bufs.tiles, bufs.mask
        tiles[...] = thresholds[:, None, :]

        def draw(done, m):
            x = self.rng.random(out=u[:m])
            actions = compare(x, tiles[0, :m], out=rows[:m])
            for j in range(1, tiles.shape[0]):
                actions += compare(x, tiles[j, :m], out=mask[:m])
            return actions
        counts = np.zeros((self.game.n, self.game.k))
        return counts, self._answered_sums(n_queries, draw, counts)

    def _histogram_sums(self, n_queries, p_prime):
        """(n, k) counts and payoff sums of ``n_queries`` pure queries of a game whose
        k^n pure profiles number at most ``TABLE_PROFILES`` and at most ``n_queries``.
        How often each profile is queried is one multinomial draw over the product
        of the rows of ``p_prime``, indexed by profile code (see
        ``_histogram_buffers``).  The counts are that histogram's per-player
        marginals, exact integers.  The queries are answered in code order, each
        chunk's rows taken from the matrix of every profile, and the chunks add
        payoff sums only."""
        n, k = self.game.n, self.game.k
        rows, hist = self._chunk_buffers().rows, self._histogram_buffers()
        pi, size = hist.probs, k
        pi[:k] = p_prime[0]
        # in place, pi[a k + b] = pi[a] probs[b]: numpy reads an operand that overlaps
        # the output before it writes, and the products are those of multiply.outer
        for probs in p_prime[1:]:
            np.multiply(pi[:size, None], probs, out=pi[:size * k].reshape(size, k))
            size *= k
        ends = self.rng.multinomial(n_queries, pi)  # each code's queries, until the cumsum
        counts = np.empty((n, k))
        rest = ends  # the histogram of the actions of players i and up
        for i in range(n):
            rest = rest.reshape(k, -1)
            counts[i] = rest.sum(axis=1)
            rest = rest.sum(axis=0)
        np.cumsum(ends, out=ends)  # one past each code's last query
        first = 0  # the code of the next chunk's first query

        def take(done, m):
            nonlocal first
            last = np.searchsorted(ends, done + m)  # the code of the chunk's last query
            runs = ends[first:last + 1] - done  # one past each code's queries in the chunk
            runs[-1] = m
            runs[1:] -= runs[:-1]  # numpy reads the overlapping operand before writing
            codes = np.repeat(np.arange(first, last + 1), runs)
            first = last
            # mode="clip" writes into out directly; "raise" would buffer a copy
            return np.take(hist.profiles, codes, axis=0, out=rows[:m], mode="clip")
        return counts, self._answered_sums(n_queries, take)

    def _answered_sums(self, n_queries, rows, counts=None):
        """(n, k) payoff sums of ``n_queries`` pure queries, one chunk at a time:
        ``rows(done, m)`` gives the action rows of queries done to done + m, one
        ``payoffs_batch`` call answers them and the reduction of the game's k adds
        them in, and counts them into ``counts`` if given."""
        payoff_rows = self._chunk_buffers().payoffs
        add = self._add_binary if self.game.k == 2 else self._add_kaction
        sums = np.zeros((self.game.n, self.game.k))
        for done in range(0, n_queries, self._CHUNK):
            actions = rows(done, min(self._CHUNK, n_queries - done))
            payoffs = self._pure_batch(actions, payoff_rows[:actions.shape[0]])
            add(actions, payoffs, sums, counts)
        return sums

    @staticmethod
    def _add_binary(actions, payoffs, sums, counts):
        """Add one chunk of 0.0/1.0 float action rows and their payoffs into the (n, 2)
        sums, and into the counts unless they are None."""
        # einsum adds the payoff rows in sum(axis=0)'s order without its per-row
        # inner loops; sums of 0.0/1.0 are exact in any order, so a GEMV counts.
        # Both read float rows: einsum would sum int8 rows in int8.
        if counts is not None:
            m = actions.shape[0]
            ones = np.ones(m) @ actions
            counts[:, 1] += ones
            counts[:, 0] += m - ones
        paid_ones = np.einsum("sn,sn->n", payoffs, actions)
        sums[:, 1] += paid_ones
        sums[:, 0] += np.einsum("sn->n", payoffs) - paid_ones

    def _add_kaction(self, actions, payoffs, sums, counts):
        """The same for k > 2 integer action rows, by the flat index of cell (i, a_si):
        bincount adds each cell's payoffs in row order."""
        m, (n, k) = actions.shape[0], sums.shape
        cell = self._chunk.cells[:m]
        np.copyto(cell, actions)  # a cast copy, then an add without a cast buffer
        cell += self._chunk.offsets[:m]
        if counts is not None:
            counts += np.bincount(cell.ravel(), minlength=n * k).reshape(n, k)
        sums += np.bincount(cell.ravel(), weights=payoffs.ravel(), minlength=n * k).reshape(n, k)

    def _sample_estimate(self, n_queries, p_prime, thresholds, compare, beta, delta):
        """The estimate from ``n_queries`` pure queries drawn from ``p_prime``.  A game
        whose k^n pure profiles number at most ``TABLE_PROFILES`` and at most
        ``n_queries`` draws them as one histogram over its profiles
        (``_histogram_sums``); with fewer queries than profiles, the multinomial
        over k^n cells would cost more than the queries.  Any other game draws each
        query's row with the producer of its k: player i's uniform draw u plays the
        number of rows t of the (k - 1, n) ``thresholds`` for which
        ``compare(u, t[i])`` holds.  Both give the queries the same law, from
        different random streams, and every query is one counted ``payoffs_batch``
        row."""
        n, k = self.game.n, self.game.k
        if k ** n <= min(TABLE_PROFILES, n_queries):
            counts, sums = self._histogram_sums(n_queries, p_prime)
        else:
            producer = self._binary_sums if k == 2 else self._kaction_sums
            counts, sums = producer(n_queries, thresholds, compare)
        values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
        if self._trace is not None:  # the game itself, so that qm_calls does not move
            error = np.abs(values - self.game.mixed_payoff_table(p_prime))[counts > 0]
            self._trace.write(json.dumps({
                "first_query": self.pure_queries - n_queries, "samples": n_queries,
                "beta": beta, "delta": delta, "p_prime": p_prime.tolist(),
                "counts": counts.astype(np.int64).tolist(), "sums": sums.tolist(),
                "max_error": float(error.max()) if error.size else None}) + "\n")
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
