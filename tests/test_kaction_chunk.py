"""The k-action sampling chunk against the mask-loop code it replaced.

Each reference below is the former implementation of one stage of a
k > 2 sampling chunk: the draw built a (rows, n, k - 1) comparison array,
``payoffs_batch`` and the reduction made one mask pass per action.  A
k = 2 game sampled through ``sample_mixed_kaction`` is evaluated and
reduced by the binary code, so its references are the binary ones.  The
fast code draws into session buffers and must agree with them bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import largegames as lg
from largegames import oracles
from references import linear_payoffs, reference_reduce

KS = (2, 3, 4, 5, 6, 7)
NS = (2, 7, 20, 100)
CHUNKS = (1, 17, 4096)


def mask_draw(u, cdf):
    return (u[:, :, None] > cdf[None, :, :-1]).sum(axis=2).astype(np.int8)


def mask_payoffs(game, actions):
    if game.k == 2:
        return linear_payoffs(game, actions)
    n, k, w = game.n, game.k, game._w
    s = actions.shape[0]
    flat = None
    for b in range(1, k):
        delta = (w[b] - w[0]).reshape(n, n * k)
        contrib = (actions == b).astype(np.float64) @ delta
        flat = contrib if flat is None else flat + contrib
    received = flat.reshape(s, n, k)
    received += game._batch_zero
    own = np.zeros(actions.shape, dtype=float)
    base_own = np.zeros(actions.shape, dtype=float)
    for j in range(k):
        mask = actions == j
        own += received[:, :, j] * mask
        base_own += game.base[None, :, j] * mask
    return (1.0 - game.mu) * base_own + game.mu / (n - 1) * own


def mask_reduce(actions, payoffs, k, counts, sums):
    if k == 2:
        return reference_reduce(actions, payoffs, counts, sums)
    for j in range(k):
        mask = actions == j
        counts[:, j] += mask.sum(axis=0)
        sums[:, j] += (payoffs * mask).sum(axis=0)


def random_profile(n, k, seed):
    probs = np.random.default_rng(seed).random((n, k))
    return lg.MixedProfile(probs / probs.sum(axis=1, keepdims=True))


def reference_estimate(game, profile, beta, seed, rows, chunk):
    """The mask-loop pipeline on the session's random stream, chunk by chunk."""
    rng = np.random.default_rng(seed)
    p_prime = oracles.blend_kaction(profile.probs, beta)
    cdf = np.cumsum(p_prime, axis=1)
    counts = np.zeros((game.n, game.k))
    sums = np.zeros((game.n, game.k))
    chunks = []
    done = 0
    while done < rows:
        actions = mask_draw(rng.random((min(chunk, rows - done), game.n)), cdf)
        payoffs = mask_payoffs(game, actions)
        mask_reduce(actions, payoffs, game.k, counts, sums)
        chunks.append((actions, payoffs))
        done += actions.shape[0]
    values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return chunks, counts, values


def recorded_estimate(game, profile, beta, seed, chunk):
    """Run ``sample_mixed_kaction``, keeping a copy of every chunk's actions and payoffs."""
    session = lg.OracleSession(game, seed=seed)
    session._CHUNK = chunk
    chunks = []
    pure_batch = session._pure_batch

    def record(actions, out=None):
        payoffs = pure_batch(actions, out)
        chunks.append((actions.copy(), payoffs.copy()))  # the buffers are reused
        return payoffs

    session._pure_batch = record
    return session.sample_mixed_kaction(profile.probs, beta, 0.05), chunks


def assert_same_chunks(got, want, k):
    assert len(got) == len(want)
    for (a, u), (ref_a, ref_u) in zip(got, want):
        # k = 2 rows are 0.0/1.0 floats, as the binary draw leaves them
        assert a.dtype == (np.float64 if k == 2 else np.int8)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(u, ref_u)


@pytest.mark.parametrize("dtype", (np.int8, np.int64))
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("k", KS)
def test_payoffs_batch_matches_mask_reference(k, n, dtype):
    # int8 rows come from the sampling draws, int64 rows from query_pure
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    actions = np.random.default_rng(n).integers(0, k, size=(33, n)).astype(dtype)
    assert np.array_equal(game.payoffs_batch(actions), mask_payoffs(game, actions))


TABLE_GAMES = [(k, n) for k in range(3, 9) for n in range(2, 13) if k ** n <= 4096]


@pytest.mark.parametrize("k,n", TABLE_GAMES)
def test_payoff_table_answers_equal_the_mask_reference(k, n):
    # every game with k^n <= BATCH_ROWS profiles answers batches of two or
    # more rows from its table, and one-row batches from the kernel
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    rng = np.random.default_rng(n)
    for rows in (1, 2, 3, 5, 17, 100, 4095, 4096, 5000):
        actions = rng.integers(0, k, size=(rows, n)).astype(np.int8)
        want = mask_payoffs(game, actions)
        for dtype in (np.float64, np.int8, np.int64):
            assert np.array_equal(game.payoffs_batch(actions.astype(dtype)), want)
    assert game._table[0].shape == (k ** n, n)


def test_kaction_table_covers_at_most_one_chunk_of_profiles():
    for n, tabled in ((7, True), (8, False)):  # 3^7 = 2187 and 3^8 = 6561 profiles
        game = lg.gen_linear_influence(n, 3, 1.0, seed=n)
        actions = np.random.default_rng(n).integers(0, 3, size=(17, n)).astype(np.int8)
        assert np.array_equal(game.payoffs_batch(actions), mask_payoffs(game, actions))
        assert (game._table is not None) == tabled


@pytest.mark.parametrize("rows", CHUNKS)
@pytest.mark.parametrize("k", (3, 4))
def test_payoffs_batch_takes_integer_valued_float_rows(k, rows):
    game = lg.gen_linear_influence(7, k, 1.0, seed=k)
    actions = np.random.default_rng(rows).integers(0, k, size=(rows, 7)).astype(np.int8)
    assert np.array_equal(game.payoffs_batch(actions.astype(np.float64)),
                          game.payoffs_batch(actions))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("k", KS)
def test_sampling_chunk_matches_mask_reference(monkeypatch, k, n, chunk):
    # a chunk and a half plus one row, so the last chunk is partial
    rows = chunk + chunk // 2 + 1
    monkeypatch.setattr(oracles, "kaction_sample_count", lambda *args: rows)
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    profile = random_profile(n, k, seed=k)
    est, chunks = recorded_estimate(game, profile, 0.3, 7, chunk)
    ref_chunks, ref_counts, ref_values = reference_estimate(game, profile, 0.3, 7, rows, chunk)
    assert_same_chunks(chunks, ref_chunks, game.k)
    assert np.array_equal(est.counts, ref_counts)
    assert np.array_equal(est.values, ref_values)
    assert np.all(est.counts.sum(axis=1) == rows)


def test_whole_estimate_with_partial_last_chunk_matches_mask_reference():
    # the sampled-kaction benchmark setting: n=10, k=3, beta=0.3, delta=0.05
    game = lg.gen_linear_influence(10, 3, 1.0, seed=4)
    profile = random_profile(10, 3, seed=1)
    est, chunks = recorded_estimate(game, profile, 0.3, 2, lg.OracleSession._CHUNK)
    assert est.samples == oracles.kaction_sample_count(0.3, 0.05, 10, 3)
    assert est.samples % lg.OracleSession._CHUNK != 0
    ref_chunks, ref_counts, ref_values = reference_estimate(
        game, profile, 0.3, 2, est.samples, lg.OracleSession._CHUNK)
    assert_same_chunks(chunks, ref_chunks, game.k)
    assert np.array_equal(est.counts, ref_counts)
    assert np.array_equal(est.values, ref_values)
    assert np.all(est.counts.sum(axis=1) == est.samples)


def chunk_buffers(session):
    return [buf for buf in session._buffers if buf is not None]


@pytest.mark.parametrize("k", (2, 3))
def test_session_reuses_its_buffers_across_estimates(k):
    game = lg.gen_linear_influence(6, k, 1.0, seed=0)
    session = lg.OracleSession(game, seed=0)
    first = session.sample_mixed_kaction(lg.MixedProfile.uniform(6, k).probs, 0.5, 0.5)
    buffers = chunk_buffers(session)
    consts = game._operand_cache
    second = session.sample_mixed_kaction(random_profile(6, k, seed=2).probs, 0.5, 0.5)
    assert all(a is b for a, b in zip(chunk_buffers(session), buffers))
    assert game._operand_cache is consts
    # estimates hold their own arrays, not views of the buffers
    assert not any(np.shares_memory(arr, buf) for buf in buffers
                   for est in (first, second) for arr in (est.values, est.counts, est.p_prime))


def test_second_estimate_allocates_less_than_one_int8_chunk():
    game = lg.gen_linear_influence(10, 3, 1.0, seed=4)
    session = lg.OracleSession(game, seed=2)
    probs = random_profile(10, 3, seed=1).probs
    session.sample_mixed_kaction(probs, 0.3, 0.05)  # builds the buffers and constants
    tracemalloc.start()
    try:
        est = session.sample_mixed_kaction(probs, 0.3, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples > 10 * lg.OracleSession._CHUNK
    assert peak < lg.OracleSession._CHUNK * 10
