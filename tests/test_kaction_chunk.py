"""The k-action sampling chunk against the mask-loop code it replaced.

Each reference below is the former implementation of one stage of a
k > 2 sampling chunk: the draw built a (rows, n, k - 1) comparison array,
the GEMM kernel (``LinearInfluenceGame._chunk_payoffs``) and the reduction
made one mask pass per action.  A game of at most ``TABLE_PROFILES`` pure
profiles answers from its payoff table, whose reference is
``table_payoffs``; the kernel's pins at those sizes call it by name.  A
k = 2 game sampled through ``sample_mixed_kaction`` is evaluated and
reduced by the binary code, so its references are the binary ones.  The
fast code draws into session buffers and must agree with them bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import largegames as lg
from largegames import oracles
from largegames.games import BATCH_ROWS, TABLE_PROFILES
from references import linear_payoffs, reference_reduce, table_payoffs

KS = (2, 3, 4, 5, 6, 7)
NS = (2, 7, 20, 100)
CHUNKS = (1, 17, 4096)
EPS = np.finfo(float).eps


def mask_draw(u, cdf):
    draws = (u[:, :, None] > cdf[None, :, :-1]).sum(axis=2)
    return draws.astype(np.int8) if cdf.shape[1] <= 128 else draws


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


def answered_payoffs(game, actions):
    """What ``payoffs_batch`` answers: the table's order for a game of at most
    ``TABLE_PROFILES`` pure profiles, the kernel's above."""
    if game.k ** game.n <= TABLE_PROFILES:
        return table_payoffs(game, actions)
    return mask_payoffs(game, actions)


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
        payoffs = answered_payoffs(game, actions)
        mask_reduce(actions, payoffs, game.k, counts, sums)
        chunks.append((actions, payoffs))
        done += actions.shape[0]
    values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return chunks, counts, values


def recording_session(game, seed, chunk):
    """A session that keeps a copy of every chunk's actions and payoffs."""
    session = lg.OracleSession(game, seed=seed)
    session._CHUNK = chunk
    chunks = []
    pure_batch = session._pure_batch

    def record(actions, out=None):
        payoffs = pure_batch(actions, out)
        chunks.append((actions.copy(), payoffs.copy()))  # the buffers are reused
        return payoffs

    session._pure_batch = record
    return session, chunks


def recorded_estimate(game, profile, beta, seed, chunk):
    """Run ``sample_mixed_kaction``, keeping a copy of every chunk's actions and payoffs."""
    session, chunks = recording_session(game, seed, chunk)
    return session.sample_mixed_kaction(profile.probs, beta, 0.05), chunks


def per_row_estimate(session, profile, beta, rows):
    """Counts and values of ``rows`` pure queries from the per-row producer of the
    game's k, called by name with the thresholds ``sample_mixed_kaction`` gives it:
    a game of at most ``TABLE_PROFILES`` pure profiles, and at most as many as
    its estimate's queries, would be drawn as one histogram instead."""
    cdf = np.cumsum(oracles.blend_kaction(profile.probs, beta), axis=1).T[:-1]
    producer = session._binary_sums if session.game.k == 2 else session._kaction_sums
    counts, sums = producer(rows, cdf, np.greater)
    return counts, np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)


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
    # int8 rows come from the sampling draws, int64 rows from query_pure; the
    # kernel is called by name, as the games at n = 2 and 7 answer from a table
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    actions = np.random.default_rng(n).integers(0, k, size=(33, n)).astype(dtype)
    out = np.empty((33, n))
    game._chunk_payoffs(actions, out)
    assert np.array_equal(out, mask_payoffs(game, actions))


TABLE_GAMES = ([(k, n) for k in range(3, 9) for n in range(2, 17) if k ** n <= TABLE_PROFILES]
               + [(16, 4), (40, 3), (129, 2), (130, 2)])


@pytest.mark.parametrize("k,n", TABLE_GAMES)
def test_payoff_table_answers_equal_the_mask_reference(k, n):
    # every game with k^n <= TABLE_PROFILES profiles answers every batch, one-row
    # batches too, from its table, whose order the kernel's GEMMs do not keep:
    # they agree to rounding
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    rng = np.random.default_rng(n)
    heights = (1, 2, 3, 5, 17, 100, 4095, 4096, 5000) if k <= 8 else (1, 2, 17, 300)
    for rows in heights:
        actions = rng.integers(0, k, size=(rows, n)).astype(np.int16)
        want = table_payoffs(game, actions)
        for dtype in (np.float64, np.int8 if k <= 128 else np.int16, np.int64):
            assert np.array_equal(game.payoffs_batch(actions.astype(dtype)), want)
        assert np.allclose(want, mask_payoffs(game, actions), rtol=0, atol=4 * n * EPS)
    assert game._table[0].shape == (k ** n, n)


@pytest.mark.parametrize("k,n", [(2, n) for n in range(2, 17)] + TABLE_GAMES)
def test_a_profile_gets_one_answer_alone_and_in_every_batch(k, n):
    # payoffs, a pure query and a one-row batch give the bits of the profile's
    # row in a batch of any height
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    session = lg.OracleSession(game)
    rng = np.random.default_rng(n)
    for profile in rng.integers(0, k, size=(64, n)):
        alone = [game.payoffs(profile), session.query_pure(profile),
                 game.payoffs_batch(profile[None])[0]]
        for rows in (2, 17, 4096):
            batch = rng.integers(0, k, size=(rows, n))
            at = rng.integers(rows)
            batch[at] = profile
            row = game.payoffs_batch(batch)[at]
            assert all(np.array_equal(answer, row) for answer in alone)


def test_kaction_table_covers_at_most_table_profiles():
    for n, tabled in ((10, True), (11, False)):  # 3^10 = 59049 and 3^11 = 177147 profiles
        game = lg.gen_linear_influence(n, 3, 1.0, seed=n)
        actions = np.random.default_rng(n).integers(0, 3, size=(17, n)).astype(np.int8)
        assert np.array_equal(game.payoffs_batch(actions), answered_payoffs(game, actions))
        assert (game._table is not None) == tabled


@pytest.mark.parametrize("k,n", ((3, 7), (3, 10)))
def test_a_table_build_leaves_operands_and_scratch_one_slice_high(k, n):
    # afterwards the game holds no array but the table as high as BATCH_ROWS // 8
    # rows, and the build's peak beyond the table is its one (k,) * n float
    # accumulator, numpy's ufunc buffer of at most np.getbufsize() floats for
    # the broadcast adds, and O(n k + k^2)
    game = lg.gen_linear_influence(n, k, 1.0, seed=0)
    actions = np.random.default_rng(0).integers(0, k, size=(2, n)).astype(np.int8)
    height = min(k ** n, BATCH_ROWS // 8)
    tracemalloc.start()
    try:
        game.payoffs_batch(actions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = [value for key, value in vars(game).items() if key != "_table"]
    held += [buf for bufs in vars(game._scratch).values() for buf in bufs]
    assert all(max(arr.shape) < height for arr in held if isinstance(arr, np.ndarray))
    bound = 8 * (k ** n + min(k ** n, np.getbufsize()) + 64 * n * k + k * k)
    assert peak - game._table[0].nbytes < bound
    assert np.array_equal(game.payoffs_batch(actions[:1]), table_payoffs(game, actions[:1]))


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
def test_sampling_chunk_matches_mask_reference(k, n, chunk):
    # a chunk and a half plus one row, so the last chunk is partial
    rows = chunk + chunk // 2 + 1
    game = lg.gen_linear_influence(n, k, 1.0, seed=10 * n + k)
    profile = random_profile(n, k, seed=k)
    session, chunks = recording_session(game, 7, chunk)
    counts, values = per_row_estimate(session, profile, 0.3, rows)
    ref_chunks, ref_counts, ref_values = reference_estimate(game, profile, 0.3, 7, rows, chunk)
    assert_same_chunks(chunks, ref_chunks, game.k)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(values, ref_values)
    assert np.all(counts.sum(axis=1) == rows)


def test_whole_estimate_with_partial_last_chunk_matches_mask_reference():
    # the query count of the sampled-kaction benchmark setting (n=10, k=3,
    # beta=0.3, delta=0.05), through the per-row producer called by name, as
    # sample_mixed_kaction draws this game as one histogram
    game = lg.gen_linear_influence(10, 3, 1.0, seed=4)
    profile = random_profile(10, 3, seed=1)
    session, chunks = recording_session(game, 2, lg.OracleSession._CHUNK)
    rows = oracles.kaction_sample_count(0.3, 0.05, 10, 3)
    assert rows % lg.OracleSession._CHUNK != 0
    counts, values = per_row_estimate(session, profile, 0.3, rows)
    ref_chunks, ref_counts, ref_values = reference_estimate(
        game, profile, 0.3, 2, rows, lg.OracleSession._CHUNK)
    assert_same_chunks(chunks, ref_chunks, game.k)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(values, ref_values)
    assert np.all(counts.sum(axis=1) == rows)


@pytest.mark.parametrize("k", (129, 130))
def test_actions_past_int8_are_drawn_answered_and_reduced(monkeypatch, k):
    # k - 1 > 127 does not fit the int8 rows that smaller k are drawn into
    rows = 300
    monkeypatch.setattr(oracles, "kaction_sample_count", lambda *args: rows)
    game = lg.gen_linear_influence(2, k, 1.0, seed=k)
    profile = random_profile(2, k, seed=k)
    est, chunks = recorded_estimate(game, profile, 0.3, 7, 128)
    ref_chunks, ref_counts, ref_values = reference_estimate(game, profile, 0.3, 7, rows, 128)
    for (a, u), (ref_a, ref_u) in zip(chunks, ref_chunks, strict=True):
        assert a.min() >= 0 and a.max() < k
        assert np.array_equal(a, ref_a) and np.array_equal(u, ref_u)
    assert np.all(est.counts.sum(axis=1) == rows)
    assert np.array_equal(est.counts, ref_counts)
    assert np.array_equal(est.values, ref_values)


def session_buffers(session):
    """Every named buffer array of a session, by buffer set and name."""
    sets = {"chunk": session._chunk, "draw": session._draw, "histogram": session._histogram}
    return {(name, key): arr for name, bufs in sets.items() if bufs is not None
            for key, arr in vars(bufs).items()}


@pytest.mark.parametrize("k", (2, 3))
def test_session_reuses_its_buffers_across_estimates(k):
    # 6 players, so sample_mixed_kaction draws histograms; the per-row producer,
    # called by name, adds its own buffers to the chunk's
    game = lg.gen_linear_influence(6, k, 1.0, seed=0)
    session = lg.OracleSession(game, seed=0)
    first = session.sample_mixed_kaction(lg.MixedProfile.uniform(6, k).probs, 0.5, 0.5)
    assert session._draw is None  # a histogram draws no uniforms and no thresholds
    per_row_estimate(session, random_profile(6, k, seed=3), 0.5, 100)
    buffers = session_buffers(session)
    assert {name for name, _ in buffers} == {"chunk", "draw", "histogram"}
    second = session.sample_mixed_kaction(random_profile(6, k, seed=2).probs, 0.5, 0.5)
    per_row_estimate(session, random_profile(6, k, seed=4), 0.5, 100)
    again = session_buffers(session)
    assert again.keys() == buffers.keys()
    assert all(again[key] is buf for key, buf in buffers.items())
    # estimates hold their own arrays, not views of the buffers
    assert not any(np.shares_memory(arr, buf) for buf in buffers.values()
                   for est in (first, second) for arr in (est.values, est.counts, est.p_prime))


def test_second_estimate_allocates_less_than_one_int8_chunk():
    # the per-row producer called by name, at the query count of the
    # sampled-kaction benchmark setting, which sample_mixed_kaction draws as one
    # histogram
    game = lg.gen_linear_influence(10, 3, 1.0, seed=4)
    session = lg.OracleSession(game, seed=2)
    profile = random_profile(10, 3, seed=1)
    rows = oracles.kaction_sample_count(0.3, 0.05, 10, 3)
    per_row_estimate(session, profile, 0.3, rows)  # builds the buffers and constants
    tracemalloc.start()
    try:
        counts, _ = per_row_estimate(session, profile, 0.3, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session._histogram is None
    assert np.all(counts.sum(axis=1) == rows) and rows > 10 * lg.OracleSession._CHUNK
    assert peak < lg.OracleSession._CHUNK * 10


def test_second_widened_histogram_estimate_allocates_less_than_counts_and_a_float_chunk():
    # the sampled-kaction benchmark setting: 3^10 pure profiles, drawn as one
    # histogram; the peak holds the multinomial's k^n integer counts, less than
    # one float chunk besides
    n, k = 10, 3
    game = lg.gen_linear_influence(n, k, 1.0, seed=4)
    session = lg.OracleSession(game, seed=2)
    probs = random_profile(n, k, seed=1).probs
    session.sample_mixed_kaction(probs, 0.3, 0.05)  # builds the buffers, profiles and table
    tracemalloc.start()
    try:
        est = session.sample_mixed_kaction(probs, 0.3, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session._draw is None
    assert session._histogram.profiles.shape == (k ** n, n)
    assert est.samples > 10 * lg.OracleSession._CHUNK
    assert peak < k ** n * 8 + BATCH_ROWS * n * 8


def test_second_histogram_estimate_allocates_less_than_one_float_chunk():
    # 3^7 = 2187 pure profiles, so the estimate is drawn as one histogram
    game = lg.gen_linear_influence(7, 3, 1.0, seed=4)
    session = lg.OracleSession(game, seed=2)
    probs = random_profile(7, 3, seed=1).probs
    session.sample_mixed_kaction(probs, 0.3, 0.05)  # builds the buffers, profiles and table
    tracemalloc.start()
    try:
        est = session.sample_mixed_kaction(probs, 0.3, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session._histogram.profiles.shape == (3 ** 7, 7)
    assert est.samples > 10 * lg.OracleSession._CHUNK
    assert peak < BATCH_ROWS * 7 * 8
