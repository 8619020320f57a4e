"""The k = 2 sampling chunk against the code it replaced.

Each reference below is the former implementation of one stage of a
binary sampling chunk: the draw cast its comparisons to int8, the k = 2
``LinearInfluenceGame.payoffs_batch`` converted those rows to float and
kept its temporaries apart, the other games indexed with the int8 rows,
and the reduction summed over axis 0.  The fast code draws 0.0/1.0 rows
into session buffers, evaluates them in place and reduces with einsum and
a GEMV; it must agree with the references bit for bit.
"""

import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import largegames as lg
from largegames import oracles
from largegames.families import TABLE_PROFILES, LinearInfluenceGame
from largegames.games import BATCH_ROWS, IndependentGame, TensorGame
from references import linear_payoffs, reference_reduce

NS = (2, 7, 10, 20, 100)
CHUNKS = (1, 17, 4096)


def int8_draw(rng, m, p_one):
    return (rng.random((m, p_one.shape[0])) < p_one).astype(np.int8)


def reference_payoffs(game, actions, rng=None):
    """Payoffs of int8 rows as each game computed them; stochastic games draw from rng."""
    if isinstance(game, lg.StochasticGame):
        means = reference_payoffs(game.base, actions)
        return (rng.random(means.shape) < means).astype(float)
    if isinstance(game, LinearInfluenceGame):
        return linear_payoffs(game, actions)
    if isinstance(game, IndependentGame):
        return game.values[np.arange(game.n)[None, :], actions]
    assert isinstance(game, TensorGame)
    idx = tuple(actions[:, j] for j in range(game.n))
    return game.tensor[(slice(None), *idx)].T.copy()


def random_profile(n, seed):
    return lg.MixedProfile.from_binary(np.random.default_rng(seed).random(n))


def reference_estimate(game, profile, beta, seed, rows, chunk):
    """The former pipeline on the session's random stream, chunk by chunk."""
    rng = np.random.default_rng(seed)
    p_one = oracles.blend_binary(profile.binary(), beta)
    counts = np.zeros((game.n, 2))
    sums = np.zeros((game.n, 2))
    chunks = []
    done = 0
    while done < rows:
        actions = int8_draw(rng, min(chunk, rows - done), p_one)
        payoffs = reference_payoffs(game, actions, rng)
        reference_reduce(actions, payoffs, counts, sums)
        chunks.append((actions, payoffs))
        done += actions.shape[0]
    values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)
    return chunks, counts, values, rng


def per_row_estimate(session, profile, beta, rows):
    """Counts and values of ``rows`` pure queries from the binary producer, called by
    name with the thresholds ``sample_mixed_binary`` gives it: a game of at most
    ``BATCH_ROWS`` pure profiles would be drawn as one histogram instead."""
    p_one = oracles.blend_binary(profile.binary(), beta)
    counts, sums = session._binary_sums(rows, p_one[None], np.less)
    return counts, np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0)


def recorded_estimate(game, profile, beta, seed, rows, chunk):
    """``per_row_estimate``, keeping a copy of every chunk's actions and payoffs."""
    session = lg.OracleSession(game, seed=seed)
    session._CHUNK = chunk
    chunks = []
    pure_batch = session._pure_batch

    def record(actions, out=None):
        payoffs = pure_batch(actions, out)
        chunks.append((actions.copy(), payoffs.copy()))  # the buffers are reused
        return payoffs

    session._pure_batch = record
    return per_row_estimate(session, profile, beta, rows), chunks, session


def assert_same_estimate(game, profile, beta, seed, rows, chunk):
    (counts, values), chunks, session = recorded_estimate(game, profile, beta, seed, rows, chunk)
    ref_chunks, ref_counts, ref_values, ref_rng = reference_estimate(
        game, profile, beta, seed, rows, chunk)
    assert len(chunks) == len(ref_chunks)
    for (x, u), (a, ref_u) in zip(chunks, ref_chunks):
        assert x.dtype == np.float64
        assert np.array_equal(x, a)
        assert np.array_equal(u, ref_u)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(values, ref_values)
    assert np.all(counts.sum(axis=1) == rows)
    assert session.pure_queries == rows
    # the stream is left where the former code left it
    assert session.rng.random() == ref_rng.random()


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("n", NS)
def test_sampling_chunk_matches_reference(n, chunk):
    # a chunk and a half plus one row, so the last chunk is partial
    rows = chunk + chunk // 2 + 1
    game = lg.gen_linear_influence(n, 2, 1.0, seed=n)
    assert_same_estimate(game, random_profile(n, n), 0.3, 7, rows, chunk)


GAMES = {
    "stochastic-linear": lambda n: lg.StochasticGame(lg.gen_linear_influence(n, 2, 0.5, seed=n)),
    "lower-bound": lambda n: lg.gen_lower_bound(n, 4.0, n),
    "independent": lambda n: lg.IndependentGame(np.tile([0.1, 0.8], (n, 1)), c=1.0),
    "tiny-tensor": lambda n: lg.gen_tiny_tensor(n, 2, 0.3, seed=n),
}


@pytest.mark.parametrize("chunk", (17, 4096))
@pytest.mark.parametrize("n", (2, 7, 10))
@pytest.mark.parametrize("family", sorted(GAMES))
def test_other_games_sampling_chunk_matches_reference(family, n, chunk):
    rows = chunk + chunk // 2 + 1
    assert_same_estimate(GAMES[family](n), random_profile(n, 3), 0.2, 11, rows, chunk)


def test_whole_estimate_at_the_benchmark_setting_matches_reference():
    # sampled plane dynamics at n = 10 sample with beta = 0.2 and delta = eta / rounds
    params = lg.DynamicsParams(alpha=0.125, eta=0.1)
    game = lg.gen_linear_influence(10, 2, 1.0, seed=4)
    profile = random_profile(10, 1)
    session = lg.OracleSession(game, seed=2)
    rows = oracles.binary_sample_count(0.2, params.eta / params.rounds, 10)
    assert rows % lg.OracleSession._CHUNK != 0
    counts, values = per_row_estimate(session, profile, 0.2, rows)
    _, ref_counts, ref_values, ref_rng = reference_estimate(
        game, profile, 0.2, 2, rows, lg.OracleSession._CHUNK)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(values, ref_values)
    assert session.rng.random() == ref_rng.random()


def test_session_reuses_its_buffers_across_estimates():
    game = lg.gen_linear_influence(6, 2, 1.0, seed=0)
    session = lg.OracleSession(game, seed=0)
    first = session.sample_mixed_binary(lg.MixedProfile.uniform(6).probs, 0.5, 0.5)
    buffers = session._buffers
    second = session.sample_mixed_binary(random_profile(6, 2).probs, 0.5, 0.5)
    assert all(a is b for a, b in zip(session._buffers, buffers))
    # estimates hold their own arrays, not views of the buffers
    assert not any(np.shares_memory(arr, buf) for buf in buffers
                   for est in (first, second) for arr in (est.values, est.counts))


def test_linear_payoffs_batch_keeps_the_base_rounding():
    # generated base payoffs are multiples of 2**-53, for which b0 + (b1 - b0) == b1;
    # these hand-made pairs round, and the payoffs must keep the former rounding
    base = np.array([[0.9, 0.05], [0.7, 0.1], [0.3, 0.8], [0.05, 0.9]])
    assert np.any(base[:, 0] + (base[:, 1] - base[:, 0]) != base[:, 1])
    weights = np.random.default_rng(0).random((4, 4, 2, 2))
    for c in (0.5, 1.0, 4.0):
        game = LinearInfluenceGame(base, weights, c)
        a = np.random.default_rng(1).integers(0, 2, size=(64, 4)).astype(np.int8)
        assert np.array_equal(game.payoffs_batch(a.astype(np.float64)), linear_payoffs(game, a))


@pytest.mark.parametrize("n", (2, 7, 10))
@pytest.mark.parametrize("family", sorted(GAMES) + ["linear"])
def test_payoffs_batch_into_out_matches_a_fresh_result(family, n):
    game = GAMES[family](n) if family in GAMES else lg.gen_linear_influence(n, 2, 1.0, seed=n)
    a = np.random.default_rng(n).integers(0, 2, size=(40, n)).astype(np.int8)
    # a stochastic game's payoffs_batch gives the means of its base game
    ref = reference_payoffs(game.base if isinstance(game, lg.StochasticGame) else game, a)
    for rows in (a, a.astype(np.int64), a.astype(np.float64)):
        out = np.full((40, n), np.nan)
        assert game.payoffs_batch(rows, out=out) is out
        assert np.array_equal(out, game.payoffs_batch(rows))
        assert np.array_equal(out, ref)


def test_kaction_payoffs_batch_into_out_matches_a_fresh_result():
    game = lg.gen_linear_influence(7, 3, 1.0, seed=5)
    a = np.random.default_rng(1).integers(0, 3, size=(40, 7)).astype(np.int8)
    out = np.full((40, 7), np.nan)
    assert game.payoffs_batch(a, out=out) is out
    assert np.array_equal(out, game.payoffs_batch(a))


@pytest.mark.parametrize("family", ("stochastic-linear", "lower-bound"))
def test_stochastic_draws_into_out_match_the_former_draws(family):
    game = GAMES[family](7)
    a = np.random.default_rng(1).integers(0, 2, size=(40, 7)).astype(np.int8)
    want = reference_payoffs(game, a, np.random.default_rng(9))
    out = np.empty((40, 7))
    assert game.sample_payoffs_batch(a.astype(np.float64), np.random.default_rng(9), out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(game.sample_payoffs_batch(a, np.random.default_rng(9)), want)


def test_trace_lines_record_each_estimate(monkeypatch, tmp_path):
    rows = 23
    monkeypatch.setattr(oracles, "binary_sample_count", lambda *args: rows)
    game = lg.gen_linear_influence(5, 2, 1.0, seed=1)
    profiles = [random_profile(5, seed) for seed in (4, 5, 6)]
    path = tmp_path / "trace.jsonl"
    traced, plain = lg.OracleSession(game, seed=3, trace_path=path), lg.OracleSession(game, seed=3)
    traced._CHUNK = plain._CHUNK = 10
    ests = [traced.sample_mixed_binary(profile.probs, 0.3, 0.1) for profile in profiles]
    traced.close()
    for profile, est in zip(profiles, ests):  # the trace leaves the random stream alone
        untraced = plain.sample_mixed_binary(profile.probs, 0.3, 0.1)
        assert np.array_equal(untraced.values, est.values)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(ests)
    for t, (rec, est) in enumerate(zip(lines, ests)):
        assert rec["first_query"] == t * rows and rec["samples"] == rows
        assert (rec["beta"], rec["delta"]) == (0.3, 0.1)
        assert rec["p_prime"] == est.p_prime.tolist()
        assert all(type(count) is int for row in rec["counts"] for count in row)
        counts, sums = np.array(rec["counts"]), np.array(rec["sums"])
        assert np.array_equal(counts, est.counts)
        values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        assert np.array_equal(values, est.values)  # bit for bit
        error = np.abs(est.values - game.mixed_payoff_table(est.p_prime))[est.counts > 0]
        assert rec["max_error"] == error.max()
    assert traced.qm_calls == 0


def test_kernel_bits_follow_the_batch_height():
    # n = 17 has 131072 pure profiles, too many for a payoff table
    game = lg.gen_linear_influence(17, 2, 1.0, seed=3)
    rng = np.random.default_rng(5)
    for rows in (1, 17, 4096, 5000):
        a = rng.integers(0, 2, size=(rows, 17)).astype(np.int8)
        fresh = lg.gen_linear_influence(17, 2, 1.0, seed=3)
        got = game.payoffs_batch(a.astype(np.float64))
        assert np.array_equal(got, fresh.payoffs_batch(a.astype(np.float64)))
        # at n = 17 a row's bits depend on the GEMM height: one GEMM per chunk
        want = [linear_payoffs(game, a[lo:lo + BATCH_ROWS]) for lo in range(0, rows, BATCH_ROWS)]
        assert np.array_equal(got, np.concatenate(want))
    assert game._table is None


def test_threads_sharing_a_fresh_game_reproduce_sequential_payoffs():
    # n = 7 and (k = 3) n = 8 race the payoff table's sliced build; n = 17 (k = 2)
    # and n = 11 (k = 3) the kernel, as those games have no table
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-kernel
    try:
        for k, n, dtype in ((2, 7, np.float64), (3, 8, np.int8),
                            (2, 17, np.float64), (3, 11, np.int8)):
            rng = np.random.default_rng(8)
            batches = [rng.integers(0, k, size=(rows, n)).astype(dtype)
                       for rows in (4096, 1, 5000, 17, 4096, 300, 8192, 2)]
            want = [lg.gen_linear_influence(n, k, 1.0, seed=9).payoffs_batch(a)
                    for a in batches]
            for _ in range(5):  # each round races the first builds on a fresh game
                game = lg.gen_linear_influence(n, k, 1.0, seed=9)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(game.payoffs_batch, batches, timeout=60))
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                assert (game._table is None) == (k ** n > TABLE_PROFILES)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", range(2, 17))
def test_payoff_table_answers_equal_the_reference(n):
    # every binary game with 2^n <= TABLE_PROFILES profiles answers from its table
    game = lg.gen_linear_influence(n, 2, 1.0, seed=n)
    rng = np.random.default_rng(n)
    for rows in (1, 2, 3, 5, 17, 100, 4095, 4096, 5000):
        a = rng.integers(0, 2, size=(rows, n)).astype(np.int8)
        want = linear_payoffs(game, a)
        for dtype in (np.float64, np.int8, np.int64):
            assert np.array_equal(game.payoffs_batch(a.astype(dtype)), want)
    assert game._table[0].shape == (2 ** n, n)


@pytest.mark.parametrize("n", range(13, 17))
def test_table_rows_equal_rows_of_a_full_chunk(n):
    # the bit-identity scan behind TABLE_PROFILES: a table row, computed in a
    # slice of at most BATCH_ROWS // 8 profiles, has the bits of the same row
    # inside a full sampling chunk and inside the partial last chunks
    game = lg.gen_linear_influence(n, 2, 1.0, seed=n)
    a = np.random.default_rng(n).integers(0, 2, size=(BATCH_ROWS, n)).astype(np.float64)
    want = np.empty((BATCH_ROWS, n))
    game._chunk_payoffs(a, want)
    for rows in (2, 3, 17, 256, 512, 1745, 4095):
        assert np.array_equal(game.payoffs_batch(a[:rows]), want[:rows])
    assert game._table is not None


def test_a_one_row_batch_stays_on_the_kernel():
    # numpy computes one row as a GEMV, whose low bits may differ from a GEMM row
    game = lg.gen_linear_influence(10, 2, 1.0, seed=1)
    a = np.random.default_rng(2).integers(0, 2, size=(1, 10)).astype(np.int8)
    assert np.array_equal(game.payoffs_batch(a), linear_payoffs(game, a))
    assert np.array_equal(game.payoffs(a[0]), linear_payoffs(game, a)[0])
    assert game._table is None
    game.payoffs_batch(np.repeat(a, 2, axis=0))
    assert np.array_equal(game.payoffs_batch(a), linear_payoffs(game, a))


@pytest.mark.parametrize("n", (16, 17))
def test_the_table_covers_at_most_table_profiles(n):
    game = lg.gen_linear_influence(n, 2, 1.0, seed=0)
    a = np.random.default_rng(0).integers(0, 2, size=(17, n)).astype(np.int8)
    assert np.array_equal(game.payoffs_batch(a), linear_payoffs(game, a))
    if n == 16:
        table, _ = game._table
        assert table.shape == (TABLE_PROFILES, 16) and not table.flags.writeable
    else:
        assert game._table is None


@pytest.mark.parametrize("n", (7, 12, 16))
def test_a_table_build_leaves_operands_one_slice_high(n):
    # the table is built BATCH_ROWS // 8 profiles at a time, so afterwards the
    # game holds no other array a slice high, and the build's peak beyond the
    # table stays within a few (slice, n k) float arrays
    game = lg.gen_linear_influence(n, 2, 1.0, seed=0)
    a = np.random.default_rng(0).integers(0, 2, size=(2, n)).astype(np.int8)
    height = min(2 ** n, BATCH_ROWS // 8)
    tracemalloc.start()
    try:
        game.payoffs_batch(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = [value for key, value in vars(game).items() if key != "_table"]
    held += [buf for bufs in vars(game._scratch).values() for buf in bufs]
    assert all(max(arr.shape) < height for arr in held if isinstance(arr, np.ndarray))
    assert peak - game._table[0].nbytes < 6 * height * n * 2 * 8
    assert np.array_equal(game.payoffs_batch(a[:1]), linear_payoffs(game, a[:1]))


SAMPLED_RUNS = {
    "plane": (2, lambda session: lg.plane_dynamics(
        session, lg.DynamicsParams(alpha=0.25, eta=0.2), "sampling", 0.6)),
    "block-update": (3, lambda session: lg.block_update(
        session, 3, mode="sampling", beta=0.6, delta=0.3)),
}


@pytest.mark.parametrize("run", sorted(SAMPLED_RUNS))
def test_traced_rows_equal_the_pure_queries_of_a_sampled_run(monkeypatch, run):
    # the table is built without going through payoffs_batch, so that every
    # row a wrapped payoffs_batch sees is one pure query, from either producer
    k, dynamics = SAMPLED_RUNS[run]
    seen = []
    batch = LinearInfluenceGame.payoffs_batch

    def counted(game, actions, out=None):
        seen.append((game, actions.shape[0]))
        return batch(game, actions, out)

    monkeypatch.setattr(LinearInfluenceGame, "payoffs_batch", counted)
    game = lg.gen_linear_influence(6, k, 1.0, seed=3)
    session = lg.OracleSession(game, seed=1)
    dynamics(session)
    assert game._table is not None
    assert all(g is game for g, _ in seen)
    assert sum(rows for _, rows in seen) == session.pure_queries > 0


def test_second_estimate_allocates_less_than_one_float_chunk():
    game = lg.gen_linear_influence(10, 2, 1.0, seed=4)
    session = lg.OracleSession(game, seed=2)
    probs = random_profile(10, 1).probs
    session.sample_mixed_binary(probs, 0.2, 0.01)  # builds the buffers and the table
    tracemalloc.start()
    try:
        est = session.sample_mixed_binary(probs, 0.2, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples > 10 * lg.OracleSession._CHUNK
    assert peak < lg.OracleSession._CHUNK * 10 * 8


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("method", ("sample_mixed_binary", "sample_mixed_kaction"))
def test_counts_equal_integer_sums_of_the_actions(monkeypatch, method, chunk):
    rows = chunk + chunk // 2 + 1
    monkeypatch.setattr(oracles, "binary_sample_count", lambda *args: rows)
    monkeypatch.setattr(oracles, "kaction_sample_count", lambda *args: rows)
    game = lg.gen_linear_influence(7, 2, 1.0, seed=2)
    session = lg.OracleSession(game, seed=4)
    session._CHUNK = chunk
    drawn = []
    pure_batch = session._pure_batch

    def record(actions, out=None):
        drawn.append(actions.copy())
        return pure_batch(actions, out)

    session._pure_batch = record
    est = getattr(session, method)(random_profile(7, 6).probs, 0.3, 0.05)
    ones = np.concatenate(drawn).sum(axis=0, dtype=np.int64)
    assert np.array_equal(est.counts[:, 1], ones)
    assert np.array_equal(est.counts[:, 0], rows - ones)
