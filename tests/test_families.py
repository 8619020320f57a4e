import json

import numpy as np
import pytest

import largegames as lg
from largegames import binary, blocks, continuous, families, oracles, runner
from largegames.cli import main
from largegames.games import BATCH_ROWS
from references import enumerated_table, pairwise_payoffs


# ---------------------------------------------------------------------------
# linear influence

def test_linear_influence_largeness_exhaustive():
    g = lg.gen_linear_influence(3, 2, 1.0, seed=7)
    assert lg.check_largeness(g, 1.0 / 3).ok


def test_linear_influence_largeness_sampled_many():
    g = lg.gen_linear_influence(60, 2, 1.0, seed=5)
    rep = lg.check_largeness(g, g.gamma, mode="sampled", trials=10_000, seed=0)
    assert rep.ok and rep.tested > 9000


def test_zero_budget_means_independence():
    g = lg.gen_linear_influence(4, 2, 0.0, seed=2)
    a = np.zeros(4, dtype=int)
    base = g.payoffs(a)
    for j in range(1, 4):
        dev = a.copy()
        dev[j] = 1
        assert g.payoffs(dev)[0] == base[0]
    # discrepancies identical across opponent profiles
    t1 = lg.mixed_payoff_table(g, lg.MixedProfile.from_binary([0.5, 0.0, 0.0, 0.0]))
    t2 = lg.mixed_payoff_table(g, lg.MixedProfile.from_binary([0.5, 1.0, 1.0, 1.0]))
    assert np.allclose(t1, t2)


def test_linear_influence_exact_table_matches_enumeration():
    g = lg.gen_linear_influence(3, 2, 1.0, seed=1)
    probs = np.array([[0.25, 0.75], [0.6, 0.4], [0.5, 0.5]])
    p = lg.MixedProfile(probs)
    table = lg.mixed_payoff_table(g, p)
    enumerated = enumerated_table(g, probs)
    for i in range(3):
        for j in range(2):
            assert table[i, j] == pytest.approx(enumerated[i, j], abs=1e-12)


def test_linear_influence_monte_carlo_agreement():
    g = lg.gen_linear_influence(6, 2, 1.0, seed=8)
    rng = np.random.default_rng(0)
    p_one = rng.random(6)
    table = lg.mixed_payoff_table(g, lg.MixedProfile.from_binary(p_one))
    draws = 10 ** 6
    actions = (rng.random((draws, 6)) < p_one).astype(np.int8)
    payoffs = g.payoffs_batch(actions)
    for i in range(6):
        for j in range(2):
            forced = actions.copy()
            forced[:, i] = j
            mc = g.payoffs_batch(forced)[:, i].mean()
            assert abs(table[i, j] - mc) <= 3e-3


def _profiles(n, k, rng):
    random = rng.random((n, k))
    yield np.full((n, k), 1.0 / k)
    yield np.eye(k)[rng.integers(0, k, size=n)]
    yield random / random.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_linear_influence_table_is_the_einsum_bit_for_bit(k):
    rng = np.random.default_rng(k)
    for n in (2, 7, 20, 50, 100):
        g = lg.gen_linear_influence(n, k, 1.0, seed=n)
        # einsum's summation order depends on strides: use the (i, l, j, b) layout
        weights = np.ascontiguousarray(g.weights)
        for probs in _profiles(n, k, rng):
            reference = np.einsum("iljb,lb->ij", weights, probs)
            expected = (1.0 - g.mu) * g.base + g.mu / (n - 1) * reference
            assert np.array_equal(g.mixed_payoff_table(probs), expected)


@pytest.mark.parametrize("n,k", [(2, 6), (3, 4), (5, 3), (6, 2)])
def test_linear_influence_table_matches_enumeration_small_n(n, k):
    rng = np.random.default_rng(10 * n + k)
    g = lg.gen_linear_influence(n, k, 1.0, seed=k)
    for probs in _profiles(n, k, rng):
        table = g.mixed_payoff_table(probs)
        slow = enumerated_table(g, probs)
        assert np.allclose(table, slow, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_linear_influence_batch_matches_stacked_payoffs(k):
    rng = np.random.default_rng(k)
    g = lg.gen_linear_influence(9, k, 0.7, seed=k)
    actions = rng.integers(0, k, size=(64, 9)).astype(np.int8)
    stacked = np.stack([pairwise_payoffs(g, a) for a in actions])
    assert np.allclose(g.payoffs_batch(actions), stacked, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n,k", [(10, 2), (100, 2), (10, 3), (100, 3), (7, 4)])
def test_tall_batch_equals_its_chunks_bit_for_bit(n, k):
    g = lg.gen_linear_influence(n, k, 1.0, seed=n + k)
    rows = 2 * BATCH_ROWS + 904
    actions = np.random.default_rng(k).integers(0, k, size=(rows, n)).astype(np.int8)
    chunks = [g.payoffs_batch(actions[lo:lo + BATCH_ROWS]) for lo in range(0, rows, BATCH_ROWS)]
    assert np.array_equal(g.payoffs_batch(actions), np.concatenate(chunks))


def test_linear_influence_weights_read_only_without_self_influence():
    rng = np.random.default_rng(4)
    raw = rng.random((5, 5, 3, 3))
    g = lg.LinearInfluenceGame(rng.random((5, 3)), raw, c=1.0)
    assert g.weights.shape == (5, 5, 3, 3)
    assert not g.weights.flags.writeable
    with pytest.raises(ValueError):
        g.weights[0, 1, 0, 0] = 1.0
    assert np.all(g.weights[np.arange(5), np.arange(5)] == 0.0)
    off = ~np.eye(5, dtype=bool)
    assert np.array_equal(g.weights[off], raw[off])
    assert np.all(raw[np.arange(5), np.arange(5)] > 0.0)  # the input is not modified


@pytest.mark.parametrize("part,index,value,message", [
    ("base", (0, 0), np.nan, "base payoffs must be finite"),
    ("base", (1, 1), np.inf, "base payoffs must be finite"),
    ("base", (0, 1), 1.5, r"base payoffs must lie in \[0, 1\]"),
    ("base", (1, 0), -0.1, r"base payoffs must lie in \[0, 1\]"),
    ("weights", (0, 1, 0, 1), np.nan, "weights must be finite"),
    ("weights", (1, 0, 1, 1), -np.inf, "weights must be finite"),
    ("weights", (0, 1, 1, 0), 5.0, r"weights must lie in \[0, 1\]"),
    ("weights", (1, 1, 0, 0), -1.0, r"weights must lie in \[0, 1\]"),
])
def test_linear_influence_rejects_bad_payoff_entries(part, index, value, message):
    rng = np.random.default_rng(0)
    arrays = {"base": rng.random((2, 2)), "weights": rng.random((2, 2, 2, 2))}
    arrays[part][index] = value
    with pytest.raises(ValueError, match=message):
        lg.LinearInfluenceGame(arrays["base"], arrays["weights"], 1.0)


@pytest.mark.parametrize("n,c,message", [(1, 1.0, "needs n >= 2 players")] + [
    (3, c, "influence budget c must be finite and nonnegative")
    for c in (-5.0, -1e-9, np.nan, np.inf, -np.inf)])
def test_linear_influence_rejects_one_player_or_a_bad_budget(n, c, message):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        lg.LinearInfluenceGame(rng.random((n, 2)), rng.random((n, n, 2, 2)), c)


def test_linear_influence_kernels_are_patchable_class_attributes():
    # the benchmark tracer wraps each of these through vars(owner)
    patched = {
        lg.LinearInfluenceGame: ("payoffs_batch", "mixed_payoff_table"),
        oracles.OracleSession: ("sample_mixed_binary", "sample_mixed_kaction", "exact_mixed"),
        binary: ("one_step", "two_step", "plane_dynamics", "communication_dynamics",
                 "curve_dynamics", "build_report"),
        blocks: ("block_update", "build_report"),
        continuous: ("simulate_plane_flow", "simulate_curve_flow"),
        families: ("make_game",),
        runner: ("build_report", "run_one"),
    }
    for owner, attrs in patched.items():
        for attr in attrs:
            assert callable(vars(owner).get(attr)), (owner, attr)


def test_generators_are_pure_functions_of_seed():
    a = lg.gen_linear_influence(6, 3, 0.8, seed=123)
    b = lg.gen_linear_influence(6, 3, 0.8, seed=123)
    assert np.array_equal(a.base, b.base) and np.array_equal(a.weights, b.weights)
    c = lg.gen_linear_influence(6, 3, 0.8, seed=124)
    assert not np.array_equal(a.weights, c.weights)


def test_linear_influence_validation():
    with pytest.raises(ValueError):
        lg.gen_linear_influence(1, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        lg.gen_linear_influence(4, 1, 1.0, seed=0)
    with pytest.raises(ValueError):
        lg.gen_linear_influence(4, 2, 5.0, seed=0)


# ---------------------------------------------------------------------------
# hidden-bit stochastic family

def test_lower_bound_means_and_gap():
    game = lg.gen_lower_bound(10, 4.0, seed_for_b=1)
    base = game.base
    assert isinstance(base, lg.LowerBoundGame)
    assert base.gap == pytest.approx(0.5)
    values = base.values
    picked = values[np.arange(10), base.bits]
    other = values[np.arange(10), 1 - base.bits]
    assert np.all(picked == 0.75) and np.all(other == 0.25)


def test_lower_bound_bits_reproducible():
    a = lg.gen_lower_bound(12, 3.0, seed_for_b=9).base.bits
    b = lg.gen_lower_bound(12, 3.0, seed_for_b=9).base.bits
    assert np.array_equal(a, b)


def test_lower_bound_regret_structure():
    game = lg.gen_lower_bound(6, 4.0, seed_for_b=3)
    bits = game.base.bits
    on_bits = lg.MixedProfile.pure(bits, 2)
    rep = lg.regret_report(game, on_bits)
    assert rep.max_regret == 0.0
    off_bits = lg.MixedProfile.pure(1 - bits, 2)
    rep = lg.regret_report(game, off_bits)
    assert rep.max_regret == pytest.approx(0.5)
    # regret is linear in the mass missing from the hidden action
    for mass in (0.25, 0.6, 0.9):
        p_one = np.where(bits == 1, mass, 1.0 - mass)
        rep = lg.regret_report(game, lg.MixedProfile.from_binary(p_one))
        assert rep.max_regret == pytest.approx(game.base.gap * (1 - mass), abs=1e-12)


def test_lower_bound_rejects_small_ell():
    with pytest.raises(ValueError):
        lg.gen_lower_bound(4, 2.0, seed_for_b=0)


# ---------------------------------------------------------------------------
# tiny tensor

def tiny_tensor_raw(n, k, seed):
    """The uniform draw ``gen_tiny_tensor`` rescales."""
    return np.random.default_rng(seed).random((n,) + (k,) * n)


def test_tiny_tensor_unrestricted_at_full_band():
    g = lg.gen_tiny_tensor(2, 2, 1.0, seed=4)
    assert np.array_equal(g.tensor, tiny_tensor_raw(2, 2, seed=4))
    assert g.tensor.min() >= 0 and g.tensor.max() <= 1


def test_tiny_tensor_largeness_by_construction():
    g = lg.gen_tiny_tensor(3, 2, 1.0 / 3.0, seed=6)
    assert lg.check_largeness(g, 1.0 / 3.0).ok
    span = g.tensor.max() - g.tensor.min()
    assert span <= 1.0 / 3.0 + 1e-12


def test_tiny_tensor_rescale_preserves_best_responses():
    g = lg.gen_tiny_tensor(3, 3, 0.2, seed=11)
    raw = tiny_tensor_raw(3, 3, seed=11)
    for a_rest in np.ndindex(3, 3):
        raw_row = [raw[(0, j) + a_rest] for j in range(3)]
        scaled_row = [g.tensor[(0, j) + a_rest] for j in range(3)]
        assert int(np.argmax(raw_row)) == int(np.argmax(scaled_row))


def test_tiny_tensor_size_guard():
    with pytest.raises(ValueError):
        lg.gen_tiny_tensor(7, 4, 0.5, seed=0)


# ---------------------------------------------------------------------------
# descriptors

def test_descriptor_roundtrip_identical_game():
    desc = families.descriptor("linear-influence", {"n": 8, "k": 2, "c": 1.0}, seed=7)
    text = families.descriptor_to_json(desc)
    g1 = families.game_from_json(text)
    g2 = families.game_from_json(text)
    assert np.array_equal(g1.weights, g2.weights)
    p = lg.MixedProfile.uniform(8, 2)
    assert np.array_equal(lg.mixed_payoff_table(g1, p), lg.mixed_payoff_table(g2, p))


def test_descriptor_all_families():
    for family, params in [("linear-influence", {"n": 4, "k": 2, "c": 0.5}),
                           ("lower-bound", {"n": 4, "ell": 5.0}),
                           ("tiny-tensor", {"n": 3, "k": 2, "gamma": 0.25})]:
        game = families.make_game(family, params, seed=1)
        assert game.n == 4 or family == "tiny-tensor"
        desc = json.loads(families.descriptor_to_json(
            families.descriptor(family, params, 1)))
        again = families.game_from_descriptor(desc)
        assert type(again) is type(game)


# each family with n and every param it reads, and a family flag it does not read
FAMILY_PARAMS = [
    ("linear-influence", {"n": 4, "k": 3, "c": 0.5}, "ell"),
    ("lower-bound", {"n": 4, "ell": 5.0}, "k"),
    ("tiny-tensor", {"n": 3, "k": 2, "c": 0.9, "gamma": 0.25}, "ell"),
]


@pytest.mark.parametrize("family,params,other", FAMILY_PARAMS)
def test_each_family_builds_from_the_params_it_reads_and_rejects_another(
        tmp_path, capsys, family, params, other):
    assert params.keys() == {"n", *families.FAMILIES[family][1]}
    built = families.game_from_descriptor(families.descriptor(family, params, 1))
    probs = lg.MixedProfile.uniform(built.n, built.k)
    table = lg.mixed_payoff_table(built, probs)

    # the CLI writes the same params, and the descriptor rebuilds the same game
    out = tmp_path / "game.json"
    flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    assert main(["generate", "--family", family, *flags, "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"] == params
    again = families.game_from_json(out.read_text())
    assert np.array_equal(lg.mixed_payoff_table(again, probs), table)
    config = runner.ExperimentConfig(family={"family": family, "params": params},
                                     algo="uniform", seeds=[1])
    assert runner.run_one(config, 1)[0].n == built.n

    message = f"family {family!r} does not read {other!r}"
    with pytest.raises(ValueError, match=message):
        families.game_from_descriptor(families.descriptor(family, params | {other: 2}, 1))
    with pytest.raises(ValueError, match=message):
        runner.ExperimentConfig(family={"family": family, "params": params | {other: 2}},
                                algo="uniform")
    assert main(["generate", "--family", family, *flags, f"--{other}", "2"]) == 2
    assert capsys.readouterr().err == f"error: family {family!r} does not read --{other}\n"


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        families.make_game("nope", {"n": 3}, seed=0)
