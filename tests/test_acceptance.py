"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

import largegames as lg
from largegames.binary import plane_residual
from largegames.blocks import TruncatedTriangle
from largegames.cli import main
from references import block_regret_cap, brute_force_max_left_sum


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {num:02d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_uniform_baseline():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        g = lg.gen_linear_influence(50, 2, 1.0, seed=seed)
        worst = max(worst, lg.regret_report(g, lg.MixedProfile.uniform(50)).max_regret)
    _report(1, "uniform baseline regret <= 1/2", worst <= 0.5 + 1e-12,
            f"worst {worst:.4f}, {time.time() - start:.1f}s")


def test_criterion_02_one_step():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        g = lg.gen_linear_influence(50, 2, 1.0, seed=seed)
        _, report = lg.one_step(lg.OracleSession(g, seed=seed))
        worst = max(worst, report.max_regret)
    _report(2, "one-step regret <= 0.272", worst <= 0.272 + 1e-9,
            f"worst {worst:.4f}, {time.time() - start:.1f}s")


def test_criterion_03_two_step():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        g = lg.gen_linear_influence(50, 2, 1.0, seed=seed)
        _, report = lg.two_step(lg.OracleSession(g, seed=seed))
        worst = max(worst, report.max_regret)
    _report(3, "two-step regret <= 0.25", worst <= 0.25 + 1e-9,
            f"worst {worst:.4f}, {time.time() - start:.1f}s")


def test_criterion_04_banded_dynamics_exact():
    start = time.time()
    ok = True
    details = []
    for alpha in (0.05, 0.125):
        params = lg.DynamicsParams(alpha=alpha)
        worst_regret, worst_resid = 0.0, 0.0
        for seed in range(50):
            g = lg.gen_linear_influence(100, 2, 1.0, seed=seed)
            profile, report = lg.plane_dynamics(lg.OracleSession(g, seed=seed), params)
            table = lg.mixed_payoff_table(g, profile)
            resid = np.abs(plane_residual(table[:, 1], table[:, 0], profile.binary()))
            worst_resid = max(worst_resid, resid.max())
            worst_regret = max(worst_regret, report.max_regret)
        ok &= worst_resid <= params.band + 1e-9
        ok &= worst_regret <= 1 / 8 + alpha + 1e-9
        details.append(f"a={alpha}: resid {worst_resid:.4f}<= {params.band:.4f}, "
                       f"regret {worst_regret:.4f}")
    _report(4, "banded dynamics exact: in-band and regret <= 1/8 + alpha", ok,
            "; ".join(details) + f", {time.time() - start:.1f}s")


def test_criterion_05_banded_dynamics_sampling():
    start = time.time()
    n, beta, eta = 10, 0.2, 0.1
    params = lg.DynamicsParams(alpha=0.125, eta=eta)
    rounds = params.rounds
    expected = (rounds + 1) * math.ceil(64 / beta ** 3 * math.log(8 * n * rounds / eta))
    counters_ok = True
    hits = 0
    for seed in range(50):
        g = lg.gen_linear_influence(n, 2, 1.0, seed=seed)
        sess = lg.OracleSession(g, seed=seed)
        _, report = lg.plane_dynamics(sess, params, mode="sampling", sample_beta=beta)
        counters_ok &= report.pure_queries == expected
        if report.max_regret <= 1 / 8 + params.alpha + 3 * beta:
            hits += 1
    _report(5, "sampling mode: exact query count and relaxed regret", counters_ok and hits >= 45,
            f"count {expected} per run, {hits}/50 within bound, {time.time() - start:.1f}s")


def test_criterion_06_sampling_concentration():
    start = time.time()
    n, beta, delta = 5, 0.25, 0.1
    g = lg.gen_linear_influence(n, 2, 1.0, seed=0)
    p = lg.MixedProfile.uniform(n)
    exact = None
    good = 0
    for s in range(200):
        est = lg.OracleSession(g, seed=10_000 + s).sample_mixed_binary(p.probs, beta, delta)
        if exact is None:
            exact = lg.mixed_payoff_table(g, lg.MixedProfile(est.p_prime))
        if np.abs(est.values - exact).max() <= beta:
            good += 1
    _report(6, "sampled estimates within beta in >= 85% of sessions", good >= 170,
            f"{good}/200, {time.time() - start:.1f}s")


def test_criterion_07_communication_variant():
    start = time.time()
    params = lg.DynamicsParams(alpha=0.05)
    bound = 137 / 1100 + params.alpha + 1e-9
    worst = 0.0
    for seed in range(50):
        g = lg.gen_linear_influence(100, 2, 1.0, seed=seed)
        _, report = lg.communication_dynamics(lg.OracleSession(g, seed=seed), params)
        worst = max(worst, report.max_regret)
    _report(7, "communication variant regret <= 137/1100 + alpha", worst <= bound,
            f"worst {worst:.4f} vs {bound:.4f}, {time.time() - start:.1f}s")


def test_criterion_08_curve_dynamics_budgets():
    start = time.time()
    params = lg.DynamicsParams(alpha=0.05)
    ok = True
    details = []
    for c in (0.5, 1.0, 2.0, 4.0):
        bound = lg.curve_regret_bound(c, params.alpha) + 1e-9
        worst = 0.0
        for seed in range(20):
            g = lg.gen_linear_influence(100, 2, c, seed=seed)
            _, report = lg.curve_dynamics(lg.OracleSession(g, seed=seed), params)
            worst = max(worst, report.max_regret)
        ok &= worst <= bound
        details.append(f"c={c}: {worst:.4f}<={bound:.4f}")
    _report(8, "curve dynamics regret within budget bound", ok,
            "; ".join(details) + f", {time.time() - start:.1f}s")


def test_criterion_09_block_update_grid():
    start = time.time()
    ok = True
    worst_slack = 0.0
    for c in (0.25, 1.0, 4.0):
        for k in (2, 3, 8):
            for blocks in (50, 200):
                bound = lg.block_update_bound(c, k, blocks) + 1e-9
                for seed in range(2):
                    g = lg.gen_linear_influence(50, k, c, seed=seed)
                    profile, report, alloc = lg.block_update(
                        lg.OracleSession(g, seed=seed), blocks)
                    ok &= report.max_regret <= bound
                    table = lg.mixed_payoff_table(g, profile)
                    gaps = table.max(axis=1)[:, None] - table
                    for t in range(blocks):
                        cap = block_regret_cap(c, blocks, t + 1) + 1e-9
                        chosen = gaps[np.arange(50), alloc[:, t]]
                        ok &= bool(np.all(chosen <= cap))
                        worst_slack = max(worst_slack, float(chosen.max() - cap))
    _report(9, "block update: bound and per-block ceilings on full grid", ok,
            f"{time.time() - start:.1f}s")


def test_criterion_10_left_sum_oracle_equivalence():
    start = time.time()
    worst = 0.0
    cells = 0
    for b in (0.5, 1.0, 1.5):
        for h in (0.5, 1.0, 2.0, 4.0):
            for k in (2, 4):
                tri = TruncatedTriangle(b, h)
                closed, _ = lg.max_left_sum(tri, k)
                brute = brute_force_max_left_sum(tri, k, pitch=1e-3)
                worst = max(worst, abs(closed - brute))
                cells += 1
    _report(10, "closed-form max left sums match grid brute force", worst <= 2e-3,
            f"{cells} cells, worst gap {worst:.2e}, {time.time() - start:.1f}s")


def test_criterion_11_continuous_flow_reach_and_stay():
    start = time.time()
    h = 1e-3
    ok = True
    worst_entry = 0.0
    for seed in range(10):
        g = lg.gen_linear_influence(20, 2, 1.0, seed=seed)
        tr = lg.simulate_plane_flow(g, h, 1.0)
        entry = tr.first_inside().max()
        worst_entry = max(worst_entry, entry)
        ok &= entry <= 0.5 + 2 * h + 1e-12
        ok &= tr.stays_inside(0.5 + 2 * h)
    _report(11, "continuous flow reaches the plane band by t = 1/2 and stays", ok,
            f"latest entry {worst_entry:.3f}, {time.time() - start:.1f}s")


def test_criterion_12_method_comparison_table():
    start = time.time()
    rows = lg.compare_methods([0.5, 1.0, 2.0, 4.0])
    expected = {0.5: (0.5 / 8, 0.5 / 2), 1.0: (1 / 8, 1 / 2),
                2.0: (2 / 8, 1 - 1 / 4), 4.0: (0.5 - 1 / 8, 1 - 1 / 8)}
    ok = True
    for row in rows:
        curve, block = expected[row["c"]]
        ok &= abs(row["curve_bound"] - curve) <= 1e-12
        ok &= abs(row["block_bound"] - block) <= 1e-12
        ok &= row["curve_bound"] <= row["block_bound"]
    _report(12, "bound comparison table reproduced row-for-row", ok,
            f"{time.time() - start:.1f}s")


def test_criterion_13_deterministic_csv(tmp_path):
    start = time.time()
    args = ["sweep", "--algo", "one-step,plane", "--family", "linear-influence",
            "--n", "20", "--c", "1.0", "--alpha", "0.125", "--seeds", "0:3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    _report(13, "repeated sweep produces byte-identical CSV",
            a.read_bytes() == b.read_bytes(), f"{time.time() - start:.1f}s")
