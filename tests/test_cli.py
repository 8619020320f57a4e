import json
import re
from pathlib import Path

import numpy as np
import pytest

import largegames as lg
from largegames import families, runner
from largegames.cli import main


def test_generate_descriptor_roundtrip(tmp_path):
    out = tmp_path / "game.json"
    assert main(["generate", "--family", "linear-influence", "--n", "12",
                 "--c", "1.0", "--seed", "7", "--out", str(out)]) == 0
    desc = json.loads(out.read_text())
    assert desc == {"family": "linear-influence",
                    "params": {"n": 12, "k": 2, "c": 1.0}, "seed": 7}
    g1 = families.game_from_json(out.read_text())
    g2 = families.game_from_json(out.read_text())
    assert np.array_equal(g1.weights, g2.weights)


def test_generate_materialized_tensor(tmp_path):
    out = tmp_path / "tiny.json"
    assert main(["generate", "--family", "tiny-tensor", "--n", "3", "--k", "2",
                 "--gamma", "0.3333333333333333", "--seed", "1",
                 "--materialize", "--out", str(out)]) == 0
    game = families.game_from_json(out.read_text())
    assert isinstance(game, lg.TensorGame)
    assert lg.check_largeness(game, 1 / 3).ok


def test_generate_lower_bound_reproducible(tmp_path):
    out = tmp_path / "lb.json"
    main(["generate", "--family", "lower-bound", "--n", "10", "--ell", "4",
          "--seed", "1", "--out", str(out)])
    bits1 = families.game_from_json(out.read_text()).base.bits
    bits2 = families.game_from_json(out.read_text()).base.bits
    assert np.array_equal(bits1, bits2)


def test_run_writes_reports_and_traces(tmp_path):
    out = tmp_path / "reports"
    trace = tmp_path / "trace_{seed}.jsonl"
    code = main(["run", "--algo", "one-step", "--family", "linear-influence",
                 "--n", "20", "--c", "1.0", "--oracle", "exact",
                 "--seeds", "0:3", "--out", str(out), "--trace", str(trace)])
    assert code == 0
    for seed in range(3):
        report = json.loads((out / f"report_seed{seed}.json").read_text())
        assert report["algorithm"] == "one-step"
        assert report["seed"] == seed
        assert report["max_regret"] <= 0.272 + 1e-9
        assert report["bound_ok"] is True
        assert report["qm_calls"] == 1


def test_run_flow_writes_trajectory(tmp_path):
    out = tmp_path / "flow"
    code = main(["run", "--algo", "plane-flow", "--family", "linear-influence",
                 "--n", "6", "--c", "1.0", "--seeds", "0:1", "--out", str(out),
                 "--step-h", "0.01", "--horizon", "0.2"])
    assert code == 0
    lines = (out / "trajectory_seed0.csv").read_text().splitlines()
    assert lines[0] == "t,player,v1,v0,p,d"
    assert len(lines) == 1 + 21 * 6


def test_algo_c_reaches_curve_flow(capsys):
    def digest(*extra):
        assert main(["run", "--algo", "curve-flow", "--n", "6", "--seeds", "0:1",
                     "--step-h", "0.01", *extra]) == 0
        return json.loads(capsys.readouterr().out)["final_profile_digest"]

    assert digest("--algo-c", "4.0") != digest()


@pytest.mark.parametrize("algo,params,expected", [
    ("curve-flow", {"c": 4.0}, {"c": 4.0, "step_h": 0.01, "horizon": 0.2}),
    ("curve-flow", {}, {"c": 1.0, "step_h": 0.01, "horizon": 0.2}),
    ("plane-flow", {"c": 4.0}, {"step_h": 0.01, "horizon": 0.2}),
])
def test_flow_report_records_every_param_read(algo, params, expected):
    config = runner.ExperimentConfig(
        family={"family": "linear-influence", "params": {"n": 6, "k": 2, "c": 1.0}},
        algo=algo, algo_params={**params, "step_h": 0.01, "horizon": 0.2}, seeds=[0])
    report, _, _ = runner.run_one(config, 0)
    assert report.params == expected


def test_readme_lists_the_algorithm_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    line = readme.split("Algorithms:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", line) == list(runner.ALGOS)


def test_trace_template_required_for_many_seeds():
    with pytest.raises(ValueError):
        runner.ExperimentConfig(
            family={"family": "linear-influence", "params": {"n": 4, "k": 2, "c": 1.0}},
            algo="one-step", seeds=[0, 1], trace="one_file.jsonl")


def test_run_nonzero_exit_on_bound_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "theoretical_bound", lambda *a, **k: -1.0)
    code = main(["run", "--algo", "uniform", "--family", "linear-influence",
                 "--n", "5", "--c", "1.0", "--seeds", "0:1",
                 "--out", str(tmp_path / "r")])
    assert code == 3


def test_run_from_config_file(tmp_path):
    config = {
        "family": {"family": "linear-influence", "params": {"n": 10, "k": 2, "c": 1.0}},
        "algo": "plane",
        "algo_params": {"alpha": 0.125, "eta": 0.1},
        "oracle": "exact",
        "seeds": [4],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "reports"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report_seed4.json").read_text())
    assert report["algorithm"] == "plane"
    assert report["max_regret"] <= 0.25 + 1e-9


def test_sweep_deterministic_bytes(tmp_path):
    args = ["sweep", "--algo", "one-step,two-step", "--family", "linear-influence",
            "--n", "15", "--c", "0.5,1.0", "--seeds", "0:3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("algorithm,family,n,c,k,")
    assert len(lines) == 1 + 2 * 2 * 3


def test_sweep_empty_grid_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--algo", "one-step", "--seeds", "", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [",".join(runner.SWEEP_COLUMNS)]


def test_sweep_timing_column_optional(tmp_path):
    out = tmp_path / "t.csv"
    main(["sweep", "--algo", "uniform", "--n", "5", "--c", "1.0",
          "--seeds", "0:1", "--timing", "--out", str(out)])
    header = out.read_text().splitlines()[0]
    assert header.endswith(",wall_ms")


def test_sweep_compare_bounds(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["sweep", "--compare-bounds", "--c", "0.5,1,2,4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,curve_bound,block_bound"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 4
    for row in rows:
        assert float(row[1]) <= float(row[2])


def test_sweep_bu_bounds(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["sweep", "--bu-bounds", "--c", "0.25,1", "--k-grid", "2,3",
                 "--blocks-grid", "50,200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,k,N,epsilon_case,epsilon"
    assert len(lines) == 1 + 2 * 2 * 2


def test_sweep_sampling_query_counts_match_formula():
    import math

    rows = runner.sweep_rows(["plane"], "linear-influence", ns=[5], cs=[1.0],
                             ks=[2], alphas=[0.2, 0.3], blocks_grid=[100],
                             seeds=[0], oracle="sampling", eta=0.1, beta=0.5)
    assert len(rows) == 2
    for row in rows:
        params = lg.DynamicsParams(alpha=row["alpha"], eta=0.1)
        per_call = math.ceil(64 / 0.5 ** 3 * math.log(8 * 5 * params.rounds / 0.1))
        assert row["pure_queries"] == (params.rounds + 1) * per_call
        assert row["qm_calls"] == 0


def test_parallel_seeds_match_sequential(monkeypatch):
    config = runner.ExperimentConfig(
        family={"family": "linear-influence", "params": {"n": 12, "k": 2, "c": 1.0}},
        algo="two-step", seeds=[0, 1, 2, 3, 4])
    monkeypatch.setenv("LGL_THREADS", "1")
    sequential = [r.to_json() for r in runner.run_many(config)]
    monkeypatch.setenv("LGL_THREADS", "4")
    parallel = [r.to_json() for r in runner.run_many(config)]
    assert sequential == parallel


def test_thread_cap_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("LGL_THREADS", "abc")
    with pytest.raises(ValueError, match="LGL_THREADS must be an integer, got 'abc'"):
        runner.max_workers()
    monkeypatch.setenv("LGL_THREADS", "1")
    assert runner.max_workers() == 1


@pytest.mark.parametrize("argv,threads,message", [
    (["run", "--algo", "plane", "--n", "6", "--seeds", "0:2"], "abc",
     "LGL_THREADS must be an integer, got 'abc'"),
    (["run", "--algo", "plane", "--n", "6", "--seeds", "3:1"], None,
     "seed range '3:1' is empty"),
    (["sweep", "--algo", "plane", "--n", "6", "--seeds", "2:2"], None,
     "seed range '2:2' is empty"),
])
def test_input_errors_exit_2_with_one_line(capsys, monkeypatch, argv, threads, message):
    if threads is not None:
        monkeypatch.setenv("LGL_THREADS", threads)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_verify_mismatched_profile_is_an_input_error(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    main(["generate", "--n", "4", "--seed", "1", "--out", str(game_path)])
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"binary": [0.5] * 3}))
    assert main(["verify", "--game", str(game_path), "--profile", str(profile_path),
                 "--eps", "0.1"]) == 2
    assert capsys.readouterr().err == "error: profile shape does not match game\n"


def test_missing_input_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"binary": [0.5] * 4}))
    assert main(["verify", "--game", str(missing), "--profile", str(profile_path),
                 "--eps", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert captured.out == ""
    assert main(["run", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_verify_pass_and_fail(tmp_path):
    game_path = tmp_path / "game.json"
    main(["generate", "--family", "linear-influence", "--n", "8", "--c", "1.0",
          "--seed", "3", "--out", str(game_path)])
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"binary": [0.5] * 8}))
    assert main(["verify", "--game", str(game_path), "--profile", str(profile_path),
                 "--eps", "0.5"]) == 0
    assert main(["verify", "--game", str(game_path), "--profile", str(profile_path),
                 "--eps", "0.001"]) == 1


def _tensor_from_independent(values):
    n, k = values.shape
    tensor = np.zeros((n,) + (k,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = k
        tensor[i] = np.broadcast_to(values[i].reshape(shape), (k,) * n)
    return tensor


def test_verify_probs_profile_on_kaction_game(tmp_path):
    game = lg.gen_tiny_tensor(3, 3, 0.5, seed=2)
    game_path = tmp_path / "g.json"
    game_path.write_text(game.to_json())
    profile_path = tmp_path / "p.json"
    profile_path.write_text(json.dumps({"probs": [[1 / 3] * 3] * 3}))
    assert main(["verify", "--game", str(game_path), "--profile", str(profile_path),
                 "--eps", "0.51"]) == 0


def test_generate_materialize_rejects_structured_families(tmp_path):
    code = main(["generate", "--family", "lower-bound", "--n", "6", "--ell", "4",
                 "--seed", "0", "--materialize", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_verify_reports_regret(tmp_path, capsys):
    values = np.tile([0.3, 0.7], (4, 1))
    game_path = tmp_path / "ind.json"
    game_path.write_text(lg.TensorGame(_tensor_from_independent(values), c=1.0).to_json())
    profile_path = tmp_path / "p.json"
    profile_path.write_text(json.dumps({"binary": [0.5] * 4}))
    code = main(["verify", "--game", str(game_path), "--profile", str(profile_path),
                 "--eps", "0.1"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["max_regret"] == pytest.approx(0.2)
