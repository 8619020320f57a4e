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
                 "--n", "20", "--c", "1.0", "--oracle", "sampling", "--beta", "0.5",
                 "--seeds", "0:3", "--out", str(out), "--trace", str(trace)])
    assert code == 0
    for seed in range(3):
        report = json.loads((out / f"report_seed{seed}.json").read_text())
        assert report["algorithm"] == "one-step"
        assert report["seed"] == seed
        assert report["params"]["sample_beta"] == 0.5  # and the default delta
        assert report["params"]["sample_delta"] == 0.05
        assert report["qm_calls"] == 0 and report["pure_queries"] > 0
        lines = (tmp_path / f"trace_{seed}.jsonl").read_text().splitlines()
        assert len(lines) == 1  # one line per estimate; one-step makes one
        assert json.loads(lines[0])["samples"] == report["pure_queries"]


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


def test_readme_lists_the_verifiers():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    bullet = readme.split("- **Exact verifiers**", 1)[1].split("\n- ", 1)[0]
    names = re.findall(r"`([^`]+)`", bullet)
    assert "regret_report" in names and "check_largeness" in names
    for name in names:
        path = name.removeprefix("largegames.").split(".")
        for owner in (lg, lg.Game):
            obj = owner
            for part in path:
                obj = getattr(obj, part, None)
            if obj is not None:
                break
        assert obj is not None, name


def test_trace_template_required_for_many_seeds():
    with pytest.raises(ValueError):
        runner.ExperimentConfig(
            family={"family": "linear-influence", "params": {"n": 4, "k": 2, "c": 1.0}},
            algo="one-step", seeds=[0, 1], trace="one_file.jsonl")


def test_a_refused_algo_param_leaves_no_trace_file(tmp_path):
    path = tmp_path / "t.jsonl"
    config = runner.ExperimentConfig(
        family={"family": "linear-influence", "params": {"n": 6}}, algo="block-update",
        algo_params={"blocks": "x"}, oracle="sampling", trace=str(path), seeds=[0])
    with pytest.raises(ValueError):
        runner.run_one(config, 0)
    assert not path.exists()


def test_traces_are_byte_identical_across_thread_caps_and_reruns(monkeypatch, tmp_path):
    traces = []
    for run, threads in enumerate(("1", "2", "2")):
        monkeypatch.setenv("LGL_THREADS", threads)
        template = tmp_path / f"run{run}_{{seed}}.jsonl"
        assert main(["run", "--algo", "block-update", "--k", "3", "--n", "6", "--blocks", "2",
                     "--oracle", "sampling", "--beta", "0.5", "--seeds", "0:3",
                     "--trace", str(template)]) == 0
        traces.append([(tmp_path / f"run{run}_{seed}.jsonl").read_bytes() for seed in range(3)])
    assert traces[0] == traces[1] == traces[2]
    assert all(trace.count(b"\n") == 2 for trace in traces[0])  # one line per block


def test_run_nonzero_exit_on_bound_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "theoretical_bound", lambda *a, **k: -1.0)
    code = main(["run", "--algo", "uniform", "--family", "linear-influence",
                 "--n", "5", "--c", "1.0", "--seeds", "0:1",
                 "--out", str(tmp_path / "r")])
    assert code == 3


def test_uniform_declares_its_k_action_bound_in_run_and_sweep(capsys):
    argv = ["--algo", "uniform", "--family", "tiny-tensor", "--n", "1", "--k", "3",
            "--gamma", "1", "--seeds", "126:127"]
    assert main(["run", *argv]) == 0  # regret 0.6037, above the binary 1/2
    report = json.loads(capsys.readouterr().out)
    assert report["declared_bound"] == 2 / 3 and report["bound_ok"]
    assert main(["sweep", *argv]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.startswith("uniform,tiny-tensor,1,1.0,3,")
    assert row.split(",")[header.split(",").index("max_regret")] == repr(report["max_regret"])


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


def test_sweep_grid_flags_and_their_grid_aliases_write_the_same_bytes(tmp_path):
    common = ["sweep", "--algo", "one-step,plane,block-update", "--c", "1.0,2.0",
              "--seeds", "0:1"]
    grids = {"n": "5,6", "k": "2,3", "alpha": "0.1,0.2", "blocks": "3,4"}
    texts = []
    for suffix in ("", "-grid"):
        out = tmp_path / f"sweep{suffix}.csv"
        argv = common + [arg for name, grid in grids.items()
                         for arg in (f"--{name}{suffix}", grid)]
        assert main(argv + ["--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    rows = texts[0].splitlines()[1:]
    # one-step: n x c at k = 2; plane: n x c x alpha at k = 2; block-update: n x c x k x blocks
    assert len(rows) == 4 + 8 + 16


@pytest.mark.parametrize("family,algo,n,flag,values", [
    ("lower-bound", "one-step", "6", "--ell", ("3", "40")),
    ("tiny-tensor", "uniform", "4", "--gamma", ("0.1", "0.9")),
])
def test_family_flags_reach_the_games_a_sweep_builds(capsys, family, algo, n, flag, values):
    regrets = set()
    for value in values:
        argv = ["--family", family, "--algo", algo, "--n", n, "--seeds", "0:1", flag, value]
        assert main(["sweep", *argv]) == 0
        header, line = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert main(["run", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        # the row is labelled with the c of the game it ran, as run reports it
        assert (row["c"], row["max_regret"]) == (repr(report["c"]), repr(report["max_regret"]))
        regrets.add(row["max_regret"])
    assert len(regrets) == 2


def test_sweep_sampling_query_counts_match_formula():
    import math

    rows = runner.sweep_rows(["plane"], "linear-influence", {"n": [5], "k": [2], "c": [1.0]},
                             {"alpha": [0.2, 0.3], "eta": [0.1], "beta": [0.5]},
                             seeds=[0], oracle="sampling")
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

    def reports():
        results = runner.parallel_over_seeds(lambda s: runner.run_one(config, s), config.seeds)
        return [report.to_json() for report, _, _ in results]

    monkeypatch.setenv("LGL_THREADS", "1")
    sequential = reports()
    monkeypatch.setenv("LGL_THREADS", "4")
    parallel = reports()
    assert sequential == parallel


def test_thread_cap_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("LGL_THREADS", "abc")
    with pytest.raises(ValueError, match="LGL_THREADS must be an integer, got 'abc'"):
        runner.max_workers()
    monkeypatch.setenv("LGL_THREADS", "1")
    assert runner.max_workers() == 1


DOWNSAMPLE_UNREAD = ("--downsample needs --out and an algorithm that writes a trajectory "
                     "(plane-flow, curve-flow)")


@pytest.mark.parametrize("argv,threads,message", [
    (["run", "--algo", "plane", "--n", "6", "--seeds", "0:2"], "abc",
     "LGL_THREADS must be an integer, got 'abc'"),
    (["run", "--algo", "plane", "--n", "6", "--seeds", "3:1"], None,
     "seed range '3:1' is empty"),
    (["sweep", "--algo", "plane", "--n", "6", "--seeds", "2:2"], None,
     "seed range '2:2' is empty"),
    (["sweep", "--bu-bounds", "--c", "nan", "--k-grid", "2", "--blocks-grid", "5"], None,
     "need a finite c > 0, k >= 2, blocks >= 1"),
    (["run", "--algo", "curve", "--algo-c", "inf", "--n", "6"], None,
     "c must be finite and positive"),
    (["run", "--algo", "curve-flow", "--algo-c", "inf", "--n", "6"], None,
     "c must be finite and positive"),
    # a family flag the family does not read, before any run or CSV row
    (["sweep", "--family", "lower-bound", "--algo", "uniform", "--n", "6", "--c", "0.5,2",
      "--seeds", "0:1"], None, "family 'lower-bound' does not read --c"),
    (["sweep", "--family", "lower-bound", "--algo", "block-update", "--n", "6", "--k", "2,3",
      "--blocks", "3", "--seeds", "0:1"], None, "family 'lower-bound' does not read --k"),
    (["run", "--family", "lower-bound", "--algo", "block-update", "--n", "6", "--k", "3",
      "--blocks", "3"], None, "family 'lower-bound' does not read --k"),
    (["generate", "--family", "linear-influence", "--n", "6", "--gamma", "0.5"], None,
     "family 'linear-influence' does not read --gamma"),
    (["run", "--family", "tiny-tensor", "--n", "3", "--ell", "3"], None,
     "family 'tiny-tensor' does not read --ell"),
    (["sweep", "--bu-bounds", "--family", "lower-bound"], None,
     "family 'lower-bound' has no c and k to tabulate bounds over"),
    # a bad grid or seed list names its flag and the type expected
    (["sweep", "--algo", "plane", "--n-grid", "x"], None,
     "--n: expected comma-separated integers, got 'x'"),
    (["sweep", "--algo", "plane", "--n", "5.5", "--seeds", "0:1"], None,
     "--n: expected comma-separated integers, got '5.5'"),
    (["sweep", "--algo", "block-update", "--k", "2,x", "--seeds", "0:1"], None,
     "--k: expected comma-separated integers, got '2,x'"),
    (["sweep", "--algo", "plane", "--c", "1,two", "--seeds", "0:1"], None,
     "--c: expected comma-separated numbers, got '1,two'"),
    (["sweep", "--algo", "plane", "--alpha", "x", "--seeds", "0:1"], None,
     "--alpha: expected comma-separated numbers, got 'x'"),
    (["sweep", "--algo", "block-update", "--blocks-grid", "3.5", "--seeds", "0:1"], None,
     "--blocks: expected comma-separated integers, got '3.5'"),
    (["run", "--seeds", "3:x"], None,
     "--seeds: expected a range lo:hi, got '3:x'"),
    (["sweep", "--algo", "plane", "--seeds", "0:1:2"], None,
     "--seeds: expected a range lo:hi, got '0:1:2'"),
    (["run", "--n", "6", "--seeds", "0,y"], None,
     "--seeds: expected comma-separated integers, got '0,y'"),
    # the config file sets every run flag but --out and --downsample; the flags
    # are checked before the file is read
    (["run", "--config", "cfg.json", "--algo", "curve"], None,
     "--algo cannot be given with --config"),
    (["run", "--config", "cfg.json", "--n", "50"], None, "--n cannot be given with --config"),
    (["run", "--config", "cfg.json", "--k", "3"], None, "--k cannot be given with --config"),
    (["run", "--config", "cfg.json", "--oracle", "exact"], None,
     "--oracle cannot be given with --config"),
    (["run", "--config", "cfg.json", "--alpha", "0.1"], None,
     "--alpha cannot be given with --config"),
    (["run", "--config", "cfg.json", "--algo-c", "2"], None,
     "--algo-c cannot be given with --config"),
    (["run", "--config", "cfg.json", "--step-h", "0.1"], None,
     "--step-h cannot be given with --config"),
    (["run", "--config", "cfg.json", "--beta", "0.2"], None,
     "--beta cannot be given with --config"),
    (["run", "--config", "cfg.json", "--seeds", "0:1"], None,
     "--seeds cannot be given with --config"),
    (["run", "--config", "cfg.json", "--trace", "t.jsonl"], None,
     "--trace cannot be given with --config"),
    # an algorithm flag the algorithm does not read
    (["run", "--algo", "one-step", "--n", "6", "--alpha", "0.3", "--blocks", "7",
      "--step-h", "0.5"], None, "algorithm 'one-step' does not read --alpha"),
    (["run", "--algo", "block-update", "--n", "6", "--step-h", "0.5"], None,
     "algorithm 'block-update' does not read --step-h"),
    (["run", "--n", "6", "--algo-c", "0.5"], None, "algorithm 'plane' does not read --algo-c"),
    (["run", "--algo", "plane-flow", "--n", "6", "--eta", "0.2"], None,
     "algorithm 'plane-flow' does not read --eta"),
    # --downsample is read only where a flow writes its trajectory
    (["run", "--algo", "plane", "--n", "6", "--downsample", "5"], None, DOWNSAMPLE_UNREAD),
    (["run", "--algo", "plane-flow", "--n", "6", "--downsample", "5"], None,
     DOWNSAMPLE_UNREAD),
    # beta and delta are read by the sampling oracle only, and delta not where
    # eta/rounds sets it
    (["run", "--algo", "plane", "--n", "6", "--beta", "0.3", "--delta", "0.2",
      "--seeds", "0:1"], None, "oracle 'exact' does not read --beta"),
    (["run", "--algo", "one-step", "--n", "6", "--delta", "0.2"], None,
     "oracle 'exact' does not read --delta"),
    (["run", "--algo", "plane", "--oracle", "sampling", "--alpha", "0.5", "--beta", "0.5",
      "--delta", "0.01", "--n", "6", "--seeds", "0:1"], None,
     "algorithm 'plane' does not read --delta"),
    (["run", "--algo", "curve", "--oracle", "sampling", "--n", "6", "--delta", "0.01"], None,
     "algorithm 'curve' does not read --delta"),
    # uniform makes no query, so it reads neither value and runs exact only;
    # the exact oracle makes no pure query to trace
    (["run", "--algo", "uniform", "--oracle", "sampling", "--beta", "0.3", "--delta", "0.2",
      "--n", "6"], None, "uniform runs with the exact oracle only"),
    (["run", "--algo", "uniform", "--oracle", "sampling", "--n", "6"], None,
     "uniform runs with the exact oracle only"),
    (["sweep", "--algo", "one-step,uniform", "--oracle", "sampling", "--n", "6",
      "--seeds", "0:1"], None, "uniform runs with the exact oracle only"),
    (["run", "--algo", "plane", "--n", "6", "--trace", "t.jsonl"], None,
     "oracle 'exact' does not read --trace"),
    # a sweep refuses, as run does, a grid that none of its algorithms would read
    (["sweep", "--algo", "one-step", "--eta", "0.2", "--alpha", "0.3", "--blocks", "7",
      "--n", "6", "--seeds", "0:1"], None, "algorithm 'one-step' does not read --alpha"),
    (["sweep", "--algo", "plane", "--oracle", "exact", "--beta", "0.3", "--delta", "0.1",
      "--n", "6", "--seeds", "0:2"], None, "oracle 'exact' does not read --beta"),
    (["sweep", "--algo", "one-step,two-step", "--eta", "0.2,0.3", "--n", "6",
      "--seeds", "0:1"], None, "algorithm 'one-step' does not read --eta"),
    # a bound table reads --family, its c grid, --out, and k and blocks for --bu-bounds
    (["sweep", "--compare-bounds", "--c", "0.5,1", "--algo", "one-step", "--seeds", "0:3",
      "--oracle", "sampling", "--beta", "0.3", "--alpha", "0.2", "--n", "7"], None,
     "--n cannot be given with --compare-bounds"),
    (["sweep", "--compare-bounds", "--c", "0.5,1", "--seeds", "0:3"], None,
     "--seeds cannot be given with --compare-bounds"),
    (["sweep", "--compare-bounds", "--c", "1", "--k", "3"], None,
     "--k cannot be given with --compare-bounds"),
    (["sweep", "--bu-bounds", "--c", "1", "--k", "2", "--blocks", "5", "--alpha", "0.3",
      "--timing", "--eta", "0.5"], None, "--alpha cannot be given with --bu-bounds"),
    (["sweep", "--bu-bounds", "--c", "1", "--timing"], None,
     "--timing cannot be given with --bu-bounds"),
    (["sweep", "--compare-bounds", "--bu-bounds", "--c", "1"], None,
     "--bu-bounds cannot be given with --compare-bounds"),
    # a sweep refuses an unread grid before it builds a cell, so an empty
    # family grid hides nothing
    (["sweep", "--algo", "one-step", "--eta", "0.2", "--n", ""], None,
     "algorithm 'one-step' does not read --eta"),
    (["sweep", "--algo", "plane", "--beta", "0.2", "--c", ""], None,
     "oracle 'exact' does not read --beta"),
    # degenerate family sizes are refused before the game is built
    (["run", "--family", "tiny-tensor", "--n", "0", "--algo", "uniform"], None,
     "need n >= 1 players and k >= 1 actions"),
    (["run", "--family", "tiny-tensor", "--n", "2", "--k", "0", "--algo", "uniform"], None,
     "need n >= 1 players and k >= 1 actions"),
    (["run", "--family", "lower-bound", "--n", "0", "--algo", "uniform"], None,
     "need n >= 1 players"),
    (["run", "--family", "lower-bound", "--n", "-3", "--algo", "uniform"], None,
     "need n >= 1 players"),
])
def test_input_errors_exit_2_with_one_line(capsys, monkeypatch, argv, threads, message):
    if threads is not None:
        monkeypatch.setenv("LGL_THREADS", threads)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 11.9 GiB for an array", "Unable to allocate 11.9 GiB for an array"),
    ("", "out of memory")])
def test_a_game_too_big_to_allocate_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                          message, line):
    def too_big(*args):  # the builder fails as numpy does, without allocating
        raise MemoryError(message)

    _, reads = families.FAMILIES["linear-influence"]
    monkeypatch.setitem(families.FAMILIES, "linear-influence", (too_big, reads))
    out_dir = tmp_path / "out"
    assert main(["run", "--algo", "plane", "--n", "20000", "--seeds", "0:2",
                 "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {line}\n" and captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("algo", ["curve", "curve-flow"])
def test_an_infinite_curve_budget_writes_no_report(tmp_path, capsys, algo):
    out_dir = tmp_path / "out"
    assert main(["run", "--algo", algo, "--algo-c", "inf", "--n", "6",
                 "--out", str(out_dir)]) == 2
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()  # made only once every run has returned


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


LINEAR6 = {"family": "linear-influence", "params": {"n": 6}}


@pytest.mark.parametrize("command,obj,message", [
    ("run", {"family": LINEAR6, "seeds": [0]}, "config lacks 'algo'"),
    ("run", {"family": {"family": "linear-influence", "params": {}}, "algo": "plane",
             "seeds": [0]}, "family params lacks 'n'"),
    ("run", [{"family": LINEAR6, "algo": "plane", "seeds": [0]}],
     "config must be a JSON object"),
    ("run", {"family": LINEAR6, "algo": ["plane"]}, "config 'algo' must be a string"),
    ("run", {"family": LINEAR6, "algo": "plane", "oracle": "sampling", "beta": "x"},
     "config 'beta' must be a number or null"),
    ("run", {"family": LINEAR6, "algo": "plane", "seeds": [0.5]},
     "config 'seeds' must hold integers"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": None}}, "algo": "plane",
             "seeds": [0]}, "family params 'n' must be a number"),
    ("verify", {"family": "linear-influence", "seed": 1}, "game descriptor lacks 'params'"),
    ("verify", {"family": "linear-influence", "params": {"n": 6}, "seed": "1"},
     "game descriptor 'seed' must be an integer"),
    ("verify", {"n": 1, "k": 2, "payoffs": [0.5, 0.5]}, "tensor game lacks 'c'"),
    # without seeds no game is built, so the config itself must be checked
    ("run", {"family": {"family": "linear-influence", "params": {}}, "algo": "plane"},
     "family params lacks 'n'"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": "x"}}, "algo": "plane"},
     "family params 'n' must be a number"),
    # counts must be whole and booleans are not numbers
    ("run", {"family": {"family": "linear-influence", "params": {"n": 6.7}}, "algo": "plane",
             "seeds": [0]}, "family params 'n' must be a whole number"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": 6, "k": 2.5}},
             "algo": "block-update", "seeds": [0]}, "family params 'k' must be a whole number"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": float("inf")}},
             "algo": "plane", "seeds": [0]}, "family params 'n' must be a whole number"),
    ("run", {"family": LINEAR6, "algo": "block-update", "algo_params": {"blocks": 3.9},
             "seeds": [0]}, "config algo_params 'blocks' must be a whole number"),
    ("run", {"family": LINEAR6, "algo": "plane", "algo_params": {"alpha": True},
             "seeds": [0]}, "config algo_params 'alpha' must be a number"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": True}}, "algo": "plane",
             "seeds": [0]}, "family params 'n' must be a number"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": 6, "c": True}},
             "algo": "plane", "seeds": [0]}, "family params 'c' must be a number"),
    ("run", {"family": LINEAR6, "algo": "plane", "oracle": "sampling", "beta": True},
     "config 'beta' must be a number or null"),
    ("run", {"family": LINEAR6, "algo": "plane", "seeds": [True]},
     "config 'seeds' must hold integers"),
    ("verify", {"family": "linear-influence", "params": {"n": 6.5}, "seed": 1},
     "family params 'n' must be a whole number"),
    ("verify", {"family": "linear-influence", "params": {"n": 6}, "seed": True},
     "game descriptor 'seed' must be an integer"),
    ("verify", {"n": True, "k": 2, "c": 1.0, "payoffs": [0.5, 0.5]},
     "tensor game 'n' must be a number"),
    ("verify", {"n": 1, "k": 2.5, "c": 1.0, "payoffs": [0.5, 0.5]},
     "tensor game 'k' must be a whole number"),
    # an algo_params key the algorithm does not read, a typo or not, even a null one
    ("run", {"family": LINEAR6, "algo": "plane", "algo_params": {"alpah": 0.3},
             "seeds": [0]}, "algorithm 'plane' does not read 'alpah'"),
    ("run", {"family": LINEAR6, "algo": "one-step", "algo_params": {"alpha": 0.3}},
     "algorithm 'one-step' does not read 'alpha'"),
    ("run", {"family": LINEAR6, "algo": "curve-flow", "algo_params": {"blocks": None},
             "seeds": [0]}, "algorithm 'curve-flow' does not read 'blocks'"),
    # a key no config reads, at the top level or in the family object
    ("run", {"family": LINEAR6, "algo": "plane", "seed": [0, 1]},
     "config has unknown key 'seed'"),
    ("run", {"family": LINEAR6, "algo": "plane", "orcale": "sampling", "seeds": [0]},
     "config has unknown key 'orcale'"),
    ("run", {"family": {"family": "linear-influence", "params": {"n": 6}, "sead": 3},
             "algo": "plane", "seeds": [0]}, "config family has unknown key 'sead'"),
    # a key no game or profile file reads; a profile holds 'binary' or 'probs', not both
    ("verify", {"family": "linear-influence", "params": {"n": 6}, "seed": 1, "sead": 4},
     "game descriptor has unknown key 'sead'"),
    ("verify", {"n": 1, "k": 2, "c": 1.0, "payoffs": [0.5, 0.5], "extra": 1},
     "tensor game has unknown key 'extra'"),
    ("profile", {"binary": [0.5] * 6, "probz": 1}, "binary profile has unknown key 'probz'"),
    ("profile", {"binary": [0.5] * 6, "probs": [[0.5, 0.5]] * 6},
     "binary profile has unknown key 'probs'"),
    ("profile", {"probs": [[0.5, 0.5]] * 6, "binray": [0.5] * 6},
     "probs profile has unknown key 'binray'"),
    # beta and delta that the run would drop
    ("run", {"family": LINEAR6, "algo": "plane", "beta": 0.2, "seeds": [0]},
     "oracle 'exact' does not read 'beta'"),
    ("run", {"family": LINEAR6, "algo": "plane-comm", "oracle": "sampling", "delta": 0.01,
             "seeds": [0]}, "algorithm 'plane-comm' does not read 'delta'"),
    ("run", {"family": LINEAR6, "algo": "one-step", "trace": "t_{seed}.jsonl", "seeds": [0]},
     "oracle 'exact' does not read 'trace'"),
    # the oracle settings sit beside algo_params, not in it
    ("run", {"family": LINEAR6, "algo": "one-step", "oracle": "sampling",
             "algo_params": {"beta": 0.3}, "seeds": [0]},
     "config algo_params has unknown key 'beta'"),
])
def test_malformed_json_is_an_input_error(tmp_path, capsys, command, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    if command == "run":
        argv = ["run", "--config", str(path)]
    else:
        other = tmp_path / "other.json"
        if command == "profile":  # obj is the profile, graded on a valid game
            other.write_text(json.dumps({"family": "linear-influence", "params": {"n": 6},
                                         "seed": 1}))
            game_path, profile_path = other, path
        else:
            other.write_text(json.dumps({"binary": [0.5] * 6}))
            game_path, profile_path = path, other
        argv = ["verify", "--game", str(game_path), "--profile", str(profile_path),
                "--eps", "0.1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_refused_run_inputs_write_no_report(tmp_path, capsys):
    config = tmp_path / "plane.json"
    config.write_text(json.dumps({"family": LINEAR6, "algo": "plane", "seeds": [0]}))
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"family": LINEAR6, "algo": "plane",
                                "algo_params": {"alpah": 0.3}, "seeds": [0]}))
    out, trace = tmp_path / "out", tmp_path / "t.jsonl"
    for argv, message in [
            (["--config", str(config), "--family", "lower-bound", "--k", "3", "--algo", "curve"],
             "--family cannot be given with --config"),
            (["--config", str(typo)], "algorithm 'plane' does not read 'alpah'"),
            (["--algo", "one-step", "--n", "6", "--alpha", "0.3", "--blocks", "7",
              "--step-h", "0.5"], "algorithm 'one-step' does not read --alpha"),
            (["--algo", "plane", "--n", "6", "--downsample", "5"], DOWNSAMPLE_UNREAD),
            (["--config", str(config), "--downsample", "2"], DOWNSAMPLE_UNREAD),
            (["--algo", "plane", "--n", "6", "--beta", "0.3", "--delta", "0.2", "--seeds", "0:1"],
             "oracle 'exact' does not read --beta"),
            (["--algo", "plane", "--oracle", "sampling", "--alpha", "0.5", "--beta", "0.5",
              "--delta", "0.01", "--n", "6", "--seeds", "0:1"],
             "algorithm 'plane' does not read --delta"),
            (["--algo", "uniform", "--oracle", "sampling", "--beta", "0.3", "--delta", "0.2",
              "--n", "6", "--trace", str(trace)], "uniform runs with the exact oracle only"),
            (["--algo", "uniform", "--oracle", "sampling", "--n", "6"],
             "uniform runs with the exact oracle only"),
            (["--algo", "plane", "--n", "6", "--trace", str(trace)],
             "oracle 'exact' does not read --trace")]:
        assert main(["run", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert not trace.exists()
    # beside a config, --out overrides the file's and a flow reads --downsample
    flow = tmp_path / "flow.json"
    flow.write_text(json.dumps({"family": LINEAR6, "algo": "plane-flow", "seeds": [0]}))
    assert main(["run", "--config", str(flow), "--out", str(out), "--downsample", "2"]) == 0
    assert (out / "report_seed0.json").read_text() == capsys.readouterr().out


def test_beta_and_delta_run_where_they_are_read(tmp_path, capsys):
    def run(argv, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"family": LINEAR6, "seeds": [0]} | config))
        assert main(["run", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["run", "--n", "6", *argv]) == 0
        assert capsys.readouterr().out == from_config
        return from_config

    sampled = ["--oracle", "sampling", "--beta", "0.4"]
    run(["--algo", "one-step", *sampled, "--delta", "0.1"],
        {"algo": "one-step", "oracle": "sampling", "beta": 0.4, "delta": 0.1})
    run(["--algo", "plane", *sampled], {"algo": "plane", "oracle": "sampling", "beta": 0.4})
    # null is the default, with the exact oracle too
    assert (run(["--algo", "plane"], {"algo": "plane", "beta": None, "delta": None})
            == run(["--algo", "plane"], {"algo": "plane"}))


@pytest.mark.parametrize("key", ["beta", "delta"])
@pytest.mark.parametrize("algo", list(runner.ALGOS))
def test_the_table_names_each_oracle_setting_a_run_reads(algo, key):
    """A run whose ``reads`` names beta (delta) spends queries by its value;
    any other run refuses it."""
    entry = runner.ALGOS[algo]
    obj = {"family": LINEAR6, "algo": algo, "seeds": [0],
           "oracle": "exact" if entry.exact_only else "sampling",
           "algo_params": {key: value for key, value in {"alpha": 0.5, "blocks": 3}.items()
                           if key in entry.reads}}
    if key in entry.reads:
        spent = {runner.run_one(runner.ExperimentConfig.from_dict(obj | {key: value}), 0)[0]
                 .pure_queries for value in (0.4, 0.5)}
        assert len(spent) == 2 and 0 not in spent
    else:
        reader = "oracle 'exact'" if entry.exact_only else f"algorithm {algo!r}"
        with pytest.raises(ValueError, match=f"^{reader} does not read '{key}'$"):
            runner.ExperimentConfig.from_dict(obj | {key: 0.4})


def test_sweep_cells_hold_only_the_values_a_run_read(capsys):
    def rows(*argv):
        assert main(["sweep", "--n", "6", *argv]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        return [dict(zip(header.split(","), line.split(","))) for line in lines]

    assert main(["sweep", "--n", "6", "--algo", "plane", "--oracle", "exact", "--beta", "0.3",
                 "--delta", "0.1", "--seeds", "0:2"]) == 2
    assert capsys.readouterr().err == "error: oracle 'exact' does not read --beta\n"
    sampled = {row["algorithm"]: row for row in rows(
        "--algo", "plane,one-step", "--oracle", "sampling", "--beta", "0.5", "--delta", "0.1",
        "--alpha", "0.5", "--seeds", "0:1")}
    cells = ("alpha", "eta", "beta", "delta", "blocks")
    assert [sampled["plane"][key] for key in cells] == ["0.5", "0.1", "0.5", "", ""]
    assert [sampled["one-step"][key] for key in cells] == ["", "", "0.5", "0.1", ""]


def test_refused_sweeps_write_no_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    for argv in (["--algo", "one-step", "--eta", "0.2", "--n", "6", "--seeds", "0:1"],
                 ["--algo", "plane", "--beta", "0.3", "--n", "6", "--seeds", "0:1"],
                 ["--algo", "one-step,uniform", "--oracle", "sampling", "--n", "6"],
                 ["--compare-bounds", "--bu-bounds"],
                 ["--bu-bounds", "--eta", "0.5"]):
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()


class _Ran(Exception):
    """Raised in place of a run, carrying the config the run was given."""


@pytest.mark.parametrize("oracle", ["exact", "sampling"])
@pytest.mark.parametrize("flag,value", [("alpha", "0.5"), ("eta", "0.2"), ("blocks", "3"),
                                        ("beta", "0.5"), ("delta", "0.1")])
@pytest.mark.parametrize("algo", list(runner.ALGOS))
def test_a_one_algorithm_sweep_accepts_and_refuses_what_run_does(monkeypatch, capsys, algo,
                                                                  flag, value, oracle):
    """From the same flags, run and sweep make the same config, or refuse the
    flags with the same line."""
    def ran(config, seed):
        raise _Ran(config)

    monkeypatch.setattr(runner, "run_one", ran)
    argv = ["--algo", algo, "--oracle", oracle, f"--{flag}", value, "--n", "6", "--seeds", "0:1"]
    outcomes = []
    for command in ("run", "sweep"):
        try:
            outcomes.append((main([command, *argv]), capsys.readouterr().err))
        except _Ran as stopped:
            outcomes.append(stopped.args)
    assert outcomes[0] == outcomes[1]
    entry = runner.ALGOS[algo]
    read = flag in entry.reads and not (oracle == "exact" and flag in ("beta", "delta"))
    assert isinstance(outcomes[0][0], runner.ExperimentConfig) == read
    assert read or outcomes[0][0] == 2


def test_integral_floats_and_nulls_in_a_config_run_as_their_values(tmp_path, capsys):
    def run(family_params, algo_params):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "family": {"family": "linear-influence", "params": family_params},
            "algo": "block-update", "algo_params": algo_params, "seeds": [0]}))
        assert main(["run", "--config", str(path)]) == 0
        return capsys.readouterr().out

    expected = run({"n": 6, "k": 3}, {"blocks": 4})
    assert run({"n": 6.0, "k": 3.0}, {"blocks": 4.0}) == expected
    assert run({"n": 6, "k": 3}, {"blocks": None}) == run({"n": 6, "k": 3}, {})


@pytest.mark.parametrize("argv,message", [
    (["run", "--algo", "plane", "--alpha", "inf"], "alpha must be finite and positive"),
    (["run", "--algo", "plane", "--alpha", "nan"], "alpha must be finite and positive"),
    (["run", "--algo", "curve", "--alpha=-inf"], "alpha must be finite and positive"),
    (["run", "--algo", "plane-flow", "--step-h", "0"], "step_h must be finite and positive"),
    (["run", "--algo", "plane-flow", "--step-h", "-0.01"], "step_h must be finite and positive"),
    (["run", "--algo", "curve-flow", "--step-h", "nan"], "step_h must be finite and positive"),
    (["run", "--algo", "plane-flow", "--horizon", "-1"], "horizon must be finite and nonnegative"),
    (["run", "--algo", "curve-flow", "--horizon", "inf"],
     "horizon must be finite and nonnegative"),
    (["verify", "--eps", "nan"], "eps must be finite"),
])
def test_non_finite_or_zero_numbers_exit_2_with_one_line(tmp_path, capsys, argv, message):
    if argv[0] == "run":
        argv = argv + ["--n", "6", "--seeds", "0:1"]
    else:
        game_path, profile_path = tmp_path / "game.json", tmp_path / "profile.json"
        assert main(["generate", "--n", "4", "--out", str(game_path)]) == 0
        profile_path.write_text(json.dumps({"binary": [0.5] * 4}))
        argv = argv + ["--game", str(game_path), "--profile", str(profile_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("factor", ["0", "-1"])
def test_bad_downsample_exits_2_before_any_output(tmp_path, capsys, factor):
    out_dir = tmp_path / "out"
    assert main(["run", "--algo", "plane-flow", "--n", "6", "--downsample", factor,
                 "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: downsample factor must be >= 1\n"
    assert captured.out == ""
    assert not out_dir.exists()  # checked before the output directory is made


def test_horizon_zero_runs_one_flow_step(capsys):
    assert main(["run", "--algo", "plane-flow", "--n", "6", "--seeds", "0:1",
                 "--horizon", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["rounds"] == 0


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

