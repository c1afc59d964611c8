"""Command line behavior: subcommands, files, resolution, exit codes."""

import argparse
import inspect
import json

import pytest

from cimqubo import (
    DEFAULT_PENALTY,
    FilterConfig,
    batch_solve,
    build_dqubo,
    build_inequality_qubo,
    default_schedule,
    dump_qubo_json,
    filter_study,
    generate_instance,
    load_instance,
    overhead_report,
    parse_instance,
    success_rate_study,
)
from cimqubo.cli import _schedule_from_args, build_parser, main

from conftest import make_instance

TINY_TEXT = "tiny3\n3\n5 3 4\n2 0\n1\n9\n4 7 2\n"


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny3.qkp"
    path.write_text(TINY_TEXT)
    return str(path)


# ------------------------------------------------------- gen

def test_gen_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "g.qkp"
    assert main(["gen", "--n", "8", "--seed", "3", "-o", str(out)]) == 0
    inst = load_instance(out)
    assert inst.n == 8
    err = capsys.readouterr().err
    assert "cimqubo gen:" in err and "seed=3" in err


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.qkp", tmp_path / "b.qkp"
    main(["gen", "--n", "10", "--seed", "5", "-o", str(a)])
    main(["gen", "--n", "10", "--seed", "5", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_to_stdout_json(capsys):
    assert main(["gen", "--n", "4", "--seed", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    inst = parse_instance(captured.out, fmt="json")
    assert inst.n == 4


def test_gen_rejects_bad_density(capsys):
    assert main(["gen", "--n", "4", "--density", "2.0"]) == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------- transform

def test_transform_ineq(tiny_path, tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["transform", tiny_path, "--mode", "ineq", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "inequality"
    assert doc["dim"] == 3
    assert "dim=3" in capsys.readouterr().err


def test_transform_dqubo(tiny_path, capsys):
    assert main(["transform", tiny_path, "--mode", "dqubo", "--alpha", "3"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["mode"] == "dqubo"
    assert doc["dim"] == 12
    assert doc["alpha"] == 3
    assert "dim=12" in captured.err


@pytest.mark.parametrize("mode", ["ineq", "dqubo"])
def test_transform_writes_dump_qubo_json_byte_for_byte(mode, tiny_path, tmp_path, capsys):
    inst = load_instance(tiny_path)
    model = build_inequality_qubo(inst) if mode == "ineq" else build_dqubo(inst, 3, 4)
    penalties = [] if mode == "ineq" else ["--alpha", "3", "--beta", "4"]
    assert main(["transform", tiny_path, "--mode", mode, *penalties]) == 0
    assert capsys.readouterr().out == dump_qubo_json(model)
    out = tmp_path / "q.json"
    assert main(["transform", tiny_path, "--mode", mode, *penalties, "-o", str(out)]) == 0
    assert out.read_bytes() == dump_qubo_json(model).encode()


def test_transform_requires_mode(tiny_path):
    with pytest.raises(SystemExit) as exc:
        main(["transform", tiny_path])
    assert exc.value.code == 2


# ------------------------------------------------------- oracle

def test_oracle_output(tiny_path, capsys):
    assert main(["oracle", tiny_path]) == 0
    out = capsys.readouterr().out
    assert "best_value=9" in out
    assert "best_config=101" in out
    assert "feasible_count=6" in out


def test_oracle_rejects_large_instances(tmp_path, capsys):
    path = tmp_path / "big.qkp"
    main(["gen", "--n", "30", "-o", str(path)])
    capsys.readouterr()
    assert main(["oracle", str(path)]) == 1
    assert "n <= 24" in capsys.readouterr().err


# ------------------------------------------------------- solve

def test_solve_finds_tiny_optimum(tiny_path, capsys):
    code = main(["solve", tiny_path, "--initials", "2", "--runs", "2",
                 "--iters", "300", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "best_value=9" in out
    assert "mode=hycim" in out
    assert "mean_value=" in out


def test_solve_dqubo_mode(tiny_path, capsys):
    code = main(["solve", tiny_path, "--mode", "dqubo", "--initials", "2",
                 "--runs", "1", "--iters", "200"])
    assert code == 0
    assert "mode=dqubo" in capsys.readouterr().out


def test_solve_behavioral_backend_with_noise(tiny_path, capsys):
    code = main(["solve", tiny_path, "--backend", "behavioral-cim",
                 "--noise-sigma", "0.05", "--initials", "1", "--runs", "2",
                 "--iters", "100"])
    assert code == 0
    assert "backend=behavioral-cim" in capsys.readouterr().out


def test_solve_noise_needs_behavioral_backend(tiny_path, capsys):
    code = main(["solve", tiny_path, "--noise-sigma", "0.3", "--initials", "1",
                 "--runs", "1", "--iters", "50"])
    assert code == 1
    assert "needs the behavioral-cim backend" in capsys.readouterr().err


@pytest.mark.parametrize("mode, filter_config", [
    ("hycim", FilterConfig(noise_sigma=0.05)),
    ("dqubo", None),  # dqubo proposals are never gated, so no filter noise to pass on
])
def test_solve_builds_a_filter_config_only_in_hycim_mode(tiny_path, monkeypatch, mode, filter_config):
    calls = []

    def recording_batch_solve(*args, **kwargs):
        calls.append(kwargs)
        return batch_solve(*args, **kwargs)

    monkeypatch.setattr("cimqubo.cli.batch_solve", recording_batch_solve)
    assert main(["solve", tiny_path, "--mode", mode, "--backend", "behavioral-cim",
                 "--noise-sigma", "0.05", "--initials", "1", "--runs", "1", "--iters", "20"]) == 0
    assert [(c["filter_config"], c["crossbar_noise_sigma"]) for c in calls] == [(filter_config, 0.05)]


@pytest.mark.parametrize("option", ["--alpha", "--beta"])
def test_solve_refuses_a_zero_penalty_with_workers(tiny_path, capsys, option):
    code = main(["solve", tiny_path, "--mode", "dqubo", option, "0", "--jobs", "2",
                 "--initials", "2", "--runs", "1", "--iters", "20"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{option[2:]}: must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("trajectory", [False, True])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_solve_refuses_a_seed_outside_the_seed_range(tiny_path, tmp_path, capsys, trajectory, seed):
    extra = ["--trajectory", str(tmp_path / "t.csv")] if trajectory else []
    assert main(["solve", tiny_path, "--initials", "1", "--runs", "1", "--seed", seed] + extra) == 1
    assert "master_seed: must be an integer in [0, 2^64)" in capsys.readouterr().err


def test_solve_trajectory(tiny_path, tmp_path, capsys):
    traj = tmp_path / "t.csv"
    code = main(["solve", tiny_path, "--initials", "1", "--runs", "1",
                 "--iters", "50", "--trajectory", str(traj)])
    assert code == 0
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,accepted,feasible"
    assert len(lines) == 51


@pytest.mark.parametrize("mode", ["hycim", "dqubo"])
@pytest.mark.parametrize("backend", ["exact-software", "behavioral-cim"])
def test_solve_trajectory_anneals_the_batch_run(tmp_path, capsys, mode, backend):
    # --trajectory anneals run (0, 0) of the batch: same seed, same initial, same record
    inst = tmp_path / "g.qkp"
    main(["gen", "--n", "8", "--seed", "3", "-o", str(inst)])
    solve = ["solve", str(inst), "--mode", mode, "--backend", backend, "--initials", "1",
             "--runs", "1", "--iters", "200", "--seed", "5"]
    outs = []
    for extra in ([], ["--trajectory", str(tmp_path / "t.csv")]):
        capsys.readouterr()
        assert main(solve + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_solve_trajectory_needs_single_run(tiny_path, tmp_path, capsys):
    code = main(["solve", tiny_path, "--initials", "2", "--runs", "1",
                 "--trajectory", str(tmp_path / "t.csv")])
    assert code == 1
    assert "--initials 1" in capsys.readouterr().err


def test_solve_custom_temperatures(tiny_path, capsys):
    code = main(["solve", tiny_path, "--initials", "1", "--runs", "1",
                 "--iters", "100", "--t-start", "5.0", "--t-end", "0.1"])
    assert code == 0


def test_solve_t_start_alone_keeps_the_default_cooling_ratio(tiny_path):
    args = build_parser().parse_args(["solve", tiny_path, "--iters", "100", "--t-start", "5"])
    problem = build_inequality_qubo(load_instance(tiny_path))
    schedule = _schedule_from_args(args, problem)
    default = default_schedule(problem, 100)
    assert (schedule.iterations, schedule.t_start) == (100, 5.0)
    assert schedule.t_end / schedule.t_start == default.t_end / default.t_start


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_solve_names_a_bad_t_start(tiny_path, capsys, value):
    # without --t-end, t_end derives from t_start, which is checked first
    assert main(["solve", tiny_path, f"--t-start={value}", "--initials", "1", "--runs", "1",
                 "--iters", "10"]) == 1
    err = capsys.readouterr().err
    assert "error: t_start: must be a number" in err and "error: t_end" not in err


def library_default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_penalty_defaults_agree_with_the_library(tiny_path):
    """Penalty first, then every other CLI option that has a library
    counterpart: each defaults to the library's value."""
    for fn in (build_dqubo, batch_solve, overhead_report, success_rate_study):
        params = inspect.signature(fn).parameters
        assert params["alpha"].default == params["beta"].default == DEFAULT_PENALTY, fn.__name__
    iterations = library_default(default_schedule, "iterations")
    filter_defaults = FilterConfig()
    counterparts = {
        ("gen", "--n", "5"): {
            dest: library_default(generate_instance, dest)
            for dest in ("density", "wmax", "pmax", "cap_ratio", "seed")
        },
        ("transform", tiny_path, "--mode", "dqubo"): {
            "alpha": library_default(build_dqubo, "alpha"),
            "beta": library_default(build_dqubo, "beta"),
        },
        ("overhead", tiny_path): {
            "alpha": library_default(overhead_report, "alpha"),
            "beta": library_default(overhead_report, "beta"),
        },
        ("filter-eval", tiny_path): {
            "rows": filter_defaults.rows,
            "levels": filter_defaults.levels_per_cell,
            "noise_sigma": filter_defaults.noise_sigma,
            "seed": library_default(filter_study, "seed"),
        },
        ("solve", tiny_path): {
            "backend": library_default(batch_solve, "backend"),
            "seed": library_default(batch_solve, "master_seed"),
            "alpha": library_default(batch_solve, "alpha"),
            "beta": library_default(batch_solve, "beta"),
            "noise_sigma": library_default(batch_solve, "crossbar_noise_sigma"),
            "jobs": library_default(batch_solve, "jobs"),
            "iterations": iterations,
        },
        ("bench", tiny_path): {
            dest: library_default(success_rate_study, name)
            for dest, name in (("seed", "master_seed"), ("iterations", "iterations"),
                               ("alpha", "alpha"), ("beta", "beta"), ("jobs", "jobs"))
        },
    }
    parser = build_parser()
    for argv, defaults in counterparts.items():
        args = vars(parser.parse_args(argv))
        assert {dest: args[dest] for dest in defaults} == defaults, argv[0]


# ------------------------------------------------------- filter-eval

def test_filter_eval(tiny_path, tmp_path, capsys):
    csv_path = tmp_path / "f.csv"
    code = main(["filter-eval", tiny_path, "--samples", "4", "--seed", "2",
                 "--csv", str(csv_path)])
    assert code == 0
    assert "accuracy=1.0000" in capsys.readouterr().out
    text = csv_path.read_text()
    assert "# rows=16" in text
    assert "normalized_ml" in text


# ------------------------------------------------------- overhead

def test_overhead_stdout(tiny_path, capsys):
    assert main(["overhead", tiny_path]) == 0
    out = capsys.readouterr().out
    assert "saving_fraction=" in out
    assert "search_space_reduction_exponent=9" in out


def test_overhead_csv_multi(tiny_path, tmp_path):
    other = tmp_path / "o.qkp"
    main(["gen", "--n", "6", "--seed", "2", "-o", str(other)])
    csv_path = tmp_path / "overhead.csv"
    assert main(["overhead", tiny_path, str(other), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# alpha=2"
    assert len([l for l in lines if not l.startswith("#")]) == 3


# ------------------------------------------------------- bench

def test_bench_reports_both_modes(tiny_path, tmp_path, capsys):
    report = tmp_path / "bench.csv"
    code = main(["bench", tiny_path, "--initials", "2", "--runs", "2",
                 "--iters", "300", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "hycim_rate=" in out and "dqubo_rate=" in out
    assert report.exists()


def test_bench_report_is_reproducible(tiny_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", tiny_path, "--initials", "2", "--runs", "2",
            "--iters", "300", "--seed", "7"]
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_json_report(tiny_path, tmp_path):
    out = tmp_path / "bench.json"
    main(["bench", tiny_path, "--initials", "1", "--runs", "1",
          "--iters", "200", "--json", str(out)])
    doc = json.loads(out.read_text())
    assert doc["instance"] == "tiny3"
    assert doc["optimum"] == 9


def test_bench_directory_mode(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "a.qkp").write_text(TINY_TEXT)
    main(["gen", "--n", "5", "--seed", "4", "-o", str(inst_dir / "b.qkp")])
    capsys.readouterr()
    out = tmp_path / "bench.json"
    code = main(["bench", "--dir", str(inst_dir), "--initials", "1",
                 "--runs", "1", "--iters", "200", "--json", str(out)])
    assert code == 0
    assert capsys.readouterr().out.count("optimum=") == 2
    assert [doc["instance"] for doc in json.loads(out.read_text())] == ["tiny3", "gen_n5_s4"]


def test_bench_requires_instances(capsys):
    assert main(["bench", "--initials", "1", "--runs", "1"]) == 1
    assert "no instances" in capsys.readouterr().err


# ------------------------------------------------------- resolution and errors

def test_missing_instance_is_an_error(capsys):
    assert main(["oracle", "nowhere.qkp"]) == 1
    assert "instance not found" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("profits_diag", 5), ("n", True), ("name", 7)])
def test_malformed_json_instance_exits_1(tmp_path, capsys, key, value):
    doc = {"name": "t", "n": 1, "profits_diag": [5], "profits_upper": [],
           "capacity": 3, "weights": [2]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, key: value}))
    assert main(["oracle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cimqubo: error:" in captured.err


def test_instances_env_resolution(tmp_path, monkeypatch, capsys):
    (tmp_path / "env3.qkp").write_text(TINY_TEXT)
    monkeypatch.setenv("CIMQUBO_INSTANCES", str(tmp_path))
    assert main(["oracle", "env3.qkp"]) == 0
    assert "best_value=9" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cimqubo 0.1.0" in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["launder"])
    assert exc.value.code == 2


# ------------------------------------------------------- settings echo

# argv after the subcommand and the instance path, then the echoed settings;
# {path} stands for the instance path
ECHOES = {
    "gen": (["--n", "4", "--seed", "3"],
            "n=4 density=0.5 wmax=20 pmax=50 cap_ratio=0.5 seed=3 name=None "
            "format=canonical-text output=None"),
    "transform": (["{path}", "--mode", "dqubo", "--beta", "3"],
                  "alpha=2 beta=3 instance={path} mode=dqubo output=None"),
    "oracle": (["{path}"], "instance={path}"),
    "solve": (["{path}", "--initials", "1", "--runs", "2", "--iters", "5"],
              "initials=1 runs=2 iterations=5 seed=0 jobs=1 alpha=2 beta=2 instance={path} "
              "mode=hycim backend=exact-software t_start=None t_end=None noise_sigma=0.0 "
              "trajectory=None"),
    "filter-eval": (["{path}", "--samples", "4", "--rows", "8"],
                    "instance={path} samples=4 noise_sigma=0.0 seed=0 rows=8 levels=4 "
                    "csv=None json=None"),
    "overhead": (["{path}", "--alpha", "3"], "alpha=3 beta=2 instances=['{path}'] csv=None"),
    "bench": (["{path}", "--initials", "1", "--runs", "1", "--iters", "5", "--seed", "4"],
              "initials=1 runs=1 iterations=5 seed=4 jobs=1 alpha=2 beta=2 "
              "instances=['{path}'] directory=None report=None json=None"),
}


@pytest.mark.parametrize("command", list(ECHOES))
def test_every_parsed_option_echoes_to_stderr(command, tiny_path, capsys):
    argv, settings = ECHOES[command]
    assert main([command] + [a.format(path=tiny_path) for a in argv]) == 0
    first = capsys.readouterr().err.splitlines()[0]
    assert first == f"cimqubo {command}: " + settings.format(path=tiny_path)
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(ECHOES) == set(subcommands.choices)
