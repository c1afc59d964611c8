"""Command line front end.

Exit codes: 0 on success, 1 on any runtime failure (bad input file, invalid
instance, overflow), 2 on bad command line arguments (argparse's own).
Instance arguments are tried as paths first, then relative to the directory
named by the CIMQUBO_INSTANCES environment variable.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .anneal import (
    BACKEND_CIM,
    BACKEND_EXACT,
    COOLING_RATIO,
    DEFAULT_ITERATIONS,
    MODE_DQUBO,
    MODE_HYCIM,
    AnnealSchedule,
    _build_problem,
    _draw_initials,
    _seed_table,
    batch_solve,
    default_schedule,
    sa_run,
    write_trajectory_csv,
)
from .bench import (
    filter_study,
    overhead_report,
    success_rate_study,
    write_filter_csv,
    write_overhead_csv,
    write_report_json,
    write_success_csv,
)
from .errors import CimQuboError, ConfigurationError
from .filter_sim import FilterConfig
from .qkp import (
    _LEAST_POSITIVE,
    JSON_FORMAT,
    TEXT_FORMAT,
    _as_float,
    brute_force_oracle,
    dump_instance,
    generate_instance,
    load_instance,
)
from .transform import (
    DEFAULT_PENALTY,
    build_dqubo,
    build_inequality_qubo,
    dump_qubo_json,
    quantization_info,
)


def _resolve_instance(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    root = os.environ.get("CIMQUBO_INSTANCES")
    if root:
        candidate = os.path.join(root, arg)
        if os.path.exists(candidate):
            return candidate
    raise CimQuboError(f"instance not found: {arg}")


def _load(arg: str):
    return load_instance(_resolve_instance(arg))


def _echo_settings(args) -> None:
    """Every parsed option of the command, in parser order, to stderr."""
    pairs = " ".join(f"{k}={v}" for k, v in vars(args).items() if k not in ("command", "func"))
    print(f"cimqubo {args.command}: {pairs}", file=sys.stderr)


def _out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    inst = generate_instance(
        args.n, density=args.density, wmax=args.wmax, pmax=args.pmax,
        cap_ratio=args.cap_ratio, seed=args.seed, name=args.name,
    )
    _out(dump_instance(inst, args.format), args.output)
    return 0


def _cmd_transform(args) -> int:
    inst = _load(args.instance)
    if args.mode == "ineq":
        model = build_inequality_qubo(inst)
    else:
        model = build_dqubo(inst, args.alpha, args.beta)
    qinfo = quantization_info(model.qubo.q)
    print(f"dim={model.qubo.dim} max_abs={qinfo.max_abs_element} bits={qinfo.bits}",
          file=sys.stderr)
    _out(dump_qubo_json(model), args.output)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    result = brute_force_oracle(inst)
    bits = "".join(str(int(b)) for b in result.best_config)
    print(f"instance={inst.name} n={inst.n} capacity={inst.capacity}")
    print(f"best_value={result.best_value}")
    print(f"best_config={bits}")
    print(f"feasible_count={result.feasible_count}")
    return 0


def _schedule_from_args(args, problem):
    base = default_schedule(problem, iterations=args.iterations)
    if args.t_start is None and args.t_end is None:
        return base
    # checked before t_end derives from it, so a bad value is named as given
    t_start = base.t_start if args.t_start is None else _as_float(
        args.t_start, "t_start", _LEAST_POSITIVE)
    t_end = args.t_end if args.t_end is not None else COOLING_RATIO * t_start
    return AnnealSchedule(iterations=args.iterations, t_start=t_start, t_end=t_end)


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    problem = _build_problem(inst, args.mode, args.alpha, args.beta)
    schedule = _schedule_from_args(args, problem)
    hycim_noise = args.noise_sigma if args.mode == MODE_HYCIM else 0.0  # dqubo runs have no filter
    filter_cfg = FilterConfig(noise_sigma=hycim_noise) if hycim_noise else None
    if args.trajectory:
        if args.initials != 1 or args.runs != 1:
            raise ConfigurationError("--trajectory needs --initials 1 --runs 1")
        initial = _draw_initials(args.seed, 1, problem.dim)[0]
        record = sa_run(
            problem, backend=args.backend, schedule=schedule, initial=initial,
            seed=_seed_table(args.seed, 1, 1)[0], filter_config=filter_cfg,
            crossbar_noise_sigma=args.noise_sigma, record_trajectory=True,
        )
        write_trajectory_csv(record, args.trajectory)
        records = [record]
    else:
        records = batch_solve(
            inst, args.mode, args.initials, args.runs, schedule=schedule,
            backend=args.backend, master_seed=args.seed, alpha=args.alpha,
            beta=args.beta, filter_config=filter_cfg,
            crossbar_noise_sigma=args.noise_sigma, jobs=args.jobs,
        )
    best = max(records, key=lambda r: r.best_qkp_value)
    values = [r.best_qkp_value for r in records]
    bits = "".join(str(int(b)) for b in best.best_config)
    print(f"instance={inst.name} mode={args.mode} backend={args.backend}")
    print(f"runs={len(records)} iterations={schedule.iterations}")
    print(f"best_value={best.best_qkp_value}")
    print(f"best_energy={best.best_energy}")
    print(f"best_config={bits}")
    print(f"mean_value={sum(values) / len(values):.2f}")
    print(f"filter_rejections={sum(r.filter_rejections for r in records)}")
    print(f"evaluations={sum(r.evaluations for r in records)}")
    return 0


def _cmd_filter_eval(args) -> int:
    inst = _load(args.instance)
    cfg = FilterConfig(rows=args.rows, levels_per_cell=args.levels,
                       noise_sigma=args.noise_sigma)
    study = filter_study(inst, args.samples, config=cfg, seed=args.seed)
    if args.csv:
        write_filter_csv(study, args.csv, {"rows": args.rows, "levels": args.levels})
    if args.json:
        write_report_json(study, args.json)
    print(f"instance={inst.name} cases={study.num_cases} "
          f"noise_sigma={study.noise_sigma}")
    print(f"accuracy={study.accuracy:.4f}")
    return 0


def _cmd_overhead(args) -> int:
    reports = []
    for name in args.instances:
        inst = _load(name)
        reports.append(overhead_report(inst, args.alpha, args.beta))
    if args.csv:
        write_overhead_csv(reports, args.csv, {"alpha": args.alpha, "beta": args.beta})
    for r in reports:
        print(f"instance={r.instance} n={r.n} capacity={r.capacity}")
        print(f"  hycim: bits={r.hycim_bits} cells={r.hycim_cells}")
        print(f"  dqubo: dim={r.dqubo_dim} bits={r.dqubo_bits} cells={r.dqubo_cells}")
        print(f"  saving_fraction={r.saving_fraction:.6f} "
              f"search_space_reduction_exponent={r.search_space_reduction_exponent}")
    return 0


def _cmd_bench(args) -> int:
    names = list(args.instances)
    if args.directory:
        entries = sorted(os.listdir(args.directory))
        names.extend(os.path.join(args.directory, e) for e in entries
                     if os.path.isfile(os.path.join(args.directory, e)))
    if not names:
        raise ConfigurationError("no instances given; pass paths or --dir")
    reports = []
    for name in names:
        inst = _load(name)
        report = success_rate_study(
            inst, args.initials, args.runs, master_seed=args.seed,
            iterations=args.iterations, alpha=args.alpha, beta=args.beta,
            jobs=args.jobs,
        )
        reports.append(report)
        print(f"instance={report.instance} optimum={report.optimum} "
              f"threshold={report.threshold:.2f}")
        print(f"  hycim_rate={report.hycim_rate:.4f} "
              f"per_run={report.hycim_run_rate:.4f} ({report.hycim_runs} runs)")
        print(f"  dqubo_rate={report.dqubo_rate:.4f} "
              f"per_run={report.dqubo_run_rate:.4f} ({report.dqubo_runs} runs)")
    if args.report:
        meta = {"initials": args.initials, "runs_per_initial": args.runs,
                "iterations": args.iterations, "master_seed": args.seed,
                "alpha": args.alpha, "beta": args.beta}
        write_success_csv(reports, args.report, meta)
    if args.json:
        write_report_json(reports[0] if len(reports) == 1 else reports, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimqubo",
        description="Knapsack-constrained QUBO tools with behavioral "
                    "compute-in-memory array models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    penalty = argparse.ArgumentParser(add_help=False)
    penalty.add_argument("--alpha", type=int, default=DEFAULT_PENALTY)
    penalty.add_argument("--beta", type=int, default=DEFAULT_PENALTY)
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--initials", type=int, default=100)
    runs.add_argument("--runs", type=int, default=10)
    runs.add_argument("--iters", "--iterations", dest="iterations", type=int,
                      default=DEFAULT_ITERATIONS)
    runs.add_argument("--seed", type=int, default=0)
    runs.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--wmax", type=int, default=20)
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--cap-ratio", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None)
    p.add_argument("--format", choices=[TEXT_FORMAT, JSON_FORMAT], default=TEXT_FORMAT)
    p.add_argument("-o", "--output", default=None, help="output path, - for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("transform", parents=[penalty],
                       help="emit a QUBO document for an instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=["ineq", "dqubo"], required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("solve", parents=[runs, penalty], help="simulated annealing")
    p.add_argument("instance")
    p.add_argument("--mode", choices=[MODE_HYCIM, MODE_DQUBO], default=MODE_HYCIM)
    p.add_argument("--backend", choices=[BACKEND_EXACT, BACKEND_CIM],
                   default=BACKEND_EXACT)
    p.add_argument("--t-start", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="array noise, behavioral-cim backend only")
    p.add_argument("--trajectory", default=None,
                   help="CSV path; needs --initials 1 --runs 1")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("filter-eval", help="filter classification accuracy")
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--noise-sigma", type=float, default=FilterConfig.noise_sigma)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=FilterConfig.rows)
    p.add_argument("--levels", type=int, default=FilterConfig.levels_per_cell)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_filter_eval)

    p = sub.add_parser("overhead", parents=[penalty], help="hardware cost comparison")
    p.add_argument("instances", nargs="+")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("bench", parents=[runs, penalty], help="success-rate study, both modes")
    p.add_argument("instances", nargs="*")
    p.add_argument("--dir", dest="directory", default=None,
                   help="run every instance file in this directory")
    p.add_argument("--report", "--csv", dest="report", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_settings(args)
    try:
        return args.func(args)
    except (CimQuboError, OSError) as exc:
        print(f"cimqubo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
