"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one timed pass
of one of its `slots` in `run_pass`, and verifies the pass outputs in
`check`, outside the timing.
Every call into the program goes through a module attribute
(`anneal.batch_solve`, not a name imported into this file), so a Tracer
patching those attributes sees the workload's direct calls too.

* study-exact: the criterion-7 success-rate study on the exact backend, one
  instance per pass.  The annealer's exact loops and the exhaustive oracle
  do nearly all the work; the array models never run.
* study-cim: the same instances annealed on the behavioral-cim backend with
  crossbar and filter noise.  Array reads and filter checks dominate, and each
  read differs from the previous one by one flipped bit.
* compile-100: the hardware-cost path of the two 100-item instances, with no
  annealing: QUBO builds, quantization, overhead reports, programming,
  independent random reads, filter checks, file round trips and the CLI.

The studies' instances are fixed, so every run does the same work; the seed
picks the master seeds (initial configurations, run seeds, noise).
"""
from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from cimqubo import anneal, bench, cli, crossbar_sim, filter_sim, qkp, transform
from checks import check_equal, check_reads, check_records, check_verdicts, records_digest
from spans import default_iterations

MODES = ("hycim", "dqubo")
N20 = dict(density=0.5, wmax=20, pmax=50, cap_ratio=0.5)
ITERATIONS = default_iterations()  # every study run here uses the default schedule
THRESHOLD = 0.95
SIGMA = 0.02  # study-cim crossbar and filter noise

# study-exact warm-up slice: criterion-7 instance 1, master seed 1, 10 initials
# x 2 runs per mode.  Its optimum and record digests are pinned.
REFERENCE_OPTIMUM = 3053
REFERENCE_DIGESTS = {
    "hycim": "fa1c09579540bf6651272e18ebfa0bff744f629735a463607b8b972ceb269829",
    "dqubo": "df13bc963793575c8e67d8c54b49c893abed20eeac2747a535417b05cf5a43b9",
}

# compile-100 figures from criteria 2-4.
PINNED_HYCIM_BITS = [7, 7]
PINNED_DQUBO_BITS = [16, 25]
PINNED_DQUBO_DIMS = [200, 2636]
PINNED_CELLS = [(73_200, 640_000), (73_200, 173_712_400)]


def child_seed(seed, *key):
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def study_pool(seed, size):
    """The first `size` criterion-7 instances (generator seeds 1, 2, ...), each
    with a master seed derived from the workload seed."""
    return [(qkp.generate_instance(20, seed=k + 1, **N20), child_seed(seed, 1, k)) for k in range(size)]


def hundred_items(capacity, weight):
    """The criteria 2-4 instance: 100 items, one profit of 100, all others 1."""
    profits = np.ones((100, 100), dtype=np.int64)
    profits[0, 0] = 100
    return qkp.QkpInstance(name=f"c{capacity}", n=100, profits=profits,
                           weights=np.full(100, weight, dtype=np.int64), capacity=capacity)


@dataclass
class PassResult:
    slot: int = 0  # which of the workload's distinct passes this was
    mode_seconds: dict = field(default_factory=lambda: dict.fromkeys(MODES, 0.0))
    data: dict = field(default_factory=dict)
    seconds: float = 0.0  # whole pass, set by the runner

    @contextlib.contextmanager
    def timing(self, mode):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.mode_seconds[mode] += time.perf_counter() - start


def first_per_slot(passes):
    """The first pass of each slot, in slot order."""
    firsts = {}
    for p in passes:
        firsts.setdefault(p.slot, p)
    return [firsts[k] for k in sorted(firsts)]


def _success(records, optimum, runs_per_initial):
    hits = np.array([r.best_qkp_value >= THRESHOLD * optimum for r in records])
    return float(hits.reshape(-1, runs_per_initial).any(axis=1).mean())


def study_quality(passes, optima, runs_per_initial):
    """Per mode, over one pass of every instance: the mean per-initial success
    rate and the mean best value / optimum."""
    batches = [b for p in first_per_slot(passes) for b in p.data["batches"]]
    out = {}
    for mode in MODES:
        rows = [(recs, optima[k]) for k, m, recs in batches if m == mode]
        out[f"anneal.{mode}_success"] = float(np.mean([_success(r, o, runs_per_initial) for r, o in rows]))
        out[f"anneal.{mode}_value_ratio"] = float(np.mean(
            [rec.best_qkp_value / o for r, o in rows for rec in r]))
    return out


def _check_batches(tally, pool, passes, exact):
    """Record checks on the first pass of each instance; a repeated pass of an
    instance must reproduce its records exactly."""
    digests = {}
    for p in passes:
        digest = records_digest([r for _, _, recs in p.data["batches"] for r in recs])
        if p.slot in digests:
            check_equal(tally, digest, digests[p.slot], f"records of repeated pass {p.slot}")
            continue
        digests[p.slot] = digest
        for k, mode, recs in p.data["batches"]:
            inst = pool[k][0]
            qubo = None
            if exact:
                problem = (transform.build_inequality_qubo(inst) if mode == "hycim"
                           else transform.build_dqubo(inst))
                qubo = problem.qubo
            check_records(tally, inst, recs, ITERATIONS, qubo)


class StudyExact:
    """One pass is one instance's success-rate study; passes cycle through the
    10 criterion-7 instances."""

    name = "study-exact"

    def __init__(self, seed, instances=10, initials=100, runs=10):
        self.seed = seed
        self.slots = instances
        self.initials = initials
        self.runs = runs
        self.references = []

    def setup(self):
        self.pool = study_pool(self.seed, self.slots)
        # warm-up: oracle and both annealing modes on the pinned slice
        ref = qkp.generate_instance(20, seed=1, **N20)
        optimum = qkp.brute_force_oracle(ref).best_value
        digests = {mode: records_digest(anneal.batch_solve(ref, mode, 10, 2, master_seed=1))
                   for mode in MODES}
        self.references.append((optimum, digests))

    def run_pass(self, slot):
        result = PassResult(slot=slot)
        batches = result.data["batches"] = []
        solve = bench.batch_solve

        def tap(instance, mode, *args, **kwargs):
            with result.timing(mode):
                records = solve(instance, mode, *args, **kwargs)
            batches.append((slot, mode, records))
            return records

        inst, master_seed = self.pool[slot]
        bench.batch_solve = tap
        try:
            result.data["report"] = bench.success_rate_study(inst, self.initials, self.runs,
                                                             master_seed=master_seed)
        finally:
            bench.batch_solve = solve
        return result

    def check(self, tally, passes):
        for optimum, digests in self.references:
            check_equal(tally, optimum, REFERENCE_OPTIMUM, "reference optimum")
            for mode in MODES:
                check_equal(tally, digests[mode], REFERENCE_DIGESTS[mode], f"reference {mode} record digest")
        _check_batches(tally, self.pool, passes, exact=True)
        for p in first_per_slot(passes):
            rep = p.data["report"]
            recs = {m: r for _, m, r in p.data["batches"]}
            best = max(r.best_qkp_value for rs in recs.values() for r in rs)
            tally.check(rep.optimum >= best, f"{rep.instance}: a run beat the oracle optimum")
            for mode in MODES:
                rate = _success(recs[mode], rep.optimum, self.runs)
                check_equal(tally, getattr(rep, f"{mode}_rate"), rate, f"{rep.instance} {mode} success rate")

    def dqubo_probe(self):
        return max((inst for inst, _ in self.pool), key=lambda inst: inst.capacity)

    def quality(self, passes):
        optima = {p.slot: p.data["report"].optimum for p in passes}
        return study_quality(passes, optima, self.runs)


class StudyCim:
    """One pass anneals one instance in both modes; passes cycle through the
    first 8 criterion-7 instances."""

    name = "study-cim"

    def __init__(self, seed, instances=8, initials=2, runs=2, verify_instances=2):
        self.seed = seed
        self.slots = instances
        self.initials = initials
        self.runs = runs
        self.verify_instances = verify_instances

    def _solve(self, k, mode, initials, sigma, backend=anneal.BACKEND_CIM):
        inst, master_seed = self.pool[k]
        extra = {} if backend == anneal.BACKEND_EXACT else dict(
            filter_config=filter_sim.FilterConfig(noise_sigma=sigma), crossbar_noise_sigma=sigma)
        return anneal.batch_solve(inst, mode, initials, self.runs, backend=backend,
                                  master_seed=master_seed, **extra)

    def setup(self):
        self.pool = study_pool(self.seed, self.slots)
        self.optima = [qkp.brute_force_oracle(inst).best_value for inst, _ in self.pool]
        for mode in MODES:  # warm-up
            self._solve(0, mode, 1, SIGMA)

    def run_pass(self, slot):
        result = PassResult(slot=slot)
        batches = result.data["batches"] = []
        for mode in MODES:
            with result.timing(mode):
                batches.append((slot, mode, self._solve(slot, mode, self.initials, SIGMA)))
        return result

    def check(self, tally, passes):
        _check_batches(tally, self.pool, passes, exact=False)
        # criterion 9 on a sample of the pass's run seeds: the noiseless array
        # backend reproduces the exact backend record for record
        for k in range(min(self.verify_instances, self.slots)):
            for mode in MODES:
                quiet = self._solve(k, mode, 1, 0.0)
                exact = self._solve(k, mode, 1, 0.0, backend=anneal.BACKEND_EXACT)
                for a, b in zip(quiet, exact):
                    tally.check(a == b, f"{self.pool[k][0].name} {mode} seed {a.seed}: "
                                        "noiseless array record differs from exact")

    def dqubo_probe(self):
        return max((inst for inst, _ in self.pool), key=lambda inst: inst.capacity)

    def quality(self, passes):
        return study_quality(passes, self.optima, self.runs)


class Compile100:
    """Every pass repeats the same compile path."""

    name = "compile-100"
    slots = 1

    def __init__(self, seed, workdir, reads=200, checks=1000, suite=40, suite_configs=20):
        self.seed = seed
        self.workdir = workdir
        self.reads = reads
        self.checks = checks
        self.suite_size = suite
        self.suite_configs = suite_configs

    def setup(self):
        self.hundred = [hundred_items(100, 2), hundred_items(2536, 64)]
        rng = np.random.default_rng(child_seed(self.seed, 2))
        self.hycim_configs = rng.integers(0, 2, size=(self.reads, 100), dtype=np.int8)
        self.dqubo_configs = rng.integers(0, 2, size=(self.reads, 200), dtype=np.int8)
        self.filter_configs = rng.integers(0, 2, size=(self.checks, 100), dtype=np.int8)
        self.suite = [qkp.generate_instance(100, density=0.25, wmax=64, pmax=50, cap_ratio=0.5,
                                            seed=child_seed(self.seed, 3, k))
                      for k in range(self.suite_size)]
        self.suite_seed = child_seed(self.seed, 4)
        self.paths = [os.path.join(self.workdir, f"{inst.name}.qkp") for inst in self.hundred]
        for inst, path in zip(self.hundred, self.paths):
            qkp.save_instance(inst, path)
        self.qubo_out = os.path.join(self.workdir, "c100-dqubo.json")
        self.run_pass(0)  # warm-up

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def run_pass(self, slot):
        result = PassResult(slot=slot)
        d = result.data
        with result.timing("hycim"):
            ineq = [transform.build_inequality_qubo(inst) for inst in self.hundred]
            d["hycim_bits"] = [transform.quantization_info(m.qubo).bits for m in ineq]
            xbar = crossbar_sim.program_crossbar(ineq[0].qubo)
            d["hycim_reads"] = [crossbar_sim.vmv_energy(xbar, x) for x in self.hycim_configs]
            filters = [filter_sim.build_filter(inst.weights, inst.capacity) for inst in self.hundred]
            d["verdicts"] = [[filter_sim.filter_check(f, x).feasible for x in self.filter_configs]
                             for f in filters]
            d["suite"] = bench.filter_suite(self.suite, configs_per_instance=self.suite_configs,
                                            seed=self.suite_seed)
            d["ineq_json"] = transform.load_qubo_json(transform.dump_qubo_json(ineq[0]))
        with result.timing("dqubo"):
            dq = [transform.build_dqubo(inst) for inst in self.hundred]
            d["dqubo_bits"] = [transform.quantization_info(m.qubo).bits for m in dq]
            d["dqubo_dims"] = [m.qubo.dim for m in dq]
            xbar = crossbar_sim.program_crossbar(dq[0].qubo)
            d["dqubo_reads"] = [crossbar_sim.vmv_energy(xbar, x) for x in self.dqubo_configs]
            d["dqubo_json"] = transform.load_qubo_json(transform.dump_qubo_json(dq[0]))
            del dq  # free the capacity-2536 matrix before the next builds
            d["cli_transform"] = self._cli(["transform", self.paths[0], "--mode", "dqubo",
                                            "-o", self.qubo_out])
            with open(self.qubo_out, encoding="utf-8") as fh:
                d["cli_transform_text"] = fh.read()
        d["overhead"] = [bench.overhead_report(inst) for inst in self.hundred]
        d["round_trips"] = [qkp.parse_instance(qkp.dump_instance(inst, fmt), fmt)
                            for inst in self.hundred for fmt in (qkp.TEXT_FORMAT, qkp.JSON_FORMAT)]
        d["cli_overhead"] = self._cli(["overhead", *self.paths])
        return result

    def check(self, tally, passes):
        ineq = transform.build_inequality_qubo(self.hundred[0])
        dq = transform.build_dqubo(self.hundred[0])
        qubo_text = transform.dump_qubo_json(dq)
        pinned = list(zip(PINNED_HYCIM_BITS, PINNED_DQUBO_BITS, PINNED_DQUBO_DIMS, PINNED_CELLS))
        overhead_lines = {line for hb, db, dim, (hc, dc) in pinned
                          for line in (f"  hycim: bits={hb} cells={hc}", f"  dqubo: dim={dim} bits={db} cells={dc}")}
        for p in passes:
            d = p.data
            check_equal(tally, d["hycim_bits"], PINNED_HYCIM_BITS, "profit-matrix bit widths")
            check_equal(tally, d["dqubo_bits"], PINNED_DQUBO_BITS, "penalty-matrix bit widths")
            check_equal(tally, d["dqubo_dims"], PINNED_DQUBO_DIMS, "penalty-matrix dimensions")
            check_equal(tally, [(r.hycim_bits, r.dqubo_bits, r.dqubo_dim, (r.hycim_cells, r.dqubo_cells))
                                for r in d["overhead"]], pinned, "overhead reports")
            check_reads(tally, ineq.qubo, self.hycim_configs, d["hycim_reads"])
            check_reads(tally, dq.qubo, self.dqubo_configs, d["dqubo_reads"])
            for inst, verdicts in zip(self.hundred, d["verdicts"]):
                check_verdicts(tally, inst.weights, inst.capacity, self.filter_configs, verdicts)
            suite = d["suite"]
            check_equal(tally, (suite.num_cases, suite.accuracy),
                        (self.suite_size * self.suite_configs, 1.0), "filter suite cases and accuracy")
            tally.check(all((c.normalized_ml >= 1.0) == c.actual for c in suite.cases),
                        "filter suite: normalized matchline does not split at 1.0")
            for got, inst in zip(d["round_trips"], [i for i in self.hundred for _ in range(2)]):
                tally.check(got == inst, f"{inst.name} instance round trip")
            tally.check(d["ineq_json"].qubo == ineq.qubo, "inequality QUBO JSON round trip")
            tally.check(d["dqubo_json"].qubo == dq.qubo, "penalty QUBO JSON round trip")
            check_equal(tally, d["cli_transform"][0], 0, "cli transform exit code")
            tally.check(d["cli_transform_text"] == qubo_text, "cli transform output differs from dump_qubo_json")
            code, text = d["cli_overhead"]
            check_equal(tally, code, 0, "cli overhead exit code")
            missing = overhead_lines - set(text.splitlines())
            tally.check(not missing, f"cli overhead output lacks {sorted(missing)}")

    def dqubo_probe(self):
        return self.hundred[1]

    def quality(self, passes):
        return {}


WORKLOADS = {w.name: w for w in (StudyExact, StudyCim, Compile100)}
