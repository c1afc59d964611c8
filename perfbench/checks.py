"""Output checks.  Each check counts one checked operation and records a
failure message when the program's output disagrees with an independent
recomputation (plain numpy on the instance data, never the code under test)."""
from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

import numpy as np


class Tally:
    """Checked operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self):
        return len(self.failures)


def _quadratic(x, q):
    return np.einsum("ri,ij,rj->r", x, q, x)


def check_records(tally, instance, records, iterations, qubo=None):
    """Each RunRecord: best_qkp_value is the profit of its configuration (0 when
    over weight), its counters add up, and, given the annealed QuboMatrix, its
    best_energy is that configuration's energy (gated to 0 in hycim mode)."""
    if not records:
        return
    n = instance.n
    full = np.array([r.best_config for r in records], dtype=np.int64)
    x = full[:, :n]
    feasible = x @ instance.weights <= instance.capacity
    values = np.where(feasible, _quadratic(x, instance.profits), 0)
    if qubo is not None:
        energies = _quadratic(full, qubo.q) + qubo.offset
        if full.shape[1] == n:  # hycim: energy is gated by the constraint
            energies = np.where(feasible, energies, 0)
    for k, rec in enumerate(records):
        if rec.mode == "hycim":
            counts_ok = rec.filter_rejections + rec.evaluations == iterations
        else:
            counts_ok = rec.filter_rejections == 0 and rec.evaluations == iterations
        ok = (rec.best_qkp_value == int(values[k]) and counts_ok
              and (qubo is None or rec.best_energy == int(energies[k])))
        tally.check(ok, f"{instance.name} {rec.mode} run seed {rec.seed}: record disagrees with its configuration")


def check_reads(tally, qubo, configs, readings):
    """Noiseless array reads: exact_value == QuboMatrix.energy(x) == value."""
    for x, r in zip(configs, readings):
        expect = qubo.energy(x)
        tally.check(r.exact_value == expect and r.value == expect,
                    f"crossbar read {r.exact_value} (value {r.value}) != energy {expect}")
    tally.check(len(configs) == len(readings), "crossbar read count differs from configurations sent")


def check_verdicts(tally, weights, capacity, configs, verdicts):
    """Noiseless filter verdicts equal the inequality w.x <= C."""
    expect = (np.asarray(configs, dtype=np.int64) @ np.asarray(weights)) <= capacity
    for k, (want, got) in enumerate(zip(expect.tolist(), verdicts)):
        tally.check(want == got, f"filter verdict {got} for config {k}, inequality says {want}")
    tally.check(len(expect) == len(verdicts), "filter verdict count differs from configurations sent")


def check_equal(tally, got, want, what):
    tally.check(got == want, f"{what}: got {got!r}, want {want!r}")


def records_digest(records):
    """sha256 over every field of every record, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.seed, r.mode, r.best_energy, r.best_qkp_value,
                       r.filter_rejections, r.evaluations)).encode())
        h.update(np.asarray(r.best_config, dtype=np.int8).tobytes())
    return h.hexdigest()


def check_trace_counts(tally, index):
    """Array activity the tracer saw under each behavioral-cim batch_solve span
    agrees with its runs' counters: hycim makes one filter check per iteration
    plus one for the initial state and reads the array at most once more than
    it evaluates; dqubo reads once per evaluation plus the initial read."""
    seen = defaultdict(Counter)
    for i in index.select({"crossbar.vmv_energy", "filter.filter_check"}, in_pass=False):
        seen[index.parent(i)][index.name(i)] += 1
    for b in index.select("anneal.batch_solve", in_pass=False):
        a = index.attr(b)
        if a["backend"] != "behavioral-cim":
            continue
        reads, checks = seen[b]["crossbar.vmv_energy"], seen[b]["filter.filter_check"]
        if a["mode"] == "hycim":
            ok = checks == a["iterations"] + a["runs"] and a["evaluations"] <= reads <= a["evaluations"] + a["runs"]
        else:
            ok = checks == 0 and reads == a["evaluations"] + a["runs"]
        tally.check(ok, f"{a['mode']} batch: {reads} reads and {checks} filter checks disagree with "
                        f"{a['runs']} runs, {a['iterations']} iterations, {a['evaluations']} evaluations")
