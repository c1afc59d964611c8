"""Property tests of the lockstep annealer and the penalty coefficient
formulas on random small instances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cimqubo import (
    AnnealSchedule,
    FilterConfig,
    batch_solve,
    build_dqubo,
    build_inequality_qubo,
    dqubo_quantization_info,
    quantization_info,
    sa_run,
)

from conftest import make_instance, ref_initials, ref_run_seed

BUILDS = {"hycim": build_inequality_qubo, "dqubo": build_dqubo}
SCHEDULE = AnnealSchedule(iterations=60, t_start=30.0, t_end=3.0)
NOISE = dict(filter_config=FilterConfig(noise_sigma=0.05), crossbar_noise_sigma=0.05)


@st.composite
def instances(draw):
    """n <= 8 items, weights up to 20, capacity at most 24 so penalty
    matrices stay small."""
    n = draw(st.integers(1, 8))
    upper = np.array(draw(st.lists(st.integers(0, 30), min_size=n * n, max_size=n * n))).reshape(n, n)
    profits = np.triu(upper) + np.triu(upper, k=1).T
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    capacity = draw(st.integers(1, min(sum(weights), 24)))
    return make_instance(profits, weights, capacity, name="prop")


common = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize("backend, noise", [("exact-software", {}), ("behavioral-cim", NOISE)])
@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), master=st.integers(0, 2**32 - 1))
def test_batch_equals_single_runs(backend, noise, inst, mode, master):
    records = batch_solve(inst, mode, 2, 2, schedule=SCHEDULE, backend=backend,
                          master_seed=master, **noise)
    problem = BUILDS[mode](inst)
    initials = ref_initials(master, 2, problem.qubo.dim)
    singles = [sa_run(problem, backend=backend, schedule=SCHEDULE, initial=initials[i],
                      seed=ref_run_seed(master, i, r), **noise)
               for i in range(2) for r in range(2)]
    assert records == singles


@common
@given(inst=instances(), mode=st.sampled_from(sorted(BUILDS)), master=st.integers(0, 2**32 - 1))
def test_noiseless_array_backend_equals_exact(inst, mode, master):
    exact = batch_solve(inst, mode, 2, 2, schedule=SCHEDULE, master_seed=master)
    array = batch_solve(inst, mode, 2, 2, schedule=SCHEDULE, backend="behavioral-cim",
                        master_seed=master)
    assert array == exact
    problem = BUILDS[mode](inst)
    initial = ref_initials(master, 1, problem.qubo.dim)[0]
    runs = [sa_run(problem, backend=backend, schedule=SCHEDULE, initial=initial, seed=master,
                   record_trajectory=True)
            for backend in ("exact-software", "behavioral-cim")]
    assert runs[0] == runs[1]


@common
@given(inst=instances(), alpha=st.integers(1, 300), beta=st.integers(1, 20))
# n = 1 and C = 1 with alpha > beta: the slack diagonal |beta - alpha| is the peak
@example(inst=make_instance([[0]], [1], 1, name="one"), alpha=50, beta=1)
def test_dqubo_closed_form_quantization_matches_built_matrix(inst, alpha, beta):
    built = quantization_info(build_dqubo(inst, alpha, beta).qubo)
    assert dqubo_quantization_info(inst, alpha, beta) == built
