"""The package's public surface: every exported name resolves, once, and
every option and import has a use."""

import ast
import copy
import dataclasses
import importlib.util
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import cimqubo
from cimqubo import anneal, bench, cli, crossbar_sim, errors, filter_sim, qkp, transform

REMOVED = {
    "IsingModel", "ising_to_qubo", "qubo_to_ising", "classification_accuracy",
    "report_filename", "_parse_transform_mode", "_dqubo_max_abs", "SignedPlanes",
    "constrained_energy", "linearity_sweep", "WeightPlane", "ReplicaConfig",
    "decompose_weights", "build_replica", "evaluate_ml",
    "qkp_objective", "qkp_weight", "is_feasible", "bits", "reconstruct", "vdd", "unit_drop",
    "energy_bound",
}

# the full parameter lists of the functions that lost an option: the option
# is gone and nothing took its place
PARAMETERS = {
    anneal.sa_run: ["problem", "backend", "schedule", "initial", "seed", "filter_config",
                    "crossbar_noise_sigma", "record_trajectory"],
    bench.success_rate_study: ["instance", "num_initials", "runs_per_initial", "master_seed",
                               "iterations", "alpha", "beta", "jobs"],
    bench.filter_suite: ["instances", "configs_per_instance", "seed"],
    bench.overhead_report: ["instance", "alpha", "beta"],
    filter_sim.sample_balanced_configs: ["weights", "capacity", "num_feasible",
                                         "num_infeasible", "seed"],
    qkp.load_instance: ["path"],
    qkp.save_instance: ["instance", "path"],
}


def test_all_names_are_unique_and_resolve():
    assert len(cimqubo.__all__) == len(set(cimqubo.__all__))
    for name in cimqubo.__all__:
        assert hasattr(cimqubo, name), name


def _loaded_names(path):
    """Names a module reads, as bare names or attributes, outside the
    statement that defines them; imports bind names without reading them."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        defined = set()
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        elif isinstance(stmt, ast.Assign):
            defined = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        read = {node.id for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        used |= read - defined
    return used


def test_every_exported_name_has_a_caller_outside_the_tests():
    package = Path(cimqubo.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (package.parents[1] / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    used = set().union(*map(_loaded_names, sources))
    assert sorted(set(cimqubo.__all__) - used) == []


def test_every_traced_binding_resolves_to_a_callable():
    # the benchmark's tracer wraps these names where callers look them up; a
    # refactor that unbinds one, say quantization_info in cli, breaks traced runs
    path = Path(cimqubo.__file__).parents[2] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = spans.patch_points()
    assert points
    for module, attr, _, _ in points:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_load_qubo_json_return_type_is_exported():
    assert cimqubo.QuboDocument is transform.QuboDocument
    assert "QuboDocument" in cimqubo.__all__


def test_removed_names_are_gone():
    assert not REMOVED & set(cimqubo.__all__)
    for module in (cimqubo, bench, cli, crossbar_sim, filter_sim, qkp, transform):
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
    for cls in (crossbar_sim.CrossbarModel, filter_sim.FilterConfig, transform.QuboMatrix):
        assert not REMOVED & set(dir(cls)), cls.__name__
    assert not hasattr(qkp.QkpInstance, "vacuous_constraint")
    assert "sign" not in crossbar_sim.CrossbarModel.__dataclass_fields__
    assert not hasattr(crossbar_sim.CrossbarModel, "planes")


def test_removed_options_are_gone():
    for fn, params in PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert list(filter_sim.FilterConfig.__dataclass_fields__) == [
        "rows", "levels_per_cell", "noise_sigma"]
    # one schedule default only: default_schedule's
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(anneal.AnnealSchedule))


def test_modules_have_no_unused_imports():
    for path in sorted(Path(cimqubo.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                        if name not in used)
        assert not unused, f"{path.name}: {unused}"


def test_programmed_quantities_are_stored_once():
    # the crossbar keeps only its packed rows; a model is its instance and penalty
    # weights, and expands its matrix only when .qubo is read
    assert not {"parts", "_read_stack"} & set(dir(crossbar_sim.CrossbarModel))
    fields = {cls: set(cls.__dataclass_fields__)
              for cls in (filter_sim.FilterModel, transform.InequalityQuboModel, transform.DQuboModel)}
    assert fields[filter_sim.FilterModel] == {"weights", "unit_drop", "config", "replica_ml"}
    assert fields[transform.InequalityQuboModel] == {"instance"}
    assert fields[transform.DQuboModel] == {"instance", "alpha", "beta"}


def test_run_records_have_slots():
    # studies and suites keep every record, so no record carries an instance __dict__
    records = [
        anneal.RunRecord(seed=0, mode="hycim", best_energy=0, best_config=np.zeros(1),
                         best_qkp_value=0, trajectory=None, filter_rejections=0, evaluations=1),
        bench.FilterCase(instance="a", config_id=0, weight_sum=3, capacity=4, working_ml=1.5,
                         replica_ml=1.0, normalized_ml=0.75, predicted=True, actual=True),
        crossbar_sim.EnergyReading(value=-3.0, exact_value=-3, activated_cells=5),
    ]
    for record in records:
        assert "__slots__" in vars(type(record))
        assert not hasattr(record, "__dict__")
    for record in records[1:]:
        assert pickle.loads(pickle.dumps(record)) == record
        assert dataclasses.replace(record) == record
        assert list(dataclasses.asdict(record)) == list(type(record).__dataclass_fields__)


# one value per class, and a different value for every field its equality compares
EQUALITY_CASES = [
    (qkp.QkpInstance(name="a", n=2, profits=[[1, 0], [0, 1]], weights=[1, 2], capacity=2,
                     meta={"seed": 0}),
     {"name": "b", "n": 3, "profits": np.eye(2, dtype=np.int64) * 2,
      "weights": np.array([2, 1]), "capacity": 3}),
    (qkp.OracleResult(best_value=3, best_config=np.array([1, 0], dtype=np.int8), feasible_count=3),
     {"best_value": 4, "best_config": np.array([1, 0, 0], dtype=np.int8), "feasible_count": 2}),
    (transform.QuboMatrix(np.eye(2, dtype=np.int64), offset=1),
     {"q": np.eye(2, dtype=np.int64) * -1, "offset": 2}),
    (anneal.RunRecord(seed=5, mode="hycim", best_energy=-3, best_config=np.array([1, 0], dtype=np.int8),
                      best_qkp_value=3, trajectory=[(0, -3.0, True, True)], filter_rejections=1,
                      evaluations=2),
     {"seed": 6, "mode": "dqubo", "best_energy": -3.5, "best_config": np.array([0, 1], dtype=np.int8),
      "best_qkp_value": 2, "trajectory": None, "filter_rejections": 0, "evaluations": 3}),
]


def _with(value, name, other):
    clone = copy.copy(value)
    object.__setattr__(clone, name, other)
    return clone


@pytest.mark.parametrize("value, changes", EQUALITY_CASES,
                         ids=[type(v).__name__ for v, _ in EQUALITY_CASES])
def test_equality_sees_every_compared_field(value, changes):
    cls = type(value)
    assert cls.__eq__ is qkp._fields_equal
    assert cls.__hash__ is None
    compared = [f.name for f in dataclasses.fields(cls) if f.compare]
    assert compared == list(changes)
    assert [f.name for f in dataclasses.fields(cls) if not f.compare] == (
        ["meta"] if cls is qkp.QkpInstance else [])
    assert value == copy.copy(value)
    assert value.__eq__(object()) is NotImplemented
    for name, other in changes.items():
        assert value != _with(value, name, other), name
    if cls is qkp.QkpInstance:
        assert value == _with(value, "meta", {"seed": 1})


# one instance of every error class, built with its own constructor arguments
ERRORS = [
    errors.CimQuboError("base"),
    errors.ValidationError("alpha", "bad"),
    errors.ParseError(3, "unexpected token"),
    errors.DimensionError("shape"),
    errors.CapacityError("too big"),
    errors.ConfigurationError("unsupported"),
    errors.SamplingError("gave up", feasible_found=2, infeasible_found=5),
]


def test_every_error_survives_pickling():
    # batch_solve workers send their errors back to the parent process pickled
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, Exception)}
    assert {type(e) for e in ERRORS} == classes
    for error in ERRORS:
        copy_ = pickle.loads(pickle.dumps(error))
        assert type(copy_) is type(error)
        assert str(copy_) == str(error) and copy_.args == error.args
        assert vars(copy_) == vars(error)
