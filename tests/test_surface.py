"""The package's public surface: every exported name resolves, once."""

import numpy as np

import cimqubo
from cimqubo import anneal, bench, cli, crossbar_sim, filter_sim, qkp, transform

REMOVED = {
    "IsingModel", "ising_to_qubo", "qubo_to_ising", "classification_accuracy",
    "report_filename", "_parse_transform_mode", "_dqubo_max_abs", "SignedPlanes",
}


def test_all_names_are_unique_and_resolve():
    assert len(cimqubo.__all__) == len(set(cimqubo.__all__))
    for name in cimqubo.__all__:
        assert hasattr(cimqubo, name), name


def test_load_qubo_json_return_type_is_exported():
    assert cimqubo.QuboDocument is transform.QuboDocument
    assert "QuboDocument" in cimqubo.__all__


def test_removed_names_are_gone():
    assert not REMOVED & set(cimqubo.__all__)
    for module in (cimqubo, bench, cli, crossbar_sim, filter_sim, qkp, transform):
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
    assert not hasattr(qkp.QkpInstance, "vacuous_constraint")
    assert "sign" not in crossbar_sim.CrossbarModel.__dataclass_fields__
    assert not hasattr(crossbar_sim.CrossbarModel, "planes")


def test_programmed_quantities_are_stored_once():
    # the crossbar keeps only its packed rows; models read the instance they hold
    assert not {"parts", "_read_stack"} & set(dir(crossbar_sim.CrossbarModel))
    fields = {cls: set(cls.__dataclass_fields__)
              for cls in (filter_sim.FilterModel, transform.InequalityQuboModel, transform.DQuboModel)}
    assert not {"weights", "capacity"} & fields[filter_sim.FilterModel]
    assert not {"weights", "capacity"} & fields[transform.InequalityQuboModel]
    assert not {"n", "capacity"} & fields[transform.DQuboModel]


def test_run_records_have_slots():
    # studies keep every record, so no record carries an instance __dict__
    record = anneal.RunRecord(seed=0, mode="hycim", best_energy=0, best_config=np.zeros(1),
                              best_qkp_value=0, trajectory=None, filter_rejections=0,
                              evaluations=1)
    assert "__slots__" in vars(anneal.RunRecord)
    assert not hasattr(record, "__dict__")
