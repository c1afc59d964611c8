"""Knapsack-constrained QUBO toolkit with behavioral models of a
compute-in-memory constraint filter and a bit-sliced crossbar."""

__version__ = "0.1.0"

from .anneal import (
    BACKEND_CIM,
    BACKEND_EXACT,
    MODE_DQUBO,
    MODE_HYCIM,
    AnnealSchedule,
    RunRecord,
    batch_solve,
    default_schedule,
    flip_scale,
    sa_run,
    write_trajectory_csv,
)
from .bench import (
    FilterCase,
    FilterStudy,
    OverheadReport,
    SuccessReport,
    filter_study,
    filter_suite,
    overhead_report,
    success_rate_study,
    write_filter_csv,
    write_overhead_csv,
    write_report_json,
    write_success_csv,
)
from .crossbar_sim import (
    CrossbarModel,
    EnergyReading,
    program_crossbar,
    vmv_energy,
)
from .errors import (
    CapacityError,
    CimQuboError,
    ConfigurationError,
    DimensionError,
    ParseError,
    SamplingError,
    ValidationError,
)
from .filter_sim import (
    FilterConfig,
    FilterDecision,
    FilterModel,
    build_filter,
    filter_check,
    sample_balanced_configs,
)
from .qkp import (
    JSON_FORMAT,
    ORACLE_MAX_ITEMS,
    TEXT_FORMAT,
    OracleResult,
    QkpInstance,
    as_bits,
    brute_force_oracle,
    dump_instance,
    generate_instance,
    infer_format,
    load_instance,
    parse_instance,
    save_instance,
)
from .transform import (
    DEFAULT_PENALTY,
    DQUBO_MODE,
    INEQUALITY_MODE,
    DQuboModel,
    InequalityQuboModel,
    QuantizationInfo,
    QuboDocument,
    QuboMatrix,
    build_dqubo,
    build_inequality_qubo,
    dqubo_quantization_info,
    dump_qubo_json,
    load_qubo_json,
    quantization_info,
)

__all__ = [
    "__version__",
    "AnnealSchedule", "RunRecord", "sa_run", "batch_solve", "default_schedule",
    "flip_scale", "write_trajectory_csv",
    "MODE_HYCIM", "MODE_DQUBO", "BACKEND_EXACT", "BACKEND_CIM",
    "OverheadReport", "SuccessReport", "FilterCase", "FilterStudy",
    "overhead_report", "success_rate_study", "filter_study", "filter_suite",
    "write_overhead_csv", "write_success_csv", "write_filter_csv",
    "write_report_json",
    "CrossbarModel", "EnergyReading", "program_crossbar", "vmv_energy",
    "CimQuboError", "ValidationError", "ParseError", "DimensionError",
    "CapacityError", "ConfigurationError", "SamplingError",
    "FilterConfig", "FilterDecision", "FilterModel", "build_filter",
    "filter_check", "sample_balanced_configs",
    "QkpInstance", "OracleResult", "as_bits", "brute_force_oracle",
    "generate_instance", "parse_instance", "dump_instance", "load_instance",
    "save_instance", "infer_format", "TEXT_FORMAT", "JSON_FORMAT", "ORACLE_MAX_ITEMS",
    "QuboMatrix", "QuantizationInfo", "InequalityQuboModel", "DQuboModel",
    "QuboDocument", "build_inequality_qubo", "build_dqubo",
    "quantization_info", "dqubo_quantization_info", "dump_qubo_json",
    "load_qubo_json", "INEQUALITY_MODE", "DQUBO_MODE",
    "DEFAULT_PENALTY",
]
