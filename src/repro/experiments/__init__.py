"""The evaluation harness: the scenario registry (each scenario's cells
measure and return their own rows) and the orchestrator that runs them."""

from .params import ExperimentParams
from .registry import (
    REGISTRY,
    TIER_SCALES,
    RunContext,
    ScenarioSpec,
    TierConfig,
    get_scenario,
    register,
    scenario_ids,
)
from .reporting import (
    ARTIFACT_SCHEMA,
    encode_artifact,
    format_series,
    format_table,
    json_safe,
    load_artifact,
    sparkline,
    write_artifact,
)
from .runner import (
    ScenarioRun,
    WorkUnit,
    build_units,
    replicate_seed,
    run_and_report,
    run_scenarios,
    write_artifacts,
)
from .scenario import Scenario

__all__ = [
    "ARTIFACT_SCHEMA",
    "REGISTRY",
    "TIER_SCALES",
    "ExperimentParams",
    "RunContext",
    "Scenario",
    "ScenarioRun",
    "ScenarioSpec",
    "TierConfig",
    "WorkUnit",
    "build_units",
    "encode_artifact",
    "format_series",
    "format_table",
    "get_scenario",
    "json_safe",
    "load_artifact",
    "register",
    "replicate_seed",
    "run_and_report",
    "run_scenarios",
    "scenario_ids",
    "sparkline",
    "write_artifact",
    "write_artifacts",
]
