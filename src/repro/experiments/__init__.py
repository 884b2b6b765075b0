"""The evaluation harness: the scenario registry, its cell measurements
and the orchestrator that runs them."""

from .churn import ChurnResult, run_churn_experiment
from .ablations import PassiveSizePoint, ResendPoint, ShuffleTtlPoint, default_passive_sizes
from .failures import (
    FIGURE2_FRACTIONS,
    FIGURE3_FRACTIONS,
    PAPER_PROTOCOLS,
    FailureExperimentResult,
    stabilized_scenario,
)
from .fanout import FIGURE1_FANOUTS, FanoutPoint, hyparview_reference_point
from .graphprops import TABLE1_PROTOCOLS, GraphPropertiesResult, run_graph_properties
from .healing import FIGURE4_FRACTIONS, FIGURE4_PROTOCOLS, HealingResult
from .params import ExperimentParams
from .registry import (
    REGISTRY,
    TIER_NAMES,
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
    "TIER_NAMES",
    "FIGURE1_FANOUTS",
    "FIGURE2_FRACTIONS",
    "FIGURE3_FRACTIONS",
    "FIGURE4_FRACTIONS",
    "FIGURE4_PROTOCOLS",
    "PAPER_PROTOCOLS",
    "TABLE1_PROTOCOLS",
    "ChurnResult",
    "ExperimentParams",
    "FailureExperimentResult",
    "FanoutPoint",
    "GraphPropertiesResult",
    "HealingResult",
    "PassiveSizePoint",
    "ResendPoint",
    "RunContext",
    "Scenario",
    "ScenarioRun",
    "ScenarioSpec",
    "ShuffleTtlPoint",
    "TierConfig",
    "WorkUnit",
    "build_units",
    "default_passive_sizes",
    "encode_artifact",
    "format_series",
    "format_table",
    "get_scenario",
    "hyparview_reference_point",
    "json_safe",
    "load_artifact",
    "register",
    "replicate_seed",
    "run_and_report",
    "run_graph_properties",
    "run_churn_experiment",
    "run_scenarios",
    "scenario_ids",
    "sparkline",
    "stabilized_scenario",
    "write_artifact",
    "write_artifacts",
]
