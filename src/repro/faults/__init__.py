"""Fault injection: declarative fault plans for sim and live runtime.

One vocabulary and one reader (:class:`~repro.faults.plan.PlanDriver`),
two sets of substrate seams:

* :class:`~repro.faults.sim.SimFaultDriver` on the discrete-event
  simulator;
* :class:`~repro.faults.chaos.ChaosController` (imported explicitly —
  it pulls in asyncio runtime machinery) on a loopback-TCP
  :class:`~repro.runtime.cluster.LocalCluster`, which refuses a
  ``duplicate_rate`` it cannot apply.

The ``faults_*`` registry scenarios live in
:mod:`repro.faults.scenarios` and are registered when the experiment
registry is imported.
"""

from .measure import measure_fault_plan
from .plan import (
    DEFAULT_MUTATION_TYPES,
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    FaultEvent,
    FaultPlan,
    MutationEvent,
    PartitionEvent,
    Phase,
    RestartEvent,
    plan_from_file,
)
from .sim import SimFaultDriver

__all__ = [
    "AdversaryEvent",
    "CrashEvent",
    "DEFAULT_MUTATION_TYPES",
    "DegradeEvent",
    "FaultEvent",
    "FaultPlan",
    "MutationEvent",
    "PartitionEvent",
    "Phase",
    "RestartEvent",
    "SimFaultDriver",
    "measure_fault_plan",
    "plan_from_file",
]
