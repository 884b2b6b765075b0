"""repro — a full reproduction of *HyParView: a membership protocol for
reliable gossip-based broadcast* (Leitão, Pereira & Rodrigues, DSN 2007).

Public surface:

* :mod:`repro.core` — the HyParView protocol (sans-io state machine);
* :mod:`repro.protocols` — the peer-sampling contract and the paper's
  baselines (Cyclon, CyclonAcked, Scamp);
* :mod:`repro.gossip` — broadcast layers (eager gossip, HyParView flood,
  Plumtree) and delivery tracking;
* :mod:`repro.sim` — discrete-event simulation substrate;
* :mod:`repro.metrics` — overlay analytics (Section 2.3 properties);
* :mod:`repro.experiments` — the evaluation harness (one registered
  scenario per table/figure, whose cells measure and return its rows);
* :mod:`repro.runtime` — asyncio TCP runtime driving the same protocol
  code over real sockets.
"""

from .common.ids import MessageId, NodeId
from .core.config import HyParViewConfig
from .core.protocol import HyParView
from .experiments.params import ExperimentParams
from .experiments.scenario import Scenario
from .gossip.eager import EagerGossip
from .gossip.flood import FloodBroadcast
from .gossip.plumtree import Plumtree
from .gossip.tracker import BroadcastTracker
from .metrics.graph import OverlaySnapshot
from .protocols.cyclon import Cyclon, CyclonConfig
from .protocols.cyclon_acked import CyclonAcked
from .protocols.scamp import Scamp

__version__ = "1.0.0"

__all__ = [
    "BroadcastTracker",
    "Cyclon",
    "CyclonAcked",
    "CyclonConfig",
    "EagerGossip",
    "ExperimentParams",
    "FloodBroadcast",
    "HyParView",
    "HyParViewConfig",
    "MessageId",
    "NodeId",
    "OverlaySnapshot",
    "Plumtree",
    "Scamp",
    "Scenario",
    "__version__",
]
