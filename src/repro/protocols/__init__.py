"""Membership protocols: the peer-sampling contract and the paper's baselines."""

from .base import PeerSamplingService
from .cyclon import AgedView, Cyclon, CyclonConfig
from .cyclon_acked import CyclonAcked
from .scamp import Scamp

__all__ = [
    "AgedView",
    "Cyclon",
    "CyclonAcked",
    "CyclonConfig",
    "PeerSamplingService",
    "Scamp",
]
