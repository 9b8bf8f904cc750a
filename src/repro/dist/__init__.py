"""Distributed MVTL (§7, §H) and the §8 prototype protocols over the DES."""

from .client import (AdmissionConfig, BaseClient, MVTILClient, MVTOClient,
                     TwoPLClient)
from .cluster import (PROTOCOLS, ClusterConfig, ClusterResult,
                      ReplicationConfig, SelfHealConfig, run_cluster)
from .commitment import ABORT, CommitmentObject, CommitmentRegistry
from .failure import ChaosConfig, ChaosEvent, ChaosSchedule, CrashInjector
from .gc_service import TimestampService
from .partition import Partition
from .server import MVTLServer, TwoPLServer

__all__ = [
    "MVTILClient", "MVTOClient", "TwoPLClient", "BaseClient",
    "MVTLServer", "TwoPLServer", "Partition",
    "CommitmentObject", "CommitmentRegistry", "ABORT",
    "TimestampService", "CrashInjector",
    "ChaosConfig", "ChaosEvent", "ChaosSchedule",
    "ClusterConfig", "ClusterResult", "run_cluster", "PROTOCOLS",
    "AdmissionConfig", "ReplicationConfig", "SelfHealConfig",
]
