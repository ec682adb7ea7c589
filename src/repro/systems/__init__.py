"""System assembly and architecture baselines (S12).

:class:`SystemBuilder`/:class:`System` assemble full DECOS models; the
baseline modules model the federated / strictly-separated / naive-bridge
alternatives the paper positions virtual gateways against, plus the
resource-accounting inventories of experiment E10.
"""

from .assembly import GatewayDecl, JobDecl, System, SystemBuilder
from .audit import EncapsulationAudit, Finding
from .naive_bridge import NaiveBridge
from .resources import (
    ArchitectureModel,
    DASRequirement,
    ResourceInventory,
    SystemRequirements,
    automotive_requirements,
    federated_inventory,
    integrated_inventory,
)

__all__ = [
    "EncapsulationAudit",
    "Finding",
    "System",
    "SystemBuilder",
    "JobDecl",
    "GatewayDecl",
    "NaiveBridge",
    "DASRequirement",
    "SystemRequirements",
    "ResourceInventory",
    "ArchitectureModel",
    "automotive_requirements",
    "federated_inventory",
    "integrated_inventory",
]
