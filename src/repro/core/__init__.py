"""Core data model and the three-party outsourcing protocol."""

from repro.core.errors import (
    ConstructionError,
    ContextualReproError,
    InvalidQueryError,
    QueryProcessingError,
    ReproError,
    VerificationError,
)
from repro.core.config import SystemConfig
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.core.queries import AnalyticQuery, KNNQuery, RangeQuery, TopKQuery
from repro.core.results import QueryResult, VerificationReport
from repro.core.owner import (
    DataOwner,
    PublicParameters,
    ServerPackage,
    UpdateReport,
    SCHEMES,
    SIGNATURE_MESH,
)
from repro.core.server import QueryExecution, Server
from repro.core.client import Client
from repro.core.protocol import OutsourcedSystem

__all__ = [
    "ReproError",
    "ContextualReproError",
    "InvalidQueryError",
    "ConstructionError",
    "QueryProcessingError",
    "VerificationError",
    "Dataset",
    "Record",
    "UtilityTemplate",
    "AnalyticQuery",
    "TopKQuery",
    "RangeQuery",
    "KNNQuery",
    "QueryResult",
    "VerificationReport",
    "DataOwner",
    "PublicParameters",
    "ServerPackage",
    "UpdateReport",
    "SCHEMES",
    "SIGNATURE_MESH",
    "SystemConfig",
    "QueryExecution",
    "Server",
    "Client",
    "OutsourcedSystem",
]
