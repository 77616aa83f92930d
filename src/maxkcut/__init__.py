"""Multi-operator local search for the max-k-cut problem."""

from .graph import Graph, GraphFormatError, parse_instance, write_instance
from .oracle import OracleGuardError, exact_max_kcut
from .partition import Partition, evaluate, validate
from .search import SearchParams, SearchResult, run_moh

__all__ = [
    "Graph",
    "GraphFormatError",
    "OracleGuardError",
    "Partition",
    "SearchParams",
    "SearchResult",
    "evaluate",
    "exact_max_kcut",
    "parse_instance",
    "run_moh",
    "validate",
    "write_instance",
]
