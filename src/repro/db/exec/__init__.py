"""Executors: the vectorized evaluator every engine answers through."""

from repro.db.exec.result import QueryResult, results_equal
from repro.db.exec.vector import apply_where, run_vector

__all__ = [
    "QueryResult",
    "apply_where",
    "results_equal",
    "run_vector",
]
