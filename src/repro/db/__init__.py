"""In-memory relational database engine.

This package replaces the MySQL + JDBC backend of the paper's
implementation with a pure-Python engine: schemas, indexed tuple
storage, a backtracking conjunctive-query evaluator, and
machine-independent instrumentation counters.
"""

from .builder import DatabaseBuilder, unary_boolean_database
from .database import Database, MutationEvent
from .durability import (
    DurabilityConfig,
    DurableStore,
    FileSnapshotStore,
    RecoveredState,
    WriteAheadLog,
    resolve_durability,
)
from .evaluator import Assignment, Evaluator
from .io import (
    database_from_spec,
    database_to_spec,
    load_csv_table,
    load_database,
    save_csv_table,
    save_database,
)
from .planner import CompiledPlan, Planner, compile_plan
from .query import ConjunctiveQuery, QueryShape
from .schema import RelationSchema, Schema
from .stats import CoordinationStats, EngineStats
from .storage import Relation, Row
from . import wire

__all__ = [
    "Assignment",
    "CompiledPlan",
    "ConjunctiveQuery",
    "CoordinationStats",
    "Planner",
    "QueryShape",
    "compile_plan",
    "Database",
    "DatabaseBuilder",
    "DurabilityConfig",
    "DurableStore",
    "EngineStats",
    "Evaluator",
    "FileSnapshotStore",
    "MutationEvent",
    "RecoveredState",
    "Relation",
    "RelationSchema",
    "Row",
    "Schema",
    "WriteAheadLog",
    "resolve_durability",
    "database_from_spec",
    "database_to_spec",
    "load_csv_table",
    "load_database",
    "save_csv_table",
    "save_database",
    "unary_boolean_database",
    "wire",
]
