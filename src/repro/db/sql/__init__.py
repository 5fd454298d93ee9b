"""SQL front end: lexer, parser, AST nodes, and the statement pipeline.

The one-door entry point is :class:`~repro.db.sql.pipeline.Session` —
``Session().execute("SELECT ...")`` runs parse → bind → exec with
spans and metrics; DML statements run as MVCC transactions against the
session's WAL. :func:`parse`/:func:`parse_statement` stay available for
callers that only need the AST.
"""

from repro.db.sql.lexer import Token, TokenKind, tokenize
from repro.db.sql.nodes import (
    Aggregate,
    BeginStmt,
    CommitStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    InSubquery,
    JoinClause,
    OrderItem,
    RollbackStmt,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    UpdateStmt,
)
from repro.db.sql.parser import Parser, parse, parse_statement

# The pipeline pulls in the binder/optimizer/engine stack, which itself
# imports repro.db.sql.nodes — resolve Session & friends lazily (PEP 562)
# to keep `import repro.db.sql` cycle-free.
_PIPELINE_EXPORTS = (
    "Session",
    "SqlStats",
    "StatementResult",
    "split_statements",
)


def __getattr__(name):
    if name in _PIPELINE_EXPORTS:
        from repro.db.sql import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Aggregate",
    "BeginStmt",
    "CommitStmt",
    "CreateTableStmt",
    "DeleteStmt",
    "DropTableStmt",
    "ExplainStmt",
    "InSubquery",
    "InsertStmt",
    "JoinClause",
    "OrderItem",
    "Parser",
    "RollbackStmt",
    "ScalarSubquery",
    "SelectItem",
    "SelectStmt",
    "Session",
    "SqlStats",
    "StatementResult",
    "Token",
    "TokenKind",
    "UpdateStmt",
    "parse",
    "parse_statement",
    "split_statements",
    "tokenize",
]
