"""Relational Fabric core: geometries, the packer, ephemeral variables,
fabric interfaces, MVCC visibility filtering, and pushed-down selection."""

from repro.core.ephemeral import EphemeralColumnGroup
from repro.core.fabric import RelationalFabric, RelationalMemory, configure
from repro.core.geometry import DataGeometry, FieldSlice, full_row_geometry
from repro.core.ledger import CostLedger
from repro.core.mvcc_filter import (
    LIVE_TS,
    NEVER_TS,
    latest_mask,
    visible_mask,
    visible_mask_batched,
)
from repro.core.packer import pack, record_view, unpack
from repro.core.tensor import MatrixSlice, TensorFabric, matrix_geometry
from repro.core.selection import (
    CompareOp,
    FabricAggregate,
    FabricFilter,
    FabricPredicate,
    select_rows,
)

__all__ = [
    "CompareOp",
    "CostLedger",
    "DataGeometry",
    "EphemeralColumnGroup",
    "FabricAggregate",
    "FabricFilter",
    "FabricPredicate",
    "FieldSlice",
    "LIVE_TS",
    "MatrixSlice",
    "TensorFabric",
    "matrix_geometry",
    "NEVER_TS",
    "RelationalFabric",
    "RelationalMemory",
    "configure",
    "full_row_geometry",
    "latest_mask",
    "pack",
    "record_view",
    "select_rows",
    "unpack",
    "visible_mask",
    "visible_mask_batched",
]
