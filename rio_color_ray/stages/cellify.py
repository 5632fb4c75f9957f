"""Cellify stage: assign spatial cell ids — stateless, vectorized.

Appends, per row, the cells asked for (by default all): hex cells at res
7/8/9 (H3-analog), an S2-style cell at level 12, and a coarse integer grid
cell (0.5 deg) whose derivation is also SQL-expressible. Each resolution
is computed DIRECTLY from lat/lon (never via hex_parent — aperture-7
hierarchies don't nest exactly; see spatial.hexgrid docstring). A
pipeline computes only the cells it keeps (``geo.py:cellified``).
"""

import numpy as np
import pyarrow as pa

from ..spatial import hex_cell, s2_cell

GRID_DEG = 0.5  # coarse grid used for SQL-checkable aggregates
_GRID_COLS = int(round(360 / GRID_DEG))  # 720

S2_LEVEL = 12


def grid_cell_ids(lat, lon):
    """SQL mirror: floor((lat+90)/0.5)*720 + floor((lon+180)/0.5)."""
    gy = np.floor((lat + 90.0) / GRID_DEG)
    gx = np.floor((lon + 180.0) / GRID_DEG)
    return (gy * _GRID_COLS + gx).astype(np.int64)


_CELLS = {
    "h3_r7": lambda lat, lon: hex_cell(lat, lon, 7),
    "h3_r8": lambda lat, lon: hex_cell(lat, lon, 8),
    "h3_r9": lambda lat, lon: hex_cell(lat, lon, 9),
    "s2_cell": lambda lat, lon: s2_cell(lat, lon, S2_LEVEL),
    "grid_cell": grid_cell_ids,
}
CELL_COLUMNS = tuple(_CELLS)


def cellify_batch(batch: pa.Table, cells=CELL_COLUMNS) -> pa.Table:
    """geocoded batch -> + the ``cells`` columns (by default all five).

    Cell ids are emitted as int64 (all fit in 63 bits): Ray Data's
    multi-key sort/aggregate coerces MIXED uint64+int64 key tuples through
    float64, which corrupts ids above 2^53 — int64 keys keep every
    groupby/sort exact (and match DuckDB BIGINT).
    """
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    for name in cells:
        batch = batch.append_column(
            name, pa.array(_CELLS[name](lat, lon).astype(np.int64), pa.int64())
        )
    return batch


def grid_cell_sql(lat_expr="lat", lon_expr="lon"):
    """The grid_cell derivation as a SQL expression (oracle side)."""
    return (
        f"(CAST(floor(({lat_expr} + 90.0) / {GRID_DEG}) AS BIGINT) * {_GRID_COLS} "
        f"+ CAST(floor(({lon_expr} + 180.0) / {GRID_DEG}) AS BIGINT))"
    )
