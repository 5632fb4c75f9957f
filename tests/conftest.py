"""Shared fixtures. Ray is initialised ONCE per pytest session."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


def _direct_math(pixels_list, band_count, dtype, width, height, ops_funcs, out_dtype):
    """The color stage's reference body over a list of tile buffers:
    to_math_type -> every op -> scale_dtype on the stacked image."""
    from rio_color_ray.color import scale_dtype, to_math_type

    n = len(pixels_list)
    stacked = np.frombuffer(b"".join(pixels_list), dtype=dtype).reshape(
        n, band_count, height, width
    )
    arr = to_math_type(np.ascontiguousarray(stacked.transpose(1, 0, 2, 3))).reshape(
        band_count, n * height, width
    )
    for fn in ops_funcs:
        arr = fn(arr)
    out = scale_dtype(arr, out_dtype)
    out = out.reshape(band_count, n, height, width).transpose(1, 0, 2, 3)
    return [np.ascontiguousarray(out[i]).tobytes() for i in range(n)]


@pytest.fixture(scope="session")
def direct_math():
    """The direct-math twin every color-path test compares against."""
    return _direct_math


def _pip_loop(poly_x, poly_y, px, py):
    """Even-odd ray casting, one polygon, one Python step per edge: the
    independent reference for the engine's one-pass kernel
    (``spatial.rtree.pairs_in_polygons``). A closing vertex equal to the
    first is dropped; the wrap edge is always tested."""
    poly_x = np.asarray(poly_x, dtype=np.float64)
    poly_y = np.asarray(poly_y, dtype=np.float64)
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    if poly_x[0] == poly_x[-1] and poly_y[0] == poly_y[-1] and len(poly_x) > 1:
        poly_x, poly_y = poly_x[:-1], poly_y[:-1]

    inside = np.zeros(len(px), dtype=bool)
    j = len(poly_x) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(poly_x)):
            x1, y1 = poly_x[j], poly_y[j]
            x2, y2 = poly_x[i], poly_y[i]
            crosses = (y2 > py) != (y1 > py)
            xint = (x1 - x2) * (py - y2) / (y1 - y2) + x2
            inside ^= crosses & (px < xint)
            j = i
    return inside


@pytest.fixture(scope="session")
def pip_loop():
    """The per-edge loop reference of point-in-polygon."""
    return _pip_loop


@pytest.fixture
def arr():
    """The reference's (3,2,2) golden fixture (tests/test_operations.py:15-30)."""
    from rio_color_ray.color import to_math_type

    return to_math_type(
        (
            np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10], [11, 12]]])
        ).astype("uint8")
        * 10
    )


@pytest.fixture
def arr_rgba():
    """The reference's (4,2,2) RGBA fixture (tests/test_operations.py:33-45)."""
    from rio_color_ray.color import to_math_type

    return to_math_type(
        np.array(
            [
                [[1, 2], [3, 4]],
                [[5, 6], [7, 8]],
                [[9, 10], [11, 12]],
                [[0, 0], [25.5, 25.5]],
            ]
        ).astype("uint8")
        * 10
    )


def duckdb_con(tables=("documents",), sf=SF_SMOKE):
    """A DuckDB connection with the given parquet tables as views —
    the shared oracle-connection builder (one definition, not one per
    test module)."""
    import duckdb

    c = duckdb.connect()
    for t in tables:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    return c


def oracle_check(ray_result, con, sql):
    """Value-for-value compare of a Ray result against its DuckDB twin,
    exactly as the external driver does it: sort columns by name, sort
    rows by all columns, exact values. Returns the Ray-side frame."""
    import pandas as pd

    rdf = ray_result.to_pandas()
    odf = con.sql(sql).df()
    cols = sorted(rdf.columns)
    a = rdf[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    return rdf


def map_fns(ds):
    """Every map function in ``ds``'s logical plan (Ray's, before it
    fuses the maps into operators)."""
    from ray.data._internal.logical.operators.map_operator import AbstractUDFMap

    fns, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        if isinstance(op, AbstractUDFMap):
            fns.append(op._fn)
        todo.extend(op.input_dependencies)
    return fns


def chain_steps(ds):
    """The steps of the one ``pipelines.tiles.tile_chain`` map of ``ds``."""
    from rio_color_ray.pipelines.tiles import tile_chain

    (chain,) = [f for f in map_fns(ds) if getattr(f, "func", None) is tile_chain]
    return chain.keywords["steps"]


def assert_one_map_then_exchange(ds, reduce_name):
    """The plan of an executed tile pipeline at one bucket, as ``stats()``
    names its operators (maps Ray fused into one task share one name):
    the read fused with at most two map functions (``io.read_table``'s
    metadata strip and the tile chain), ``Repartition``, then the
    reduce; no bucket map."""
    import re

    stats = ds.stats()
    ops = re.findall(r"^Operator \d+ (.*?): ", stats, flags=re.M)
    assert len(ops) == 3, ops
    assert ops[0].startswith("ReadParquet->") and ops[0].count("MapBatches(") <= 2, ops
    assert ops[1:] == ["Repartition", f"MapBatches({reduce_name})"], ops
    assert "add_bucket" not in stats
