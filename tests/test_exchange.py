"""bucket_exchange: the engine's one keyed exchange (rio_color_ray/ctx.py)."""

import os
import uuid
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _rows(n_buckets, n=2000, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "b": rng.integers(0, n_buckets, size=n).astype(np.int64),
            "v": np.arange(n, dtype=np.int64),
        }
    )


@pytest.mark.parametrize("n_buckets", [2, 3, 16, 64])
def test_every_bucket_reaches_exactly_one_reduce_call(ray_session, n_buckets):
    import ray.data

    from rio_color_ray.ctx import bucket_exchange, shuffle_partitions

    # defined here, not at module level, so workers get it by value
    def census(block: pd.DataFrame) -> pd.DataFrame:
        """One row per bucket in the block, tagged with this call's id."""
        out = block.groupby("b", as_index=False).agg(rows=("v", "size"), vsum=("v", "sum"))
        out["call"] = uuid.uuid4().hex
        return out

    df = _rows(n_buckets)
    ds = ray.data.from_pandas(df).repartition(5)
    got = bucket_exchange(ds, "b", n_buckets, census, "pandas").to_pandas()
    # a bucket split over two calls would appear twice
    assert got["b"].is_unique
    exp = df.groupby("b", as_index=False).agg(rows=("v", "size"), vsum=("v", "sum"))
    pd.testing.assert_frame_equal(
        got.drop(columns="call").sort_values("b").reset_index(drop=True), exp
    )
    # one call per non-empty range, never more ranges than buckets
    n_ranges = min(n_buckets, shuffle_partitions(cap=n_buckets))
    assert got["call"].nunique() <= n_ranges
    if n_buckets <= 3:
        assert got["call"].nunique() == n_buckets


def test_empty_ranges_leave_a_usable_dataset(ray_session):
    import ray.data

    from rio_color_ray.ctx import bucket_exchange

    def per_block(block: pd.DataFrame) -> pd.DataFrame:
        return block.assign(v2=block["v"] * 2)

    df = pd.DataFrame({"b": np.full(50, 5, np.int64), "v": np.arange(50, dtype=np.int64)})
    # 64 buckets, one occupied: every other range is empty
    out = bucket_exchange(ray.data.from_pandas(df), "b", 64, per_block, "pandas")
    got = out.to_pandas().sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, df.assign(v2=df["v"] * 2))
    assert out.schema().names == ["b", "v", "v2"]
    assert out.sum("v2") == 2 * int(df["v"].sum())
    both = out.union(ray.data.from_pandas(df.assign(v2=np.int64(0))))
    assert both.count() == 100


def test_reduce_name_is_the_operator_name(ray_session):
    import ray.data

    from rio_color_ray.ctx import bucket_exchange

    def my_reduce(block: pd.DataFrame, scale=1) -> pd.DataFrame:
        return block.assign(v=block["v"] * scale)

    ds = ray.data.from_pandas(_rows(8, n=100))
    plain = bucket_exchange(ds, "b", 8, my_reduce, "pandas").materialize()
    assert "MapBatches(my_reduce)" in plain.stats()
    bound = bucket_exchange(ds, "b", 8, partial(my_reduce, scale=3), "pandas")
    bound = bound.materialize()
    assert "MapBatches(my_reduce)" in bound.stats()
    assert bound.sum("v") == 3 * plain.sum("v")


def test_partition_writer_writes_every_part_in_its_block(tmp_path):
    from rio_color_ray.state.checkpoint import _partition_writer
    from rio_color_ray.state.lineage import completed_partitions

    out_dir = str(tmp_path)
    write_group = _partition_writer(out_dir, "test", "tile_id", lambda p: (10 * p, 10 * p + 9))
    block = pa.table(
        {
            "tile_id": ["b", "a", "c", "d", "e"],
            "val": pa.array(np.arange(5), pa.int64()),
            "part": pa.array([1, 1, 3, 3, 3], pa.int64()),
        }
    )
    lineage = write_group(block).to_pandas()
    assert lineage["partition_id"].tolist() == ["1", "3"]
    assert lineage["rows_out"].tolist() == [2, 3]
    assert lineage["cell_lo"].tolist() == [10, 30]
    assert set(completed_partitions(out_dir)) == {"1", "3"}
    for p, ids in ((1, ["a", "b"]), (3, ["c", "d", "e"])):
        t = pq.read_table(os.path.join(out_dir, f"part={p}", "data.parquet"))
        assert t.column_names == ["tile_id", "val"]
        assert t.schema.metadata is None  # no pandas metadata stored
        assert t.column("tile_id").to_pylist() == ids
