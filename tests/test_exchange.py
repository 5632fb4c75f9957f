"""bucket_exchange: the engine's one keyed exchange (rio_color_ray/ctx.py).

The exchange owns the bucket: every key kind it buckets (int modulo,
hashed strings, datetimes and column lists, nulls) must bring all of a
key's rows to one reduce call, whatever block they start in.
"""

import os
import uuid
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


N_BLOCKS = 7


def _blocks(table, keys):
    """``table`` as N_BLOCKS Arrow row ranges; every key lands in more
    than one (a null key may sit in one), so a key split over two reduce
    calls shows up twice."""
    import ray.data

    cut = np.linspace(0, table.num_rows, N_BLOCKS + 1).astype(int)
    block = np.repeat(np.arange(N_BLOCKS), np.diff(cut))
    spread = table.select(keys).to_pandas().assign(block=block)
    assert (spread.groupby(keys)["block"].nunique() > 1).all()
    ds = ray.data.from_arrow([table.slice(a, b - a) for a, b in zip(cut[:-1], cut[1:])])
    assert ds.num_blocks() == N_BLOCKS
    return ds


def _key_table(kind):
    n = 3000
    rng = np.random.default_rng(7)
    if kind == "int64":
        # negative keys included: numpy % keeps Python semantics;
        # each key's 3 rows are 1000 rows apart
        cols = {"k": pa.array(np.resize(rng.permutation(1000) - 500, n), pa.int64())}
    elif kind == "string":
        cols = {"k": pa.array([f"tok{i % 97}" for i in range(n)])}
    elif kind == "datetime":
        # events_pivot's ``day`` key
        days = np.datetime64("2024-01-01", "D") + np.arange(n) % 31
        cols = {"k": pa.array(days.astype("datetime64[us]"))}
    elif kind == "two_columns":
        cols = {
            "k": pa.array(np.arange(n) % 13, pa.int64()),
            "k2": pa.array([f"s{i % 7}" for i in range(n)]),
        }
    else:  # int_with_null: one null, in one Arrow block only
        k = (np.arange(n) % 20).tolist()
        k[-1] = None
        cols = {"k": pa.array(k, pa.int64())}
    return pa.table({**cols, "v": pa.array(np.arange(n), pa.int64())})


@pytest.mark.parametrize(
    "kind", ["int64", "string", "datetime", "two_columns", "int_with_null"]
)
def test_every_key_meets_in_one_reduce_call(ray_session, kind):
    from rio_color_ray.ctx import BUCKET, bucket_exchange, shuffle_partitions

    table = _key_table(kind)
    keys = [c for c in table.column_names if c != "v"]
    aggs = [("v", "count"), ("v", "sum")]

    # defined here, not at module level, so workers get it by value
    def census(block: pa.Table) -> pa.Table:
        """One row per key in the block, tagged with this call's id."""
        out = block.group_by(keys).aggregate(aggs)
        n = out.num_rows
        return out.append_column("call", pa.array([uuid.uuid4().hex] * n)).append_column(
            "saw_bucket", pa.array([BUCKET in block.column_names] * n)
        )

    key = keys[0] if len(keys) == 1 else keys
    got = bucket_exchange(_blocks(table, keys), key, census, "pyarrow").to_pandas()
    assert not got["saw_bucket"].any()
    # a key split over two calls would appear twice
    assert not got.duplicated(keys).any()
    assert got["call"].nunique() <= shuffle_partitions()
    exp = table.group_by(keys).aggregate(aggs).to_pandas()
    cols = keys + ["v_count", "v_sum"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(keys).reset_index(drop=True),
        exp[cols].sort_values(keys).reset_index(drop=True),
    )


@pytest.mark.parametrize("n_keys", [2, 3, 16, 64])
def test_every_bucket_reaches_exactly_one_reduce_call(ray_session, n_keys):
    """Dense int keys spread by their modulo, one bucket per reduce call:
    16 keys over 8 calls give every call exactly 2 keys. The checkpoint
    relies on this to put its dense partition ids one per reduce task."""
    import ray.data

    from rio_color_ray.ctx import bucket_exchange, shuffle_partitions

    def census(block: pd.DataFrame) -> pd.DataFrame:
        out = block.groupby("b", as_index=False).agg(rows=("v", "size"), vsum=("v", "sum"))
        out["call"] = uuid.uuid4().hex
        return out

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {"b": rng.permutation(np.resize(np.arange(n_keys), 2000)), "v": np.arange(2000)}
    )
    ds = ray.data.from_pandas(df).repartition(5)
    got = bucket_exchange(ds, "b", census, "pandas").to_pandas()
    assert got["b"].is_unique
    exp = df.groupby("b", as_index=False).agg(rows=("v", "size"), vsum=("v", "sum"))
    pd.testing.assert_frame_equal(
        got.drop(columns="call").sort_values("b").reset_index(drop=True), exp
    )
    n = shuffle_partitions()
    per_call = got.groupby("call")["b"].agg(lambda b: sorted(b.tolist()))
    want = sorted(
        [k for k in range(n_keys) if k % n == r] for r in range(min(n, n_keys))
    )
    assert sorted(per_call.tolist()) == want


def test_empty_ranges_leave_a_usable_dataset(ray_session):
    import ray.data

    from rio_color_ray.ctx import bucket_exchange

    def per_block(block: pd.DataFrame) -> pd.DataFrame:
        return block.assign(v2=block["v"] * 2)

    df = pd.DataFrame({"b": np.full(50, 5, np.int64), "v": np.arange(50, dtype=np.int64)})
    # one key, so one occupied bucket: every other reduce range is empty
    out = bucket_exchange(ray.data.from_pandas(df), "b", per_block, "pandas")
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

    df = pd.DataFrame({"b": np.arange(100) % 8, "v": np.arange(100)})
    ds = ray.data.from_pandas(df)
    plain = bucket_exchange(ds, "b", my_reduce, "pandas").materialize()
    assert "MapBatches(my_reduce)" in plain.stats()
    bound = bucket_exchange(ds, "b", partial(my_reduce, scale=3), "pandas")
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
