"""bucket_exchange: the engine's one keyed exchange (rio_color_ray/ctx.py).

The exchange owns the bucket: every key kind it buckets (int modulo,
hashed strings, datetimes and column lists, nulls) must bring all of a
key's rows to one reduce call, whatever block they start in, and give a
key the same bucket from a pandas block as from an Arrow block. Every
reduce gets an Arrow table, and every output block is one.
``stages.agg.keyed_agg`` over the same key kinds must match DuckDB's
``GROUP BY``, ``stages.agg.keyed_topk`` its ``row_number()``, and
``stages.agg.keyed_scan`` its running ``sum()``, ``lag()`` and
``row_number()`` windows.
"""

import os
import uuid
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from conftest import SF_SMOKE

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


KEY_KINDS = ["int64", "string", "datetime", "two_columns", "int_with_null"]


@pytest.mark.parametrize("kind", KEY_KINDS)
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
    got = bucket_exchange(_blocks(table, keys), key, census).to_pandas()
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


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_pandas_and_arrow_blocks_give_every_key_one_bucket(ray_session, kind):
    """A pandas block is converted to Arrow once, before its bucket is
    computed; every key must still land in the bucket its Arrow table
    gives it (a nullable ``Int64`` null reads as 0, as Arrow's does)."""
    import ray.data

    from rio_color_ray.ctx import _bucket_of, bucket_exchange, shuffle_partitions

    table = _key_table(kind)
    keys = [c for c in table.column_names if c != "v"]
    nullable = {pa.int64(): pd.Int64Dtype()}.get if kind == "int_with_null" else None
    frame = table.to_pandas(types_mapper=nullable)
    cut = np.linspace(0, len(frame), N_BLOCKS + 1).astype(int)
    ds = ray.data.from_pandas([frame.iloc[a:b] for a, b in zip(cut[:-1], cut[1:])])

    def census(block: pa.Table) -> pa.Table:
        """Every row's ``v``, tagged with this call's id."""
        call = pa.array([uuid.uuid4().hex] * block.num_rows)
        return block.select(["v"]).append_column("call", call)

    key = keys[0] if len(keys) == 1 else keys
    got = bucket_exchange(ds, key, census).to_pandas().sort_values("v")
    assert got["v"].tolist() == list(range(table.num_rows))
    want = _bucket_of(table, keys, shuffle_partitions())
    # one reduce call per bucket: the calls and the Arrow buckets split
    # the rows the same way
    pairs = pd.DataFrame({"call": got["call"].to_numpy(), "bucket": want})
    assert (pairs.groupby("call")["bucket"].nunique() == 1).all()
    assert (pairs.groupby("bucket")["call"].nunique() == 1).all()


def _keyed_agg_table(kind):
    """A key table with a sum, a count and a timestamp min and max per
    key; ``big_sums`` puts each int key's sum just above 2**62."""
    table = _key_table("int64" if kind == "big_sums" else kind)
    n = table.num_rows
    v = np.arange(n, dtype=np.int64)
    if kind == "big_sums":
        v += 2**62 // 3  # three rows per key
    ts = np.datetime64("2024-03-01", "us") + np.arange(n)[::-1] * np.int64(3_600_000_000)
    table = table.set_column(table.schema.get_field_index("v"), "v", pa.array(v))
    for name, col in (("ts_lo", ts), ("ts_hi", ts), ("n", np.ones(n, np.int64))):
        table = table.append_column(name, pa.array(col))
    return table


def _arrow(ds):
    """``ds``'s blocks as one table; every block must be an Arrow table."""
    import ray

    refs = ray.get(ds.to_arrow_refs())
    assert all(isinstance(r, pa.Table) for r in refs), {type(r).__name__ for r in refs}
    # an empty exchange range comes back as a table without columns
    return pa.concat_tables(refs, promote_options="default")


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_hash64_and_bucket_of_are_pandas_hashes(kind):
    """The engine's value hash is pandas' own, column by column and under
    a second key, and a non-int key's bucket is ``hash_pandas_object`` of
    the key frame (an int column read with a null as 0), ``% n``."""
    from rio_color_ray.ctx import _bucket_of
    from rio_color_ray.pipelines.corpus import _KEY2
    from rio_color_ray.stages.sampling import hash64

    table = _key_table(kind)
    keys = [c for c in table.column_names if c != "v"]
    for col in table.select(keys).columns:
        for hash_key in ("0123456789123456", _KEY2):
            want = pd.util.hash_pandas_object(col.to_pandas(), index=False, hash_key=hash_key)
            np.testing.assert_array_equal(hash64(col, hash_key), want.to_numpy())
    n = 8
    frame = pd.DataFrame(
        {c: (col.fill_null(0).to_numpy() if pa.types.is_integer(col.type) else col.to_pandas())
         for c, col in zip(keys, table.select(keys).columns)}
    )
    if len(keys) == 1 and pa.types.is_integer(table.column(keys[0]).type):
        want = frame[keys[0]].to_numpy() % n
    else:
        want = pd.util.hash_pandas_object(frame, index=False).to_numpy() % np.uint64(n)
    np.testing.assert_array_equal(_bucket_of(table, keys, n), want.astype(np.int64))


@pytest.mark.parametrize("kind", KEY_KINDS + ["big_sums"])
def test_keyed_agg_matches_duckdb_group_by(ray_session, kind):
    import duckdb
    import ray.data

    from rio_color_ray.stages.agg import keyed_agg

    table = _keyed_agg_table(kind)
    keys = [c for c in table.column_names if c.startswith("k")]
    key = keys[0] if len(keys) == 1 else keys
    # every key spread over several blocks, plus an empty block
    ds = _blocks(table, keys).union(ray.data.from_arrow(table.slice(0, 0)))
    aggs = {"v": "sum", "n": "sum", "ts_lo": "min", "ts_hi": "max"}
    got = _arrow(keyed_agg(ds, key, aggs))
    assert got.column_names == keys + list(aggs)
    assert got.schema.field("v").type == pa.int64()  # integer sums stay int64
    assert got.schema.field("ts_lo").type == pa.timestamp("us")
    assert [got.schema.field(k).type for k in keys] == [table.schema.field(k).type for k in keys]

    con = duckdb.connect()
    con.register("t", table)
    k_sql = ", ".join(keys)
    want = con.sql(
        f"SELECT {k_sql}, CAST(sum(v) AS BIGINT) AS v, count(*) AS n, "
        f"min(ts_lo) AS ts_lo, max(ts_hi) AS ts_hi FROM t GROUP BY {k_sql}"
    ).arrow().cast(got.schema)
    order = [(k, "ascending") for k in keys]
    # a null key is one group, as in SQL (a pandas groupby drops it)
    assert got.column(keys[0]).null_count == (kind == "int_with_null")
    assert got.sort_by(order).equals(want.sort_by(order))
    if kind == "big_sums":
        assert pc.min(got.column("v")).as_py() > 2**62

    distinct = _arrow(keyed_agg(ds, key, {}))
    want = con.sql(f"SELECT DISTINCT {k_sql} FROM t").arrow().cast(distinct.schema)
    assert distinct.sort_by(order).equals(want.sort_by(order))


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_keyed_topk_matches_duckdb_row_number(ray_session, kind):
    import duckdb
    import ray.data

    from rio_color_ray.stages.agg import keyed_topk

    table = _key_table(kind)
    # a few distinct values, so the order has ties the unique ``v`` breaks
    table = table.append_column("s", pa.array(np.arange(table.num_rows) * 7 % 5, pa.int64()))
    keys = [c for c in table.column_names if c.startswith("k")]
    key = keys[0] if len(keys) == 1 else keys
    # every key spread over several blocks, plus an empty block
    ds = _blocks(table, keys).union(ray.data.from_arrow(table.slice(0, 0)))
    con = duckdb.connect()
    con.register("t", table)
    by = [(k, "ascending") for k in keys] + [("rank", "ascending")]
    for direction in ("ascending", "descending"):
        sql_dir = "DESC" if direction == "descending" else "ASC"
        for k in (1, 3, table.num_rows + 1):  # the last keeps every row
            got = _arrow(keyed_topk(ds, key, [("s", direction), ("v", "ascending")], k))
            assert got.column_names == table.column_names + ["rank"]
            want = con.sql(
                f"SELECT * FROM (SELECT *, row_number() OVER (PARTITION BY {', '.join(keys)} "
                f"ORDER BY s {sql_dir}, v) AS rank FROM t) WHERE rank <= {k}"
            ).arrow()
            assert want.schema.field("rank").type == pa.int64()
            assert got.schema.equals(want.schema)
            # a null key is one group, as in SQL's PARTITION BY
            assert got.column(keys[0]).null_count == (kind == "int_with_null")
            assert got.sort_by(by).equals(want.sort_by(by)), (direction, k)
    assert got.num_rows == table.num_rows


def _single_row_keys(table, n=5):
    """``n`` rows of ``table``'s schema, each with a key no other row has."""
    cols = {}
    for field in table.schema:
        if field.name == "v":
            cols["v"] = pa.array(10_000 + np.arange(n), pa.int64())
        elif pa.types.is_integer(field.type):
            cols[field.name] = pa.array(10_000 + np.arange(n), field.type)
        elif pa.types.is_timestamp(field.type):
            cols[field.name] = pa.array(np.datetime64("2030-01-01", "us") + np.arange(n), field.type)
        else:
            cols[field.name] = pa.array([f"solo{i}" for i in range(n)], field.type)
    return pa.table(cols, schema=table.schema)


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_keyed_scan_matches_duckdb_window(ray_session, kind):
    import duckdb
    import ray.data

    from rio_color_ray.stages.agg import keyed_scan, run_cumsum, run_position

    table = _key_table(kind)
    # a few distinct values, so the order has ties the unique ``v`` breaks
    table = table.append_column("s", pa.array(np.arange(table.num_rows) * 7 % 5, pa.int64()))
    keys = [c for c in table.column_names if c.startswith("k")]
    key = keys[0] if len(keys) == 1 else keys
    singles = _single_row_keys(table)
    # every key spread over several blocks, single-row keys, an empty block
    ds = _blocks(table, keys).union(
        ray.data.from_arrow(singles), ray.data.from_arrow(table.slice(0, 0))
    )

    def window(block: pa.Table, start: np.ndarray) -> pa.Table:
        v = block.column("v").to_numpy()
        return (
            block.append_column("cum", pa.array(run_cumsum(v, start)))
            .append_column("prev", pa.array(np.roll(v, 1), mask=start))
            .append_column("rn", pa.array(run_position(start) + 1))
        )

    got = _arrow(keyed_scan(ds, key, [("s", "descending"), ("v", "ascending")], window))
    con = duckdb.connect()
    con.register("t", pa.concat_tables([table, singles]))
    want = con.sql(
        "SELECT *, CAST(sum(v) OVER w AS BIGINT) AS cum, lag(v) OVER w AS prev, "
        f"row_number() OVER w AS rn FROM t WINDOW w AS (PARTITION BY {', '.join(keys)} "
        "ORDER BY s DESC, v ROWS UNBOUNDED PRECEDING)"
    ).arrow()
    assert got.schema.equals(want.schema)
    assert got.num_rows == table.num_rows + singles.num_rows
    # single-row runs: no lag, rank 1; a null key is one run, as in SQL
    solo = pc.is_in(got.column("v"), singles.column("v"))
    assert pc.all(pc.equal(got.filter(solo).column("rn"), 1)).as_py()
    assert got.filter(solo).column("prev").null_count == singles.num_rows
    assert got.column(keys[0]).null_count == (kind == "int_with_null")
    by = [("v", "ascending")]
    assert got.sort_by(by).equals(want.sort_by(by))


def _keys_per_reduce_call(n_keys):
    """Every reduce call's sorted keys, after one exchange of ``n_keys``
    dense int keys whose rows are checked against pandas."""
    import ray.data

    from rio_color_ray.ctx import bucket_exchange

    def census(block: pa.Table) -> pa.Table:
        out = block.group_by("b").aggregate([("v", "count"), ("v", "sum")])
        out = out.select(["b", "v_count", "v_sum"]).rename_columns(["b", "rows", "vsum"])
        return out.append_column("call", pa.array([uuid.uuid4().hex] * out.num_rows))

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {"b": rng.permutation(np.resize(np.arange(n_keys), 2000)), "v": np.arange(2000)}
    )
    ds = ray.data.from_pandas(df).repartition(5)
    got = bucket_exchange(ds, "b", census).to_pandas()
    assert got["b"].is_unique
    exp = df.groupby("b", as_index=False).agg(rows=("v", "size"), vsum=("v", "sum"))
    pd.testing.assert_frame_equal(
        got.drop(columns="call").sort_values("b").reset_index(drop=True), exp
    )
    return sorted(got.groupby("call")["b"].agg(lambda b: sorted(b.tolist())).tolist())


@pytest.mark.parametrize("n_keys", [2, 3, 16, 64])
def test_every_bucket_reaches_exactly_one_reduce_call(ray_session, n_keys):
    """Dense int keys spread by their modulo, one bucket per reduce call:
    over n = ``shuffle_partitions()`` calls, one per CPU, call r gets
    exactly the keys k with k % n == r (at 4 CPUs, 16 keys give every
    call 4). The checkpoint relies on this to put its dense partition
    ids one per reduce task."""
    from rio_color_ray.ctx import shuffle_partitions

    n = shuffle_partitions()
    want = sorted(
        [k for k in range(n_keys) if k % n == r] for r in range(min(n, n_keys))
    )
    assert _keys_per_reduce_call(n_keys) == want


def test_one_bucket_reaches_one_reduce_call_at_one_cpu(ray_session, monkeypatch):
    """At 1 CPU the exchange has one bucket: one reduce call gets every key."""
    from rio_color_ray import ctx

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)
    assert _keys_per_reduce_call(16) == [list(range(16))]


@pytest.mark.parametrize("cpus", [1, 4, 200])
def test_shuffle_partitions_is_the_session_cpus(monkeypatch, cpus):
    """One task per CPU, with no floor and no cap."""
    import ray

    from rio_color_ray.ctx import shuffle_partitions

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    assert shuffle_partitions() == cpus


def test_shuffle_partitions_without_ray_is_the_affinity_mask(monkeypatch):
    import ray

    from rio_color_ray.ctx import shuffle_partitions

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert shuffle_partitions() == len(os.sched_getaffinity(0))


_IMPORT_THE_ENGINE = """
from ray.data import DataContext
import rio_color_ray.registry
for ctx in (DataContext.get_current(), DataContext()):
    print(ctx.shuffle_strategy, ctx.max_hash_shuffle_aggregators)
"""


def test_importing_the_engine_sets_no_data_context_field():
    """A fresh process that imports the engine keeps a fresh
    ``DataContext``'s shuffle strategy and hash-shuffle aggregator cap."""
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_THE_ENGINE],
        cwd=repo, env=dict(os.environ, PYTHONPATH=repo),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.splitlines()
    assert len(out) == 2 and out[0] == out[1], out


# the session's CPUs, then ``ctx.shuffle_partitions`` patched to 1 and 3
SHUFFLE_PARTITIONS = pytest.mark.parametrize("n", [None, 1, 3])


@SHUFFLE_PARTITIONS
def test_read_table_yields_shuffle_partitions_blocks(ray_session, monkeypatch, n):
    """``io.read_table`` sizes its read through ``ctx.shuffle_partitions``,
    so the one patch that sets the exchanges' bucket count sets it too."""
    from rio_color_ray import ctx, io

    if n is not None:
        monkeypatch.setattr(ctx, "shuffle_partitions", lambda: n)
    ds = io.read_table(SF_SMOKE, "documents", columns=["doc_id"]).materialize()
    assert ds.num_blocks() == ctx.shuffle_partitions()
    assert ds.count() == io.table_num_rows(SF_SMOKE, "documents")


@SHUFFLE_PARTITIONS
def test_read_output_yields_shuffle_partitions_blocks(ray_session, monkeypatch, tmp_path, n):
    """``read_output`` reads its partition files through ``io``, so the
    same patch sets its block count: at 1 CPU one block holds all 16."""
    from rio_color_ray import ctx
    from rio_color_ray.state.checkpoint import _partition_writer, read_output

    if n is not None:
        monkeypatch.setattr(ctx, "shuffle_partitions", lambda: n)
    part = np.arange(160) % 16
    write_group = _partition_writer(str(tmp_path), "test", "v", lambda p: (p, p))
    write_group(pa.table({"v": pa.array(np.arange(160), pa.int64()), "part": part}))
    ds = read_output(str(tmp_path)).materialize()
    assert ds.num_blocks() == ctx.shuffle_partitions()
    assert sorted(ds.to_pandas()["v"]) == list(range(160))


def _double_v():
    """A reduce appending ``v2 = 2 * v``; built in a function, so workers
    get it by value."""

    def double_v(block: pa.Table) -> pa.Table:
        # Ray skips the reduce for an empty range; no reduce needs an empty branch
        assert block.num_rows > 0
        return block.append_column("v2", pc.multiply(block.column("v"), 2))

    return double_v


_DOUBLED = pa.schema([("b", pa.int64()), ("v", pa.int64()), ("v2", pa.int64())])


def test_one_bucket_exchange_is_one_block_of_its_schema(ray_session, monkeypatch):
    """At 1 CPU the exchange runs one reduce task and makes one block,
    with no empty range beside it."""
    import ray
    import ray.data

    from rio_color_ray import ctx

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)
    df = pd.DataFrame({"b": np.arange(100) % 8, "v": np.arange(100)})
    ds = ray.data.from_pandas([df.iloc[:50], df.iloc[50:]])
    out = ctx.bucket_exchange(ds, "b", _double_v(), schema=_DOUBLED).materialize()
    assert out.num_blocks() == 1
    (block,) = ray.get(out.to_arrow_refs())
    assert block.schema == _DOUBLED
    assert block.num_rows == 100


def _one_bucket_input(layout):
    """``layout``'s input to a one-bucket exchange: 300 rows whose every
    key ``k`` sits in each of three blocks, or no rows."""
    import ray.data

    table = pa.table({"k": pa.array(np.arange(300) % 10, pa.int64()), "v": pa.array(np.arange(300))})
    thirds = [table.slice(i, 100) for i in (0, 100, 200)]
    if layout == "three_blocks":
        return ray.data.from_arrow(thirds)
    if layout == "two_datasets":
        return [ray.data.from_arrow(thirds[:2]), ray.data.from_arrow(thirds[2:])]
    if layout == "pandas_blocks":  # each converts to Arrow with pandas metadata
        return ray.data.from_pandas([t.to_pandas() for t in thirds])
    return ray.data.from_arrow(table.slice(0, 0))


@pytest.mark.parametrize("layout", ["three_blocks", "two_datasets", "pandas_blocks", "no_rows"])
def test_one_bucket_exchange_meets_every_key_in_one_call(ray_session, monkeypatch, layout):
    """At n = 1 the exchange runs no bucket map: one ``repartition(1)``
    brings every block, of every Dataset, to one reduce call, which sees
    neither a bucket column nor pandas schema metadata."""
    from conftest import map_fns
    from rio_color_ray import ctx

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)

    def census(block: pa.Table) -> pa.Table:
        """Rows per key in the block, tagged with this call's id and
        whether the block came plain."""
        out = block.group_by("k").aggregate([("v", "count")])
        n = out.num_rows
        plain = ctx.BUCKET not in block.column_names and block.schema.metadata is None
        return out.append_column("call", pa.array([uuid.uuid4().hex] * n)).append_column(
            "plain", pa.array([plain] * n)
        )

    out = ctx.bucket_exchange(_one_bucket_input(layout), "k", census)
    assert [getattr(f, "__name__", None) for f in map_fns(out)] == ["census"]
    got = _arrow(out).to_pandas()
    if layout == "no_rows":
        assert got.empty
        return
    assert got["call"].nunique() == 1 and got["plain"].all()
    assert sorted(got["k"]) == list(range(10)) and (got["v_count"] == 30).all()


def test_keyless_topk_is_one_block(ray_session):
    """A global top-k has one bucket at any CPU count: one block out."""
    import ray.data

    from rio_color_ray.stages.agg import keyed_topk

    ds = ray.data.from_pandas(pd.DataFrame({"v": np.arange(200)})).repartition(5)
    out = keyed_topk(ds, [], [("v", "descending")], 3).materialize()
    assert out.num_blocks() == 1
    assert out.to_pandas()["v"].tolist() == [199, 198, 197]


def test_one_bucket_exchange_of_no_rows_is_usable(ray_session, monkeypatch):
    """``repartition(1)`` of no rows still counts, and names the declared
    schema."""
    import ray.data

    from rio_color_ray import ctx

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 1)
    df = pd.DataFrame({"b": np.arange(10), "v": np.arange(10)})
    none = ray.data.from_pandas(df).filter(expr="v < 0")
    declared = ctx.bucket_exchange(none, "b", _double_v(), schema=_DOUBLED)
    assert declared.count() == 0
    assert declared.schema().base_schema == _DOUBLED
    undeclared = ctx.bucket_exchange(none, "b", _double_v())
    assert undeclared.count() == 0
    assert undeclared.schema() is None  # no reduce ran to give one
    assert _arrow(undeclared).num_rows == 0


def test_empty_ranges_leave_a_usable_dataset(ray_session):
    import ray.data

    from rio_color_ray.ctx import bucket_exchange

    df = pd.DataFrame({"b": np.full(50, 5, np.int64), "v": np.arange(50, dtype=np.int64)})
    # one key, so one occupied bucket: every other reduce range is empty
    out = bucket_exchange(ray.data.from_pandas(df), "b", _double_v())
    got = out.to_pandas().sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, df.assign(v2=df["v"] * 2))
    assert out.schema().names == ["b", "v", "v2"]
    assert out.sum("v2") == 2 * int(df["v"].sum())
    both = out.union(ray.data.from_pandas(df.assign(v2=np.int64(0))))
    assert both.count() == 100
    assert _arrow(out).num_rows == 50


def test_kmv_output_blocks_are_arrow(ray_session, monkeypatch):
    """KMV's exchange returns Arrow blocks only, empty ranges included
    (5 event types over 8 buckets)."""
    from rio_color_ray import ctx
    from rio_color_ray.pipelines.relational import approx_distinct_users_kmv

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: 8)

    got = _arrow(approx_distinct_users_kmv(SF_SMOKE))
    assert got.num_rows > 0


@pytest.mark.parametrize("n", [1, 4])
def test_reduce_name_is_the_operator_name(ray_session, monkeypatch, n):
    import ray.data

    from rio_color_ray import ctx
    from rio_color_ray.ctx import bucket_exchange

    monkeypatch.setattr(ctx, "shuffle_partitions", lambda: n)

    def my_reduce(block: pa.Table, scale=1) -> pa.Table:
        i = block.schema.get_field_index("v")
        return block.set_column(i, "v", pc.multiply(block.column("v"), scale))

    df = pd.DataFrame({"b": np.arange(100) % 8, "v": np.arange(100)})
    ds = ray.data.from_pandas(df)
    plain = bucket_exchange(ds, "b", my_reduce).materialize()
    assert "MapBatches(my_reduce)" in plain.stats()
    bound = bucket_exchange(ds, "b", partial(my_reduce, scale=3))
    bound = bound.materialize()
    assert "MapBatches(my_reduce)" in bound.stats()
    assert bound.sum("v") == 3 * plain.sum("v")


def test_partition_writer_writes_every_part_in_its_block(tmp_path):
    from rio_color_ray.state.checkpoint import _partition_writer
    from rio_color_ray.state.lineage import completed_partitions

    out_dir = str(tmp_path)
    write_group = _partition_writer(out_dir, "test", "tile_id", lambda p: (10 * p, 10 * p + 9))
    # parts out of order and interleaved; tied tile_ids keep their order
    block = pa.table(
        {
            "tile_id": ["d", "b", "a", "c", "e", "a", "b", "d", "a"],
            "val": pa.array(np.arange(9), pa.int64()),
            "part": pa.array([3, 1, 1, 3, 3, 0, 1, 3, 1], pa.int64()),
        }
    )
    lineage = write_group(block).to_pandas()
    assert lineage["partition_id"].tolist() == ["0", "1", "3"]
    assert lineage["rows_out"].tolist() == [1, 4, 4]
    assert lineage["cell_lo"].tolist() == [0, 10, 30]
    assert set(completed_partitions(out_dir)) == {"0", "1", "3"}
    for p, ids, vals in ((0, ["a"], [5]), (1, ["a", "a", "b", "b"], [2, 8, 1, 6]),
                         (3, ["c", "d", "d", "e"], [3, 0, 7, 4])):
        t = pq.read_table(os.path.join(out_dir, f"part={p}", "data.parquet"))
        assert t.column_names == ["tile_id", "val"]
        assert t.schema.metadata is None  # no pandas metadata stored
        assert t.column("tile_id").to_pylist() == ids
        assert t.column("val").to_pylist() == vals
        # the table a filter of the part and a stable sort would store
        part = block.filter(pc.equal(block.column("part"), p))
        assert t.equals(part.drop_columns(["part"]).sort_by("tile_id"))
