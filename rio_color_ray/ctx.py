"""The engine's keyed exchange and its task count.

Every keyed reduce the engine defines goes through :func:`bucket_exchange`,
which alone decides each key's bucket: sums, mins and maxes as
``stages.agg.keyed_agg`` (one Arrow group_by as the map-side combiner
and as the reduce), the first k rows per key (or overall) as
``stages.agg.keyed_topk`` (one Arrow sort as the combiner and as the
reduce), windows as ``stages.agg.keyed_scan`` (the same Arrow sort and
run-start mask, then the caller's numpy over it, no combiner). The
exchange speaks Arrow only: every reduce gets an Arrow table and returns
one. Ray's builtin ``groupby(key).aggregate`` runs nowhere, nor does a
second exchange for a global top-k.

Every read through ``io.read_parquet`` (the testdata tables and the
checkpoint's output) and every exchange runs one task per CPU of the
session, with no floor (:func:`shuffle_partitions`). At 1 CPU, and
for every keyless exchange, the exchange is one bucket moved by one
``repartition(1)`` task, with no empty range beside it and no bucket
column: the plan is the input's operators, ``Repartition`` and the
reduce's ``MapBatches``.

The engine sets no ``DataContext`` field: the range sort runs under
Ray's default shuffle strategy (the pull-based sort shuffle in Ray
2.49), and no exchange here runs Ray's hash shuffle.
"""

import functools
import os

import numpy as np
import pyarrow as pa
import ray

from .stages.sampling import combine64, hash64

# the exchange's own column: the key's bucket, never seen by a reduce
BUCKET = "__bucket"


def shuffle_partitions():
    """Task count for a read and for a keyed exchange: the session's CPUs.

    ``ray.cluster_resources()["CPU"]``, or the CPUs this process may run
    on when Ray is not up. There is no floor and no cap: at 1 CPU one
    read block feeds one fused map-chain task and one reduce holds every
    bucket. ``io.read_parquet`` sets every read's block count with it
    and :func:`bucket_exchange` its bucket count, so one patch of this
    function sets both.

    Measured against the earlier floor of 8 with perfbench at 1 CPU
    (``--seconds 25``, every run correct, the same output bytes per
    row), ``wall_s``:

    ========================  ============  ============  ============
    workload, seed            floor of 8    n = CPUs      ``cpu_s``
    ========================  ============  ============  ============
    ``tiles_z10``, 2101       0.706         0.380         1.02 -> 0.51
    ``tiles_z10``, 2201       0.741         0.401         1.04 -> 0.52
    ``tiles_resume``, 2102    1.349         0.671         2.03 -> 0.98
    ``tiles_resume``, 2202    1.356         0.649         2.10 -> 0.97
    ========================  ============  ============  ============

    Over 10 alternating pairs on other seeds, ``tiles_z10`` read 0.701
    -> 0.398 s (medians) and its ``peak_rss_mb`` rose 7.5%. One reduce
    holds every tile at 1 CPU:
    ``pipelines.tiles.assemble_color.peak_heap_mb`` went from 122 to 168
    MB. At 4 CPUs the flagship at z10 over 20k pages ran in 0.128 s at
    n=4 against 0.172 s at n=8. Sizing by the input (footer rows times a
    fan-out) is not done; it could only beat this above 1 CPU.

    Two places then still ran more tasks: a one-bucket exchange ran a
    range sort over two ranges, one always empty, and
    ``state.checkpoint.read_output`` read its 16 files in Ray's default
    8 blocks. Moving one bucket by ``repartition(1)`` and reading the
    output through ``io.read_parquet``, same perfbench set-up, 1 CPU:

    ========================  ============  ============  ============
    workload, seed            two ranges    one task      ``cpu_s``
    ========================  ============  ============  ============
    ``tiles_resume``, 3001    0.658         0.544         0.96 -> 0.71
    ``tiles_resume``, 3002    0.645         0.543         0.90 -> 0.68
    ``tiles_resume``, 3003    0.714         0.552         0.99 -> 0.72
    ========================  ============  ============  ============

    Over 10 alternating pairs (seeds 3001-3010) ``tiles_resume`` read
    0.682 -> 0.543 s (medians) and its ``peak_rss_mb`` rose 1.9%.
    """
    if ray.is_initialized():
        return int(ray.cluster_resources()["CPU"])
    return len(os.sched_getaffinity(0))


def bucket_exchange(ds, key, reduce_block, *, schema=None):
    """Co-locate every key's rows and reduce each exchange block once.

    ``ds`` is a Dataset, or a list of Datasets whose rows the exchange
    co-groups: at n >= 2 each gets its bucket inside its own map chain,
    before their union (a bucket pass after the union is one more
    operator; it made ``pagerank_edges`` ~35% slower at sf0.01, 4 CPUs).
    ``key`` is a column name or a list of column names. The exchange
    owns the bucket: there is one bucket per reduce task,
    ``n = shuffle_partitions()`` of them (one per CPU), and the rule
    that maps a key to its bucket is chosen from the key's Arrow type, so
    every block of one Dataset follows the same rule:

    * a single integer column: ``key % n``. Dense ints spread exactly, so
      the checkpoint's partition ids fill the reduce tasks one each;
    * any other key (strings, datetimes, several columns): the fixed
      64-bit ``stages.sampling.hash64`` of each key column, combined
      across columns as pandas' ``hash_pandas_object`` combines a
      DataFrame's, ``% n``;
    * no key (``[]``): one bucket, so one reduce task sees every row (a
      global top-k, whose combiner already cut each block to ``k`` rows).

    A null key lands in one fixed bucket (an int null reads as 0). At
    n >= 2 the bucket is computed from the key columns alone, appended to
    the block without copying it, moved by ONE exchange,
    ``sort(bucket, boundaries=1..n-1)`` (one range per bucket), and
    dropped again before ``reduce_block`` runs, once per output block,
    via ``map_batches(batch_size=None)``. At n = 1 every row is in the
    one bucket, so none is computed: no bucket map runs and no bucket
    column exists. ``repartition(1)``, one task, concatenates every
    block as it is (a range sort given no boundaries samples them, and a
    split repartition cannot co-locate keys over two ranges or more),
    and ``reduce_block`` gets that block without its schema metadata, as
    a bucketed block has none.
    ``reduce_block`` takes that block as a ``pyarrow.Table`` and returns a
    ``pyarrow.Table``. A block holds every row of each of its keys and many
    keys, so ``reduce_block`` must reduce per key vectorized. Ray skips the
    call for an empty bucket. The Ray operator is named after
    ``reduce_block`` (after its function, for a ``functools.partial``). A
    mega-key still meets in one call: a cap or salt belongs in the bucket
    rule here (callers salt today with a list key, as
    ``pipelines/geo.py:cell_agg_salted`` does).

    Why not ``groupby(key).map_groups`` (round-5 profile, sf0.1 / 32
    CPUs, z10 tiles): under the pinned sort shuffle it ignores
    ``num_partitions`` and derives ranges from sampled quantiles, which
    held 3-42 buckets per range, a 13-34x rows-per-task spread whose
    3.5 s straggler was the flagship's critical path, and it calls
    Python once per group. Fixed boundaries make every range one bucket.

    Reduce tasks: one bucket per reduce task, one task per CPU
    (:func:`shuffle_partitions`, which holds the measurements), and
    exactly one for a single bucket.

    ``schema``, when given, is the reduce's output ``pyarrow.Schema``; it
    is cached on the returned Dataset so ``schema()`` and
    ``to_arrow_refs()`` answer without executing anything. Ray 2.49 never
    caches the schema of a streamed run (``legacy_compat.py:80-90`` stores
    it in ``_snapshot_metadata_schema``, which ``ExecutionPlan.schema()``,
    ``_internal/plan.py:366-384``, never reads), so ``to_arrow_refs()``
    (``dataset.py:5840``) and any ``Dataset.schema()`` (``dataset.py:
    3414-3423``) re-run the plan under ``limit(1)``. A limit cannot stop
    before the sort's barrier: the re-run repeats the read, the map chain
    and the sort, then cancels a just-submitted reduce task. Pass it only
    when the reduce's columns do not depend on the data. This is the
    engine's only use of Ray's private plan; if an upgrade removes
    ``cache_schema`` the call fails here, at plan construction.
    """
    keys = [key] if isinstance(key, str) else list(key)
    n = shuffle_partitions() if keys else 1
    sides = ds if isinstance(ds, list) else [ds]

    @functools.wraps(getattr(reduce_block, "func", reduce_block))
    def reduce(block: pa.Table) -> pa.Table:
        if n > 1:
            return reduce_block(block.drop_columns([BUCKET]))
        # a caller's pandas block converts with pandas metadata, which
        # add_bucket strips at n >= 2
        return reduce_block(block.replace_schema_metadata(None))

    if n == 1:
        # one bucket needs no bucket column: a range sort given no
        # boundaries samples them, so one split repartition task
        # concatenates every block as it is
        moved = _union(sides).repartition(1)
    else:

        def add_bucket(block: pa.Table) -> pa.Table:
            # a caller's pandas block converts with pandas metadata, which
            # Ray cannot hash when it concatenates a reduce range's blocks
            block = block.replace_schema_metadata(None)
            return block.append_column(BUCKET, pa.array(_bucket_of(block, keys, n)))

        bucketed = _union([d.map_batches(add_bucket, batch_format="pyarrow") for d in sides])
        moved = bucketed.sort(BUCKET, boundaries=list(range(1, n)))
    out = moved.map_batches(reduce, batch_format="pyarrow", batch_size=None)
    if schema is not None:
        out._plan.cache_schema(schema)
    return out


def _union(sides):
    return sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]


def collect(ds):
    """A driver-sized Dataset as one Arrow table (no columns if it has no
    block). An empty range of an exchange of two buckets or more comes
    back as a block without columns, so the blocks' schemas are
    promoted, not assumed equal."""
    blocks = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(blocks, promote_options="default") if blocks else pa.table({})


def _bucket_of(block, keys, n):
    """The bucket in ``[0, n)`` of every row of the Arrow ``block``'s
    ``keys``.

    An integer column is read as its numpy ints, a null as 0 (so an int
    column hashes as ints whether or not its block holds a null), and any
    other column is hashed by ``hash64``. No key at all puts every row in
    bucket 0.
    """
    if not keys:
        return np.zeros(len(block), np.int64)
    cols = [
        c.fill_null(0).to_numpy() if pa.types.is_integer(c.type) else c
        for c in block.select(keys).columns
    ]
    if len(cols) == 1 and isinstance(cols[0], np.ndarray):
        k = cols[0]
        return (k % k.dtype.type(n)).astype(np.int64)
    h = combine64([hash64(c) for c in cols])
    return (h % np.uint64(n)).astype(np.int64)
