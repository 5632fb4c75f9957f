"""Ray Data execution-context tuning and the engine's keyed exchange.

Shuffle strategy — measured on this sandbox (32-CPU local node, sf0.1
corpus, warm workers; see BASELINE.md "shuffle strategy" table):

* sort-shuffle (pull-based, Ray's default): task-based exchange that
  reuses warm worker processes. Tile groupby 3.3s, aggregates 1.6-2.7s,
  per-execution overhead of a full pipeline ~2s.
* hash-shuffle: spawns a fresh pool of aggregator ACTORS per dataset
  execution (library import + process start before the first block
  moves), adding ~2s per exchange per run; aggregates 4.3-5.2s. It also
  deadlocks small nodes unless the per-partition CPU reservation is cut
  to a fraction (aggregators at 1 CPU each can hold every core while
  upstream map tasks starve).

With stateful stages running task-pool (stages/statecache.py) and the
tile assembly vectorized over Arrow, sort-shuffle wins every exchange in
this engine at every scale we can measure here, so we pin it explicitly.

Every keyed reduce the engine defines goes through :func:`bucket_exchange`,
which alone decides each key's bucket: sums, mins and maxes as
``stages.agg.keyed_agg`` (one Arrow group_by as the map-side combiner
and as the reduce), the first k rows per key (or overall) as
``stages.agg.keyed_topk`` (one Arrow sort as the combiner and as the
reduce), windows as ``stages.agg.keyed_scan`` (the same Arrow sort and
run-start mask, then the caller's numpy over it, no combiner), every
other reduce as a caller's vectorized function. Ray's builtin
``groupby(key).aggregate`` runs nowhere, nor does a second exchange for
a global top-k.
"""

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data.context import DataContext, ShuffleStrategy

# the exchange's own column: the key's bucket, never seen by a reduce
BUCKET = "__bucket"


def tune_data_context():
    """Idempotent: pin the measured-fastest exchange configuration."""
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    # Dataset.join runs Ray's hash-shuffle join (aggregator actors) under
    # any strategy — the reference join of tests/test_relational.py::
    # test_bucketed_join_matches_builtin. With the pool uncapped a q3
    # join through it stalled on a 4-CPU node.
    ctx.max_hash_shuffle_aggregators = 8
    return ctx


def shuffle_partitions(cap=64, floor=8):
    """Partition count for a keyed exchange: ≈ cluster CPUs, bounded.

    At cluster scale raise ``cap`` with the node count; the floor keeps
    small local runs from collapsing to one reducer.
    """
    try:
        import ray

        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", floor))
            return max(floor, min(cap, cpus))
    except Exception:
        pass
    return max(floor, min(cap, 32))


def bucket_exchange(ds, key, reduce_block, batch_format, schema=None):
    """Co-locate every key's rows and reduce each exchange block once.

    ``ds`` is a Dataset, or a list of Datasets whose rows the exchange
    co-groups: each gets its bucket inside its own map chain, before
    their union (a bucket pass after the union is one more operator; it
    made ``pagerank_edges`` ~35% slower at sf0.01, 4 CPUs). ``key`` is
    a column name or a list of column names. The exchange owns the
    bucket: there is one bucket per reduce task,
    ``n = shuffle_partitions()`` of them (8 at 1-8 CPUs), and the rule
    that maps a key to its bucket is chosen from the key's Arrow type, so
    every block of one Dataset follows the same rule:

    * a single integer column: ``key % n``. Dense ints spread exactly, so
      the checkpoint's partition ids fill the reduce tasks one each;
    * any other key (strings, datetimes, several columns): the fixed
      64-bit ``pd.util.hash_pandas_object`` of the key columns, ``% n``;
    * no key (``[]``): one bucket, so one reduce task sees every row (a
      global top-k, whose combiner already cut each block to ``k`` rows).

    A null key lands in one fixed bucket (an int null reads as 0). The
    bucket is computed from the key columns alone, appended to the block
    without copying it, moved by ONE ``sort(bucket, boundaries=1..n-1)``
    and dropped again before ``reduce_block`` runs, once per output
    block, via ``map_batches(batch_size=None)``. A block holds every row
    of each of its keys and many keys, so ``reduce_block`` must reduce
    per key vectorized. Ray skips the call for an empty bucket. The Ray
    operator is named after ``reduce_block`` (after its function, for a
    ``functools.partial``). A mega-key still meets in one call: a cap or
    salt belongs in the bucket rule here (callers salt today with a list
    key, as ``pipelines/geo.py:cell_agg_salted`` does).

    Why not ``groupby(key).map_groups`` (round-5 profile, sf0.1 / 32
    CPUs, z10 tiles): under the pinned sort shuffle it ignores
    ``num_partitions`` and derives ranges from sampled quantiles, which
    held 3-42 buckets per range, a 13-34x rows-per-task spread whose
    3.5 s straggler was the flagship's critical path, and it calls
    Python once per group. Fixed boundaries make every range one bucket.

    Reduce tasks: one bucket per reduce task, one task per CPU, at least
    8, at most 64 (:func:`shuffle_partitions`); 8 at 1-8 CPUs. Measured
    no worse than 2 per CPU at 1 CPU (perfbench tiles_z10/tiles_resume)
    and at 4 CPUs (bench.py, sf0.1: flagship z7 1.44 -> 1.46 s, z10 1.72
    -> 1.60 s; BASELINE.md "One reduce task per CPU"). Plans at 8+ CPUs
    are unmeasured.

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

    def add_bucket(block):
        if isinstance(block, pa.Table):
            return block.append_column(BUCKET, pa.array(_bucket_of(block, keys, n)))
        out = block.copy(deep=False)  # a new column, not a copy of the data
        out[BUCKET] = _bucket_of(block, keys, n)
        return out

    @functools.wraps(getattr(reduce_block, "func", reduce_block))
    def reduce(block):
        if isinstance(block, pa.Table):
            return reduce_block(block.drop_columns([BUCKET]))
        block = block.copy(deep=False)
        del block[BUCKET]
        return reduce_block(block)

    sides = [
        d.map_batches(add_bucket, batch_format=None) for d in (ds if isinstance(ds, list) else [ds])
    ]
    bucketed = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    # Ray samples boundaries when given none, so one bucket is the range
    # below 1, beside an empty one
    out = bucketed.sort(BUCKET, boundaries=list(range(1, max(n, 2)))).map_batches(
        reduce, batch_format=batch_format, batch_size=None
    )
    if schema is not None:
        out._plan.cache_schema(schema)
    return out


def _bucket_of(block, keys, n):
    """The bucket in ``[0, n)`` of every row of ``block``'s ``keys``.

    An Arrow and a pandas block give a key the same bucket: an integer
    column is read as its numpy ints, a null as 0 (so an int column
    hashes as ints whether or not its block holds a null), and any other
    column is hashed as its pandas values. No key at all puts every row
    in bucket 0.
    """
    if not keys:
        return np.zeros(len(block), np.int64)
    if isinstance(block, pa.Table):
        cols = [
            c.fill_null(0).to_numpy() if pa.types.is_integer(c.type) else c.to_pandas()
            for c in block.select(keys).columns
        ]
    else:
        cols = [
            c.to_numpy(getattr(c.dtype, "numpy_dtype", c.dtype), na_value=0)
            if pd.api.types.is_integer_dtype(c.dtype)
            else c
            for c in (block[k] for k in keys)
        ]
    if len(cols) == 1 and isinstance(cols[0], np.ndarray):
        k = cols[0]
        return (k % k.dtype.type(n)).astype(np.int64)
    frame = pd.DataFrame(dict(enumerate(cols)))
    h = pd.util.hash_pandas_object(frame, index=False).to_numpy()
    return (h % np.uint64(n)).astype(np.int64)
