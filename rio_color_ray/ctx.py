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

Every keyed reduce the engine defines goes through :func:`bucket_exchange`;
only Ray's builtin ``groupby(key).aggregate`` runs beside it.
"""

from ray.data.context import DataContext, ShuffleStrategy


def tune_data_context():
    """Idempotent: pin the measured-fastest exchange configuration."""
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    # Dataset.join runs Ray's hash-shuffle join (aggregator actors) under
    # any strategy — q3_top_orders(builtin_join=True). With the pool
    # uncapped that query stalled on a 4-CPU node.
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


def bucket_exchange(ds, bucket_col, n_buckets, reduce_block, batch_format, schema=None):
    """Co-locate every bucket's rows and reduce each exchange block once.

    ``bucket_col`` holds an int in ``[0, n_buckets)`` derived by the
    caller from its key (so same-key rows share a bucket). ONE
    ``sort(bucket_col, boundaries=...)`` with explicit equal-width bucket
    ranges moves the rows, then ``reduce_block`` runs once per output
    block — a whole range of buckets, all rows of any bucket in it — via
    ``map_batches(batch_size=None)``. It must therefore reduce per key
    vectorized, never assume one bucket per call. Ray skips the call for
    an empty range. The Ray operator is named after ``reduce_block``
    (a ``functools.partial`` shows its function's name).

    Why not ``groupby(bucket_col).map_groups`` (round-5 profile, sf0.1 /
    32 CPUs, z10 tiles): under the pinned sort shuffle it ignores
    ``num_partitions`` and derives ranges from sampled quantiles, which
    over 1024 discrete bucket values held 3-42 buckets per range — a
    13-34x rows-per-task spread whose 3.5 s straggler was the flagship's
    critical path — and it calls Python once per group. Fixed boundaries
    make every range ``n_buckets / n_ranges`` buckets; a mixed bucket
    hash (splitmix64, or the modulo of a dense key) makes the ranges
    even in rows.

    Reduce tasks: ``min(n_buckets, shuffle_partitions(cap=n_buckets))``
    — one per CPU, at least 8, never more than ``n_buckets`` (no repeated
    boundary at 2-4 buckets); for the tiles 8 at 1-8 CPUs (formerly 16)
    and 32 at 32 CPUs (formerly 64). Measured no worse at 1 CPU (perfbench
    tiles_z10/tiles_resume) and at 4 CPUs (bench.py, sf0.1: flagship z7
    1.44 -> 1.46 s, z10 1.72 -> 1.60 s; BASELINE.md "One reduce task per
    CPU"). Plans at 8+ CPUs are unmeasured; the round-5 sweep that chose
    2 per CPU at 32 CPUs predates the fused tile reduce.

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
    n_ranges = min(n_buckets, shuffle_partitions(cap=n_buckets))
    step = n_buckets / n_ranges
    boundaries = [round(i * step) for i in range(1, n_ranges)]
    out = ds.sort(bucket_col, boundaries=boundaries).map_batches(
        reduce_block, batch_format=batch_format, batch_size=None
    )
    if schema is not None:
        out._plan.cache_schema(schema)
    return out
