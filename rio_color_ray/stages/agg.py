"""Keyed reduce: the engine's two entries to its one keyed exchange.

Every keyed reduce the engine defines runs through the keyed exchange
(:func:`rio_color_ray.ctx.bucket_exchange`, which buckets rows by the key:
the modulo of an int key, a fixed pandas hash of any other), whatever
the key's cardinality — per order or per document as much as per query,
per language or per day. One bucket holds every row of each of its keys,
and the reduce runs once per exchange block, vectorized: no Python runs
per group. Ray Data's ``groupby(key).map_groups`` calls Python once per
group and, under the pinned sort shuffle, ignores ``num_partitions``;
its sort-based ``groupby(key).aggregate(...)`` pays ~0.6 ms per group in
the reduce (92 s for a 147k-group max over 600k rows, BASELINE.md
round-2 notes). Neither runs in the engine.

* :func:`keyed_agg` — sums, mins and maxes (a count is a sum of ones,
  no aggregate at all gives the distinct keys). ONE Arrow
  ``group_by().aggregate`` runs as the map-side combiner on every input
  block and again as the reduce; the two are the same function, which is
  idempotent on partials, so the exchange moves at most one row per key
  per block: a hot key cannot pile raw rows on one reduce task.
* :func:`hash_bucket_agg` — a caller-written pandas reduce, for the
  reduces a combiner cannot express: distinct counts, argmax, top-k,
  running sums, window joins. Such callers either shrink their input
  per batch first or ship raw rows (the window family: sessionize,
  as-of, range join — their per-row outputs can't pre-reduce) and must
  size the cluster so that one bucket, about 1/``shuffle_partitions()``
  of the rows, fits a worker's heap.

The same exchange carries the bucketed hash join, the LSH pair stages,
the min-label CC passes, the checkpoint writers and the tile reduce.
For adversarial key skew in a raw-row exchange, salt upstream and key
on the list ``[key, salt]``, as pipelines/geo.py does.
"""

import pyarrow as pa

from ..ctx import bucket_exchange


def keyed_agg(ds, key, aggs):
    """Per-key ``"sum"``, ``"min"`` or ``"max"`` of ``ds``'s columns.

    ``key`` is a column or a list of columns, as in ``bucket_exchange``;
    ``aggs`` maps a value column to its aggregate, and each output column
    keeps its input name, after the key columns. Arrow groups a null key
    as its own group (as SQL does; a pandas groupby drops it) and keeps
    the input types: an int64 sum stays int64, a ``timestamp[us]`` key or
    min stays ``timestamp[us]``. A global aggregate keys on a constant
    column and drops it afterwards.
    """
    keys = [key] if isinstance(key, str) else list(key)
    spec = list(aggs.items())

    # the combiner and the reduce; the operator takes this name, which
    # perfbench's trace folds into op.stages.agg
    def per_bucket(block: pa.Table) -> pa.Table:
        out = block.group_by(keys, use_threads=False).aggregate(spec)
        return out.select(keys + [f"{c}_{f}" for c, f in spec]).rename_columns(keys + list(aggs))

    partial = ds.map_batches(per_bucket, batch_format="pyarrow")
    return bucket_exchange(partial, key, per_bucket, "pyarrow")


def hash_bucket_agg(ds, key, agg_fn):
    """Group ``ds`` (a Dataset, or a list of Datasets to co-group) by
    ``key``: a column (int, string or datetime) or a list of columns.

    ``agg_fn: pd.DataFrame -> pd.DataFrame`` receives one exchange
    block's rows (all rows of any given key, many keys) and must perform
    its own ``groupby(key)`` reduction vectorized. Returns the concatenated
    per-block results as a Dataset. A reduce that only sums, mins or
    maxes belongs in :func:`keyed_agg`, which needs no hand-written
    per-batch partial.
    """

    # the operator takes this name; perfbench's trace folds it into
    # op.stages.agg
    def per_bucket(bucket):
        return agg_fn(bucket)

    return bucket_exchange(ds, key, per_bucket, "pandas")
