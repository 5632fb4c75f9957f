"""Keyed reduce: the engine's one groupby for its own pandas UDFs.

Every keyed reduce the engine defines runs through the keyed exchange,
whatever the key's cardinality — per order or per document as much as
per query, per language or per day. Ray Data's
``groupby(key).map_groups`` calls Python once per group and, under the
pinned sort shuffle, ignores ``num_partitions``; its sort-based
``groupby(key).aggregate(...)`` pays ~0.6 ms per group in the reduce
(92 s for a 147k-group max over 600k rows, BASELINE.md round-2 notes).
Only Ray's builtin aggregates (``Sum``, ``Count``, ...) over
low-cardinality keys stay on ``aggregate``.

``hash_bucket_agg`` is the pandas-format entry to the exchange
(:func:`rio_color_ray.ctx.bucket_exchange`, which buckets rows by the key:
the modulo of an int key, a fixed pandas hash of any other): a
caller-supplied VECTORIZED pandas reduce runs once per exchange block,
one bucket holding every row of each of its keys. No Python runs per
group. The same exchange carries the bucketed hash join, the LSH pair
stages, the min-label CC passes, the checkpoint writers and the tile
reduce.

Scale notes: buckets are uniform under the modulo of a dense int key —
for adversarial key skew, salt upstream and key on the list
``[key, salt]``, as pipelines/geo.py does. Callers should pre-aggregate
per batch BEFORE calling (partial combine), so the exchange moves
partials, not raw rows. One reduce task holds one bucket, about
1/``shuffle_partitions()`` of the rows (one task per CPU, at least 8).
Callers that MUST ship raw rows (the window family: sessionize, as-of,
range join — their per-row outputs can't pre-reduce) must size the
cluster so that share fits a worker's heap.
"""

from ..ctx import bucket_exchange


def hash_bucket_agg(ds, key, agg_fn):
    """Group ``ds`` (a Dataset, or a list of Datasets to co-group) by
    ``key``: a column (int, string or datetime) or a list of columns.

    ``agg_fn: pd.DataFrame -> pd.DataFrame`` receives one exchange
    block's rows (all rows of any given key, many keys) and must perform
    its own ``groupby(key)`` reduction vectorized. Returns the concatenated
    per-block results as a Dataset.
    """

    # the operator takes this name; perfbench's trace folds it into
    # op.stages.agg
    def per_bucket(bucket):
        return agg_fn(bucket)

    return bucket_exchange(ds, key, per_bucket, "pandas")
