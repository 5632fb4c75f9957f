"""Keyed reduce via hash buckets: the engine's one groupby for its own UDFs.

Every keyed reduce the engine defines runs here, whatever the key's
cardinality — per order or per document as much as per query, per
language or per day. Ray Data's ``groupby(key).map_groups`` calls Python
once per group and, under the pinned sort shuffle, ignores
``num_partitions``; its sort-based ``groupby(key).aggregate(...)`` pays
~0.6 ms per group in the reduce (92 s for a 147k-group max over 600k
rows, BASELINE.md round-2 notes). Only Ray's builtin aggregates
(``Sum``, ``Count``, ...) over low-cardinality keys stay on
``aggregate``.

``hash_bucket_agg`` keeps the exchange but swaps the reduce: rows are
bucketed by ``key % n_buckets`` (int keys) or a fixed pandas hash (any
other key: strings, datetimes) and moved by the engine's keyed exchange
(:func:`rio_color_ray.ctx.bucket_exchange`), and a caller-supplied
VECTORIZED pandas reduce runs once per exchange block — a range of
buckets holding every row of each of its keys. No Python runs per group
or per bucket. The same exchange carries the bucketed hash join, the
LSH pair stages, the min-label CC passes, the checkpoint writers and the
tile reduce.

Scale notes: buckets are uniform under the modulo of a dense int key —
for adversarial key skew, salt upstream like pipelines/geo.py does.
Callers should pre-aggregate per batch BEFORE calling (partial
combine), so the exchange moves partials, not raw rows. ``n_buckets`` is
only the hash modulus: the reduce parallelism is
``shuffle_partitions()`` (one task per CPU, at least 8, at most
``n_buckets``), so one reduce task holds ~1/that of the rows. Callers
that MUST ship raw rows (the window family: sessionize, as-of, range
join — their per-row outputs can't pre-reduce) must size the cluster so
that share fits a worker's heap.
"""

import numpy as np
import pandas as pd

from ..ctx import bucket_exchange


def hash_bucket_agg(ds, key, agg_fn, n_buckets=64):
    """Group ``ds`` by column ``key`` (int, string or datetime).

    ``agg_fn: pd.DataFrame -> pd.DataFrame`` receives one exchange
    block's rows (all rows of any given key, many keys) and must perform
    its own ``groupby(key)`` reduction vectorized. Returns the concatenated
    per-block results as a Dataset.
    """

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        k = df[key]
        if pd.api.types.is_integer_dtype(k):
            b = k.to_numpy().astype(np.int64) % n_buckets
        else:  # other keys: deterministic 64-bit hash, fixed pandas key
            h = pd.util.hash_pandas_object(k, index=False).to_numpy()
            b = (h % np.uint64(n_buckets)).astype(np.int64)
        df["__b"] = b
        return df

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        return agg_fn(bucket.drop(columns="__b"))

    bucketed = ds.map_batches(add_bucket, batch_format="pandas")
    return bucket_exchange(bucketed, "__b", n_buckets, per_bucket, "pandas")
