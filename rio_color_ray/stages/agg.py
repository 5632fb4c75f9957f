"""Keyed reduce: the engine's four entries to its one keyed exchange.

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
  no aggregate at all gives the distinct keys; a min and a max of a
  flag, or one-hot sums, give set operations and pivots). ONE Arrow
  ``group_by().aggregate`` runs as the map-side combiner on every input
  block and again as the reduce; the two are the same function, which is
  idempotent on partials, so the exchange moves at most one row per key
  per block: a hot key cannot pile raw rows on one reduce task.
* :func:`keyed_topk` — the first ``k`` rows of every key under a total
  order, ranked: nearest neighbours, argmin/argmax, per-group samples
  and caps, and (with no key) a global top-k. ONE Arrow sort and
  run-start compare, again as the combiner and as the reduce, so the
  exchange moves at most ``k`` rows per key per block.
* :func:`keyed_scan` — windows (lags, running sums and maxes, sessions,
  as-of and range joins, quantiles): a caller's numpy over each sorted
  Arrow block and the mask of every key's first row, the same sort and
  run-start compare. A per-row output cannot pre-reduce, so the exchange
  moves raw rows, and one bucket must fit a worker's heap.
* :func:`hash_bucket_agg` — a caller-written pandas reduce for the rest;
  ``tests/test_stage_guard.py`` pins its callers, a list that only shrinks.

The same exchange carries the bucketed hash join, the LSH pair stages,
the min-label CC passes, the checkpoint writers and the tile reduce.
For adversarial key skew in a raw-row exchange, salt upstream and key
on the list ``[key, salt]``, as pipelines/geo.py does.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def keyed_topk(ds, key, order, k):
    """The first ``k`` rows of every key of ``ds`` under ``order``.

    ``key`` is a column or a list of columns, as in ``bucket_exchange``;
    ``[]`` makes the whole Dataset one group. ``order`` is a list of
    ``(column, "ascending" | "descending")`` pairs, which the caller
    makes total with a tie-break column. Every input column is kept, a
    1-based int64 ``rank`` is appended (replacing any ``rank`` column of
    the input), and each output block is sorted by the key, then
    ``order``. A null key is its own group, as in SQL's ``PARTITION
    BY``; every group of the same rows gets the ranks DuckDB's
    ``row_number()`` gives it.
    """
    keys = [key] if isinstance(key, str) else list(key)
    by = [(c, "ascending") for c in keys] + list(order)

    # the combiner and the reduce; the operator takes this name, which
    # perfbench's trace folds into op.stages.agg
    def per_bucket(block: pa.Table) -> pa.Table:
        if "rank" in block.column_names:
            block = block.drop_columns(["rank"])
        block, start = _sorted_runs(block, keys, by)
        pos = run_position(start)
        keep = pos < k
        return block.filter(pa.array(keep)).append_column("rank", pa.array(pos[keep] + 1, pa.int64()))

    partial = ds.map_batches(per_bucket, batch_format="pyarrow")
    return bucket_exchange(partial, key, per_bucket, "pyarrow")


def keyed_scan(ds, key, order, fn):
    """``fn`` over every key's rows of ``ds``, in ``order``: a window.

    ``key`` is a column or a list of columns, as in ``bucket_exchange``;
    ``order`` is a list of ``(column, "ascending" | "descending")``
    pairs. ``fn(block, start)`` gets one exchange block stably sorted by
    the key, then ``order``, and the bool numpy mask of the rows that
    start a key's run (a null key is its own run), and returns an Arrow
    table. Every key's rows are one run of one call, so a lag, running
    sum or gap rule is a few numpy lines over the mask for all keys at
    once (``run_position``, ``run_cumsum``). There is no combiner.
    """
    keys = [key] if isinstance(key, str) else list(key)
    by = [(c, "ascending") for c in keys] + list(order)

    # the reduce; the operator takes this name, which perfbench's trace
    # folds into op.stages.agg
    def per_bucket(block: pa.Table) -> pa.Table:
        return fn(*_sorted_runs(block, keys, by))

    return bucket_exchange(ds, key, per_bucket, "pyarrow")


def _sorted_runs(block, keys, by):
    """``block`` stably sorted by ``by``, and the mask of the rows where
    a run of equal ``keys`` starts. Two nulls are equal, a null and a
    value are not."""
    block = block.sort_by(by)
    n = block.num_rows
    start = np.arange(n) == 0
    for col in block.select(keys).columns:
        prev, cur = col.slice(0, n - 1), col.slice(1)
        differs = pc.fill_null(pc.not_equal(cur, prev), False)
        differs = pc.or_(differs, pc.not_equal(pc.is_valid(cur), pc.is_valid(prev)))
        start[1:] |= differs.to_numpy(zero_copy_only=False)
    return block, start


def run_position(start):
    """Every row's 0-based position in its run; ``start`` marks the
    first row of each run (and must mark row 0)."""
    pos = np.arange(len(start))
    return pos - np.maximum.accumulate(np.where(start, pos, 0))


def run_cumsum(x, start):
    """The running sum of ``x`` (inclusive) restarted at every run start.

    One block-wide cumsum minus each run's base; an int64 wrap cancels
    in the difference, so only a run's own sum must fit."""
    cum = np.cumsum(x)
    first = np.arange(len(x)) - run_position(start)
    return cum - (cum - x)[first]


def hash_bucket_agg(ds, key, agg_fn):
    """Group ``ds`` (a Dataset, or a list of Datasets to co-group) by
    ``key``: a column (int, string or datetime) or a list of columns.

    ``agg_fn: pd.DataFrame -> pd.DataFrame`` receives one exchange
    block's rows (all rows of any given key, many keys) and must perform
    its own ``groupby(key)`` reduction vectorized. Returns the concatenated
    per-block results as a Dataset. Sums, mins and maxes belong in
    :func:`keyed_agg`, the first rows of every key in :func:`keyed_topk`
    and windows in :func:`keyed_scan`.
    """

    # the operator takes this name; perfbench's trace folds it into
    # op.stages.agg
    def per_bucket(bucket):
        return agg_fn(bucket)

    return bucket_exchange(ds, key, per_bucket, "pandas")
