"""Join operators: broadcast small side + explicit bucketed hash join.

Two large-large strategies, both shuffle-aware:

* ``Dataset.join`` (Ray's built-in hash-partitioned join) — the engine
  runs none; it is the reference the bucketed join is tested against
  (its ``num_partitions`` is the caller's).
* ``bucketed_hash_join`` — the portable explicit pattern (ray_guide
  "Joins and lookups"): both sides get a side tag, are unioned under a
  common nullable schema, moved by the engine's keyed exchange on the
  key (``ctx.bucket_exchange``, which buckets it: one bucket per reduce
  task, one task per CPU), and each exchange block does ONE vectorized
  pandas merge, returned as an Arrow table.

Broadcast joins ship the small side as a ``ray.put`` ref, resolve it once
per worker process (``make_stage_fn``) and merge per batch — no shuffle.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..ctx import bucket_exchange


class BroadcastJoinStage:
    """Stateful stage: pandas merge against a broadcast small table."""

    def __init__(self, small_df, on, how="inner", columns=None):
        try:
            import ray

            if isinstance(small_df, ray.ObjectRef):
                small_df = ray.get(small_df)
        except ImportError:
            pass
        self.small = small_df if columns is None else small_df[columns]
        self.on = on
        self.how = how

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(self.small, on=self.on, how=self.how)


def broadcast_semi_filter(ds, keys, key_col):
    """Semi-join filter: keep rows whose key is in the broadcast key set.

    The key array ships ONCE via ``ray.put`` (object store, zero-copy
    numpy reads per worker) — not re-pickled into every task's closure;
    the per-worker resolve is memoized in the process state cache.
    """
    import ray

    from .statecache import process_cached

    ref = ray.put(np.asarray(sorted(keys)))

    def fn(batch: pa.Table) -> pa.Table:
        keys = process_cached(("semi_keys", ref.hex()), lambda: ray.get(ref),
                              group="broadcast_semi_filter")
        vals = batch.column(key_col).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, vals)
        pos = np.clip(pos, 0, len(keys) - 1)
        mask = keys[pos] == vals
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def _pa_types(schema):
    # Ray's Schema wrapper: Arrow-backed datasets carry pa.DataType,
    # pandas-backed ones numpy dtypes — normalize to Arrow. numpy's
    # object dtype (pandas str columns) has no direct Arrow mapping;
    # treat it as string, the only object payload our tables carry.
    out = {}
    for name, typ in zip(schema.names, schema.types):
        if isinstance(typ, pa.DataType):
            out[name] = typ
        elif typ is object or getattr(np.dtype(typ), "kind", None) == "O":
            out[name] = pa.string()
        else:
            out[name] = pa.from_numpy_dtype(typ)
    return out


def bucketed_hash_join(
    left,
    right,
    key,
    how="inner",
    suffixes=("_l", "_r"),
    left_schema=None,
    right_schema=None,
):
    """Explicit partitioned hash join of two Datasets on an int64 key.

    Schema handling: each side's non-key columns are carried under the
    union schema with nulls for the other side; the per-bucket merge
    reconstructs the two frames and joins them vectorized.

    ``left_schema`` / ``right_schema`` (ordered ``{name: pa.DataType}``)
    skip the ``Dataset.schema()`` probe for that side. Pass them when a
    side ends in an aggregation/exchange: schema inference executes the
    plan up to a limit-1, and an all-to-all upstream cannot
    short-circuit — the probe silently runs the full aggregate once
    before the join runs it again.
    """
    lschema = left_schema if left_schema is not None else _pa_types(left.schema())
    rschema = right_schema if right_schema is not None else _pa_types(right.schema())
    lcols = [f for f in lschema if f != key]
    rcols = [f for f in rschema if f != key]
    overlap = set(lcols) & set(rcols)
    lmap = {c: c + suffixes[0] if c in overlap else c for c in lcols}
    rmap = {c: c + suffixes[1] if c in overlap else c for c in rcols}

    def tag(side, colmap, other_names):
        def fn(batch: pa.Table) -> pa.Table:
            # explicit-schema callers must declare EVERY upstream column:
            # silently dropping an undeclared one would turn schema drift
            # into data loss downstream of the join
            extra = set(batch.column_names) - set(colmap) - {key}
            if extra:
                raise ValueError(
                    f"bucketed_hash_join: side {side} carries undeclared "
                    f"columns {sorted(extra)}; add them to the declared schema "
                    f"or project them away before the join"
                )
            out = {key: batch.column(key)}
            out["__side"] = pa.array(np.full(batch.num_rows, side, dtype=np.int8), pa.int8())
            for orig, new in colmap.items():
                out[new] = batch.column(orig)
            for name, typ in other_names:
                out[name] = pa.nulls(batch.num_rows, typ)
            return pa.table(out)

        return fn

    l_other = [(rmap[c], rschema[c]) for c in rcols]
    r_other = [(lmap[c], lschema[c]) for c in lcols]
    lt = left.map_batches(tag(0, lmap, l_other), batch_format="pyarrow")
    rt = right.map_batches(tag(1, rmap, r_other), batch_format="pyarrow")

    lnames = [lmap[c] for c in lcols]
    rnames = [rmap[c] for c in rcols]

    def merge_bucket(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "__side" not in group.schema.names:
            return pa.table({key: pa.array([], pa.int64())})
        # Slice sides in Arrow FIRST: each side's own columns are null-free
        # there, so the pandas conversion keeps exact dtypes (int64 stays
        # int64 — no float64 upcast that would corrupt keys above 2^53).
        side = group.column("__side")
        lg = group.filter(pc.equal(side, 0)).select([key] + lnames).to_pandas()
        rg = group.filter(pc.equal(side, 1)).select([key] + rnames).to_pandas()
        return pa.Table.from_pandas(lg.merge(rg, on=key, how=how), preserve_index=False)

    return bucket_exchange([lt, rt], key, merge_bucket)
