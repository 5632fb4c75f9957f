"""Join operators: a bucketed hash join and a broadcast join, one kernel.

Both run Arrow's hash join, ``pa.Table.join(..., use_threads=False)``,
and take its ``join_type`` names (``"inner"``, ``"left outer"``,
``"right semi"``, ...). Arrow's join is SQL's: a null key matches
nothing, as in the DuckDB twins (pandas' merge pairs NaN with NaN).
Acero raises ``ArrowInvalid`` for a list-typed non-key column (no engine
join carries one) and needs one key type on both sides. Row order
inside a batch or bucket is Arrow's, so consumers key or sort.

* ``bucketed_hash_join`` — both sides large (ray_guide "Joins and
  lookups"): each side gets a side tag, the two are unioned under a
  common nullable schema and moved by the engine's keyed exchange on the
  key (``ctx.bucket_exchange``: one bucket per reduce task, one task per
  CPU), and each exchange block is split by side and joined once.
* ``broadcast_join`` — one side small: it ships once as a ``ray.put``
  Arrow table, is resolved once per worker process
  (``statecache.process_cached``) and joined against every batch; no
  shuffle.

``Dataset.join`` (Ray's built-in hash-partitioned join) is the reference
the bucketed join is tested against; the engine runs none.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ctx import bucket_exchange


def broadcast_join(ds, small, on, join_type="inner"):
    """``ds`` joined per batch with the Arrow table ``small`` on ``on``.

    ``small`` is the left side of ``small.join(batch, ...)``, so Acero
    builds its hash table on the batch, not on the dimension every call:
    ``"right semi"`` keeps the batch rows whose key is in ``small``. The
    output holds the batch's columns in its order, then ``small``'s
    other columns.
    """
    import ray

    from .statecache import process_cached

    ref = ray.put(small)

    def fn(batch: pa.Table) -> pa.Table:
        table = process_cached(("broadcast_join", ref.hex()), lambda: ray.get(ref),
                               group="broadcast_join")
        out = table.join(batch, on, join_type=join_type, use_threads=False)
        names = batch.column_names
        return out.select(names + [c for c in out.column_names if c not in names])

    return ds.map_batches(fn, batch_format="pyarrow")


def _pa_types(schema):
    # Ray's Schema.types are Arrow types, and ``object`` for a column it
    # cannot map: a pandas str column, the only such payload our tables carry
    return {n: pa.string() if t is object else t for n, t in zip(schema.names, schema.types)}


def bucketed_hash_join(left, right, key, join_type="inner", left_schema=None, right_schema=None):
    """Explicit partitioned hash join of two Datasets on an int64 key.

    Schema handling: each side's non-key columns are carried under the
    union schema with nulls for the other side; the per-bucket join
    slices the two sides back out and joins them in Arrow. The two sides
    may share no non-key column (a ``ValueError`` names any that they
    do): rename or project one away first.

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
    overlap = sorted(set(lcols) & set(rcols))
    if overlap:
        raise ValueError(
            f"bucketed_hash_join: both sides carry the non-key columns {overlap}; "
            f"rename them on one side or project them away before the join"
        )

    # each side's columns under its declared types; both sides are tagged
    # into one union schema, so every exchange block has one schema
    lside = pa.schema([(c, lschema[c]) for c in [key, *lcols]])
    rside = pa.schema([(c, rschema[c]) for c in [key, *rcols]])
    union = pa.unify_schemas([lside, rside]).append(pa.field("__side", pa.int8()))

    def tag(side, names):
        def fn(batch: pa.Table) -> pa.Table:
            # explicit-schema callers must declare EVERY upstream column:
            # silently dropping an undeclared one would turn schema drift
            # into data loss downstream of the join
            extra = set(batch.column_names) - set(names)
            if extra:
                raise ValueError(
                    f"bucketed_hash_join: side {side} carries undeclared "
                    f"columns {sorted(extra)}; add them to the declared schema "
                    f"or project them away before the join"
                )
            cols = {c: batch.column(c) for c in names}
            cols["__side"] = pa.array(np.full(batch.num_rows, side, np.int8))
            return pa.table(
                [cols[f.name] if f.name in cols else pa.nulls(batch.num_rows, f.type) for f in union],
                names=union.names,
            )

        return fn

    lt = left.map_batches(tag(0, lside.names), batch_format="pyarrow")
    rt = right.map_batches(tag(1, rside.names), batch_format="pyarrow")

    # Ray never calls a reduce with an empty block. A side's column can
    # arrive null-typed (an empty pandas block converts so), hence the cast
    def merge_bucket(group: pa.Table) -> pa.Table:
        side = group.column("__side")
        lg = group.filter(pc.equal(side, 0)).select(lside.names).cast(lside)
        rg = group.filter(pc.equal(side, 1)).select(rside.names).cast(rside)
        return lg.join(rg, key, join_type=join_type, use_threads=False)

    return bucket_exchange([lt, rt], key, merge_bucket)
