"""Resumable, partitioned flagship execution.

Cell-range partitioning: partition p covers web-mercator tile-x range
``[p*2^z/K, (p+1)*2^z/K)`` at the render zoom z (K = n_parts). The id is
computable BOTH from a page's lon and from a tile's x (so every partial
pixel count and every rendered tile lands in its page's partition).
A resumable run maps each documents block with ONE function
(``pipelines.tiles.tile_chain``), whose steps run in this order: make
the pages, geocode them, drop the pages of completed partitions by their
lat/lon (:func:`_keep_pending`), join the rest to the admin polygons,
sum their partial pixel counts and tag each with its partition
(:func:`_add_part`). So every page is still generated and geocoded, and
only the PIP join, the partial pixel counts, the exchange and the render
skip the completed partitions.
Partition count is a deployment knob: at cluster scale set K ≈ a few ×
node count so a lost node forfeits only its in-flight cell ranges. A
resumable run renders in one task per occupied ``part`` bucket,
``p % shuffle_partitions()``: at most one task per CPU (at 1 CPU one
``repartition(1)`` task moves every partial and one task renders every
pending partition), fewer when fewer partitions are pending.

A resumable flagship run is ONE keyed exchange on ``part``
(``ctx.bucket_exchange``, whose modulo of an int key puts dense
partition ids one per reduce task). A tile lies in exactly one
partition, so every partial of a tile meets in one exchange block, which
is rendered and colored there (``pipelines/tiles.py:_assemble_bucket``)
and written by the same reduce: for each partition present it writes
``out_dir/part=<p>/data.parquet`` via tmp + ``os.replace`` (idempotent
under Ray task retries — a retried write simply replaces the same file),
THEN the lineage record, and returns one lineage row per partition.
Both writes are atomic, not durable against power loss (state/lineage.py).
Pending partitions that yielded zero rows get an explicit empty lineage
record afterwards so resume does not re-run them forever. The corpus
curation run (:func:`resumable_curate`) writes through the same
partition writer and the same resume protocol (:func:`_resume`).

The writer is Arrow-native: it sorts the exchange's Arrow block's row
indices once by partition and ``sort_col``, copies each partition's rows
once and writes them, with no pandas round trip, so no pandas schema
metadata reaches the stored files or the blocks read back from them.
:func:`read_output` reads those files through ``io.read_parquet``, in
one block per CPU (one block at 1 CPU, for all 16 files), without hive
partitioning (the ``part=<p>`` directories add no column), so its
Dataset is a plain read whose schema Ray takes from the Parquet
footers.
"""

import functools
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ctx import bucket_exchange
from ..io import read_parquet
from ..spatial import mercator_tile
from .lineage import TMP_DIR, completed_partitions, now_ts, write_lineage_record


def _x_range(p, z, n_parts):
    nx = 1 << z
    return p * nx // n_parts, (p + 1) * nx // n_parts - 1


def partition_of_lonlat(lat, lon, z, n_parts):
    """Vectorized cell-range partition id from coordinates."""
    xt, _ = mercator_tile(np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64), z)
    return _partition_of_tile_x(xt, z, n_parts)


def _partition_of_tile_x(x, z, n_parts):
    return (np.asarray(x, dtype=np.int64) * n_parts) // (1 << z)


def _partition_writer(out_dir, stage, sort_col, cell_range_fn):
    """Exchange reduce: for each partition in the block, write its rows
    (tmp + atomic rename) THEN its lineage record; return the lineage
    rows. The single idempotent-write protocol shared by every
    checkpointed output (``sort_col`` orders rows inside the file;
    ``cell_range_fn(p)`` maps the partition id to the lineage record's
    key range)."""

    def write_group(block: pa.Table) -> pa.Table:
        recs = []
        # one stable sort of the row indices by (part, sort_col); each
        # partition's rows are then copied once, by one take of its run
        # of indices (cache-sized: one take of the whole block measured
        # 2.4x slower on a tiles block)
        order = pc.sort_indices(block, [("part", "ascending"), (sort_col, "ascending")])
        part = block.column("part").take(order).to_numpy()
        first = np.ones(len(part), dtype=bool)
        first[1:] = part[1:] != part[:-1]
        starts = np.flatnonzero(first)
        for start, stop in zip(starts, [*starts[1:], len(part)]):
            t0 = time.time()
            p = int(part[start])
            body = block.take(order.slice(start, stop - start)).drop_columns(["part"])
            part_dir = os.path.join(out_dir, f"part={p}")
            os.makedirs(part_dir, exist_ok=True)
            os.makedirs(os.path.join(out_dir, TMP_DIR), exist_ok=True)
            tmp = os.path.join(out_dir, TMP_DIR, f"dat-{p}-{uuid.uuid4().hex}.parquet")
            pq.write_table(body, tmp)
            os.replace(tmp, os.path.join(part_dir, "data.parquet"))
            lo, hi = cell_range_fn(p)
            rec = {
                "partition_id": str(p),
                "cell_lo": int(lo),
                "cell_hi": int(hi),
                "rows_in": body.num_rows,
                "rows_out": body.num_rows,
                "stage": stage,
                "wall_s": round(time.time() - t0, 4),
                "checkpoint_ts": now_ts(),
            }
            write_lineage_record(out_dir, rec)
            recs.append(rec)
        return pa.Table.from_pylist(recs)

    return write_group


def _resume(out_dir, n_parts, max_partitions, stage, sort_col, cell_range, run):
    """The resume protocol of every checkpointed run.

    Partitions without a lineage record are pending; at most
    ``max_partitions`` of them run (the test harness uses it to simulate
    a killed run). ``run(pending, write)`` computes them and returns the
    lineage rows of a keyed exchange on ``part`` whose reduce ends in
    ``write``, the :func:`_partition_writer` of ``stage``. A pending
    partition that produced no rows gets a ``"<stage>-empty"`` record.
    Returns a summary dict (counts + wall time).
    """
    t_run = time.time()
    done = completed_partitions(out_dir)
    pending = [p for p in range(n_parts) if str(p) not in done][:max_partitions]
    if not pending:
        return {
            "completed_before": len(done),
            "written_now": 0,
            "n_parts": n_parts,
            "wall_s": 0.0,
        }
    lineage = run(pending, _partition_writer(out_dir, stage, sort_col, cell_range))
    wrote = set(lineage["partition_id"].astype(str)) if len(lineage) else set()
    for p in pending:
        if str(p) not in wrote:
            lo, hi = cell_range(p)
            write_lineage_record(
                out_dir,
                {
                    "partition_id": str(p),
                    "cell_lo": int(lo),
                    "cell_hi": int(hi),
                    "rows_in": 0,
                    "rows_out": 0,
                    "stage": f"{stage}-empty",
                    "wall_s": 0.0,
                    "checkpoint_ts": now_ts(),
                },
            )
    return {
        "completed_before": len(done),
        "written_now": len(pending),
        "rows_out": int(lineage["rows_out"].sum()) if len(lineage) else 0,
        "n_parts": n_parts,
        "wall_s": round(time.time() - t_run, 3),
    }


def resumable_flagship(
    sf_dir,
    out_dir,
    n_parts=16,
    replicate=1,
    z=None,
    max_partitions=None,
):
    """Run (or resume) the flagship pipeline, checkpointing per cell range.

    The pending pages' partial pixel counts carry their partition, and
    one keyed exchange on it renders, colors and writes every pending
    partition (see the module docstring), colored with the flagship's
    ``DEFAULT_OPS``. ``max_partitions`` caps how
    many pending partitions this invocation processes — the test harness
    uses it to simulate a killed run. Returns a summary dict (counts +
    per-stage metrics).
    """
    from ..pipelines.flagship import admin_pip_left
    from ..pipelines.geo import geocode_steps, page_docs
    from ..pipelines.tiles import (
        DEFAULT_OPS,
        DEFAULT_ZOOM,
        _assemble_bucket,
        _partial_pixel_counts,
        tile_chain,
    )

    z = DEFAULT_ZOOM if z is None else z

    def run(pending, write):
        @functools.wraps(write)  # the Ray operator keeps the writer's name
        def render_and_write(block: pa.Table) -> pa.Table:
            tiles = _assemble_bucket(block.drop_columns(["part"]), DEFAULT_OPS)
            part = _partition_of_tile_x(tiles.column("x").to_numpy(), z, n_parts)
            return write(tiles.append_column("part", pa.array(part)))

        steps = (
            *geocode_steps(replicate),
            functools.partial(_keep_pending, pending=tuple(pending), z=z, n_parts=n_parts),
            admin_pip_left(),
            functools.partial(_partial_pixel_counts, z=z),
            functools.partial(_add_part, z=z, n_parts=n_parts),
        )
        parts = page_docs(sf_dir).map_batches(
            functools.partial(tile_chain, steps=steps), batch_format="pyarrow"
        )
        # lineage is tiny (one row per partition)
        return bucket_exchange(parts, "part", render_and_write).to_pandas()

    return _resume(
        out_dir, n_parts, max_partitions, "flagship", "tile_id", lambda p: _x_range(p, z, n_parts), run
    )


def _keep_pending(batch: pa.Table, pending, z, n_parts) -> pa.Table:
    """The rows of ``batch`` whose lat/lon lie in a ``pending`` partition."""
    part = partition_of_lonlat(
        batch.column("lat").to_numpy(), batch.column("lon").to_numpy(), z, n_parts
    )
    mask = pc.is_in(pa.array(part, pa.int64()), value_set=pa.array(pending, pa.int64()))
    return batch.filter(mask)


def _add_part(batch: pa.Table, z, n_parts) -> pa.Table:
    """Partial pixel counts + their ``part``, from the x bits of
    ``tile_key`` (pipelines/tiles.py:_tile_key)."""
    x = (batch.column("tile_key").to_numpy() >> 22) & ((1 << 22) - 1)
    return batch.append_column("part", pa.array(_partition_of_tile_x(x, z, n_parts)))


def read_output(out_dir):
    """Completed partitions as one Dataset (only lineage-backed parts),
    read in ``shuffle_partitions()`` blocks, one per CPU."""
    done = completed_partitions(out_dir)
    paths = [
        os.path.join(out_dir, f"part={p}", "data.parquet")
        for p in sorted(done, key=int)
        if os.path.exists(os.path.join(out_dir, f"part={p}", "data.parquet"))
    ]
    if not paths:
        raise FileNotFoundError(f"no completed partitions under {out_dir}")
    # no hive partitioning: the `part=<p>` dirs would add a `part` column
    return read_parquet(paths, partitioning=None)


# --- resumable corpus curation ---------------------------------------------


def resumable_curate(sf_dir, out_dir, n_parts=16, max_partitions=None, **curate_kw):
    """Run (or resume) the corpus-curation funnel, checkpointed per
    CONTENT-HASH bucket.

    Partitioning by ``h64 % n_parts`` (not doc_id) makes resume exact:
    every dedup group lies wholly inside one bucket, so recomputing a
    pending bucket sees the same duplicate set as the original run —
    completed buckets can never change its output. The bucket filter is
    applied in the first map_batches (pipelines/curate.py), so completed
    buckets' documents are dropped before the dedup exchange.
    """
    from ..pipelines.curate import curate_corpus

    def run(pending, write):
        ds = curate_corpus(sf_dir, parts=pending, n_parts=n_parts, **curate_kw)
        return bucket_exchange(ds, "part", write).to_pandas()  # tiny

    # cell_lo/cell_hi carry the content-hash bucket id (the lineage
    # schema's range fields; a hash bucket is a degenerate range)
    return _resume(out_dir, n_parts, max_partitions, "curate", "doc_id", lambda p: (p, p), run)
