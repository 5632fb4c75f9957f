"""Shared Parquet reader: one block per CPU.

Every read of a testdata table (:func:`read_table`) and of the
checkpoint's output (``state.checkpoint.read_output``: 16 partition
files by default, which Ray's default split read in 8 blocks at 1 CPU)
goes through :func:`read_parquet`. The CLI's reads do not: their block
count sets the CLI's output file count.

The driver's testdata tables are each ONE small parquet file; Ray's
single-file default splits it into 2 x CPUs blocks, which at 32 CPUs
makes 64 ~80-row blocks whose map tasks cost more to dispatch than to
run (measured ~0.6s driver-side for a 64-task noop chain vs ~0.2s at 8
blocks; interleaved flagship sweep in BASELINE.md round-5). One block
per CPU (``ctx.shuffle_partitions``, no floor) keeps a full map wave
without paying double dispatch; at 1 CPU the whole read is one block and
one fused map-chain task.

On a real many-file corpus the file / row-group count governs the read
parallelism and ``override_num_blocks`` is moot — this helper is a
small-file-input artifact, not a scale knob. Embedding reads do NOT go
through here: the IVF centroid sampler is deliberately row-group-spread
and its sampling layout should not shift with CPU count.
"""

import ray.data

from . import ctx


def _strip_schema_metadata(batch):
    """Drop the parquet-embedded pandas schema metadata (zero-copy).

    pyarrow's ``hash(Schema)`` raises on that metadata and Ray 2.49 logs
    a warning per block concat downstream; blocks leaving this reader
    carry a clean, hashable schema.
    """
    return batch.replace_schema_metadata(None)


def table_num_rows(sf_dir, name) -> int:
    """Row count from parquet metadata — no scan. Single home for the
    corpus-size probe (pagerank's node count, extract_links' href
    domain) so the two sides of the embedded link graph can never
    diverge on n."""
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/{name}.parquet").num_rows


def read_parquet(paths, **kwargs):
    """``ray.data.read_parquet`` of ``paths`` in ``ctx.shuffle_partitions()``
    blocks, one per CPU; ``kwargs`` go to Ray's reader."""
    return ray.data.read_parquet(paths, override_num_blocks=ctx.shuffle_partitions(), **kwargs)


def read_table(sf_dir, name, columns=None):
    """:func:`read_parquet` of one testdata table, its pandas schema
    metadata dropped."""
    return read_parquet(f"{sf_dir}/{name}.parquet", columns=columns).map_batches(
        _strip_schema_metadata, batch_format="pyarrow"
    )
