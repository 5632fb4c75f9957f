"""Shared Parquet reader with CPU-scaled block count.

The driver's testdata tables are each ONE small parquet file; Ray's
single-file default splits it into 2 x CPUs blocks, which at 32 CPUs
makes 64 ~80-row blocks whose map tasks cost more to dispatch than to
run (measured ~0.6s driver-side for a 64-task noop chain vs ~0.2s at 8
blocks; interleaved flagship sweep in BASELINE.md round-5). One block
per CPU keeps a full map wave without paying double dispatch.

On a real many-file corpus the file / row-group count governs the read
parallelism and ``override_num_blocks`` is moot — this helper is a
small-file-input artifact, not a scale knob. Embedding reads do NOT go
through here: the IVF centroid sampler is deliberately row-group-spread
and its sampling layout should not shift with CPU count.
"""

import ray.data

from .ctx import shuffle_partitions


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


def read_table(sf_dir, name, columns=None):
    """``read_parquet`` of one testdata table at ~1 block per CPU."""
    return ray.data.read_parquet(
        f"{sf_dir}/{name}.parquet",
        columns=columns,
        override_num_blocks=shuffle_partitions(cap=256),
    ).map_batches(_strip_schema_metadata, batch_format="pyarrow")
