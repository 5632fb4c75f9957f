"""Checkpoint / resume / lineage (north_rule: "resumable from checkpoint
with per-partition lineage + metrics").

Output layout (resumable, never one giant file):

    out_dir/
      part=<p>/data.parquet     tile rows of cell-range partition p
      _lineage/<p>.json         written AFTER the data, via atomic rename
      _tmp/                     staging for both (same filesystem)

A partition is complete iff its lineage record exists; data written
without a lineage record (a kill mid-write) is simply overwritten on the
next run, so a killed run never double-counts (SURVEY.md §7 "What's
hard" #5). Resume = read `_lineage/`, anti-join completed partitions,
filter the INPUT corpus (before the expensive join/render stages) to the
remainder and rerun only those cell ranges. A resumable flagship run is
one keyed exchange on the partition id whose reduce renders, colors and
writes each partition (state/checkpoint.py); the resumable corpus
curation writes through the same partition writer and the same resume
protocol.
"""

from .lineage import (
    LINEAGE_DIR,
    completed_partitions,
    lineage_table,
    write_lineage_record,
)
from .checkpoint import (
    partition_of_lonlat,
    read_output,
    resumable_curate,
    resumable_flagship,
)

__all__ = [
    "LINEAGE_DIR",
    "completed_partitions",
    "lineage_table",
    "write_lineage_record",
    "partition_of_lonlat",
    "read_output",
    "resumable_curate",
    "resumable_flagship",
]
