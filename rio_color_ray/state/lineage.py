"""Per-partition lineage records.

Schema (SURVEY.md §1.2 lineage/metrics table): partition_id, cell range
lo/hi (web-mercator tile-x range at the render zoom), rows_in, rows_out,
stage, wall_s, checkpoint_ts. One JSON file per partition under
``out_dir/_lineage/`` — written atomically (tmp + ``os.replace``) and
only AFTER the partition's data file has been renamed into place.
Atomic, not durable against power loss: nothing is fsynced (nor is the
data file a record vouches for); resume after a killed process needs only
the rename order.
"""

import json
import os
import time
import uuid

import pyarrow as pa

LINEAGE_DIR = "_lineage"
TMP_DIR = "_tmp"

LINEAGE_FIELDS = (
    "partition_id",
    "cell_lo",
    "cell_hi",
    "rows_in",
    "rows_out",
    "stage",
    "wall_s",
    "checkpoint_ts",
)


def _lineage_path(out_dir, partition_id):
    return os.path.join(out_dir, LINEAGE_DIR, f"{partition_id}.json")


def write_lineage_record(out_dir, record):
    """Atomically (not durably) persist one lineage record (tmp file + rename)."""
    missing = [f for f in LINEAGE_FIELDS if f not in record]
    if missing:
        raise ValueError(f"lineage record missing fields: {missing}")
    os.makedirs(os.path.join(out_dir, LINEAGE_DIR), exist_ok=True)
    os.makedirs(os.path.join(out_dir, TMP_DIR), exist_ok=True)
    tmp = os.path.join(out_dir, TMP_DIR, f"lin-{record['partition_id']}-{uuid.uuid4().hex}.json")
    with open(tmp, "w") as f:
        json.dump(record, f)
    os.replace(tmp, _lineage_path(out_dir, record["partition_id"]))


def completed_partitions(out_dir):
    """partition_id -> lineage record for every completed partition."""
    d = os.path.join(out_dir, LINEAGE_DIR)
    if not os.path.isdir(d):
        return {}
    out = {}
    for name in os.listdir(d):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(d, name)) as f:
            rec = json.load(f)
        out[str(rec["partition_id"])] = rec
    return out


def lineage_table(out_dir) -> pa.Table:
    """All lineage records as one Arrow table (the metrics surface)."""
    recs = sorted(completed_partitions(out_dir).values(), key=lambda r: str(r["partition_id"]))
    if not recs:
        return pa.table({f: [] for f in LINEAGE_FIELDS})
    return pa.table({f: [r[f] for r in recs] for f in LINEAGE_FIELDS})


def now_ts():
    """Microsecond ISO-ish timestamp for checkpoint_ts."""
    t = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t)) + f".{int(t % 1 * 1e6):06d}Z"
