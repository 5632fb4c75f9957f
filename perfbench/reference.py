"""A fixed Ray Data job timed beside each workload run, to factor out
how fast the host is at the moment.

On a shared host the same run's wall and CPU time move by a fifth or more
within minutes, with co-tenants' load, steal and the cores' clocks. This
job does the same kinds of work as the engine's pipelines (Ray tasks, an
all-to-all sort, numpy, pyarrow and interpreter loops) and calls none of
the engine's code, so a change to the engine does not move it. The
benchmark runs it after every timed run and reports each time as
``REF_*_S * (workload median / reference median)``: seconds on a host
where this job takes ``REF_WALL_S`` of wall and ``REF_CPU_S`` of CPU time.
"""

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ROWS = 200_000
BLOCKS = 16
# the job's wall and CPU seconds in one warm Ray session at 1 CPU on an
# unloaded 4-vCPU VM; they only fix the scale of the reported seconds
REF_WALL_S = 1.5
REF_CPU_S = 2.5


def _hash(batch):
    x = batch["id"].astype(np.uint64)
    with np.errstate(over="ignore"):
        for _ in range(4):
            x = (x ^ (x >> np.uint64(31))) * np.uint64(0xBF58476D1CE4E5B9)
    return {"k": (x % np.uint64(4096)).astype(np.int64), "v": batch["id"]}


def _count(table):
    counts = {}
    for k in table.column("k").to_pylist():
        counts[k] = counts.get(k, 0) + 1
    return pa.table({"k": list(counts), "n": list(counts.values())})


def run():
    """Hash, sort by key, count per key in Python; checks the row total."""
    import ray

    ds = ray.data.range(ROWS, override_num_blocks=BLOCKS).map_batches(_hash, batch_format="numpy")
    ds = ds.sort("k").map_batches(_count, batch_format="pyarrow", batch_size=None)
    total = sum(pc.sum(t.column("n")).as_py() or 0 for t in ray.get(ds.to_arrow_refs()))
    if total != ROWS:
        raise RuntimeError(f"reference job counted {total} rows, not {ROWS}")


def measure(cpu_meter):
    """(wall s, CPU s of this process and its children) of one run()."""
    cpu0 = cpu_meter.read()
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0, cpu_meter.read() - cpu0
