"""Fold each consumed Dataset's ``stats()`` into per-layer metrics.

Ray records, per operator: wall, CPU and UDF time, rows, blocks, tasks
and per-task times (``Dataset.stats()`` prints them; the structured form
is read here). Operators are named by the UDFs Ray fused into them, so
each is mapped to the engine module whose function it runs.
"""

import re

# UDF name of a keyed exchange's reduce operator -> engine module
EXCHANGE_LAYERS = {
    "per_bucket": "stages.agg",
    "pairs_bucket": "stages.dedup",
    "attach": "pipelines.corpus",
    "verify": "pipelines.corpus",
    "fn": "stages.cluster",  # min_label_components' spread passes
    "finish": "stages.cluster",
    "write_group": "state.checkpoint",
}


def flatten(summary, seen=None):
    """Every operator summary of a dataset and its parents, output first."""
    seen = set() if seen is None else seen
    ops = []
    if id(summary) in seen:
        return ops
    seen.add(id(summary))
    ops.extend(summary.operators_stats)
    for p in summary.parents:
        ops.extend(flatten(p, seen))
    return ops


def operators(ds):
    return flatten(ds._get_stats_summary())


def udfs(op):
    return re.findall(r"MapBatches\(([^)]*)\)", op.operator_name)


def blocks(op):
    m = re.search(r"(\d+) blocks produced", op.block_execution_summary_str or "")
    return int(m.group(1)) if m else 0


def _ratio(d):
    return d["max"] / d["mean"] if d and d["mean"] else 1.0


def exchanges(ops):
    """(reduce operator, its shuffle sub-operators) for every exchange."""
    out = []
    for i, op in enumerate(ops):
        if op.is_sub_operator:
            continue
        subs = []
        for nxt in ops[i + 1 :]:
            if not nxt.is_sub_operator:
                break
            subs.append(nxt)
        if subs:
            out.append((op, subs))
    return out


def _span(ops):
    starts = [o.earliest_start_time for o in ops if o.earliest_start_time]
    ends = [o.latest_end_time for o in ops if o.latest_end_time]
    return max(ends) - min(starts) if starts and ends else 0.0


def io_metrics(datasets):
    wall, nblocks = 0.0, 0
    for _, ds in datasets:
        for op in operators(ds):
            if op.operator_name.startswith("ReadParquet"):
                wall += op.time_total_s
                nblocks += blocks(op)
    return {"io.read.wall_s": wall, "io.read.blocks": nblocks}


def exchange_metrics(datasets):
    """op.<module>.{wall_s,tasks,rows_max_over_mean} per exchange layer."""
    acc = {}
    for _, ds in datasets:
        for op, subs in exchanges(operators(ds)):
            names = udfs(op)
            layer = EXCHANGE_LAYERS.get(names[0]) if names else None
            if layer is None:
                continue
            a = acc.setdefault(layer, {"wall_s": 0.0, "tasks": 0, "rows_max_over_mean": 0.0})
            a["wall_s"] += _span([op, *subs])
            a["tasks"] += op.task_rows["count"] if op.task_rows else 0
            a["rows_max_over_mean"] = max(a["rows_max_over_mean"], _ratio(op.task_rows))
    return {f"op.{layer}.{k}": v for layer, a in acc.items() for k, v in a.items()}


def flagship_metrics(datasets, pages):
    """Map chain, tile exchange and assemble+color operator of flagship."""
    m = {}
    for _, ds in datasets:
        ops = operators(ds)
        for op, subs in exchanges(ops):
            if "_assemble_bucket" not in udfs(op):
                continue
            m["pipelines.tiles.sort.wall_s"] = _span(subs)
            m["pipelines.tiles.sort.remote_s"] = sum(s.wall_time["sum"] for s in subs if s.wall_time)
            m["pipelines.tiles.reduce_tasks"] = op.task_rows["count"]
            m["pipelines.tiles.reduce_rows_max_over_mean"] = _ratio(op.task_rows)
            m["pipelines.tiles.assemble_color.udf_s"] = op.udf_time["sum"]
            m["pipelines.tiles.assemble_color.task_max_over_mean"] = _ratio(op.wall_time)
            m["pipelines.tiles.assemble_color.peak_heap_mb"] = op.memory["max"]
        for op in ops:
            if "geocode_batch" in udfs(op):
                m["pipelines.flagship.map_chain.wall_s"] = op.time_total_s
                m["pipelines.flagship.map_chain.udf_s"] = op.udf_time["sum"]
                m["pipelines.flagship.map_chain.task_max_over_mean"] = _ratio(op.wall_time)
                m["pipelines.tiles.partial_rows_per_page"] = op.output_num_rows["sum"] / pages
    return m


def checkpoint_metrics(datasets):
    wall = 0.0
    for _, ds in datasets:
        for op in operators(ds):
            if "write_group" in udfs(op):
                wall += op.time_total_s
    return {"state.checkpoint.write.wall_s": wall}
