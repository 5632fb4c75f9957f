"""kNN pipelines: exact brute top-k (oracle path) + cell-ring scale path.

Queries are the pages with ``doc_id < n_queries`` (self-matches excluded);
results are (query_id, url, rank) with rank by exact integer (d2, url) —
deterministic and SQL-mirrorable.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..ctx import collect
from ..sources.pages import page_coords_microdeg
from ..spatial import hex_cell, hex_disk
from ..stages.agg import keyed_topk
from ..stages.join import broadcast_join
from ..stages.knn import KNNBruteStage, knn_guarantee_radius
from ..stages.statecache import make_stage_fn
from .geo import cellified

# nearest first; the url breaks distance ties, as in the SQL twin
NEAREST = [("d2", "ascending"), ("url", "ascending")]


def _query_side(sf_dir, n_queries):
    """Driver-side query set: (urls, lat_u, lon_u) for doc_id < n_queries.

    Deterministic and tiny; mirrors the pages derivation exactly. The
    source names come from the documents table (read once, small column).
    """
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    doc_id = t.column("doc_id").to_numpy()
    source = t.column("source").to_numpy(zero_copy_only=False)
    sel = doc_id < n_queries
    doc_id, source = doc_id[sel], source[sel]
    order = np.argsort(doc_id)
    doc_id, source = doc_id[order], source[order]
    lat_u, lon_u = page_coords_microdeg(doc_id)
    urls = np.asarray(
        [f"https://{s}.example.com/doc/{d}" for s, d in zip(source, doc_id)]
    )
    return doc_id, urls, lat_u, lon_u


def _brute_ranked(pts, query_ids, urls, lat_u, lon_u, k):
    """Exact kNN of the given queries via broadcast: ``KNNBruteStage``'s
    per-batch partial top-k, merged and ranked per query by
    ``stages.agg.keyed_topk``. Returns (query_id, url, rank) with the
    query's position mapped to ``query_ids``. The queries are a few KB,
    so they ride in the stage function's arguments."""
    partial = pts.map_batches(
        make_stage_fn(KNNBruteStage, urls, lat_u, lon_u, k), batch_format="pyarrow"
    )
    ranked = keyed_topk(partial, "query_id", NEAREST, k).select_columns(["query_id", "url", "rank"])

    def relabel(batch: pa.Table) -> pa.Table:
        qpos = batch.column("query_id").to_numpy()
        return batch.set_column(0, "query_id", pa.array(query_ids[qpos], pa.int64()))

    return ranked.map_batches(relabel, batch_format="pyarrow")


def knn(sf_dir, k=5, n_queries=100):
    """Exact kNN via broadcast queries (``_brute_ranked``).

    Returns (query_id, url, rank); query_id is the query page's doc_id.
    """
    doc_id, urls, lat_u, lon_u = _query_side(sf_dir, n_queries)
    pts = cellified(sf_dir, keep_columns=["url", "lat", "lon"])
    return _brute_ranked(pts, doc_id, urls, lat_u, lon_u, k)


def knn_sql(k=5, n_queries=100):
    """DuckDB oracle: exact integer-distance cross join + window rank."""
    from ..sources.pages import pages_sql_cte

    pages = pages_sql_cte()
    return f"""
WITH pages_u AS ({pages.replace("lat_microdeg / 1000000.0 AS lat, lon_microdeg / 1000000.0 AS lon",
                                "lat_microdeg, lon_microdeg")}),
q AS (SELECT doc_id AS qid, url AS qurl, lat_microdeg AS qlat, lon_microdeg AS qlon
      FROM pages_u WHERE doc_id < {n_queries})
SELECT query_id, url, rank FROM (
  SELECT q.qid AS query_id, p.url AS url,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY (p.lat_microdeg - q.qlat) * (p.lat_microdeg - q.qlat)
                  + (p.lon_microdeg - q.qlon) * (p.lon_microdeg - q.qlon),
                    p.url
         ) AS rank
  FROM pages_u p CROSS JOIN q
  WHERE p.url <> q.qurl
) WHERE rank <= {k}
"""


def knn_cells(sf_dir, k=5, n_queries=100, res=6, radius=2, max_rounds=4):
    """Cell-ring kNN (the scale path).

    Every block of points joins the broadcast candidate cells of the
    queries on the hex cell id (``stages.join.broadcast_join``) and emits
    local (query, url, d2) pairs; a keyed top-k per query keeps and
    ranks the k nearest. Queries whose k-th distance violates the
    ring guarantee escalate with doubled radius; the provably-exact
    invariant is asserted in tests against the brute path. The ranked
    rows are collected per round, so the result is a small Dataset built
    from them, sorted by (query_id, rank).
    """
    doc_id, urls, lat_u, lon_u = _query_side(sf_dir, n_queries)

    pts = cellified(sf_dir, keep_columns=["url", "lat", "lon"])

    def add_cell(batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy()
        lon = batch.column("lon").to_numpy()
        cell = hex_cell(lat, lon, res).astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "url": batch.column("url"),
                "lat_u": pa.array(np.rint(lat * 1e6).astype(np.int64), pa.int64()),
                "lon_u": pa.array(np.rint(lon * 1e6).astype(np.int64), pa.int64()),
            }
        )

    # pin the cellified points: every escalation round re-scans them, and
    # without this the whole read+cellify re-executes per round. The
    # pinned set is (cell, url, lat_u, lon_u) — a fraction of the
    # corpus; at cluster scale the object store spills it rather than
    # re-reading storage each round (a deliberate trade documented here).
    cell_pts = pts.map_batches(add_cell, batch_format="pyarrow").materialize()

    remaining = np.arange(len(doc_id))
    results = []
    r = radius
    for _round in range(max_rounds):
        if len(remaining) == 0:
            break
        qlat, qlon = lat_u[remaining], lon_u[remaining]
        qcell = hex_cell(qlat / 1e6, qlon / 1e6, res)
        ids, owner = hex_disk(qcell, int(r))
        cand = pa.table({"cell": ids.astype(np.int64), "qpos": remaining[owner]})

        def local_pairs(m: pa.Table) -> pa.Table:
            qp = m.column("qpos").to_numpy()
            d2 = (m.column("lat_u").to_numpy() - lat_u[qp]) ** 2 + (
                m.column("lon_u").to_numpy() - lon_u[qp]
            ) ** 2
            keep = pc.not_equal(m.column("url"), pa.array(urls[qp], pa.string()))  # self-exclusion
            pairs = pa.table({"query_id": pa.array(qp, pa.int64()), "url": m.column("url"), "d2": d2})
            return pairs.filter(keep)

        # broadcast the candidate table (small: queries x disk size), then
        # rank per query INSIDE the dataset (keyed on query_id; its
        # combiner keeps <= k rows per query per block), so the driver
        # only ever collects <= k rows per query — independent of the
        # input's block count
        pairs = broadcast_join(cell_pts, cand, "cell").map_batches(local_pairs, batch_format="pyarrow")
        top = collect(keyed_topk(pairs, "query_id", NEAREST, k).select_columns(["query_id", "url", "d2", "rank"]))
        if top.num_rows == 0:
            r *= 2
            continue

        # guarantee check: k found AND k-th distance within the proven radius
        stats = top.group_by("query_id", use_threads=False).aggregate([("d2", "count"), ("d2", "max")])
        need = knn_guarantee_radius(res, stats.column("d2_max").to_numpy())
        ok = stats.column("query_id").to_numpy()[(stats.column("d2_count").to_numpy() >= k) & (need <= r)]
        results.append(top.filter(pc.is_in(top.column("query_id"), pa.array(ok))).select(["query_id", "url", "rank"]))
        remaining = remaining[~np.isin(remaining, ok)]
        r *= 2

    if len(remaining):
        # stragglers: exact brute pass restricted to the remaining queries
        ranked = _brute_ranked(pts, remaining, urls[remaining], lat_u[remaining], lon_u[remaining], k)
        results.append(collect(ranked))

    out = pa.concat_tables(results)
    out = out.set_column(0, "query_id", pa.array(doc_id[out.column("query_id").to_numpy()], pa.int64()))
    return ray.data.from_arrow(out.sort_by([("query_id", "ascending"), ("rank", "ascending")]))
